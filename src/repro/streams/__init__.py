"""Turnstile-model data stream abstractions and flow-record handling.

The paper's data model (Section 2.1) is the Turnstile Model: a stream of
``(key, update)`` items where each key's underlying signal accumulates the
updates.  Keys are built from packet/flow header fields; updates are bytes,
packets, or counts.

This package provides:

* :mod:`~repro.streams.records` -- the NetFlow-like flow record layout
  (a NumPy structured dtype) and synthetic record helpers.
* :mod:`~repro.streams.keys` -- key schemes mapping records to integer keys
  (destination IP as in the paper's experiments, plus source IP, address
  pairs, prefixes, ports) and value schemes (bytes, packets, count).
* :mod:`~repro.streams.intervals` -- time binning into fixed intervals,
  including the randomized-interval extension from the paper's "ongoing
  work" section.
* :mod:`~repro.streams.netflow` -- binary and CSV readers/writers for flow
  traces, standing in for the paper's NetFlow dumps.
* :mod:`~repro.streams.model` -- the keyed update stream / interval stream
  glue used by the detection pipelines.
"""

from repro.streams.intervals import (
    IntervalSlicer,
    RandomizedIntervalSlicer,
    interval_edge,
    interval_index,
)
from repro.streams.keys import (
    KeyScheme,
    ValueScheme,
    make_key_scheme,
    make_value_scheme,
)
from repro.streams.model import IntervalStream, KeyedUpdates, StreamItem
from repro.streams.netflow import (
    NETFLOW_MAGIC,
    read_trace,
    read_trace_csv,
    write_trace,
    write_trace_csv,
)
from repro.streams.records import (
    FLOW_RECORD_DTYPE,
    concat_records,
    empty_records,
    make_records,
    sort_by_time,
    validate_records,
)
from repro.streams.sampling import (
    sample_and_hold_keys,
    sample_records,
    sampling_error_scale,
)
from repro.streams.sharding import iter_interval_chunks, iter_interval_columns

__all__ = [
    "FLOW_RECORD_DTYPE",
    "IntervalSlicer",
    "IntervalStream",
    "KeyScheme",
    "KeyedUpdates",
    "NETFLOW_MAGIC",
    "RandomizedIntervalSlicer",
    "StreamItem",
    "ValueScheme",
    "concat_records",
    "empty_records",
    "interval_edge",
    "interval_index",
    "iter_interval_chunks",
    "iter_interval_columns",
    "make_key_scheme",
    "make_records",
    "make_value_scheme",
    "read_trace",
    "read_trace_csv",
    "sample_and_hold_keys",
    "sample_records",
    "sampling_error_scale",
    "sort_by_time",
    "validate_records",
    "write_trace",
    "write_trace_csv",
]
