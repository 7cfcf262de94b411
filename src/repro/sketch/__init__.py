"""Sketch data structures: compact linear summaries of keyed update streams.

The centerpiece is the paper's :class:`~repro.sketch.kary.KArySketch` with
its four operations (UPDATE, ESTIMATE, ESTIMATEF2, COMBINE).  Alongside it:

* :class:`~repro.sketch.countmin.CountMinSketch` and
  :class:`~repro.sketch.countsketch.CountSketch` -- the two standard
  alternatives the paper positions k-ary sketches against (Count Sketch is
  the Charikar et al. structure the k-ary sketch is "similar to", with
  simpler/faster operations).
* :class:`~repro.sketch.invertible.InvertibleKArySketch` -- a k-ary sketch
  extended with per-bucket majority-vote candidate slots, so heavy changers
  can be *recovered* from the sealed error sketch in O(H*K) without
  replaying the interval's key stream.
* :class:`~repro.sketch.exact.DictVector` -- an *exact* keyed vector with
  the same linear-summary interface, used as the per-flow ground truth in
  every accuracy experiment.

The hashed kinds (k-ary, invertible, Count-Min, Count Sketch and
:mod:`repro.detection.grouptesting`'s group-testing sketch) derive from
one base, :class:`~repro.sketch.base.HashedSchema` and
:class:`~repro.sketch.base.HashedSketch`: the schema's validation, row
hashes, identity and FOLD target, and the sketch's table, COMBINE and
FOLD are written once there.  Each kind adds its ``kind`` name, UPDATE
and estimators.

All summaries are **linear**: they support ``+``, ``-`` and multiplication
by a scalar, which is what lets the forecasting module run time-series
models directly in sketch space (paper Section 3.2).
"""

from repro.sketch.base import LinearSummary, SummaryConvention
from repro.sketch.countmin import CountMinSketch, CountMinSchema
from repro.sketch.countsketch import CountSketch, CountSketchSchema
from repro.sketch.dense import DenseSchema, DenseVector, KeyIndex
from repro.sketch.exact import DictVector, ExactSchema
from repro.sketch.invertible import InvertibleKArySchema, InvertibleKArySketch
from repro.sketch.kary import KArySchema, KArySketch, tables_estimate_f2
from repro.sketch.mergeable import (
    combine,
    fold_width,
    half_width_schema,
    kind_of,
    merge,
)
from repro.sketch.serialization import (
    SketchDecodeError,
    dump,
    dumps,
    load,
    loads,
)

__all__ = [
    "CountMinSchema",
    "CountMinSketch",
    "CountSketch",
    "CountSketchSchema",
    "DenseSchema",
    "DenseVector",
    "DictVector",
    "ExactSchema",
    "InvertibleKArySchema",
    "InvertibleKArySketch",
    "KArySchema",
    "KArySketch",
    "KeyIndex",
    "LinearSummary",
    "SketchDecodeError",
    "SummaryConvention",
    "combine",
    "fold_width",
    "half_width_schema",
    "kind_of",
    "merge",
    "tables_estimate_f2",
    "dump",
    "dumps",
    "load",
    "loads",
]
