"""Reference answers for the end-to-end benchmark, and the comparison rule.

The reference recomputes every report the slow, obvious way:

* **streams** -- each interval is sketched whole with ``schema.from_items``,
  stepped through a fresh forecaster with the allocating ``step``, and
  reported by ``build_interval_report(prescreen=False)``.  Candidates are
  the interval's distinct keys, or for the invertible workload the keys
  ``recover_candidates`` walks out of the reference error sketch.
* **archive queries** -- both snapped ranges of a diff are sketched
  directly from their records, folded (``fold_width`` over
  ``half_width_schema``) to the width the archive answered at, and
  differenced with the same rate normalisation.

Byte counts are integers, so every sum here is exact in float64 and the
reference must match the system bit for bit.  A report matches when its
interval, ``error_l2`` and alarms' ``(key, estimated_error)`` are equal.
"""

from __future__ import annotations

from itertools import zip_longest

import numpy as np

from repro.detection import build_interval_report
from repro.forecast import make_forecaster
from repro.sketch import combine, fold_width, half_width_schema

from workloads import interval_indices


def signature(report) -> tuple:
    """What two reports must agree on: interval, ``error_l2``, alarms."""
    return (
        report.index,
        report.error_l2,
        tuple((a.key, a.estimated_error) for a in report.alarms),
    )


def count_mismatches(got, want) -> int:
    """Reports in ``got`` that differ from ``want`` (missing or extra count)."""
    return sum(
        a is None or b is None or signature(a) != signature(b)
        for a, b in zip_longest(got, want)
    )


def _columns(records):
    return records["dst_ip"].astype(np.uint64), records["bytes"].astype(np.float64)


def stream_reports(w, schema, records) -> list:
    """The reports a session over ``records`` must emit, one per interval."""
    keys, values = _columns(records)
    idx = interval_indices(records)
    first, last = int(idx[0]), int(idx[-1])
    bounds = np.searchsorted(idx, np.arange(first, last + 2))
    forecaster = make_forecaster(w.model, **w.model_params)
    reports = []
    for i, interval in enumerate(range(first, last + 1)):
        lo, hi = bounds[i], bounds[i + 1]
        step = forecaster.step(schema.from_items(keys[lo:hi], values[lo:hi]))
        if step.error is None:
            continue
        if w.invertible:
            cands = step.error.recover_candidates(w.t_fraction * step.error.l2_norm())
        else:
            cands = np.unique(keys[lo:hi])
        reports.append(
            build_interval_report(
                step.error, cands, interval=interval, t_fraction=w.t_fraction,
                top_n=w.top_n, schema=schema, prescreen=False,
            )
        )
    return reports


def query_answers(w, schema, records, snapped, keys) -> list:
    """The reports the archive's diffs over the ``snapped`` ranges must give.

    ``snapped`` holds ``(range_a, range_b, width)`` per query, as the
    archive reported them.
    """
    k, v = _columns(records)
    idx = interval_indices(records)
    halves, built = {}, {}

    def sketch(lo, hi, width):
        if (lo, hi, width) not in built:
            a, b = np.searchsorted(idx, [lo, hi])
            s = schema.from_items(k[a:b], v[a:b])
            while s.schema.width > width:
                if s.schema.width not in halves:
                    halves[s.schema.width] = half_width_schema(s.schema)
                s = fold_width(s, schema=halves[s.schema.width])
            built[(lo, hi, width)] = s
        return built[(lo, hi, width)]

    candidates = np.unique(keys)
    answers = []
    for (a_lo, a_hi), (b_lo, b_hi), width in snapped:
        error = combine(
            [1.0, -(a_hi - a_lo) / (b_hi - b_lo)],
            [sketch(a_lo, a_hi, width), sketch(b_lo, b_hi, width)],
        )
        answers.append(
            build_interval_report(
                error, candidates, interval=a_lo, t_fraction=w.t_fraction,
                top_n=w.top_n, schema=error.schema, prescreen=False,
            )
        )
    return answers

