"""The reference seal path every detection driver must reproduce exactly.

Each interval is sketched whole with ``schema.from_items`` and stepped
with the allocating ``Forecaster.step``.  Its report is written out here
from the paper's §3.3 rule, without the code under test: candidates are
the interval's distinct keys (or ``recover_candidates`` for the
invertible key source), every candidate's error is ``estimate_batch``,
a key alarms when ``|error| >= T * sqrt(ESTIMATEF2(Se))`` (``> 0`` at a
zero threshold), and the top-N is a full ``np.lexsort`` by magnitude,
then key.  No scratch summaries, no prescreen, no per-chunk
accumulation: the slow, obvious version of
:class:`~repro.detection.session.IntervalSealer`.
"""

from __future__ import annotations

import numpy as np

from repro.detection import Alarm, IntervalDetection
from repro.forecast.model_zoo import make_forecaster


def oracle_reports(
    schema, model, batches, *, t_fraction=0.05, top_n=0,
    key_source="twopass", **params,
):
    """Reference reports for ``batches`` (one whole interval each)."""
    forecaster = make_forecaster(model, **params)
    reports = []
    for batch in batches:
        step = forecaster.step(schema.from_items(batch.keys, batch.values))
        if step.error is not None:
            reports.append(
                _reference_report(
                    step.error, batch, t_fraction, top_n, key_source
                )
            )
    return reports


def _reference_report(error, batch, t_fraction, top_n, key_source):
    l2 = error.l2_norm()
    threshold = 0.0 if t_fraction is None else t_fraction * l2
    if key_source == "invertible":
        keys = error.recover_candidates(threshold)
    elif key_source == "twopass":
        keys = np.unique(np.asarray(batch.keys, dtype=np.uint64))
    else:
        raise ValueError(f"no reference for key source {key_source!r}")
    errors = error.estimate_batch(keys)
    magnitudes = np.abs(errors)
    alarms = []
    if t_fraction is not None:
        hits = magnitudes >= threshold if threshold > 0.0 else magnitudes > 0.0
        alarms = [
            Alarm(batch.index, key, err, threshold)
            for key, err in zip(keys[hits].tolist(), errors[hits].tolist())
        ]
    top = np.lexsort((keys, -magnitudes))[:top_n]
    return IntervalDetection(
        index=batch.index, threshold=threshold, alarms=alarms,
        top_keys=keys[top], top_errors=errors[top], error_l2=l2,
    )


def assert_reports_identical(got, reference):
    """Bit-for-bit equal reports: thresholds, alarms in order, top-N."""
    assert len(got) == len(reference)
    for a, b in zip(got, reference):
        assert a.index == b.index
        assert a.threshold == b.threshold  # bit-identical, not approx
        assert a.error_l2 == b.error_l2
        assert [(x.key, x.estimated_error) for x in a.alarms] == [
            (x.key, x.estimated_error) for x in b.alarms
        ]
        assert np.array_equal(a.top_keys, b.top_keys)
        assert np.array_equal(a.top_errors, b.top_errors)
