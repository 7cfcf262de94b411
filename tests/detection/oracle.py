"""The reference seal path every detection driver must reproduce exactly.

Each interval is sketched whole with ``schema.from_items``, stepped with
the allocating ``Forecaster.step``, its candidates resolved through the
key-source registry, and reported by ``build_interval_report`` with
``prescreen=False`` (a full median over every candidate).  No scratch
summaries, no prescreen, no per-chunk accumulation: the slow, obvious
version of :class:`~repro.detection.session.IntervalSealer`.
"""

from __future__ import annotations

import numpy as np

from repro.detection import build_interval_report, resolve_key_source
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
        if step.error is None:
            continue
        candidates = resolve_key_source(
            key_source, step.error, t_fraction=t_fraction,
            collected=np.unique(batch.keys),
        )
        reports.append(
            build_interval_report(
                step.error, candidates, interval=batch.index,
                t_fraction=t_fraction, top_n=top_n, schema=schema,
                prescreen=False,
            )
        )
    return reports


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
