"""Summarize an interval stream into one observed summary per interval.

``summarize_stream`` is the expensive, model-independent half of every
experiment: it hashes each interval's records once into ``So(t)``, and
the list it returns feeds many forecasts -- a grid search scores every
parameter point over it, and the per-flow oracle steps its forecaster
over the dense vectors.  Pass a :class:`~repro.sketch.kary.KArySchema`
for the paper's sketches or a :class:`~repro.sketch.dense.DenseSchema`
(or :class:`~repro.sketch.exact.ExactSchema`) for exact per-flow
vectors: forecasters are state-agnostic, so the same forecaster code
runs over either.  Detection itself seals intervals through
:class:`~repro.detection.session.IntervalSealer`.
"""

from __future__ import annotations

from typing import Any, Iterable, List

from repro.streams.model import KeyedUpdates


def summarize_stream(batches: Iterable[KeyedUpdates], schema) -> List[Any]:
    """Build the observed summary ``So(t)`` for every interval.

    ``schema`` is any object with ``from_items(keys, values)`` --
    KArySchema, DenseSchema, ExactSchema, CountMinSchema, ...
    """
    return [schema.from_items(batch.keys, batch.values) for batch in batches]
