"""Resident sketch tables per steady-state seal, measured with tracemalloc.

A seal needs the observed interval ``So(t)``, which the forecast step
overwrites with the error ``Se(t)``, and the model state: EWMA's ``Sf``
(2 tables), NSHW's level and trend (3).  The step rewrites the state in
place and writes ``Se`` over ``So``, NSHW derives ``Sf`` instead of
storing it, and the session drops a sealed interval before it allocates
the next one, so the traced peak over steady-state seals stays within
three quarters of a table of those counts.  A separate ``Se`` table, a
spare forecast table, a stored NSHW ``Sf`` or the next interval's table
allocated early each add a whole table and fail here.

The same holds for an invertible sketch's whole store (counters and
candidate planes), with and without the compiled kernels: the step folds
the candidate planes in the pass that combines the counters, so a seal
that builds a fresh store for ``Se`` or the new state fails here too.
"""

import tracemalloc

import numpy as np
import pytest

from repro.detection import StreamingSession
from repro.hashing import _kernels
from repro.sketch import InvertibleKArySchema, KArySchema
from repro.streams.model import KeyedUpdates

KEYS_PER_BLOCK = 2_000
INTERVALS = 8

#: Model, parameters, warm-up seals and the ceiling in tables.
CASES = {
    "ewma": ({"alpha": 0.4}, 1, 2.75),
    "nshw": ({"alpha": 0.4, "beta": 0.2}, 2, 3.75),
}


@pytest.fixture(scope="module")
def schema():
    return KArySchema(depth=3, width=32_768, seed=17)


def _block(index: int) -> KeyedUpdates:
    i = np.arange(index * KEYS_PER_BLOCK, (index + 1) * KEYS_PER_BLOCK,
                  dtype=np.uint64)
    keys = (i * np.uint64(2654435761)) % np.uint64(50_021)
    values = 40.0 + (i % np.uint64(1_499)).astype(np.float64)
    return KeyedUpdates(index=index, keys=keys, values=values)


def _steady_state_peak(schema, model: str, key_source="twopass") -> float:
    """Peak traced bytes over the seals past warm-up, in tables."""
    params, warmup, _ = CASES[model]
    session = StreamingSession(
        schema, model, interval_seconds=60.0, t_fraction=0.05, top_n=10,
        key_source=key_source, **params,
    )
    peak = 0
    for index in range(INTERVALS):
        # Ingesting the block for ``index`` seals interval ``index - 1``.
        tracemalloc.reset_peak()
        session.ingest_columns(_block(index))
        if index - 1 > warmup:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    return peak / schema.table_bytes


@pytest.mark.parametrize("model", sorted(CASES))
def test_steady_state_seal_holds_each_table_once(schema, model):
    # A throwaway session first: whatever the first seal builds once per
    # process (kernel handles, caches) stays out of the count.
    _steady_state_peak(schema, model)
    tracemalloc.start()
    try:
        tables = _steady_state_peak(schema, model)
    finally:
        tracemalloc.stop()
    assert tables <= CASES[model][2], f"{model}: {tables:.2f} tables"


@pytest.mark.parametrize("model", sorted(CASES))
@pytest.mark.parametrize("kernels", [True, False], ids=["kernels", "numpy"])
def test_invertible_seal_holds_each_store_once(model, kernels, monkeypatch):
    if not kernels:
        monkeypatch.setattr(_kernels, "_KERNELS", None)
    elif _kernels.get_kernels() is None:
        pytest.skip("compiled kernels are off")
    schema = InvertibleKArySchema(depth=3, width=32_768, seed=17)
    _steady_state_peak(schema, model, "invertible")
    tracemalloc.start()
    try:
        stores = _steady_state_peak(schema, model, "invertible")
    finally:
        tracemalloc.stop()
    assert stores <= CASES[model][2], f"{model}: {stores:.2f} stores"
