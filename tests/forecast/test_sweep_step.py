"""``step_into`` as one statement sweep: EWMA and NSHW over hashed sketches.

The sweep rewrites model state in place and writes ``Se`` over the
observation it is handed, so these tests pin the ownership rule: it
writes only tables the forecaster allocated and that observation --
never an observation retained in warm-up, a ``set_state`` input or a
``get_state`` snapshot -- and each step's error and the model state it
leaves equal what :meth:`Forecaster.step` gives for the same interval,
bit for bit, including when a stream switches from ``step`` to
``step_into``.  Every
hashed kind sweeps: plain k-ary, invertible (whose whole store, candidate
planes included, is compared), Count-Min, Count Sketch and group testing.
"""

import itertools

import numpy as np
import pytest

from repro.detection.grouptesting import GroupTestingSchema
from repro.forecast import EWMAForecaster, HoltWintersForecaster
from repro.sketch import (
    CountMinSchema,
    CountSketchSchema,
    InvertibleKArySchema,
    KArySchema,
    KArySketch,
)

MODELS = {
    "ewma": lambda: EWMAForecaster(alpha=0.35),
    "nshw": lambda: HoltWintersForecaster(alpha=0.4, beta=0.25),
}
N_STEPS = 9  # NSHW warms up for two, leaving seven swept intervals

#: One schema per hashed kind; keys stay below 3,000 < 2**12.
KINDS = {
    "kary": lambda: KArySchema(depth=3, width=700, seed=8),
    "invertible": lambda: InvertibleKArySchema(depth=3, width=700, seed=8),
    "countmin": lambda: CountMinSchema(depth=3, width=700, seed=8),
    "countsketch": lambda: CountSketchSchema(depth=3, width=700, seed=8),
    "grouptesting": lambda: GroupTestingSchema(
        depth=3, width=256, key_bits=12, seed=8
    ),
}


def _case_id(kind, *rest):
    """The k-ary cases keep their ids from before the other kinds swept."""
    return "-".join(([] if kind == "kary" else [kind]) + [str(r) for r in rest])


def _cases(*axes):
    """Every kind crossed with ``axes``, the kind first."""
    return [
        pytest.param(*case, id=_case_id(*case))
        for case in itertools.product(KINDS, *axes)
    ]


@pytest.fixture
def schema():
    return KINDS["kary"]()


def _observations(schema, rng, n=N_STEPS):
    series = []
    for _ in range(n):
        keys = rng.integers(0, 3000, 400, dtype=np.uint64)
        values = rng.integers(1, 1000, 400).astype(np.float64)
        series.append(schema.from_items(keys, values))
    return series


def _bytes(summary):
    """The whole table: an invertible sketch's candidate planes too."""
    return np.asarray(summary.table).tobytes()


def _state_bytes(state):
    return {k: _bytes(v) for k, v in state.items() if hasattr(v, "table")}


def _forbidden_combine(self, *args, **kwargs):
    raise AssertionError("the sweep step ran a COMBINE")


@pytest.mark.parametrize(
    "kind, switch_at, model", _cases([0, 1, 2, 4], sorted(MODELS))
)
def test_step_into_matches_step_and_owns_its_tables(kind, switch_at, model, rng):
    """``step()`` for ``switch_at`` intervals, then ``step_into`` on copies.

    Past warm-up ``Se`` comes back in the observation handed over; one
    handed over in warm-up may be retained but is never written.
    """
    schema = KINDS[kind]()
    series = _observations(schema, rng)
    originals = [_bytes(s) for s in series]
    reference, swept = MODELS[model](), MODELS[model]()
    warmup = 1 if model == "ewma" else 2
    sketch_type = type(series[0])
    warmed = []
    for t, observed in enumerate(series):
        want = reference.step(observed)
        if t < switch_at:
            got = swept.step(observed).error
        else:
            mine = observed.copy()
            with pytest.MonkeyPatch.context() as mp:
                if t >= warmup:  # past warm-up the step is one sweep
                    for attr in ("_linear_combination", "combine_into"):
                        mp.setattr(sketch_type, attr, _forbidden_combine)
                got = swept.step_into(mine)
            if got is None:
                warmed.append((t, mine))
            else:
                assert got is mine, t
        assert (got is None) == (want.error is None)
        assert _state_bytes(swept.get_state()) == _state_bytes(
            reference.get_state()
        ), t
        if want.error is not None:
            assert _bytes(got) == _bytes(want.error), t
    assert [_bytes(s) for s in series] == originals
    assert [_bytes(s) for _, s in warmed] == [originals[t] for t, _ in warmed]


@pytest.mark.parametrize("kind, model", _cases(sorted(MODELS)))
def test_snapshots_and_restored_inputs_stay_untouched(kind, model, rng):
    schema = KINDS[kind]()
    series = _observations(schema, rng, n=N_STEPS + 4)
    cut = 4
    original = MODELS[model]()
    for observed in series[:cut]:
        original.step_into(observed.copy())
    snapshot = original.get_state()
    snapshot_bytes = _state_bytes(snapshot)
    restored = type(original)(**original.get_config())
    restored.set_state(snapshot)
    reference = MODELS[model]()
    for observed in series[:cut]:
        reference.step(observed)
    for observed in series[cut:]:
        want = reference.step(observed)
        a = original.step_into(observed.copy())
        b = restored.step_into(observed.copy())
        for got, stepped in ((a, original), (b, restored)):
            assert _state_bytes(stepped.get_state()) == _state_bytes(
                reference.get_state()
            )
            assert _bytes(got) == _bytes(want.error)
    # Neither the snapshot nor the set_state input (the same dict) moved.
    assert _state_bytes(snapshot) == snapshot_bytes


@pytest.mark.parametrize("kind, model", _cases(sorted(MODELS)))
def test_read_only_observation_takes_the_generic_path(kind, model, rng):
    """A table the sweep cannot write gets ``step()``'s fresh error."""
    schema = KINDS[kind]()
    series = _observations(schema, rng)
    reference, stepped = MODELS[model](), MODELS[model]()
    for observed in series:
        table = observed._sweep_table()
        for plane in table if isinstance(table, tuple) else (table,):
            plane.flags.writeable = False
        before = _bytes(observed)
        want = reference.step(observed)
        got = stepped.step_into(observed)
        assert _bytes(observed) == before
        assert (got is None) == (want.error is None)
        if got is not None:
            assert got is not observed
            assert _bytes(got) == _bytes(want.error)
        assert _state_bytes(stepped.get_state()) == _state_bytes(
            reference.get_state()
        )


def test_schema_mismatch_still_raises(schema, rng):
    other = KArySchema(depth=3, width=700, seed=9)
    f = EWMAForecaster(0.5)
    f.step(schema.empty())
    with pytest.raises(ValueError, match="schemas"):
        f.step_into(other.empty())


@pytest.mark.parametrize(
    "model,counts", [("ewma", [1, 2, 2, 2, 2, 2]), ("nshw", [0, 1, 5, 5, 5, 5])]
)
def test_step_runs_one_combine_per_statement(model, counts, schema, rng, monkeypatch):
    """Past warm-up, ``step()`` runs the update with ``Se`` inserted.

    NSHW derives ``Sf = Ss + St`` once a step (its first statement), not
    once more in ``forecast()``; EWMA's error and update are one COMBINE
    each.
    """
    series = _observations(schema, rng, n=len(counts))
    calls = []
    combine = KArySketch._linear_combination

    def counting(self, terms):
        calls.append(len(terms))
        return combine(self, terms)

    monkeypatch.setattr(KArySketch, "_linear_combination", counting)
    forecaster = MODELS[model]()
    per_step = []
    for observed in series:
        before = len(calls)
        forecaster.step(observed)
        per_step.append(len(calls) - before)
    assert per_step == counts
