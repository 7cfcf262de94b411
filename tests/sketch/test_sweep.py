"""The COMBINE statement sweep: one pass, the same bits as NumPy.

``sweep_statements`` runs a statement list through the compiled
``combine_sweep`` kernel; ``accumulate_statements`` runs the same list
one statement at a time through ``accumulate_arrays``.  Every output
table must match bit for bit -- compared as ``uint64``, so signed zeros,
subnormals and infinities count -- which a build that contracts
multiply-add pairs into FMAs fails.  The one exemption is which NaN an
overflowed cell holds: when two NaNs meet, IEEE 754 leaves the result's
sign and payload open, and a C compiler may commute an addition's
operands, so cells that are NaN on both sides count as equal.

Invertible sketches hand the sweep their candidate planes too, which
each statement folds by majority vote.  That fold is checked three ways:
the kernel, the NumPy fallback and one ``combine_into`` per statement on
``InvertibleKArySketch`` objects.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import _kernels, kernel_call_counts
from repro.hashing._kernels import SWEEP_MAX_TEMPS, get_kernels
from repro.sketch import InvertibleKArySchema, InvertibleKArySketch, base
from repro.sketch.base import accumulate_statements, sweep_statements

TABLES = ("a", "b", "c")
TEMPS = ("t0", "t1", "t2")
#: Crosses the kernel's 512-cell block boundary with a ragged tail.
SHAPE = (3, 701)

SPECIAL_COEFFS = [1.0, -1.0, 0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 0.5, 0.2]
SPECIAL_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 1.1e-308, -1.1e-308, 1e300, -1e300, 1.0, -3.5,
]
finite = st.floats(allow_nan=False, allow_infinity=False)

needs_kernels = pytest.mark.skipif(
    get_kernels() is None, reason="compiled kernels are off"
)


@st.composite
def programs(draw):
    """1-6 statements of 1-4 terms over three tables and up to 3 temps."""
    readable = list(TABLES)
    statements = []
    for _ in range(draw(st.integers(1, 6))):
        n_terms = draw(st.integers(1, 4))
        terms = tuple(
            (
                draw(st.one_of(st.sampled_from(SPECIAL_COEFFS), finite)),
                draw(st.sampled_from(readable)),
            )
            for _ in range(n_terms)
        )
        dst = draw(st.sampled_from(TABLES + TEMPS))
        statements.append((dst, terms))
        if dst not in readable:
            readable.append(dst)
    return statements


@st.composite
def table_sets(draw):
    palette = draw(
        st.lists(
            st.one_of(st.sampled_from(SPECIAL_VALUES), finite),
            min_size=1, max_size=12,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return {
        name: rng.choice(np.asarray(palette, dtype=np.float64), size=SHAPE)
        for name in TABLES
    }


def _run(fn, statements, tables):
    out = {name: table.copy() for name, table in tables.items()}
    with np.errstate(all="ignore"):  # 1e300 * 1e300 and inf - inf are meant
        fn(statements, out)
    return out


def _assert_same_bits(got, want, name):
    both_nan = np.isnan(got) & np.isnan(want)
    np.testing.assert_array_equal(
        np.where(both_nan, 0, got.view(np.uint64)),
        np.where(both_nan, 0, want.view(np.uint64)),
        err_msg=name,
    )


@needs_kernels
@given(statements=programs(), tables=table_sets())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_statement_by_statement(statements, tables):
    before = kernel_call_counts()["combine_sweep"]
    swept = _run(sweep_statements, statements, tables)
    assert kernel_call_counts()["combine_sweep"] == before + 1
    reference = _run(accumulate_statements, statements, tables)
    for name in TABLES:
        _assert_same_bits(swept[name], reference[name], name)


@pytest.mark.parametrize("shape", [(5, 32768), (9, 65536)])
def test_forecast_shaped_statements_match(shape, rng):
    """EWMA's and NSHW's step at benchmark widths, Se prepended."""
    alpha, beta = 0.5, 0.2
    level = ((alpha, "observed"), (1.0 - alpha, "forecast"))
    program = [
        ("error", ((1.0, "observed"), (-1.0, "forecast"))),
        ("delta", level + ((-1.0, "smooth"),)),
        ("smooth", level),
        ("trend", ((beta, "delta"), (1.0 - beta, "trend"))),
        ("next", ((1.0, "smooth"), (1.0, "trend"))),
    ]
    names = ("observed", "error", "forecast", "smooth", "trend", "next")
    tables = {name: rng.normal(0, 1e4, shape) for name in names}
    swept = _run(sweep_statements, program, tables)
    reference = _run(accumulate_statements, program, tables)
    for name in names:
        _assert_same_bits(swept[name], reference[name], name)


@pytest.mark.parametrize("kernels", [True, False], ids=["kernel", "numpy"])
def test_in_place_model_steps_match(kernels, rng, monkeypatch):
    """The steps as the forecasters run them: EWMA rewrites ``forecast``
    in place, NSHW derives it as a temporary and rewrites its level and
    trend.  The NumPy fallback runs block by block; the shape crosses
    its block boundary twice and ends on a ragged tail."""
    if kernels and get_kernels() is None:
        pytest.skip("compiled kernels are off")
    if not kernels:
        monkeypatch.setattr(base, "get_kernels", lambda: None)
    alpha, beta = 0.5, 0.2
    error = ("error", ((1.0, "observed"), (-1.0, "forecast")))
    level = ((alpha, "observed"), (1.0 - alpha, "forecast"))
    ewma = [error, ("forecast", level)]
    nshw = [
        ("forecast", ((1.0, "smooth"), (1.0, "trend"))),
        error,
        ("delta", level + ((-1.0, "smooth"),)),
        ("smooth", level),
        ("trend", ((beta, "delta"), (1.0 - beta, "trend"))),
    ]
    shape = (3, 2 * base._FALLBACK_SWEEP_BLOCK // 3 + 11)
    for program, names in (
        (ewma, ("observed", "error", "forecast")),
        (nshw, ("observed", "error", "smooth", "trend")),
    ):
        tables = {name: rng.normal(0, 1e4, shape) for name in names}
        swept = _run(sweep_statements, program, tables)
        reference = _run(accumulate_statements, program, tables)
        for name in names:
            _assert_same_bits(swept[name], reference[name], name)


def test_destination_may_read_its_old_value():
    tables = {"a": np.arange(6.0).reshape(2, 3), "b": np.ones((2, 3))}
    sweep_statements([("a", ((0.5, "a"), (2.0, "b")))], tables)
    np.testing.assert_array_equal(
        tables["a"], 0.5 * np.arange(6.0).reshape(2, 3) + 2.0
    )


@pytest.mark.parametrize("n_temps", [SWEEP_MAX_TEMPS, SWEEP_MAX_TEMPS + 1])
def test_temporaries_are_capped(n_temps, rng):
    names = [f"t{i}" for i in range(n_temps)]
    program = [(names[0], ((2.0, "a"),))]
    program += [(n, ((1.0, p), (0.5, "a"))) for p, n in zip(names, names[1:])]
    program.append(("a", ((1.0, names[-1]),)))
    tables = {"a": rng.normal(size=(2, 5))}
    if n_temps > SWEEP_MAX_TEMPS:
        before = tables["a"].tobytes()
        with pytest.raises(ValueError, match="temporaries"):
            sweep_statements(program, tables)
        assert tables["a"].tobytes() == before
        return
    swept = _run(sweep_statements, program, tables)
    reference = _run(accumulate_statements, program, tables)
    _assert_same_bits(swept["a"], reference["a"], "a")


@pytest.mark.parametrize(
    "statements, match",
    [
        ([("a", ())], "no terms"),
        ([("a", ((1.0, "t0"),))], "read before"),
        ([("t0", ((1.0, "t1"),))], "read before"),
    ],
)
def test_malformed_statements_rejected(statements, match):
    tables = {"a": np.zeros((2, 3)), "b": np.zeros((2, 3))}
    with pytest.raises(ValueError, match=match):
        sweep_statements(statements, tables)


def test_bad_tables_rejected():
    base = np.zeros((2, 4))
    with pytest.raises(ValueError, match="equally shaped"):
        sweep_statements([("a", ((1.0, "b"),))], {"a": base, "b": np.zeros((2, 3))})
    with pytest.raises(ValueError, match="C-contiguous"):
        sweep_statements([("a", ((1.0, "b"),))], {"a": base[:, :2], "b": base[:, 2:]})
    with pytest.raises(ValueError, match="overlap"):
        sweep_statements([("a", ((1.0, "b"),))], {"a": base, "b": base})
    readonly = base.copy()
    readonly.flags.writeable = False
    with pytest.raises(ValueError, match="writeable"):
        sweep_statements([("a", ((1.0, "b"),))], {"a": readonly, "b": base})
    # Tables that are only read may alias each other.
    out = np.empty((2, 4))
    sweep_statements([("c", ((1.0, "a"), (1.0, "b")))], {"a": base, "b": base, "c": out})
    np.testing.assert_array_equal(out, base + base)


# -- MV candidate planes ------------------------------------------------------

#: Schema whose ``(3, H, K)`` stores hold the candidate-fold tables.
MV_SCHEMA = InvertibleKArySchema(depth=SHAPE[0], width=SHAPE[1], seed=3)
#: Few keys and small integral votes, so equal keys and tied votes (the
#: ``>=`` branch) come up in most cells; coefficients include zeros and
#: negatives, whose votes scale by ``|c|``.
MV_KEYS = [0, 1, 2, 2**64 - 1]
MV_VOTES = [0.0, 1.0, 2.0, 3.0, 0.5]
MV_COEFFS = [1.0, -1.0, 0.0, -0.0, 2.0, -2.0, 0.5, -0.5, 0.35, 0.65]


@st.composite
def mv_programs(draw):
    """1-6 statements of 1-4 terms over three tables and up to 3 temps."""
    readable = list(TABLES)
    statements = []
    for _ in range(draw(st.integers(1, 6))):
        terms = tuple(
            (draw(st.sampled_from(MV_COEFFS)), draw(st.sampled_from(readable)))
            for _ in range(draw(st.integers(1, 4)))
        )
        dst = draw(st.sampled_from(TABLES + TEMPS))
        statements.append((dst, terms))
        if dst not in readable:
            readable.append(dst)
    return statements


def _mv_stores(seed):
    """Three invertible stores: counters, candidate keys and votes."""
    rng = np.random.default_rng(seed)
    stores = {}
    for name in TABLES:
        store = np.empty((3,) + SHAPE)
        store[0] = rng.normal(0, 1e3, SHAPE)
        store[1].view(np.uint64)[...] = rng.choice(
            np.array(MV_KEYS, dtype=np.uint64), SHAPE
        )
        store[2] = rng.choice(MV_VOTES, SHAPE)
        stores[name] = store
    return stores


def _triples(stores):
    return {
        name: (store[0], store[1].view(np.uint64), store[2])
        for name, store in stores.items()
    }


def _sweep_mv(statements, stores, kernels):
    out = {name: store.copy() for name, store in stores.items()}
    with pytest.MonkeyPatch.context() as mp:
        if not kernels:
            mp.setattr(_kernels, "_KERNELS", None)
        sweep_statements(statements, _triples(out))
    return out


def _combine_into_mv(statements, stores):
    """One fresh ``combine_into`` per statement, as ``step()`` runs them."""
    env = {
        name: InvertibleKArySketch(MV_SCHEMA, store.copy())
        for name, store in stores.items()
    }
    for dst, terms in statements:
        env[dst] = MV_SCHEMA.empty().combine_into(
            [(c, env[src]) for c, src in terms]
        )
    return {name: np.asarray(env[name].table) for name in TABLES}


@given(statements=mv_programs(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_candidate_fold_matches_combine_into(statements, seed):
    stores = _mv_stores(seed)
    reference = _combine_into_mv(statements, stores)
    sides = {"numpy": _sweep_mv(statements, stores, kernels=False)}
    if get_kernels() is not None:
        before = kernel_call_counts()
        sides["kernel"] = _sweep_mv(statements, stores, kernels=True)
        after = kernel_call_counts()
        assert after["combine_sweep"] == before["combine_sweep"] + 1
        assert after["mv_combine2"] == before["mv_combine2"]
        assert after["mv_merge"] == before["mv_merge"]
    for side, swept in sides.items():
        for name in TABLES:
            _assert_same_bits(swept[name], reference[name], f"{side} {name}")


@pytest.mark.parametrize("kernels", [True, False], ids=["kernel", "numpy"])
def test_candidate_fold_at_forecast_shape(kernels):
    """NSHW's step over invertible stores at a benchmark width: every
    rule branch, a temporary's planes read by later statements, and
    destinations that read their own old planes."""
    if kernels and get_kernels() is None:
        pytest.skip("compiled kernels are off")
    alpha, beta = 0.4, 0.25
    level = ((alpha, "a"), (1.0 - alpha, "t0"))
    program = [
        ("t0", ((1.0, "b"), (1.0, "c"))),
        ("t1", ((1.0, "a"), (-1.0, "t0"))),
        ("t2", level + ((-1.0, "b"),)),
        ("b", level),
        ("c", ((beta, "t2"), (1.0 - beta, "c"))),
        ("a", ((1.0, "t1"),)),
    ]
    rng = np.random.default_rng(11)
    shape = (5, 4096 + 300)
    schema = InvertibleKArySchema(depth=shape[0], width=shape[1], seed=5)
    stores = {}
    for name in TABLES:
        store = np.empty((3,) + shape)
        store[0] = rng.normal(0, 1e4, shape)
        store[1].view(np.uint64)[...] = rng.integers(0, 6, shape, dtype=np.uint64)
        store[2] = rng.integers(0, 5, shape).astype(np.float64)
        stores[name] = store
    swept = _sweep_mv(program, stores, kernels)
    env = {n: InvertibleKArySketch(schema, s.copy()) for n, s in stores.items()}
    for dst, terms in program:
        env[dst] = schema.empty().combine_into([(c, env[src]) for c, src in terms])
    for name in TABLES:
        _assert_same_bits(swept[name], np.asarray(env[name].table), name)


def test_candidate_tables_are_vetted():
    def triple(store):
        return (store[0], store[1].view(np.uint64), store[2])

    a, b = np.zeros((3, 2, 4)), np.zeros((3, 2, 4))
    statement = [("a", ((1.0, "b"),))]
    with pytest.raises(ValueError, match="equally shaped"):
        sweep_statements(statement, {"a": triple(a), "b": b[0]})
    with pytest.raises(ValueError, match="equally shaped"):
        sweep_statements(statement, {"a": tuple(a), "b": tuple(b)})
    with pytest.raises(ValueError, match="equally shaped"):
        sweep_statements(statement, {"a": triple(a), "b": triple(b)[:2]})
    shared = (a[0], b[1].view(np.uint64), a[2])
    with pytest.raises(ValueError, match="overlap"):
        sweep_statements(statement, {"a": shared, "b": triple(b)})
