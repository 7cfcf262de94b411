"""Forecaster protocol shared by all six models.

Timing convention (matches the paper's Section 2.2): at the start of
interval ``t`` the forecaster produces ``Sf(t)`` from observations
``So(1..t-1)``; the observed summary ``So(t)`` then arrives and the error is
``Se(t) = So(t) - Sf(t)``.  The :meth:`Forecaster.step` helper packages this
hand-shake; during warm-up the forecast (and hence the error) is ``None``.

Forecasters are *state-agnostic*: every operation they perform on an
observation is a linear-space operation (``+``, ``-``, scalar ``*``), so
the same object works over sketches, exact vectors, NumPy arrays or plain
floats.  This is not an implementation convenience -- it is the paper's
central claim, and the test suite verifies it by checking that
``forecast(sketch(stream)) == sketch(forecast(stream))`` cell for cell.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import (
    Any, Generic, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar,
)

from repro.sketch.base import Statement, sweep_statements

State = TypeVar("State")


def combine_terms(terms: List[tuple]) -> Any:
    """``sum(c * s for c, s in terms)`` with one fused COMBINE when possible.

    Summaries implementing ``_linear_combination`` (sketches, exact/dense
    tables) evaluate the whole combination in a single pass with one
    result allocation; everything else (floats, plain arrays) falls back
    to the chained operator expression.  Both paths multiply each term
    once and add left-to-right, so the result is bit-identical either
    way -- model update rules can fuse without changing a single float.
    """
    head_coeff, head = terms[0]
    if hasattr(head, "_linear_combination"):
        return head._linear_combination([(float(c), s) for c, s in terms])
    acc = head * head_coeff
    for coeff, state in terms[1:]:
        acc = acc + state * coeff
    return acc


def owned_copy(value: Any) -> Any:
    """A copy of ``value`` its new holder may rewrite in place.

    Summaries and arrays are copied; immutable scalars and ``None`` are
    returned as they are.
    """
    return value.copy() if hasattr(value, "copy") else value


def _error_statement(forecast: str) -> Statement:
    """``Se = So - Sf`` written over ``observed``, ``Sf`` read from ``forecast``."""
    return ("observed", ((1.0, "observed"), (-1.0, forecast)))


def _sweep_table(summary: Any, schema: Any):
    """``summary``'s table if a statement sweep may run over it.

    Only summaries exposing ``_sweep_table`` (the hashed sketches: a
    counter table, or an invertible sketch's counter and candidate
    planes) qualify, only over ``schema``, so a mismatch falls back to
    the COMBINE path and raises there as it always did, and only while
    every plane is writeable.
    """
    sweep_table = getattr(summary, "_sweep_table", None)
    if sweep_table is None or summary.schema != schema:
        return None
    table = sweep_table()
    planes = table if isinstance(table, tuple) else (table,)
    return table if all(plane.flags.writeable for plane in planes) else None


@dataclass
class ForecastStep(Generic[State]):
    """One interval's worth of pipeline output.

    Attributes
    ----------
    index:
        0-based interval index.
    observed:
        ``So(t)``, the summary observed during the interval.
    forecast:
        ``Sf(t)``, or ``None`` while the model is warming up.
    error:
        ``Se(t) = So(t) - Sf(t)``, or ``None`` during warm-up.
    """

    index: int
    observed: State
    forecast: Optional[State]
    error: Optional[State]

    @property
    def in_warmup(self) -> bool:
        """True when the model had not yet produced a forecast."""
        return self.forecast is None


class Forecaster(abc.ABC):
    """Streaming one-step-ahead forecaster over a linear state space.

    A model whose per-interval update is a fixed linear map states it
    once, as COMBINE statements (:meth:`_update_statements`) over
    ``observed`` and its state names (:attr:`_STATE_NAMES`, held as
    attributes ``_<name>``).  The name ``forecast`` is ``Sf(t)``: a state
    (EWMA's) or a temporary the statements derive from the state
    (NSHW's ``smooth + trend``).  :meth:`observe` and :meth:`step` run
    them through :func:`combine_terms` into fresh summaries (``step``
    with ``Se = So - Sf`` appended), and :meth:`step_into` over hashed
    sketches runs the same list as one in-place sweep
    (:func:`~repro.sketch.base.sweep_statements`) that writes the new
    state over the old and ``Se`` over ``So``.  The sweep rewrites state
    tables, so such a model owns every summary it holds: it copies
    ``observed`` where the update keeps it verbatim and copies what
    :meth:`set_state` loads and :meth:`get_state` returns.
    """

    #: State names the update statements read and write (``_<name>``).
    _STATE_NAMES: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self._t = 0  # number of observations consumed

    @property
    def observations_seen(self) -> int:
        """How many observations have been consumed so far."""
        return self._t

    @abc.abstractmethod
    def forecast(self) -> Optional[Any]:
        """Return ``Sf`` for the upcoming interval, or ``None`` in warm-up.

        Must not mutate state: calling twice returns the same value.
        A returned state summary is live: the next :meth:`step_into`
        sweep may rewrite it in place.
        """

    @abc.abstractmethod
    def _consume(self, observed: Any) -> None:
        """Fold the newest observation into model state."""

    def _update_statements(self) -> Optional[Sequence[Statement]]:
        """The post-warm-up state update as COMBINE statements, or ``None``.

        Names are ``observed``, the :attr:`_STATE_NAMES` and temporaries.
        A statement reads the old value of a state until it rewrites it;
        a ``forecast`` that is not a state is the first statement's
        temporary.
        """
        return None

    def _error_statements(self) -> Optional[List[Statement]]:
        """:meth:`_update_statements` with ``Se = So - Sf`` appended.

        The error statement runs last and is written over ``observed``,
        which no update statement reads after it.  A ``forecast``
        temporary still holds ``Sf(t)`` there; a ``forecast`` state, which
        the update rewrites, is first copied into the temporary
        ``previous``.  ``None`` for a model without update statements and
        during warm-up, while a state is still unset.
        """
        statements = self._update_statements()
        if statements is None or any(
            getattr(self, "_" + name) is None for name in self._STATE_NAMES
        ):
            return None
        if "forecast" not in self._STATE_NAMES:
            return [*statements, _error_statement("forecast")]
        copy = ("previous", ((1.0, "forecast"),))
        return [copy, *statements, _error_statement("previous")]

    def _apply_update(
        self, observed: Any, statements: Optional[Sequence[Statement]] = None
    ) -> Tuple[Any, Any]:
        """Run update statements into fresh summaries; store the new state.

        ``statements`` defaults to :meth:`_update_statements`.  Nothing
        here writes in place, so a temporary copying one value (``1 *
        name``) binds it without a COMBINE.  Returns the value an error
        statement subtracted and the error (both ``None`` when none ran).
        """
        if statements is None:
            statements = self._update_statements()
        env = {name: getattr(self, "_" + name) for name in self._STATE_NAMES}
        env["observed"] = observed
        predicted = None
        for dst, terms in statements:
            values = [(c, env[src]) for c, src in terms]
            if dst == "observed":  # the error statement
                predicted = values[-1][1]
            copy = len(values) == 1 and values[0][0] == 1.0
            env[dst] = (
                values[0][1] if copy and dst not in self._STATE_NAMES
                else combine_terms(values)
            )
        for name in self._STATE_NAMES:
            setattr(self, "_" + name, env[name])
        return predicted, None if predicted is None else env["observed"]

    def observe(self, observed: Any) -> None:
        """Feed the observed summary for the interval just ended."""
        self._consume(observed)
        self._t += 1

    def step(self, observed: Any) -> ForecastStep:
        """Forecast, then observe: one full interval hand-shake.

        Past warm-up, a model with update statements runs
        :meth:`_error_statements` through :func:`combine_terms`, so it
        derives ``Sf(t)`` once; the step's ``forecast`` is the value the
        error statement subtracts, the same floats :meth:`forecast` gives.
        """
        index = self._t
        program = self._error_statements()
        if program is None:
            predicted = self.forecast()
            error = None if predicted is None else observed - predicted
            self.observe(observed)
        else:
            predicted, error = self._apply_update(observed, program)
            self._t += 1
        return ForecastStep(index=index, observed=observed, forecast=predicted, error=error)

    def step_into(self, observed: Any) -> Optional[Any]:
        """:meth:`step` that writes ``Se(t)`` over ``observed`` where it can.

        Models that state their update as COMBINE statements (EWMA and
        NSHW) step hashed sketches in one in-place sweep that ends by
        writing ``Se(t)`` over ``observed`` (see :meth:`_sweep_step`), so
        the seal path of a long-running session allocates no error table.
        Returns the summary holding ``Se(t)`` -- ``observed`` itself after
        a sweep, else a fresh ``observed - Sf(t)`` as :meth:`step` gives
        -- or ``None`` during warm-up, with :meth:`step`'s values bit for
        bit either way.  ``observed`` is consumed: the caller must not
        read it afterwards (seal a copy to keep ``So(t)``), and models may
        retain it in their state, so it must NOT be a reused scratch.
        """
        if self._sweep_step(observed):
            return observed
        return self.step(observed).error

    def _sweep_step(self, observed: Any) -> bool:
        """:meth:`step_into` as one statement sweep, where that applies.

        It applies past warm-up, to models with update statements, when
        ``observed`` and every state summary are hashed sketches over one
        schema with writeable tables (any of the five kinds; an invertible
        sketch's candidate planes fold by the MV rule in the same pass).
        The sweep runs :meth:`_error_statements`, so the pass that writes
        the new state over the old also writes ``Se`` over ``observed``,
        and each table is held once and swept once.  Every other table
        written is one this forecaster allocated (see the class
        docstring).  Returns whether the sweep ran.
        """
        program = self._error_statements()
        if program is None:
            return False
        schema = getattr(observed, "schema", None)
        named = {"observed": observed}
        named.update((n, getattr(self, "_" + n)) for n in self._STATE_NAMES)
        tables = {name: _sweep_table(s, schema) for name, s in named.items()}
        if any(table is None for table in tables.values()):
            return False
        sweep_statements(program, tables)
        self._t += 1
        return True

    def run(self, observations: Iterable[Any]) -> Iterator[ForecastStep]:
        """Stream :meth:`step` over an iterable of observed summaries."""
        for observed in observations:
            yield self.step(observed)

    def reset(self) -> None:
        """Restore the freshly constructed state."""
        self._t = 0
        self._reset_state()

    @abc.abstractmethod
    def _reset_state(self) -> None:
        """Clear model-specific state (history buffers, components)."""

    # -- state capture / restore (checkpointing) ---------------------------

    def get_config(self) -> dict:
        """Constructor keyword arguments that rebuild this forecaster.

        ``type(f)(**f.get_config())`` must return an equivalent (freshly
        reset) forecaster.  Together with :meth:`get_state` this is the
        model half of a session checkpoint.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement get_config()"
        )

    def get_state(self) -> dict:
        """Snapshot the full internal state as a flat dict.

        Values are restricted to what the checkpoint codec carries:
        scalars, ``None``, NumPy arrays, summaries, and lists/tuples of
        those.  The snapshot is deep enough that a restored forecaster
        continues **bit-identically**: every future :meth:`forecast` /
        :meth:`observe` matches the un-checkpointed object's.
        """
        state = self._state_dict()
        state["t"] = self._t
        return state

    def set_state(self, state: dict) -> None:
        """Restore a :meth:`get_state` snapshot (replaces current state)."""
        state = dict(state)
        t = state.pop("t")
        self._reset_state()
        self._load_state_dict(state)
        self._t = int(t)

    def _state_dict(self) -> dict:
        """Model-specific state (everything except the shared ``t``)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement state capture"
        )

    def _load_state_dict(self, state: dict) -> None:
        """Restore model-specific state captured by :meth:`_state_dict`.

        Called on a freshly reset instance (``_reset_state`` has run).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement state restore"
        )


def collect_errors(forecaster: Forecaster, observations: Iterable[Any]) -> List[Any]:
    """Run a forecaster over a series and return the non-warm-up errors."""
    return [
        step.error for step in forecaster.run(observations) if step.error is not None
    ]
