"""Experiment registry and result container.

Figure/table functions register themselves under the paper's exhibit ids
(``fig01`` ... ``fig15``, ``table1``, ``gridsearch``); the CLI and the
benchmark harness run them by id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List


@dataclass
class FigureResult:
    """The regenerated data behind one paper exhibit.

    Attributes
    ----------
    experiment_id:
        Registry id (``"fig05"``, ``"table1"``, ...).
    title:
        The paper's caption, abbreviated.
    series:
        Structured data -- whatever shape the figure naturally has
        (dict of series name to values, nested dicts for panels).
    text:
        Pre-rendered tables matching the plotted rows/series.
    notes:
        Shape observations (who wins, where knees fall) for EXPERIMENTS.md.
    """

    experiment_id: str
    title: str
    series: Dict[str, Any]
    text: str
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        """Human-readable reproduction of the exhibit."""
        parts = [f"== {self.experiment_id}: {self.title} ==", self.text]
        if self.notes:
            parts.append("notes:")
            parts.extend(f"  - {note}" for note in self.notes)
        return "\n".join(parts)


_EXPERIMENTS: Dict[str, Callable[..., FigureResult]] = {}


def register(experiment_id: str):
    """Decorator adding an experiment function to the registry."""

    def _register(func: Callable[..., FigureResult]):
        if experiment_id in _EXPERIMENTS:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        _EXPERIMENTS[experiment_id] = func
        return func

    return _register


def list_experiments() -> List[str]:
    """Registered experiment ids, sorted."""
    _ensure_loaded()
    return sorted(_EXPERIMENTS)


def run_experiment(experiment_id: str, **kwargs) -> FigureResult:
    """Run one registered experiment by id."""
    _ensure_loaded()
    try:
        func = _EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_EXPERIMENTS))
        raise ValueError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None
    return func(**kwargs)


def _ensure_loaded() -> None:
    """Import the modules whose decorators populate the registry."""
    from repro.experiments import (  # noqa: F401  (import for side effects)
        figures_random,
        figures_threshold,
        figures_topn,
        tables,
    )
