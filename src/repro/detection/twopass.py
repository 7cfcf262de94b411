"""The offline two-pass detector (what the paper uses in all experiments).

Pass one streams the interval's records into the observed sketch and steps
the forecast model; pass two replays the same interval's keys against the
freshly built error sketch ("Since the input stream itself will provide
the keys, there is no need for keeping per-flow state").

Because :class:`~repro.streams.model.KeyedUpdates` batches are columnar and
re-iterable, the "second pass" here is a replay of the per-interval key
arrays -- exactly the access pattern a two-pass file reader would have.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.detection.keysource import collect_replay_keys
from repro.detection.session import IntervalSealer
from repro.detection.threshold import (
    Alarm,  # noqa: F401  (re-exported for backwards compatibility)
    IntervalDetection,
)
from repro.forecast.base import Forecaster
from repro.forecast.model_zoo import make_forecaster
from repro.sketch.mergeable import merge
from repro.streams.intervals import checked_index
from repro.streams.keys import dedup_keys
from repro.streams.model import KeyedUpdates

_EMPTY_KEYS = np.array([], dtype=np.uint64)
_EMPTY_VALUES = np.array([], dtype=np.float64)


def _interval_batches(batches: Iterable[KeyedUpdates]) -> Iterator[KeyedUpdates]:
    """``batches`` as whole intervals, each skipped index filled in empty.

    A batch detector seals every batch it reads as one whole interval,
    so a stream cut into chunks (``iter_interval_columns`` with
    ``chunk_records``) would seal one interval several times, and a
    stream with holes would step the forecast across them.  Indices must
    be integers (:func:`~repro.streams.intervals.checked_index`) that
    strictly increase, else ``ValueError``; each skipped index yields an
    empty batch, as the session seals an empty gap interval.
    """
    previous = None
    for batch in batches:
        index = checked_index(batch.index, "batch index")
        if previous is not None:
            if index <= previous:
                raise ValueError(
                    f"batch index {index} follows {previous}: a batch "
                    "detector seals each batch as one whole interval, in "
                    "increasing order; feed chunked batches to "
                    "StreamingSession.ingest_columns"
                )
            for gap in range(previous + 1, index):
                yield KeyedUpdates(gap, _EMPTY_KEYS, _EMPTY_VALUES)
        previous = index
        yield batch


class OfflineTwoPassDetector:
    """End-to-end offline sketch-based change detection.

    Parameters
    ----------
    schema:
        Summary schema -- a :class:`~repro.sketch.kary.KArySchema` for the
        paper's detector, or a dense/exact schema for the oracle.
    forecaster:
        A :class:`~repro.forecast.base.Forecaster` instance, or a model
        name from the registry.
    t_fraction:
        Alarm threshold parameter ``T``; ``None`` disables thresholding.
    top_n:
        Also report the top-N keys by absolute error each interval
        (0 disables).
    replay_lookback:
        How many *previous* intervals' key sets to replay in addition to
        the current interval's.  The paper's key-collection window is "the
        keys that appeared in recent intervals (e.g., the same interval t)";
        a lookback of 1 lets the detector flag keys that *disappeared*
        (e.g. a DoS flood that just stopped), whose forecast error is large
        and negative even though they send no traffic in interval ``t``.
    key_source:
        Where each interval's candidate keys come from (see
        :mod:`~repro.detection.keysource`).  ``"twopass"`` (default)
        replays the collected interval keys -- the paper's strategy,
        reports unchanged.  ``"invertible"`` / ``"grouptesting"``
        recover candidates from the sealed error summary itself (the
        schema must produce the matching summary type), retiring the
        O(stream) replay pass.  ``"online"`` is not valid here -- use
        :class:`~repro.detection.online.OnlineDetector`.
    recorder:
        Optional :class:`~repro.obs.recorder.PipelineRecorder` for stage
        timings, sealed-interval/candidate/alarm counters, kernel gauges
        and ``interval_sealed`` trace events; the no-op default adds
        nothing to the hot path.
    model_params:
        Parameters forwarded to the registry when ``forecaster`` is a name.
    """

    def __init__(
        self,
        schema,
        forecaster: Union[Forecaster, str],
        t_fraction: Optional[float] = 0.05,
        top_n: int = 0,
        replay_lookback: int = 0,
        key_source: str = "twopass",
        recorder=None,
        **model_params,
    ) -> None:
        self.schema = schema
        if isinstance(forecaster, str):
            forecaster = make_forecaster(forecaster, **model_params)
        elif model_params:
            raise ValueError(
                "model_params only apply when forecaster is given by name"
            )
        self.forecaster = forecaster
        if t_fraction is not None and t_fraction < 0:
            raise ValueError(f"t_fraction must be >= 0, got {t_fraction}")
        self.t_fraction = t_fraction
        if top_n < 0:
            raise ValueError(f"top_n must be >= 0, got {top_n}")
        self.top_n = int(top_n)
        if replay_lookback < 0:
            raise ValueError(f"replay_lookback must be >= 0, got {replay_lookback}")
        self.replay_lookback = int(replay_lookback)
        if key_source == "online":
            raise ValueError(
                "key_source='online' needs the next interval's keys; "
                "use repro.detection.online.OnlineDetector"
            )
        self.key_source = key_source
        self._sealer = IntervalSealer(
            schema,
            forecaster,
            t_fraction=t_fraction,
            top_n=self.top_n,
            key_source=key_source,
            recorder=recorder,
        )
        self.recorder = self._sealer.recorder
        #: ``candidates`` / ``median_evaluated`` prescreen counters,
        #: accumulated across runs.
        self.stats = self._sealer.stats

    def run(self, batches: Iterable[KeyedUpdates]) -> Iterator[IntervalDetection]:
        """Detect over an interval stream, yielding per-interval reports.

        Warm-up intervals (no forecast yet) are skipped; the caller sees
        only intervals with a defined error summary.

        ``batches`` are :class:`~repro.streams.model.KeyedUpdates` items,
        one whole interval each, in increasing index order: an
        ``IntervalStream``, or the zero-copy views of
        :func:`~repro.streams.sharding.iter_interval_columns` without
        ``chunk_records``.  Only ``index``/``keys``/``values`` are read,
        and the key/value arrays feed the fused UPDATE kernels without
        copying.  A skipped index seals as an empty interval; a repeated
        or decreasing one (a chunked stream) raises ``ValueError`` --
        chunks go to :meth:`StreamingSession.ingest_columns`.
        """
        # Recovery sources pull candidates out of the error summary, so
        # the per-interval key collection (and its dedup) is skipped
        # entirely -- that *is* the retired second pass.
        replaying = self.key_source == "twopass"
        return self.seal_intervals(
            (
                batch.index,
                self.schema.from_items(batch.keys, batch.values),
                dedup_keys(batch.keys) if replaying else _EMPTY_KEYS,
            )
            for batch in _interval_batches(batches)
        )

    def seal_intervals(self, intervals) -> Iterator[IntervalDetection]:
        """Seal ``(index, observed, keys)`` triples in order; yield reports.

        ``observed`` is the interval's fresh summary, which the seal
        consumes (it may write ``Se(t)`` over it), and ``keys`` its
        deduplicated key set (empty for recovering key sources); the
        replay candidates are the last ``replay_lookback + 1`` key sets.
        The forecaster restarts from scratch on the first interval.
        """
        self.forecaster.reset()
        recent_keys: deque = deque(maxlen=self.replay_lookback + 1)
        for index, observed, keys in intervals:
            recent_keys.append(keys)
            report = self._sealer.seal(
                observed, collect_replay_keys(recent_keys), index
            )
            if report is not None:
                yield report

    def detect(self, batches: Iterable[KeyedUpdates]) -> List[IntervalDetection]:
        """Convenience: materialize :meth:`run` into a list."""
        return list(self.run(batches))

    def detect_many(self, streams) -> List[IntervalDetection]:
        """Network-wide detection over R interval streams (one per router).

        Sketches every stream, COMBINEs each interval's summaries into the
        network-wide summary, then detects -- reports are identical to
        :meth:`detect` over the merged raw trace (sketch linearity, paper
        §3.1).  Streams are aligned by interval index over the union of
        their spans: a stream with no batch at an index contributes
        nothing there, and an index no stream covers seals empty.  A
        stream :meth:`run` would refuse raises ``ValueError``.
        """
        by_index: dict = {}
        for stream in streams:
            for batch in _interval_batches(stream):
                by_index.setdefault(batch.index, []).append(batch)
        if not by_index:
            return []

        def combined():
            empty = [KeyedUpdates(0, _EMPTY_KEYS, _EMPTY_VALUES)]
            for index in range(min(by_index), max(by_index) + 1):
                batches = by_index.get(index, empty)
                yield (
                    index,
                    merge([self.schema.from_items(b.keys, b.values) for b in batches]),
                    dedup_keys(np.concatenate([b.keys for b in batches])),
                )

        return list(self.seal_intervals(combined()))
