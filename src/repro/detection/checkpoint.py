"""Session checkpoint/restore: crash-safe streaming change detection.

A deployed monitor that dies mid-trace should not have to replay the
whole trace, and -- more importantly -- the operator should be able to
trust that the resumed monitor raises *exactly* the alarms the
uninterrupted one would have.  This module provides that guarantee:

* :func:`checkpoint_session` captures a :class:`StreamingSession` as one
  ``KCP1`` container: session configuration and cursors in the meta
  section, forecaster internals and open-interval accumulation state in
  the body.
* :func:`restore_session` rebuilds the session and installs the state.
  Feeding it every record with ``timestamp > session.watermark`` then
  produces reports **bit-identical** to the uninterrupted run -- same
  alarms, same thresholds, same magnitudes, for every forecast model.

Why bit-identity holds:

* sketch counter tables are float64 and round-trip exactly through the
  wire format;
* forecaster recursions consume sealed summaries whole, so restoring
  their retained states (levels, trends, lag windows, innovation queues)
  reproduces the recursion exactly;
* sessions checkpoint the open interval's sketch as flushed so far, the
  deduplicated keys of its flushes as one array, and the unflushed
  buffer raw, as one keys and one values array.  Checkpointing never
  flushes, so the restored session folds the remaining records in at the
  same flush points -- which keeps even an invertible sketch's per-batch
  vote planes bit-identical.  A checkpoint written before the buffer
  existed has no buffer arrays and restores with an empty buffer.

What cannot be checkpointed raises immediately and loudly: schemas with
``seed=None`` (their hash functions die with the process), key/value
schemes not constructible from the registry, and forecaster classes
outside the model zoo.  Restoring refuses, before building anything, a
checkpoint of another format or of a session kind other than
``"serial"``: a ``"sharded"`` checkpoint holds per-shard buffers, and
re-batching them into one buffer would change an invertible sketch's
vote planes.
"""

from __future__ import annotations

import os
from typing import Union

from repro.detection.session import StreamingSession
from repro.forecast.arima import ArimaForecaster
from repro.forecast.holtwinters import (
    HoltWintersForecaster,
    SeasonalHoltWintersForecaster,
)
from repro.forecast.smoothing import (
    EWMAForecaster,
    MovingAverageForecaster,
    SShapedMovingAverageForecaster,
)
from repro.sketch.serialization import (
    _write_durably,
    checkpoint_meta,
    dumps_checkpoint,
    loads_checkpoint,
    schema_from_identity,
    schema_identity,
)
from repro.streams.keys import DstPrefixKey, make_key_scheme, make_value_scheme

PathLike = Union[str, os.PathLike]

_FORMAT = "streaming-session"
#: The one session kind checkpoints carry (meta ``"session"``).
_SESSION = "serial"

#: Forecaster classes that checkpoint/restore knows how to rebuild --
#: the paper's six models plus the seasonal extension.
FORECASTER_CLASSES = {
    cls.__name__: cls
    for cls in (
        MovingAverageForecaster,
        SShapedMovingAverageForecaster,
        EWMAForecaster,
        HoltWintersForecaster,
        SeasonalHoltWintersForecaster,
        ArimaForecaster,
    )
}


def _key_scheme_spec(scheme) -> dict:
    params = {}
    if isinstance(scheme, DstPrefixKey):
        params["prefix_len"] = scheme.prefix_len
    name = getattr(scheme, "name", "")
    try:
        rebuilt = make_key_scheme(name, **params)
    except (ValueError, TypeError):
        rebuilt = None
    if rebuilt is None or type(rebuilt) is not type(scheme):
        raise ValueError(
            f"key scheme {type(scheme).__name__} is not reconstructible from "
            f"the registry (name={name!r}); checkpoints require a registered "
            "key scheme"
        )
    return {"name": name, "params": params}


def _value_scheme_spec(scheme) -> dict:
    name = getattr(scheme, "name", "")
    try:
        make_value_scheme(name)
    except ValueError:
        raise ValueError(
            f"value scheme {name!r} is not in the registry; checkpoints "
            "require a registered value scheme"
        ) from None
    return {"name": name}


def _forecaster_spec(forecaster) -> dict:
    cls = type(forecaster)
    if FORECASTER_CLASSES.get(cls.__name__) is not cls:
        raise ValueError(
            f"forecaster {cls.__name__} is not checkpoint-registered; known: "
            + ", ".join(sorted(FORECASTER_CLASSES))
        )
    return {"class": cls.__name__, "config": forecaster.get_config()}


def checkpoint_session(session: StreamingSession) -> bytes:
    """Serialize a streaming session's full pipeline state to bytes.

    The session is left untouched and continues to be usable.  Restoring
    the returned bytes (:func:`restore_session`) and feeding every record
    with ``timestamp > session.watermark`` yields reports bit-identical
    to continuing this session uninterrupted.
    """
    if type(session) is not StreamingSession:
        raise ValueError(
            f"cannot checkpoint a {type(session).__name__}; only "
            "StreamingSession is supported"
        )
    meta = {
        "format": _FORMAT,
        "session": _SESSION,
        "schema": schema_identity(session.schema),
        "forecaster": _forecaster_spec(session.forecaster),
        "config": {
            "interval_seconds": session.interval_seconds,
            "key_scheme": _key_scheme_spec(session.key_scheme),
            "value_scheme": _value_scheme_spec(session.value_scheme),
            "t_fraction": session.t_fraction,
            "top_n": session.top_n,
            "lateness_tolerance": session.lateness_tolerance,
            "key_source": session.key_source,
        },
        "cursor": {
            "current_index": session.current_interval,
            "records_ingested": session.records_ingested,
            "intervals_sealed": session.intervals_sealed,
            "watermark": session.watermark,
        },
    }
    body = {
        "forecaster": session.forecaster.get_state(),
        "accumulation": session._accumulation_state(),
    }
    return dumps_checkpoint(meta, body)


def restore_session(data: bytes, schema=None) -> StreamingSession:
    """Rebuild a streaming session from :func:`checkpoint_session` bytes.

    Parameters
    ----------
    data:
        A ``KCP1`` checkpoint container.
    schema:
        Optional pre-built schema to attach to (avoids re-deriving hash
        tables).  Its identity must match the checkpointed one exactly.
    """
    peek = checkpoint_meta(data)
    if peek.get("format") != _FORMAT:
        raise ValueError(
            f"not a streaming-session checkpoint (format={peek.get('format')!r})"
        )
    if peek.get("session") != _SESSION:
        raise ValueError(
            f"cannot restore a {peek.get('session')!r} session checkpoint; "
            f"only {_SESSION!r} sessions are supported"
        )
    schema = schema_from_identity(peek["schema"], schema=schema)
    meta, body = loads_checkpoint(data, schema=schema)

    fc_spec = meta["forecaster"]
    fc_cls = FORECASTER_CLASSES.get(fc_spec["class"])
    if fc_cls is None:
        raise ValueError(f"unknown forecaster class {fc_spec['class']!r}")
    forecaster = fc_cls(**fc_spec["config"])

    config = meta["config"]
    session = StreamingSession(
        schema,
        forecaster,
        interval_seconds=config["interval_seconds"],
        key_scheme=make_key_scheme(
            config["key_scheme"]["name"], **config["key_scheme"]["params"]
        ),
        value_scheme=make_value_scheme(config["value_scheme"]["name"]),
        t_fraction=config["t_fraction"],
        top_n=config["top_n"],
        lateness_tolerance=config["lateness_tolerance"],
        # Pre-key-source checkpoints (through PR 6) implicitly used the
        # two-pass collection strategy; .get keeps them restorable.
        key_source=config.get("key_source", "twopass"),
    )

    session.forecaster.set_state(body["forecaster"])
    cursor = meta["cursor"]
    session._current_index = (
        None if cursor["current_index"] is None else int(cursor["current_index"])
    )
    session._records_ingested = int(cursor["records_ingested"])
    session._intervals_sealed = int(cursor["intervals_sealed"])
    session._watermark = float(cursor["watermark"])
    session._restore_accumulation(body["accumulation"])
    return session


def save_checkpoint(session: StreamingSession, path: PathLike) -> None:
    """Write a session checkpoint to a file (atomic via rename).

    The write is reported through the session's recorder
    (``repro_checkpoints_written_total`` plus a ``checkpoint_written``
    trace event) -- but the recorder itself is never serialized:
    metrics are execution state, not result state.  A restored session
    starts with a fresh (Null) recorder and counters restart from zero;
    operators who need continuity across restarts should attach the
    same :class:`~repro.obs.recorder.PipelineRecorder` to the restored
    session and treat the restart like any other counter reset (the
    standard Prometheus ``rate()``/``increase()`` handling).
    """
    data = checkpoint_session(session)
    _write_durably(path, data)
    recorder = getattr(session, "recorder", None)
    if recorder is not None and recorder.enabled:
        recorder.count("repro_checkpoints_written_total")
        recorder.event(
            "checkpoint_written", path=os.fspath(path), bytes=len(data),
            watermark=session.watermark,
            intervals_sealed=session.intervals_sealed,
        )


def load_checkpoint(path: PathLike, schema=None) -> StreamingSession:
    """Read a session checkpoint from a file and restore it."""
    with open(path, "rb") as fh:
        return restore_session(fh.read(), schema=schema)
