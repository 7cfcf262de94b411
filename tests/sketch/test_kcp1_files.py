"""The KCP1 file boundary: session, coordinator and archive files.

A corrupt schema identity is rejected with a ``ValueError`` naming the
field or kind by all three loaders, and all three savers replace the
previous file only once the new bytes are on disk.
"""

import os
import struct

import numpy as np
import pytest

from repro.archive import TemporalArchive, load_archive, save_archive
from repro.detection import StreamingSession, restore_session, save_checkpoint
from repro.distributed.coordinator import IntervalMerger, restore_merger
from repro.sketch import KArySchema
from repro.sketch.serialization import checkpoint_meta, pack_state
from repro.streams import make_records


@pytest.fixture
def schema():
    return KArySchema(depth=3, width=128, seed=17)


def _session(schema):
    session = StreamingSession(schema, "ewma", interval_seconds=60.0, alpha=0.5)
    n = 200
    session.ingest(
        make_records(np.linspace(0.0, 150.0, n), np.arange(n) % 17, np.ones(n))
    )
    return session


def _archive(schema):
    archive = TemporalArchive(schema, 60.0)
    for index in range(3):
        summary = schema.from_items(
            np.arange(5, dtype=np.uint64), np.full(5, index + 1.0)
        )
        archive.ingest(summary, np.arange(5, dtype=np.uint64), index)
    return archive


#: Each file kind as (save to a path, load from a path).
FILES = {
    "session": (
        lambda schema, path: save_checkpoint(_session(schema), path),
        lambda path: restore_session(path.read_bytes()),
    ),
    "coordinator": (
        lambda schema, path: IntervalMerger(schema, "ewma").save_checkpoint(path),
        lambda path: restore_merger(path.read_bytes()),
    ),
    "archive": (
        lambda schema, path: save_archive(_archive(schema), path),
        load_archive,
    ),
}


def _with_identity(data: bytes, edit) -> bytes:
    """``data`` with its meta's schema identity replaced by ``edit(identity)``."""
    meta = checkpoint_meta(data)
    _, _, meta_len = struct.unpack_from("<4sHI", data)
    meta["schema"] = edit(dict(meta["schema"]))
    meta_blob = pack_state(meta, allow_summaries=False)
    return (
        struct.pack("<4sHI", b"KCP1", 1, len(meta_blob))
        + meta_blob
        + data[struct.calcsize("<4sHI") + meta_len :]
    )


def _set(field, value):
    return lambda identity: {**identity, field: value}


def _drop(field):
    return lambda identity: {k: v for k, v in identity.items() if k != field}


#: Corruptions and the text the error must name.
CORRUPTIONS = {
    "kind-bogus": (_set("kind", "bogus"), "'bogus'"),
    "kind-none": (_set("kind", None), "kind None"),
    "kind-int": (_set("kind", 7), "kind 7"),
    "no-depth": (_drop("depth"), "'depth'"),
    "no-family": (_drop("family"), "'family'"),
    "depth-none": (_set("depth", None), "'depth'"),
    "width-float": (_set("width", 128.5), "'width'"),
    "family-int": (_set("family", 3), "family"),
    "not-a-dict": (lambda identity: [1, 2], "dict"),
}


class TestCorruptSchemaIdentity:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("kind", sorted(FILES))
    def test_loader_raises_value_error(self, kind, corruption, schema, tmp_path):
        save, load = FILES[kind]
        path = tmp_path / "state.kcp"
        save(schema, path)
        load(path)  # the intact file loads
        edit, names = CORRUPTIONS[corruption]
        path.write_bytes(_with_identity(path.read_bytes(), edit))
        with pytest.raises(ValueError, match=names):
            load(path)


class TestDurableWrite:
    @pytest.mark.parametrize("kind", sorted(FILES))
    def test_failed_replace_keeps_the_previous_file(
        self, kind, schema, tmp_path, monkeypatch
    ):
        save, load = FILES[kind]
        path = tmp_path / "state.kcp"
        save(schema, path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            save(KArySchema(depth=3, width=64, seed=18), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.kcp"]
        load(path)

    @pytest.mark.parametrize("kind", sorted(FILES))
    def test_bytes_reach_the_disk_before_the_rename(
        self, kind, schema, tmp_path, monkeypatch
    ):
        save, _ = FILES[kind]
        path = tmp_path / "state.kcp"
        steps = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync", lambda fd: steps.append("fsync") or real_fsync(fd)
        )
        monkeypatch.setattr(
            os, "replace",
            lambda src, dst: steps.append("replace") or real_replace(src, dst),
        )
        save(schema, path)
        assert steps == ["fsync", "replace"]
