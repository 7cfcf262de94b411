"""Golden bytes for session checkpoints of the two swept forecast models.

Round-trip tests restore what they wrote, so they cannot see a change
made to the forecaster's state capture and its restore alike -- a state
entry renamed, dropped or computed with different bits.  These pin the
SHA-256 of ``checkpoint_session`` for an EWMA and an NSHW session at every
point from the first open interval through the warm-up seals into the
steady state, where each seal runs the one-pass forecast step: over a
plain k-ary sketch, and over an invertible one, whose checkpoint also
carries the candidate planes the step folds by majority vote.

Keys and values are plain arithmetic, so the bytes depend on nothing but
the code under test and the schema's seeded hash tables.
"""

import hashlib

import numpy as np
import pytest

from repro.detection import StreamingSession, checkpoint_session
from repro.sketch import InvertibleKArySchema, KArySchema
from repro.streams.model import KeyedUpdates

RECORDS_PER_INTERVAL = 300

MODELS = {
    "ewma": {"alpha": 0.35},
    "nshw": {"alpha": 0.4, "beta": 0.25},
}

#: Schema kind and the key source its session runs.
KINDS = {
    "kary": (KArySchema, "twopass"),
    "invertible": (InvertibleKArySchema, "invertible"),
}

#: ``(length, sha256)`` of the checkpoint taken right after the block for
#: interval ``i`` was ingested, i.e. with ``i`` intervals sealed.
GOLDEN = {
    "ewma": [
        (11780, "621151f2626d150391943c6e46e1e2b50a2f7fd3234ee3186cb8f246ce98e4d6"),
        (17960, "fbf0b256ff7c1063b6d6c44b0e70458908d2e743a4a5645b33574d023e1d3576"),
        (17960, "29000dee5df0cb54c469003c958cef5496af98432ae2d498bc1d94ce7ad6674c"),
        (17960, "9a18c5b3bd742c72ebc8ed78311b359ea7d54d5f96fcaf48b596ae237aa02df2"),
        (17960, "8c44bbf44fa6f13a7e8e76efdc1fbe6d4195e12ec9132d3f076b03055e43df90"),
        (17960, "819bdcb7859684ec7d958afd4b19744deb944cde49a02c7bbc0c0a55293b5c6d"),
        (17960, "ed3a405da5eb8567784e323b4f7dbd35b35a4c2fd72e28dc2dddc2477d751733"),
    ],
    "nshw": [
        (11835, "668108aeb2183e25b5640565b6d8bf6cc952f5c8ba5ae8b9456b122db030f3d5"),
        (18015, "548feb0f8a5befd16f540ec6ba82763fc1cc69e063e96b1246608d74715c14eb"),
        (30375, "af3dd293bf057b8f5e21aaba6e336aab7b81614875bd4534ba94bb3cf7012bd6"),
        (30375, "6cf1ec5574a9bbb33dc55ce6f37cc9d790b1654c8c5831ab1ea784d91e4445ef"),
        (30375, "100cc8581af28ab2829d9815f6ec7900048b7b336eee70e81119dc9d10d11c70"),
        (30375, "43866f4eb9b35063ecdc6a87cfeb8d2e986acb79ad478ac981c10a40662933ba"),
        (30375, "94cbdcff7d077ee6b67aa535a41fcc077dfc34a2e7f34d287ea555aef9dd2ab1"),
    ],
}

#: The same for sessions over an invertible sketch (``key_source=
#: "invertible"``), whose steady-state seals fold candidate planes too.
#: These equal the bytes of a seal that runs one COMBINE per statement.
GOLDEN_INVERTIBLE = {
    "ewma": [
        (24082, "0c51c848825235447e5d44dbd45f11464807de54be6e8c4a4d98737b2281c08a"),
        (42555, "d01e220da7d83b50786f8fedd0dec56061f7b26da4673b576185389f478361b2"),
        (42555, "05785fc3757863614ed749cfc9053f528588e61ec61662986cd5c053a811d065"),
        (42555, "c6ac963e6a8d508a30df354e1db04f8e7ff2418a115cb9e092efa94ce9635dc9"),
        (42555, "78bf2e6b6145d7b709db94e23095a2ebf60fe723fbb23338dfa029e6c3236d30"),
        (42555, "2a59d23dcefd88e49f72e113a8246606cc206a456c84adb0fec04b4911cea3ab"),
        (42555, "31baf362695d4ecede7dc08f5f09bfd1c701561abd30b08da8f7482e0c5a2086"),
    ],
    "nshw": [
        (24137, "152da190611dd137dac6e2ce8847b7da7d04216ecc51a366ca117ec37f893a05"),
        (42610, "2c899f398dea21220ec3593d81d9ceef422c7f0b3a88fb814806914fe31c40a1"),
        (79556, "2fca0c635f9bc7a068f3b966217edf35d7b7b0c7d40b7755990cb8cc2147aabf"),
        (79556, "372491c49e5e45ca5852031b9fb36c641575c3d166d91c7b3df8aecdb6880439"),
        (79556, "a76369355b81bb293b1493d978e5c3fa13435056e56c5a5368c5b0917053fa63"),
        (79556, "77b1f32cadbb008c92eb9c97fdb4f39eeb746d9505a06e69d8174c704b91b561"),
        (79556, "1823c33e1ef501d99cc12ece036344531a813f78bfa53e1ce77f1baa1240a9e2"),
    ],
}


def _block(index: int) -> KeyedUpdates:
    n = RECORDS_PER_INTERVAL
    i = np.arange(index * n, (index + 1) * n, dtype=np.uint64)
    keys = (i * np.uint64(2654435761)) % np.uint64(4099)
    values = 40.0 + ((i * np.uint64(7919)) % np.uint64(1500)).astype(
        np.float64
    ) / 4.0
    return KeyedUpdates(index=index, keys=keys, values=values)


def _checkpoints(model: str, kind: str = "kary") -> list:
    schema_type, key_source = KINDS[kind]
    session = StreamingSession(
        schema_type(depth=3, width=256, seed=21), model,
        interval_seconds=60.0, t_fraction=0.1, top_n=5,
        key_source=key_source, **MODELS[model],
    )
    out = []
    for index in range(len(GOLDEN[model])):
        session.ingest_columns(_block(index))
        blob = checkpoint_session(session)
        out.append((len(blob), hashlib.sha256(blob).hexdigest()))
    return out


@pytest.mark.parametrize("model", sorted(MODELS))
def test_session_checkpoint_bytes_are_pinned(model):
    got = _checkpoints(model)
    for sealed, (have, want) in enumerate(zip(got, GOLDEN[model])):
        assert have == want, f"{model} checkpoint with {sealed} intervals sealed"


@pytest.mark.parametrize("model", sorted(MODELS))
def test_invertible_session_checkpoint_bytes_are_pinned(model):
    got = _checkpoints(model, "invertible")
    for sealed, (have, want) in enumerate(zip(got, GOLDEN_INVERTIBLE[model])):
        assert have == want, f"{model} checkpoint with {sealed} intervals sealed"
