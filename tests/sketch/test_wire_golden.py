"""Golden bytes for the KSK1, KSK2 and KCP1 wire formats.

Round-trip tests cannot see a change made to ``dumps`` and ``loads`` alike,
so these pin each blob's SHA-256.  Every table is built from explicit
values, so no hash function's output enters the bytes.
"""

import hashlib

import numpy as np
import pytest

from repro.detection.grouptesting import GroupTestingSchema, GroupTestingSketch
from repro.sketch import (
    CountMinSchema,
    CountMinSketch,
    CountSketch,
    CountSketchSchema,
    InvertibleKArySchema,
    InvertibleKArySketch,
    KArySchema,
    KArySketch,
)
from repro.sketch.serialization import dumps, dumps_checkpoint, loads, loads_checkpoint

DEPTH, WIDTH, SEED = 3, 16, 11


def _table(shape):
    n = int(np.prod(shape))
    return (np.arange(n) * 0.75 - n / 3).reshape(shape)


def _kary():
    return KArySketch(
        KArySchema(depth=DEPTH, width=WIDTH, seed=SEED), _table((DEPTH, WIDTH))
    )


CASES = {
    "kary": (
        _kary,
        416,
        "e69ae8e8a226bf000c9da58d0298e7e9489f0272da16a7159df68fa76936d52f",
    ),
    "invertible": (
        lambda: InvertibleKArySketch(
            InvertibleKArySchema(depth=DEPTH, width=WIDTH, seed=SEED),
            _table((3, DEPTH, WIDTH)),
        ),
        1189,
        "7f6b195b90e37fa12a81d2756bc3c77dd21cb6f087bbb688c01abfd7449df46f",
    ),
    "countmin": (
        lambda: CountMinSketch(
            CountMinSchema(depth=DEPTH, width=WIDTH, seed=SEED),
            _table((DEPTH, WIDTH)),
        ),
        421,
        "a6de0a234ee40407487edd3e48f02ee5865f6dbf9c73b34aab914df771eb2d34",
    ),
    "countsketch": (
        lambda: CountSketch(
            CountSketchSchema(
                depth=DEPTH, width=WIDTH, seed=SEED, family="polynomial"
            ),
            _table((DEPTH, WIDTH)),
        ),
        421,
        "855a2aecec7b8b74a1563e18b6ed59fa217a4acfb67eacb72f34ca9cfeed9fab",
    ),
    "grouptesting": (
        lambda: GroupTestingSketch(
            GroupTestingSchema(depth=DEPTH, width=WIDTH, key_bits=20, seed=SEED),
            _table((DEPTH, WIDTH, 21)),
        ),
        8101,
        "abf76138ae04d3d2011a12243f6893cee6c95b66d251c62f56dac391369aa1b4",
    ),
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_sketch_blob_bytes_are_pinned(kind):
    build, size, digest = CASES[kind]
    sketch = build()
    blob = dumps(sketch)
    assert len(blob) == size
    assert hashlib.sha256(blob).hexdigest() == digest
    assert np.array_equal(np.asarray(loads(blob).table), np.asarray(sketch.table))


def test_checkpoint_container_bytes_are_pinned():
    sketch = _kary()
    blob = dumps_checkpoint(
        {"format": "golden"}, {"s": sketch, "n": [1, 2.5, None, "x"]}
    )
    assert len(blob) == 502
    assert hashlib.sha256(blob).hexdigest() == (
        "75f7d77756a32644e71b9de2154a5074356edf1d31e4714b3a1874e4afbff69b"
    )
    meta, body = loads_checkpoint(blob)
    assert meta == {"format": "golden"}
    assert body["n"] == [1, 2.5, None, "x"]
    assert np.array_equal(np.asarray(body["s"].table), np.asarray(sketch.table))
