"""Binary serialization of sketches and their schema identity.

The COMBINE deployment story (routers sketch locally, a collector merges)
needs sketches on the wire.  A serialized sketch must carry enough schema
identity that a collector cannot silently combine sketches built with
different hash functions -- COMBINE is only meaningful when ``(kind,
depth, width, key_bits, family, seed)`` all agree, so those are embedded
and checked.

Two formats, both little-endian:

``KSK1`` (legacy, k-ary only)

======  =====  ==============================================
offset  size   field
======  =====  ==============================================
0       4      magic ``b"KSK1"``
4       4      depth ``H`` (uint32)
8       4      width ``K`` (uint32)
12      8      schema seed (int64; legacy blobs used -1 for ``None``,
               which is now refused at both ends -- see below)
20      2      hash family name length (uint16)
22      n      hash family name (UTF-8)
22+n    8*H*K  counter table (float64, C order)
======  =====  ==============================================

``KSK2`` (any summary kind)

======  =====  ==============================================
offset  size   field
======  =====  ==============================================
0       4      magic ``b"KSK2"``
4       1      kind code (uint8: 1 kary, 2 countmin,
               3 countsketch, 4 grouptesting, 5 invertible)
5       4      depth (uint32)
9       4      width (uint32)
13      4      key_bits (uint32; 0 except grouptesting)
17      8      schema seed (int64; -1 encodes ``None``)
25      2      hash family name length (uint16)
27      n      hash family name (UTF-8)
27+n    --     counter table (float64, C order)
======  =====  ==============================================

k-ary sketches keep writing ``KSK1`` so artifacts from earlier versions
round-trip unchanged; every other kind writes ``KSK2``.  ``loads``/``load``
accept both, reconstruct the schema (hash tables are re-derived from the
seed -- deterministic, so only a few dozen bytes of schema travel, not
the megabytes of tabulation tables) or attach to a caller-provided schema
after verifying identity.

Entropy-seeded schemas (``seed=None``) are **refused** at both ends: their
hash functions exist only in the creating process, so a deserialized
sketch would silently estimate garbage.  Legacy blobs carrying the old
``-1`` seed sentinel raise the same error at load.

``KCP1`` (checkpoint container)

A versioned envelope for structured pipeline state -- the on-disk form of
a :class:`~repro.detection.session.StreamingSession` checkpoint:

======  =====  ==============================================
offset  size   field
======  =====  ==============================================
0       4      magic ``b"KCP1"``
4       2      container version (uint16)
6       4      meta length ``m`` (uint32)
10      m      meta: one packed value (no summaries permitted)
10+m    --     body: one packed value (summaries permitted)
======  =====  ==============================================

Values are packed with a small tagged codec (:func:`pack_state` /
:func:`unpack_state`) covering ``None``, bools, ints, floats, strings,
bytes, NumPy arrays, nested lists/tuples/dicts, and -- in the body --
any serializable summary (embedded as a full KSK blob, so every embedded
sketch carries the same schema-identity guards as a standalone one).
The meta section is summary-free so a reader can inspect the schema
identity *before* deciding how (or whether) to materialize the body.
"""

from __future__ import annotations

import numbers
import os
import struct
from typing import Optional, Tuple, Union

import numpy as np

from repro.sketch.countmin import CountMinSchema
from repro.sketch.countsketch import CountSketchSchema
from repro.sketch.invertible import InvertibleKArySchema
from repro.sketch.kary import KArySchema
from repro.sketch.mergeable import kind_of

_MAGIC = b"KSK1"
_HEADER = struct.Struct("<4sIIqH")

_MAGIC2 = b"KSK2"
_HEADER2 = struct.Struct("<4sBIIIqH")
_KIND_CODES = {
    "kary": 1,
    "countmin": 2,
    "countsketch": 3,
    "grouptesting": 4,
    "invertible": 5,
}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}
_SCHEMA_TYPES = {
    cls.kind: cls
    for cls in (KArySchema, InvertibleKArySchema, CountMinSchema, CountSketchSchema)
}

PathLike = Union[str, os.PathLike]


class SketchDecodeError(ValueError):
    """A serialized sketch blob is malformed.

    Raised by :func:`loads` when the *bytes themselves* are wrong --
    truncated, oversized, bad magic, an unknown kind code, a mangled
    family name.  Network codecs catch this one type to classify a frame
    as corrupt (drop it, count it, keep the connection's state machine
    intact) without also swallowing programming errors such as a schema
    mismatch, which stays a plain :class:`ValueError`.  Subclasses
    ``ValueError`` so existing callers that catch broadly keep working.
    """


def _seed_code(schema) -> int:
    seed = schema.seed
    if seed is None:
        # An entropy-seeded schema's hash functions exist only in this
        # process; the wire format carries the seed, not the tables, so a
        # reader would re-derive *different* hashes and every estimate of
        # the loaded sketch would be garbage.  Refuse loudly.
        raise ValueError(
            "sketches over entropy-seeded schemas (seed=None) cannot be "
            "serialized: their hash functions are not recoverable from the "
            "wire format; construct the schema with an explicit seed"
        )
    if not isinstance(seed, (int, np.integer)):
        raise ValueError("only integer schema seeds are serializable")
    code = int(seed)
    if not 0 <= code < 2**63:
        # Unreachable for schemas built through derive_seeds (validated at
        # construction); kept as a defensive guard for duck-typed schemas.
        raise ValueError(f"schema seed {seed} does not fit the int64 wire field")
    return code


def dumps(sketch) -> bytes:
    """Serialize any supported sketch (with schema identity) to bytes."""
    schema = sketch.schema
    kind = kind_of(schema)
    family = schema.family.encode("utf-8")
    table = np.ascontiguousarray(np.asarray(sketch.table), dtype="<f8")
    if kind == "kary":
        # Legacy format: keeps pre-KSK2 artifacts and tooling compatible.
        header = _HEADER.pack(
            _MAGIC, schema.depth, schema.width, _seed_code(schema), len(family)
        )
    else:
        header = _HEADER2.pack(
            _MAGIC2,
            _KIND_CODES[kind],
            schema.depth,
            schema.width,
            schema.key_bits,
            _seed_code(schema),
            len(family),
        )
    return header + family + table.tobytes()


def _check_schema(schema, kind, depth, width, key_bits, seed, family) -> None:
    mismatches = []
    if kind_of(schema) != kind:
        mismatches.append(f"kind {kind_of(schema)!r} != {kind!r}")
    if schema.depth != depth:
        mismatches.append(f"depth {schema.depth} != {depth}")
    if schema.width != width:
        mismatches.append(f"width {schema.width} != {width}")
    if schema.key_bits != key_bits:
        mismatches.append(f"key_bits {schema.key_bits} != {key_bits}")
    if schema.family != family:
        mismatches.append(f"family {schema.family!r} != {family!r}")
    if schema.seed != seed:
        mismatches.append(f"seed {schema.seed} != {seed}")
    if mismatches:
        raise ValueError(
            "serialized sketch does not match the provided schema: "
            + "; ".join(mismatches)
        )


def _build_schema(kind, depth, width, key_bits, seed, family):
    if kind == "grouptesting":
        # repro.detection imports this package, so group testing cannot be
        # imported at module level.
        from repro.detection.grouptesting import GroupTestingSchema as cls
    else:
        cls = _SCHEMA_TYPES[kind]
    return cls.from_config(depth, width, seed, family, key_bits)


def loads(data: bytes, schema=None):
    """Deserialize a sketch (either wire format).

    Parameters
    ----------
    data:
        Bytes produced by :func:`dumps`.
    schema:
        Optional existing schema to attach to (avoids rebuilding hash
        tables when deserializing many sketches).  Its identity must
        match the serialized one exactly, or ``ValueError`` is raised --
        this is the guard that makes cross-machine COMBINE safe.
    """
    if len(data) < 4:
        raise SketchDecodeError("data too short for a sketch header")
    magic = data[:4]
    if magic == _MAGIC:
        if len(data) < _HEADER.size:
            raise SketchDecodeError("data too short for a sketch header")
        _, depth, width, seed_code, name_len = _HEADER.unpack_from(data)
        kind = "kary"
        key_bits = 0
        offset = _HEADER.size
    elif magic == _MAGIC2:
        if len(data) < _HEADER2.size:
            raise SketchDecodeError("data too short for a sketch header")
        _, kind_code, depth, width, key_bits, seed_code, name_len = (
            _HEADER2.unpack_from(data)
        )
        kind = _CODE_KINDS.get(kind_code)
        if kind is None:
            raise SketchDecodeError(f"unknown summary kind code {kind_code}")
        offset = _HEADER2.size
    else:
        raise SketchDecodeError(f"bad magic {magic!r} (not a serialized sketch)")

    if offset + name_len > len(data):
        raise SketchDecodeError(
            f"data too short for the {name_len}-byte hash family name"
        )
    try:
        family = data[offset : offset + name_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SketchDecodeError(f"hash family name is not UTF-8: {exc}") from None
    offset += name_len
    if seed_code == -1:
        # Legacy writers encoded seed=None as -1.  Such blobs were never
        # loadable in any meaningful sense: rebuilding the schema draws
        # fresh OS entropy, and no caller-provided schema can be verified
        # against them (the original seed is unknowable).
        raise ValueError(
            "serialized sketch was built over an entropy-seeded schema "
            "(seed=None); its hash functions are not recoverable, so it "
            "cannot be deserialized"
        )
    if seed_code < 0:
        raise ValueError(f"invalid seed {seed_code} in serialized sketch")
    seed = seed_code

    if schema is None:
        schema = _build_schema(kind, depth, width, key_bits, seed, family)
    else:
        _check_schema(schema, kind, depth, width, key_bits, seed, family)

    shape = schema.table_shape
    expected = int(np.prod(shape)) * 8
    body = data[offset:]
    if len(body) != expected:
        raise SketchDecodeError(
            f"table payload is {len(body)} bytes, expected {expected}"
        )
    table = np.frombuffer(body, dtype="<f8").reshape(shape).copy()
    return schema.sketch_type(schema, table)


def schema_identity(schema) -> dict:
    """The schema's wire identity as a plain dict (checkpoint meta form).

    Raises for entropy-seeded schemas (``seed=None``), exactly as
    :func:`dumps` does -- identity without a recoverable seed is useless.
    """
    return {
        "kind": kind_of(schema),
        "depth": int(schema.depth),
        "width": int(schema.width),
        "key_bits": int(schema.key_bits),
        "seed": _seed_code(schema),
        "family": schema.family,
    }


def schema_from_identity(identity: dict, schema=None):
    """Rebuild (or verify a caller-provided) schema from its identity dict.

    A corrupt identity raises ``ValueError`` naming the field: a kind no
    schema class has, a missing or non-integer size or seed, a family
    that is not a string.
    """
    if not isinstance(identity, dict):
        raise ValueError(f"schema identity must be a dict, got {identity!r}")
    kind, family = identity.get("kind"), identity.get("family")
    if not isinstance(kind, str) or kind not in _KIND_CODES:
        raise ValueError(f"unknown schema kind {kind!r}")
    if not isinstance(family, str):
        raise ValueError(
            f"schema identity 'family' must be a string, got {family!r}"
        )
    fields = ("depth", "width", "key_bits", "seed")
    for field in fields:
        value = identity.get(field)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(
                f"schema identity {field!r} must be an integer, got {value!r}"
            )
    depth, width, key_bits, seed = (int(identity[field]) for field in fields)
    if schema is None:
        return _build_schema(kind, depth, width, key_bits, seed, family)
    _check_schema(schema, kind, depth, width, key_bits, seed, family)
    return schema


# -- KCP1: tagged state codec + checkpoint container --------------------------

_MAGIC_KCP = b"KCP1"
_KCP_VERSION = 1
_KCP_HEADER = struct.Struct("<4sHI")

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


def _pack_value(out: list, value, allow_summaries: bool) -> None:
    from repro.sketch.base import LinearSummary

    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, (int, np.integer)):
        v = int(value)
        if -(2**63) <= v < 2**63:
            out.append(b"i" + _I64.pack(v))
        else:
            digits = str(v).encode("ascii")
            out.append(b"I" + _U32.pack(len(digits)) + digits)
    elif isinstance(value, (float, np.floating)):
        out.append(b"f" + _F64.pack(float(value)))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(b"s" + _U32.pack(len(raw)) + raw)
    elif isinstance(value, (bytes, bytearray)):
        out.append(b"b" + _U32.pack(len(value)) + bytes(value))
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        dt = arr.dtype.str.encode("ascii")
        out.append(
            b"a"
            + struct.pack("<B", len(dt))
            + dt
            + struct.pack("<B", arr.ndim)
            + struct.pack(f"<{arr.ndim}q", *arr.shape)
        )
        out.append(arr.tobytes())
    elif isinstance(value, LinearSummary):
        if not allow_summaries:
            raise ValueError(
                "summaries are not permitted in the checkpoint meta section"
            )
        blob = dumps(value)
        out.append(b"S" + _U32.pack(len(blob)) + blob)
    elif isinstance(value, tuple):
        out.append(b"t" + _U32.pack(len(value)))
        for item in value:
            _pack_value(out, item, allow_summaries)
    elif isinstance(value, list):
        out.append(b"l" + _U32.pack(len(value)))
        for item in value:
            _pack_value(out, item, allow_summaries)
    elif isinstance(value, dict):
        out.append(b"d" + _U32.pack(len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"checkpoint dict keys must be str, got {type(key).__name__}"
                )
            raw = key.encode("utf-8")
            out.append(_U32.pack(len(raw)) + raw)
            _pack_value(out, item, allow_summaries)
    else:
        raise TypeError(
            f"value of type {type(value).__name__} is not checkpoint-serializable"
        )


def pack_state(value, allow_summaries: bool = True) -> bytes:
    """Encode a nested state value with the KCP1 tagged codec.

    Supported: ``None``, bools, ints (arbitrary precision), floats,
    strings, bytes, NumPy arrays (any dtype/shape, C order), serializable
    summaries (embedded as KSK blobs), and lists/tuples/dicts thereof.
    """
    out: list = []
    _pack_value(out, value, allow_summaries)
    return b"".join(out)


def _unpack_value(data: bytes, offset: int, schema):
    tag = data[offset : offset + 1]
    offset += 1
    if tag == b"N":
        return None, offset
    if tag == b"T":
        return True, offset
    if tag == b"F":
        return False, offset
    if tag == b"i":
        (v,) = _I64.unpack_from(data, offset)
        return v, offset + _I64.size
    if tag == b"I":
        (n,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        return int(data[offset : offset + n].decode("ascii")), offset + n
    if tag == b"f":
        (v,) = _F64.unpack_from(data, offset)
        return v, offset + _F64.size
    if tag == b"s":
        (n,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        return data[offset : offset + n].decode("utf-8"), offset + n
    if tag == b"b":
        (n,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        return data[offset : offset + n], offset + n
    if tag == b"a":
        (dt_len,) = struct.unpack_from("<B", data, offset)
        offset += 1
        dtype = np.dtype(data[offset : offset + dt_len].decode("ascii"))
        offset += dt_len
        (ndim,) = struct.unpack_from("<B", data, offset)
        offset += 1
        shape = struct.unpack_from(f"<{ndim}q", data, offset)
        offset += 8 * ndim
        count = int(np.prod(shape)) if ndim else 1
        nbytes = count * dtype.itemsize
        arr = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
        return arr.reshape(shape).copy(), offset + nbytes
    if tag == b"S":
        (n,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        return loads(data[offset : offset + n], schema=schema), offset + n
    if tag == b"t":
        (n,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        items = []
        for _ in range(n):
            item, offset = _unpack_value(data, offset, schema)
            items.append(item)
        return tuple(items), offset
    if tag == b"l":
        (n,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        items = []
        for _ in range(n):
            item, offset = _unpack_value(data, offset, schema)
            items.append(item)
        return items, offset
    if tag == b"d":
        (n,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        result = {}
        for _ in range(n):
            (key_len,) = _U32.unpack_from(data, offset)
            offset += _U32.size
            key = data[offset : offset + key_len].decode("utf-8")
            offset += key_len
            result[key], offset = _unpack_value(data, offset, schema)
        return result, offset
    raise ValueError(f"unknown state tag {tag!r} at offset {offset - 1}")


def unpack_state(data: bytes, schema=None):
    """Decode a value packed with :func:`pack_state`.

    ``schema``, when given, is attached to every embedded summary (their
    identity is verified against it, exactly as in :func:`loads`) -- the
    natural mode for a session checkpoint, whose summaries all share one
    schema.
    """
    value, offset = _unpack_value(data, 0, schema)
    if offset != len(data):
        raise ValueError(
            f"trailing garbage after packed state ({len(data) - offset} bytes)"
        )
    return value


def dumps_checkpoint(meta: dict, body: dict) -> bytes:
    """Serialize a two-section KCP1 checkpoint container.

    ``meta`` must be summary-free (it is what a reader inspects to build
    or verify the schema); ``body`` may embed summaries.
    """
    meta_blob = pack_state(meta, allow_summaries=False)
    body_blob = pack_state(body, allow_summaries=True)
    header = _KCP_HEADER.pack(_MAGIC_KCP, _KCP_VERSION, len(meta_blob))
    return header + meta_blob + body_blob


def _write_durably(path: PathLike, data: bytes) -> None:
    """Replace ``path`` with ``data``: written to ``<path>.tmp``, fsynced,
    then renamed, so a crash leaves the old file or the new one.  On a
    failure the temp file is removed and ``path`` is left as it was."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _split_checkpoint(data: bytes) -> Tuple[dict, bytes]:
    if len(data) < _KCP_HEADER.size:
        raise ValueError("data too short for a checkpoint header")
    magic, version, meta_len = _KCP_HEADER.unpack_from(data)
    if magic != _MAGIC_KCP:
        raise ValueError(f"bad magic {magic!r} (not a KCP checkpoint)")
    if version != _KCP_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version} (expected {_KCP_VERSION})"
        )
    meta_end = _KCP_HEADER.size + meta_len
    if len(data) < meta_end:
        raise ValueError("data too short for the checkpoint meta section")
    meta = unpack_state(data[_KCP_HEADER.size : meta_end])
    if not isinstance(meta, dict):
        raise ValueError("checkpoint meta section must be a dict")
    return meta, data[meta_end:]


def checkpoint_meta(data: bytes) -> dict:
    """Read only the meta section of a KCP1 container (cheap peek)."""
    meta, _ = _split_checkpoint(data)
    return meta


def loads_checkpoint(data: bytes, schema=None) -> Tuple[dict, dict]:
    """Deserialize a KCP1 container into ``(meta, body)`` dicts.

    ``schema`` is attached to (and verified against) every summary
    embedded in the body.
    """
    meta, body_blob = _split_checkpoint(data)
    body = unpack_state(body_blob, schema=schema)
    if not isinstance(body, dict):
        raise ValueError("checkpoint body section must be a dict")
    return meta, body


def dump(sketch, path: PathLike) -> None:
    """Write a serialized sketch to a file."""
    with open(path, "wb") as fh:
        fh.write(dumps(sketch))


def load(path: PathLike, schema=None):
    """Read a serialized sketch from a file."""
    with open(path, "rb") as fh:
        return loads(fh.read(), schema=schema)
