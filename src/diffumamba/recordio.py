"""Bit-exact binary container for named tensor tables.

Layout (all integers little-endian):

    magic: 4 bytes
    version: u32
    per section:
        count: u64
        count records, each:
            name_len: u32
            name: UTF-8 bytes
            dtype tag: u8   (0 = f32, 1 = f64, 2 = u8)
            rank: u32
            dims: rank * u32
            payload: raw little-endian buffer

Checkpoints use two sections (model tensors, then config/meta/momentum
blocks encoded as records); latent dumps use the same scheme, and JSON
blocks travel as u8 records (``json_record``).  Readers consume exact
byte counts and reject bytes after the last section, so corruption
surfaces as one of the errors below.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .util import atomic_write


class ContainerError(Exception):
    """Base error for record container problems."""


class BadMagicError(ContainerError):
    """File does not start with the expected magic bytes."""


class UnknownVersionError(ContainerError):
    """Container version is not supported by this build."""


class TruncatedPayloadError(ContainerError):
    """File ended before the declared payload was read."""


_DTYPE_TAGS = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1")}
_TAG_FOR_KIND = {("f", 4): 0, ("f", 8): 1, ("u", 1): 2}


def _tag_for(arr: np.ndarray) -> int:
    key = (arr.dtype.kind, arr.dtype.itemsize)
    if key not in _TAG_FOR_KIND:
        raise ContainerError(f"unsupported dtype {arr.dtype} (only f32/f64/u8)")
    return _TAG_FOR_KIND[key]


def _write_record(fh, name: str, arr: np.ndarray):
    name_b = name.encode("utf-8")
    fh.write(struct.pack("<I", len(name_b)))
    fh.write(name_b)
    fh.write(struct.pack("<B", _tag_for(arr)))
    fh.write(struct.pack("<I", arr.ndim))
    for d in arr.shape:
        fh.write(struct.pack("<I", d))
    fh.write(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes())


def _read_exact(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise TruncatedPayloadError(f"truncated payload: wanted {n} bytes, got {len(buf)}")
    return buf


def _read_record(fh):
    (name_len,) = struct.unpack("<I", _read_exact(fh, 4))
    name = _read_exact(fh, name_len).decode("utf-8")
    (tag,) = struct.unpack("<B", _read_exact(fh, 1))
    if tag not in _DTYPE_TAGS:
        raise ContainerError(f"unknown dtype tag {tag} in record {name!r}")
    (rank,) = struct.unpack("<I", _read_exact(fh, 4))
    dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank)) if rank else ()
    dtype = _DTYPE_TAGS[tag]
    count = 1
    for d in dims:
        count *= d
    payload = _read_exact(fh, count * dtype.itemsize)
    arr = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    return name, arr


def json_record(obj) -> np.ndarray:
    """A JSON-serializable object as a u8 record (sorted keys, UTF-8)."""
    return np.frombuffer(json.dumps(obj, sort_keys=True).encode("utf-8"),
                         dtype=np.uint8).copy()


def json_from_record(arr):
    return json.loads(bytes(arr).decode("utf-8"))


def write_container(path, magic: bytes, version: int, sections):
    """Write sections (each an ordered name -> ndarray mapping).

    Written through ``util.atomic_write``: a write that fails or is cut
    short leaves any previous file at ``path`` as it was.
    """
    with atomic_write(path, binary=True) as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", version))
        for section in sections:
            fh.write(struct.pack("<Q", len(section)))
            for name, arr in section.items():
                _write_record(fh, name, np.asarray(arr))


def read_container(path, magic: bytes, versions=(1,)):
    """Read back the two record tables; strict about every byte."""
    with open(path, "rb") as fh:
        got = fh.read(len(magic))
        if got != magic:
            raise BadMagicError(f"bad magic: expected {magic!r}, found {got!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version not in versions:
            raise UnknownVersionError(f"unknown container version {version} "
                                      f"(supported: {list(versions)})")
        sections = []
        for _ in range(2):
            (count,) = struct.unpack("<Q", _read_exact(fh, 8))
            table = {}
            for _ in range(count):
                name, arr = _read_record(fh)
                table[name] = arr
            sections.append(table)
        rest = fh.read()
        if rest:
            raise ContainerError(f"{len(rest)} trailing bytes after the last section")
        return version, sections
