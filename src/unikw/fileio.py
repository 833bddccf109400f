"""Binary file plumbing: the checksummed file frame, LEB128 varints, safe
reads, and the read-only views (``read_only``, ``read_sealed``) the served
parts hold.

Every binary format in this package (KTRI, KENC, KEMB, KGRA) is one
frame: a 4-byte magic, a little-endian u32 version, the format's body,
and a u64 footer holding SHA-256/64 (the first 8 bytes of the SHA-256
digest) of every byte before it.  ``frame`` writes it and ``unframe``
reads it, checking magic, then version, then checksum, so an old file
reports its version rather than a checksum mismatch.  ``hashlib`` takes
SHA-256 from OpenSSL, which runs it on the CPU's SHA instructions where
there are any (``sha_ni`` on x86, the SHA2 extension on ARMv8) and in
software elsewhere.  Varints are written and read as whole arrays (``encode_uvarints``,
``decode_uvarints``).
"""

from __future__ import annotations

import hashlib
import os
import struct

import numpy as np

from .errors import ValidationError


def checksum64(data: bytes) -> int:
    """The first 8 bytes of SHA-256, as a little-endian u64."""
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "little")


crc64 = checksum64  # kept only so the benchmark's tracer can find it by name


# 2**7, 2**14, ..., 2**56: a value needs one byte more than the steps it reaches.
_SEVEN_BIT_STEPS = np.left_shift(1, np.arange(7, 63, 7, dtype=np.int64))


def encode_uvarints(values) -> bytes:
    """LEB128 varints of non-negative int64 ``values``, back to back."""
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 0:
        raise ValidationError("varint value must be non-negative")
    sizes = 1 + np.searchsorted(_SEVEN_BIT_STEPS, values, side="right")
    ends = np.cumsum(sizes)
    owner = np.repeat(np.arange(len(values)), sizes)
    shift = 7 * (np.arange(len(owner)) - np.repeat(ends - sizes, sizes))
    out = ((values[owner] >> shift) & 0x7F | 0x80).astype(np.uint8)
    out[ends - 1] &= 0x7F  # the last byte of a varint has no continuation bit
    return out.tobytes()


def decode_uvarints(data, count: int) -> np.ndarray:
    """The ``count`` LEB128 varints that make up ``data`` exactly, as int64; a
    varint of over nine bytes (63 bits) is an error.

    One pass over the bytes marks where varints end and takes each one's
    last byte; only the multi-byte varints are then looped over, one pass
    per further byte.  Nothing but the result is as long as the stream in
    int64 (page faults on a bundle load)."""
    raw = np.frombuffer(data, dtype=np.uint8)
    last = raw < 0x80  # the last byte of a varint
    found = np.count_nonzero(last)
    if found < count:
        raise ValidationError("truncated file: varint runs past end of data")
    if found > count or (raw.size and not last[-1]):
        raise ValidationError("corrupt file: trailing bytes after the last varint")
    values = raw[last].astype(np.int64)
    at = np.flatnonzero(last[1:] & ~last[:-1])  # each multi-byte varint's last continuation byte
    ends = at + 1
    tops = raw[ends].astype(np.int64) << 7 | raw[at] & 0x7F
    conts = np.ones(len(at), dtype=np.int64)  # continuation bytes per multi-byte varint
    rows = np.flatnonzero(raw[at - 1] >= 0x80)  # raw[-1] ends a varint: safe at 0
    for back in range(1, 8):
        if not rows.size:
            break
        conts[rows] += 1
        tops[rows] = tops[rows] << 7 | raw[at[rows] - back] & 0x7F
        rows = rows[raw[at[rows] - back - 1] >= 0x80]
    if rows.size:
        raise ValidationError("varint too long")
    # A varint's index is the bytes before its end less the continuation bytes.
    values[ends - np.cumsum(conts)] = tops
    return values


def take(data: bytes, pos: int, count: int) -> tuple[bytes, int]:
    """Slice ``count`` bytes at ``pos``, raising on a negative count (a
    corrupt length field) and on truncation."""
    if count < 0:
        raise ValidationError(f"corrupt file: byte count {count} is negative")
    end = pos + count
    if end > len(data):
        raise ValidationError("truncated file: unexpected end of data")
    return data[pos:end], end


def unpack_at(fmt: str, data: bytes, pos: int) -> tuple[tuple, int]:
    """``struct.unpack`` at ``pos`` with truncation checking."""
    size = struct.calcsize(fmt)
    raw, pos = take(data, pos, size)
    return struct.unpack(fmt, raw), pos


def read_only(array) -> np.ndarray:
    """A view of ``array`` that cannot be written; ``array`` keeps its flags.
    The index, the tries and the catalog hold their arrays this way, so no
    caller can change them in place behind their checks."""
    view = np.asarray(array).view()
    view.flags.writeable = False
    return view


def frame(magic: bytes, version: int, body: bytes) -> bytes:
    """One file: ``magic``, u32 ``version``, ``body``, checksum footer."""
    data = b"".join((magic, struct.pack("<I", version), body))
    return data + struct.pack("<Q", checksum64(data))


def unframe(data: bytes, magic: bytes, version: int, what: str) -> memoryview:
    """Check magic, version and checksum of a framed file; return a view of its body."""
    view = memoryview(data)
    if view[: len(magic)] != magic:
        raise ValidationError(f"bad magic: expected {magic!r}")
    (found,), pos = unpack_at("<I", view, len(magic))
    if found != version:
        raise ValidationError(f"unsupported {what} version {found}")
    (expected,) = struct.unpack("<Q", view[-8:])  # the header just read holds 8 bytes
    if checksum64(view[:-8]) != expected:  # hashes the view in place, no copy
        raise ValidationError("checksum mismatch")
    return view[pos:-8]


def read_file(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


class _Sealed(np.ndarray):
    """A buffer that ``read_sealed`` fills once and that nothing writes after."""


def read_sealed(path, at: int, align: int) -> memoryview:
    """The bytes of the file at ``path``, read once into a buffer of their
    own placed so that byte ``at`` starts on an ``align``-byte boundary, as
    a read-only view: no array made from it can be made writable."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        buf = _Sealed((size + align - 1,), np.uint8)
        start = -(buf.__array_interface__["data"][0] + at) % align
        view = memoryview(buf)[start:start + size]
        return view[: f.readinto(view)].toreadonly()


def sealed(array: np.ndarray) -> bool:
    """Whether ``array`` views a ``read_sealed`` buffer through read-only
    arrays only: memory that no caller can write."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return isinstance(array, memoryview) and array.readonly and isinstance(array.obj, _Sealed)


def write_file(path, data: bytes) -> None:
    with open(path, "wb") as f:
        f.write(data)
