"""Binary file plumbing: the checksummed file frame, LEB128 varints, safe reads.

Every binary format in this package (KTRI, KENC, KEMB, KGRA) is one
frame: a 4-byte magic, a little-endian u32 version, the format's body,
and a u64 footer holding the BLAKE2b-64 digest of every byte before it.
``frame`` writes it and ``unframe`` reads it, checking magic, then
version, then checksum, so an old file reports its version rather than a
checksum mismatch.  Varints are written and read as whole arrays
(``encode_uvarints``, ``decode_uvarints``).
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .errors import ValidationError


def checksum64(data: bytes) -> int:
    """BLAKE2b with an 8-byte digest, as a little-endian u64."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


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


def decode_uvarints(data, outs) -> None:
    """Fill the int64 arrays ``outs``, in order, with the LEB128 varints that
    make up ``data`` exactly; a varint of over nine bytes (63 bits) is an error.
    Only multi-byte varints get int64 temporaries, one pass per byte position."""
    raw = np.frombuffer(data, dtype=np.uint8)
    last = raw < 0x80
    bounds = np.cumsum([0] + [len(out) for out in outs])
    found, count = np.count_nonzero(last), bounds[-1]
    if found < count:
        raise ValidationError("truncated file: varint runs past end of data")
    if found > count or (raw.size and not last[-1]):
        raise ValidationError("corrupt file: trailing bytes after the last varint")
    follows = np.concatenate(([False], ~last))[:-1]  # the byte before continues into this one
    at = np.flatnonzero(last & follows) - 1  # each multi-byte varint's last continuation byte
    multi = np.flatnonzero(follows[last])  # and its index among the varints
    tops = raw[last]
    values = tops[multi].astype(np.int64)
    rows = np.arange(len(multi))
    for _ in range(8):  # raw[-1] ends a varint, so raw[at - 1] is safe at 0
        values[rows] = values[rows] << 7 | raw[at] & 0x7F
        more = raw[at - 1] >= 0x80
        rows, at = rows[more], at[more] - 1
    if rows.size:
        raise ValidationError("varint too long")
    for out, start, end in zip(outs, bounds, bounds[1:]):
        out[:] = tops[start:end]
        lo, hi = np.searchsorted(multi, (start, end))
        out[multi[lo:hi] - start] = values[lo:hi]


def take(data: bytes, pos: int, count: int) -> tuple[bytes, int]:
    """Slice ``count`` bytes at ``pos``, raising on truncation."""
    end = pos + count
    if end > len(data):
        raise ValidationError("truncated file: unexpected end of data")
    return data[pos:end], end


def unpack_at(fmt: str, data: bytes, pos: int) -> tuple[tuple, int]:
    """``struct.unpack`` at ``pos`` with truncation checking."""
    size = struct.calcsize(fmt)
    raw, pos = take(data, pos, size)
    return struct.unpack(fmt, raw), pos


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


def write_file(path, data: bytes) -> None:
    with open(path, "wb") as f:
        f.write(data)
