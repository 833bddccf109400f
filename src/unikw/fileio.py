"""Binary file plumbing: the checksummed file frame, LEB128 varints, safe reads.

Every binary format in this package (KTRI, KENC, KEMB, KGRA) is one
frame: a 4-byte magic, a little-endian u32 version, the format's body,
and a u64 footer holding the BLAKE2b-64 digest of every byte before it.
``frame`` writes it and ``unframe`` reads it, checking magic, then
version, then checksum, so an old file reports its version rather than a
checksum mismatch.
"""

from __future__ import annotations

import hashlib
import struct

from .errors import ValidationError


def checksum64(data: bytes) -> int:
    """BLAKE2b with an 8-byte digest, as a little-endian u64."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


crc64 = checksum64  # kept only so the benchmark's tracer can find it by name


def write_uvarint(buf: bytearray, value: int) -> None:
    """Append ``value`` as an unsigned LEB128 varint."""
    if value < 0:
        raise ValidationError("varint value must be non-negative")
    while value >= 0x80:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """Decode an unsigned LEB128 varint at ``pos``; return (value, next pos)."""
    value = 0
    shift = 0
    n = len(data)
    while True:
        if pos >= n:
            raise ValidationError("truncated file: varint runs past end of data")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise ValidationError("varint too long")


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


def split_checksummed(data: bytes) -> bytes:
    """Verify and strip the checksum footer; returns a slice of ``data``'s type."""
    if len(data) < 8:
        raise ValidationError("truncated file: missing checksum footer")
    payload, footer = data[:-8], data[-8:]
    (expected,) = struct.unpack("<Q", footer)
    if checksum64(payload) != expected:
        raise ValidationError("checksum mismatch")
    return payload


def append_checksum(buf: bytearray) -> bytes:
    """Append the checksum footer and return immutable bytes."""
    buf += struct.pack("<Q", checksum64(buf))
    return bytes(buf)


def frame(magic: bytes, version: int, body: bytes) -> bytes:
    """One file: ``magic``, u32 ``version``, ``body``, checksum footer."""
    buf = bytearray(magic)
    buf += struct.pack("<I", version)
    buf += body
    return append_checksum(buf)


def unframe(data: bytes, magic: bytes, version: int, what: str) -> memoryview:
    """Check magic, version and checksum of a framed file; return a view of its body."""
    view = memoryview(data)
    if view[: len(magic)] != magic:
        raise ValidationError(f"bad magic: expected {magic!r}")
    (found,), pos = unpack_at("<I", view, len(magic))
    if found != version:
        raise ValidationError(f"unsupported {what} version {found}")
    return split_checksummed(view)[pos:]


def read_file(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def write_file(path, data: bytes) -> None:
    with open(path, "wb") as f:
        f.write(data)
