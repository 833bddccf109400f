"""Binary file plumbing: the checksummed file frame, safe reads, and the
read-only views (``read_only``, ``read_sealed``) the served parts hold.

Every binary format in this package (KTRI, KENC, KEMB, KGRA) is one
frame: a 4-byte magic, a little-endian u32 version, the format's body,
and a u64 footer holding SHA-256/64 (the first 8 bytes of the SHA-256
digest) of every byte before it.  ``frame`` writes it and ``unframe``
reads it, checking magic, then version, then checksum, so an old file
reports its version rather than a checksum mismatch.  ``hashlib`` takes
SHA-256 from OpenSSL, which runs it on the CPU's SHA instructions where
there are any (``sha_ni`` on x86, the SHA2 extension on ARMv8) and in
software elsewhere.  Each body holds fixed-width little-endian arrays
that its reader views with ``np.frombuffer``.
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
