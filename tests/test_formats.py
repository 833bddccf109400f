"""The file-frame contract shared by every binary format (KTRI, KEMB, KGRA, KENC)."""

import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest

from unikw import (
    EOW_ID,
    ValidationError,
    build_exact,
    build_graph,
    build_trie,
    deserialize,
    init_params,
    load_embeddings,
    load_graph,
    load_params,
    save_embeddings,
    save_graph,
    save_params,
    serialize,
)
from unikw.fileio import checksum64, frame

from oracles import unchecked_kenc_bytes

_VECTORS = np.random.default_rng(5).normal(size=(24, 6))
_VECTORS /= np.linalg.norm(_VECTORS, axis=1, keepdims=True)
_IDS = np.arange(24)


def _write_trie(path):
    serialize(build_trie([((3, EOW_ID), 0), ((3, 4, EOW_ID), 1), ((5, EOW_ID), 2)]), path)


def _write_graph(path):
    save_graph(path, build_graph(_VECTORS, _IDS))


FORMATS = [
    pytest.param(b"KTRI", "trie", _write_trie, deserialize, id="KTRI"),
    pytest.param(
        b"KEMB", "embeddings",
        lambda path: save_embeddings(path, _VECTORS, _IDS), load_embeddings, id="KEMB",
    ),
    pytest.param(
        b"KGRA", "graph", _write_graph, lambda path: load_graph(path, _VECTORS, _IDS), id="KGRA",
    ),
    pytest.param(
        b"KENC", "checkpoint",
        lambda path: save_params(init_params(16, 4, 3, 6, 4, seed=0), path), load_params, id="KENC",
    ),
]


#: Each format's current version: every one has the SHA-256/64 footer.
VERSIONS = {b"KTRI": 4, b"KEMB": 3, b"KGRA": 5, b"KENC": 3}


@pytest.mark.parametrize("magic, what, write, read", FORMATS)
def test_footer_is_sha256_64(tmp_path, magic, what, write, read):
    path = tmp_path / "file"
    write(path)
    data = path.read_bytes()
    assert struct.unpack_from("<I", data, 4) == (VERSIONS[magic],)
    assert data[-8:] == hashlib.sha256(data[:-8]).digest()[:8]


def _corruptions(magic: bytes, what: str, data: bytes) -> dict[str, tuple[bytes, str]]:
    """Name -> (corrupted file, expected error message pattern)."""
    flipped = bytearray(data)
    flipped[len(data) // 2] ^= 0xFF
    return {
        "bad magic": (b"NOPE" + data[4:], "bad magic"),
        "version 1": (frame(magic, 1, data[8:-8]), f"unsupported {what} version 1"),
        # A version-1 file carries a footer of another checksum: the version wins.
        "version 1, other footer": (
            data[:4] + struct.pack("<I", 1) + data[8:], f"unsupported {what} version 1"
        ),
        "truncated": (data[: len(data) // 2], "checksum|truncated"),
        "flipped byte": (bytes(flipped), "checksum mismatch"),
    }


@pytest.mark.parametrize(
    "case", ["bad magic", "version 1", "version 1, other footer", "truncated", "flipped byte"]
)
@pytest.mark.parametrize("magic, what, write, read", FORMATS)
def test_frame_rejects(tmp_path, magic, what, write, read, case):
    path = tmp_path / "file"
    write(path)
    data = path.read_bytes()
    assert data[:4] == magic
    read(path)  # the untouched file loads

    corrupt, message = _corruptions(magic, what, data)[case]
    path.write_bytes(corrupt)
    with pytest.raises(ValidationError, match=message):
        read(path)


@pytest.mark.parametrize("magic, what, write, read", FORMATS)
def test_trailing_body_byte_rejected(tmp_path, magic, what, write, read):
    # A byte past the last array, under a checksum that still holds.
    path = tmp_path / "file"
    write(path)
    data = path.read_bytes()
    (version,) = struct.unpack_from("<I", data, 4)
    path.write_bytes(frame(magic, version, data[8:-8] + b"\0"))
    with pytest.raises(ValidationError, match=f"^corrupt {what}( file)?: trailing bytes$"):
        read(path)


def test_kgra_format_pinned(tmp_path):
    """KGRA, byte by byte: magic, u32 version 5, a ``<QQ`` header (rows,
    entry row), ``n + 1`` i64 offsets, the i32 neighbour rows and the
    checksum footer of every byte before it."""
    index = replace(build_exact(_VECTORS[:3], _IDS[:3]), offsets=np.array([0, 2, 3, 4]),
                    neighbors=np.array([1, 2, 0, 1], dtype=np.int32), entry=2)
    save_graph(tmp_path / "g.kgra", index)
    head = b"".join((b"KGRA", struct.pack("<I", 5), struct.pack("<QQ", 3, 2),
                     struct.pack("<4q", 0, 2, 3, 4), struct.pack("<4i", 1, 2, 0, 1)))
    assert (tmp_path / "g.kgra").read_bytes() == head + struct.pack("<Q", checksum64(head))
    back = load_graph(tmp_path / "g.kgra", _VECTORS[:3], _IDS[:3])
    assert (back.offsets.tolist(), back.neighbors.tolist()) == ([0, 2, 3, 4], [1, 2, 0, 1])
    assert back.entry == 2


def graph_version_2(data: bytes) -> bytes:
    """A current KGRA file rewritten as version 2, in that version's layout:
    its ``<QIIdQ`` header held max_degree, build_width and prune_slack."""
    n, entry = struct.unpack_from("<QQ", data, 8)
    header = struct.pack("<QIIdQ", n, 32, 64, 1.2, entry)
    return frame(b"KGRA", 2, header + data[8 + struct.calcsize("<QQ"):-8])


def graph_version_4(data: bytes) -> bytes:
    """A current KGRA file rewritten as version 4, in that version's layout:
    its ``<QIQ`` header held max_degree."""
    n, entry = struct.unpack_from("<QQ", data, 8)
    header = struct.pack("<QIQ", n, 32, entry)
    return frame(b"KGRA", 4, header + data[8 + struct.calcsize("<QQ"):-8])


@pytest.mark.parametrize("version, rewrite", [(2, graph_version_2), (4, graph_version_4)])
def test_old_graph_version_rejected(tmp_path, version, rewrite):
    path = tmp_path / "g.kgra"
    _write_graph(path)
    path.write_bytes(rewrite(path.read_bytes()))
    with pytest.raises(ValidationError, match=f"unsupported graph version {version}"):
        load_graph(path, _VECTORS, _IDS)


def test_duplicate_ids_rejected_by_graph_load_and_exact_build(tmp_path):
    path = tmp_path / "graph"
    _write_graph(path)
    ids = _IDS[::-1].copy()
    ids[3] = ids[20]  # neighbours neither in file order nor in id order
    with pytest.raises(ValidationError, match="duplicate ids"):
        load_graph(path, _VECTORS, ids)
    with pytest.raises(ValidationError, match="duplicate ids"):
        build_exact(_VECTORS, ids)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_with_non_finite_weight_rejected(tmp_path, bad):
    params = init_params(16, 4, 3, 6, 4, seed=0)
    params.hidden_w[2, 1] = bad
    (tmp_path / "encoder.kenc").write_bytes(unchecked_kenc_bytes(params))
    with pytest.raises(ValidationError, match="hidden_w holds a non-finite weight"):
        load_params(tmp_path / "encoder.kenc")
