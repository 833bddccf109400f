"""The file-frame contract shared by every binary format (KTRI, KEMB, KGRA, KENC)."""

import struct

import numpy as np
import pytest

from unikw import (
    EOW_ID,
    ValidationError,
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
from unikw.fileio import frame

_VECTORS = np.random.default_rng(5).normal(size=(24, 6))
_VECTORS /= np.linalg.norm(_VECTORS, axis=1, keepdims=True)
_IDS = np.arange(24)


def _write_trie(path):
    serialize(build_trie([((3, EOW_ID), 0), ((3, 4, EOW_ID), 1), ((5, EOW_ID), 2)]), path)


def _write_graph(path):
    save_graph(path, build_graph(_VECTORS, _IDS, max_degree=4, build_width=8))


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
