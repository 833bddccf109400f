"""Compact immutable prefix tree over tokenized keywords.

The trie constrains generative decoding: at every step only edges leaving
the current node are legal next tokens, so every completed path is a real
catalog keyword.

Layout.  Nodes are numbered in breadth-first order with the root at 0.
Because BFS emits each node's children consecutively, the child of edge
``e`` is always node ``e + 1``; only a CSR offsets array and the edge
labels need to be stored.  Edge labels at every node are strictly
increasing, so child lookup is a binary search.  Terminals (end of a full
keyword path) live in one dense array holding the keyword id of every
node, -1 where no keyword ends, so ``terminal_id`` is a single index; the
terminals are the leaves but the root.  ``KeywordTrie`` checks this
layout whenever one is made.  ``build_trie_arrays`` sorts the padded
keyword paths; each adds the nodes past its longest common prefix with
the one before, numbered in BFS order.  It reads the keywords as one flat
token array plus lengths; ``build_trie`` flattens a list of
``(token_seq, keyword_id)`` entries into that form.

Directions.  A forward trie stores each keyword's token path as-is,
ending with the EOW sentinel.  A reversed trie partitions keywords by
total length m at the root (the level-0 edge label *is* m) and stores the
fully reversed path beneath it: EOW first, then content tokens right to
left.  The length partition lets a right-to-left decoder know which
absolute position each depth corresponds to.

Serialization.  One ``fileio`` frame (magic ``KTRI``, version u32 = 4,
body, SHA-256/64 footer) whose little-endian body numpy reads in place:
a ``<QQBQBB`` header (vocab checksum, node count n, direction, keyword
count t, label width, id width); each node's degree in unary, in BFS
order (that many 1 bits, then a 0 bit: 2n - 1 bits, packed MSB first and
padded with zeros); the n - 1 edge labels; and one keyword id per
non-root leaf, in BFS order, so no terminal node is stored.  Labels and
ids are unsigned, each array in the smallest of 1, 2, 4 and 8 bytes that
holds its maximum, so the bytes are a pure function of the trie contents.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .corpus import EOW_ID, TokenSeq, _flatten
from .errors import ValidationError
from .fileio import frame, read_file, read_only, unframe, unpack_at, write_file

FORWARD = "forward"
REVERSED = "reversed"

_MAGIC = b"KTRI"
_VERSION = 4
_HEADER = "<QQBQBB"
_WIDTHS = {1: "<u1", 2: "<u2", 4: "<u4", 8: "<u8"}  # bytes per stored label or id
_UNSIGNED = (np.uint8, np.uint16, np.uint32)  # label widths held as read
_INT32_MAX = 2**31 - 1  # also the largest label


def _narrow(values) -> np.ndarray:
    """``values`` as int32 if every one fits, else as int64; an int32 array
    is held as it is, with no pass over it."""
    array = np.asarray(values)
    if array.dtype == np.int32:
        return array
    array = array.astype(np.int64, copy=False)
    if len(array) == 0 or (array.min() >= -_INT32_MAX - 1 and array.max() <= _INT32_MAX):
        return array.astype(np.int32)
    return array


@dataclass(frozen=True)
class KeywordTrie:
    """Read-only trie, safe for concurrent readers: construction and every
    ``replace`` check the layout and hold the arrays as read-only views."""

    # Index arrays are int32, or int64 only when a value needs it (``_narrow``).
    offsets: np.ndarray       # (n+1,); edges of node i at offsets[i]:offsets[i+1]
    labels: np.ndarray        # (n-1,) int32, or as a file stored them: u1, u2 or u4;
                              # edge e leads to node e+1
    node_keyword: np.ndarray  # (n,); keyword id completed at each node, -1 if none
    direction: str
    vocab_checksum: int

    def __post_init__(self) -> None:
        if self.direction not in (FORWARD, REVERSED):
            raise ValidationError(f"unknown trie direction: {self.direction!r}")
        offsets, labels = _narrow(self.offsets), np.asarray(self.labels)
        keywords = _narrow(self.node_keyword)
        n = len(keywords)  # no int64 temporaries below: they would add to a load's peak RSS
        if ((len(offsets), len(labels)) != (n + 1, n - 1) or offsets[0] != 0
                or offsets[-1] != n - 1 or np.any(offsets[1:] < offsets[:-1])):
            raise ValidationError(f"a trie of {n} nodes has {n + 1} offsets, from 0 up to its "
                                  f"edge count, and {n - 1} edge labels")
        # BFS order: node i's edges start at edge i or later, so each node hangs off an
        # earlier one and so off the root; node numbers in the offsets' dtype, which holds n.
        if np.any(offsets[1:-1] < np.arange(1, n, dtype=offsets.dtype)):
            raise ValidationError("trie nodes must be in BFS order: a node owns an edge to "
                                  "itself or to an earlier node")
        if n > 1 and (labels.min() < 0 or labels.max() > _INT32_MAX):
            raise ValidationError("trie edge label outside the int32 label range")
        if labels.dtype not in _UNSIGNED:  # else held at the width a file stored them in
            labels = labels.astype(np.int32, copy=False)
        first = np.zeros(n, dtype=bool)  # True at each node's first edge, and past the last
        first[offsets] = True
        if not np.all((labels[1:] > labels[:-1]) | first[1:-1]):
            raise ValidationError("trie edge labels must increase within each node")
        leaf = np.append(False, offsets[2:] == offsets[1:-1])  # the root completes nothing
        if keywords.min() < -1 or not np.array_equal(keywords >= 0, leaf):
            raise ValidationError("trie terminal nodes must be leaves, not the root, and every "
                                  "other leaf a terminal; no id is negative but -1: ids >= -1")
        for name, array in (("offsets", offsets), ("labels", labels), ("node_keyword", keywords)):
            object.__setattr__(self, name, read_only(array))

    @property
    def node_count(self) -> int:
        return len(self.offsets) - 1

    @property
    def keyword_count(self) -> int:
        return int(np.count_nonzero(self.node_keyword >= 0))

    @property
    def term_nodes(self) -> np.ndarray:  # sorted nodes that complete a keyword
        return np.flatnonzero(self.node_keyword >= 0)

    @property
    def max_positions(self) -> int:
        """Table rows the longest keyword takes; a reversed trie's length edge
        takes none.  BFS puts the level after nodes lo..hi-1 at hi..offsets[hi]."""
        depth, lo, hi = -1, 0, 1
        while lo < hi:
            depth, lo, hi = depth + 1, hi, int(self.offsets[hi]) + 1
        return max(depth - (self.direction == REVERSED), 0)


def build_trie(keywords, direction: str = FORWARD, vocab_checksum: int = 0) -> KeywordTrie:
    """Build from an iterable of ``(token_seq, keyword_id)``: the entries
    flattened for :func:`build_trie_arrays`, which states the rules."""
    entries = list(keywords)
    seqs, ids = zip(*entries) if entries else ((), ())
    ids = np.fromiter(ids, dtype=np.int64, count=len(ids))
    return build_trie_arrays(*_flatten(seqs), ids, direction, vocab_checksum)


def build_trie_arrays(
    tokens, lengths, ids, direction: str = FORWARD, vocab_checksum: int = 0
) -> KeywordTrie:
    """Build from flat token ids: keyword ``ids[i]`` is the next
    ``lengths[i]`` entries of ``tokens`` (as ``corpus.tokenize_batch``
    returns them).

    Every sequence must end with exactly one EOW; ids must be unique and
    non-negative; and two entries may not share one token sequence (the
    catalog has to be deduplicated before tokenization).
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64)
    if len(ids) != len(lengths) or (lengths < 0).any() or lengths.sum() != len(tokens):
        raise ValidationError("keyword ids, lengths and tokens disagree")
    ends = np.cumsum(lengths)
    if not np.array_equal(np.flatnonzero(tokens == EOW_ID), ends - 1):
        eows = np.concatenate(([0], np.cumsum(tokens == EOW_ID)))
        last = np.append(tokens, -1)[ends - 1]  # -1 past an empty first sequence
        bad = (eows[ends] - eows[ends - lengths] != 1) | (last != EOW_ID)
        raise ValidationError(f"keyword {ids[bad][0]}: token sequence must end with a single EOW")
    ordered = np.sort(ids)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeated.size:
        raise ValidationError(f"duplicate keyword id {repeated[0]}")

    # Sorted rows of paths padded with -1.  No path is a prefix of another
    # (one EOW each, and the length leads a reversed path), so each row adds
    # the nodes past its longest common prefix (LCP) with the row above.
    reverse = direction == REVERSED
    depth = lengths + reverse
    paths = np.full((len(ids), int(depth.max(initial=1))), -1, dtype=np.int64)
    filled = np.arange(paths.shape[1] - reverse) < lengths[:, None]
    if reverse:  # (m, EOW, ..., first token): the token list backwards, rows bottom-up
        paths[:, 0] = lengths
        paths[::-1, 1:][filled[::-1]] = tokens[::-1]
    else:
        paths[filled] = tokens
    order = np.lexsort(paths.T[::-1])
    paths, depth, ids = paths[order], depth[order], ids[order]
    lcp = np.zeros(len(ids), dtype=np.int64)
    lcp[1:] = np.logical_and.accumulate(paths[1:] == paths[:-1], axis=1).sum(axis=1)
    if (lcp >= depth).any():
        i = np.argmax(lcp >= depth)
        raise ValidationError(f"duplicate keyword token sequence (ids {ids[i - 1]} and {ids[i]})")

    # BFS numbers the new cells by (depth, row); every cell's node is the
    # last one numbered above it in its column, its parent the one to its left.
    column = np.arange(paths.shape[1])
    new = (column >= lcp[:, None]) & (column < depth[:, None])
    node = np.zeros(paths.shape, dtype=np.int64)
    node.T[new.T] = np.arange(1, 1 + np.count_nonzero(new))
    node = np.maximum.accumulate(node, axis=0)
    parent = np.pad(node[:, :-1], ((0, 0), (1, 0)))
    labels = paths.T[new.T]
    n = 1 + len(labels)
    offsets = np.concatenate(([0], np.cumsum(np.bincount(parent.T[new.T], minlength=n))))
    node_keyword = np.full(n, -1, dtype=np.int64)
    node_keyword[node[np.arange(len(ids)), depth - 1]] = ids
    return KeywordTrie(offsets, labels, node_keyword, direction, vocab_checksum)


def children(trie: KeywordTrie, node: int) -> list[tuple[int, int]]:
    """Sorted ``(edge label, child node)`` pairs; empty iff ``node`` is a leaf."""
    if not 0 <= node < trie.node_count:
        raise ValidationError(f"invalid node reference: {node}")
    start, end = int(trie.offsets[node]), int(trie.offsets[node + 1])
    return [(int(trie.labels[e]), e + 1) for e in range(start, end)]


def step(trie: KeywordTrie, node: int, label: int) -> int | None:
    """Child of ``node`` along ``label``, or None. Binary search over edges."""
    start, end = int(trie.offsets[node]), int(trie.offsets[node + 1])
    e = start + int(np.searchsorted(trie.labels[start:end], label))
    if e < end and trie.labels[e] == label:
        return e + 1
    return None


def walk(trie: KeywordTrie, labels, node: int = 0) -> int | None:
    """Follow a label path from ``node``; None as soon as an edge is missing."""
    for label in labels:
        nxt = step(trie, node, label)
        if nxt is None:
            return None
        node = nxt
    return node


def terminal_id(trie: KeywordTrie, node: int) -> int | None:
    """Keyword id completed at ``node``, or None if non-terminal."""
    if not 0 <= node < trie.node_count:
        raise ValidationError(f"invalid node reference: {node}")
    keyword_id = int(trie.node_keyword[node])
    return keyword_id if keyword_id >= 0 else None


def lookup(trie: KeywordTrie, tokens: TokenSeq) -> int | None:
    """Keyword id of an exact (forward-order, EOW-terminated) token sequence,
    in either direction (a reversed trie walks its length partition)."""
    tokens = tuple(tokens)
    if not tokens or tokens[-1] != EOW_ID:
        raise ValidationError("lookup requires an EOW-terminated token sequence")
    node = walk(trie, tokens if trie.direction == FORWARD else (len(tokens),) + tokens[::-1])
    return None if node is None else terminal_id(trie, node)


def length_partitions(trie: KeywordTrie) -> list[tuple[int, int]]:
    """Reversed tries only: sorted ``(keyword length, partition root node)``."""
    if trie.direction != REVERSED:
        raise ValidationError("length partitions exist only on reversed tries")
    return children(trie, 0)


def _width(values: np.ndarray) -> int:
    """The fewest bytes, of 1, 2, 4 and 8, that hold every one of ``values`` (>= 0)."""
    top = int(values.max(initial=0))
    return next(width for width in _WIDTHS if top >> 8 * width == 0)


def to_bytes(trie: KeywordTrie) -> bytes:
    """Deterministic binary serialization (see module docstring)."""
    n = trie.node_count
    ids = trie.node_keyword[trie.node_keyword >= 0]  # the non-root leaves, in BFS order
    label_width, id_width = _width(trie.labels), _width(ids)
    flag = int(trie.direction == REVERSED)
    header = struct.pack(_HEADER, trie.vocab_checksum, n, flag, len(ids), label_width, id_width)
    bits = np.ones(2 * n - 1, dtype=bool)
    bits[trie.offsets[1:] + np.arange(n)] = False  # node i's 0 bit follows i 0s and its edges
    return frame(_MAGIC, _VERSION, b"".join((
        header, np.packbits(bits).tobytes(), trie.labels.astype(_WIDTHS[label_width]).tobytes(),
        ids.astype(_WIDTHS[id_width]).tobytes())))


def from_bytes(data: bytes) -> KeywordTrie:
    payload = unframe(data, _MAGIC, _VERSION, "trie")
    (vocab_checksum, n, flag, t, label_width, id_width), pos = unpack_at(_HEADER, payload, 0)
    if flag > 1 or n == 0 or label_width not in _WIDTHS or id_width not in _WIDTHS:
        raise ValidationError(f"corrupt trie header: flag {flag}, {n} nodes, "
                              f"label width {label_width}, id width {id_width}")
    bit_bytes = (2 * n + 6) // 8  # 2n - 1 bits, rounded up to whole bytes
    size = bit_bytes + (n - 1) * label_width + t * id_width
    if len(payload) - pos < size:
        raise ValidationError(f"truncated trie: {n} nodes and {t} keywords need {size} body "
                              f"bytes, not {len(payload) - pos}")
    if len(payload) - pos > size:
        raise ValidationError("corrupt trie: trailing bytes")
    bits = np.frombuffer(payload, np.uint8, bit_bytes, pos)
    ids = np.frombuffer(payload, _WIDTHS[id_width], t, pos + bit_bytes + (n - 1) * label_width)
    # Kept arrays first, so the temporaries sit above them in the heap (peak RSS):
    # offsets and ids int32 unless a value needs int64, as ``KeywordTrie`` holds
    # them, and the labels a copy at their stored width, so no view holds the file.
    offsets = np.zeros(n + 1, dtype=np.int32 if n - 1 <= _INT32_MAX else np.int64)
    node_keyword = np.full(n, -1, dtype=np.int32 if int(ids.max(initial=0)) <= _INT32_MAX
                           else np.int64)
    labels = np.frombuffer(payload, _WIDTHS[label_width], n - 1, pos + bit_bytes).copy()
    if bits[-1] & (0xFF >> (2 * n - 1) % 8):  # the bits past the last node
        raise ValidationError("corrupt trie: a padding bit is set")
    ends = np.flatnonzero(np.unpackbits(~bits, count=2 * n - 1))  # each node's 0 bit
    if len(ends) != n:
        raise ValidationError(f"corrupt trie: {len(ends)} degree ends for {n} nodes")
    np.subtract(ends, np.arange(n), out=offsets[1:])  # the 1 bits before each node's 0 bit
    leaves = 1 + np.flatnonzero(offsets[2:] == offsets[1:-1])
    if len(leaves) != t:
        raise ValidationError(f"corrupt trie: {t} keyword ids for {len(leaves)} leaves")
    # An id past int64 wraps negative here, and the layout check rejects it.
    node_keyword[leaves] = ids
    return KeywordTrie(offsets, labels, node_keyword, REVERSED if flag else FORWARD, vocab_checksum)


def serialize(trie: KeywordTrie, path) -> int:
    """Write the trie file; returns its size in bytes."""
    data = to_bytes(trie)
    write_file(path, data)
    return len(data)


def deserialize(path) -> KeywordTrie:
    return from_bytes(read_file(path))


def memory_stats(trie: KeywordTrie, serialized_bytes: int | None = None) -> dict:
    """Size accounting, JSON-friendly; pass ``serialize``'s result to skip re-encoding."""
    if serialized_bytes is None:
        serialized_bytes = len(to_bytes(trie))
    count = trie.keyword_count
    return {
        "nodes": trie.node_count,
        "edges": len(trie.labels),
        "serialized_bytes": serialized_bytes,
        "bytes_per_keyword": serialized_bytes / count if count else None,
    }
