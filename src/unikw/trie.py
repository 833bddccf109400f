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
node, -1 where no keyword ends, so ``terminal_id`` is a single index.
``build_trie_arrays`` sorts the padded keyword paths; each adds the nodes
past its longest common prefix with the one before, numbered in BFS order.
It reads the keywords as one flat token array plus lengths;
``build_trie`` flattens a list of ``(token_seq, keyword_id)`` entries
into that form.

Directions.  A forward trie stores each keyword's token path as-is,
ending with the EOW sentinel.  A reversed trie partitions keywords by
total length m at the root (the level-0 edge label *is* m) and stores the
fully reversed path beneath it: EOW first, then content tokens right to
left.  The length partition lets a right-to-left decoder know which
absolute position each depth corresponds to.

Serialization.  One ``fileio`` frame (magic ``KTRI``, version u32 = 2,
body, BLAKE2b-64 footer) whose little-endian body is: vocab checksum u64,
node count u64, direction u8, terminal count u64; then one stream of
LEB128 varints: per-node degrees, per-node delta-encoded edge labels,
sorted delta-encoded terminal node ids each followed by its keyword id.
Each direction is one ``fileio`` array call; the bytes are a pure
function of the trie contents.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .corpus import EOW_ID, TokenSeq
from .errors import ValidationError
from .fileio import decode_uvarints, encode_uvarints, frame, read_file, unframe, unpack_at, write_file

FORWARD = "forward"
REVERSED = "reversed"

_MAGIC = b"KTRI"
_VERSION = 2
_MAX_LABEL = 2**31 - 1  # labels are int32


@dataclass(frozen=True)
class KeywordTrie:
    """Read-only trie; safe for concurrent readers after construction."""

    offsets: np.ndarray       # int64 (n+1,); edges of node i at offsets[i]:offsets[i+1]
    labels: np.ndarray        # int32 (n-1,); edge e leads to node e+1
    node_keyword: np.ndarray  # int64 (n,); keyword id completed at each node, -1 if none
    direction: str
    vocab_checksum: int

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
    def term_ids(self) -> np.ndarray:  # keyword id per entry of term_nodes
        return self.node_keyword[self.term_nodes]


def build_trie(keywords, direction: str = FORWARD, vocab_checksum: int = 0) -> KeywordTrie:
    """Build from an iterable of ``(token_seq, keyword_id)``: the entries
    flattened for :func:`build_trie_arrays`, which states the rules."""
    entries = list(keywords)
    seqs, ids = zip(*entries) if entries else ((), ())
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    tokens = np.fromiter(chain.from_iterable(seqs), dtype=np.int64, count=int(lengths.sum()))
    ids = np.fromiter(ids, dtype=np.int64, count=len(ids))
    return build_trie_arrays(tokens, lengths, ids, direction, vocab_checksum)


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
    if direction not in (FORWARD, REVERSED):
        raise ValidationError(f"unknown trie direction: {direction!r}")
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
    if ids.size and ids.min() < 0:
        raise ValidationError(f"keyword id {ids.min()} is negative")
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
    if labels.size and (labels.min() < 0 or labels.max() > _MAX_LABEL):
        raise ValidationError("token id out of the int32 label range")
    n = 1 + len(labels)
    offsets = np.concatenate(([0], np.cumsum(np.bincount(parent.T[new.T], minlength=n))))
    node_keyword = np.full(n, -1, dtype=np.int64)
    node_keyword[node[np.arange(len(ids)), depth - 1]] = ids
    return KeywordTrie(offsets, labels.astype(np.int32), node_keyword, direction, vocab_checksum)


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


def to_bytes(trie: KeywordTrie) -> bytes:
    """Deterministic binary serialization (see module docstring)."""
    flag = int(trie.direction == REVERSED)
    header = struct.pack("<QQBQ", trie.vocab_checksum, trie.node_count, flag, trie.keyword_count)
    degrees = np.diff(trie.offsets)
    deltas = np.diff(trie.labels, prepend=0)
    firsts = trie.offsets[:-1][degrees > 0]
    deltas[firsts] = trie.labels[firsts]  # each node's labels count up from 0
    terminals = np.stack([np.diff(trie.term_nodes, prepend=0), trie.term_ids], axis=1)
    body = encode_uvarints(np.concatenate([degrees, deltas, terminals.ravel()]))
    return frame(_MAGIC, _VERSION, header + body)


def from_bytes(data: bytes) -> KeywordTrie:
    payload = unframe(data, _MAGIC, _VERSION, "trie")
    (vocab_checksum, n, flag, term_count), pos = unpack_at("<QQBQ", payload, 0)
    # Degrees, label deltas and terminal pairs take one byte each at least.
    if flag > 1 or n == 0 or 2 * n - 1 + 2 * term_count > len(payload) - pos:
        raise ValidationError(f"corrupt trie header: flag {flag}, {n} nodes, {term_count} terminals")
    # Kept arrays first, so the temporaries sit above them in the heap (peak
    # RSS).  An int64 sum that wraps turns negative; the range checks see it.
    offsets = np.zeros(n + 1, dtype=np.int64)
    labels = np.empty(n - 1, dtype=np.int32)
    node_keyword = np.full(n, -1, dtype=np.int64)
    deltas = np.empty(n - 1, dtype=np.int64)
    terminals = np.empty(2 * term_count, dtype=np.int64)
    decode_uvarints(payload[pos:], (offsets[1:], deltas, terminals))
    inner = offsets[1:] > 0
    np.cumsum(offsets[1:], out=offsets[1:])
    if offsets[-1] != n - 1 or offsets.min() < 0:
        raise ValidationError("corrupt trie: edge count does not match node count")

    firsts = offsets[:-1][inner]  # each inner node's first edge
    rising = deltas > 0
    rising[firsts] = True  # a first label may be 0
    deltas[firsts[1:]] -= np.add.reduceat(deltas, firsts)[:-1]  # restart the sum per node
    np.cumsum(deltas, out=deltas)
    if not rising.all() or (deltas.size and (deltas.min() < 0 or deltas.max() > _MAX_LABEL)):
        raise ValidationError("corrupt trie: edge labels not increasing or out of int32 range")
    labels[:] = deltas

    nodes = np.cumsum(terminals[0::2])
    if term_count and (terminals[0::2].min() < 1 or nodes.min() < 1 or nodes[-1] >= n):
        raise ValidationError("corrupt trie: terminal nodes out of order or range")
    node_keyword[nodes] = terminals[1::2]
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
