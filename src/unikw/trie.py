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

Directions.  A forward trie stores each keyword's token path as-is,
ending with the EOW sentinel.  A reversed trie partitions keywords by
total length m at the root (the level-0 edge label *is* m) and stores the
fully reversed path beneath it: EOW first, then content tokens right to
left.  The length partition lets a right-to-left decoder know which
absolute position each depth corresponds to.

Serialization.  One ``fileio`` frame (magic ``KTRI``, version u32 = 2,
body, BLAKE2b-64 footer) whose little-endian body is: vocab checksum u64,
node count u64, direction u8, terminal count u64; then per-node degrees
as varints, per-node delta-encoded edge labels, sorted delta-encoded
terminal node ids with their keyword ids.  The byte stream is a pure
function of the trie contents.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .corpus import EOW_ID, TokenSeq
from .errors import ValidationError
from .fileio import frame, read_file, read_uvarint, unframe, unpack_at, write_file, write_uvarint

FORWARD = "forward"
REVERSED = "reversed"

_MAGIC = b"KTRI"
_VERSION = 2


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
    def edge_count(self) -> int:
        return len(self.labels)

    @property
    def keyword_count(self) -> int:
        return int(np.count_nonzero(self.node_keyword >= 0))

    @property
    def term_nodes(self) -> np.ndarray:  # sorted nodes that complete a keyword
        return np.flatnonzero(self.node_keyword >= 0)

    @property
    def term_ids(self) -> np.ndarray:  # keyword id per entry of term_nodes
        return self.node_keyword[self.term_nodes]


def _keyword_path(tokens: TokenSeq, direction: str) -> tuple[int, ...]:
    if direction == FORWARD:
        return tuple(tokens)
    return (len(tokens),) + tuple(reversed(tokens))


def build_trie(keywords, direction: str = FORWARD, vocab_checksum: int = 0) -> KeywordTrie:
    """Build from an iterable of ``(token_seq, keyword_id)``.

    Every sequence must end with exactly one EOW; ids must be unique; and
    two entries may not share one token sequence (the catalog has to be
    deduplicated before tokenization).
    """
    if direction not in (FORWARD, REVERSED):
        raise ValidationError(f"unknown trie direction: {direction!r}")

    children: list[dict[int, int]] = [{}]
    terminal: dict[int, int] = {}
    seen_ids: set[int] = set()
    for tokens, keyword_id in keywords:
        tokens = tuple(tokens)
        if not tokens or tokens[-1] != EOW_ID or tokens.count(EOW_ID) != 1:
            raise ValidationError(
                f"keyword {keyword_id}: token sequence must end with a single EOW"
            )
        if keyword_id < 0:
            raise ValidationError(f"keyword id {keyword_id} is negative")
        if keyword_id in seen_ids:
            raise ValidationError(f"duplicate keyword id {keyword_id}")
        seen_ids.add(keyword_id)
        node = 0
        for label in _keyword_path(tokens, direction):
            nxt = children[node].get(label)
            if nxt is None:
                nxt = len(children)
                children.append({})
                children[node][label] = nxt
            node = nxt
        if node in terminal:
            raise ValidationError(
                f"duplicate keyword token sequence (ids {terminal[node]} and {keyword_id})"
            )
        terminal[node] = keyword_id

    # BFS renumber with per-node children sorted by label: the result is
    # independent of insertion order.
    n = len(children)
    offsets = np.zeros(n + 1, dtype=np.int64)
    labels = np.zeros(max(n - 1, 0), dtype=np.int32)
    remap = np.zeros(n, dtype=np.int64)
    order = [0]
    edge = 0
    for new_id, old in enumerate(order):
        remap[old] = new_id
        offsets[new_id] = edge
        for label in sorted(children[old]):
            labels[edge] = label
            edge += 1
            order.append(children[old][label])
    offsets[n] = edge

    node_keyword = np.full(n, -1, dtype=np.int64)
    node_keyword[remap[list(terminal)]] = list(terminal.values())
    return KeywordTrie(
        offsets=offsets,
        labels=labels,
        node_keyword=node_keyword,
        direction=direction,
        vocab_checksum=vocab_checksum,
    )


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
    """Keyword id of an exact (forward-order, EOW-terminated) token sequence.

    Works on both directions: for reversed tries the matching length
    partition and reversed path are consulted internally.
    """
    tokens = tuple(tokens)
    if not tokens or tokens[-1] != EOW_ID:
        raise ValidationError("lookup requires an EOW-terminated token sequence")
    node = walk(trie, _keyword_path(tokens, trie.direction))
    if node is None:
        return None
    return terminal_id(trie, node)


def length_partitions(trie: KeywordTrie) -> list[tuple[int, int]]:
    """Reversed tries only: sorted ``(keyword length, partition root node)``."""
    if trie.direction != REVERSED:
        raise ValidationError("length partitions exist only on reversed tries")
    return children(trie, 0)


def to_bytes(trie: KeywordTrie) -> bytes:
    """Deterministic binary serialization (see module docstring)."""
    direction_flag = 0 if trie.direction == FORWARD else 1
    buf = bytearray(
        struct.pack("<QQBQ", trie.vocab_checksum, trie.node_count, direction_flag, trie.keyword_count)
    )

    offsets = trie.offsets
    labels = trie.labels
    for i in range(trie.node_count):
        write_uvarint(buf, int(offsets[i + 1] - offsets[i]))
    for i in range(trie.node_count):
        prev = 0
        for e in range(int(offsets[i]), int(offsets[i + 1])):
            label = int(labels[e])
            write_uvarint(buf, label - prev)  # strictly increasing per node
            prev = label
    prev = 0
    for node, kid in zip(trie.term_nodes, trie.term_ids):
        write_uvarint(buf, int(node) - prev)
        write_uvarint(buf, int(kid))
        prev = int(node)
    return frame(_MAGIC, _VERSION, buf)


def from_bytes(data: bytes) -> KeywordTrie:
    payload = unframe(data, _MAGIC, _VERSION, "trie")
    (vocab_checksum, node_count, direction_flag, term_count), pos = unpack_at("<QQBQ", payload, 0)

    degrees = np.zeros(node_count, dtype=np.int64)
    for i in range(node_count):
        degrees[i], pos = read_uvarint(payload, pos)
    offsets = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    edge_count = int(offsets[-1])
    if edge_count != node_count - 1 and node_count > 0:
        raise ValidationError("corrupt trie: edge count does not match node count")

    labels = np.zeros(edge_count, dtype=np.int32)
    e = 0
    for i in range(node_count):
        prev = 0
        for _ in range(int(degrees[i])):
            delta, pos = read_uvarint(payload, pos)
            prev += delta
            labels[e] = prev
            e += 1

    node_keyword = np.full(node_count, -1, dtype=np.int64)
    node = 0
    for _ in range(term_count):
        delta, pos = read_uvarint(payload, pos)
        node += delta
        if delta == 0 or node >= node_count:
            raise ValidationError("corrupt trie: terminal nodes out of order or range")
        node_keyword[node], pos = read_uvarint(payload, pos)
    if pos != len(payload):
        raise ValidationError("corrupt trie: trailing bytes after terminals")

    return KeywordTrie(
        offsets=offsets,
        labels=labels,
        node_keyword=node_keyword,
        direction=FORWARD if direction_flag == 0 else REVERSED,
        vocab_checksum=vocab_checksum,
    )


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
        "edges": trie.edge_count,
        "serialized_bytes": serialized_bytes,
        "bytes_per_keyword": serialized_bytes / count if count else None,
    }
