"""Trie-constrained beam search over a per-position log-probability table.

The generative head emits all position distributions in one pass (an M x V
table of log-probabilities).  Decoding walks the keyword trie: at each
step only the children of the current prefix are legal, every other token
has probability zero.  A completed path is therefore always a catalog
keyword, and its score is the plain sum of the consumed positions'
log-probabilities.

Orders.  Summation commutes, so the same keyword scores identically no
matter the order its positions are consumed in.  Left-to-right decoding
uses the forward trie and consumes row t at depth t.  Right-to-left
decoding uses the reversed trie: a hypothesis inside the length-m
partition at scored depth j consumes row m-1-j (0-based), i.e. the same
absolute positions in the opposite order.  Running both orders and
ranking the union by score surfaces keywords whose best tokens sit at
different ends.

Pruning.  A finite ``prune_threshold`` drops any expansion whose single
token log-probability falls below it, shrinking the beam early without
changing surviving scores.

Frontier step.  One loop serves both orders over four arrays: trie node,
score, next table row and prefix rank.  Left to right starts at the root
on row 0 (row step +1); right to left starts at every partition root with
m <= M on row m-1 (row step -1).  A step gathers every frontier edge from
the CSR offsets, adds ``prob_table[row, label]``, drops labels outside the
table and pruned tokens, moves completed keywords to the results and keeps
the best ``beam_size`` (B) of the rest by a stable (-score, parent prefix
rank, label) order.  The cut costs about what it keeps, not the thousands
of edges a wide beam gathers: ``np.partition`` finds the B-th best score,
the edges scoring at least that survive (every tie at the cut included),
and one ``np.lexsort`` orders only those survivors.  An edge below the
B-th score could never reach the first B of the full sort, because -score
is its primary key, so the beam is that of a sort over every edge.  The
completed keywords are cut the same way before the final (-score, id)
sort.  A frontier prefix's rank is the number of beam prefixes that sort
before it lexicographically (one ``np.searchsorted`` into their sorted
keys), so the order is a stable (-score, prefix) sort; equal prefixes
(across reversed partitions) share a rank and keep their beam order.
Node ids cannot stand in for the rank: the reversed trie numbers
partitions first.  The partition has no place for NaN, so a table
holding NaN (or +inf, which meets -inf on a path as NaN) is rejected;
-inf entries are ordinary scores.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from operator import sub

import numpy as np

from .corpus import TokenSeq
from .errors import ConsistencyError, ValidationError, check_integer
from .trie import FORWARD, REVERSED, KeywordTrie, length_partitions, step, walk
from .trie import terminal_id  # noqa: F401  kept so perfbench/tracing.py can patch it here

NEG_INF = float("-inf")

LEFT_TO_RIGHT = "l2r"
RIGHT_TO_LEFT = "r2l"

_ORDER_DIRECTION = {LEFT_TO_RIGHT: FORWARD, RIGHT_TO_LEFT: REVERSED}

#: Two orders finding the same keyword must agree on its score within this.
SCORE_AGREEMENT_TOL = 1e-9


@dataclass(frozen=True)
class DecodeConfig:
    """Frozen; construction and every ``replace`` check it, ``orders`` held as a tuple."""

    beam_size: int = 100
    prune_threshold: float = NEG_INF
    orders: tuple[str, ...] = (LEFT_TO_RIGHT, RIGHT_TO_LEFT)

    def __post_init__(self):
        check_integer("beam_size", self.beam_size, 1)
        object.__setattr__(self, "orders", tuple(self.orders))
        if np.isnan(self.prune_threshold):
            raise ValidationError("prune_threshold must be a number, not NaN")
        if not self.orders:
            raise ValidationError("at least one decoding order is required")
        for order in self.orders:
            if order not in _ORDER_DIRECTION:
                raise ValidationError(f"unknown decoding order: {order!r}")
        if len(set(self.orders)) != len(self.orders):
            raise ValidationError(f"repeated decoding order in {','.join(self.orders)}")

    @cached_property
    def _singles(self) -> tuple[DecodeConfig, ...]:
        """The single-order config of each order, which ``permutation_decode``
        hands to ``beam_search``: made once, on the first decode."""
        return tuple(replace(self, orders=(order,)) for order in self.orders)


def constrained_logprob(
    prob_table: np.ndarray, trie: KeywordTrie, prefix: TokenSeq, token: int
) -> float:
    """Log-probability of ``token`` after ``prefix`` under the trie mask.

    Returns the raw table entry when the token is a child of the prefix's
    node, and -inf otherwise (the masked, unnormalized next-token
    distribution of trie-guided decoding).
    """
    if trie.direction != FORWARD:
        raise ValidationError("constrained_logprob expects a forward trie")
    max_len = prob_table.shape[0]
    if len(prefix) >= max_len:
        raise ValidationError(
            f"prefix length {len(prefix)} leaves no table row (max {max_len})"
        )
    node = walk(trie, prefix)
    if node is None:
        raise ValidationError("prefix is not a valid path in the trie")
    if step(trie, node, token) is None:
        return NEG_INF
    return float(prob_table[len(prefix), token])


def beam_search(
    prob_table: np.ndarray, trie: KeywordTrie, config: DecodeConfig
) -> list[tuple[int, float]]:
    """Single-order beam search; up to ``beam_size`` completed keywords.

    Completed keywords leave the beam at once, so it always holds the best
    incomplete prefixes.  Results are sorted by cumulative log-probability,
    ties broken by smaller keyword id.  Scores carry no length
    normalization: the EOW position already prices sequence length.
    """
    if len(config.orders) != 1:
        raise ValidationError("beam_search takes a config with exactly one order")
    order = config.orders[0]
    if _ORDER_DIRECTION[order] != trie.direction:
        raise ValidationError(
            f"order {order!r} requires a {_ORDER_DIRECTION[order]} trie, "
            f"got {trie.direction}"
        )
    max_len, vocab_size = prob_table.shape
    if not np.all(prob_table < np.inf):
        # NaN would poison the partition at the beam cut, and +inf turns
        # into NaN beside a -inf entry on the same path.
        raise ValidationError("prob_table entries must be finite or -inf (no NaN, no +inf)")
    offsets, labels = trie.offsets, trie.labels
    cells = np.asarray(prob_table, dtype=np.float64).ravel()
    prunes = config.prune_threshold > NEG_INF

    # Frontier in beam order; partition selection is structural, not scored.
    if trie.direction == FORWARD:
        node, row, row_step = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), 1
    else:
        parts = np.array(length_partitions(trie), dtype=np.int64).reshape(-1, 2)
        parts = parts[parts[:, 0] <= max_len]
        node, row, row_step = parts[:, 1], parts[:, 0] - 1, -1
    score = np.zeros(len(node))
    rank = np.zeros(len(node), dtype=np.int64)
    done_ids, done_scores = [np.zeros(0, dtype=trie.node_keyword.dtype)], [np.zeros(0)]

    while len(node):
        fits = (row >= 0) & (row < max_len)
        node, score, row, rank = node[fits], score[fits], row[fits], rank[fits]
        # Every edge of the frontier, parent by parent in beam order.
        start = offsets[node].astype(np.intp)  # int32 offsets would make each step's sums mixed
        degree = offsets[node + 1] - start
        parent = np.repeat(np.arange(len(node)), degree)
        edge = np.repeat(start - np.cumsum(degree) + degree, degree) + np.arange(len(parent))
        label = labels[edge]
        if len(label) and label.max() >= vocab_size:
            in_vocab = label < vocab_size
            parent, edge, label = parent[in_vocab], edge[in_vocab], label[in_vocab]
        logprob = cells[row[parent] * vocab_size + label]
        if prunes:  # early pruning on the single-token bound
            keep = ~(logprob < config.prune_threshold)
            parent, edge, label, logprob = parent[keep], edge[keep], label[keep], logprob[keep]
        child, child_score = edge + 1, score[parent] + logprob

        keyword = trie.node_keyword[child]
        done = keyword >= 0
        done_ids.append(keyword[done])
        done_scores.append(child_score[done])

        # The best incomplete prefixes by (-score, prefix); see "Frontier step".
        live = _best_scores(np.flatnonzero(~done), child_score, config.beam_size)
        live = live[np.lexsort((label[live], rank[parent[live]], -child_score[live]))]
        live = live[: config.beam_size]
        parent, label = parent[live], label[live]
        prefix = rank[parent] * vocab_size + label
        rank = np.searchsorted(np.sort(prefix), prefix)  # equal prefixes share a rank
        node, score, row = child[live], child_score[live], row[parent] + row_step

    ids, scores = np.concatenate(done_ids), np.concatenate(done_scores)
    best = _best_scores(np.arange(len(ids)), scores, config.beam_size)
    best = best[np.lexsort((ids[best], -scores[best]))][: config.beam_size]
    return list(zip(ids[best].tolist(), scores[best].tolist()))


def _best_scores(entries: np.ndarray, scores: np.ndarray, count: int) -> np.ndarray:
    """The ``entries`` whose score is at least the ``count``-th best of
    ``scores[entries]``: every entry a (-score, ...) sort could place in
    its first ``count``, ties at the cut included, in their given order."""
    if len(entries) <= count:
        return entries
    kept = scores[entries]
    return entries[kept >= np.partition(kept, len(kept) - count)[len(kept) - count]]


def permutation_decode(
    prob_table: np.ndarray,
    forward_trie: KeywordTrie,
    reversed_trie: KeywordTrie,
    config: DecodeConfig,
) -> list[tuple[int, float]]:
    """Beam search per configured order, union by keyword id, rank by score.

    The first order's hits seed the union, and each later order's hits go
    in through one ``map`` of ``dict.setdefault``, which keeps the first
    score of a keyword and hands it back.  A keyword reached by several
    orders must score identically (the sum of the same table entries); any
    larger disagreement means the two tries were not built over the same
    catalog and raises ConsistencyError, naming the first such hit.  When
    no later order adds a keyword, the first order's list, already ranked,
    is the result; only otherwise is the union sorted.
    """
    tries = {FORWARD: forward_trie, REVERSED: reversed_trie}  # ``beam_search`` checks each
    first, *rest = [
        beam_search(prob_table, tries[_ORDER_DIRECTION[single.orders[0]]], single)
        for single in config._singles
    ]
    merged = dict(first)
    for later in filter(None, rest):
        ids, scores = zip(*later)
        kept = list(map(merged.setdefault, ids, scores))
        if any(map(SCORE_AGREEMENT_TOL.__lt__, map(abs, map(sub, kept, scores)))):
            at = next(i for i, (a, b) in enumerate(zip(kept, scores))
                      if abs(a - b) > SCORE_AGREEMENT_TOL)
            raise ConsistencyError(f"keyword {ids[at]} scored {kept[at]!r} and "
                                   f"{scores[at]!r} under different orders")
    if len(merged) == len(first):
        return first  # sorted by (-score, id), one hit per id, at most beam_size
    ranked = sorted(merged.items(), key=lambda item: (-item[1], item[0]))
    return ranked[: config.beam_size]
