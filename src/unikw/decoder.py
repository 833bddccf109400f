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
the best ``beam_size`` of the rest with one stable ``np.lexsort`` on
(-score, parent prefix rank, label).  The rank is the dense lexicographic
rank of each frontier prefix, so this is a stable (-score, prefix) sort;
equal prefixes (across reversed partitions) keep their beam order.  Node
ids cannot stand in for the rank: the reversed trie numbers partitions
first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .corpus import TokenSeq
from .errors import ConsistencyError, ValidationError
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
    beam_size: int = 100
    prune_threshold: float = NEG_INF
    orders: tuple[str, ...] = (LEFT_TO_RIGHT, RIGHT_TO_LEFT)

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValidationError("beam_size must be >= 1")
        if not self.orders:
            raise ValidationError("at least one decoding order is required")
        for order in self.orders:
            if order not in _ORDER_DIRECTION:
                raise ValidationError(f"unknown decoding order: {order!r}")


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
    offsets, labels = trie.offsets, trie.labels

    # Frontier in beam order; partition selection is structural, not scored.
    if trie.direction == FORWARD:
        node, row, row_step = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), 1
    else:
        parts = np.array(length_partitions(trie), dtype=np.int64).reshape(-1, 2)
        parts = parts[parts[:, 0] <= max_len]
        node, row, row_step = parts[:, 1], parts[:, 0] - 1, -1
    score = np.zeros(len(node))
    rank = np.zeros(len(node), dtype=np.int64)
    done_ids, done_scores = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]

    while len(node):
        fits = (row >= 0) & (row < max_len)
        node, score, row, rank = node[fits], score[fits], row[fits], rank[fits]
        # Every edge of the frontier, parent by parent in beam order.
        degree = offsets[node + 1] - offsets[node]
        parent = np.repeat(np.arange(len(node)), degree)
        edge = np.repeat(offsets[node] - np.cumsum(degree) + degree, degree) + np.arange(len(parent))
        label = labels[edge]
        in_vocab = label < vocab_size
        parent, edge, label = parent[in_vocab], edge[in_vocab], label[in_vocab]
        logprob = prob_table[row[parent], label].astype(np.float64)
        keep = ~(logprob < config.prune_threshold)  # early pruning on the single-token bound
        parent, label = parent[keep], label[keep]
        child, child_score = edge[keep] + 1, score[parent] + logprob[keep]

        keyword = trie.node_keyword[child]
        done = keyword >= 0
        done_ids.append(keyword[done])
        done_scores.append(child_score[done])

        # The best incomplete prefixes by (-score, prefix); see "Frontier step".
        live = np.flatnonzero(~done)
        live = live[np.lexsort((label[live], rank[parent[live]], -child_score[live]))]
        live = live[: config.beam_size]
        parent, label = parent[live], label[live]
        _, rank = np.unique(rank[parent] * vocab_size + label, return_inverse=True)
        node, score, row = child[live], child_score[live], row[parent] + row_step

    ids, scores = np.concatenate(done_ids), np.concatenate(done_scores)
    best = np.lexsort((ids, -scores))[: config.beam_size]
    return list(zip(ids[best].tolist(), scores[best].tolist()))


def permutation_decode(
    prob_table: np.ndarray,
    forward_trie: KeywordTrie,
    reversed_trie: KeywordTrie,
    config: DecodeConfig,
) -> list[tuple[int, float]]:
    """Beam search per configured order, union by keyword id, rank by score.

    A keyword reached by several orders must score identically (the sum of
    the same table entries); any larger disagreement means the two tries
    were not built over the same catalog and raises ConsistencyError.
    """
    tries = {FORWARD: forward_trie, REVERSED: reversed_trie}
    for direction, trie in tries.items():
        if trie is not None and trie.direction != direction:
            raise ValidationError(f"{direction} trie has direction {trie.direction}")

    merged: dict[int, float] = {}
    for order in config.orders:
        trie = tries[_ORDER_DIRECTION[order]]
        if trie is None:
            raise ValidationError(f"order {order!r} requested but its trie is missing")
        for keyword_id, score in beam_search(
            prob_table, trie, replace(config, orders=(order,))
        ):
            if keyword_id in merged:
                if abs(merged[keyword_id] - score) > SCORE_AGREEMENT_TOL:
                    raise ConsistencyError(
                        f"keyword {keyword_id} scored {merged[keyword_id]!r} and "
                        f"{score!r} under different orders"
                    )
            else:
                merged[keyword_id] = score

    ranked = sorted(merged.items(), key=lambda item: (-item[1], item[0]))
    return ranked[: config.beam_size]
