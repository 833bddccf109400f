"""Two-headed encoder: one forward pass yields a dense embedding and a
full per-position token log-probability table.

Architecture (desk scale, exactly differentiable):

    pooled        = mean of token embeddings            (d,)
    dense head    = l2_normalize(dense_proj @ pooled)   (d_dr,)
    position head = relu(hidden_w @ [pooled ; pos_t] + hidden_b)
    logprobs[t]   = log_softmax(out_w @ hidden_t + out_b)   for t = 0..M-1

The dense vector drives nearest-neighbor retrieval; the M x V table
drives trie-constrained decoding.  Both come out of the same single pass,
so inference cost is independent of beam size.

Training minimizes, over a batch of (query, keyword, negatives) triples,

    mean_i [ max_l sim(q_i, l) - sim(q_i, k_i) + margin ]_+
  + nlg_weight * mean_i sum_t -logprob_t[k_i,t]

where ``sim`` is the cosine of the unit dense embeddings (as in serving
and mining), the hinge takes the hardest mined negative of each pair,
and the token term sums through the EOW sentinel.
All gradients are computed analytically in float64; ``joint_loss`` is the
single source of truth checked against finite differences in the tests.

Subgradient conventions at kinks: an inactive hinge (margin <= 0)
contributes zero; ties in the hardest-negative max resolve to the first
negative; relu'(0) = 0.

Training runs on arrays.  A batch's sequences are checked and pooled once,
over one flat id array.  The token term needs the table only at the
positions each gold keyword fills, so ``joint_loss`` computes just those
rows, packed into blocks of ``max_len`` rows: every vocabulary-wide GEMM
has the shape of one sequence's table, ``(max_len x h) @ (h x V)``, however
large the batch.  Such calls are small enough for OpenBLAS to run on one
thread, and trained weights are then the same bytes at any BLAS thread
count (checked at V = 403, h = 64, max_len = 8).  One GEMM over the whole
batch would cross that size and round differently with the thread count.
The log-sum-exp is shifted by each row's max.  Negative mining ranks a
batch's keyword pool with one row-wise sort, and the balanced k-means
assigns points in at most k + 1 array passes.

Serving follows the same rule: ``encode_batch`` runs a chunk of queries
through stacked matmuls with one query per item, so each query's rows
are the bits ``encode`` gives it alone, in any chunk and at any BLAS
thread count.
"""

from __future__ import annotations

import json
import math
import struct
import threading
from dataclasses import dataclass, field, fields
from numbers import Integral, Real

import numpy as np

from .corpus import TokenSeq, Vocab, _flatten
from .errors import TrainingDiverged, ValidationError
from .fileio import frame, read_file, take, unframe, unpack_at, write_file

_MAGIC = b"KENC"
_VERSION = 2

#: Parameter tensors in canonical (checkpoint and gradient) order.
PARAM_NAMES = (
    "token_emb",
    "pos_emb",
    "dense_proj",
    "hidden_w",
    "hidden_b",
    "out_w",
    "out_b",
)


class ForwardCounter:
    """Thread-safe count of full dual-head forward passes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0

    def increment(self, passes: int = 1) -> None:
        with self._lock:
            self.count += passes


@dataclass
class EncoderParams:
    token_emb: np.ndarray   # (V, d)
    pos_emb: np.ndarray     # (M, d)
    dense_proj: np.ndarray  # (d_dr, d)
    hidden_w: np.ndarray    # (h, 2d), [token half | position half]
    hidden_b: np.ndarray    # (h,)
    out_w: np.ndarray       # (V, h)
    out_b: np.ndarray       # (V,)
    forward_counter: ForwardCounter = field(default_factory=ForwardCounter, repr=False, compare=False)

    @property
    def vocab_size(self) -> int:
        return self.token_emb.shape[0]

    @property
    def dim(self) -> int:
        return self.token_emb.shape[1]

    @property
    def dense_dim(self) -> int:
        return self.dense_proj.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.hidden_w.shape[0]

    @property
    def max_len(self) -> int:
        return self.pos_emb.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}


@dataclass(frozen=True)
class EncoderOutput:
    """Unit-norm dense embedding plus the M x V log-probability table;
    from ``encode_batch``, one of each per sequence along a leading axis."""

    dr_embedding: np.ndarray
    nar_logprobs: np.ndarray


#: Least legal value of each integer field of :class:`TrainConfig`.  A
#: keyword needs one token plus EOW, hence ``max_len`` >= 2; numpy's
#: generators take no negative seed.
_INTEGER_MINIMUMS = {
    "epochs": 1,
    "batch_size": 1,
    "cluster_count": 1,
    "negatives_per_positive": 1,
    "seed": 0,
    "dim": 1,
    "dense_dim": 1,
    "hidden_dim": 1,
    "max_len": 2,
}


@dataclass(frozen=True)
class TrainConfig:
    margin: float = 0.3
    nlg_weight: float = 1.0
    learning_rate: float = 0.5
    epochs: int = 10
    batch_size: int = 64
    cluster_count: int = 4
    negatives_per_positive: int = 2
    seed: int = 0
    momentum: float = 0.0
    dim: int = 32
    dense_dim: int = 16
    hidden_dim: int = 64
    max_len: int = 16

    def __post_init__(self):
        for name, least in _INTEGER_MINIMUMS.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
                raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
        for name in ("margin", "nlg_weight", "learning_rate", "momentum"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
                raise ValidationError(f"{name} must be a finite number, got {value!r}")
        if self.margin < 0:
            raise ValidationError("margin must be >= 0")
        if self.nlg_weight < 0:
            raise ValidationError("nlg_weight must be >= 0")
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be > 0")
        if not 0 <= self.momentum < 1:
            raise ValidationError("momentum must be in [0, 1)")

    def to_json(self) -> str:
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValidationError("train config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown train config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        with open(path, encoding="utf-8") as f:
            return cls.from_json(f.read())


def init_params(
    vocab_size: int,
    dim: int = 32,
    dense_dim: int = 16,
    hidden_dim: int = 64,
    max_len: int = 16,
    seed: int = 0,
) -> EncoderParams:
    """Seeded Gaussian initialization, scaled by fan-in."""
    rng = np.random.default_rng(seed)
    return EncoderParams(
        token_emb=rng.normal(0.0, 1.0 / np.sqrt(dim), (vocab_size, dim)),
        pos_emb=rng.normal(0.0, 1.0 / np.sqrt(dim), (max_len, dim)),
        dense_proj=rng.normal(0.0, 1.0 / np.sqrt(dim), (dense_dim, dim)),
        hidden_w=rng.normal(0.0, 1.0 / np.sqrt(2 * dim), (hidden_dim, 2 * dim)),
        hidden_b=np.zeros(hidden_dim),
        out_w=rng.normal(0.0, 1.0 / np.sqrt(hidden_dim), (vocab_size, hidden_dim)),
        out_b=np.zeros(vocab_size),
    )


def _check_tokens(params: EncoderParams, flat_ids: np.ndarray, lengths: np.ndarray) -> None:
    """Reject an empty or over-long sequence, or a token outside the vocabulary."""
    if (lengths < 1).any():
        raise ValidationError("cannot encode an empty token sequence")
    too_long = lengths > params.max_len
    if too_long.any():
        raise ValidationError(f"sequence length {lengths[too_long][0]} exceeds {params.max_len}")
    bad = (flat_ids < 0) | (flat_ids >= params.vocab_size)
    if bad.any():
        raise ValidationError(f"token id {flat_ids[bad][0]} outside vocabulary of {params.vocab_size}")


def _pool(token_emb: np.ndarray, flat_ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Mean of each sequence's token embeddings (every length >= 1).

    Summed one position at a time, so each sum runs in token order: a
    pooled vector is the same bits in any batch.  ``np.add.reduceat``
    would associate the terms differently.  The rows are sorted by
    length, longest first, so the rows still summing at position t are
    a leading slice: each step is one ``take`` and one in-place add.
    """
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    total = token_emb.take(flat_ids[starts], axis=0)
    longer = len(lengths) - np.cumsum(np.bincount(lengths))  # rows longer than t
    for t in range(1, len(longer) - 1):
        m = longer[t]
        total[:m] += token_emb.take(flat_ids[starts[:m] + t], axis=0)
    pooled = np.empty_like(total)
    pooled[order] = total
    return pooled / lengths[:, None]


def _normalize_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(z, axis=1)
    safe = np.maximum(norms, 1e-30)
    return z / safe[:, None], safe


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, shifted by each row's max."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _logprob_table(params: EncoderParams, pooled: np.ndarray) -> np.ndarray:
    """Position-head forward for a batch of pooled vectors: (B, M, V) logprobs.

    Every product is a stacked matmul whose items have the shape of one
    sequence's: ``(1 x d) @ (d x h)``, then ``(M x h) @ (h x V)``.  BLAS
    sees the same calls whatever B is, so a row's table is the same bits
    in any batch; one GEMM over all B rows would not be."""
    d = params.dim
    pre = pooled[:, None, :] @ params.hidden_w[:, :d].T
    pre = pre + params.pos_emb @ params.hidden_w[:, d:].T + params.hidden_b
    hidden = np.maximum(pre, 0.0)
    return _log_softmax(hidden @ params.out_w.T + params.out_b)


def _blocks(rows: np.ndarray, size: int) -> np.ndarray:
    """``rows`` zero-padded to a multiple of ``size`` and cut into
    ``(n, size, width)`` blocks, one BLAS call each in a stacked matmul."""
    pad = np.zeros((-len(rows) % size, rows.shape[1]))
    return np.concatenate([rows, pad]).reshape(-1, size, rows.shape[1])


def encode(params: EncoderParams, tokens: TokenSeq) -> EncoderOutput:
    """One full forward pass over a single sequence: ``encode_batch``'s
    one-row case.

    Deterministic; mean pooling makes the output a function of the token
    multiset only.  Each table row log-sum-exps to 0 and the dense
    embedding is unit-norm.
    """
    out = encode_batch(params, *_flatten([tokens]))
    return EncoderOutput(dr_embedding=out.dr_embedding[0], nar_logprobs=out.nar_logprobs[0])


def encode_batch(params: EncoderParams, flat_ids: np.ndarray, lengths: np.ndarray) -> EncoderOutput:
    """Full forward passes over many sequences, given as one flat id array
    plus per-sequence lengths (as ``corpus.tokenize_batch`` returns them).

    Returns ``(B, d_dr)`` unit embeddings and ``(B, M, V)`` tables, and
    counts B passes.  A sequence's rows do not depend on its batch: ``_pool``
    sums each sequence in token order, and every product is a stacked matmul
    with one sequence per item (``_logprob_table``), so a row is the same
    bits as ``encode`` gives it alone.
    """
    _check_tokens(params, flat_ids, lengths)
    params.forward_counter.increment(len(lengths))
    pooled = _pool(params.token_emb, flat_ids, lengths)
    emb, _ = _normalize_rows((pooled[:, None, :] @ params.dense_proj.T)[:, 0])
    return EncoderOutput(dr_embedding=emb, nar_logprobs=_logprob_table(params, pooled))


def embed_batch(params: EncoderParams, seqs) -> np.ndarray:
    """Unit dense embeddings for many sequences (dense head only).

    Training utility for negative mining and index construction; it is not
    a full dual-head pass and does not touch the forward counter.
    """
    return embed_flat(params, *_flatten(seqs))


def embed_flat(params: EncoderParams, flat_ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """:func:`embed_batch` over sequences given as one flat id array plus
    per-sequence lengths (as ``corpus.tokenize_batch`` returns them)."""
    _check_tokens(params, flat_ids, lengths)
    emb, _ = _normalize_rows(_pool(params.token_emb, flat_ids, lengths) @ params.dense_proj.T)
    return emb


def zero_grads(params: EncoderParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.arrays().items()}


def joint_loss(
    params: EncoderParams,
    batch,
    config: TrainConfig,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and exact analytic gradients for one batch.

    ``batch`` is a sequence of ``(query_ids, keyword_ids, negatives)``
    triples where ``negatives`` is a non-empty sequence of keyword token
    sequences.  Returns ``(loss, grads)`` with one gradient array per
    parameter tensor, keyed like :data:`PARAM_NAMES`.
    """
    if not batch:
        raise ValidationError("empty batch")
    n_pairs = len(batch)
    neg_counts = np.array([len(item[2]) for item in batch], dtype=np.int64)
    if (neg_counts < 1).any():
        raise ValidationError("every pair needs at least one negative")
    # Rows: queries, then gold keywords, then every pair's negatives in order.
    flat_ids, lengths = _flatten(
        [item[0] for item in batch] + [item[1] for item in batch]
        + [neg for item in batch for neg in item[2]]
    )
    _check_tokens(params, flat_ids, lengths)
    pooled = _pool(params.token_emb, flat_ids, lengths)
    n_neg = len(lengths) - 2 * n_pairs
    neg_owner = np.repeat(np.arange(n_pairs), neg_counts)

    # ---- dense head ----
    emb, norms = _normalize_rows(pooled @ params.dense_proj.T)
    e_q, e_g = emb[:n_pairs], emb[n_pairs : 2 * n_pairs]

    s_pos = np.sum(e_q * e_g, axis=1)
    s_neg = np.sum(e_q[neg_owner] * emb[2 * n_pairs :], axis=1)
    seg_starts = np.zeros(n_pairs, dtype=np.int64)
    np.cumsum(neg_counts[:-1], out=seg_starts[1:])
    s_neg_max = np.maximum.reduceat(s_neg, seg_starts)
    # Each pair's first negative reaching its max, as argmax picks (NaN wins).
    reaches = (s_neg == s_neg_max[neg_owner]) | np.isnan(s_neg)
    hardest_rows = 2 * n_pairs + np.minimum.reduceat(
        np.where(reaches, np.arange(n_neg), n_neg), seg_starts
    )
    margins = s_neg_max - s_pos + config.margin
    active = margins > 0
    loss_dr = float(np.maximum(margins, 0.0).mean())

    # d loss / d s_pos = -coeff ; d loss / d s_neg[hardest] = +coeff.  The
    # three row sets are disjoint, so plain assignment scatters.
    coeff = (active / n_pairs)[:, None]
    d_emb = np.zeros_like(emb)
    d_emb[:n_pairs] = coeff * (emb[hardest_rows] - e_g)
    d_emb[n_pairs : 2 * n_pairs] = -coeff * e_q
    d_emb[hardest_rows] = coeff * e_q

    # Through row normalization: dz = (de - e * <e, de>) / ||z||.
    inner = np.sum(emb * d_emb, axis=1)
    d_z = (d_emb - emb * inner[:, None]) / norms[:, None]
    grads = zero_grads(params)
    grads["dense_proj"] += d_z.T @ pooled
    d_pooled = d_z @ params.dense_proj

    # ---- position head: queries only, at the positions their gold fills ----
    # One row per (pair, position) the loss reads, pair-major.  The
    # vocabulary-wide products run on blocks of max_len rows, so each BLAS
    # call has the shape of one pair's table whatever the batch size.
    d, block = params.dim, params.max_len
    token_half, pos_half = params.hidden_w[:, :d], params.hidden_w[:, d:]
    gold_lens = lengths[n_pairs : 2 * n_pairs]
    n_rows = int(gold_lens.sum())
    rows_i = np.repeat(np.arange(n_pairs), gold_lens)
    rows_t = np.arange(n_rows) - np.repeat(np.cumsum(gold_lens) - gold_lens, gold_lens)
    gold_start = int(lengths[:n_pairs].sum())
    targets = flat_ids[gold_start : gold_start + n_rows]
    pooled_q = pooled[:n_pairs]

    pre = (pooled_q @ token_half.T)[rows_i] + (params.pos_emb @ pos_half.T)[rows_t] + params.hidden_b
    hidden = _blocks(np.maximum(pre, 0.0), block)
    logprobs = _log_softmax(hidden @ params.out_w.T + params.out_b).reshape(-1, params.vocab_size)
    on_target = (np.arange(n_rows), targets)
    loss_nlg = float(-logprobs[on_target].sum() / n_pairs)

    d_logits = np.exp(logprobs)
    d_logits[on_target] -= 1.0
    d_logits[n_rows:] = 0.0  # the last block's padding rows
    d_logits *= config.nlg_weight / n_pairs
    d_logits = d_logits.reshape(hidden.shape[:2] + (-1,))
    for d_block, h_block in zip(d_logits, hidden):
        grads["out_w"] += d_block.T @ h_block
    grads["out_b"] += d_logits.sum(axis=(0, 1))
    d_hidden = (d_logits @ params.out_w).reshape(-1, params.hidden_dim)[:n_rows]
    d_pre = np.zeros((n_pairs, params.max_len, params.hidden_dim))
    d_pre[rows_i, rows_t] = d_hidden * (pre > 0)
    d_pre_pair, d_pre_pos = d_pre.sum(axis=1), d_pre.sum(axis=0)
    grads["hidden_b"] += d_pre_pos.sum(axis=0)
    grads["hidden_w"][:, :d] += d_pre_pair.T @ pooled_q
    grads["hidden_w"][:, d:] += d_pre_pos.T @ params.pos_emb
    grads["pos_emb"] += d_pre_pos @ pos_half
    d_pooled[:n_pairs] += d_pre_pair @ token_half

    # ---- shared token embeddings ----
    owners = np.repeat(np.arange(len(lengths)), lengths)
    np.add.at(grads["token_emb"], flat_ids, (d_pooled / lengths[:, None])[owners])

    return loss_dr + config.nlg_weight * loss_nlg, grads


@dataclass(frozen=True)
class MiningPlan:
    """Cluster-wise batches plus per-pair mined negative keyword ids."""

    batches: tuple[tuple[int, ...], ...]      # pair indices per batch
    negatives: tuple[tuple[int, ...], ...]    # keyword ids per pair
    cluster_labels: np.ndarray                # cluster id per pair


def _balanced_kmeans(points: np.ndarray, k: int, rng: np.random.Generator, iters: int = 8) -> np.ndarray:
    """Spherical k-means with per-cluster capacity ceil(n/k).

    Assignment is greedy: points in decreasing order of confidence (their
    best similarity, ties by index) each take their most similar open
    cluster (ties by cluster index), and a cluster closes when full.  It
    runs in passes: every remaining point takes its best open cluster, a
    per-cluster running count finds the first point that would overflow
    one, the points before it keep their choice, full clusters close and
    the next pass starts at that point.  Each pass but the last closes a
    cluster, so there are at most k + 1.
    """
    n = len(points)
    capacity = -(-n // k)
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(iters):
        dots = points @ centers.T
        order = np.argsort(-dots.max(axis=1), kind="stable")
        prefs = np.argsort(-dots[order], axis=1, kind="stable")  # clusters, best first
        load = np.zeros(k, dtype=np.int64)
        start = 0
        while start < n:
            rest = prefs[start:]
            choice = rest[np.arange(len(rest)), np.argmax((load < capacity)[rest], axis=1)]
            seen = np.cumsum(choice[:, None] == np.arange(k), axis=0)  # running count per cluster
            over = np.flatnonzero(load[choice] + seen[np.arange(len(rest)), choice] > capacity)
            stop = over[0] if len(over) else len(rest)
            labels[order[start : start + stop]] = choice[:stop]
            load += np.bincount(choice[:stop], minlength=k)
            start += stop
        for c in range(k):
            members = points[labels == c]
            if len(members):
                center = members.mean(axis=0)
                norm = np.linalg.norm(center)
                if norm > 1e-12:
                    centers[c] = center / norm
    return labels


def mine_negatives(
    query_embs: np.ndarray,
    keyword_embs: np.ndarray,
    gold_ids: np.ndarray,
    cluster_count: int,
    negatives_per_positive: int,
    batch_size: int,
    seed: int = 0,
    positive_sets=None,
) -> MiningPlan:
    """In-batch hard-negative mining over cluster-wise batches.

    Queries are grouped by balanced k-means on their dense embeddings and
    batches are drawn within a cluster, so each batch's keywords are
    already semantically close to its queries.  A pair's negatives are the
    highest-inner-product keywords among its batch's gold keywords (ties
    by keyword id), excluding every true positive of that query
    (``positive_sets``, defaulting to just the pair's own gold).  Pairs
    whose batch offers no legal negative fall back to a seeded random
    non-positive keyword, drawn in batch order.
    """
    n_pairs = len(query_embs)
    if cluster_count > n_pairs:
        raise ValidationError("cluster_count exceeds number of queries")
    if negatives_per_positive < 1:
        raise ValidationError("negatives_per_positive must be >= 1")
    gold_ids = np.asarray(gold_ids, dtype=np.int64)
    if positive_sets is None:
        positive_sets = [{int(g)} for g in gold_ids]
    rng = np.random.default_rng(seed)
    if cluster_count == 1:
        labels = np.zeros(n_pairs, dtype=np.int64)
    else:
        labels = _balanced_kmeans(query_embs, cluster_count, rng)

    batches: list[tuple[int, ...]] = []
    for c in range(cluster_count):
        members = np.flatnonzero(labels == c)
        rng.shuffle(members)
        for start in range(0, len(members), batch_size):
            chunk = members[start : start + batch_size]
            if len(chunk):
                batches.append(tuple(chunk.tolist()))

    n_keywords = len(keyword_embs)
    # Every (pair, positive keyword row) as one key, pair * n_keywords + row,
    # sorted and closed by a key above them all.
    positive_keys = np.append(np.sort(np.fromiter(
        (i * n_keywords + k for i, keys in enumerate(positive_sets) for k in keys if 0 <= k < n_keywords),
        dtype=np.int64,
    )), n_pairs * n_keywords)
    negatives: list[tuple[int, ...]] = [()] * n_pairs
    for batch in batches:
        rows = np.array(batch, dtype=np.int64)
        golds = np.sort(gold_ids[rows])
        pool = golds[np.r_[True, golds[1:] != golds[:-1]]]  # the batch's distinct golds
        sims = query_embs[rows] @ keyword_embs[pool].T
        keys = rows[:, None] * n_keywords + pool
        blocked = positive_keys[np.searchsorted(positive_keys, keys)] == keys
        # Rank the pool per row by (-similarity, id): pool is sorted by id.
        ranked = np.argsort(-sims, axis=1, kind="stable")
        free = ~np.take_along_axis(blocked, ranked, axis=1)
        picked = free & (np.cumsum(free, axis=1) <= negatives_per_positive)
        picks = pool[ranked[picked]].tolist()
        ends = np.cumsum(picked.sum(axis=1)).tolist()
        for row, i in enumerate(batch):
            negatives[i] = tuple(picks[ends[row - 1] if row else 0 : ends[row]])
            if not negatives[i]:
                own = np.fromiter(positive_sets[i], dtype=np.int64)
                candidates = np.setdiff1d(np.arange(n_keywords), own)
                if len(candidates):
                    negatives[i] = (int(rng.choice(candidates)),)
    return MiningPlan(
        batches=tuple(batches),
        negatives=tuple(negatives),
        cluster_labels=labels,
    )


@dataclass
class TrainResult:
    params: EncoderParams
    epoch_losses: list[float]


def train(config: TrainConfig, pairs, vocab: Vocab) -> TrainResult:
    """Full training loop: per-epoch re-mining, mini-batch gradient descent.

    Deterministic for a fixed config seed: clustering, batch order and the
    update rule all draw from seeded generators, and reductions run in a
    fixed order.  Raises TrainingDiverged on a non-finite loss.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("no training pairs")
    params = init_params(len(vocab), dim=config.dim, dense_dim=config.dense_dim,
                         hidden_dim=config.hidden_dim, max_len=config.max_len, seed=config.seed)

    # One embedding row per keyword id, ascending; a row's sequence is its
    # id's first pair's, and mining works in row space.
    keyword_ids = np.fromiter((p.keyword_id for p in pairs), dtype=np.int64, count=len(pairs))
    _, first, gold_rows = np.unique(keyword_ids, return_index=True, return_inverse=True)
    kw_seqs = [pairs[i].keyword_ids for i in first.tolist()]
    # A query's positives are the rows of every pair with its token sequence.
    rows_by_query: dict[TokenSeq, set[int]] = {}
    for p, row in zip(pairs, gold_rows.tolist()):
        rows_by_query.setdefault(p.query_ids, set()).add(row)
    positive_rows = [rows_by_query[p.query_ids] for p in pairs]

    query_flat = _flatten([p.query_ids for p in pairs])
    kw_flat = _flatten(kw_seqs)

    velocity = {name: np.zeros_like(arr) for name, arr in params.arrays().items()}
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        query_embs = embed_flat(params, *query_flat)
        keyword_embs = embed_flat(params, *kw_flat)
        plan = mine_negatives(
            query_embs,
            keyword_embs,
            gold_rows,
            cluster_count=min(config.cluster_count, len(pairs)),
            negatives_per_positive=config.negatives_per_positive,
            batch_size=config.batch_size,
            seed=config.seed + epoch,
            positive_sets=positive_rows,
        )
        batch_losses = []
        for batch in plan.batches:
            triples = [
                (
                    pairs[i].query_ids,
                    pairs[i].keyword_ids,
                    tuple(kw_seqs[row] for row in plan.negatives[i]),
                )
                for i in batch
                if plan.negatives[i]
            ]
            if not triples:
                continue
            # Overflow here is the symptom of divergence; it is detected on
            # the loss value below rather than warned about per-op.
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = joint_loss(params, triples, config)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss {loss!r} at epoch {epoch}, "
                    f"batch of {len(triples)} (learning_rate={config.learning_rate})"
                )
            for name, arr in params.arrays().items():  # plain SGD, to the bit, at momentum 0
                velocity[name] *= config.momentum
                velocity[name] -= config.learning_rate * grads[name]
                arr += velocity[name]
            batch_losses.append(loss)
        epoch_losses.append(float(np.mean(batch_losses)) if batch_losses else 0.0)
    return TrainResult(params=params, epoch_losses=epoch_losses)


def save_params(params: EncoderParams, path) -> None:
    """Checkpoint: a ``fileio`` frame (magic KENC, version 2, BLAKE2b-64
    footer) around the shape header and float64 row-major tensors."""
    buf = bytearray()
    buf += struct.pack(
        "<QIIII",
        params.vocab_size,
        params.dim,
        params.dense_dim,
        params.hidden_dim,
        params.max_len,
    )
    for name in PARAM_NAMES:
        arr = np.ascontiguousarray(getattr(params, name), dtype="<f8")
        buf += arr.tobytes()
    write_file(path, frame(_MAGIC, _VERSION, buf))


def load_params(path) -> EncoderParams:
    payload = unframe(read_file(path), _MAGIC, _VERSION, "checkpoint")
    (v, d, d_dr, h, m), pos = unpack_at("<QIIII", payload, 0)
    shapes = {
        "token_emb": (v, d),
        "pos_emb": (m, d),
        "dense_proj": (d_dr, d),
        "hidden_w": (h, 2 * d),
        "hidden_b": (h,),
        "out_w": (v, h),
        "out_b": (v,),
    }
    arrays = {}
    for name in PARAM_NAMES:
        shape = shapes[name]
        count = int(np.prod(shape))
        raw, pos = take(payload, pos, count * 8)
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        if not np.isfinite(arrays[name]).all():
            raise ValidationError(f"corrupt checkpoint: {name} holds a non-finite weight")
    if pos != len(payload):
        raise ValidationError("corrupt checkpoint: trailing bytes")
    return EncoderParams(**arrays)
