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

where ``sim`` is the inner product of unit dense embeddings (a raw dot
product in ``similarity="dot"`` mode), the hinge takes the hardest mined
negative of each pair, and the token term sums through the EOW sentinel.
All gradients are computed analytically in float64; ``joint_loss`` is the
single source of truth checked against finite differences in the tests.

Subgradient conventions at kinks: an inactive hinge (margin <= 0)
contributes zero; ties in the hardest-negative max resolve to the first
negative; relu'(0) = 0.
"""

from __future__ import annotations

import json
import struct
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from .corpus import TokenSeq, Vocab
from .errors import TrainingDiverged, ValidationError
from .fileio import frame, read_file, take, unframe, unpack_at, write_file

COSINE = "cosine"
DOT = "dot"

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

    def increment(self) -> None:
        with self._lock:
            self.count += 1


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
    """Unit-norm dense embedding plus the M x V log-probability table."""

    dr_embedding: np.ndarray
    nar_logprobs: np.ndarray


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
    similarity: str = COSINE
    dim: int = 32
    dense_dim: int = 16
    hidden_dim: int = 64
    max_len: int = 16

    def __post_init__(self):
        if self.margin < 0:
            raise ValidationError("margin must be >= 0")
        if self.nlg_weight < 0:
            raise ValidationError("nlg_weight must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be >= 1")
        if self.similarity not in (COSINE, DOT):
            raise ValidationError(f"unknown similarity mode: {self.similarity!r}")

    def to_json(self) -> str:
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        data = json.loads(text)
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


def params_from_config(vocab_size: int, config: TrainConfig) -> EncoderParams:
    return init_params(
        vocab_size,
        dim=config.dim,
        dense_dim=config.dense_dim,
        hidden_dim=config.hidden_dim,
        max_len=config.max_len,
        seed=config.seed,
    )


def _check_tokens(params: EncoderParams, tokens: TokenSeq) -> None:
    if not tokens:
        raise ValidationError("cannot encode an empty token sequence")
    if len(tokens) > params.max_len:
        raise ValidationError(f"sequence length {len(tokens)} exceeds {params.max_len}")
    for t in tokens:
        if not 0 <= t < params.vocab_size:
            raise ValidationError(f"token id {t} outside vocabulary of {params.vocab_size}")


def _pool_batch(token_emb: np.ndarray, seqs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ragged mean-pool. Returns (pooled, flat_ids, owners, lengths)."""
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    flat_ids = np.fromiter((t for s in seqs for t in s), dtype=np.int64, count=int(lengths.sum()))
    owners = np.repeat(np.arange(len(seqs)), lengths)
    pooled = np.zeros((len(seqs), token_emb.shape[1]))
    np.add.at(pooled, owners, token_emb[flat_ids])
    pooled /= lengths[:, None]
    return pooled, flat_ids, owners, lengths


def _normalize_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(z, axis=1)
    safe = np.maximum(norms, 1e-30)
    return z / safe[:, None], safe


def _logprob_table(params: EncoderParams, pooled: np.ndarray) -> tuple[np.ndarray, ...]:
    """Position-head forward for a batch of pooled vectors.

    Returns (logprobs (B,M,V), hidden activations, pre-activations); the
    latter two feed backprop.
    """
    d = params.dim
    token_half = params.hidden_w[:, :d]
    pos_half = params.hidden_w[:, d:]
    pre = pooled @ token_half.T
    pre = pre[:, None, :] + (params.pos_emb @ pos_half.T)[None, :, :] + params.hidden_b
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ params.out_w.T + params.out_b
    lse = np.logaddexp.reduce(logits, axis=2)
    logprobs = logits - lse[:, :, None]
    return logprobs, hidden, pre


def encode(params: EncoderParams, tokens: TokenSeq) -> EncoderOutput:
    """One full forward pass over a single sequence.

    Deterministic; mean pooling makes the output a function of the token
    multiset only.  Each table row log-sum-exps to 0 and the dense
    embedding is unit-norm.
    """
    _check_tokens(params, tokens)
    params.forward_counter.increment()
    pooled = params.token_emb[list(tokens)].mean(axis=0, keepdims=True)
    emb, _ = _normalize_rows(pooled @ params.dense_proj.T)
    logprobs, _, _ = _logprob_table(params, pooled)
    return EncoderOutput(dr_embedding=emb[0], nar_logprobs=logprobs[0])


def embed_batch(params: EncoderParams, seqs) -> np.ndarray:
    """Unit dense embeddings for many sequences (dense head only).

    Training utility for negative mining and index construction; it is not
    a full dual-head pass and does not touch the forward counter.
    """
    for s in seqs:
        _check_tokens(params, s)
    pooled, _, _, _ = _pool_batch(params.token_emb, seqs)
    emb, _ = _normalize_rows(pooled @ params.dense_proj.T)
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
    queries = [tuple(item[0]) for item in batch]
    golds = [tuple(item[1]) for item in batch]
    neg_counts = np.array([len(item[2]) for item in batch], dtype=np.int64)
    if (neg_counts < 1).any():
        raise ValidationError("every pair needs at least one negative")
    negatives = [tuple(neg) for item in batch for neg in item[2]]
    for seq in (*queries, *golds, *negatives):
        _check_tokens(params, seq)

    all_seqs = queries + golds + negatives
    pooled, flat_ids, owners, lengths = _pool_batch(params.token_emb, all_seqs)
    q_rows = np.arange(n_pairs)
    g_rows = n_pairs + np.arange(n_pairs)
    neg_rows = 2 * n_pairs + np.arange(len(negatives))
    neg_owner = np.repeat(np.arange(n_pairs), neg_counts)

    # ---- dense head ----
    z = pooled @ params.dense_proj.T
    if config.similarity == COSINE:
        emb, norms = _normalize_rows(z)
    else:
        emb, norms = z, None

    s_pos = np.einsum("ij,ij->i", emb[q_rows], emb[g_rows])
    s_neg = np.einsum("ij,ij->i", emb[q_rows[neg_owner]], emb[neg_rows])
    seg_starts = np.zeros(n_pairs, dtype=np.int64)
    np.cumsum(neg_counts[:-1], out=seg_starts[1:])
    s_neg_max = np.maximum.reduceat(s_neg, seg_starts)
    hardest = np.array(
        [seg_starts[i] + int(np.argmax(s_neg[seg_starts[i] : seg_starts[i] + neg_counts[i]]))
         for i in range(n_pairs)],
        dtype=np.int64,
    )
    margins = s_neg_max - s_pos + config.margin
    active = margins > 0
    loss_dr = float(np.maximum(margins, 0.0).mean())

    d_emb = np.zeros_like(emb)
    coeff = active.astype(float) / n_pairs
    # d loss / d s_pos = -coeff ; d loss / d s_neg[hardest] = +coeff
    np.add.at(d_emb, q_rows, coeff[:, None] * (emb[neg_rows[hardest]] - emb[g_rows]))
    np.add.at(d_emb, g_rows, -coeff[:, None] * emb[q_rows])
    np.add.at(d_emb, neg_rows[hardest], coeff[:, None] * emb[q_rows])

    if config.similarity == COSINE:
        # Through row normalization: dz = (de - e * <e, de>) / ||z||.
        inner = np.einsum("ij,ij->i", emb, d_emb)
        d_z = (d_emb - emb * inner[:, None]) / norms[:, None]
    else:
        d_z = d_emb
    grads = zero_grads(params)
    grads["dense_proj"] += d_z.T @ pooled
    d_pooled = d_z @ params.dense_proj

    # ---- position head (queries only) ----
    pooled_q = pooled[q_rows]
    logprobs, hidden, pre = _logprob_table(params, pooled_q)
    max_len = params.max_len
    gold_lens = np.array([len(g) for g in golds], dtype=np.int64)
    targets = np.zeros((n_pairs, max_len), dtype=np.int64)
    for i, gold in enumerate(golds):
        targets[i, : len(gold)] = gold
    mask = np.arange(max_len)[None, :] < gold_lens[:, None]

    rows_i, rows_t = np.nonzero(mask)
    nll_per_pair = np.zeros(n_pairs)
    np.add.at(nll_per_pair, rows_i, -logprobs[rows_i, rows_t, targets[rows_i, rows_t]])
    loss_nlg = float(nll_per_pair.mean())

    scale = config.nlg_weight / n_pairs
    d_logits = np.where(mask[:, :, None], np.exp(logprobs), 0.0)
    np.subtract.at(d_logits, (rows_i, rows_t, targets[rows_i, rows_t]), 1.0)
    d_logits *= scale

    grads["out_w"] += np.einsum("btv,bth->vh", d_logits, hidden)
    grads["out_b"] += d_logits.sum(axis=(0, 1))
    d_hidden = d_logits @ params.out_w
    d_pre = d_hidden * (pre > 0)
    grads["hidden_b"] += d_pre.sum(axis=(0, 1))
    d = params.dim
    grads["hidden_w"][:, :d] += np.einsum("bth,bd->hd", d_pre, pooled_q)
    grads["hidden_w"][:, d:] += np.einsum("bth,td->hd", d_pre, params.pos_emb)
    grads["pos_emb"] += np.einsum("bth,hd->td", d_pre, params.hidden_w[:, d:])
    np.add.at(d_pooled, q_rows, np.einsum("bth,hd->bd", d_pre, params.hidden_w[:, :d]))

    # ---- shared token embeddings ----
    np.add.at(
        grads["token_emb"],
        flat_ids,
        d_pooled[owners] / lengths[owners, None],
    )

    return loss_dr + config.nlg_weight * loss_nlg, grads


@dataclass(frozen=True)
class MiningPlan:
    """Cluster-wise batches plus per-pair mined negative keyword ids."""

    batches: tuple[tuple[int, ...], ...]      # pair indices per batch
    negatives: tuple[tuple[int, ...], ...]    # keyword ids per pair
    cluster_labels: np.ndarray                # cluster id per pair


def _balanced_kmeans(points: np.ndarray, k: int, rng: np.random.Generator, iters: int = 8) -> np.ndarray:
    """Spherical k-means with per-cluster capacity ceil(n/k)."""
    n = len(points)
    capacity = -(-n // k)
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(iters):
        dots = points @ centers.T
        # Confident points (largest best-similarity) pick first.
        order = np.argsort(-dots.max(axis=1), kind="stable")
        load = np.zeros(k, dtype=np.int64)
        for i in order:
            for c in np.argsort(-dots[i], kind="stable"):
                if load[c] < capacity:
                    labels[i] = c
                    load[c] += 1
                    break
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
    highest-inner-product keywords among its batch's gold keywords,
    excluding every true positive of that query (``positive_sets``,
    defaulting to just the pair's own gold).  Pairs whose batch offers no
    legal negative fall back to a seeded random non-positive keyword.
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
                batches.append(tuple(int(i) for i in chunk))

    n_keywords = len(keyword_embs)
    negatives: list[tuple[int, ...]] = [()] * n_pairs
    for batch in batches:
        pool = np.unique(gold_ids[list(batch)])
        sims = query_embs[list(batch)] @ keyword_embs[pool].T
        for row, i in enumerate(batch):
            blocked = positive_sets[i]
            ranked = pool[np.lexsort((pool, -sims[row]))]
            picked = [int(kid) for kid in ranked if int(kid) not in blocked]
            picked = picked[:negatives_per_positive]
            if not picked:
                candidates = np.setdiff1d(np.arange(n_keywords), np.fromiter(blocked, dtype=np.int64))
                if len(candidates):
                    picked = [int(rng.choice(candidates))]
            negatives[i] = tuple(picked)
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
    params = params_from_config(len(vocab), config)

    keyword_seq_by_id: dict[int, TokenSeq] = {}
    for p in pairs:
        keyword_seq_by_id.setdefault(p.keyword_id, p.keyword_ids)
    kw_ids = np.array(sorted(keyword_seq_by_id), dtype=np.int64)
    kw_row = {int(k): r for r, k in enumerate(kw_ids)}
    kw_seqs = [keyword_seq_by_id[int(k)] for k in kw_ids]

    positives_by_query: dict[str, set[int]] = {}
    for p in pairs:
        positives_by_query.setdefault(p.query_text, set()).add(p.keyword_id)
    positive_sets = [positives_by_query[p.query_text] for p in pairs]
    gold_rows = np.array([kw_row[p.keyword_id] for p in pairs], dtype=np.int64)
    # Row-index the positive sets so mining works in embedding-row space.
    positive_rows = [{kw_row[k] for k in s if k in kw_row} for s in positive_sets]

    velocity = {name: np.zeros_like(arr) for name, arr in params.arrays().items()}
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        query_embs = embed_batch(params, [p.query_ids for p in pairs])
        keyword_embs = embed_batch(params, kw_seqs)
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
            for name, arr in params.arrays().items():
                if config.momentum:
                    velocity[name] *= config.momentum
                    velocity[name] -= config.learning_rate * grads[name]
                    arr += velocity[name]
                else:
                    arr -= config.learning_rate * grads[name]
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
