"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (enumeration, full scans, direct
arithmetic) and never calls into the code paths it is checking.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import struct
from collections import Counter

import numpy as np

from unikw import dense_index, encoder, trie
from unikw.errors import ValidationError
from unikw.fileio import frame

UNK = 1
EOW = 2
FIRST_TOKEN_ID = 3
RESERVED_TOKENS = ("<pad>", "<unk>", "</kw>")


def random_catalog(rng: np.random.Generator, max_keywords=200, max_tokens=5, alphabet=12):
    """Random distinct keyword token sequences, each ending with EOW.

    Returns (entries, vocab_size) where entries is a list of
    (token_seq, keyword_id) and vocab_size covers the alphabet.
    """
    n = int(rng.integers(1, max_keywords + 1))
    seen = set()
    entries = []
    attempts = 0
    while len(entries) < n and attempts < 50 * n:
        attempts += 1
        length = int(rng.integers(1, max_tokens + 1))
        tokens = tuple(
            int(t) for t in rng.integers(FIRST_TOKEN_ID, FIRST_TOKEN_ID + alphabet, length)
        ) + (EOW,)
        if tokens in seen:
            continue
        seen.add(tokens)
        entries.append((tokens, len(entries)))
    return entries, FIRST_TOKEN_ID + alphabet


def scalar_trie(entries, reverse=False):
    """The trie built one node at a time: per-node child dicts, then a
    breadth-first renumbering with children in label order.

    A forward path is the token sequence; a reversed one is its length
    followed by the tokens right to left.  Returns (offsets, labels,
    node_keyword) as lists, node_keyword -1 where no keyword ends.
    """
    children, terminal = [{}], {}
    for tokens, keyword_id in entries:
        path = (len(tokens),) + tuple(reversed(tokens)) if reverse else tuple(tokens)
        node = 0
        for label in path:
            if label not in children[node]:
                children[node][label] = len(children)
                children.append({})
            node = children[node][label]
        terminal[node] = keyword_id
    order, offsets, labels = [0], [0], []
    for old in order:  # grows while it is read: breadth-first
        for label in sorted(children[old]):
            labels.append(label)
            order.append(children[old][label])
        offsets.append(len(labels))
    return offsets, labels, [terminal.get(old, -1) for old in order]


def scalar_ktri_bytes(entries, reverse=False, vocab_checksum=0) -> bytes:
    """A KTRI file of ``scalar_trie`` in the current version, written one
    value at a time with ``struct``, with a SHA-256/64 footer hashed here,
    not by ``fileio``."""
    offsets, labels, node_keyword = scalar_trie(entries, reverse)
    ids = [kid for kid in node_keyword if kid >= 0]  # the non-root leaves, in BFS order
    codes = {1: "B", 2: "H", 4: "I", 8: "Q"}
    widths = [min(w for w in codes if max(values, default=0) < 256**w) for values in (labels, ids)]
    bits = "".join("1" * (end - start) + "0" for start, end in zip(offsets, offsets[1:]))
    bits += "0" * (-len(bits) % 8)
    body = struct.pack("<QQBQBB", vocab_checksum, len(node_keyword), int(reverse), len(ids), *widths)
    body += bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))
    for values, width in zip((labels, ids), widths):
        body += b"".join(struct.pack("<" + codes[width], value) for value in values)
    data = b"KTRI" + struct.pack("<I", trie._VERSION) + body
    return data + hashlib.sha256(data).digest()[:8]


def unchecked_kenc_bytes(params) -> bytes:
    """A KENC file of ``params`` as ``save_params`` lays it out,
    without its check: for checkpoints that ``load_params`` must reject."""
    body = struct.pack("<QIIII", params.vocab_size, params.dim, params.dense_dim,
                       params.hidden_dim, params.max_len)
    body += b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes()
                     for arr in params.arrays().values())
    return frame(b"KENC", encoder._VERSION, body)


def unchecked_kgra_bytes(index, **fields) -> bytes:
    """A KGRA file of the graph ``index`` with ``fields`` (any of
    ``offsets``, ``neighbors``, ``entry``) replaced, as ``save_graph``
    lays it out, without the index's checks: for graphs that
    ``load_graph`` must reject."""
    graph = {name: getattr(index, name) for name in ("offsets", "neighbors", "entry")}
    graph.update(fields)
    body = struct.pack("<QQ", len(index), graph["entry"])
    body += np.ascontiguousarray(graph["offsets"], dtype="<i8").tobytes()
    body += np.ascontiguousarray(graph["neighbors"], dtype="<i4").tobytes()
    return frame(b"KGRA", dense_index._GRAPH_VERSION, body)


def reference_load_keywords(path) -> list[str]:
    """The catalog as a list of strings: the file read in text mode, then
    ``str.splitlines``; the first blank line is named by its 0-based number."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    for number, line in enumerate(lines):
        if not line.strip():
            raise ValidationError(f"blank keyword at line {number}")
    return lines


def reference_normalize(vectors: np.ndarray) -> np.ndarray:
    """The exact index's rows: each row divided by its float64 norm, rounded
    to float32, then divided by its float32 norm; ``np.linalg.norm`` does
    both sums, over the whole matrix at once."""
    whole = np.asarray(vectors, dtype=np.float64)
    rows = (whole / np.linalg.norm(whole, axis=1)[:, None]).astype(np.float32)
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def random_prob_table(rng: np.random.Generator, max_len: int, vocab_size: int) -> np.ndarray:
    """Rows are log-softmax of iid normal logits: valid log distributions."""
    logits = rng.normal(0.0, 2.0, (max_len, vocab_size))
    m = logits.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    return logits - lse


def brute_force_ranking(prob_table: np.ndarray, entries):
    """Exact constrained ranking: score every catalog keyword by direct
    summation of its positions' log-probabilities, sort by (-score, id)."""
    scored = []
    for tokens, keyword_id in entries:
        if len(tokens) > prob_table.shape[0]:
            continue
        score = float(sum(prob_table[t, tok] for t, tok in enumerate(tokens)))
        scored.append((keyword_id, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def scalar_beam_search(prob_table: np.ndarray, entries, beam_size: int,
                       prune_threshold=float("-inf"), reverse=False):
    """Trie-free beam search, one hypothesis and one token at a time.

    Completed keywords leave the beam; the beam keeps the best
    ``beam_size`` incomplete prefixes by a stable sort on (-score, prefix),
    children visited in token order.  Left to right, depth t consumes row
    t.  Right to left, keywords are grouped by token count m (EOW
    included), one start per m that fits the table in increasing m, the
    prefix is the reversed token path and depth j consumes row m-1-j.
    Tokens outside the table and tokens scoring below the threshold are
    never consumed.  Returns up to ``beam_size`` (id, score), sorted by
    (-score, id).
    """
    max_len, vocab_size = prob_table.shape
    paths = {}  # (group, token path) -> keyword id; group is m right to left, else 0
    for tokens, keyword_id in entries:
        tokens = tuple(tokens)
        paths[(len(tokens), tokens[::-1]) if reverse else (0, tokens)] = keyword_id
    starts = sorted({m for m, _ in paths if m <= max_len}) if reverse else [0]
    active = [(m, (), 0.0) for m in starts]
    completed = []
    while active:
        candidates = []
        for m, prefix, score in active:
            depth = len(prefix)
            row = m - 1 - depth if reverse else depth
            if not 0 <= row < max_len:
                continue
            tokens = sorted({
                path[depth] for group, path in paths
                if group == m and len(path) > depth and path[:depth] == prefix
            })
            for token in tokens:
                if token >= vocab_size:
                    continue
                logprob = float(prob_table[row, token])
                if logprob < prune_threshold:
                    continue
                key = (m, prefix + (token,))
                if key in paths:
                    completed.append((score + logprob, paths[key]))
                else:
                    candidates.append((m, key[1], score + logprob))
        candidates.sort(key=lambda h: (-h[2], h[1]))
        active = candidates[:beam_size]
    completed.sort(key=lambda item: (-item[0], item[1]))
    return [(keyword_id, score) for score, keyword_id in completed[:beam_size]]


def sorted_merge(nlg, dr, catalog):
    """The two channels' union, labelled and ordered by one sort.

    ``nlg`` and ``dr`` are (id, score) lists in any order.  Each id in
    either becomes (id, catalog text, generative score or None, dense
    score or None, source), source BOTH, DR or NLG; rows are sorted by
    (BOTH < DR < NLG, -(dense score, else generative score), id).
    """
    nlg_scores, dr_scores = dict(nlg), dict(dr)
    rank = {"BOTH": 0, "DR": 1, "NLG": 2}
    rows = []
    for kid in set(nlg_scores) | set(dr_scores):
        in_nlg, in_dr = kid in nlg_scores, kid in dr_scores
        source = "BOTH" if in_nlg and in_dr else "NLG" if in_nlg else "DR"
        rows.append((kid, catalog[kid], nlg_scores.get(kid), dr_scores.get(kid), source))
    rows.sort(key=lambda r: (rank[r[4]], -(r[3] if r[3] is not None else r[2]), r[0]))
    return rows


def reference_jsonl_line(query, rows):
    """The JSON line of ``query`` and its result rows: one dict per hit,
    walked by ``json.dumps``."""
    return json.dumps({"query": query, "results": [r.to_json_obj() for r in rows]},
                      ensure_ascii=False)


def keyword_token_logprobs(prob_table: np.ndarray, tokens) -> list[float]:
    return [float(prob_table[t, tok]) for t, tok in enumerate(tokens)]


def naive_topk(vectors: np.ndarray, ids: np.ndarray, query: np.ndarray, k: int):
    """Full-scan top-k by inner product on pre-normalized rows."""
    q = np.asarray(query, dtype=np.float64)
    q = q / np.linalg.norm(q)
    scores = vectors.astype(np.float64) @ q
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))[:k]
    return [(int(ids[i]), float(scores[i])) for i in order]


def scalar_greedy_search(vectors: np.ndarray, offsets, neighbors, entry: int,
                         query: np.ndarray, width: int) -> tuple[list[int], list[int]]:
    """Best-first graph search one row at a time, driven by two heaps.

    A min-heap holds the rows still to expand and a max-heap the ``width``
    closest rows found, both ordered by the pair (distance, row).  Each
    step pops the closest row left to expand and stops once that row is
    farther than every row of a full list; each neighbour not seen before
    joins both heaps if it beats the farthest kept row, which then leaves
    the list.  Distances are ``1 - row . query`` in float32 by ``einsum``.
    Returns the kept rows by (distance, row) and the rows expanded, in
    order."""
    query = np.asarray(query, dtype=np.float32)

    def distances(rows):
        return (1.0 - np.einsum("ij,j->i", vectors[rows], query)).tolist()

    dist0 = distances([entry])[0]
    frontier = [(dist0, entry)]          # min-heap by (distance, row)
    best = [(-dist0, -entry)]            # max-heap by (distance, row)
    seen = {entry}
    expanded: list[int] = []
    while frontier:
        dist, row = heapq.heappop(frontier)
        if len(best) >= width and (dist, row) > (-best[0][0], -best[0][1]):
            break
        expanded.append(row)
        fresh = [n for n in neighbors[offsets[row]:offsets[row + 1]].tolist() if n not in seen]
        seen.update(fresh)
        for n, nd in zip(fresh, distances(fresh) if fresh else []):
            if len(best) < width or (nd, n) < (-best[0][0], -best[0][1]):
                heapq.heappush(frontier, (nd, n))
                heapq.heappush(best, (-nd, -n))
                if len(best) > width:
                    heapq.heappop(best)
    return [row for _, row in sorted((-d, -r) for d, r in best)], expanded


def scalar_build_search(vectors: np.ndarray, adj: np.ndarray, start: int, point: int,
                        width: int, beam: int) -> list[int]:
    """The build's beam search for one point, one list of tuples.

    ``adj`` holds one row of neighbours per node, padded with -1.  The list
    holds the ``width`` closest rows found, ordered by (distance, row),
    starting from ``start``.  A step expands up to ``beam`` of the list's
    closest unexpanded rows, adds every neighbour of theirs not already in
    the list, and cuts the list back to ``width``; the search ends when no
    row of the list is left to expand.  Distances are ``1 - row . point``
    in float32 by ``einsum``, as the build computes them.  Returns the rows
    expanded, in order."""
    def distances(rows):
        rows = np.asarray(rows, dtype=np.int64)
        points = np.full(len(rows), point)
        return (1.0 - np.einsum("ij,ij->i", vectors[rows], vectors[points])).tolist()

    items = [(distances([start])[0], start)]
    done: set[int] = set()
    expanded: list[int] = []
    while True:
        picks = [row for _, row in items if row not in done][:beam]
        if not picks:
            return expanded
        done.update(picks)
        expanded += picks
        in_list = {row for _, row in items}
        fresh = sorted({int(nb) for row in picks for nb in adj[row] if nb >= 0} - in_list)
        items = sorted(items + list(zip(distances(fresh), fresh)))[:width]


def scalar_robust_prune(vectors: np.ndarray, point: int, candidates, max_degree: int,
                        slack: float) -> list[int]:
    """Robust prune for one point: drop repeats and the point, order the
    rest by (distance, row), then keep the closest survivor c and discard
    every v with slack * dist(c, v) <= dist(point, v), until ``max_degree``
    are kept.  Returns the kept rows, sorted."""
    candidates = np.unique(np.asarray(candidates, dtype=np.int64))
    candidates = candidates[candidates != point]
    if not len(candidates):
        return []
    dists = 1.0 - vectors[candidates] @ vectors[point]
    order = np.lexsort((candidates, dists))
    candidates = candidates[order]
    dists = dists[order]
    cand_vectors = vectors[candidates]
    pairwise = 1.0 - cand_vectors @ cand_vectors.T
    alive = np.ones(len(candidates), dtype=bool)
    kept: list[int] = []
    for i in range(len(candidates)):
        if not alive[i]:
            continue
        kept.append(int(candidates[i]))
        if len(kept) == max_degree:
            break
        alive &= slack * pairwise[i] > dists  # kills i itself: pairwise[i,i]=0
    return sorted(kept)


def loop_cluster_keywords(vectors, ids, similarity_threshold: float) -> dict[int, int]:
    """Greedy leader clustering, one row at a time in ascending id order:
    one float32 GEMV of the row against every representative made so far,
    and the row joins the first that reaches the threshold, else becomes
    one.  The rows are the index's (``build_exact``)."""
    index = dense_index.build_exact(vectors, ids)
    vectors, ids = index.vectors, index.ids
    rep_rows = np.empty((len(vectors), vectors.shape[1]), dtype=np.float32)
    rep_ids: list[int] = []
    mapping: dict[int, int] = {}
    for row in np.argsort(ids):
        vec = vectors[row]
        if rep_ids:
            sims = rep_rows[: len(rep_ids)] @ vec
            hit = np.flatnonzero(sims >= similarity_threshold)
            if len(hit):
                mapping[int(ids[row])] = rep_ids[int(hit[0])]
                continue
        rep_rows[len(rep_ids)] = vec
        rep_ids.append(int(ids[row]))
        mapping[int(ids[row])] = int(ids[row])
    return mapping


def finite_difference_grads(loss_fn, arrays: dict, eps: float = 1e-6) -> dict:
    """Central finite differences of a scalar loss over every component.

    ``loss_fn`` is treated as a black box re-evaluated after in-place
    perturbation of each parameter entry; nothing here touches the
    analytic gradient path.
    """
    grads = {}
    for name, arr in arrays.items():
        flat = arr.ravel()
        grad = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_fn()
            flat[i] = orig - eps
            down = loss_fn()
            flat[i] = orig
            grad[i] = (up - down) / (2.0 * eps)
        grads[name] = grad.reshape(arr.shape)
    return grads


def max_relative_error(analytic: dict, numeric: dict) -> float:
    """Componentwise |a-f| / max(|a|,|f|), with near-zero pairs compared
    absolutely at 1e-8."""
    worst = 0.0
    for name in analytic:
        a, f = analytic[name].ravel(), numeric[name].ravel()
        diff = np.abs(a - f)
        denom = np.maximum(np.abs(a), np.abs(f))
        tiny = denom < 1e-6
        if tiny.any() and diff[tiny].max() > 1e-8:
            worst = max(worst, 1.0)  # near-zero disagreement: fail loudly
        rest = ~tiny
        if rest.any():
            worst = max(worst, float((diff[rest] / denom[rest]).max()))
    return worst


def einsum_joint_loss(params, batch, config):
    """``encoder.joint_loss`` as per-sequence checks, ``np.add.at``
    scatters, ``einsum`` contractions over the full (pair, position,
    vocabulary) table and a ``logaddexp`` log-sum-exp.

    Returns ``(loss, grads)`` like the library function.  The hinge takes
    each pair's first hardest negative (``argmax``), as documented there.
    """
    n_pairs = len(batch)
    queries = [tuple(item[0]) for item in batch]
    golds = [tuple(item[1]) for item in batch]
    neg_counts = np.array([len(item[2]) for item in batch], dtype=np.int64)
    negatives = [tuple(neg) for item in batch for neg in item[2]]

    all_seqs = queries + golds + negatives
    lengths = np.array([len(s) for s in all_seqs], dtype=np.int64)
    flat_ids = np.array([t for s in all_seqs for t in s], dtype=np.int64)
    owners = np.repeat(np.arange(len(all_seqs)), lengths)
    pooled = np.zeros((len(all_seqs), params.dim))
    np.add.at(pooled, owners, params.token_emb[flat_ids])
    pooled /= lengths[:, None]
    q_rows = np.arange(n_pairs)
    g_rows = n_pairs + np.arange(n_pairs)
    neg_rows = 2 * n_pairs + np.arange(len(negatives))
    neg_owner = np.repeat(np.arange(n_pairs), neg_counts)

    z = pooled @ params.dense_proj.T
    norms = np.maximum(np.linalg.norm(z, axis=1), 1e-30)
    emb = z / norms[:, None]
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
    np.add.at(d_emb, q_rows, coeff[:, None] * (emb[neg_rows[hardest]] - emb[g_rows]))
    np.add.at(d_emb, g_rows, -coeff[:, None] * emb[q_rows])
    np.add.at(d_emb, neg_rows[hardest], coeff[:, None] * emb[q_rows])
    inner = np.einsum("ij,ij->i", emb, d_emb)
    d_z = (d_emb - emb * inner[:, None]) / norms[:, None]
    grads = {name: np.zeros_like(arr) for name, arr in params.arrays().items()}
    grads["dense_proj"] += d_z.T @ pooled
    d_pooled = d_z @ params.dense_proj

    d = params.dim
    pooled_q = pooled[q_rows]
    pre = pooled_q @ params.hidden_w[:, :d].T
    pre = pre[:, None, :] + (params.pos_emb @ params.hidden_w[:, d:].T)[None, :, :] + params.hidden_b
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ params.out_w.T + params.out_b
    logprobs = logits - np.logaddexp.reduce(logits, axis=2)[:, :, None]
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
    d_pre = (d_logits @ params.out_w) * (pre > 0)
    grads["hidden_b"] += d_pre.sum(axis=(0, 1))
    grads["hidden_w"][:, :d] += np.einsum("bth,bd->hd", d_pre, pooled_q)
    grads["hidden_w"][:, d:] += np.einsum("bth,td->hd", d_pre, params.pos_emb)
    grads["pos_emb"] += np.einsum("bth,hd->td", d_pre, params.hidden_w[:, d:])
    np.add.at(d_pooled, q_rows, np.einsum("bth,hd->bd", d_pre, params.hidden_w[:, :d]))
    np.add.at(grads["token_emb"], flat_ids, d_pooled[owners] / lengths[owners, None])
    return loss_dr + config.nlg_weight * loss_nlg, grads


def scalar_balanced_kmeans(points: np.ndarray, k: int, rng: np.random.Generator, iters: int = 8):
    """Spherical k-means with capacity ceil(n/k), assigned one point at a
    time: in decreasing order of best similarity (stable), each point
    walks its clusters from most to least similar (stable) and takes the
    first that is not full.  Centers update as in ``encoder``."""
    n = len(points)
    capacity = -(-n // k)
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(iters):
        dots = points @ centers.T
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


def scalar_mine_negatives(query_embs, keyword_embs, gold_ids, cluster_count,
                          negatives_per_positive, batch_size, seed=0, positive_sets=None):
    """``encoder.mine_negatives`` one pair at a time, over
    ``scalar_balanced_kmeans``.  Returns (batches, negatives, labels)."""
    n_pairs = len(query_embs)
    gold_ids = np.asarray(gold_ids, dtype=np.int64)
    if positive_sets is None:
        positive_sets = [{int(g)} for g in gold_ids]
    rng = np.random.default_rng(seed)
    if cluster_count == 1:
        labels = np.zeros(n_pairs, dtype=np.int64)
    else:
        labels = scalar_balanced_kmeans(query_embs, cluster_count, rng)
    batches = []
    for c in range(cluster_count):
        members = np.flatnonzero(labels == c)
        rng.shuffle(members)
        for start in range(0, len(members), batch_size):
            chunk = members[start : start + batch_size]
            if len(chunk):
                batches.append(tuple(int(i) for i in chunk))
    n_keywords = len(keyword_embs)
    negatives = [()] * n_pairs
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
    return tuple(batches), tuple(negatives), labels


def scalar_pool(token_emb: np.ndarray, flat_ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``encoder._pool`` in original row order: each position adds into the
    rows still that long through a fancy-indexed read-modify-write."""
    starts = np.cumsum(lengths) - lengths
    total = token_emb[flat_ids[starts]]
    for t in range(1, int(lengths.max(initial=0))):
        longer = np.flatnonzero(lengths > t)
        total[longer] += token_emb[flat_ids[starts[longer] + t]]
    return total / lengths[:, None]


def scalar_tokenize(text: str, vocab, role: str, max_len: int) -> tuple[int, ...]:
    """``corpus.tokenize``, one token at a time: a reserved surface form or
    an unknown token maps to UNK, a blank text to one UNK; queries are cut
    to ``max_len`` tokens, keywords to ``max_len - 1`` and then end in EOW."""
    ids = [UNK if tok in RESERVED_TOKENS else vocab.id_of(tok) for tok in text.lower().split()]
    if not ids:
        ids = [UNK]
    if role == "query":
        return tuple(ids[:max_len])
    return tuple(ids[: max_len - 1]) + (EOW,)


def scalar_load_pairs(path, vocab, max_len: int):
    """``corpus.load_pairs`` one line at a time, each pair as the tuple
    ``(query_text, query_ids, keyword_text, keyword_ids, keyword_id)``;
    keyword ids number the distinct keyword token sequences in order of
    first occurrence.  Returns ``(pairs, malformed)``."""
    keyword_ids = {}
    pairs = []
    malformed = 0
    total = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            total += 1
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                malformed += 1
                continue
            query_text, keyword_text = parts
            keyword_seq = scalar_tokenize(keyword_text, vocab, "keyword", max_len)
            pairs.append((
                query_text,
                scalar_tokenize(query_text, vocab, "query", max_len),
                keyword_text,
                keyword_seq,
                keyword_ids.setdefault(keyword_seq, len(keyword_ids)),
            ))
    if total and malformed / total > 0.10:
        raise ValidationError(f"{malformed}/{total} malformed lines exceeds 10% threshold")
    return pairs, malformed


def scalar_vocab_tokens(keyword_path, pairs_path, min_count: int = 1) -> tuple[str, ...]:
    """``corpus.build_vocab``'s token list (ids 3 on), counted one line and
    one token at a time.  Raises ValueError with ``build_vocab``'s message
    at a blank keyword line (``reference_load_keywords``' rule), then at the
    first reserved surface form read, in file order."""

    def count_tokens(text):
        for tok in text.lower().split():
            if tok in RESERVED_TOKENS:
                raise ValueError(f"reserved token {tok!r} appears in corpus")
            counts[tok] += 1

    if min_count < 1:
        raise ValueError(f"min_count must be an integer >= 1, got {min_count!r}")
    reference_load_keywords(keyword_path)
    counts = Counter()
    with open(keyword_path, encoding="utf-8") as f:
        for line in f:
            count_tokens(line)
    with open(pairs_path, encoding="utf-8") as f:
        for line in f:
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                continue
            count_tokens(parts[0])
            count_tokens(parts[1])
    if not counts:
        raise ValueError("empty corpus")
    kept = tuple(sorted((tok for tok, c in counts.items() if c >= min_count),
                        key=lambda tok: (-counts[tok], tok)))
    if not kept:
        raise ValueError(f"empty vocabulary: no token occurs {min_count} or more times")
    return kept


# Ranked metrics written as five separate per-query loops, one per metric,
# raising the library's errors in the library's order.


def _check_k(k):
    if k < 1:
        raise ValidationError("k must be >= 1")


def loop_precision_at_k(ranked_ids_per_query, labels, k):
    _check_k(k)
    values = []
    for query, ranked in ranked_ids_per_query:
        relevant = labels.relevant(query)
        hits = sum(1 for kid in ranked[:k] if kid in relevant)
        values.append(hits / k)
    if not values:
        raise ValidationError("no queries to evaluate")
    return sum(values) / len(values)


def loop_recall_at_k(ranked_ids_per_query, labels, k):
    _check_k(k)
    values = []
    for query, ranked in ranked_ids_per_query:
        relevant = labels.relevant(query)
        if not relevant:
            continue
        hits = sum(1 for kid in ranked[:k] if kid in relevant)
        values.append(hits / len(relevant))
    if not values:
        raise ValidationError("no labeled queries to evaluate")
    return sum(values) / len(values)


def loop_ndcg_at_k(ranked_ids_per_query, labels, k):
    _check_k(k)
    values = []
    for query, ranked in ranked_ids_per_query:
        relevant = labels.relevant(query)
        if not relevant:
            continue
        dcg = sum(
            1.0 / math.log2(rank + 2)
            for rank, kid in enumerate(ranked[:k])
            if kid in relevant
        )
        ideal = sum(1.0 / math.log2(rank + 2) for rank in range(min(k, len(relevant))))
        values.append(dcg / ideal)
    if not values:
        raise ValidationError("no labeled queries to evaluate")
    return sum(values) / len(values)


def _inverse_propensity(labels, keyword_id):
    if labels.propensities is None:
        raise ValidationError("propensities are required for propensity-scored metrics")
    p = labels.propensities.get(keyword_id)
    if p is None:
        raise ValidationError(f"missing propensity for keyword id {keyword_id}")
    if not 0.0 < p <= 1.0:
        raise ValidationError(f"propensity for keyword id {keyword_id} must be in (0, 1]")
    return 1.0 / p


def _loop_ps_at_k(ranked_ids_per_query, labels, k, discounted):
    _check_k(k)
    values = []
    for query, ranked in ranked_ids_per_query:
        relevant = labels.relevant(query)
        if not relevant:
            continue
        gain = 0.0
        for rank, kid in enumerate(ranked[:k]):
            if kid in relevant:
                g = _inverse_propensity(labels, kid)
                gain += g / math.log2(rank + 2) if discounted else g
        ideal_gains = sorted((_inverse_propensity(labels, kid) for kid in relevant), reverse=True)
        ideal = 0.0
        for rank, g in enumerate(ideal_gains[:k]):
            ideal += g / math.log2(rank + 2) if discounted else g
        values.append(gain / ideal)
    if not values:
        raise ValidationError("no labeled queries to evaluate")
    return sum(values) / len(values)


def loop_psp_at_k(ranked_ids_per_query, labels, k):
    return _loop_ps_at_k(ranked_ids_per_query, labels, k, discounted=False)


def loop_psn_at_k(ranked_ids_per_query, labels, k):
    return _loop_ps_at_k(ranked_ids_per_query, labels, k, discounted=True)
