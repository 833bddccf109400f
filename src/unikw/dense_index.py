"""Exact and graph-based nearest-neighbor search over keyword embeddings.

All vectors are unit-normalized, so inner product and cosine coincide and
``1 - dot`` is a monotone stand-in for Euclidean distance on the sphere.

The graph index is a flat navigable graph in the manner of Vamana/DiskANN
(Subramanya et al., NeurIPS 2019): every point keeps at most
``max_degree`` diverse out-neighbors chosen by beam search plus robust
pruning, with reciprocal edges re-pruned on overflow.  Construction runs
two passes over a seeded random order (slack 1.0, then the configured
slack), which noticeably tightens recall.  Points are inserted in batches,
as in ParlayANN (Manohar et al., PPoPP 2024): the first pass's batches
double in size from 1 up to ``_MAX_BATCH_FRACTION`` of the rows, the
second pass uses that cap throughout.  Every point of a batch searches the
graph as it stood when the batch started, all of them in one array beam
search; their candidate lists are pruned in one batched robust prune; the
reverse edges are grouped by target with one sort, and only targets that
overflow are pruned again.  Query search is best-first and expands up to
``_SEARCH_BEAM`` rows per step, the beam width W of DiskANN's search.

The robust-prune rule keeps the closest remaining candidate ``c`` and
then discards every candidate ``v`` with ``slack * dist(c, v) <=
dist(point, v)``: neighbors must either be close to the point or point in
a direction not already covered.  Rows with identical vectors cannot be
told apart by that rule (a copy of the point covers every direction), so
they form a group: a row never takes a row of its own group as a pruned
neighbor, and instead keeps one edge to the next row of its group.

Everything here fits in memory; keyword catalogs at this scale do not
need external storage, and the algorithmic content is unchanged by
residency.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fileio import frame, read_file, take, unframe, unpack_at, write_file

EXACT = "exact"
GRAPH = "graph"

_EMB_MAGIC = b"KEMB"
_GRAPH_MAGIC = b"KGRA"
_VERSION = 2

DEFAULT_MAX_DEGREE = 32
DEFAULT_BUILD_WIDTH = 64
DEFAULT_SEARCH_WIDTH = 100
DEFAULT_PRUNE_SLACK = 1.2


@dataclass
class DenseIndex:
    kind: str
    vectors: np.ndarray            # (N, d) float32, unit rows
    ids: np.ndarray                # (N,) int64 keyword ids
    offsets: np.ndarray | None = None    # graph CSR offsets, int64 (N+1,)
    neighbors: np.ndarray | None = None  # graph CSR neighbor rows, int32
    entry: int = 0
    max_degree: int = DEFAULT_MAX_DEGREE
    build_width: int = DEFAULT_BUILD_WIDTH
    prune_slack: float = DEFAULT_PRUNE_SLACK

    def __len__(self) -> int:
        return len(self.vectors)


_NORMALIZE_BLOCK = 1 << 16  # values per float64 block: 512 KiB of temporaries


def _normalize(vectors: np.ndarray) -> np.ndarray:
    """Unit float32 rows, each divided by its float64 norm.

    Rows are done a block at a time, so the float64 temporaries stay small
    however many rows there are; each row's result does not depend on the
    block it falls in."""
    vectors = np.asarray(vectors)
    if vectors.ndim != 2:
        raise ValidationError("vectors must be a 2-d array")
    out = np.empty(vectors.shape, dtype=np.float32)
    step = max(1, _NORMALIZE_BLOCK // max(1, vectors.shape[1]))
    for start in range(0, len(vectors), step):
        block = np.asarray(vectors[start:start + step], dtype=np.float64)
        norms = np.linalg.norm(block, axis=1)
        if (norms < 1e-12).any():
            bad = start + int(np.flatnonzero(norms < 1e-12)[0])
            raise ValidationError(f"zero vector at row {bad} cannot be normalized")
        rows = out[start:start + step]
        rows[:] = block / norms[:, None]
        # Renormalize in float32 so stored rows are unit within float32 eps.
        rows /= np.linalg.norm(rows, axis=1)[:, None]
    return out


def _check_ids(vectors: np.ndarray, ids) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if len(ids) != len(vectors):
        raise ValidationError("ids and vectors disagree on length")
    # A sort and a neighbour compare: np.unique took ~30 ms at 100k ids
    # (numpy 2.4), a sizeable share of loading a bundle; this takes ~1 ms.
    ordered = np.sort(ids)
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValidationError("duplicate ids")
    return ids


def build_exact(vectors, ids) -> DenseIndex:
    """Exhaustive-scan index; the ground-truth oracle for the graph kind."""
    vectors = _normalize(vectors)
    return DenseIndex(kind=EXACT, vectors=vectors, ids=_check_ids(vectors, ids))


_BEAM_WIDTH = 4              # candidates each point expands per build search step
_SEARCH_BEAM = 32            # candidates a query expands per search step
_MAX_BATCH_FRACTION = 0.02   # the largest insertion batch, as a share of the rows
_PRUNE_BLOCK = 1 << 21       # pairwise distances per prune chunk: 8 MiB of float32


def _row_distances(vectors: np.ndarray, rows: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``1 - vectors[rows[i]] . vectors[points[i]]`` for every i, in float32.

    ``einsum`` does each pair with the same operations, so identical rows
    are equally far from a point."""
    return 1.0 - np.einsum("ij,ij->i", vectors[rows], vectors[points])


_PAD = np.uint64(2**64 - 1)   # an empty slot of a build search list
_ROW_MASK = np.uint64(2**31 - 1)


def _list_keys(dists: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """One uint64 per (distance, row) that sorts as the pair does.

    The high 32 bits are the float32 distance mapped to an unsigned integer
    of the same order, the next 31 the row; the lowest bit is set while the
    row is unexpanded."""
    bits = np.ascontiguousarray(dists, dtype=np.float32).view(np.uint32)
    ordered = np.where(bits >> 31, ~bits, bits | np.uint32(2**31)).astype(np.uint64)
    return ordered << np.uint64(32) | rows.astype(np.uint64) << np.uint64(1) | np.uint64(1)


def _search_batch(
    vectors: np.ndarray, adj: np.ndarray, start: int, points: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Beam search from ``start`` for every row of ``points`` at once.

    ``adj`` is the build graph, one row of neighbours per node padded with
    -1.  Each point keeps a list of its ``width`` closest rows found, by
    (distance, row), as sorted ``_list_keys``.  A step expands up to
    ``_BEAM_WIDTH`` of each point's closest unexpanded rows: one gather of
    their neighbour rows, one distance call for the neighbours not yet in
    the list, one sort to merge them in.  A point is done when every row in
    its list is expanded.  Returns the expanded rows as ``(owner, row)``
    pairs, ``owner`` an index into ``points``."""
    degree = adj.shape[1]
    lists = np.full((len(points), width), _PAD, dtype=np.uint64)
    starts = np.full(len(points), start)
    lists[:, 0] = _list_keys(_row_distances(vectors, starts, points), starts)
    owners: list[np.ndarray] = []
    expanded: list[np.ndarray] = []
    live = np.arange(len(points))
    while True:
        keys = lists[live]
        open_ = (keys & np.uint64(1) == 1) & (keys != _PAD)
        rank = np.cumsum(open_, axis=1)
        pick = open_ & (rank <= _BEAM_WIDTH)
        busy = pick.any(axis=1)
        if not busy.all():
            live, keys, pick, rank = live[busy], keys[busy], pick[busy], rank[busy]
        if not len(live):
            break
        r, c = np.nonzero(pick)
        keys[r, c] -= np.uint64(1)
        nodes = (keys[r, c] >> np.uint64(1) & _ROW_MASK).astype(np.int64)
        owners.append(live[r])
        expanded.append(nodes)

        fresh = np.full((len(live), _BEAM_WIDTH, degree), -1, dtype=np.int64)
        fresh[r, rank[r, c] - 1] = adj[nodes]
        # Sort the rows in the list and the fresh ones together, a list row
        # first: a fresh row is new if it is neither in the list nor repeated.
        in_list = (keys >> np.uint64(1) & _ROW_MASK).astype(np.int64)
        found = np.concatenate([in_list * 2, fresh.reshape(len(live), -1) * 2 + 1], axis=1)
        found.sort(axis=1)
        new = (found & 1 == 1) & (found >= 0)
        new[:, 1:] &= found[:, 1:] >> 1 != found[:, :-1] >> 1
        nr, nc = np.nonzero(new)
        rows = found[nr, nc] >> 1
        merged = np.full(found.shape, _PAD, dtype=np.uint64)
        merged[nr, nc] = _list_keys(_row_distances(vectors, rows, points[live[nr]]), rows)
        merged = np.concatenate([keys, merged], axis=1)
        merged.sort(axis=1)
        lists[live] = merged[:, :width]
    if not owners:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(owners), np.concatenate(expanded)


def _robust_prune(
    vectors: np.ndarray,
    points: np.ndarray,
    owners: np.ndarray,
    candidates: np.ndarray,
    slack: float,
    limits: np.ndarray,
    groups: np.ndarray,
) -> np.ndarray:
    """Robust prune for many points at once.

    ``candidates[j]`` is offered as a neighbour of ``points[owners[j]]``;
    offers may repeat and may include the point.  Row i of the result holds
    at most ``limits[i]`` kept rows for ``points[i]``, padded with -1.  Per
    point: drop repeats and every row whose ``groups`` label is the point's
    (the point itself included), order the rest by (distance, row), then keep the
    closest survivor ``c`` and drop every ``v`` with
    ``slack * dist(c, v) <= dist(point, v)``, until none survive or the
    limit is reached.  The candidate lists are padded to one width and
    their pairwise distances come from one batched ``matmul``, a chunk of
    points at a time, so each kill step is one array operation.
    """
    points = np.asarray(points, dtype=np.int64)
    out = np.full((len(points), int(limits.max(initial=0))), -1, dtype=np.int64)
    owners = np.asarray(owners, dtype=np.int64)
    candidates = np.asarray(candidates, dtype=np.int64)
    other = groups[candidates] != groups[points[owners]]
    pairs = np.sort(owners[other] * len(vectors) + candidates[other])
    if not len(pairs):
        return out
    pairs = pairs[np.r_[True, pairs[1:] != pairs[:-1]]]  # drop repeats
    owners, candidates = np.divmod(pairs, len(vectors))
    dists = _row_distances(vectors, candidates, points[owners])
    order = np.lexsort((candidates, dists, owners))
    owners, candidates, dists = owners[order], candidates[order], dists[order]
    counts = np.bincount(owners, minlength=len(points))
    col = np.arange(len(owners)) - (np.cumsum(counts) - counts)[owners]
    width = int(counts.max())
    cand = np.full((len(points), width), -1, dtype=np.int64)
    cand[owners, col] = candidates
    dist = np.full((len(points), width), np.inf, dtype=np.float32)
    dist[owners, col] = dists

    chunk = max(1, _PRUNE_BLOCK // (width * width))
    for lo in range(0, len(points), chunk):
        rows = cand[lo:lo + chunk]
        block = vectors[np.maximum(rows, 0)]
        pairwise = 1.0 - block @ block.transpose(0, 2, 1)
        alive = rows >= 0
        kept = np.zeros(len(rows), dtype=np.int64)
        for _ in range(out.shape[1]):
            live = np.flatnonzero(alive.any(axis=1) & (kept < limits[lo:lo + chunk]))
            if not len(live):
                break
            best = alive[live].argmax(axis=1)
            out[lo + live, kept[live]] = rows[live, best]
            kept[live] += 1
            alive[live] &= slack * pairwise[live, best] > dist[lo + live]
            alive[live, best] = False
    return out


def _set_rows(adj: np.ndarray, points: np.ndarray, rows: np.ndarray) -> None:
    adj[points, :rows.shape[1]] = rows
    adj[points, rows.shape[1]:] = -1


def _add_reverse_edges(
    vectors: np.ndarray,
    adj: np.ndarray,
    points: np.ndarray,
    slack: float,
    limits: np.ndarray,
    groups: np.ndarray,
) -> None:
    """Link every new neighbour of ``points`` back to its point.

    The (target, source) pairs are grouped by target with one sort.  A
    target with room for its new sources gets them in one scatter; the
    rest are re-pruned, all at once, over their old and new neighbours."""
    rows = adj[points]
    has = rows >= 0
    targets = rows[has].astype(np.int64)
    sources = np.broadcast_to(points[:, None], rows.shape)[has]
    absent = ~(adj[targets] == sources[:, None]).any(axis=1)
    targets, sources = targets[absent], sources[absent]
    order = np.lexsort((sources, targets))
    targets, sources = targets[order], sources[order]
    uniq, first, count = np.unique(targets, return_index=True, return_counts=True)
    degree = (adj[uniq] >= 0).sum(axis=1)
    fits = degree + count <= limits[uniq]
    pair_fits = np.repeat(fits, count)
    col = np.repeat(degree, count) + np.arange(len(targets)) - np.repeat(first, count)
    adj[targets[pair_fits], col[pair_fits]] = sources[pair_fits]

    over = uniq[~fits]
    if len(over):
        old = adj[over]
        keep = old >= 0
        owner_of = np.repeat(np.arange(len(over)), count[~fits])
        owners = np.concatenate([np.nonzero(keep)[0], owner_of])
        cands = np.concatenate([old[keep], sources[~pair_fits]])
        _set_rows(adj, over, _robust_prune(vectors, over, owners, cands, slack, limits[over], groups))


def _batch_bounds(n: int, doubling: bool) -> list[int]:
    """Batch boundaries over ``order``: sizes 1, 2, 4, ... up to the cap
    when ``doubling``, else the cap throughout."""
    cap = max(1, int(n * _MAX_BATCH_FRACTION))
    bounds, size = [0], 1 if doubling else cap
    while bounds[-1] < n:
        bounds.append(min(n, bounds[-1] + size))
        size = min(2 * size, cap)
    return bounds


def _check_graph_params(max_degree: int, build_width: int, prune_slack: float) -> None:
    if max_degree < 2:
        raise ValidationError("max_degree must be >= 2")
    if build_width < max_degree:
        raise ValidationError("build_width must be >= max_degree")
    if not (prune_slack >= 1.0 and np.isfinite(prune_slack)):
        raise ValidationError(f"prune_slack must be a finite number >= 1, not {prune_slack}")


def build_graph(
    vectors,
    ids,
    max_degree: int = DEFAULT_MAX_DEGREE,
    build_width: int = DEFAULT_BUILD_WIDTH,
    prune_slack: float = DEFAULT_PRUNE_SLACK,
    seed: int = 0,
) -> DenseIndex:
    """Two-pass batched graph construction (see module docstring).

    The same vectors, parameters and ``seed`` give the same graph.  Beyond
    the graph itself, a batch's work arrays grow with the batch size times
    ``build_width`` times ``max_degree``, never with the number of rows."""
    _check_graph_params(max_degree, build_width, prune_slack)
    vectors = _normalize(vectors)
    ids = _check_ids(vectors, ids)
    n = len(vectors)
    if n == 0:
        return DenseIndex(
            kind=GRAPH, vectors=vectors, ids=ids,
            offsets=np.zeros(1, dtype=np.int64), neighbors=np.empty(0, dtype=np.int32),
            entry=0, max_degree=max_degree, build_width=build_width, prune_slack=prune_slack,
        )

    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    medoid = int(np.argmax(vectors @ (vectors.mean(axis=0))))
    # Rows with identical vectors form a group (+0.0 folds -0.0 into 0.0).
    _, groups = np.unique(vectors + np.float32(0), axis=0, return_inverse=True)
    groups = groups.ravel()
    copies = np.bincount(groups)[groups] > 1
    limits = max_degree - copies.astype(np.int64)  # a slot for the ring edge

    adj = np.full((n, max_degree), -1, dtype=np.int32)
    for slack, start, doubling in ((1.0, int(order[0]), True), (prune_slack, medoid, False)):
        bounds = _batch_bounds(n, doubling)
        for lo, hi in zip(bounds, bounds[1:]):
            points = order[lo:hi]
            owners, expanded = _search_batch(vectors, adj, start, points, build_width)
            current = adj[points]
            has = current >= 0
            owners = np.concatenate([owners, np.nonzero(has)[0]])
            candidates = np.concatenate([expanded, current[has]])
            kept = _robust_prune(vectors, points, owners, candidates, slack, limits[points], groups)
            _set_rows(adj, points, kept)
            _add_reverse_edges(vectors, adj, points, slack, limits, groups)

    # Each row of a group links to the next row of its group, cyclically.
    by_group = np.argsort(groups, kind="stable")
    group_of = groups[by_group]
    successor = np.where(
        np.roll(group_of, -1) == group_of,
        np.roll(by_group, -1),
        by_group[np.searchsorted(group_of, group_of)],
    )
    linked = copies[by_group]
    rows = by_group[linked]
    adj[rows, (adj[rows] >= 0).sum(axis=1)] = successor[linked]

    adj = np.sort(np.where(adj < 0, n, adj), axis=1)
    degrees = (adj < n).sum(axis=1)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    return DenseIndex(
        kind=GRAPH,
        vectors=vectors,
        ids=ids,
        offsets=offsets,
        neighbors=adj[adj < n].astype(np.int32),
        entry=medoid,
        max_degree=max_degree,
        build_width=build_width,
        prune_slack=prune_slack,
    )


def _greedy_search(
    index: DenseIndex, query: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Best-first search from the entry point over the CSR graph.

    The list holds the ``width`` closest rows found as sorted ``_list_keys``;
    each step expands its first ``_SEARCH_BEAM`` unexpanded rows, until none
    is left.  ``einsum`` makes identical rows equally far from the query.
    Returns the rows of the list and the rows expanded, in order."""
    query, keys = query.astype(np.float32), np.empty(0, dtype=np.uint64)
    fresh, unseen = np.array([index.entry]), np.ones(len(index), dtype=bool)
    expanded: list[np.ndarray] = []
    while True:
        unseen[fresh] = False
        dists = 1.0 - np.einsum("ij,j->i", index.vectors.take(fresh, axis=0), query)
        keys = np.sort(np.concatenate([keys, _list_keys(dists, fresh)]))[:width]
        pick = np.nonzero(keys & np.uint64(1))[0][:_SEARCH_BEAM]
        if not len(pick):
            return (keys >> np.uint64(1) & _ROW_MASK).astype(np.int64), np.concatenate(expanded)
        keys[pick] -= np.uint64(1)
        nodes = (keys[pick] >> np.uint64(1) & _ROW_MASK).astype(np.int64)
        expanded.append(nodes)
        lo, deg = index.offsets[nodes], index.offsets[nodes + 1] - index.offsets[nodes]
        fresh = index.neighbors[np.repeat(lo - np.cumsum(deg) + deg, deg) + np.arange(deg.sum())]
        fresh = np.sort(fresh[unseen[fresh]])
        first = np.ones(len(fresh), dtype=bool)  # drop repeats: keep a row's first copy
        np.not_equal(fresh[1:], fresh[:-1], out=first[1:])
        fresh = fresh[first]


def _float32_dot_error(dim: int) -> float:
    """Bound on ``|fl32(x . q) - x . q|`` for unit rows ``x`` and unit ``q``.

    With unit roundoff ``u = 2**-24`` and ``gamma_m = m*u / (1 - m*u)``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 3.1): a
    float32 dot product of length ``d``, summed in any order, with or
    without fused multiply-adds, is off by at most ``gamma_d * |x| |q32|``.
    Rounding the float64 query to float32 moves each product by at most
    ``u |x_i q_i|``, so by at most ``u |x| |q|`` in all.  With ``|x|`` and
    ``|q|`` unit to within float rounding, the two sum to at most
    ``gamma_{d+1}`` to first order.  Taking ``gamma_{d+2}`` leaves ``2u``
    of slack in ``search``'s margin of twice this bound: ``u`` for the
    float32 rounding of the threshold ``kth - margin``, the rest for the
    second-order terms and the float64 rounding of the rescored scores,
    which is below ``d * 2**-53``.
    """
    m = (dim + 2) * 2.0**-24
    return m / (1.0 - m)


def _rescore(
    index: DenseIndex, rows: np.ndarray, query: np.ndarray, k: int
) -> list[tuple[int, float]]:
    """The best ``k`` of ``rows`` by float64 score, ties broken by id.

    ``einsum`` scores each row with the same sequence of operations
    wherever it sits, so identical rows get identical scores.  A BLAS
    matrix-vector product does not promise that: it treats the last few
    rows of a matrix with other kernels, whose sums round differently.
    """
    scores = np.einsum("ij,j->i", index.vectors[rows].astype(np.float64), query)
    ids = index.ids[rows]
    top = np.lexsort((ids, -scores))[:k]
    return list(zip(ids[top].tolist(), scores[top].tolist()))


def search(
    index: DenseIndex,
    query: np.ndarray,
    k: int,
    search_width: int | None = None,
) -> list[tuple[int, float]]:
    """Top-k ``(keyword id, inner-product score)``, ties broken by id.

    Empty indexes return no results; otherwise ``k`` may not exceed the
    index size.  For graph indexes ``search_width`` (default 100) bounds
    the best-first candidate list, and is widened to ``k`` if smaller.

    Both kinds report float64 scores from ``_rescore``, the graph kind for
    its whole candidate list, so both break ties by id.  The exact kind
    finds its candidates with one float32 scan: every row whose float32
    score is within ``2 * _float32_dot_error(d)`` of the k-th best float32
    score is rescored, so no row of the float64 top k is missed.  If row
    ``j`` is dropped, its float32 score is more than twice the error bound
    below that of each of the k best float32 rows, so its true score is
    below each of theirs, and by more than the float64 rounding of either.
    """
    n = len(index)
    if n == 0:
        return []
    if k < 1 or k > n:
        raise ValidationError(f"k={k} out of range for index of {n}")
    query = np.asarray(query, dtype=np.float64).ravel()
    norm = np.linalg.norm(query)
    if not 1e-12 <= norm < np.inf:
        raise ValidationError("query vector must be non-zero and finite")
    query = query / norm

    if index.kind == EXACT:
        scores = index.vectors @ query.astype(np.float32)
        kth = np.partition(scores, n - k)[n - k]
        margin = 2 * _float32_dot_error(index.vectors.shape[1])
        return _rescore(index, np.flatnonzero(scores >= kth - margin), query, k)

    width = max(DEFAULT_SEARCH_WIDTH if search_width is None else search_width, k)
    return _rescore(index, _greedy_search(index, query, width)[0], query, k)


def cluster_keywords(vectors, ids, similarity_threshold: float) -> dict[int, int]:
    """Greedy leader clustering in ascending id order.

    Each keyword joins the first (earliest-created) representative whose
    inner product reaches the threshold, else becomes a representative
    itself.  Representatives map to themselves; the map is total and
    idempotent.
    """
    if not 0.0 < similarity_threshold <= 1.0:
        raise ValidationError("similarity_threshold must be in (0, 1]")
    vectors = _normalize(vectors)
    ids = _check_ids(vectors, ids)
    order = np.argsort(ids)
    rep_rows = np.empty((len(vectors), vectors.shape[1]), dtype=np.float32)
    rep_ids: list[int] = []
    mapping: dict[int, int] = {}
    for row in order:
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


def save_embeddings(path, vectors: np.ndarray, ids: np.ndarray) -> None:
    """KEMB file: a ``fileio`` frame (version 2, BLAKE2b-64 footer) around
    u64 row count, u32 width, float32 row-major vectors and u64 ids."""
    vectors = np.ascontiguousarray(vectors, dtype="<f4")
    ids = np.ascontiguousarray(ids, dtype="<u8")
    body = struct.pack("<QI", *vectors.shape) + vectors.tobytes() + ids.tobytes()
    write_file(path, frame(_EMB_MAGIC, _VERSION, body))


def load_embeddings(path) -> tuple[np.ndarray, np.ndarray]:
    payload = unframe(read_file(path), _EMB_MAGIC, _VERSION, "embeddings")
    (n, dim), pos = unpack_at("<QI", payload, 0)
    raw, pos = take(payload, pos, n * dim * 4)
    vectors = np.frombuffer(raw, dtype="<f4").reshape(n, dim).copy()
    raw, pos = take(payload, pos, n * 8)
    ids = np.frombuffer(raw, dtype="<u8").astype(np.int64)
    if pos != len(payload):
        raise ValidationError("corrupt embeddings file: trailing bytes")
    return vectors, ids


def save_graph(path, index: DenseIndex) -> None:
    """KGRA file: a ``fileio`` frame (version 2, BLAKE2b-64 footer) around
    build params, entry point and the adjacency CSR."""
    if index.kind != GRAPH:
        raise ValidationError("only graph indexes have a graph file")
    header = struct.pack(
        "<QIIdQ", len(index), index.max_degree, index.build_width, index.prune_slack, index.entry
    )
    offsets = np.ascontiguousarray(index.offsets, dtype="<i8").tobytes()
    neighbors = np.ascontiguousarray(index.neighbors, dtype="<i4").tobytes()
    write_file(path, frame(_GRAPH_MAGIC, _VERSION, header + offsets + neighbors))


def load_graph(path, vectors: np.ndarray, ids: np.ndarray) -> DenseIndex:
    """Rehydrate a graph index from its file plus the embeddings it indexes."""
    payload = unframe(read_file(path), _GRAPH_MAGIC, _VERSION, "graph")
    (n, max_degree, build_width, prune_slack, entry), pos = unpack_at("<QIIdQ", payload, 0)
    if n != len(vectors):
        raise ValidationError("graph file does not match embeddings")
    raw, pos = take(payload, pos, (n + 1) * 8)
    offsets = np.frombuffer(raw, dtype="<i8").astype(np.int64)
    degrees = np.diff(offsets)
    if offsets[0] != 0 or np.any(degrees < 0):
        raise ValidationError("corrupt graph file: offsets must start at 0 and not decrease")
    if len(degrees) and degrees.max() > max_degree:
        raise ValidationError(f"corrupt graph file: a node has more than {max_degree} neighbors")
    if entry >= max(n, 1):  # an empty graph keeps entry 0
        raise ValidationError(f"corrupt graph file: entry point {entry} outside {n} nodes")
    raw, pos = take(payload, pos, int(offsets[-1]) * 4)
    neighbors = np.frombuffer(raw, dtype="<i4").astype(np.int32)
    if pos != len(payload):
        raise ValidationError("corrupt graph file: trailing bytes")
    if len(neighbors) and (neighbors.min() < 0 or neighbors.max() >= n):
        raise ValidationError(f"corrupt graph file: neighbor id outside [0, {n})")
    _check_graph_params(max_degree, build_width, prune_slack)
    return DenseIndex(
        kind=GRAPH,
        vectors=np.asarray(vectors, dtype=np.float32),
        ids=_check_ids(vectors, ids),
        offsets=offsets,
        neighbors=neighbors,
        entry=int(entry),
        max_degree=max_degree,
        build_width=build_width,
        prune_slack=prune_slack,
    )
