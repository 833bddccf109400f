"""Exact and graph-based nearest-neighbor search over keyword embeddings.

All vectors are unit-normalized, so inner product and cosine coincide and
``1 - dot`` is a monotone stand-in for Euclidean distance on the sphere.

The graph index is a flat navigable graph: every point keeps at most
``max_degree`` diverse out-neighbors chosen by greedy search plus robust
pruning, with reciprocal edges re-pruned on overflow.  Construction runs
two passes over the data (slack 1.0, then the configured slack), which
noticeably tightens recall.  Search is best-first expansion bounded by a
candidate list of ``search_width`` entries.

The robust-prune rule keeps the closest remaining candidate ``c`` and
then discards every candidate ``v`` with ``slack * dist(c, v) <=
dist(point, v)``: neighbors must either be close to the point or point in
a direction not already covered.

Everything here fits in memory; keyword catalogs at this scale do not
need external storage, and the algorithmic content is unchanged by
residency.
"""

from __future__ import annotations

import heapq
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
    if len(np.unique(ids)) != len(ids):
        raise ValidationError("duplicate ids")
    return ids


def build_exact(vectors, ids) -> DenseIndex:
    """Exhaustive-scan index; the ground-truth oracle for the graph kind."""
    vectors = _normalize(vectors)
    return DenseIndex(kind=EXACT, vectors=vectors, ids=_check_ids(vectors, ids))


def _greedy_search(
    vectors: np.ndarray,
    adjacency,
    entry: int,
    query: np.ndarray,
    width: int,
) -> tuple[list[tuple[float, int]], list[int]]:
    """Best-first search; returns (top-width [(dist, row)], visited rows)."""
    dist0 = float(1.0 - vectors[entry] @ query)
    frontier = [(dist0, entry)]          # min-heap by distance
    best = [(-dist0, entry)]             # max-heap over kept candidates
    seen = np.zeros(len(vectors), dtype=bool)
    seen[entry] = True
    visited: list[int] = []
    while frontier:
        dist, row = heapq.heappop(frontier)
        if len(best) >= width and dist > -best[0][0]:
            break
        visited.append(row)
        nbrs = np.asarray(adjacency(row))
        fresh = nbrs[~seen[nbrs]] if len(nbrs) else nbrs
        if not len(fresh):
            continue
        seen[fresh] = True
        dists = 1.0 - vectors[fresh] @ query
        for n, nd in zip(fresh.tolist(), dists.tolist()):
            if len(best) < width or nd < -best[0][0]:
                heapq.heappush(frontier, (nd, n))
                heapq.heappush(best, (-nd, n))
                if len(best) > width:
                    heapq.heappop(best)
    result = sorted((-d, r) for d, r in best)
    return result, visited


def _robust_prune(
    vectors: np.ndarray,
    point: int,
    candidates: np.ndarray,
    max_degree: int,
    slack: float,
) -> np.ndarray:
    """Keep at most ``max_degree`` diverse neighbors for ``point``.

    Iteratively adopts the closest surviving candidate c and discards
    every v with slack * dist(c, v) <= dist(point, v); one pairwise
    distance matrix up front keeps the loop allocation-free.
    """
    candidates = np.unique(candidates)
    candidates = candidates[candidates != point]
    if not len(candidates):
        return candidates.astype(np.int32)
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
    return np.array(sorted(kept), dtype=np.int32)


def build_graph(
    vectors,
    ids,
    max_degree: int = DEFAULT_MAX_DEGREE,
    build_width: int = DEFAULT_BUILD_WIDTH,
    prune_slack: float = DEFAULT_PRUNE_SLACK,
    seed: int = 0,
) -> DenseIndex:
    """Two-pass incremental graph construction (see module docstring)."""
    if max_degree < 2:
        raise ValidationError("max_degree must be >= 2")
    if build_width < max_degree:
        raise ValidationError("build_width must be >= max_degree")
    if prune_slack < 1.0:
        raise ValidationError("prune_slack must be >= 1")
    vectors = _normalize(vectors)
    ids = _check_ids(vectors, ids)
    n = len(vectors)
    adj: list[np.ndarray] = [np.empty(0, dtype=np.int32) for _ in range(n)]
    if n == 0:
        return DenseIndex(
            kind=GRAPH, vectors=vectors, ids=ids,
            offsets=np.zeros(1, dtype=np.int64), neighbors=np.empty(0, dtype=np.int32),
            entry=0, max_degree=max_degree, build_width=build_width, prune_slack=prune_slack,
        )

    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    medoid = int(np.argmax(vectors @ (vectors.mean(axis=0))))

    def connect(point: int, candidates: np.ndarray, slack: float) -> None:
        pruned = _robust_prune(vectors, point, candidates, max_degree, slack)
        adj[point] = pruned
        for nb in pruned.tolist():
            if point not in adj[nb]:
                merged = np.append(adj[nb], point)
                if len(merged) > max_degree:
                    adj[nb] = _robust_prune(vectors, nb, merged.astype(np.int64), max_degree, slack)
                else:
                    adj[nb] = np.sort(merged).astype(np.int32)

    for pass_slack in (1.0, prune_slack):
        for seen_count, point in enumerate(order):
            point = int(point)
            if pass_slack == 1.0 and seen_count == 0:
                continue  # first inserted point has nothing to link to yet
            start = int(order[0]) if pass_slack == 1.0 else medoid
            _, visited = _greedy_search(
                vectors, lambda r: adj[r], start, vectors[point].astype(np.float64), build_width
            )
            candidates = np.array(visited + adj[point].tolist(), dtype=np.int64)
            connect(point, candidates, pass_slack)

    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(a) for a in adj], out=offsets[1:])
    neighbors = np.concatenate(adj) if n else np.empty(0, dtype=np.int32)
    return DenseIndex(
        kind=GRAPH,
        vectors=vectors,
        ids=ids,
        offsets=offsets,
        neighbors=neighbors.astype(np.int32),
        entry=medoid,
        max_degree=max_degree,
        build_width=build_width,
        prune_slack=prune_slack,
    )


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
    the best-first candidate list and must be at least ``k``.

    Both kinds report float64 scores from ``_rescore``.  The exact kind
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

    width = DEFAULT_SEARCH_WIDTH if search_width is None else search_width
    width = max(width, k)

    def adjacency(row: int) -> np.ndarray:
        s, e = int(index.offsets[row]), int(index.offsets[row + 1])
        return index.neighbors[s:e]

    result, _ = _greedy_search(index.vectors, adjacency, index.entry, query, width)
    return _rescore(index, np.array([r for _, r in result[:k]], dtype=np.int64), query, k)


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
    return DenseIndex(
        kind=GRAPH,
        vectors=np.asarray(vectors, dtype=np.float32),
        ids=np.asarray(ids, dtype=np.int64),
        offsets=offsets,
        neighbors=neighbors,
        entry=int(entry),
        max_degree=max_degree,
        build_width=build_width,
        prune_slack=prune_slack,
    )
