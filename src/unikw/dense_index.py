"""Exact and graph-based nearest-neighbor search over keyword embeddings.

All vectors are unit-normalized, so inner product and cosine coincide and
``1 - dot`` is a monotone stand-in for Euclidean distance on the sphere.

The graph index is a flat navigable graph in the manner of Vamana/DiskANN
(Subramanya et al., NeurIPS 2019): every point keeps at most
``max_degree`` diverse out-neighbors chosen by beam search plus robust
pruning, with reciprocal edges re-pruned on overflow.  Construction is one
pass at the configured slack over a seeded random order, without DiskANN's
first pass at slack 1.0: on graph5k's trained rows that cut the build by a
third to a half and kept recall against the exact scan (recall@10 1.0,
recall@100 0.99927 over its 150 queries; 0.99913 with the first pass).
Batches, as in ParlayANN (Manohar et al., PPoPP 2024), double from 1 row
up to ``_MAX_BATCH_FRACTION`` of the rows, then stay there.  A batch's
points search the graph as it stood when the batch started, from the first
row inserted, in one array beam search; their candidate lists are pruned
in one batched robust prune; the reverse edges are grouped by target with
one sort, and only targets that overflow are pruned again.  Query search
starts at the medoid, is best-first and expands up to ``_SEARCH_BEAM``
rows per step, DiskANN's beam width W; one array search serves a batch of
queries, each taking the steps it would take alone.

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


def _normalize(vectors: np.ndarray) -> np.ndarray:
    """New, aligned float32 unit rows: the rows every index serves.

    A row whose float32 value ``x`` is unit within float32 rounding,
    ``|x.x - 1| <= 4 * _float32_dot_error(d)`` summed in float64, keeps
    that value; so does every row ``index`` writes.  Any other row is
    divided by its float64 norm, rounded to float32 and divided by its
    float32 norm, each row on its own."""
    vectors = np.asarray(vectors)
    if vectors.ndim != 2:
        raise ValidationError("vectors must be a 2-d array")
    out = np.array(vectors, dtype=np.float32)
    gap = np.einsum("ij,ij->i", out, out, dtype=np.float64)
    gap -= 1  # in place: the kept rows' only temporary is one float64 each
    off = np.flatnonzero(~(np.abs(gap, out=gap) <= 4 * _float32_dot_error(out.shape[1])))
    rows = vectors[off].astype(np.float64)
    norms = np.linalg.norm(rows, axis=1)
    usable = (norms >= 1e-12) & (norms < np.inf)  # NaN fails both
    if not usable.all():
        bad = int(np.flatnonzero(~usable)[0])
        what = "zero vector" if norms[bad] < 1e-12 else "vector with a non-finite norm"
        raise ValidationError(f"{what} at row {off[bad]} cannot be normalized")
    rows = (rows / norms[:, None]).astype(np.float32)
    out[off] = rows / np.linalg.norm(rows, axis=1)[:, None]
    return out


def _check_ids(vectors: np.ndarray, ids) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if len(ids) != len(vectors):
        raise ValidationError("ids and vectors disagree on length")
    # Ascending ids, as ``index`` writes them, are unique without a sort
    # (~1 ms at 100k ids); others are sorted and neighbours compared.
    if np.all(ids[1:] > ids[:-1]):
        return ids
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
_SIGN = np.int32(-2**31)


def _list_keys(dists: np.ndarray, rows: np.ndarray, row_bits: int = 31) -> np.ndarray:
    """One uint64 per (distance, row) that sorts as the pair does.

    Bits ``row_bits + 1`` to ``row_bits + 32`` hold the float32 distance
    mapped to an unsigned integer of the same order, the ``row_bits`` below
    them the row; the lowest bit is set while the row is unexpanded.  The
    bits above are free for a query search's query (``_graph_search``)."""
    bits = np.ascontiguousarray(dists, dtype=np.float32).view(np.int32)
    # A negative distance has every bit flipped, any other its sign bit set.
    ordered = (bits ^ (bits >> 31 | _SIGN)).view(np.uint32).astype(np.uint64)
    return ordered << np.uint64(row_bits + 1) | rows.astype(np.uint64) << np.uint64(1) | np.uint64(1)


def _first_of_each(keys: np.ndarray, shift: np.uint64, count: int, size: int):
    """Where the first ``size`` keys of each of ``count`` queries sit in
    ``keys``, sorted with the query in the bits from ``shift`` up: a mask,
    or a slice when there is one query."""
    if count == 1:
        return slice(size)
    query = keys >> shift
    return np.arange(len(keys)) - query.searchsorted(query) < size


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


def _batch_bounds(n: int) -> list[int]:
    """Batch boundaries over ``order``: sizes 1, 2, 4, ... up to the cap,
    ``_MAX_BATCH_FRACTION`` of the rows, then the cap."""
    cap = max(1, int(n * _MAX_BATCH_FRACTION))
    bounds, size = [0], 1
    while bounds[-1] < n:
        bounds.append(min(n, bounds[-1] + size))
        size = min(2 * size, cap)
    return bounds


def _check_graph_params(max_degree: int, build_width: int, prune_slack: float) -> None:
    if max_degree < 2:
        raise ValidationError("max_degree must be >= 2")
    if not max_degree <= build_width < 2**32:  # the KGRA header holds both as u32
        raise ValidationError(f"build_width must be >= max_degree and < 2**32, not {build_width}")
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
    """One-pass batched graph construction (see module docstring).

    The same vectors, parameters and ``seed`` give the same graph.  Beyond
    the graph itself, a batch's work arrays grow with the batch size times
    ``build_width`` times ``max_degree``, never with the number of rows."""
    _check_graph_params(max_degree, build_width, prune_slack)
    vectors = _normalize(vectors)
    ids = _check_ids(vectors, ids)
    n = len(vectors)
    order = np.random.default_rng(seed).permutation(n)
    medoid = int(np.argmax(vectors @ vectors.mean(axis=0))) if n else 0  # an empty graph's entry
    # Rows with identical vectors form a group (+0.0 folds -0.0 into 0.0).
    _, groups = np.unique(vectors + np.float32(0), axis=0, return_inverse=True)
    groups = groups.ravel()
    copies = np.bincount(groups)[groups] > 1
    # Arrays wider than n rows would only hold padding.
    degree, width = min(max_degree, n), min(build_width, n)
    limits = degree - copies.astype(np.int64)  # a slot for the ring edge

    adj = np.full((n, degree), -1, dtype=np.int32)
    bounds = _batch_bounds(n)
    # A search reaches only inserted rows, so a row has no edges before its
    # batch: its candidates are the rows its search expanded.
    for lo, hi in zip(bounds, bounds[1:]):
        points = order[lo:hi]
        owners, expanded = _search_batch(vectors, adj, int(order[0]), points, width)
        kept = _robust_prune(vectors, points, owners, expanded, prune_slack, limits[points], groups)
        _set_rows(adj, points, kept)
        _add_reverse_edges(vectors, adj, points, prune_slack, limits, groups)

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


def _row_bits(n: int) -> int:
    """Bits a row number below ``n`` needs, at least one."""
    return max(int(n - 1).bit_length(), 1)


def _graph_search(
    index: DenseIndex, queries: np.ndarray, width: int
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Best-first search from the entry point over the CSR graph, for every
    row of ``queries`` (float32, unit) at once.

    Each query keeps a list of the ``width`` closest rows found; each step
    expands the first ``_SEARCH_BEAM`` unexpanded rows of every list, until
    no list has one left.  All lists live in one sorted 1-D array of keys:
    ``_list_keys`` with the query's index in the bits above the distance,
    so one sort merges every query's new rows into its list and a
    ``searchsorted`` on the query bits finds where each list starts.  A
    query's steps are those it would take alone.  A neighbour is new to a
    query if its (query, row) cell of the unseen mask is set, and repeats
    go with one sort of the cells.  ``einsum`` makes identical rows equally
    far from a query.  The query bits hold ``2**(31 - row bits)`` queries;
    ``search_batch`` passes no more.  A lone query skips the owner
    bookkeeping, so ``search`` pays next to nothing for the batch: its cells
    are its rows, its keys have no query bits, and its ``einsum`` sums each
    row as the batch's does.

    Returns each query's list rows, by (distance, row), and the rows
    expanded as ``(owner, row)`` arrays in the order of expansion."""
    n, count = len(index), len(queries)
    many = count > 1
    row_bits = _row_bits(n)
    row_mask, shift, one = np.uint64((1 << row_bits) - 1), np.uint64(row_bits + 33), np.uint64(1)
    owners, fresh = np.arange(count), np.full(count, index.entry)
    high = owners.astype(np.uint64) << shift  # each query's bits of a key
    unseen = np.ones(count * n, dtype=bool)  # cell owner * n + row
    unseen[owners * n + fresh] = False
    keys = np.empty(0, dtype=np.uint64)
    expanded_owners: list[np.ndarray] = []
    expanded: list[np.ndarray] = []
    while True:
        near = index.vectors.take(fresh, axis=0)
        if many:
            dists = 1.0 - np.einsum("ij,ij->i", near, queries.take(owners, axis=0))
        else:
            dists = 1.0 - np.einsum("ij,j->i", near, queries[0])
        found = _list_keys(dists, fresh, row_bits)
        if many:
            found |= high.take(owners)
        keys = np.sort(np.concatenate([keys, found]))
        keys = keys[_first_of_each(keys, shift, count, width)]
        pick = np.flatnonzero(keys & one)
        pick = pick[_first_of_each(keys[pick], shift, count, _SEARCH_BEAM)]
        if not len(pick):
            break
        picked = keys[pick] - one
        keys[pick] = picked
        nodes = (picked >> one & row_mask).astype(np.int64)
        expanded.append(nodes)
        lo, deg = index.offsets[nodes], index.offsets[nodes + 1] - index.offsets[nodes]
        cells = index.neighbors[np.repeat(lo - np.cumsum(deg) + deg, deg) + np.arange(deg.sum())]
        if many:
            owner = (picked >> shift).astype(np.int64)
            expanded_owners.append(owner)
            cells = np.repeat(owner * n, deg) + cells
        cells = np.sort(cells[unseen[cells]])
        first = np.ones(len(cells), dtype=bool)  # drop repeats: keep a cell's first copy
        np.not_equal(cells[1:], cells[:-1], out=first[1:])
        cells = cells[first]
        unseen[cells] = False
        owners, fresh = np.divmod(cells, n) if many else (None, cells)
    rows, expanded = (keys >> one & row_mask).astype(np.int64), np.concatenate(expanded)
    if not many:
        return [rows], np.zeros_like(expanded), expanded
    bounds = np.arange(1, count, dtype=np.uint64) << shift
    return np.split(rows, np.searchsorted(keys, bounds)), np.concatenate(expanded_owners), expanded


def _greedy_search(
    index: DenseIndex, query: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """``_graph_search`` of one float64 unit query: its list rows and the
    rows expanded, in order."""
    lists, _, expanded = _graph_search(index, query.astype(np.float32)[None], width)
    return lists[0], expanded


def _float32_dot_error(dim: int) -> float:
    """Bound on ``|fl32(x . q) - x . q|`` for unit rows ``x`` and unit ``q``.

    With unit roundoff ``u = 2**-24`` and ``gamma_m = m*u / (1 - m*u)``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 3.1): a
    float32 dot product of length ``d``, summed in any order, with or
    without fused multiply-adds, is off by at most ``gamma_d * |x| |q32|``.
    Rounding the float64 query to float32 moves each product by at most
    ``u |x_i q_i|``, so by at most ``u |x| |q|`` in all.  With ``|q|`` unit
    to within float rounding and ``|x|`` within ``2 gamma_{d+2}`` of 1
    (``_normalize``), the two sum to at most ``gamma_{d+1}`` to first order.
    Taking ``gamma_{d+2}`` leaves ``2u`` of slack in ``search``'s margin of
    twice this bound: ``u`` for the float32 rounding of the threshold
    ``kth - margin``, the rest for the second-order terms and the float64
    rounding of the rescored scores, which is below ``d * 2**-53``.
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


def search_batch(
    index: DenseIndex,
    queries,
    k: int,
    search_width: int = DEFAULT_SEARCH_WIDTH,
) -> list[list[tuple[int, float]]]:
    """Top-k ``(keyword id, inner-product score)`` of every row of
    ``queries``, ties broken by id; a query's hits do not depend on the
    other queries.

    Empty indexes return no results; otherwise ``k`` may not exceed the
    index size.  Each query is scaled by its own ``np.linalg.norm``, as a
    lone query is; a row norm taken along an axis can differ in the last
    bit.  For graph indexes ``search_width`` bounds each best-first
    candidate list, and is widened to ``k`` if smaller.

    Both kinds report float64 scores from ``_rescore``, one query at a
    time, the graph kind for its whole candidate list, so both break ties
    by id.  The graph kind searches for all queries in one
    ``_graph_search``, which holds one byte per (query, row) for the rows
    each query has seen; callers bound the batch (``retrieve_batch`` does).
    The exact kind scans for each query with one float32 GEMV: every row
    whose float32 score is within ``2 * _float32_dot_error(d)`` of the k-th
    best float32 score is rescored, so no row of the float64 top k is
    missed.  If row ``j`` is dropped, its float32 score is more than twice
    the error bound below that of each of the k best float32 rows, so its
    true score is below each of theirs, and by more than the float64
    rounding of either.  A (queries x rows) GEMM would only add scratch to
    a memory-bound scan.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise ValidationError("queries must be a 2-d array, one query per row")
    n = len(index)
    if n == 0:
        return [[] for _ in queries]
    if k < 1 or k > n:
        raise ValidationError(f"k={k} out of range for index of {n}")
    unit = np.empty_like(queries)
    for row, query in zip(unit, queries):
        norm = np.linalg.norm(query)
        if not 1e-12 <= norm < np.inf:
            raise ValidationError("query vector must be non-zero and finite")
        np.divide(query, norm, out=row)

    if index.kind == EXACT:
        margin = 2 * _float32_dot_error(index.vectors.shape[1])
        hits = []
        for query in unit:
            scores = index.vectors @ query.astype(np.float32)
            kth = np.partition(scores, n - k)[n - k]
            hits.append(_rescore(index, np.flatnonzero(scores >= kth - margin), query, k))
        return hits

    width, group = max(search_width, k), 1 << (31 - _row_bits(n))
    unit32 = unit.astype(np.float32)
    rows = [lst for lo in range(0, len(unit), group)
            for lst in _graph_search(index, unit32[lo:lo + group], width)[0]]
    return [_rescore(index, r, query, k) for r, query in zip(rows, unit)]


def search(
    index: DenseIndex,
    query: np.ndarray,
    k: int,
    search_width: int = DEFAULT_SEARCH_WIDTH,
) -> list[tuple[int, float]]:
    """``search_batch`` of one query: its top-k ``(keyword id, score)``."""
    return search_batch(index, np.asarray(query, dtype=np.float64).ravel()[None], k, search_width)[0]


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
    """``(vectors, ids)`` of a KEMB file.  The vectors are a read-only view
    of the file's bytes, which ``_normalize`` copies for either index kind."""
    payload = unframe(read_file(path), _EMB_MAGIC, _VERSION, "embeddings")
    (n, dim), pos = unpack_at("<QI", payload, 0)
    raw, pos = take(payload, pos, n * dim * 4)
    vectors = np.frombuffer(raw, dtype="<f4").reshape(n, dim)
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
    vectors = _normalize(vectors)
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
        vectors=vectors,
        ids=_check_ids(vectors, ids),
        offsets=offsets,
        neighbors=neighbors,
        entry=int(entry),
        max_degree=max_degree,
        build_width=build_width,
        prune_slack=prune_slack,
    )
