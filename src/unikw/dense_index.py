"""Exact and graph-based nearest-neighbor search over keyword embeddings.

All vectors are unit-normalized, so inner product and cosine coincide and
``1 - dot`` is a monotone stand-in for Euclidean distance on the sphere.
Every index is a self-checking ``DenseIndex`` of rows and ids; a graph index
adds an adjacency, and ``DenseIndex.kind`` follows from whether it has one.

The graph index is a flat navigable graph in the manner of Vamana/DiskANN
(Subramanya et al., NeurIPS 2019): every point keeps at most
``_MAX_DEGREE`` diverse out-neighbors chosen by beam search plus robust
pruning, with reciprocal edges re-pruned on overflow.  Construction is one
pass at slack ``_PRUNE_SLACK`` over a seeded random order, without DiskANN's
first pass at slack 1.0: on graph5k's trained rows that cut the build by a
third to a half and kept recall against the exact scan (recall@10 1.0,
recall@100 0.99927 over its 150 queries; 0.99913 with the first pass).
Batches, as in ParlayANN (Manohar et al., PPoPP 2024), double from 1 row
up to ``_MAX_BATCH_FRACTION`` of the rows, then stay there.  As in
DiskANN, points are inserted with the search that serves queries,
``_graph_search``: a batch's points search the graph as it stood when the
batch started, from the first row inserted, expanding up to
``_BEAM_WIDTH`` rows per step; their candidate lists are pruned in one
batched robust prune; the reverse edges are grouped by target with one
sort, and only targets that overflow are pruned again.  Query search
starts at the medoid and expands up to ``_SEARCH_BEAM`` rows per step,
DiskANN's beam width W.  Either way one array search serves many
queries, each taking the steps it would take alone.

The build spends its time in array sorts, gathers and the prune's
pairwise distances, so it sorts as little and as narrow as it can: a
search step sorts only its new list keys and merges them into the
sorted lists, finds where each list starts with one ``searchsorted`` of
each query's lowest key, and keeps a group's (query, row) cells in
int32; the prune orders its (point, candidate) pairs with one stable
sort of a 64-bit key, and takes its pairwise block from one plain
batched GEMM.  Each sort orders exactly as the full sorts did, so the
graphs are the same to the byte (``_robust_prune`` says where the GEMM
could differ in the last bit); on 32k random rows of width 16 the build
took 16.7-17.0 s against 26.2-27.0 s with the full sorts (2-vCPU VM,
BLAS on one thread, in alternation).

The robust-prune rule keeps the closest remaining candidate ``c`` and
then discards every candidate ``v`` with ``_PRUNE_SLACK * dist(c, v) <=
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
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .fileio import (
    frame, read_file, read_only, read_sealed, sealed, take, unframe, unpack_at, write_file,
)

EXACT = "exact"
GRAPH = "graph"

_EMB_MAGIC = b"KEMB"
_EMB_VERSION = 3
_EMB_ROWS_AT = 8 + struct.calcsize("<QI")  # the frame's magic and version, then the header
_ROW_ALIGN = 64  # where loaded rows start: a cache line
_GRAPH_MAGIC = b"KGRA"
_GRAPH_VERSION = 5


@dataclass(frozen=True)
class DenseIndex:
    """The rows and ids search reads, plus the graph kind's adjacency.  Frozen;
    construction and every ``replace`` store the rows as ``_normalize`` gives
    them and check the ids and the adjacency.  Every array is held as a
    read-only view (``fileio.read_only``): loaded unit rows and ids view the
    buffer ``load_embeddings`` read them into, and other rows are a copy."""

    vectors: np.ndarray            # (N, d) float32, unit rows
    ids: np.ndarray                # (N,) int64 keyword ids
    offsets: np.ndarray | None = None    # graph CSR offsets, int64 (N+1,)
    neighbors: np.ndarray | None = None  # graph CSR neighbor rows, int32
    entry: int = 0

    def __post_init__(self) -> None:
        vectors, ids = _normalize(self.vectors), np.asarray(self.ids, dtype=np.int64)
        if len(ids) != len(vectors):
            raise ValidationError("ids and vectors disagree on length")
        # Ascending ids, as ``index`` writes them, are unique without a sort
        # (~1 ms at 100k ids); others are sorted and neighbours compared.
        ordered = ids if np.all(ids[1:] > ids[:-1]) else np.sort(ids)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValidationError("duplicate ids")
        object.__setattr__(self, "vectors", read_only(vectors))
        object.__setattr__(self, "ids", read_only(ids))
        if self.offsets is None and self.neighbors is None:
            return
        if self.offsets is None or self.neighbors is None:
            raise ValidationError("a graph needs both offsets and neighbors")
        n, offsets, neighbors = len(vectors), self.offsets, self.neighbors
        if (len(offsets) != n + 1 or offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1])
                or offsets[-1] != len(neighbors)):
            raise ValidationError(f"graph offsets must start at 0 and not decrease, from {n} "
                                  f"rows to their {len(neighbors)} neighbors")
        if not 0 <= self.entry < max(n, 1):  # an empty graph keeps entry 0
            raise ValidationError(f"graph entry point {self.entry} outside {n} nodes")
        if len(neighbors) and (neighbors.min() < 0 or neighbors.max() >= n):
            raise ValidationError(f"graph neighbor id outside [0, {n})")
        # Entries not above the one before, each of which must start a row.
        falls = np.flatnonzero(neighbors[1:] <= neighbors[:-1]) + 1
        if np.any(offsets[np.searchsorted(offsets, falls)] != falls):
            raise ValidationError("graph neighbors must ascend within each row")
        object.__setattr__(self, "offsets", read_only(offsets))
        object.__setattr__(self, "neighbors", read_only(neighbors))

    @property
    def kind(self) -> str:
        return EXACT if self.offsets is None else GRAPH

    def __len__(self) -> int:
        return len(self.vectors)


def _normalize(vectors: np.ndarray) -> np.ndarray:
    """Float32 unit rows: the rows every index serves.

    A row whose float32 value ``x`` is unit within float32 rounding,
    ``|x.x - 1| <= 4 * _float32_dot_error(d)`` summed in float64, keeps
    that value; so does every row ``index`` writes.  Any other row is
    divided by its float64 norm, rounded to float32 and divided by its
    float32 norm, each row on its own.

    Rows that ``load_embeddings`` read (``fileio.sealed``: float32, C-order,
    64-byte aligned and writable by no one) are kept as they are when every
    one is unit.  Any other array, and any array with a row to mend, is
    copied into new rows first, so no caller can change an index's rows
    by writing to its own array."""
    vectors = np.asarray(vectors)
    if vectors.ndim != 2:
        raise ValidationError("vectors must be a 2-d array")
    keep = (vectors.dtype == np.float32 and vectors.flags.c_contiguous
            and vectors.__array_interface__["data"][0] % _ROW_ALIGN == 0 and sealed(vectors))
    out = vectors if keep else np.array(vectors, dtype=np.float32)
    gap = np.einsum("ij,ij->i", out, out, dtype=np.float64)
    gap -= 1  # in place: the kept rows' only temporary is one float64 each
    off = np.flatnonzero(~(np.abs(gap, out=gap) <= 4 * _float32_dot_error(out.shape[1])))
    if not off.size:
        return out
    rows = vectors[off].astype(np.float64)
    norms = np.linalg.norm(rows, axis=1)
    usable = (norms >= 1e-12) & (norms < np.inf)  # NaN fails both
    if not usable.all():
        bad = int(np.flatnonzero(~usable)[0])
        what = "zero vector" if norms[bad] < 1e-12 else "vector with a non-finite norm"
        raise ValidationError(f"{what} at row {off[bad]} cannot be normalized")
    if out is vectors:
        out = vectors.copy()
    rows = (rows / norms[:, None]).astype(np.float32)
    out[off] = rows / np.linalg.norm(rows, axis=1)[:, None]
    return out


def build_exact(vectors, ids) -> DenseIndex:
    """Exhaustive-scan index; the ground-truth oracle for the graph kind."""
    return DenseIndex(vectors, ids)


# The graph's settings, fixed: every graph is built and searched at these.
_MAX_DEGREE = 32             # out-neighbours a row keeps
_BUILD_WIDTH = 64            # the candidate list of a point's build search
_PRUNE_SLACK = 1.2           # the robust prune's slack, >= 1
_SEARCH_WIDTH = 100          # the candidate list of a query's search, widened to k
_BEAM_WIDTH = 4              # candidates each point expands per build search step
_SEARCH_BEAM = 32            # candidates a query expands per search step
_MAX_BATCH_FRACTION = 0.02   # the largest insertion batch, as a share of the rows
_PRUNE_BLOCK = 1 << 21       # pairwise distances per prune chunk: 8 MiB of float32
_MASK_BYTES = 1 << 22        # the unseen mask of one group of graph-search queries: 4 MiB
_CLUSTER_ROWS = 1024         # the most rows a clustering block takes
_CLUSTER_BLOCK = 1 << 20     # similarities per clustering block: 4 MiB of float32


def _row_distances(vectors: np.ndarray, rows: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``1 - vectors[rows[i]] . vectors[points[i]]`` for every i, in float32.

    ``einsum`` does each pair with the same operations, so identical rows
    are equally far from a point."""
    return 1.0 - np.einsum("ij,ij->i", vectors[rows], vectors[points])


_SIGN = np.int32(-2**31)


def _ordered_bits(dists: np.ndarray) -> np.ndarray:
    """float32 ``dists`` as uint32s in the same order (-0.0 just below 0.0)."""
    bits = np.ascontiguousarray(dists, dtype=np.float32).view(np.int32)
    # A negative distance has every bit flipped, any other its sign bit set.
    return (bits ^ (bits >> 31 | _SIGN)).view(np.uint32)


def _list_keys(dists: np.ndarray, rows: np.ndarray, row_bits: int) -> np.ndarray:
    """One uint64 per (distance, row) that sorts as the pair does.

    Bits ``row_bits + 1`` to ``row_bits + 32`` hold ``_ordered_bits`` of
    the float32 distance, the ``row_bits`` below them the row; the lowest
    bit is set while the row is unexpanded.  The ``31 - row_bits`` bits
    above hold the query's index in a group of ``_graph_search``, which
    searches no more queries at a time than they hold."""
    ordered = _ordered_bits(dists).astype(np.uint64)
    return ordered << np.uint64(row_bits + 1) | rows.astype(np.uint64) << np.uint64(1) | np.uint64(1)


def _first_of_each(keys: np.ndarray, bounds: np.ndarray, size: int):
    """Where the first ``size`` keys of each query sit in ``keys``, sorted
    with the query in the high bits: a mask, or a slice when there is one
    query.  ``bounds[q]`` is query q's lowest possible key, so one
    ``searchsorted`` of the bounds finds where each query's keys start, and
    a key's rank is its place less its query's start."""
    if len(bounds) == 1:
        return slice(size)
    starts = keys.searchsorted(bounds)
    return np.arange(len(keys)) - np.repeat(starts, np.diff(starts, append=len(keys))) < size


def _by_distance(owners: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """The order that sorts (owner, candidate) pairs, given sorted, by
    (owner, distance, candidate): one stable sort of a uint64 key, the
    owner above ``_ordered_bits`` of the distance."""
    return np.argsort(owners.astype(np.uint64) << np.uint64(32) | _ordered_bits(dists),
                      kind="stable")


def _robust_prune(
    vectors: np.ndarray,
    points: np.ndarray,
    owners: np.ndarray,
    candidates: np.ndarray,
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
    ``_PRUNE_SLACK * dist(c, v) <= dist(point, v)``, until none survive or the
    limit is reached.  One sort of the (owner, candidate) cells drops the
    repeats and one stable sort of a one-word key (``_by_distance``) puts
    them in that order.  The candidate lists are padded to one width and
    their pairwise distances come from one batched ``matmul``, a chunk of
    points at a time, so each kill step is one array operation.  The
    ``matmul`` takes a contiguous copy of the block's transpose: given the
    strided view, numpy calls BLAS's symmetric rank-k update per point, two
    to three times slower at 100 lists of 64 rows of width 16.  The two
    agree to the bit at width 16; from width 32 on, OpenBLAS rounds some
    sums of the two differently, so a kill test tied to the last bit could
    go the other way (the graphs built at widths 32, 64 and 128 to check
    did not change).
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
    order = _by_distance(owners, dists)
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
        pairwise = block @ np.ascontiguousarray(block.transpose(0, 2, 1))
        np.subtract(1.0, pairwise, out=pairwise)  # in place: no second block to fault in
        alive = rows >= 0
        kept = np.zeros(len(rows), dtype=np.int64)
        for _ in range(out.shape[1]):
            live = np.flatnonzero(alive.any(axis=1) & (kept < limits[lo:lo + chunk]))
            if not len(live):
                break
            best = alive[live].argmax(axis=1)
            out[lo + live, kept[live]] = rows[live, best]
            kept[live] += 1
            alive[live] &= _PRUNE_SLACK * pairwise[live, best] > dist[lo + live]
            alive[live, best] = False
    return out


def _set_rows(adj: np.ndarray, points: np.ndarray, rows: np.ndarray) -> None:
    adj[points, :rows.shape[1]] = rows
    adj[points, rows.shape[1]:] = -1


def _add_reverse_edges(
    vectors: np.ndarray,
    adj: np.ndarray,
    points: np.ndarray,
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
        _set_rows(adj, over, _robust_prune(vectors, over, owners, cands, limits[over], groups))


def _batch_bounds(n: int) -> list[int]:
    """Batch boundaries over ``order``: sizes 1, 2, 4, ... up to the cap,
    ``_MAX_BATCH_FRACTION`` of the rows, then the cap."""
    cap = max(1, int(n * _MAX_BATCH_FRACTION))
    bounds, size = [0], 1
    while bounds[-1] < n:
        bounds.append(min(n, bounds[-1] + size))
        size = min(2 * size, cap)
    return bounds


def build_graph(vectors, ids, seed: int = 0) -> DenseIndex:
    """One-pass batched graph construction (see module docstring).

    The same vectors and ``seed`` give the same graph.  Beyond the graph
    itself, a batch's work arrays grow with the batch size times
    ``_BUILD_WIDTH`` times ``_MAX_DEGREE``, never with the number of rows."""
    exact = build_exact(vectors, ids)
    vectors, n = exact.vectors, len(exact)
    order = np.random.default_rng(seed).permutation(n)
    medoid = int(np.argmax(vectors @ vectors.mean(axis=0))) if n else 0  # an empty graph's entry
    # Rows with identical vectors form a group (+0.0 folds -0.0 into 0.0).
    _, groups = np.unique(vectors + np.float32(0), axis=0, return_inverse=True)
    groups = groups.ravel()
    copies = np.bincount(groups)[groups] > 1
    # Arrays wider than n rows would only hold padding.
    degree, width = min(_MAX_DEGREE, n), min(_BUILD_WIDTH, n)
    limits = degree - copies.astype(np.int64)  # a slot for the ring edge

    adj = np.full((n, degree), -1, dtype=np.int32)
    slots = np.arange(n + 1) * degree  # row r's neighbours start at adj.ravel()[slots[r]]
    bounds = _batch_bounds(n)
    # A search reaches only inserted rows, so a row has no edges before its
    # batch: its candidates are the rows its search expanded.
    for lo, hi in zip(bounds, bounds[1:]):
        points = order[lo:hi]
        _, owners, expanded = _graph_search(vectors, slots, adj.ravel(), int(order[0]),
                                            vectors[points], width, _BEAM_WIDTH)
        kept = _robust_prune(vectors, points, owners, expanded, limits[points], groups)
        _set_rows(adj, points, kept)
        _add_reverse_edges(vectors, adj, points, limits, groups)

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
    return replace(exact, offsets=offsets, neighbors=adj[adj < n].astype(np.int32), entry=medoid)


def _row_bits(n: int) -> int:
    """Bits a row number below ``n`` needs, at least one."""
    return max(int(n - 1).bit_length(), 1)


def _graph_search(
    vectors: np.ndarray,
    offsets: np.ndarray,
    neighbors: np.ndarray,
    start: int,
    queries: np.ndarray,
    width: int,
    beam: int,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Best-first search from row ``start`` over a CSR graph, for every row
    of ``queries`` (float32, unit) at once: the one search that both
    ``build_graph`` and ``search_batch`` run.

    Row r's neighbours are ``neighbors[offsets[r]:offsets[r + 1]]``; entries
    of -1 are skipped, so a padded adjacency ``adj`` is searched through
    ``np.arange(n + 1) * degree`` and ``adj.ravel()``.  Each query keeps a
    list of the ``width`` closest rows found, by (distance, row); each step
    expands the first ``beam`` unexpanded rows of every list, until no list
    has one left.  A query's steps are those it would take alone.  The
    queries are searched in groups (``_search_group``), as many at a time
    as a key's query bits hold and as keep the group's unseen mask within
    ``_MASK_BYTES``, so callers need not bound the batch.

    Returns each query's list rows, by (distance, row), and the rows
    expanded as ``(owner, row)`` arrays, a group's in the order of
    expansion."""
    row_bits = _row_bits(len(vectors))
    group = max(1, min(1 << (31 - row_bits), _MASK_BYTES // (len(vectors) + 1)))
    lists: list[np.ndarray] = []
    owners, expanded = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for lo in range(0, len(queries), group):
        got = _search_group(vectors, offsets, neighbors, start, queries[lo:lo + group],
                            width, beam, row_bits)
        lists += got[0]
        owners.append(got[1] + lo)
        expanded.append(got[2])
    return lists, np.concatenate(owners), np.concatenate(expanded)


def _search_group(vectors, offsets, neighbors, start: int, queries, width: int, beam: int,
                  row_bits: int) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """``_graph_search`` of queries that one key array holds.

    All lists live in one sorted 1-D array of keys: ``_list_keys`` with
    the query's index in the bits above the distance.  A step sorts only
    its new keys, and one stable sort of the two sorted runs merges them
    into every query's list; ``_first_of_each`` finds where each list
    starts by searching the array for each query's lowest key.  A
    neighbour is new to a query if its (query, row) cell of the unseen mask
    is set, and repeats go with one sort of the cells.  A group of many
    queries keeps its cells in int32, which halves the width of that sort
    and of the ``divmod`` back to (query, row): the mask's ``_MASK_BYTES``
    bound keeps every cell below 2**22.  Deduping against the list alone
    would give the same lists, since a row cut from a list never gets back
    in (a list's last key only falls), but costs more per step.  ``einsum``
    makes identical rows equally far from a query.  A lone query skips the
    owner bookkeeping, so ``search`` pays next to nothing for the batch:
    its cells are its rows, its keys have no query bits, and its
    ``einsum`` sums each row as the batch's does."""
    n, count = len(vectors), len(queries)
    many = count > 1
    row_mask, shift, one = np.uint64((1 << row_bits) - 1), np.uint64(row_bits + 33), np.uint64(1)
    owners, fresh = np.arange(count), np.full(count, start)
    high = owners.astype(np.uint64) << shift  # each query's bits of a key: its lowest key
    # Cell owner * stride + row.  Each query's cell n is never unseen: query
    # q's neighbour entry of -1 lands on cell q * stride - 1, query q - 1's
    # cell n (query 0's on the last query's), so the unseen test drops it.
    stride = n + 1
    unseen = np.ones(count * stride, dtype=bool)
    unseen[n::stride] = False
    unseen[owners * stride + fresh] = False
    keys = np.empty(0, dtype=np.uint64)
    expanded_owners: list[np.ndarray] = []
    expanded: list[np.ndarray] = []
    while True:
        near = vectors.take(fresh, axis=0)
        if many:
            dists = 1.0 - np.einsum("ij,ij->i", near, queries.take(owners, axis=0))
        else:
            dists = 1.0 - np.einsum("ij,j->i", near, queries[0])
        found = _list_keys(dists, fresh, row_bits)
        if many:
            found |= high.take(owners)
        found.sort()
        keys = np.concatenate([keys, found])
        keys.sort(kind="stable")  # two sorted runs, which timsort merges
        keys = keys[_first_of_each(keys, high, width)]
        pick = np.flatnonzero(keys & one)
        pick = pick[_first_of_each(keys[pick], high, beam)]
        if not len(pick):
            break
        picked = keys[pick] - one
        keys[pick] = picked
        nodes = (picked >> one & row_mask).astype(np.int64)
        expanded.append(nodes)
        lo, deg = offsets[nodes], offsets[nodes + 1] - offsets[nodes]
        cells = neighbors[np.repeat(lo - np.cumsum(deg) + deg, deg) + np.arange(deg.sum())]
        if many:
            owner = (picked >> shift).astype(np.int32)
            expanded_owners.append(owner)
            cells = np.repeat(owner * stride, deg) + cells
        cells = np.sort(cells[unseen[cells]])
        first = np.ones(len(cells), dtype=bool)  # drop repeats: keep a cell's first copy
        np.not_equal(cells[1:], cells[:-1], out=first[1:])
        cells = cells[first]
        unseen[cells] = False
        owners, fresh = np.divmod(cells, stride) if many else (None, cells)
    rows, expanded = (keys >> one & row_mask).astype(np.int64), np.concatenate(expanded)
    if not many:
        return [rows], np.zeros_like(expanded), expanded
    return np.split(rows, np.searchsorted(keys, high[1:])), np.concatenate(expanded_owners), expanded


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


def search_batch(index: DenseIndex, queries, k: int) -> list[list[tuple[int, float]]]:
    """Top-k ``(keyword id, inner-product score)`` of every row of
    ``queries``, ties broken by id; a query's hits do not depend on the
    other queries.

    Empty indexes return no results; otherwise ``k`` may not exceed the
    index size.  Each query is scaled by its own ``np.linalg.norm``, as a
    lone query is; a row norm taken along an axis can differ in the last
    bit.  For graph indexes ``_SEARCH_WIDTH`` bounds each best-first
    candidate list, and is widened to ``k`` if smaller.

    Both kinds report float64 scores from ``_rescore``, one query at a
    time, the graph kind for its whole candidate list, so both break ties
    by id.  The graph kind passes all queries to one ``_graph_search``,
    which bounds its own scratch: it searches them in groups whose unseen
    masks, one byte per (query, row), stay within ``_MASK_BYTES``, so
    callers need not bound the batch.
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

    rows, _, _ = _graph_search(index.vectors, index.offsets, index.neighbors, index.entry,
                               unit.astype(np.float32), max(_SEARCH_WIDTH, k), _SEARCH_BEAM)
    return [_rescore(index, r, query, k) for r, query in zip(rows, unit)]


def search(index: DenseIndex, query: np.ndarray, k: int) -> list[tuple[int, float]]:
    """``search_batch`` of one query: its top-k ``(keyword id, score)``."""
    return search_batch(index, np.asarray(query, dtype=np.float64).ravel()[None], k)[0]


def cluster_keywords(vectors, ids, similarity_threshold: float) -> dict[int, int]:
    """Greedy leader clustering in ascending id order.

    Each keyword joins the first (earliest-created) representative whose
    inner product reaches the threshold, else becomes a representative
    itself.  Representatives map to themselves; the map is total and
    idempotent.

    A block of rows is scored by one GEMM against the representatives made
    before it and one against itself; only rows that reach an earlier row of
    their block are decided one at a time.  Two float32 sums of one dot
    product differ by at most ``2 * _float32_dot_error(d)``, so a row that
    near the threshold is decided by the GEMV that scoring one row at a time
    runs, and the map is that loop's.
    """
    if not 0.0 < similarity_threshold <= 1.0:
        raise ValidationError("similarity_threshold must be in (0, 1]")
    index = build_exact(vectors, ids)
    vectors, ids = index.vectors, index.ids
    order = np.argsort(ids)
    (n, dim), count, lo = vectors.shape, 0, 0
    threshold = np.float32(similarity_threshold)  # the float32 similarities compare with it so
    # Where a GEMM and a GEMV can round a similarity to either side, in float64: exact compares.
    low, high = np.float64(threshold) + np.float64([-2, 2]) * _float32_dot_error(dim)
    reps = np.empty((n, dim), dtype=np.float32)  # the representatives' rows, in order made
    rep_ids = np.empty(n, dtype=np.int64)
    rep_of = np.empty(n, dtype=np.int64)  # the representative of each row of ``order``
    while lo < n:
        block = order[lo:lo + max(1, min(_CLUSTER_ROWS, _CLUSTER_BLOCK // (count + _CLUSTER_ROWS)))]
        rows, size = vectors[block], len(block)
        earlier = rows @ reps[:count].T
        # Only a row with a similarity of at least ``low`` can join or be near.
        close = np.flatnonzero(earlier.max(axis=1, initial=-np.inf) >= low)
        scores = earlier[close]
        near, joins = np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)
        near[close] = ((scores >= low) & (scores <= high)).any(axis=1)
        hit = scores >= threshold
        joins[close] = hit.any(axis=1) & ~near[close]
        if count:  # an argmax needs a representative to point at
            rep_of[lo + np.flatnonzero(joins)] = rep_ids[hit[joins[close]].argmax(axis=1)]
        own = rows @ rows.T
        reach = (own >= low) & np.tri(size, k=-1, dtype=bool) & ~joins  # earlier open rows
        tangled = ~joins & (near | reach.any(axis=1))
        made = ~joins & ~tangled  # the block's representatives

        def place(stop: int) -> None:
            """Append the block's representatives before row ``stop``."""
            nonlocal count, placed
            new = placed + np.flatnonzero(made[placed:stop])
            end = count + len(new)
            reps[count:end], rep_ids[count:end] = rows[new], ids[block[new]]
            count, placed = end, stop

        placed = 0
        for i in np.flatnonzero(tangled):
            before = np.flatnonzero(made[:i])
            sims = own[i, before]
            if near[i] or ((sims >= low) & (sims <= high)).any():
                place(i)
                first = rep_ids[np.flatnonzero(reps[:count] @ vectors[block[i]] >= threshold)[:1]]
            else:
                first = ids[block[before[sims >= threshold][:1]]]
            rep_of[lo + i] = np.r_[first, ids[block[i]]][0]  # the first reached, else itself
            made[i] = not len(first)
        place(size)
        rep_of[lo + np.flatnonzero(made)] = ids[block[made]]
        lo += size
    return dict(zip(ids[order].tolist(), rep_of.tolist()))


def save_embeddings(path, vectors: np.ndarray, ids: np.ndarray) -> None:
    """KEMB file: a ``fileio`` frame (version 3, SHA-256/64 footer) around
    u64 row count, u32 width, float32 row-major vectors and u64 ids."""
    vectors = np.ascontiguousarray(vectors, dtype="<f4")
    ids = np.ascontiguousarray(ids, dtype="<u8")
    body = struct.pack("<QI", *vectors.shape) + vectors.tobytes() + ids.tobytes()
    write_file(path, frame(_EMB_MAGIC, _EMB_VERSION, body))


def load_embeddings(path) -> tuple[np.ndarray, np.ndarray]:
    """``(vectors, ids)`` of a KEMB file, both views of the one read-only
    buffer the file is read into (``fileio.read_sealed``), placed so that
    the rows start on a 64-byte boundary.  ``_normalize`` serves such rows
    without a copy when they are all unit: the file's own unaligned bytes
    gathered slower in ``_rescore``."""
    payload = unframe(read_sealed(path, _EMB_ROWS_AT, _ROW_ALIGN), _EMB_MAGIC, _EMB_VERSION,
                      "embeddings")
    (n, dim), pos = unpack_at("<QI", payload, 0)
    raw, pos = take(payload, pos, n * dim * 4)
    vectors = np.frombuffer(raw, dtype="<f4").reshape(n, dim)
    raw, pos = take(payload, pos, n * 8)
    ids = np.frombuffer(raw, dtype="<i8")  # the bits of the stored u64, as astype gives them
    if pos != len(payload):
        raise ValidationError("corrupt embeddings file: trailing bytes")
    return vectors, ids


def save_graph(path, index: DenseIndex) -> None:
    """KGRA file: a ``fileio`` frame (version 5, SHA-256/64 footer) around
    a ``<QQ`` header (row count, entry row), then the adjacency CSR:
    ``n + 1`` i64 offsets and the i32 neighbour rows."""
    if index.kind != GRAPH:
        raise ValidationError("only graph indexes have a graph file")
    header = struct.pack("<QQ", len(index), index.entry)
    offsets = np.ascontiguousarray(index.offsets, dtype="<i8").tobytes()
    neighbors = np.ascontiguousarray(index.neighbors, dtype="<i4").tobytes()
    write_file(path, frame(_GRAPH_MAGIC, _GRAPH_VERSION, header + offsets + neighbors))


def load_graph(path, vectors: np.ndarray, ids: np.ndarray) -> DenseIndex:
    """The graph ``DenseIndex`` of the embeddings and the graph file, which is
    checked here against the rows and for truncation and trailing bytes."""
    payload = unframe(read_file(path), _GRAPH_MAGIC, _GRAPH_VERSION, "graph")
    (n, entry), pos = unpack_at("<QQ", payload, 0)
    if n != len(vectors):
        raise ValidationError("graph file does not match embeddings")
    raw, pos = take(payload, pos, (n + 1) * 8)
    offsets = np.frombuffer(raw, dtype="<i8").astype(np.int64)
    raw, pos = take(payload, pos, int(offsets[-1]) * 4)
    neighbors = np.frombuffer(raw, dtype="<i4").astype(np.int32)
    if pos != len(payload):
        raise ValidationError("corrupt graph file: trailing bytes")
    return DenseIndex(vectors, ids, offsets, neighbors, int(entry))
