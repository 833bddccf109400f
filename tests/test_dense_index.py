from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unikw import (
    ValidationError,
    build_exact,
    build_graph,
    cluster_keywords,
    load_embeddings,
    load_graph,
    save_embeddings,
    save_graph,
    search,
    search_batch,
)

from unikw import dense_index
from unikw.fileio import read_only, sealed
from unikw.dense_index import (
    EXACT, GRAPH, DenseIndex, _batch_bounds, _by_distance, _first_of_each, _graph_search,
    _robust_prune,
)

from oracles import (
    naive_topk,
    reference_normalize,
    scalar_build_search,
    scalar_greedy_search,
    scalar_robust_prune,
    unchecked_kgra_bytes,
)


def _base_chain(array) -> list:
    """``array``, each array it views, and the buffer under the last."""
    chain = [array]
    while isinstance(chain[-1], np.ndarray) and chain[-1].base is not None:
        chain.append(chain[-1].base)
    return chain


def _read_only_owner(array):
    """A read-only copy that owns its memory, so its owner can flag it writable again."""
    owner = array.copy()
    owner.flags.writeable = False
    return owner


def unit_vectors(rng, n, dim):
    v = rng.normal(size=(n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestExact:
    def test_empty_index_returns_nothing(self):
        index = build_exact(np.empty((0, 4)), np.empty(0, dtype=np.int64))
        assert search(index, np.ones(4), 1) == []

    def test_single_vector_always_returned(self, rng):
        v = unit_vectors(rng, 1, 8)
        index = build_exact(v, [7])
        for _ in range(5):
            q = rng.normal(size=8)
            assert search(index, q, 1)[0][0] == 7

    def test_matches_naive_scan(self, rng):
        v = unit_vectors(rng, 50, 8)
        ids = np.arange(50) * 3
        index = build_exact(v, ids)
        for _ in range(20):
            q = rng.normal(size=8)
            got = search(index, q, 10)
            want = naive_topk(index.vectors, index.ids, q, 10)
            assert [kid for kid, _ in got] == [kid for kid, _ in want]

    def test_self_query_scores_one(self, rng):
        v = unit_vectors(rng, 10, 8)
        index = build_exact(v, np.arange(10))
        kid, score = search(index, v[4], 1)[0]
        assert kid == 4 and abs(score - 1.0) < 1e-6

    def test_k_out_of_range(self, rng):
        index = build_exact(unit_vectors(rng, 3, 4), np.arange(3))
        with pytest.raises(ValidationError, match="k="):
            search(index, np.ones(4), 4)

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_degenerate_query_rejected(self, rng, bad):
        index = build_exact(unit_vectors(rng, 3, 4), np.arange(3))
        with pytest.raises(ValidationError, match="non-zero and finite"):
            search(index, np.full(4, bad), 1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError, match="zero vector"):
            build_exact(np.zeros((2, 4)), [0, 1])

    @pytest.mark.parametrize("build", [
        build_exact, build_graph, lambda v, ids: cluster_keywords(v, ids, 0.9),
    ], ids=["exact", "graph", "cluster"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, rng, build, bad):
        v = unit_vectors(rng, 10, 4)
        v[3, 1] = bad
        with pytest.raises(ValidationError, match="non-finite norm at row 3 "):
            build(v, np.arange(10))

    def test_graph_load_rejects_non_finite_rows(self, rng, tmp_path):
        v = unit_vectors(rng, 10, 4)
        save_graph(tmp_path / "g.kgra", build_graph(v, np.arange(10)))
        v[3, 1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            load_graph(tmp_path / "g.kgra", v.astype(np.float32), np.arange(10))

    @pytest.mark.parametrize("dim", [16, 33])
    def test_rows_normalized_as_one_float64_matrix(self, rng, dim):
        # Enough rows for several blocks and a ragged last one: each row's
        # bits match dividing the whole matrix by its float64 norms at once.
        v = rng.normal(size=(3 * 65536 // dim + 7, dim)).astype(np.float32)
        want = reference_normalize(v)
        got = build_exact(v, np.arange(len(v))).vectors
        assert got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_zero_vector_in_a_later_block_reports_its_row(self, rng):
        v = unit_vectors(rng, 10000, 16)
        v[9000] = 0
        with pytest.raises(ValidationError, match="zero vector at row 9000 "):
            build_exact(v, np.arange(10000))

    @pytest.mark.parametrize("bad, message", [
        (0.0, "zero vector at row 3 "),
        (np.inf, "non-finite norm at row 3 "), (-np.inf, "non-finite norm at row 3 "),
    ])
    def test_graph_load_rejects_rows_it_cannot_normalize(self, rng, tmp_path, bad, message):
        # A zero row used to be served as stored.
        v = unit_vectors(rng, 10, 4).astype(np.float32)
        save_graph(tmp_path / "g.kgra", build_graph(v, np.arange(10)))
        v[3] = 0.0
        v[3, 1] = bad
        with pytest.raises(ValidationError, match=message):
            load_graph(tmp_path / "g.kgra", v, np.arange(10))

    @pytest.mark.parametrize("dim", [16, 17, 33])
    def test_duplicate_rows_return_in_id_order(self, dim):
        # 203 rows: a BLAS matrix-vector product scores the last rows of an
        # odd-sized matrix with other kernels, so copies of one row there
        # can score a few ulps apart from the copies elsewhere.
        rng = np.random.default_rng(dim)
        n, copies = 203, 40
        for _ in range(25):
            v = rng.normal(size=(n, dim))
            rows = np.r_[rng.choice(n - 1, copies - 1, replace=False), n - 1]
            v[rows] = v[rows[0]]
            ids = rng.permutation(n) * 3 + 1
            index = build_exact(v, ids)
            got = search(index, v[rows[0]] + rng.normal(0, 0.05, dim), copies)
            assert [kid for kid, _ in got] == sorted(ids[rows].tolist())
            assert len({score for _, score in got}) == 1

    @pytest.mark.parametrize("k", [1, 10, 2000])
    def test_candidate_margin_keeps_the_float64_top_k(self, k):
        # Rows a few float32 ulps apart: float64 scores sit ~1e-9 apart around
        # the k-th, well inside float32 rounding, so the float32 order is noise.
        rng = np.random.default_rng(5)
        dim = 16
        base = unit_vectors(rng, 1, dim)[0]
        nudges = rng.integers(-8, 9, size=(2000, dim)) * 2.0**-23
        index = build_exact(base * (1 + nudges), np.arange(2000))
        for offset in unit_vectors(rng, 20, dim):
            query = base + offset
            got = search(index, query, k)
            want = naive_topk(index.vectors, index.ids, query, k)
            assert [kid for kid, _ in got] == [kid for kid, _ in want]
            np.testing.assert_allclose(
                [s for _, s in got], [s for _, s in want], rtol=0, atol=1e-12
            )


class TestGraph:
    def test_three_equidistant_points_keep_each_other(self):
        # Mutually equidistant: pruning has no grounds to drop anything.
        v = np.array([[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]])
        index = build_graph(v, np.arange(3), max_degree=2, build_width=4)
        for row in range(3):
            s, e = index.offsets[row], index.offsets[row + 1]
            assert set(index.neighbors[s:e].tolist()) == {0, 1, 2} - {row}

    def test_widths_beyond_the_row_count_build_the_same_graph(self, rng):
        # No row can have n neighbours, nor a search list hold more than n
        # rows, so wider build arrays would only hold padding.
        v = unit_vectors(rng, 12, 4)
        v[1] = v[0]  # a group of copies, with its ring edge
        want = build_graph(v, np.arange(12), max_degree=12, build_width=12)
        got = build_graph(v, np.arange(12), max_degree=40, build_width=1000)
        assert np.array_equal(got.offsets, want.offsets)
        assert np.array_equal(got.neighbors, want.neighbors) and got.entry == want.entry

    @pytest.mark.parametrize("widths", [(2**32, 4), (2**32, 2**32), (10**20, 10**20)])
    def test_widths_beyond_the_graph_header_rejected(self, widths):
        # The header holds max_degree as u32; checked before any array is
        # sized by it, and before build_width.
        with pytest.raises(ValidationError, match=r"2\*\*32"):
            dense_index._check_graph_params(*widths, 1.2)

    def test_build_width_beyond_the_graph_header_builds_as_width_n(self, rng):
        # The graph file does not hold build_width, so no u32 bounds it.
        v = unit_vectors(rng, 12, 4)
        want = build_graph(v, np.arange(12), max_degree=4, build_width=12)
        got = build_graph(v, np.arange(12), max_degree=4, build_width=2**32)
        assert np.array_equal(got.offsets, want.offsets)
        assert np.array_equal(got.neighbors, want.neighbors) and got.entry == want.entry

    def test_empty_catalog(self, tmp_path):
        index = build_graph(np.empty((0, 4)), np.empty(0, dtype=np.int64))
        assert index.offsets.tolist() == [0] and len(index.neighbors) == 0 and index.entry == 0
        assert search(index, np.ones(4), 5) == []
        save_graph(tmp_path / "g.kgra", index)
        loaded = load_graph(tmp_path / "g.kgra", index.vectors, index.ids)
        assert loaded.offsets.tolist() == [0] and search(loaded, np.ones(4), 5) == []

    def test_degree_bound(self, rng):
        v = unit_vectors(rng, 300, 16)
        index = build_graph(v, np.arange(300), max_degree=8, build_width=16)
        degrees = np.diff(index.offsets)
        assert degrees.max() <= 8

    def test_recall_against_exact_oracle(self, rng):
        v = unit_vectors(rng, 2000, 16)
        ids = np.arange(2000)
        exact = build_exact(v, ids)
        graph = build_graph(v, ids, max_degree=16, build_width=32, seed=1)
        hits = total = 0
        for _ in range(50):
            q = rng.normal(size=16)
            want = {kid for kid, _ in search(exact, q, 10)}
            got = {kid for kid, _ in search(graph, q, 10, search_width=64)}
            hits += len(want & got)
            total += 10
        assert hits / total >= 0.95

    def test_full_width_search_is_exhaustive(self, rng):
        v = unit_vectors(rng, 120, 8)
        ids = np.arange(120)
        exact = build_exact(v, ids)
        graph = build_graph(v, ids, max_degree=8, build_width=16, seed=2)
        for _ in range(10):
            q = rng.normal(size=8)
            want = [kid for kid, _ in search(exact, q, 5)]
            got = [kid for kid, _ in search(graph, q, 5, search_width=120)]
            assert got == want

    def test_recall_nondecreasing_in_search_width(self, rng):
        v = unit_vectors(rng, 600, 16)
        ids = np.arange(600)
        exact = build_exact(v, ids)
        graph = build_graph(v, ids, max_degree=12, build_width=24, seed=3)
        queries = [rng.normal(size=16) for _ in range(30)]
        recalls = []
        for width in (10, 30, 90, 270):
            hits = 0
            for q in queries:
                want = {kid for kid, _ in search(exact, q, 10)}
                got = {kid for kid, _ in search(graph, q, 10, search_width=width)}
                hits += len(want & got)
            recalls.append(hits)
        assert all(a <= b + 3 for a, b in zip(recalls, recalls[1:]))  # noise margin
        assert recalls[-1] >= recalls[0]

    @pytest.mark.parametrize("seed", range(10))
    def test_cut_inside_identical_rows_follows_ids(self, seed):
        # 20 copies of one row under shuffled ids: when k falls inside the
        # copies, graph search returns the copies with the smallest ids.
        rng = np.random.default_rng(seed)
        v = np.vstack([unit_vectors(rng, 200, 8), np.tile(unit_vectors(rng, 1, 8), (20, 1))])
        ids = rng.permutation(220)
        exact = build_exact(v, ids)
        graph = build_graph(v, ids, max_degree=8, build_width=16, seed=seed)
        query = v[-1] + rng.normal(0, 1e-3, 8)
        for k in (5, 10, 15):
            assert search(graph, query, k, search_width=40) == search(exact, query, k)

    def test_build_determinism(self, rng):
        v = unit_vectors(rng, 200, 8)
        a = build_graph(v, np.arange(200), max_degree=8, build_width=16, seed=9)
        b = build_graph(v, np.arange(200), max_degree=8, build_width=16, seed=9)
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.neighbors, b.neighbors)
        assert a.entry == b.entry

    def test_parameter_validation(self, rng):
        v = unit_vectors(rng, 10, 4)
        with pytest.raises(ValidationError, match="max_degree"):
            build_graph(v, np.arange(10), max_degree=1)
        with pytest.raises(ValidationError, match="build_width"):
            build_graph(v, np.arange(10), max_degree=8, build_width=4)

    @pytest.mark.parametrize("slack", [np.nan, np.inf, 0.99])
    def test_slack_not_finite_and_at_least_one_rejected(self, rng, slack):
        v = unit_vectors(rng, 10, 4)
        with pytest.raises(ValidationError, match="prune_slack"):
            build_graph(v, np.arange(10), max_degree=4, build_width=8, prune_slack=slack)


class TestKind:
    """The kind follows the arrays: an index with an adjacency is a graph."""

    def test_fields_are_what_search_reads(self):
        assert [f.name for f in fields(DenseIndex)] == [
            "vectors", "ids", "offsets", "neighbors", "entry", "max_degree"]

    def test_exact_index_plus_a_csr_searches_as_the_graph(self, rng):
        v = unit_vectors(rng, 300, 8)
        graph = build_graph(v, np.arange(300), max_degree=8, build_width=16, seed=0)
        joined = replace(build_exact(v, np.arange(300)), offsets=graph.offsets,
                         neighbors=graph.neighbors, entry=graph.entry)
        queries = rng.normal(size=(20, 8))
        assert (joined.kind, graph.kind) == (GRAPH, GRAPH)
        assert search_batch(joined, queries, 10, 12) == search_batch(graph, queries, 10, 12)

    def test_graph_without_its_csr_searches_as_build_exact(self, rng):
        v = unit_vectors(rng, 300, 8)
        graph = build_graph(v, np.arange(300), max_degree=8, build_width=16, seed=0)
        bare = replace(graph, offsets=None, neighbors=None)
        queries = rng.normal(size=(20, 8))
        assert bare.kind == EXACT
        assert search_batch(bare, queries, 10) == search_batch(build_exact(v, np.arange(300)),
                                                              queries, 10)


def assert_graph_invariants(index):
    """Rows sorted and unique, no self-loop, at most max_degree neighbours,
    every node reachable from the entry point."""
    n = len(index)
    rows = [index.neighbors[index.offsets[r]:index.offsets[r + 1]] for r in range(n)]
    for row, nbrs in enumerate(rows):
        assert np.all(np.diff(nbrs) > 0), row
        assert row not in nbrs
        assert len(nbrs) <= index.max_degree
    reached = {index.entry}
    stack = [index.entry]
    while stack:
        for nb in rows[stack.pop()].tolist():
            if nb not in reached:
                reached.add(nb)
                stack.append(nb)
    assert len(reached) == n


class TestGraphInvariants:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_catalogs(self, rng, n):
        index = build_graph(unit_vectors(rng, n, 8), np.arange(n), max_degree=4, build_width=8)
        assert_graph_invariants(index)

    def test_catalog_of_twenty_identical_rows(self, rng):
        v = np.tile(unit_vectors(rng, 1, 8), (20, 1))
        index = build_graph(v, np.arange(20), max_degree=8, build_width=16)
        assert_graph_invariants(index)

    @pytest.mark.parametrize("seed", range(3))
    def test_twenty_identical_rows_among_distinct_ones(self, rng, seed):
        v = unit_vectors(rng, 220, 8)
        copies = rng.choice(220, 20, replace=False)
        v[copies] = v[copies[0]]
        index = build_graph(v, np.arange(220) * 2, max_degree=8, build_width=16, seed=seed)
        assert_graph_invariants(index)
        # The graph search finds every copy, in id order.
        got = search(index, v[copies[0]] + rng.normal(0, 1e-3, 8), 20, search_width=40)
        assert [kid for kid, _ in got] == sorted((copies * 2).tolist())

    def test_more_rows_than_one_full_batch(self, rng):
        index = build_graph(unit_vectors(rng, 700, 8), np.arange(700), max_degree=8,
                            build_width=16, seed=5)
        assert_graph_invariants(index)


def random_graph_index(rng, n, dim, max_degree=8):
    """Random rows, the first third of them copies of row 0, joined by a
    random CSR graph of up to ``max_degree`` neighbours per row."""
    v = unit_vectors(rng, n, dim)
    v[:n // 3] = v[0]
    rows = []
    for row in range(n):
        degree = int(rng.integers(0, min(max_degree, n - 1) + 1))
        nbrs = rng.choice(n - 1, degree, replace=False)
        rows.append(np.sort(nbrs + (nbrs >= row)))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    neighbors = np.concatenate(rows).astype(np.int32)
    return replace(build_exact(v, np.arange(n)), offsets=offsets,
                   neighbors=neighbors, entry=int(rng.integers(n)), max_degree=max_degree)


def graph_search(index, queries, width, beam):
    """``_graph_search`` of float32 unit ``queries`` over ``index``'s graph,
    from its entry."""
    return _graph_search(index.vectors, index.offsets, index.neighbors, index.entry, queries,
                         width, beam)


class TestGraphSearch:
    def test_one_row_per_step_matches_the_heap_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            index = random_graph_index(rng, int(rng.integers(1, 120)), dim=4)
            # Half the queries sit on row 0, whose copies tie at distance 0.
            query = rng.normal(size=4) if rng.random() < 0.5 else index.vectors[0].astype(float)
            query /= np.linalg.norm(query)
            width = int(rng.integers(1, 30))
            (rows,), _, expanded = graph_search(index, query.astype(np.float32)[None], width, 1)
            want_rows, want_expanded = scalar_greedy_search(
                index.vectors, index.offsets, index.neighbors, index.entry, query, width
            )
            assert expanded.tolist() == want_expanded
            assert rows.tolist() == want_rows

    def test_list_wider_than_the_graph_holds_every_reachable_row_once(self):
        # At the shipping beam a step expands many rows, whose neighbours
        # repeat; a list as wide as the graph ends holding all rows reached.
        rng = np.random.default_rng(18)
        for _ in range(200):
            n = int(rng.integers(1, 200))
            index = random_graph_index(rng, n, dim=4, max_degree=int(rng.integers(2, 40)))
            query = rng.normal(size=4)
            query /= np.linalg.norm(query)
            (rows,), _, expanded = graph_search(index, query.astype(np.float32)[None], n,
                                                dense_index._SEARCH_BEAM)
            want_rows, want_expanded = scalar_greedy_search(
                index.vectors, index.offsets, index.neighbors, index.entry, query, n
            )
            assert rows.tolist() == want_rows
            assert sorted(expanded.tolist()) == sorted(want_expanded)

    def test_recall_not_below_the_heap_oracle(self, rng):
        # The data of TestGraph.test_recall_against_exact_oracle; the
        # oracle's list is cut at k by float64 score, as search cuts.
        v = unit_vectors(rng, 2000, 16)
        ids = np.arange(2000)
        exact = build_exact(v, ids)
        graph = build_graph(v, ids, max_degree=16, build_width=32, seed=1)
        hits = oracle_hits = 0
        for _ in range(50):
            q = rng.normal(size=16)
            want = {kid for kid, _ in search(exact, q, 10)}
            got = {kid for kid, _ in search(graph, q, 10, search_width=64)}
            rows, _ = scalar_greedy_search(
                graph.vectors, graph.offsets, graph.neighbors, graph.entry, q / np.linalg.norm(q), 64
            )
            found = naive_topk(graph.vectors[rows], graph.ids[rows], q, 10)
            hits += len(want & got)
            oracle_hits += len(want & {kid for kid, _ in found})
        assert hits >= oracle_hits


class TestBuildSearch:
    @pytest.mark.parametrize("beam", [1, None])
    def test_matches_the_scalar_oracle(self, beam):
        """The build's search, ``_graph_search`` over the padded adjacency's
        CSR view from a start row, expands what the list oracle expands."""
        beam = beam or dense_index._BEAM_WIDTH
        rng = np.random.default_rng(19)
        for trial in range(150):
            n = int(rng.integers(1, 90))
            v = unit_vectors(rng, n, 4)
            v[:n // 3] = v[0]  # copies of one row, equally far from every point
            vectors = build_exact(v, np.arange(n)).vectors
            # Random neighbour rows with -1 anywhere, repeats and self-loops.
            adj = rng.integers(0, n, size=(n, int(rng.integers(1, 12)))).astype(np.int32)
            adj[rng.random(adj.shape) < 0.3] = -1
            # Lists narrower than the graph, as wide, and wider.
            width = int(rng.integers(1, n + 1)) if trial % 3 else n + int(rng.integers(0, 3))
            points = rng.integers(0, n, 1 if trial % 2 else int(rng.integers(1, 40)))
            start = int(rng.integers(n))
            _, owners, expanded = _graph_search(vectors, np.arange(n + 1) * adj.shape[1],
                                                adj.ravel(), start, vectors[points], width, beam)
            assert owners.shape == expanded.shape
            for i, point in enumerate(points):
                want = scalar_build_search(vectors, adj, start, int(point), width, beam)
                assert expanded[owners == i].tolist() == want, (trial, i)

    def test_one_query_per_group_builds_the_same_graph(self, monkeypatch):
        """With a one-byte mask budget each point of a batch searches in a
        group of its own, and the graph is the one built from whole batches."""
        rng = np.random.default_rng(20)
        v = unit_vectors(rng, 600, 8)
        v[:40] = v[0]
        want = build_graph(v, np.arange(600), max_degree=8, build_width=16, seed=3)
        groups = []
        search_group = dense_index._search_group

        def spy(*args):
            groups.append(len(args[4]))
            return search_group(*args)

        monkeypatch.setattr(dense_index, "_search_group", spy)
        monkeypatch.setattr(dense_index, "_MASK_BYTES", 1)
        got = build_graph(v, np.arange(600), max_degree=8, build_width=16, seed=3)
        assert groups == [1] * 600  # batches of up to 12 points, searched one by one
        assert np.array_equal(got.offsets, want.offsets)
        assert np.array_equal(got.neighbors, want.neighbors)


class TestListBounds:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_keeps_each_querys_first_keys(self, data):
        """``_first_of_each`` keeps the keys a per-query count keeps: those
        with fewer than ``size`` keys of their own query before them."""
        row_bits = data.draw(st.integers(1, 20))
        shift = row_bits + 33
        lists = data.draw(st.lists(
            st.lists(st.integers(0, (1 << shift) - 1), max_size=12, unique=True),
            min_size=1, max_size=1 << min(31 - row_bits, 4)))
        keys = np.array(sorted(q << shift | low for q, lows in enumerate(lists) for low in lows),
                        dtype=np.uint64)
        size = data.draw(st.integers(1, max(map(len, lists)) + 1))
        rank = {}
        want = []
        for key in keys.tolist():
            query = key >> shift
            want.append(rank.get(query, 0) < size)
            rank[query] = rank.get(query, 0) + 1
        got = _first_of_each(keys, np.arange(len(lists), dtype=np.uint64) << np.uint64(shift), size)
        if len(lists) == 1:
            assert got == slice(size)
        assert keys[got].tolist() == keys[np.array(want, dtype=bool)].tolist()


class TestPruneOrder:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_one_key_sorts_as_the_three_key_lexsort(self, data):
        """Pairs sorted by (owner, candidate) come out of ``_by_distance``
        in ``lexsort``'s (owner, distance, candidate) order, through exact
        ties between candidates and distances of 0."""
        pool = np.array([0.0, 0.0, np.nextafter(0, 1), 0.25, 1.0, 1.0, 2.0, -1e-7, 0.75],
                        dtype=np.float32)
        cells = sorted(data.draw(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 40)),
                                         max_size=60)))
        owners = np.array([o for o, _ in cells], dtype=np.int64)
        candidates = np.array([c for _, c in cells], dtype=np.int64)
        dists = pool[data.draw(st.lists(st.integers(0, len(pool) - 1),
                                        min_size=len(cells), max_size=len(cells)))]
        want = np.lexsort((candidates, dists, owners))
        assert _by_distance(owners, dists).tolist() == want.tolist()


class TestBatchBounds:
    # Sizes 1, 2, 4, ... up to the cap, max(1, int(0.02 n)), then the cap;
    # below 100 rows the cap is 1.
    @pytest.mark.parametrize("n, sizes", [
        (1, [1]),
        (2, [1, 1]),
        (49, [1] * 49),
        (50, [1] * 50),
        (51, [1] * 51),
        (5000, [1, 2, 4, 8, 16, 32, 64] + [100] * 48 + [73]),
    ])
    def test_sizes_double_up_to_the_cap(self, n, sizes):
        bounds = _batch_bounds(n)
        assert bounds[0] == 0 and bounds[-1] == n
        assert np.diff(bounds).tolist() == sizes


class TestBatchedPrune:
    @pytest.mark.parametrize("width", [6, 32, 64])
    @pytest.mark.parametrize("slack", [1.0, 1.2])
    def test_keeps_the_scalar_oracles_neighbours(self, slack, width):
        rng = np.random.default_rng(17)
        vectors = build_exact(unit_vectors(rng, 400, width), np.arange(400)).vectors
        max_degree = 6
        points = rng.choice(400, 60, replace=False)
        lists = []
        for i, point in enumerate(points):
            # Ragged, with repeats, sometimes empty, sometimes holding the point.
            offered = rng.integers(0, 400, int(rng.integers(0, 90)))
            offered = np.r_[offered, offered[: len(offered) // 4]]
            if i % 3 == 0:
                offered = np.r_[point, offered, point]
            lists.append(rng.permutation(offered))
        owners = np.repeat(np.arange(len(points)), [len(c) for c in lists])
        got = _robust_prune(vectors, points, owners, np.concatenate(lists), slack,
                            np.full(len(points), max_degree), np.arange(400))
        sizes = []
        for point, offered, row in zip(points, lists, got):
            want = scalar_robust_prune(vectors, int(point), offered, max_degree, slack)
            assert sorted(row[row >= 0].tolist()) == want
            assert np.all(row[len(want):] == -1)
            sizes.append(len(want))
        assert max_degree in sizes and min(sizes) < max_degree

    def test_offers_of_the_point_alone_keep_nothing(self, rng):
        vectors = unit_vectors(rng, 5, 4).astype(np.float32)
        got = _robust_prune(vectors, np.array([1, 3]), np.array([0, 0, 1]), np.array([1, 1, 3]),
                            1.2, np.array([2, 2]), np.arange(5))
        assert got.tolist() == [[-1, -1], [-1, -1]]

    @pytest.mark.parametrize("slack, kept", [(1.0, [1]), (1.2, [1, 2])])
    def test_exact_tie_is_killed(self, slack, kept):
        # Row 2 is orthogonal to the point and to row 1, so dist(1, 2) and
        # dist(0, 2) are both exactly 1: slack 1.0 drops row 2, 1.2 keeps it.
        vectors = np.array([[1, 0, 0], [0.6, 0.8, 0], [0, 0, 1]], dtype=np.float32)
        got = _robust_prune(vectors, np.array([0]), np.zeros(3, dtype=np.int64),
                            np.array([2, 1, 0]), slack, np.array([3]), np.arange(3))
        assert got.tolist() == [kept + [-1] * (3 - len(kept))]
        assert scalar_robust_prune(vectors, 0, [2, 1, 0], 3, slack) == kept


class TestClustering:
    def test_threshold_one_keeps_distinct_vectors_apart(self, rng):
        v = unit_vectors(rng, 20, 8)
        mapping = cluster_keywords(v, np.arange(20), 1.0)
        assert all(mapping[i] == i for i in range(20))

    def test_identical_vectors_collapse(self):
        v = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        mapping = cluster_keywords(v, np.array([5, 9, 11]), 0.99)
        assert mapping == {5: 5, 9: 5, 11: 11}

    def test_idempotent_on_representatives(self, rng):
        v = unit_vectors(rng, 50, 8)
        mapping = cluster_keywords(v, np.arange(50), 0.9)
        reps = sorted({r for r in mapping.values()})
        again = cluster_keywords(v[reps], np.array(reps), 0.9)
        assert all(again[r] == r for r in reps)

    def test_planted_duplicates_shrink_index(self, rng):
        base = unit_vectors(rng, 90, 16)
        dupes = base[:10] + rng.normal(0, 1e-4, (10, 16))  # 10% near-duplicates
        vectors = np.vstack([base, dupes])
        ids = np.arange(100)
        mapping = cluster_keywords(vectors, ids, 0.999)
        reps = {r for r in mapping.values()}
        assert abs(len(reps) - 90) <= 1
        for dup_row in range(90, 100):
            assert mapping[dup_row] == dup_row - 90

    def test_threshold_validation(self, rng):
        v = unit_vectors(rng, 3, 4)
        with pytest.raises(ValidationError):
            cluster_keywords(v, np.arange(3), 0.0)


class TestRowRule:
    """``_normalize``, the rule every index row goes through: a row unit
    within float32 rounding keeps its float32 value, any other is
    normalized as ``reference_normalize`` does, each row on its own."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unit_rows_kept_the_rest_normalized(self, rng, dtype):
        dim = 16
        gamma = dense_index._float32_dot_error(dim)
        unit = unit_vectors(rng, 50, dim)
        v = np.concatenate([
            unit[:20],                      # unit rows
            unit[20:30] * (1 + gamma / 2),  # |x.x - 1| ~ gamma: inside the rule
            unit[30:40] * (1 + 3 * gamma),  # ~ 6 gamma: outside it
            unit[40:] * 3,
            rng.normal(size=(10, dim)),
        ])
        order = rng.permutation(len(v))  # kept and normalized rows interleaved
        v, kept = v[order].astype(dtype), order < 30
        want = np.where(kept[:, None], v.astype(np.float32), reference_normalize(v))
        got = dense_index._normalize(v)
        assert got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        alone = np.concatenate([dense_index._normalize(row[None]) for row in v])
        assert np.array_equal(alone.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("dim", [1, 2, 16, 33, 300])
    def test_stored_and_normalized_rows_pass_the_rule(self, rng, dim):
        # ``index`` stores float32 roundings of float64 unit rows.
        stored = unit_vectors(rng, 2000, dim).astype(np.float32)
        assert np.array_equal(dense_index._normalize(stored).view(np.uint32), stored.view(np.uint32))
        made = dense_index._normalize(rng.normal(size=(2000, dim)) * 5)
        assert np.array_equal(dense_index._normalize(made).view(np.uint32), made.view(np.uint32))


#: Ways a graph can break its index's checks, each with the message that
#: names it: as made or replaced in memory, and as read from a file.
CORRUPT_GRAPHS = [
    pytest.param(lambda g: {"neighbors": np.r_[len(g), g.neighbors[1:]]}, "neighbor id",
                 id="neighbor-n"),
    pytest.param(lambda g: {"neighbors": np.r_[-1, g.neighbors[1:]]}, "neighbor id",
                 id="neighbor-negative"),
    pytest.param(lambda g: {"neighbors": np.zeros_like(g.neighbors)}, "ascend", id="all-zero"),
    pytest.param(lambda g: {"neighbors": np.r_[g.neighbors[1], g.neighbors[1:]]}, "ascend",
                 id="repeat"),
    pytest.param(lambda g: {"entry": len(g)}, "entry point", id="entry-n"),
    pytest.param(lambda g: {"entry": 10**6}, "entry point 1000000 outside", id="entry-far"),
    pytest.param(lambda g: {"offsets": g.offsets + 1, "neighbors": np.r_[g.neighbors, 1]},
                 "offsets", id="offsets-start"),
    pytest.param(
        lambda g: {"offsets": np.r_[0, g.offsets[2], g.offsets[1], g.offsets[3:]]},
        "offsets", id="offsets-decrease",
    ),
    pytest.param(lambda g: {"max_degree": 1}, "more than 1 neighbors", id="degree"),
]


class TestGraphChecks:
    """A graph index checks its adjacency when it is made or replaced."""

    @pytest.mark.parametrize("corrupt, message", CORRUPT_GRAPHS)
    def test_corrupt_graph_rejected(self, rng, corrupt, message):
        index = build_graph(unit_vectors(rng, 20, 4), np.arange(20), max_degree=4, build_width=8)
        with pytest.raises(ValidationError, match=message):
            replace(index, **corrupt(index))

    def test_bad_max_degree_rejected(self, rng):
        index = build_graph(unit_vectors(rng, 2, 4), np.arange(2), max_degree=2, build_width=2)
        with pytest.raises(ValidationError, match="max_degree must be >= 2"):
            replace(index, max_degree=1)

    def test_offsets_without_neighbors_rejected(self, rng):
        index = build_graph(unit_vectors(rng, 20, 4), np.arange(20), max_degree=4, build_width=8)
        with pytest.raises(ValidationError, match="both offsets and neighbors"):
            replace(index, neighbors=None)

    def test_an_index_cannot_be_changed_in_place(self, rng):
        index = build_exact(unit_vectors(rng, 20, 4), np.arange(20))
        with pytest.raises(FrozenInstanceError):
            index.ids = np.arange(20) + 100

    def test_arrays_are_read_only_views(self, rng):
        graph = build_graph(unit_vectors(rng, 20, 4), np.arange(20), max_degree=4, build_width=8)
        ids, offsets, neighbors = np.arange(20), graph.offsets.copy(), graph.neighbors.copy()
        index = replace(graph, ids=ids, offsets=offsets, neighbors=neighbors)
        for name in ("vectors", "ids", "offsets", "neighbors"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(index, name)[0] = 0
        # Views: the caller's own arrays stay writable.
        assert ids.flags.writeable and offsets.flags.writeable and neighbors.flags.writeable

    def test_rows_are_stored_normalized(self, rng):
        v = rng.normal(size=(20, 4)) * 3
        index = replace(build_exact(unit_vectors(rng, 20, 4), np.arange(20)), vectors=v)
        assert np.array_equal(index.vectors, reference_normalize(v))


class TestPersistence:
    def test_embeddings_roundtrip(self, tmp_path, rng):
        v = unit_vectors(rng, 12, 6).astype(np.float32)
        ids = np.arange(12) * 7
        save_embeddings(tmp_path / "e.kemb", v, ids)
        back_v, back_ids = load_embeddings(tmp_path / "e.kemb")
        np.testing.assert_array_equal(back_v, v)
        np.testing.assert_array_equal(back_ids, ids)

    def test_graph_roundtrip(self, tmp_path, rng):
        v = unit_vectors(rng, 60, 8)
        ids = np.arange(60)
        index = build_graph(v, ids, max_degree=8, build_width=16, seed=4)
        save_embeddings(tmp_path / "e.kemb", index.vectors, index.ids)
        save_graph(tmp_path / "g.kgra", index)
        back_v, back_ids = load_embeddings(tmp_path / "e.kemb")
        back = load_graph(tmp_path / "g.kgra", back_v, back_ids)
        q = rng.normal(size=8)
        assert search(back, q, 5) == search(index, q, 5)

    @pytest.mark.parametrize("kind", [EXACT, GRAPH])
    def test_loaded_rows_and_ids_view_one_sealed_buffer(self, tmp_path, rng, kind):
        v = unit_vectors(rng, 21, 5).astype(np.float32)  # odd widths: the ids start unaligned
        index = build_graph(v, np.arange(21) * 3, max_degree=4, build_width=8)
        save_embeddings(tmp_path / "e.kemb", index.vectors, index.ids)
        save_graph(tmp_path / "g.kgra", index)
        vectors, ids = load_embeddings(tmp_path / "e.kemb")
        if kind == EXACT:
            back = build_exact(vectors, ids)
        else:
            back = load_graph(tmp_path / "g.kgra", vectors, ids)
        assert np.array_equal(back.vectors, v) and back.ids.tolist() == list(range(0, 63, 3))
        chains = [_base_chain(back.vectors), _base_chain(back.ids)]
        buffers = [chain[-1] for chain in chains]
        assert all(isinstance(b, memoryview) and b.readonly for b in buffers)
        assert buffers[0].obj is buffers[1].obj  # one buffer, read once
        assert back.vectors.__array_interface__["data"][0] % 64 == 0
        for array in chains[0][:-1] + chains[1][:-1]:
            with pytest.raises(ValueError, match="WRITEABLE"):
                array.flags.writeable = True
        assert back.ids.dtype == np.int64 and sealed(back.vectors) and sealed(back.ids)

    def test_ids_keep_the_bits_of_the_stored_u64(self, tmp_path, rng):
        v = unit_vectors(rng, 2, 3)
        save_embeddings(tmp_path / "e.kemb", v, np.array([5, -2]))  # -2 is stored as 2**64 - 2
        assert load_embeddings(tmp_path / "e.kemb")[1].tolist() == [5, -2]

    @pytest.mark.parametrize("how", ["writable", "read-only view", "read-only owner",
                                     "read-only memoryview of a bytearray"])
    def test_build_exact_copies_rows_a_caller_can_write(self, rng, how):
        # Float32, C-order and 64-byte aligned unit rows, as a load gives
        # (numpy cannot be asked for an aligned owner): only who can write
        # them decides.
        v = unit_vectors(rng, 16, 4).astype(np.float32)
        raw = bytearray(v.nbytes + 64)
        whole = np.frombuffer(raw, np.uint8)
        start = -whole.__array_interface__["data"][0] % 64
        mine = whole[start:start + v.nbytes].view(np.float32).reshape(v.shape)
        mine[:] = v
        given = {
            "writable": lambda: mine,
            "read-only view": lambda: read_only(mine),
            "read-only owner": lambda: _read_only_owner(mine),
            "read-only memoryview of a bytearray": lambda: np.frombuffer(
                memoryview(raw).toreadonly()[start:start + v.nbytes], np.float32).reshape(v.shape),
        }[how]()
        assert not sealed(given)
        assert how == "read-only owner" or given.__array_interface__["data"][0] % 64 == 0
        index = build_exact(given, np.arange(16))
        mine[0] = mine[1]
        if how == "read-only owner":
            given.flags.writeable = True
            given[2] = given[3]
        assert np.array_equal(index.vectors, v)

    def test_a_non_unit_stored_row_loads_as_the_reference_gives_it(self, tmp_path, rng):
        v = unit_vectors(rng, 10, 4).astype(np.float32)
        v[3] *= 3
        save_embeddings(tmp_path / "e.kemb", v, np.arange(10))
        index = build_exact(*load_embeddings(tmp_path / "e.kemb"))
        assert np.array_equal(index.vectors[3], reference_normalize(v[3:4])[0])
        assert np.array_equal(np.delete(index.vectors, 3, 0), np.delete(v, 3, 0))
        assert index.vectors.base.flags.owndata  # new rows, the buffer untouched
        assert np.array_equal(load_embeddings(tmp_path / "e.kemb")[0][3], v[3])

    def test_graph_embeddings_mismatch(self, tmp_path, rng):
        v = unit_vectors(rng, 10, 4)
        index = build_graph(v, np.arange(10), max_degree=4, build_width=8)
        save_graph(tmp_path / "g.kgra", index)
        with pytest.raises(ValidationError, match="match"):
            load_graph(tmp_path / "g.kgra", v[:5], np.arange(5))

    @pytest.mark.parametrize("corrupt, message", CORRUPT_GRAPHS)
    def test_corrupt_graph_rejected_at_load(self, tmp_path, rng, corrupt, message):
        v = unit_vectors(rng, 20, 4)
        index = build_graph(v, np.arange(20), max_degree=4, build_width=8)
        (tmp_path / "g.kgra").write_bytes(unchecked_kgra_bytes(index, **corrupt(index)))
        with pytest.raises(ValidationError, match=message):
            load_graph(tmp_path / "g.kgra", v, np.arange(20))

    def test_negative_edge_count_rejected_at_load(self, tmp_path, rng):
        v = unit_vectors(rng, 20, 4)
        index = build_graph(v, np.arange(20), max_degree=4, build_width=8)
        offsets = np.r_[index.offsets[:-1], -3]  # a negative edge count
        (tmp_path / "g.kgra").write_bytes(unchecked_kgra_bytes(index, offsets=offsets))
        with pytest.raises(ValidationError, match="byte count -12 is negative"):
            load_graph(tmp_path / "g.kgra", v, np.arange(20))

    @pytest.mark.parametrize(
        "header, message",
        [
            pytest.param({"max_degree": 1}, "max_degree must be >= 2", id="max-degree"),
        ],
    )
    def test_bad_build_parameters_rejected_at_load(self, tmp_path, rng, header, message):
        # Two rows: one neighbour each, so a max_degree of 1 fits the rows.
        v = unit_vectors(rng, 2, 4)
        index = build_graph(v, np.arange(2), max_degree=2, build_width=2)
        (tmp_path / "g.kgra").write_bytes(unchecked_kgra_bytes(index, **header))
        with pytest.raises(ValidationError, match=message):
            load_graph(tmp_path / "g.kgra", v, np.arange(2))
