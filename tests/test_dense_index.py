from dataclasses import replace

import numpy as np
import pytest

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
)

from oracles import naive_topk


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

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError, match="zero vector"):
            build_exact(np.zeros((2, 4)), [0, 1])


class TestGraph:
    def test_three_equidistant_points_keep_each_other(self):
        # Mutually equidistant: pruning has no grounds to drop anything.
        v = np.array([[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]])
        index = build_graph(v, np.arange(3), max_degree=2, build_width=4)
        for row in range(3):
            s, e = index.offsets[row], index.offsets[row + 1]
            assert set(index.neighbors[s:e].tolist()) == {0, 1, 2} - {row}

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

    def test_graph_embeddings_mismatch(self, tmp_path, rng):
        v = unit_vectors(rng, 10, 4)
        index = build_graph(v, np.arange(10), max_degree=4, build_width=8)
        save_graph(tmp_path / "g.kgra", index)
        with pytest.raises(ValidationError, match="match"):
            load_graph(tmp_path / "g.kgra", v[:5], np.arange(5))

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            pytest.param(lambda g: {"neighbors": np.r_[len(g), g.neighbors[1:]]}, "neighbor id",
                         id="neighbor-n"),
            pytest.param(lambda g: {"neighbors": np.r_[-1, g.neighbors[1:]]}, "neighbor id",
                         id="neighbor-negative"),
            pytest.param(lambda g: {"entry": len(g)}, "entry point", id="entry-n"),
            pytest.param(lambda g: {"offsets": g.offsets + 1}, "offsets", id="offsets-start"),
            pytest.param(
                lambda g: {"offsets": np.r_[0, g.offsets[2], g.offsets[1], g.offsets[3:]]},
                "offsets", id="offsets-decrease",
            ),
            pytest.param(lambda g: {"max_degree": 1}, "more than 1 neighbors", id="degree"),
        ],
    )
    def test_corrupt_graph_rejected_at_load(self, tmp_path, rng, corrupt, message):
        v = unit_vectors(rng, 20, 4)
        index = build_graph(v, np.arange(20), max_degree=4, build_width=8)
        save_graph(tmp_path / "g.kgra", replace(index, **corrupt(index)))
        with pytest.raises(ValidationError, match=message):
            load_graph(tmp_path / "g.kgra", v, np.arange(20))
