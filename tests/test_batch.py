"""Serving in batches: a query's results, its encoder rows and its dense
hits do not depend on the batch or chunk it is served in."""

import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unikw import (
    Vocab,
    build_exact,
    build_graph,
    encode,
    encode_batch,
    init_params,
    retrieve,
    retrieve_batch,
    search,
    search_batch,
    tokenize,
    tokenize_batch,
)
from unikw import dense_index
import unikw.retriever as retriever_module
from unikw.corpus import _flatten
from unikw.dense_index import _graph_search
from unikw.retriever import chunk_size

from conftest import bundle_from_catalog
from oracles import scalar_greedy_search
from test_dense_index import random_graph_index

WORDS = ["red", "blue", "green", "shoes", "boots", "kettle", "ink", "printer",
         "hp", "running", "electric", "cartridge", "black", "steel", "glass"]


def _catalog(seed=5, size=80):
    rng = np.random.default_rng(seed)
    texts = {" ".join(rng.choice(WORDS, int(rng.integers(1, 4)), replace=False))
             for _ in range(4 * size)}
    return sorted(texts)[:size]


CATALOG = _catalog()
#: Query words: catalog words, unknown words and every reserved surface form.
QUERY_WORDS = WORDS + ["zzz", "unknown", "<pad>", "<unk>", "</kw>", "RED", "Shoes"]


@pytest.fixture(scope="module")
def engines():
    """One engine per (index kind, grouped): the same catalog and encoder,
    an exact or graph index over every keyword or over representatives."""
    base = bundle_from_catalog(CATALOG, max_len=4, beam_size=8, dense_k=10, seed=2)
    vectors, n = base.index.vectors, len(CATALOG)
    rng = np.random.default_rng(9)
    chunks = np.split(rng.permutation(n), np.sort(rng.choice(np.arange(1, n), 25, replace=False)))
    groups = {int(c.min()): tuple(sorted(c.tolist())) for c in chunks}
    reps = np.array(sorted(groups))
    out = {}
    for grouped, rows, ids in ((False, np.arange(n), np.arange(n)), (True, reps, reps)):
        for kind in ("exact", "graph"):
            index = (build_exact(vectors[rows], ids) if kind == "exact" else
                     build_graph(vectors[rows], ids, max_degree=6, build_width=12, seed=1))
            engine = replace(base, index=index, groups=groups if grouped else None)
            engine.validate()
            out[kind, grouped] = engine
    return out


query_texts = st.one_of(
    st.lists(st.sampled_from(QUERY_WORDS), max_size=7).map(" ".join),  # empty and over-long too
    st.sampled_from(["", " ", "\t \t", "<unk> </kw> <pad>", "zzz zzz zzz zzz zzz zzz"]),
)


class TestRetrieveBatch:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_each_query_equals_its_lone_retrieve(self, engines, data):
        kind = data.draw(st.sampled_from(["exact", "graph"]))
        grouped = data.draw(st.booleans())
        engine = engines[kind, grouped]
        orders = data.draw(st.sampled_from([("l2r",), ("r2l",), ("l2r", "r2l")]))
        dense_k = data.draw(st.sampled_from([0, 1, 3, len(engine.index), len(CATALOG) + 7]))
        engine = replace(engine, dense_k=dense_k, decode=replace(engine.decode, orders=orders))
        pool = data.draw(st.lists(query_texts, min_size=1, max_size=8))
        queries = data.draw(st.lists(st.sampled_from(pool), max_size=30))  # repeats likely
        # Chunks of 1 query up to the whole batch, so a query sits anywhere in one.
        chunk_bytes = data.draw(st.sampled_from([1, 3 * 4 * len(engine.vocab) * 8, 1 << 18]))
        before = engine.params.forward_counter.count
        with mock.patch.object(retriever_module, "CHUNK_BYTES", chunk_bytes):
            got = retrieve_batch(engine, queries)
        assert engine.params.forward_counter.count - before == len(queries)
        assert len(got) == len(queries)
        for query, results in zip(queries, got):
            assert results == retrieve(engine, query), query

    def test_empty_batch(self, engines):
        engine = engines["graph", False]
        before = engine.params.forward_counter.count
        assert retrieve_batch(engine, []) == []
        assert engine.params.forward_counter.count == before

    def test_chunk_size_bounds_the_tables_and_the_unseen_mask(self, engines):
        engine = engines["exact", False]
        table = engine.params.max_len * engine.params.vocab_size * 8
        assert chunk_size(engine) == retriever_module.CHUNK_BYTES // table
        wide = replace(engine.index, kind=dense_index.GRAPH, vectors=np.zeros((table + 9, 8)))
        assert chunk_size(replace(engine, index=wide)) == retriever_module.CHUNK_BYTES // (table + 9)
        assert chunk_size(replace(engine, index=replace(wide, kind="exact"))) == chunk_size(engine)
        with mock.patch.object(retriever_module, "CHUNK_BYTES", 1):
            assert chunk_size(engine) == 1


class TestEncodeBatch:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seqs=st.lists(st.lists(st.integers(0, 15), min_size=1, max_size=4).map(tuple),
                         max_size=12))
    def test_rows_are_the_bits_of_encode(self, seqs):
        params = init_params(16, dim=5, dense_dim=3, hidden_dim=7, max_len=4, seed=4)
        out = encode_batch(params, *_flatten(seqs))
        assert out.dr_embedding.shape == (len(seqs), 3)
        assert out.nar_logprobs.shape == (len(seqs), 4, 16)
        for i, seq in enumerate(seqs):
            alone = encode(params, seq)
            assert np.array_equal(out.dr_embedding[i], alone.dr_embedding)
            assert np.array_equal(out.nar_logprobs[i], alone.nar_logprobs)

    def test_counts_one_pass_per_sequence(self):
        params = init_params(16, dim=5, dense_dim=3, hidden_dim=7, max_len=4)
        before = params.forward_counter.count
        encode_batch(params, *_flatten([(3,), (4, 5), (3,)]))
        assert params.forward_counter.count == before + 3
        encode_batch(params, *_flatten([]))
        assert params.forward_counter.count == before + 3

    def test_served_queries_at_workload_sizes(self):
        """At a served encoder's sizes (V = 403, M = 8, h = 64) a row is
        the same bits at every position of every batch size."""
        params = init_params(403, dim=32, dense_dim=16, hidden_dim=64, max_len=8, seed=1)
        vocab_tokens = [f"w{i}" for i in range(400)]
        vocab = Vocab.from_tokens(vocab_tokens)
        rng = np.random.default_rng(3)
        texts = [" ".join(rng.choice(vocab_tokens, int(rng.integers(1, 10)))) for _ in range(40)]
        alone = [encode(params, tokenize(t, vocab, "query", 8)) for t in texts]
        for size in (1, 2, 7, 16, 40):
            for lo in range(0, len(texts), size):
                out = encode_batch(params, *tokenize_batch(texts[lo:lo + size], vocab, "query", 8))
                for i, want in enumerate(alone[lo:lo + size]):
                    assert np.array_equal(out.dr_embedding[i], want.dr_embedding)
                    assert np.array_equal(out.nar_logprobs[i], want.nar_logprobs)


class TestGraphSearchBatch:
    @pytest.mark.parametrize("beam", [1, None])
    def test_every_query_searches_as_it_would_alone(self, monkeypatch, beam):
        """Each query's list and expanded rows, in order, are those of its
        search alone; at one row per step, those of the heap oracle."""
        if beam:
            monkeypatch.setattr(dense_index, "_SEARCH_BEAM", beam)
        rng = np.random.default_rng(31)
        for _ in range(80):
            n = int(rng.integers(1, 90))
            index = random_graph_index(rng, n, 4, int(rng.integers(2, 12)))
            count = int(rng.integers(1, 9))
            queries = rng.normal(size=(count, 4))
            queries[rng.random(count) < 0.3] = index.vectors[0]  # copies tie at distance 0
            queries = (queries / np.linalg.norm(queries, axis=1, keepdims=True)).astype(np.float32)
            width = int(rng.integers(1, 25))
            lists, owners, expanded = _graph_search(index, queries, width)
            assert len(lists) == count
            for q in range(count):
                alone, alone_owners, alone_expanded = _graph_search(index, queries[q:q + 1], width)
                assert lists[q].tolist() == alone[0].tolist()
                assert len(set(lists[q].tolist())) == len(lists[q])
                assert expanded[owners == q].tolist() == alone_expanded.tolist()
                assert not alone_owners.any()
                if beam:
                    want_rows, want_expanded = scalar_greedy_search(
                        index.vectors, index.offsets, index.neighbors, index.entry, queries[q], width)
                    assert lists[q].tolist() == want_rows
                    assert expanded[owners == q].tolist() == want_expanded

    @pytest.mark.parametrize("kind", ["exact", "graph"])
    def test_search_batch_equals_search(self, kind):
        rng = np.random.default_rng(32)
        v = rng.normal(size=(300, 8))
        v[:40] = v[0]
        index = (build_exact(v, np.arange(300)) if kind == "exact"
                 else build_graph(v, np.arange(300), max_degree=8, build_width=16, seed=0))
        queries = rng.normal(size=(17, 8)) * rng.uniform(0.1, 10, size=(17, 1))
        queries[::4] = v[0]
        for k in (1, 10, 300):
            got = search_batch(index, queries, k, search_width=20)
            assert got == [search(index, q, k, search_width=20) for q in queries]
        assert search_batch(index, np.empty((0, 8)), 5) == []
        assert search_batch(build_exact(np.empty((0, 8)), []), queries, 5) == [[]] * 17

    def test_more_queries_than_the_key_holds(self, monkeypatch):
        """With row numbers 29 bits wide a key's top bits hold 4 queries,
        so 10 queries search in groups of 4, 4 and 2."""
        rng = np.random.default_rng(34)
        v = rng.normal(size=(120, 8))
        index = build_graph(v, np.arange(120), max_degree=8, build_width=16, seed=0)
        queries = rng.normal(size=(10, 8))
        want = [search(index, q, 7) for q in queries]
        groups = []
        graph_search = dense_index._graph_search
        monkeypatch.setattr(dense_index, "_row_bits", lambda n: 29)
        monkeypatch.setattr(dense_index, "_graph_search",
                            lambda index, qs, width: groups.append(len(qs)) or graph_search(index, qs, width))
        assert search_batch(index, queries, 7) == want
        assert groups == [4, 4, 2]

    @pytest.mark.parametrize("kind", ["exact", "graph"])
    def test_each_query_scaled_by_its_own_norm(self, kind):
        """Scores are the float64 rescore against ``q / np.linalg.norm(q)``,
        bit for bit, as for a query searched alone before batches."""
        rng = np.random.default_rng(33)
        v = rng.normal(size=(200, 16))
        index = (build_exact(v, np.arange(200)) if kind == "exact"
                 else build_graph(v, np.arange(200), max_degree=8, build_width=16, seed=0))
        queries = rng.normal(size=(300, 16)) * rng.uniform(0.01, 100, size=(300, 1))
        for query, hits in zip(queries, search_batch(index, queries, 5)):
            ids = [kid for kid, _ in hits]
            want = np.einsum("ij,j->i", index.vectors[ids].astype(np.float64),
                             query / np.linalg.norm(query))
            assert [score for _, score in hits] == want.tolist()


_SAVE_BUNDLE = textwrap.dedent("""
    import sys
    from pathlib import Path
    import numpy as np
    from unikw import (FORWARD, REVERSED, Vocab, build_graph, build_trie_arrays, embed_flat,
                       init_params, save_embeddings, save_graph, save_params, save_vocab,
                       serialize, tokenize_batch)

    out, kind = Path(sys.argv[1]), sys.argv[2]
    rng = np.random.default_rng(0)
    tokens = [f"w{i:03d}" for i in range(400)]
    vocab = Vocab.from_tokens(tokens)
    catalog = sorted({" ".join(rng.choice(tokens, int(rng.integers(1, 5)), replace=False))
                      for _ in range(3000)})
    (out / "keywords.txt").write_text("".join(t + "\\n" for t in catalog), encoding="utf-8")
    save_vocab(vocab, out / "vocab.txt")
    flat, lengths = tokenize_batch(catalog, vocab, "keyword", 8)
    ids = np.arange(len(catalog))
    for direction, name in ((FORWARD, "trie.fwd.ktri"), (REVERSED, "trie.rev.ktri")):
        serialize(build_trie_arrays(flat, lengths, ids, direction, vocab.checksum()), out / name)
    params = init_params(len(vocab), dim=32, dense_dim=16, hidden_dim=64, max_len=8, seed=1)
    save_params(params, out / "encoder.kenc")
    vectors = embed_flat(params, flat, lengths)
    save_embeddings(out / "embeddings.kemb", vectors, ids)
    if kind == "graph":
        save_graph(out / "graph.kgra", build_graph(vectors, ids, max_degree=16, build_width=32))
    rng.shuffle(catalog)
    (out / "queries.txt").write_text("".join(t + "\\n" for t in catalog[:60]), encoding="utf-8")
""")


@pytest.mark.parametrize("kind", ["exact", "graph"])
def test_retrieve_output_independent_of_blas_threads(tmp_path, kind):
    """Every product a chunk runs has the shape of one query's, small
    enough for OpenBLAS to run on one thread, so `unikw retrieve` writes
    the same bytes at any BLAS thread count.  One (chunk x positions)
    GEMM over this encoder (V = 403, h = 64, M = 8) would cross that size."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", _SAVE_BUNDLE, str(tmp_path), kind], env=env,
                   check=True, timeout=120)
    outputs = []
    for threads in ("1", "2", "1"):
        out = tmp_path / f"threads{threads}-{len(outputs)}.jsonl"
        run_env = dict(env, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "unikw.cli", "retrieve", "--bundle-dir", str(tmp_path),
                        "--queries", str(tmp_path / "queries.txt"), "--beam", "20",
                        "--out", str(out)], env=run_env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        outputs.append(out.read_bytes())
    assert outputs[0].count(b"\n") == 60
    assert outputs[0] == outputs[1] == outputs[2]
