"""End-to-end command-line pipeline on a small synthetic corpus."""

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import re
import shutil
import signal
import struct
import sys
import tempfile
import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unikw import (
    FORWARD,
    REVERSED,
    ConsistencyError,
    KeywordTrie,
    ValidationError,
    TrainConfig,
    build_graph,
    build_trie,
    build_vocab,
    embed_batch,
    init_params,
    load_embeddings,
    load_keywords,
    load_pairs,
    load_params,
    load_vocab,
    retrieve,
    retrieve_channels,
    save_embeddings,
    save_graph,
    save_params,
    save_vocab,
    serialize,
    tokenize,
    train,
)
from unikw import cli, dense_index, retriever
from unikw.cli import load_bundle, main
from unikw.fileio import frame, sealed
from unikw.retriever import chunk_size, results_to_jsonl_line
from unikw.trie import to_bytes

from oracles import (
    loop_cluster_keywords, reference_jsonl_line, reference_load_keywords, reference_normalize,
    scalar_trie, unchecked_kenc_bytes,
)
from synthdata import make_training_corpus, write_corpus_files
from test_formats import graph_version_2, graph_version_4

TRAIN_CONFIG = {
    "epochs": 4,
    "batch_size": 32,
    "cluster_count": 2,
    "negatives_per_positive": 2,
    "learning_rate": 0.2,
    "momentum": 0.8,
    "dim": 16,
    "dense_dim": 8,
    "hidden_dim": 32,
    "max_len": 4,
    "seed": 0,
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full build-vocab -> trie -> train -> index pipeline once."""
    root = tmp_path_factory.mktemp("cli")
    bundle = root / "bundle"
    bundle.mkdir()
    corpus = make_training_corpus(seed=3, n_keywords=40, n_train=200, n_heldout=30)
    paths = write_corpus_files(corpus, root)
    (bundle / "keywords.txt").write_bytes(paths["keywords"].read_bytes())

    config_path = root / "train.json"
    config_path.write_text(json.dumps(TRAIN_CONFIG), encoding="utf-8")

    assert main([
        "build-vocab", "--keywords", str(paths["keywords"]),
        "--pairs", str(paths["pairs"]), "--out", str(bundle / "vocab.txt"),
    ]) == 0
    for direction, name in (("fwd", "trie.fwd.ktri"), ("rev", "trie.rev.ktri")):
        assert main([
            "build-trie", "--keywords", str(paths["keywords"]),
            "--vocab", str(bundle / "vocab.txt"), "--direction", direction,
            "--max-len", "4", "--out", str(bundle / name),
        ]) == 0
    assert main([
        "train", "--pairs", str(paths["pairs"]), "--vocab", str(bundle / "vocab.txt"),
        "--config-file", str(config_path), "--out", str(bundle / "encoder.kenc"),
    ]) == 0
    assert main([
        "index", "--checkpoint", str(bundle / "encoder.kenc"),
        "--keywords", str(paths["keywords"]), "--vocab", str(bundle / "vocab.txt"),
        "--kind", "graph", "--out", str(bundle),
    ]) == 0
    return {"root": root, "bundle": bundle, "paths": paths, "corpus": corpus}


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def validation_message(capsys) -> str:
    """The message of the one validation error JSON line on stderr."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])["error"]
    assert err["code"] == 2 and err["kind"] == "validation"
    return err["message"]


@pytest.fixture(scope="module")
def clustered(pipeline, tmp_path_factory):
    """The pipeline's bundle re-indexed exactly over cluster representatives."""
    bundle = tmp_path_factory.mktemp("clustered") / "bundle"
    shutil.copytree(pipeline["bundle"], bundle)
    assert main([
        "index", "--checkpoint", str(bundle / "encoder.kenc"),
        "--keywords", str(pipeline["paths"]["keywords"]), "--vocab", str(bundle / "vocab.txt"),
        "--cluster-threshold", "0.3", "--out", str(bundle),
    ]) == 0
    lines = (bundle / "reps.tsv").read_text(encoding="utf-8").splitlines()
    reps = dict(tuple(int(x) for x in line.split("\t")) for line in lines)
    return {"bundle": bundle, "reps": reps}


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        bundle = pipeline["bundle"]
        for name in (
            "vocab.txt", "keywords.txt", "encoder.kenc",
            "trie.fwd.ktri", "trie.rev.ktri", "embeddings.kemb", "graph.kgra",
        ):
            assert (bundle / name).exists(), name

    def test_retrieve_jsonl(self, pipeline):
        out = pipeline["root"] / "results.jsonl"
        assert main([
            "retrieve", "--bundle-dir", str(pipeline["bundle"]),
            "--queries", str(pipeline["paths"]["queries"]),
            "--beam", "20", "--topk", "10", "--out", str(out),
        ]) == 0
        rows = read_jsonl(out)
        assert len(rows) == len(pipeline["corpus"].heldout_queries)
        for row in rows:
            assert set(row) == {"query", "results"}
            for r in row["results"]:
                assert r["source"] in ("NLG", "DR", "BOTH")
        assert (out.parent / (out.name + ".meta.json")).exists()

    def test_retrieve_deterministic(self, pipeline):
        outs = []
        for name in ("r1.jsonl", "r2.jsonl"):
            out = pipeline["root"] / name
            assert main([
                "retrieve", "--bundle-dir", str(pipeline["bundle"]),
                "--queries", str(pipeline["paths"]["queries"]),
                "--beam", "10", "--topk", "5", "--seed", "7", "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_eval_on_results(self, pipeline):
        results = pipeline["root"] / "results.jsonl"
        if not results.exists():
            main([
                "retrieve", "--bundle-dir", str(pipeline["bundle"]),
                "--queries", str(pipeline["paths"]["queries"]),
                "--beam", "20", "--topk", "10", "--out", str(results),
            ])
        out = pipeline["root"] / "metrics.json"
        assert main([
            "eval", "--results", str(results), "--labels", str(pipeline["paths"]["labels"]),
            "--scorer", "overlap", "--ks", "1,5,10", "--thresholds", "0.5,0.7",
            "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        metrics = payload["metrics"]
        assert {"P@1", "R@10", "nDCG@5", "Q@0.5", "Q@0.7"} <= set(metrics)
        assert payload["meta"]["command"] == "eval"
        assert metrics["Q@0.5"] >= metrics["Q@0.7"]

    def test_bench_forward_counts(self, pipeline):
        out = pipeline["root"] / "bench.json"
        assert main([
            "bench", "--bundle-dir", str(pipeline["bundle"]),
            "--queries", str(pipeline["paths"]["queries"]),
            "--beams", "5,10,20", "--repeat", "1", "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert [b["beam"] for b in report["beams"]] == [5, 10, 20]
        for row in report["beams"]:
            assert row["forward_passes_per_query"] == 1.0
            assert row["decode"]["mean_ms"] > 0

    def test_bench_times_dense_search(self, pipeline):
        out = pipeline["root"] / "bench-dense.json"
        assert main([
            "bench", "--bundle-dir", str(pipeline["bundle"]),
            "--queries", str(pipeline["paths"]["queries"]),
            "--beams", "5,10", "--repeat", "2", "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        for row in report["beams"]:
            dense = row["dense"]
            assert set(dense) == {"mean_ms", "p50_ms", "p90_ms", "p99_ms"}
            assert 0 < dense["p50_ms"] <= dense["p90_ms"] <= dense["p99_ms"]
            assert dense["mean_ms"] > 0

    @pytest.mark.parametrize("repeat, empty, message", [
        ("0", False, "--repeat"),    # was a ZeroDivisionError traceback
        ("-1", False, "--repeat"),   # was an IndexError traceback
        ("1", True, "no queries"),   # was a ZeroDivisionError traceback
    ], ids=["repeat-0", "repeat-negative", "no-queries"])
    def test_bench_needs_a_repeat_and_a_query(
        self, pipeline, tmp_path, capsys, repeat, empty, message
    ):
        queries = pipeline["paths"]["queries"]
        if empty:
            queries = tmp_path / "queries.txt"
            queries.write_text("\n  \n", encoding="utf-8")
        code = main([
            "bench", "--bundle-dir", str(pipeline["bundle"]), "--queries", str(queries),
            "--beams", "5", "--repeat", repeat, "--out", str(tmp_path / "bench.json"),
        ])
        assert code == 2
        assert message in validation_message(capsys)
        assert not (tmp_path / "bench.json").exists()

    @pytest.mark.parametrize("beams", [",", "", " , ", "10,10", "5,10,5"],
                             ids=["comma", "empty", "blanks", "repeat", "repeat-apart"])
    def test_bench_needs_distinct_beams(self, pipeline, tmp_path, capsys, beams):
        # "," used to exit 0 with an empty report; "10,10" timed beam 10 twice.
        code = main([
            "bench", "--bundle-dir", str(pipeline["bundle"]),
            "--queries", str(pipeline["paths"]["queries"]),
            "--beams", beams, "--repeat", "1", "--out", str(tmp_path / "bench.json"),
        ])
        assert code == 2
        assert "--beams" in validation_message(capsys)
        assert not (tmp_path / "bench.json").exists()

    def test_exact_reindex_removes_stale_graph(self, pipeline, tmp_path):
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)
        assert load_bundle(bundle).index.kind == "graph"
        assert main([
            "index", "--checkpoint", str(bundle / "encoder.kenc"),
            "--keywords", str(pipeline["paths"]["keywords"]), "--vocab", str(bundle / "vocab.txt"),
            "--kind", "exact", "--out", str(bundle),
        ]) == 0
        assert not (bundle / "graph.kgra").exists()
        assert load_bundle(bundle).index.kind == "exact"

    def test_plain_reindex_removes_stale_reps(self, pipeline, tmp_path):
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)
        index = [
            "index", "--checkpoint", str(bundle / "encoder.kenc"),
            "--keywords", str(pipeline["paths"]["keywords"]), "--vocab", str(bundle / "vocab.txt"),
            "--out", str(bundle),
        ]
        assert main(index + ["--cluster-threshold", "0.3"]) == 0
        assert (bundle / "reps.tsv").exists()
        assert main(index) == 0
        assert not (bundle / "reps.tsv").exists()

    @pytest.mark.parametrize("flags", [
        ["--cluster-threshold", "1.5"],
    ], ids=lambda flags: flags[0])
    def test_failed_index_leaves_the_bundle_untouched(self, pipeline, tmp_path, capsys, flags):
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)
        index = [
            "index", "--checkpoint", str(bundle / "encoder.kenc"),
            "--keywords", str(pipeline["paths"]["keywords"]), "--vocab", str(bundle / "vocab.txt"),
            "--kind", "graph", "--cluster-threshold", "0.3", "--out", str(bundle),
        ]
        assert main(index) == 0  # a clustered graph bundle: reps.tsv and graph.kgra
        before = {f.name: f.read_bytes() for f in bundle.iterdir()}
        assert {"reps.tsv", "graph.kgra"} <= before.keys()
        capsys.readouterr()
        assert main(index + flags) == 2
        validation_message(capsys)
        assert {f.name: f.read_bytes() for f in bundle.iterdir()} == before

    @pytest.mark.parametrize("kind", ["exact", "graph"])
    def test_non_finite_embedding_rows_are_validation_error(
        self, pipeline, tmp_path, capsys, kind
    ):
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)  # a graph bundle
        if kind == "exact":
            (bundle / "graph.kgra").unlink()
        vectors, ids = load_embeddings(bundle / "embeddings.kemb")
        vectors = vectors.copy()  # the loaded rows are a read-only view of the file
        vectors[0, 0], vectors[1, 1] = np.nan, np.inf
        save_embeddings(bundle / "embeddings.kemb", vectors, ids)  # a valid checksum
        code = main([
            "retrieve", "--bundle-dir", str(bundle),
            "--queries", str(pipeline["paths"]["queries"]), "--out", str(tmp_path / "r.jsonl"),
        ])
        assert code == 2
        assert "non-finite" in validation_message(capsys)
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("queries", ["", "red shoes\n"], ids=["no-queries", "queries"])
    def test_negative_topk_is_validation_error(self, pipeline, tmp_path, capsys, queries):
        # It used to exit 0 on an empty query file, and to load the whole
        # bundle and then fail at the first search otherwise.
        path, out = tmp_path / "q.txt", tmp_path / "r.jsonl"
        path.write_text(queries, encoding="utf-8")
        code = main(["retrieve", "--bundle-dir", str(pipeline["bundle"]), "--queries", str(path),
                     "--topk", "-1", "--out", str(out)])
        assert code == 2
        assert "dense_k must be an integer >= 0, got -1" in validation_message(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["retrieve", "bench"])
    def test_repeated_order_is_validation_error(self, pipeline, tmp_path, capsys, command):
        # It used to run the same beam search twice per query.
        out = tmp_path / "out.json"
        code = main([
            command, "--bundle-dir", str(pipeline["bundle"]),
            "--queries", str(pipeline["paths"]["queries"]), "--orders", "l2r,l2r",
            "--out", str(out),
        ])
        assert code == 2
        assert "repeated decoding order" in validation_message(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["retrieve", "bench"])
    def test_no_order_is_validation_error(self, pipeline, tmp_path, capsys, command):
        # DecodeConfig rejects it after the bundle loads, as an unknown order.
        out = tmp_path / "out.json"
        code = main([
            command, "--bundle-dir", str(pipeline["bundle"]),
            "--queries", str(pipeline["paths"]["queries"]), "--orders", ",", "--out", str(out),
        ])
        assert code == 2
        assert "at least one decoding order is required" in validation_message(capsys)
        assert not out.exists()

    def test_trie_deeper_than_the_encoder_is_validation_error(self, pipeline, tmp_path, capsys):
        # The encoder has 4 positions; the decoder used to drop, silently,
        # every keyword a trie built at --max-len 16 held past them.
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)
        with open(bundle / "keywords.txt", "a", encoding="utf-8") as f:
            f.write("a keyword of five words\n")  # six positions with EOW
        assert main([  # the index holds it too: only the tries differ below
            "index", "--checkpoint", str(bundle / "encoder.kenc"),
            "--keywords", str(bundle / "keywords.txt"), "--vocab", str(bundle / "vocab.txt"),
            "--kind", "graph", "--out", str(bundle),
        ]) == 0

        def build_tries_and_retrieve(max_len):
            for direction in ("fwd", "rev"):
                assert main([
                    "build-trie", "--keywords", str(bundle / "keywords.txt"),
                    "--vocab", str(bundle / "vocab.txt"), "--direction", direction,
                    "--max-len", max_len, "--out", str(bundle / f"trie.{direction}.ktri"),
                ]) == 0
            capsys.readouterr()
            return main([
                "retrieve", "--bundle-dir", str(bundle),
                "--queries", str(pipeline["paths"]["queries"]), "--out", str(tmp_path / "r.jsonl"),
            ])

        assert build_tries_and_retrieve("16") == 2
        assert validation_message(capsys) == (
            "forward trie holds a keyword of 6 positions, more than the encoder's max_len 4: "
            "build the tries with build-trie --max-len 4"
        )
        assert not (tmp_path / "r.jsonl").exists()
        assert build_tries_and_retrieve("4") == 0

    def test_tries_cut_at_different_lengths_are_validation_error(self, tmp_path, capsys):
        # The bundle loaded, and every query then exited 4: the keyword the
        # forward cut shortened was a different path in each trie, so the
        # two orders scored it apart.
        (tmp_path / "keywords.txt").write_text("red shoes\nblue running shoes\nred hat\nshoes\n",
                                               encoding="utf-8")
        (tmp_path / "pairs.tsv").write_text("red shoes\tred shoes\n", encoding="utf-8")
        (tmp_path / "queries.txt").write_text("blue running shoes\n", encoding="utf-8")
        assert main(["build-vocab", "--keywords", str(tmp_path / "keywords.txt"),
                     "--pairs", str(tmp_path / "pairs.tsv"),
                     "--out", str(tmp_path / "vocab.txt")]) == 0
        vocab = load_vocab(tmp_path / "vocab.txt")
        save_params(init_params(len(vocab), dim=8, dense_dim=4, hidden_dim=8, max_len=4, seed=1),
                    tmp_path / "encoder.kenc")
        for direction, max_len in (("fwd", ["--max-len", "3"]), ("rev", [])):
            assert main(["build-trie", "--keywords", str(tmp_path / "keywords.txt"),
                         "--vocab", str(tmp_path / "vocab.txt"), "--direction", direction,
                         *max_len, "--out", str(tmp_path / f"trie.{direction}.ktri")]) == 0
        assert main(["index", "--checkpoint", str(tmp_path / "encoder.kenc"),
                     "--keywords", str(tmp_path / "keywords.txt"),
                     "--vocab", str(tmp_path / "vocab.txt"), "--kind", "exact",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["retrieve", "--bundle-dir", str(tmp_path),
                     "--queries", str(tmp_path / "queries.txt"),
                     "--out", str(tmp_path / "r.jsonl")]) == 2
        assert validation_message(capsys) == (
            "forward trie is 3 positions deep and reversed trie 4: "
            "build both tries with one build-trie --max-len"
        )
        assert not (tmp_path / "r.jsonl").exists()

    def test_a_keyword_added_after_the_build_is_validation_error(self, pipeline, tmp_path, capsys):
        # It served with exit 0, and the new keyword could never be a hit.
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)
        n = len((bundle / "keywords.txt").read_text(encoding="utf-8").splitlines())
        with open(bundle / "keywords.txt", "a", encoding="utf-8") as f:
            f.write("a keyword added later\n")
        code = main([
            "retrieve", "--bundle-dir", str(bundle),
            "--queries", str(pipeline["paths"]["queries"]), "--out", str(tmp_path / "r.jsonl"),
        ])
        assert code == 2
        assert validation_message(capsys) == (
            f"forward trie must hold every catalog id once; keyword {n} is held 0 times")
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("catalog, message", [
        (b"red shoes\n\xff\xfe boots\n", "can't decode byte 0xff"),
        (b"red shoes\n \t\nblue boots\n", "blank keyword at line 1"),
    ], ids=["invalid-utf8", "blank-line"])
    def test_bad_catalog_is_validation_error(self, pipeline, tmp_path, capsys, catalog, message):
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)
        (bundle / "keywords.txt").write_bytes(catalog)
        code = main([
            "retrieve", "--bundle-dir", str(bundle),
            "--queries", str(pipeline["paths"]["queries"]), "--out", str(tmp_path / "r.jsonl"),
        ])
        assert code == 2
        assert message in validation_message(capsys)
        assert not (tmp_path / "r.jsonl").exists()

    def test_nan_prune_is_validation_error(self, pipeline, tmp_path, capsys):
        code = main([
            "retrieve", "--bundle-dir", str(pipeline["bundle"]),
            "--queries", str(pipeline["paths"]["queries"]), "--prune", "nan",
            "--out", str(tmp_path / "r.jsonl"),
        ])
        assert code == 2
        assert "prune_threshold" in validation_message(capsys)

    def test_clustered_map_is_the_row_at_a_time_loops(self, pipeline, clustered):
        bundle = clustered["bundle"]
        params, vocab = load_params(bundle / "encoder.kenc"), load_vocab(bundle / "vocab.txt")
        catalog = load_keywords(pipeline["paths"]["keywords"])
        vectors = embed_batch(params, [tokenize(text, vocab, "keyword", params.max_len)
                                       for text in catalog])
        assert clustered["reps"] == loop_cluster_keywords(vectors, np.arange(len(catalog)), 0.3)

    def test_clustered_bundle_returns_every_keyword_by_its_own_text(self, clustered, tmp_path):
        bundle, reps = clustered["bundle"], clustered["reps"]
        others = sorted(kid for kid, rep in reps.items() if kid != rep)
        assert others
        keywords = (bundle / "keywords.txt").read_text(encoding="utf-8").splitlines()
        queries = tmp_path / "own.txt"
        queries.write_text("".join(keywords[kid] + "\n" for kid in others), encoding="utf-8")
        out = tmp_path / "own.jsonl"
        assert main([
            "retrieve", "--bundle-dir", str(bundle), "--queries", str(queries),
            "--out", str(out),
        ]) == 0
        rows = read_jsonl(out)
        assert len(rows) == len(others)
        for kid, row in zip(others, rows):
            dense = {r["id"] for r in row["results"] if r["source"] in ("DR", "BOTH")}
            assert kid in dense, row["query"]

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda reps, rep, member: {k: v for k, v in reps.items() if k != member},
                     "every catalog id once", id="id-missing"),
        pytest.param(lambda reps, rep, member: {**reps, rep: member},
                     "map to itself", id="representative-elsewhere"),
        pytest.param(lambda reps, rep, member: {**reps, member: member},
                     "exactly the index ids", id="not-an-index-id"),
        pytest.param(lambda reps, rep, member: {**reps, member: "x"},
                     "is not 'keyword id<TAB>representative id'", id="malformed-line"),
        pytest.param(lambda reps, rep, member: {**reps, 10**30: rep},
                     f"dense index holds keyword id {10**30}, outside the catalog",
                     id="member-past-int64"),
        pytest.param(lambda reps, rep, member: {**reps, 10**30: 10**30},
                     "exactly the index ids", id="representative-past-int64"),
    ])
    def test_bad_representative_map_is_validation_error(
        self, clustered, pipeline, tmp_path, capsys, edit, message
    ):
        bundle = tmp_path / "bundle"
        shutil.copytree(clustered["bundle"], bundle)
        reps = clustered["reps"]
        member = min(kid for kid, rep in reps.items() if kid != rep)
        edited = edit(reps, reps[member], member)
        (bundle / "reps.tsv").write_text(
            "".join(f"{kid}\t{rep}\n" for kid, rep in sorted(edited.items())), encoding="utf-8"
        )
        code = main([
            "retrieve", "--bundle-dir", str(bundle),
            "--queries", str(pipeline["paths"]["queries"]), "--out", str(tmp_path / "r.jsonl"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == "validation" and message in err["error"]["message"]

    def test_failing_query_leaves_no_out_file(self, pipeline, tmp_path, capsys, monkeypatch):
        from unikw import retriever

        size = retriever.chunk_size(load_bundle(pipeline["bundle"]))
        texts = pipeline["paths"]["queries"].read_text(encoding="utf-8").splitlines()
        queries = tmp_path / "queries.txt"  # two chunks and one query more
        queries.write_text("".join(texts[i % len(texts)] + "\n" for i in range(2 * size + 1)),
                           encoding="utf-8")
        served, channels = [], retriever._channels

        def fail_in_second_chunk(bundle, chunk):
            served.append(len(chunk))
            if len(served) == 2:
                raise ConsistencyError("decoding orders disagree")
            return channels(bundle, chunk)

        monkeypatch.setattr(retriever, "_channels", fail_in_second_chunk)
        out = tmp_path / "out"
        out.mkdir()
        code = main([
            "retrieve", "--bundle-dir", str(pipeline["bundle"]),
            "--queries", str(queries), "--out", str(out / "r.jsonl"),
        ])
        assert code == 4 and served == [size, size]
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == "consistency"
        assert list(out.iterdir()) == []  # neither --out nor its partial file

    @pytest.mark.parametrize("case, message", [
        ("duplicate", "duplicate ids"), ("u64-max", "outside the catalog"),
    ])
    def test_bad_embedding_ids_are_validation_error(
        self, pipeline, tmp_path, capsys, case, message
    ):
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)  # a graph bundle
        vectors, ids = load_embeddings(bundle / "embeddings.kemb")
        ids = ids.astype(np.uint64)
        if case == "duplicate":
            ids[1] = ids[0]
        else:
            ids[-1] = 2**64 - 1  # loads as id -1
        save_embeddings(bundle / "embeddings.kemb", vectors, ids)
        code = main([
            "retrieve", "--bundle-dir", str(bundle),
            "--queries", str(pipeline["paths"]["queries"]), "--out", str(tmp_path / "r.jsonl"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == "validation" and message in err["error"]["message"]

    def test_overlap_identical_files_json(self, pipeline):
        results = pipeline["root"] / "results.jsonl"
        out = pipeline["root"] / "overlap.json"
        assert main([
            "overlap", "--results-a", str(results), "--results-b", str(results),
            "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["overlap"]["jaccard"] == 1.0
        assert payload["overlap"]["unique_to_a_fraction"] == 0.0

    @pytest.mark.parametrize(
        "name", ["trie.fwd.ktri", "trie.rev.ktri", "encoder.kenc", "embeddings.kemb", "graph.kgra"]
    )
    def test_version_1_file_is_validation_error(self, pipeline, tmp_path, capsys, name):
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)
        data = (bundle / name).read_bytes()
        (bundle / name).write_bytes(frame(data[:4], 1, data[8:-8]))
        code = main([
            "retrieve", "--bundle-dir", str(bundle),
            "--queries", str(pipeline["paths"]["queries"]), "--out", str(tmp_path / "r.jsonl"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == "validation" and "version 1" in err["error"]["message"]

    def test_version_2_graph_file_is_validation_error(self, pipeline, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)
        graph = bundle / "graph.kgra"
        graph.write_bytes(graph_version_2(graph.read_bytes()))
        assert main([
            "retrieve", "--bundle-dir", str(bundle),
            "--queries", str(pipeline["paths"]["queries"]), "--out", str(tmp_path / "r.jsonl"),
        ]) == 2
        assert "unsupported graph version 2" in validation_message(capsys)

    @pytest.mark.parametrize("positions", [0, 1])
    def test_checkpoint_too_short_for_a_keyword_is_validation_error(
        self, pipeline, tmp_path, capsys, positions
    ):
        # 0 positions was a ZeroDivisionError traceback in chunk_size.
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)
        params = load_params(bundle / "encoder.kenc")
        short = replace(params, pos_emb=params.pos_emb[:positions])
        (bundle / "encoder.kenc").write_bytes(unchecked_kenc_bytes(short))
        assert main([
            "retrieve", "--bundle-dir", str(bundle),
            "--queries", str(pipeline["paths"]["queries"]), "--out", str(tmp_path / "r.jsonl"),
        ]) == 2
        assert f"max_len {positions} is below 2" in validation_message(capsys)
        assert not (tmp_path / "r.jsonl").exists()


#: Every framed part of a graph bundle and the name its version error uses.
FRAMED_PARTS = {"trie.fwd.ktri": "trie", "trie.rev.ktri": "trie", "encoder.kenc": "checkpoint",
                "embeddings.kemb": "embeddings", "graph.kgra": "graph"}
#: Where one byte is flipped: the magic, the version, the body's first byte
#: (a format header field), the body's middle and the checksum footer.
FLIP_AT = {"magic": lambda n: 0, "version": lambda n: 4, "body-header": lambda n: 8,
           "body": lambda n: n // 2, "footer": lambda n: n - 1}


def _flip(path: Path, where: str) -> bytes:
    """Flip one byte of the framed file at ``path``, at ``where``; return the new bytes."""
    data = bytearray(path.read_bytes())
    data[FLIP_AT[where](len(data))] ^= 0xFF
    path.write_bytes(bytes(data))
    return bytes(data)


#: The version of each framed part whose footer was BLAKE2b-64.
BLAKE2B_VERSIONS = {"trie.fwd.ktri": 2, "trie.rev.ktri": 2, "encoder.kenc": 2,
                    "embeddings.kemb": 2, "graph.kgra": 3}


class TestInlineChecksumOrder:
    """``load_bundle`` checks each framed part as it reads it (magic, then
    version, then checksum, then the parse, file by file), each on the thread
    that reads it, and reports the first failing check of a load in turn.
    These bundles load in turn; ``TestIndexOnTheWorker`` repeats the cases
    with the dense index loaded on the worker."""

    @staticmethod
    def _expect(pipeline, bundle, tmp_path, capsys, message: str) -> None:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_bundle(bundle)
        assert main(["retrieve", "--bundle-dir", str(bundle),
                     "--queries", str(pipeline["paths"]["queries"]),
                     "--out", str(tmp_path / "r.jsonl")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in err] == [
            {"error": {"code": 2, "kind": "validation", "message": message}}]
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("where", list(FLIP_AT))
    @pytest.mark.parametrize("name", list(FRAMED_PARTS))
    def test_one_flipped_byte_reports_what_the_inline_check_reports(
        self, pipeline, tmp_path, capsys, name, where
    ):
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)
        magic = (bundle / name).read_bytes()[:4]
        data = _flip(bundle / name, where)
        if where == "magic":
            message = f"bad magic: expected {magic!r}"
        elif where == "version":
            (version,) = struct.unpack_from("<I", data, 4)
            message = f"unsupported {FRAMED_PARTS[name]} version {version}"
        else:
            message = "checksum mismatch"
        self._expect(pipeline, bundle, tmp_path, capsys, message)

    @pytest.mark.parametrize("name", list(FRAMED_PARTS))
    def test_a_file_with_a_blake2b_footer_reports_its_version(
        self, pipeline, tmp_path, capsys, name
    ):
        # The format before SHA-256/64: its version and its BLAKE2b-64 footer.
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)
        data = (bundle / name).read_bytes()
        head = data[:4] + struct.pack("<I", BLAKE2B_VERSIONS[name]) + data[8:-8]
        (bundle / name).write_bytes(head + hashlib.blake2b(head, digest_size=8).digest())
        self._expect(pipeline, bundle, tmp_path, capsys,
                     f"unsupported {FRAMED_PARTS[name]} version {BLAKE2B_VERSIONS[name]}")

    def test_a_version_3_trie_reports_its_version(self, pipeline, tmp_path, capsys):
        # Version 3 framed a varint body under the same SHA-256/64 footer.
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)
        data = (bundle / "trie.rev.ktri").read_bytes()
        (bundle / "trie.rev.ktri").write_bytes(frame(b"KTRI", 3, data[8:-8]))
        self._expect(pipeline, bundle, tmp_path, capsys, "unsupported trie version 3")

    def test_a_version_4_graph_reports_its_version(self, pipeline, tmp_path, capsys):
        # Version 4's header also held the max degree.
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)
        graph = bundle / "graph.kgra"
        graph.write_bytes(graph_version_4(graph.read_bytes()))
        self._expect(pipeline, bundle, tmp_path, capsys, "unsupported graph version 4")

    def test_a_malformed_body_under_a_valid_checksum_reports_itself(
        self, pipeline, tmp_path, capsys
    ):
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)
        data = (bundle / "embeddings.kemb").read_bytes()
        (bundle / "embeddings.kemb").write_bytes(
            frame(b"KEMB", dense_index._EMB_VERSION, data[8:-8] + b"\0"))
        self._expect(pipeline, bundle, tmp_path, capsys, "corrupt embeddings file: trailing bytes")

    @pytest.mark.parametrize("first, second, message", [
        ("body", "body-header", "checksum mismatch"),
        ("body", "magic", "checksum mismatch"),  # the earlier file's check came first
        ("magic", "body", "bad magic: expected b'KENC'"),
    ])
    def test_two_corrupt_files_report_the_first_failing_check(
        self, pipeline, tmp_path, capsys, first, second, message
    ):
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)
        _flip(bundle / "encoder.kenc", first)
        _flip(bundle / "graph.kgra", second)
        self._expect(pipeline, bundle, tmp_path, capsys, message)

    def test_a_mismatch_outranks_a_later_missing_file(self, pipeline, tmp_path, capsys):
        # An I/O error (exit 3) after a corrupt file: the file was the first failure.
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)
        _flip(bundle / "trie.fwd.ktri", "body")
        (bundle / "embeddings.kemb").unlink()
        self._expect(pipeline, bundle, tmp_path, capsys, "checksum mismatch")

    def test_no_thread_outlives_a_load(self, pipeline, tmp_path):
        before = threading.active_count()
        load_bundle(pipeline["bundle"])
        assert threading.active_count() == before
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)
        _flip(bundle / "embeddings.kemb", "footer")
        with pytest.raises(ValidationError, match="^checksum mismatch$"):
            load_bundle(bundle)
        assert threading.active_count() == before

    def test_checks_stay_inline_outside_a_load(self, pipeline, tmp_path):
        shutil.copy(pipeline["bundle"] / "encoder.kenc", tmp_path / "e.kenc")
        _flip(tmp_path / "e.kenc", "body")
        before = threading.active_count()
        with pytest.raises(ValidationError, match="^checksum mismatch$"):
            load_params(tmp_path / "e.kenc")
        assert threading.active_count() == before

    def test_without_a_thread_the_checks_stay_inline(self, pipeline, tmp_path, monkeypatch):
        def refuse(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert len(load_bundle(pipeline["bundle"]).catalog) == 40
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)
        _flip(bundle / "graph.kgra", "body")
        with pytest.raises(ValidationError, match="^checksum mismatch$"):
            load_bundle(bundle)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_child_forked_after_a_load_can_load(self, pipeline, clustered, monkeypatch):
        # A thread pool shared across loads would hang here: the child's
        # pool thread does not exist, and its hashes would never run.
        self._a_forked_child_serves(pipeline["bundle"])
        # Side by side, the parent's retrieve makes the dense search's worker;
        # the child holds a copy without its thread, which it must drop.
        monkeypatch.setattr(retriever, "OVERLAP_BYTES", 0)
        monkeypatch.setattr(retriever, "_USABLE_CPUS", 2)
        self._a_forked_child_serves(clustered["bundle"])
        assert retriever._pool is not None

    @staticmethod
    def _a_forked_child_serves(bundle_dir: Path) -> None:
        expected = [retrieve(load_bundle(bundle_dir), "red shoes")]
        pid = os.fork()
        if pid == 0:  # the child: exit 0 only if its own load serves the same
            code = 1
            try:
                code = 0 if [retrieve(load_bundle(bundle_dir), "red shoes")] == expected else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while not (done := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's load did not finish in 60 s")
            time.sleep(0.02)
        assert os.waitstatus_to_exitcode(done[1]) == 0


def _assert_same_parts(a, b, where: str = "bundle") -> None:
    """``a`` and ``b`` hold equal compared fields, recursively: arrays of one
    dtype and equal values, everything else equal."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for f in dataclasses.fields(a):
            if f.compare:
                _assert_same_parts(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), where
    else:
        assert a == b, where


class TestIndexOnTheWorker:
    """With the gate forced open, ``load_bundle`` loads the dense index on the
    retriever's worker beside the rest, and gives the bundle, the errors and
    the exit codes of a load in turn."""

    @pytest.fixture
    def on_worker(self, monkeypatch):
        """Every index loads on the worker, on two CPUs; returns the thread id
        of each ``load_embeddings`` call made off the calling thread."""
        monkeypatch.setattr(retriever, "OVERLAP_BYTES", 0)
        monkeypatch.setattr(retriever, "_USABLE_CPUS", 2)
        caller, off, load = threading.get_ident(), [], cli.load_embeddings

        def recorded(path):
            if threading.get_ident() != caller:
                off.append(threading.get_ident())
            return load(path)

        monkeypatch.setattr(cli, "load_embeddings", recorded)
        return off

    @pytest.mark.parametrize("which", ["graph", "clustered"])
    def test_the_bundle_is_the_one_loaded_in_turn(
        self, pipeline, clustered, which, monkeypatch, on_worker
    ):
        bundle_dir = pipeline["bundle"] if which == "graph" else clustered["bundle"]
        monkeypatch.setattr(retriever, "OVERLAP_BYTES", 2**62)
        in_turn = load_bundle(bundle_dir)
        assert on_worker == []
        monkeypatch.setattr(retriever, "OVERLAP_BYTES", 0)
        beside = load_bundle(bundle_dir)
        assert len(on_worker) == 1
        _assert_same_parts(beside, in_turn)
        assert sealed(beside.index.vectors) and sealed(beside.index.ids)
        assert [retrieve(beside, "red shoes")] == [retrieve(in_turn, "red shoes")]

    @pytest.mark.parametrize("where", list(FLIP_AT))
    @pytest.mark.parametrize("name", list(FRAMED_PARTS))
    def test_one_flipped_byte_reports_what_in_turn_reports(
        self, pipeline, tmp_path, capsys, name, where, on_worker
    ):
        TestInlineChecksumOrder().test_one_flipped_byte_reports_what_the_inline_check_reports(
            pipeline, tmp_path, capsys, name, where)
        assert len(on_worker) == 2  # the library's load, then the CLI's

    @pytest.mark.parametrize("first, second, message", [
        ("body", "body-header", "checksum mismatch"),
        ("body", "magic", "checksum mismatch"),  # the encoder's error, not the graph's
        ("magic", "body", "bad magic: expected b'KENC'"),
    ])
    def test_two_corrupt_files_report_the_first_failing_check(
        self, pipeline, tmp_path, capsys, first, second, message, on_worker
    ):
        TestInlineChecksumOrder().test_two_corrupt_files_report_the_first_failing_check(
            pipeline, tmp_path, capsys, first, second, message)
        assert len(on_worker) == 2

    def test_a_mismatch_outranks_a_missing_kemb(self, pipeline, tmp_path, capsys, on_worker):
        # The worker's FileNotFoundError (exit 3) waits for the trie's mismatch (exit 2).
        TestInlineChecksumOrder().test_a_mismatch_outranks_a_later_missing_file(
            pipeline, tmp_path, capsys)
        assert len(on_worker) == 2

    @staticmethod
    def _twice_the_rows(path: Path) -> None:
        """Re-frame the KEMB file under a header that names twice its rows."""
        body = path.read_bytes()[8:-8]
        n, dim = struct.unpack_from("<QI", body)
        path.write_bytes(frame(b"KEMB", dense_index._EMB_VERSION,
                               struct.pack("<QI", 2 * n, dim) + body[12:]))

    @pytest.mark.parametrize("breaks, error, message, code", [
        (lambda p: p.write_bytes(p.read_bytes()[:12]), ValidationError,
         "checksum mismatch", 2),  # shorter than its 20-byte header
        (_twice_the_rows, ValidationError, "truncated file: unexpected end of data", 2),
        (lambda p: (p.unlink(), p.mkdir()), IsADirectoryError, None, 3),
    ], ids=["cut-to-12-bytes", "twice-the-rows", "a-directory"])
    def test_a_broken_kemb_fails_alike_through_either_gate(
        self, pipeline, tmp_path, capsys, monkeypatch, on_worker, breaks, error, message, code
    ):
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)
        breaks(bundle / "embeddings.kemb")
        seen = []
        for overlap in (0, 2**62):  # the gate forced open, then closed
            monkeypatch.setattr(retriever, "OVERLAP_BYTES", overlap)
            on_worker.clear()
            with pytest.raises(error) as caught:
                load_bundle(bundle)
            exit_code = main(["retrieve", "--bundle-dir", str(bundle),
                              "--queries", str(pipeline["paths"]["queries"]),
                              "--out", str(tmp_path / "r.jsonl")])
            assert len(on_worker) == (2 if overlap == 0 else 0)
            seen.append((type(caught.value), str(caught.value), exit_code,
                         capsys.readouterr().err))
        assert seen[0] == seen[1]
        assert seen[0][2] == code and (message is None or seen[0][1] == message)
        assert not (tmp_path / "r.jsonl").exists()

    def test_without_a_thread_the_load_runs_in_turn(
        self, pipeline, clustered, monkeypatch, on_worker
    ):
        in_turn = load_bundle(clustered["bundle"])
        on_worker.clear()

        def refuse(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(retriever, "_pool", None)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        _assert_same_parts(load_bundle(clustered["bundle"]), in_turn)
        assert on_worker == [] and retriever._pool is None

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_child_forked_after_a_load_can_load(self, pipeline, monkeypatch, on_worker):
        # The graph bundle's search runs in turn, so only its load makes the
        # worker; the child holds a copy of the pool without its thread.
        monkeypatch.setattr(retriever, "_pool", None)
        TestInlineChecksumOrder._a_forked_child_serves(pipeline["bundle"])
        assert on_worker and retriever._pool is not None

    def test_concurrent_loads_share_one_worker(self, clustered, monkeypatch, on_worker):
        monkeypatch.setattr(retriever, "_pool", None)
        want = load_bundle(clustered["bundle"])
        got = [None] * 6

        def load(i):
            got[i] = [load_bundle(clustered["bundle"]) for _ in range(3)]

        callers = [threading.Thread(target=load, args=(i,)) for i in range(len(got))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for bundle in (b for loads in got for b in loads):
            _assert_same_parts(bundle, want)
        assert len(set(on_worker)) == 1 and len(on_worker) == 1 + 3 * len(got)

    def test_the_pool_holds_no_index_once_a_load_returns(
        self, pipeline, tmp_path, monkeypatch, on_worker
    ):
        made, build = [], cli.load_graph

        def recorded(*args):
            index = build(*args)
            made.append(weakref.ref(index))
            return index

        monkeypatch.setattr(cli, "load_graph", recorded)
        held = load_bundle(pipeline["bundle"])
        del held
        gc.collect()
        # When this thread's part fails, the worker's index is dropped, and the
        # error's traceback, which holds the load's frame, keeps none alive.
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)
        _flip(bundle / "encoder.kenc", "body")
        with pytest.raises(ValidationError, match="^checksum mismatch$") as caught:
            load_bundle(bundle)
        gc.collect()
        assert caught.value and len(made) == 2 and [ref() for ref in made] == [None, None]
        assert len(on_worker) == 2


class TestChunkedRetrieve:
    @pytest.mark.parametrize("which", ["graph", "clustered"])
    def test_lines_equal_per_query_library_lines(self, pipeline, clustered, tmp_path, which):
        """`unikw retrieve` over a file of more than two chunks writes, line
        for line, what `retrieve` gives each query alone."""
        bundle_dir = pipeline["bundle"] if which == "graph" else clustered["bundle"]
        bundle = load_bundle(bundle_dir)
        texts = pipeline["paths"]["queries"].read_text(encoding="utf-8").splitlines()
        texts += ["zzz qqq", "<unk> </kw> <pad>", " ".join(texts[:3]), texts[0]]
        queries = [texts[i % len(texts)] for i in range(2 * chunk_size(bundle) + 3)]
        path = tmp_path / "queries.txt"
        path.write_text("".join(q + "\n" for q in queries), encoding="utf-8")
        out = tmp_path / "r.jsonl"
        assert main(["retrieve", "--bundle-dir", str(bundle_dir), "--queries", str(path),
                     "--out", str(out)]) == 0
        want = [results_to_jsonl_line(q, retrieve(bundle, q)) for q in queries]
        assert out.read_text(encoding="utf-8").splitlines() == want

    def test_side_by_side_the_file_and_exit_codes_are_those_in_turn(
        self, pipeline, clustered, tmp_path, capsys, monkeypatch
    ):
        """``unikw retrieve`` with the dense search beside the decode writes
        the bytes it writes in turn, and a failing channel exits with the code
        it has in turn: the decode's error first when both fail."""
        texts = pipeline["paths"]["queries"].read_text(encoding="utf-8").splitlines()
        queries = tmp_path / "queries.txt"
        queries.write_text("".join(texts[i % len(texts)] + "\n" for i in range(50)),
                           encoding="utf-8")
        monkeypatch.setattr(retriever, "_USABLE_CPUS", 2)
        search_batch, caller, handed = retriever.search_batch, threading.get_ident(), []
        searches = [search_batch]  # the last is what the next runs call

        def search(*args):
            handed.append(threading.get_ident() != caller)
            return searches[-1](*args)

        monkeypatch.setattr(retriever, "search_batch", search)

        def run(overlap: int, name: str) -> tuple[int, str, bytes]:
            """Exit code, error kind and output of one ``unikw retrieve``."""
            monkeypatch.setattr(retriever, "OVERLAP_BYTES", overlap)
            handed.clear()
            out = tmp_path / name
            code = main(["retrieve", "--bundle-dir", str(clustered["bundle"]),
                         "--queries", str(queries), "--out", str(out)])
            assert any(handed) == (overlap == 0)  # searched off this thread, or not
            err = capsys.readouterr().err
            return code, err and json.loads(err)["error"]["kind"], out.read_bytes() if code == 0 \
                else b""

        decode = retriever.permutation_decode

        def search_fails(*args):
            raise ValidationError("the search failed")

        def decode_fails(*args):
            raise ConsistencyError("the decode failed")

        for search_fn, decode_fn, want in [
            (search_batch, decode, (0, "")),
            (search_fails, decode, (2, "validation")),
            (search_batch, decode_fails, (4, "consistency")),
            (search_fails, decode_fails, (4, "consistency")),
        ]:
            searches.append(search_fn)
            monkeypatch.setattr(retriever, "permutation_decode", decode_fn)
            in_turn, side_by_side = run(2**62, "turn.jsonl"), run(0, "side.jsonl")
            assert in_turn[:2] == want and side_by_side == in_turn

    def test_lines_are_served_a_chunk_at_a_time(self, pipeline, monkeypatch):
        """`retrieve_lines` serves a chunk only when its lines are taken, so
        `unikw retrieve` writes each chunk before it serves the next."""
        from unikw import retriever

        bundle = load_bundle(pipeline["bundle"])
        texts = pipeline["paths"]["queries"].read_text(encoding="utf-8").splitlines()
        queries = [texts[i % len(texts)] for i in range(2 * chunk_size(bundle) + 1)]
        served, channels = [], retriever._channels

        def count(bundle, chunk):
            served.append(len(chunk))
            return channels(bundle, chunk)

        monkeypatch.setattr(retriever, "_channels", count)
        lines = iter(retriever.retrieve_lines(bundle, queries))
        first = next(lines)
        assert served == [chunk_size(bundle)]
        got = [first, *lines]
        assert served == [chunk_size(bundle)] * 2 + [1]
        assert got == [results_to_jsonl_line(q, retrieve(bundle, q)) for q in queries]

    def test_lines_are_the_reference_for_texts_that_need_escaping(self, tmp_path):
        """Quotes, backslashes and control characters are escaped, and
        non-ASCII is written as itself, as ``json.dumps(..., ensure_ascii=False)``
        writes them."""
        keywords = ['say "cheese"', 'c:\\temp "dir"', "naïve café", "日本 茶", "back\\slash 😀",
                    '12" pan\x7f', "tab\tsep", '", "']
        (tmp_path / "keywords.txt").write_text("".join(k + "\n" for k in keywords),
                                               encoding="utf-8")
        (tmp_path / "pairs.tsv").write_text('say cheese\tsay "cheese"\n', encoding="utf-8")
        queries = keywords + ["say cheese", "naïve", "zzz"]
        (tmp_path / "queries.txt").write_text("".join(q + "\n" for q in queries),
                                              encoding="utf-8")
        assert main(["build-vocab", "--keywords", str(tmp_path / "keywords.txt"),
                     "--pairs", str(tmp_path / "pairs.tsv"),
                     "--out", str(tmp_path / "vocab.txt")]) == 0
        vocab = load_vocab(tmp_path / "vocab.txt")
        save_params(init_params(len(vocab), dim=8, dense_dim=4, hidden_dim=8, max_len=4, seed=1),
                    tmp_path / "encoder.kenc")
        for direction in ("fwd", "rev"):
            assert main(["build-trie", "--keywords", str(tmp_path / "keywords.txt"),
                         "--vocab", str(tmp_path / "vocab.txt"), "--direction", direction,
                         "--max-len", "4", "--out", str(tmp_path / f"trie.{direction}.ktri")]) == 0
        assert main(["index", "--checkpoint", str(tmp_path / "encoder.kenc"),
                     "--keywords", str(tmp_path / "keywords.txt"),
                     "--vocab", str(tmp_path / "vocab.txt"), "--kind", "exact",
                     "--out", str(tmp_path)]) == 0
        out = tmp_path / "r.jsonl"
        assert main(["retrieve", "--bundle-dir", str(tmp_path),
                     "--queries", str(tmp_path / "queries.txt"), "--out", str(out)]) == 0
        bundle = load_bundle(tmp_path)
        text = out.read_text(encoding="utf-8")
        assert text.split("\n") == [reference_jsonl_line(q, retrieve(bundle, q))
                                    for q in queries] + [""]
        for written in ('say \\"cheese\\"', "c:\\\\temp", "naïve café", "😀", "\x7f", "tab\\tsep"):
            assert written in text, written


class TestLibraryParity:
    def test_cli_bundle_has_the_bytes_of_the_entry_list_path(self, pipeline, tmp_path):
        """The CLI tokenizes the catalog into flat arrays; building every
        file from per-keyword ``tokenize`` entries gives the same bytes."""
        paths = pipeline["paths"]
        vocab = build_vocab(paths["keywords"], paths["pairs"])
        save_vocab(vocab, tmp_path / "vocab.txt")
        catalog = load_keywords(paths["keywords"])
        entries = [(tokenize(text, vocab, "keyword", 4), kid) for kid, text in enumerate(catalog)]
        for direction, name in ((FORWARD, "trie.fwd.ktri"), (REVERSED, "trie.rev.ktri")):
            serialize(build_trie(entries, direction, vocab.checksum()), tmp_path / name)
        config = TrainConfig(**TRAIN_CONFIG)
        pairs, _ = load_pairs(paths["pairs"], vocab, max_len=config.max_len)
        params = train(config, pairs, vocab).params
        save_params(params, tmp_path / "encoder.kenc")
        vectors = embed_batch(params, [seq for seq, _ in entries])
        ids = np.arange(len(catalog))
        save_embeddings(tmp_path / "embeddings.kemb", vectors, ids)
        save_graph(tmp_path / "graph.kgra", build_graph(vectors, ids, seed=0))
        for name in ("vocab.txt", "trie.fwd.ktri", "trie.rev.ktri", "encoder.kenc",
                     "embeddings.kemb", "graph.kgra"):
            assert (tmp_path / name).read_bytes() == (pipeline["bundle"] / name).read_bytes(), name


#: Catalogs with tabs, ``\x1f``, runs of spaces, leading and trailing
#: whitespace, reserved forms in any case, a line longer than ``--max-len``,
#: ``\r\n`` and other breaks, and no final break.  The first is ASCII, so the
#: CLI tokenizes it as one text; the second is not, and is split line by line.
CRAFTED_CATALOGS = {
    "ascii": "Red\tShoes\r\n  blue   kettle  \r\n<PAD> ink\x1fcartridge\x0b\tGreen </KW> lamp \n"
             "one two three four five six seven\r\nRED\x1f\x1fshoes  light\x1c<unk>\tnew lamp\f"
             "Lamp  ",
    "non-ascii": "Caf\xe9\tcr\xe8me\r\n  \xc9CLAIR   au chocolat \n<pad> na\xefve\u3000art\r\n"
                 "th\xe9 vert et noir en vrac\u2028TH\xc9\t",
}


class TestCraftedCatalogParity:
    @pytest.mark.parametrize("name", sorted(CRAFTED_CATALOGS))
    def test_cli_files_have_the_bytes_of_the_entry_list_path(self, tmp_path, name):
        """``build-trie`` and ``index`` tokenize the catalog file; building
        the tries and embeddings from per-keyword ``tokenize`` entries over
        the reference reader's lines gives the same bytes."""
        text = CRAFTED_CATALOGS[name]
        keywords = tmp_path / "keywords.txt"
        keywords.write_bytes(text.encode("utf-8"))
        assert load_keywords(keywords).text.isascii() == (name == "ascii")
        # build-vocab rejects reserved forms, so it counts the words of a copy without them.
        vocab_source = tmp_path / "vocab_source.txt"
        vocab_source.write_text(re.sub("(?i)</?(pad|unk|kw)>", "x", text), encoding="utf-8")
        (tmp_path / "pairs.tsv").write_text("red shoes\tred shoes\n", encoding="utf-8")
        assert main(["build-vocab", "--keywords", str(vocab_source),
                     "--pairs", str(tmp_path / "pairs.tsv"), "--out", str(tmp_path / "vocab.txt")]) == 0
        vocab = load_vocab(tmp_path / "vocab.txt")
        params = init_params(len(vocab), dim=8, dense_dim=4, hidden_dim=8, max_len=4, seed=1)
        save_params(params, tmp_path / "encoder.kenc")
        bundle = tmp_path / "bundle"
        for direction in ("fwd", "rev"):
            assert main(["build-trie", "--keywords", str(keywords), "--vocab", str(tmp_path / "vocab.txt"),
                         "--direction", direction, "--max-len", "4",
                         "--out", str(tmp_path / f"trie.{direction}.ktri")]) == 0
        assert main(["index", "--checkpoint", str(tmp_path / "encoder.kenc"), "--keywords", str(keywords),
                     "--vocab", str(tmp_path / "vocab.txt"), "--kind", "exact", "--out", str(bundle)]) == 0

        lines = reference_load_keywords(keywords)
        assert len(lines) == (8 if name == "ascii" else 5)
        entries = [(tokenize(line, vocab, "keyword", 4), kid) for kid, line in enumerate(lines)]
        for direction, file in ((FORWARD, "trie.fwd.ktri"), (REVERSED, "trie.rev.ktri")):
            want = to_bytes(build_trie(entries, direction, vocab.checksum()))
            assert (tmp_path / file).read_bytes() == want, file
        save_embeddings(tmp_path / "want.kemb", embed_batch(params, [seq for seq, _ in entries]),
                        np.arange(len(lines)))
        assert (bundle / "embeddings.kemb").read_bytes() == (tmp_path / "want.kemb").read_bytes()


class TestLoadedArrays:
    """``load_bundle`` against loaders that build a Python object per keyword
    and node: the scalar trie, the reference catalog reader and the
    reference row normalization."""

    @pytest.mark.parametrize("kind", ["exact", "graph"])
    def test_arrays_and_results_match_the_reference_bundle(self, pipeline, tmp_path, kind):
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["bundle"], bundle)
        if kind == "exact":
            (bundle / "graph.kgra").unlink()
        loaded = load_bundle(bundle, beam_size=20, dense_k=10)
        assert loaded.index.kind == kind

        catalog = reference_load_keywords(bundle / "keywords.txt")
        checksum = loaded.vocab.checksum()
        entries = [(tokenize(text, loaded.vocab, "keyword", 4), kid)
                   for kid, text in enumerate(catalog)]
        tries = []
        for trie, direction in ((loaded.forward_trie, FORWARD), (loaded.reversed_trie, REVERSED)):
            offsets, labels, node_keyword = scalar_trie(entries, direction == REVERSED)
            assert trie.offsets.tolist() == offsets
            assert trie.labels.tolist() == labels
            assert trie.node_keyword.tolist() == node_keyword
            tries.append(KeywordTrie(np.array(offsets), np.array(labels, dtype=np.int32),
                                     np.array(node_keyword), direction, checksum))

        # The stored rows, read straight from the KEMB layout: magic, version,
        # u64 rows, u32 width, float32 rows, u64 ids, checksum.
        data = (bundle / "embeddings.kemb").read_bytes()
        n, dim = struct.unpack_from("<QI", data, 8)
        stored = np.frombuffer(data, "<f4", n * dim, 20).reshape(n, dim)
        ids = np.frombuffer(data, "<u8", n, 20 + 4 * n * dim).astype(np.int64)
        # Both kinds serve the rows as stored: ``index`` stores unit rows.
        want = stored
        assert loaded.index.vectors.dtype == np.float32
        assert np.array_equal(loaded.index.vectors.view(np.uint32), want.view(np.uint32))
        assert np.array_equal(loaded.index.ids, ids)

        reference = replace(
            loaded, catalog=tuple(catalog), forward_trie=tries[0], reversed_trie=tries[1],
            index=replace(loaded.index, vectors=want.copy(), ids=ids),
        )
        for query in pipeline["paths"]["queries"].read_text(encoding="utf-8").splitlines():
            assert retrieve(loaded, query) == retrieve(reference, query), query

    def test_both_kinds_serve_the_same_rows(self, pipeline, tmp_path):
        # Stored rows scaled by 3: the exact kind normalized them, the graph
        # kind served them as stored, with DR scores near 3.
        graph, exact = tmp_path / "graph", tmp_path / "exact"
        shutil.copytree(pipeline["bundle"], graph)
        vectors, ids = load_embeddings(graph / "embeddings.kemb")
        save_embeddings(graph / "embeddings.kemb", vectors * 3, ids)  # a valid checksum
        shutil.copytree(graph, exact)
        (exact / "graph.kgra").unlink()
        by_graph, by_exact = load_bundle(graph, dense_k=10), load_bundle(exact, dense_k=10)
        assert (by_graph.index.kind, by_exact.index.kind) == ("graph", "exact")
        assert np.array_equal(by_graph.index.vectors.view(np.uint32),
                              by_exact.index.vectors.view(np.uint32))
        assert np.array_equal(by_exact.index.vectors.view(np.uint32),
                              reference_normalize(vectors * 3).view(np.uint32))
        for query in pipeline["paths"]["queries"].read_text(encoding="utf-8").splitlines():
            dr = retrieve_channels(by_graph, query)[1]
            assert dr == retrieve_channels(by_exact, query)[1], query
            assert dr[0][1] <= 1 + 1e-6


class TestEvalFixture:
    def test_metrics_match_hand_values(self, tmp_path):
        # Same two-query fixture as the evaluation unit tests.
        results = tmp_path / "results.jsonl"
        rows = [
            {"query": "q1", "results": [
                {"keyword": f"kw {i}", "id": i, "source": "DR", "dr_score": 1.0 - 0.01 * r}
                for r, i in enumerate([0, 9, 1, 8, 7])
            ]},
            {"query": "q2", "results": [
                {"keyword": f"kw {i}", "id": i, "source": "DR", "dr_score": 1.0 - 0.01 * r}
                for r, i in enumerate([5, 3])
            ]},
        ]
        results.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        labels = tmp_path / "labels.tsv"
        labels.write_text("q1\t0,1,2\nq2\t3\n", encoding="utf-8")
        props = tmp_path / "props.tsv"
        props.write_text("0\t0.5\n1\t0.25\n2\t1.0\n3\t0.2\n", encoding="utf-8")
        out = tmp_path / "metrics.json"
        assert main([
            "eval", "--results", str(results), "--labels", str(labels),
            "--propensities", str(props), "--ks", "5", "--thresholds", "",
            "--out", str(out),
        ]) == 0
        metrics = json.loads(out.read_text(encoding="utf-8"))["metrics"]
        assert metrics["P@5"] == pytest.approx(0.3)
        assert metrics["R@5"] == pytest.approx(0.8333333333333333)
        assert metrics["nDCG@5"] == pytest.approx(0.6674239213027962)
        assert metrics["PSP@5"] == pytest.approx(0.9285714285714286)
        assert metrics["PSN@5"] == pytest.approx(0.6625750410513832)


class TestErrorHandling:
    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main([
            "build-vocab", "--keywords", str(tmp_path / "nope.txt"),
            "--pairs", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "v.txt"),
        ])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["code"] == 3 and err["error"]["kind"] == "io"

    @pytest.mark.parametrize("max_len", ["0", "-3"])
    def test_max_len_below_one_is_validation_error(self, tmp_path, capsys, max_len):
        (tmp_path / "kw.txt").write_text("a b\nb\n", encoding="utf-8")
        (tmp_path / "vocab.txt").write_text("a\nb\n", encoding="utf-8")
        code = main([
            "build-trie", "--keywords", str(tmp_path / "kw.txt"),
            "--vocab", str(tmp_path / "vocab.txt"), "--max-len", max_len,
            "--out", str(tmp_path / "t.ktri"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["kind"] == "validation" and "max_len" in err["message"]
        assert not (tmp_path / "t.ktri").exists()

    def test_min_count_above_every_count_is_validation_error(self, tmp_path, capsys):
        # It used to exit 0 and write a vocabulary with no token.
        (tmp_path / "kw.txt").write_text("a b\nb\n", encoding="utf-8")
        (tmp_path / "p.tsv").write_text("a\tb\n", encoding="utf-8")
        code = main([
            "build-vocab", "--keywords", str(tmp_path / "kw.txt"), "--pairs", str(tmp_path / "p.tsv"),
            "--min-count", "99999999999999999999", "--out", str(tmp_path / "vocab.txt"),
        ])
        assert code == 2
        assert "empty vocabulary" in validation_message(capsys)
        assert not (tmp_path / "vocab.txt").exists()

    def test_unknown_flag_rejected(self, capsys):
        code = main([
            "build-vocab", "--keywords", "k.txt", "--pairs", "p.tsv", "--out", "v.txt",
            "--nonsense", "x",
        ])
        assert code == 2
        assert "unrecognized arguments: --nonsense x" in validation_message(capsys)

    @pytest.mark.parametrize("argv, message", [
        (["retrieve", "--bundle-dir", "b", "--queries", "q", "--out", "o", "--beam", "abc"],
         "invalid int value: 'abc'"),
        (["retrieve", "--bundle-dir", "b", "--queries", "q"], "required: --out"),
        (["index", "--checkpoint", "c", "--keywords", "k", "--vocab", "v", "--out", "o",
          "--kind", "tree"], "invalid choice: 'tree'"),
        ([], "required: command"),
        # The graph takes no settings: its degree is a constant.
        (["index", "--checkpoint", "c", "--keywords", "k", "--vocab", "v", "--out", "o",
          "--kind", "graph", "--max-degree", "4"], "unrecognized arguments: --max-degree 4"),
    ], ids=["bad-int", "missing-flag", "bad-choice", "no-command", "graph-setting"])
    def test_usage_errors_print_the_error_json(self, capsys, argv, message):
        assert main(argv) == 2
        assert message in validation_message(capsys)

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["retrieve", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().err == ""

    def test_corrupt_input_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ktri"
        bad.write_bytes(b"NOPE" + b"\x00" * 32)
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        (bundle / "vocab.txt").write_text("a\n", encoding="utf-8")
        (bundle / "keywords.txt").write_text("a\n", encoding="utf-8")
        code = main([
            "eval", "--results", str(bad), "--labels", str(bad), "--out", str(tmp_path / "m.json"),
        ])
        assert code in (2, 3)  # unreadable JSON -> validation; missing -> io

    def test_config_file_overrides_defaults(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"min_count": 2}), encoding="utf-8")
        kw = tmp_path / "kw.txt"
        kw.write_text("a a\nb\n", encoding="utf-8")
        pairs = tmp_path / "p.tsv"
        pairs.write_text("a\ta\n", encoding="utf-8")
        out = tmp_path / "vocab.txt"
        assert main([
            "build-vocab", "--keywords", str(kw), "--pairs", str(pairs),
            "--config", str(config), "--out", str(out),
        ]) == 0
        # min_count=2 keeps only "a" (b occurs once).
        assert out.read_text(encoding="utf-8").splitlines() == ["a"]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"warp_speed": 9}), encoding="utf-8")
        code = main([
            "build-vocab", "--keywords", "x", "--pairs", "y",
            "--config", str(config), "--out", "z",
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "warp_speed" in err["error"]["message"]

    def test_config_without_value_is_validation_error(self, capsys):
        code = main(["retrieve", "--bundle-dir", "b", "--queries", "q", "--out", "o", "--config"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == "validation" and "--config" in err["error"]["message"]

    def test_config_equals_form_overrides_defaults(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"min_count": 2}), encoding="utf-8")
        kw = tmp_path / "kw.txt"
        kw.write_text("a a\nb\n", encoding="utf-8")
        pairs = tmp_path / "p.tsv"
        pairs.write_text("a\ta\n", encoding="utf-8")
        out = tmp_path / "vocab.txt"
        assert main([
            "build-vocab", "--keywords", str(kw), "--pairs", str(pairs),
            f"--config={config}", "--out", str(out),
        ]) == 0
        assert out.read_text(encoding="utf-8").splitlines() == ["a"]

    @pytest.mark.parametrize("spelling", [["--conf", "{}"], ["--con", "{}"], ["--conf={}"]])
    def test_config_in_any_spelling_argparse_accepts(self, tmp_path, spelling):
        # Abbreviations parsed as --config, but the file used to be ignored.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"min_count": 2}), encoding="utf-8")
        kw = tmp_path / "kw.txt"
        kw.write_text("a a\nb\n", encoding="utf-8")
        pairs = tmp_path / "p.tsv"
        pairs.write_text("a\ta\n", encoding="utf-8")
        out = tmp_path / "vocab.txt"
        assert main([
            "build-vocab", "--keywords", str(kw), "--pairs", str(pairs),
            *(arg.format(config) for arg in spelling), "--out", str(out),
        ]) == 0
        assert out.read_text(encoding="utf-8").splitlines() == ["a"]

    def test_blank_keyword_line_fails_at_build_vocab_as_at_build_trie(self, tmp_path, capsys):
        # build-vocab used to accept the catalog that build-trie then rejected.
        kw = tmp_path / "kw.txt"
        kw.write_text("red shoes\n\nblue hat\n", encoding="utf-8")
        pairs = tmp_path / "p.tsv"
        pairs.write_text("red\tred shoes\n", encoding="utf-8")
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("red\nshoes\nblue\nhat\n", encoding="utf-8")
        assert main(["build-vocab", "--keywords", str(kw), "--pairs", str(pairs),
                     "--out", str(tmp_path / "v.txt")]) == 2
        assert validation_message(capsys) == "blank keyword at line 1"
        assert not (tmp_path / "v.txt").exists()
        assert main(["build-trie", "--keywords", str(kw), "--vocab", str(vocab),
                     "--out", str(tmp_path / "t.ktri")]) == 2
        assert validation_message(capsys) == "blank keyword at line 1"

    def test_config_equals_without_value_is_validation_error(self, capsys):
        code = main(["retrieve", "--bundle-dir", "b", "--queries", "q", "--out", "o", "--config="])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == "validation" and "--config" in err["error"]["message"]

    @pytest.mark.parametrize("overrides, message", [
        ({"beam": None}, "beam"),               # was a TypeError traceback
        ({"beam": 2.5}, "invalid int value"),   # was a TypeError traceback
        ({"beam": True}, "beam"),
        ({"orders": 5}, "orders"),
        ({"prune": [1]}, "prune"),
        ({"kind": "tree"}, "invalid choice"),
    ], ids=["beam-null", "beam-float", "beam-bool", "orders-number", "prune-list", "kind-choice"])
    def test_config_value_of_wrong_type_is_validation_error(
        self, pipeline, tmp_path, capsys, overrides, message
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(overrides), encoding="utf-8")
        code = main([
            "retrieve", "--bundle-dir", str(pipeline["bundle"]),
            "--queries", str(pipeline["paths"]["queries"]), "--out", str(tmp_path / "r.jsonl"),
            "--config", str(config),
        ])
        assert code == 2
        assert message in validation_message(capsys)
        assert not (tmp_path / "r.jsonl").exists()

    def test_config_null_keeps_a_none_default(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "cluster_threshold": None, "config_file": None, "propensities": None, "out": None,
            "min_count": "2",
        }), encoding="utf-8")
        kw = tmp_path / "kw.txt"
        kw.write_text("a a\nb\n", encoding="utf-8")
        pairs = tmp_path / "p.tsv"
        pairs.write_text("a\ta\n", encoding="utf-8")
        out = tmp_path / "vocab.txt"
        assert main([
            "build-vocab", "--keywords", str(kw), "--pairs", str(pairs),
            "--config", str(config), "--out", str(out),
        ]) == 0
        assert out.read_text(encoding="utf-8").splitlines() == ["a"]

    @pytest.mark.parametrize("command", ["eval", "overlap"])
    @pytest.mark.parametrize("row", [
        {"query": "red shoes", "results": [{"id": [0], "keyword": "red shoes"}]},
        {"query": "red shoes", "results": [{"id": {"a": 0}, "keyword": "red shoes"}]},
        {"query": ["red shoes"], "results": []},
        {"query": "red shoes", "results": [{"id": 0, "keyword": 7}]},
    ], ids=["list-id", "object-id", "list-query", "number-keyword"])
    def test_results_row_of_the_wrong_types_is_validation_error(
        self, tmp_path, capsys, command, row
    ):
        # Each was a TypeError or AttributeError traceback.
        results = tmp_path / "results.jsonl"
        results.write_text(json.dumps(row) + "\n", encoding="utf-8")
        (tmp_path / "labels.tsv").write_text("red shoes\t0\n", encoding="utf-8")
        argv = {
            "eval": ["eval", "--results", str(results), "--labels", str(tmp_path / "labels.tsv"),
                     "--scorer", "overlap", "--out", str(tmp_path / "m.json")],
            "overlap": ["overlap", "--results-a", str(results), "--results-b", str(results)],
        }[command]
        assert main(argv) == 2
        assert "row 1" in validation_message(capsys)

    def test_deeply_nested_config_is_validation_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[" * 100_000, encoding="utf-8")  # was a RecursionError traceback
        argv = ["overlap", "--config", str(config), "--results-a", "a", "--results-b", "b"]
        assert main(argv) == 2
        assert "recursion" in validation_message(capsys)

    def test_eval_row_without_results_is_validation_error(self, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        results.write_text(json.dumps({"query": "red shoes"}) + "\n", encoding="utf-8")
        labels = tmp_path / "labels.tsv"
        labels.write_text("red shoes\t0\n", encoding="utf-8")
        code = main([
            "eval", "--results", str(results), "--labels", str(labels),
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == "validation" and "row 1" in err["error"]["message"]


@pytest.fixture
def tiny_inputs(tmp_path):
    """A 24-token vocabulary and 60 pairs, as in the encoder's training tests."""
    rng = np.random.default_rng(0)
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("".join(f"t{i}\n" for i in range(24)), encoding="utf-8")
    keywords = [f"t{2 * i} t{2 * i + 1}" for i in range(8)]
    lines = []
    for _ in range(60):
        keyword = keywords[int(rng.integers(0, len(keywords)))]
        lines.append(f"{keyword}\t{keyword}\n")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("".join(lines), encoding="utf-8")
    return tmp_path, vocab, pairs


def run_train(tiny_inputs, config, *flags):
    root, vocab, pairs = tiny_inputs
    config_path = root / "train.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return main([
        "train", "--pairs", str(pairs), "--vocab", str(vocab), *flags,
        "--config-file", str(config_path), "--out", str(root / "encoder.kenc"),
    ])


class TestTrainMeta:
    def test_meta_records_the_config_files_seed(self, tiny_inputs):
        config = {"epochs": 1, "batch_size": 16, "cluster_count": 1, "dim": 8,
                  "dense_dim": 4, "hidden_dim": 12, "max_len": 4, "seed": 5}
        assert run_train(tiny_inputs, config, "--seed", "7") == 0
        meta = json.loads((tiny_inputs[0] / "encoder.kenc.meta.json").read_text(encoding="utf-8"))
        assert meta["seed"] == meta["train_config"]["seed"] == 5

    def test_seedless_config_file_takes_the_seed_flag(self, tiny_inputs):
        config = {"epochs": 1, "batch_size": 16, "cluster_count": 1, "dim": 8,
                  "dense_dim": 4, "hidden_dim": 12, "max_len": 4}
        root, checkpoints = tiny_inputs[0], []
        for seed in (0, 7):
            assert run_train(tiny_inputs, config, "--seed", str(seed)) == 0
            checkpoints.append((root / "encoder.kenc").read_bytes())
            meta = json.loads((root / "encoder.kenc.meta.json").read_text(encoding="utf-8"))
            assert meta["seed"] == meta["train_config"]["seed"] == seed
        assert checkpoints[0] != checkpoints[1]  # a seedless file does not fix the seed


    def test_without_a_config_file_trains_the_default_config_at_the_seed_flag(self, tiny_inputs):
        root, vocab, pairs = tiny_inputs
        assert main(["train", "--pairs", str(pairs), "--vocab", str(vocab), "--seed", "3",
                     "--out", str(root / "encoder.kenc")]) == 0
        meta = json.loads((root / "encoder.kenc.meta.json").read_text(encoding="utf-8"))
        assert meta["seed"] == 3
        assert meta["train_config"] == json.loads(TrainConfig(seed=3).to_json())


class TestTrainFailures:
    @pytest.mark.parametrize("config", [3, None, [{}]], ids=["number", "null", "list"])
    def test_config_file_not_an_object_is_validation_error(self, tiny_inputs, capsys, config):
        code = run_train(tiny_inputs, config)  # each was a TypeError traceback
        assert code == 2
        assert "JSON object" in validation_message(capsys)
        assert not (tiny_inputs[0] / "encoder.kenc").exists()

    @pytest.mark.parametrize("config", [
        {"cluster_count": 0},          # was a ZeroDivisionError traceback
        {"epochs": 1.5},               # was a TypeError traceback
        {"dense_dim": 0},              # trained zero-width embeddings
        {"margin": float("nan")},      # passed validation
    ], ids=lambda c: next(iter(c)))
    def test_bad_config_is_validation_error(self, tiny_inputs, capsys, config):
        code = run_train(tiny_inputs, config)
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == "validation" and next(iter(config)) in err["error"]["message"]
        assert not (tiny_inputs[0] / "encoder.kenc").exists()

    def test_divergence_is_exit_2(self, tiny_inputs, capsys):
        # test_divergence_raises' settings.
        config = {"epochs": 8, "batch_size": 16, "cluster_count": 1, "learning_rate": 1e12,
                  "dim": 8, "dense_dim": 4, "hidden_dim": 12, "max_len": 4, "seed": 5}
        with np.errstate(all="ignore"):
            code = run_train(tiny_inputs, config)
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["code"] == 2 and err["kind"] == "diverged"
        assert "epoch" in err["message"] and "learning_rate=1000000000000.0" in err["message"]
        assert not (tiny_inputs[0] / "encoder.kenc").exists()


# ---------------------------------------------------------------- fuzzing

#: Each command over the fuzz directory's files (paths relative to it),
#: with the files it reads.
FUZZ_COMMANDS = [
    (["build-vocab", "--keywords", "keywords.txt", "--pairs", "pairs.tsv", "--min-count", "1",
      "--out", "v.txt"], ["keywords.txt", "pairs.tsv"]),
    (["build-trie", "--keywords", "keywords.txt", "--vocab", "b/vocab.txt", "--direction", "rev",
      "--max-len", "4", "--out", "t.ktri"], ["keywords.txt", "b/vocab.txt"]),
    (["train", "--pairs", "pairs.tsv", "--vocab", "b/vocab.txt", "--config-file", "train.json",
      "--out", "e.kenc"], ["pairs.tsv", "b/vocab.txt", "train.json"]),
    (["index", "--checkpoint", "b/encoder.kenc", "--keywords", "keywords.txt",
      "--vocab", "b/vocab.txt", "--kind", "graph", "--cluster-threshold", "0.3", "--seed", "1",
      "--out", "b"],
     ["b/encoder.kenc", "keywords.txt", "b/vocab.txt"]),
    (["retrieve", "--bundle-dir", "b", "--queries", "queries.txt", "--beam", "5",
      "--orders", "l2r,r2l", "--prune", "-9", "--topk", "5", "--out", "r.jsonl"],
     ["queries.txt", "b/vocab.txt", "b/keywords.txt", "b/encoder.kenc", "b/trie.fwd.ktri",
      "b/trie.rev.ktri", "b/embeddings.kemb", "b/graph.kgra", "b/reps.tsv"]),
    (["retrieve", "--config", "cfg.json", "--bundle-dir", "b", "--queries", "queries.txt",
      "--out", "r.jsonl"], ["cfg.json", "queries.txt"]),
    (["eval", "--results", "results.jsonl", "--labels", "labels.tsv", "--propensities", "props.tsv",
      "--scorer", "overlap", "--scorer-match", "phrase", "--ks", "1,5", "--thresholds", "0.5",
      "--out", "m.json"], ["results.jsonl", "labels.tsv", "props.tsv"]),
    (["bench", "--bundle-dir", "b", "--queries", "queries.txt", "--beams", "2,5",
      "--orders", "r2l", "--out", "bench.json"], ["queries.txt", "b/encoder.kenc"]),
    (["overlap", "--results-a", "results.jsonl", "--results-b", "r2.jsonl", "--out", "o.json"],
     ["results.jsonl", "r2.jsonl"]),
]

#: Argument values a corrupted command line may carry.  None climbs out of
#: the working directory, so nothing is written outside it.
JUNK = st.one_of(
    st.sampled_from([
        "", "0", "-1", "1", "3", "0.5", "nan", "inf", "-inf", "1e400", "abc", ",", "1,,x",
        "99999999999999999999", "-99999999999999999999", "--", "-", "\x00", "l2r,l2r", "r2l,",
        "--help", "--seed", "--config", "b", "b/vocab.txt", "missing.txt", ".",
    ]),
    st.text(max_size=4).filter(lambda text: "/" not in text and ".." not in text),
)
#: JSON values a corrupted results, train or --config file may carry.
JSON_JUNK = st.sampled_from([None, True, -1, 1.5, 10**30, "", "x", [], {}, [1], {"id": 1}])
BYTES = st.one_of(
    st.sampled_from([b"\t", b"\n", b" ", b",", b"-", b"9", b"0", b"\xff", b"{", b'"']),
    st.binary(min_size=1, max_size=1),
)


@pytest.fixture(scope="module")
def fuzz_root(pipeline, tmp_path_factory):
    """Every input file a command takes, over a clustered graph bundle in ``b``."""
    root = tmp_path_factory.mktemp("fuzz")
    shutil.copytree(pipeline["bundle"], root / "b")
    for name in ("keywords", "pairs", "queries", "labels"):
        shutil.copy(pipeline["paths"][name], root)
    config = {**TRAIN_CONFIG, "epochs": 1, "dim": 4, "dense_dim": 2, "hidden_dim": 4}
    (root / "train.json").write_text(json.dumps(config), encoding="utf-8")
    (root / "cfg.json").write_text(json.dumps({"beam": 4, "topk": 3}), encoding="utf-8")
    (root / "props.tsv").write_text("0\t0.5\n1\t0.25\n2\t1.0\n", encoding="utf-8")
    with _inside(root):
        for argv, _ in FUZZ_COMMANDS[3:6]:  # index, then both retrieves
            assert main(argv) == 0, argv
    shutil.copy(root / "r.jsonl", root / "results.jsonl")
    shutil.move(root / "r.jsonl", root / "r2.jsonl")
    return root


@contextlib.contextmanager
def _inside(directory):
    """Run with ``directory`` as the working directory (``contextlib.chdir``
    needs Python 3.11)."""
    before = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(before)


def _corrupt_json(path: Path, data) -> None:
    """Replace one value of one JSON line, at any depth, or nest it too deep to parse."""
    lines = path.read_text(encoding="utf-8").splitlines()
    at = data.draw(st.integers(0, len(lines) - 1))
    if data.draw(st.booleans()):
        lines[at] = "[" * 100_000
    else:
        node = doc = json.loads(lines[at])
        parent = key = None
        # Down a random path from the top, stopping at a leaf or at random.
        while isinstance(node, (dict, list)) and node and (
            parent is None or data.draw(st.booleans())
        ):
            keys = list(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, data.draw(st.sampled_from(keys))
            node = node[key]
        if parent is None:
            doc = data.draw(JSON_JUNK)
        else:
            parent[key] = data.draw(JSON_JUNK)
        lines[at] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _corrupt(path: Path, data) -> None:
    ops = ["truncate", "replace", "insert", "empty", "delete"]
    op = data.draw(st.sampled_from(ops + ["json"] * path.suffix.startswith(".json")))
    if op == "json":
        _corrupt_json(path, data)
        return
    if op == "delete":
        path.unlink()
        return
    raw = path.read_bytes()
    at = data.draw(st.integers(0, len(raw)))
    if op == "empty":
        raw = b""
    elif op == "truncate":
        raw = raw[:at]
    else:
        raw = raw[:at] + data.draw(BYTES) + raw[at + (op == "replace"):]
    path.write_bytes(raw)


class TestFuzz:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_corrupted_argv_and_files_keep_the_error_contract(self, fuzz_root, data):
        """Any command line and input files end in exit 0, 2, 3 or 4; a
        failure prints exactly one error JSON line on stderr and no traceback."""
        argv, reads = data.draw(st.sampled_from(FUZZ_COMMANDS))
        argv = list(argv)
        for _ in range(data.draw(st.integers(0, 3))):
            op = data.draw(st.sampled_from(["drop", "replace", "insert", "swap"]))
            at = data.draw(st.integers(0, len(argv) - (op != "insert"))) if argv else 0
            if op == "insert" or not argv:
                argv.insert(at, data.draw(JUNK))
            elif op == "drop":
                del argv[at]
            elif op == "replace":
                argv[at] = data.draw(JUNK)
            else:
                other = data.draw(st.integers(0, len(argv) - 1))
                argv[at], argv[other] = argv[other], argv[at]
        with tempfile.TemporaryDirectory() as work:
            shutil.copytree(fuzz_root, work, dirs_exist_ok=True)
            for name in data.draw(st.lists(st.sampled_from(reads), max_size=2, unique=True)):
                _corrupt(Path(work) / name, data)
            out, err = io.StringIO(), io.StringIO()
            with _inside(work), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # --help and --version only
                    code = exc.code
                    assert code == 0, argv
        assert code in (0, 2, 3, 4), argv
        assert "Traceback" not in err.getvalue()
        if code != 0:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1, (argv, lines)
            assert json.loads(lines[0])["error"]["code"] == code
