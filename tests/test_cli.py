"""End-to-end command-line pipeline on a small synthetic corpus."""

import json
import shutil

import numpy as np
import pytest

from unikw import (
    FORWARD,
    REVERSED,
    ConsistencyError,
    TrainConfig,
    build_graph,
    build_trie,
    build_vocab,
    embed_batch,
    load_embeddings,
    load_keywords,
    load_pairs,
    save_embeddings,
    save_graph,
    save_params,
    save_vocab,
    serialize,
    tokenize,
    train,
)
from unikw.cli import load_bundle, main
from unikw.fileio import frame

from synthdata import make_training_corpus, write_corpus_files

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
        "--kind", "graph", "--max-degree", "8", "--build-width", "16",
        "--out", str(bundle),
    ]) == 0
    return {"root": root, "bundle": bundle, "paths": paths, "corpus": corpus}


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


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
        from unikw import cli

        served, retrieve = [], cli.retrieve

        def fail_on_second(bundle, query):
            served.append(query)
            if len(served) == 2:
                raise ConsistencyError("decoding orders disagree")
            return retrieve(bundle, query)

        monkeypatch.setattr(cli, "retrieve", fail_on_second)
        code = main([
            "retrieve", "--bundle-dir", str(pipeline["bundle"]),
            "--queries", str(pipeline["paths"]["queries"]), "--out", str(tmp_path / "r.jsonl"),
        ])
        assert code == 4 and len(served) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == "consistency"
        assert list(tmp_path.iterdir()) == []  # neither --out nor its partial file

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

    def test_prune_slack_nan_is_validation_error(self, pipeline, tmp_path, capsys):
        code = main([
            "index", "--checkpoint", str(pipeline["bundle"] / "encoder.kenc"),
            "--keywords", str(pipeline["paths"]["keywords"]),
            "--vocab", str(pipeline["bundle"] / "vocab.txt"),
            "--kind", "graph", "--prune-slack", "nan", "--out", str(tmp_path / "bundle"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == "validation" and "prune_slack" in err["error"]["message"]

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
        save_graph(tmp_path / "graph.kgra", build_graph(
            vectors, ids, max_degree=8, build_width=16, prune_slack=1.2, seed=0))
        for name in ("vocab.txt", "trie.fwd.ktri", "trie.rev.ktri", "encoder.kenc",
                     "embeddings.kemb", "graph.kgra"):
            assert (tmp_path / name).read_bytes() == (pipeline["bundle"] / name).read_bytes(), name


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

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["build-vocab", "--nonsense", "x"])
        assert exc.value.code == 2

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

    def test_config_equals_without_value_is_validation_error(self, capsys):
        code = main(["retrieve", "--bundle-dir", "b", "--queries", "q", "--out", "o", "--config="])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == "validation" and "--config" in err["error"]["message"]

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


class TestTrainFailures:
    @pytest.fixture
    def tiny_inputs(self, tmp_path):
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

    def run_train(self, tiny_inputs, config):
        root, vocab, pairs = tiny_inputs
        config_path = root / "train.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        return main([
            "train", "--pairs", str(pairs), "--vocab", str(vocab),
            "--config-file", str(config_path), "--out", str(root / "encoder.kenc"),
        ])

    @pytest.mark.parametrize("config", [
        {"cluster_count": 0},          # was a ZeroDivisionError traceback
        {"epochs": 1.5},               # was a TypeError traceback
        {"dense_dim": 0},              # trained zero-width embeddings
        {"margin": float("nan")},      # passed validation
    ], ids=lambda c: next(iter(c)))
    def test_bad_config_is_validation_error(self, tiny_inputs, capsys, config):
        code = self.run_train(tiny_inputs, config)
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == "validation" and next(iter(config)) in err["error"]["message"]
        assert not (tiny_inputs[0] / "encoder.kenc").exists()

    def test_divergence_is_exit_2(self, tiny_inputs, capsys):
        # test_divergence_raises' settings.
        config = {"epochs": 8, "batch_size": 16, "cluster_count": 1, "learning_rate": 1e12,
                  "dim": 8, "dense_dim": 4, "hidden_dim": 12, "max_len": 4, "seed": 5}
        with np.errstate(all="ignore"):
            code = self.run_train(tiny_inputs, config)
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["code"] == 2 and err["kind"] == "diverged"
        assert "epoch" in err["message"] and "learning_rate=1000000000000.0" in err["message"]
        assert not (tiny_inputs[0] / "encoder.kenc").exists()
