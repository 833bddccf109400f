"""Benchmark of the unikw pipeline: set-up, bundle load, query latency and
batch throughput on one workload, with every output checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload prefix100k --seed 1 --seconds 10 --trace 0

One run:

1. generates the workload's text inputs from ``--seed`` (``workloads.py``)
   and runs ``selftest.py`` to show the checks can fail;
2. ``SETUP_PASSES`` times, in turn:
   a. builds the bundle from scratch with ``unikw.cli.main`` --
      build-vocab, build-trie fwd and rev, train, index (``setup_s``, the
      median pass);
   b. starts ``serve.py`` in a fresh process: cold ``load_bundle`` calls
      (``load_s``), closed-loop rounds of ``retrieve`` over the query file
      with one client for ``--seconds / SETUP_PASSES`` (``query_p50_ms``,
      ``query_p90_ms`` over all timed calls, at least 100 per run), one
      ``unikw retrieve`` over the query file (``batch_qps``), and its own
      peak RSS (``peak_rss_mb``);
   c. checks every output of that part against ``checks.Reference``, an
      independent numpy model of the bundle;
3. prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
   end-to-end metrics, or with ``--trace 1`` (one traced pass and part)
   the per-layer metrics, whose spans go to ``perfbench/out/traces/``.

Every end-to-end time is at the reference speed of ``speed.py``: a probe
timed beside the program takes out the host's drift between a fast and a
slow state.  The wall-clock figures go to the run's record.

BLAS and OpenMP run single-threaded, so that a run measures the program
and not the thread scheduler.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here and in serve.py

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

SERVE_TIMEOUT_S = 150
MIN_SAMPLES = 100  # timed retrieve calls per run, at least, over all serving parts
SETUP_PASSES = 2   # set-up passes per run, each followed by a serving part
NLG_RECALL_FLOOR = 0.9  # beam search vs an exhaustive ranking; 1.0 on every run so far
BUNDLE_FILES = ("vocab.txt", "keywords.txt", "encoder.kenc", "trie.fwd.ktri",
                "trie.rev.ktri", "embeddings.kemb", "graph.kgra")
MODULES = ("cli", "corpus", "trie", "encoder", "decoder", "dense_index", "fileio", "retriever")


def listed_units() -> dict[str, dict[str, str]]:
    """Unit of each metric BENCHMARK.json lists, by trace mode (0 or 1)."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {mode: {m["name"]: m["unit"] for m in spec[key]}
            for mode, key in ((0, "end_to_end"), (1, "per_layer"))}


def _import_program():
    """unikw from this checkout's ``src``, never from anywhere else."""
    try:
        import unikw.cli as cli
        import unikw.retriever as retriever
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import unikw from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: unikw was imported from {cli.__file__}, not from {SRC}")
    return cli, retriever


cli, retriever = _import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import selftest  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Run:
    def __init__(self, args):
        self.args = args
        self.w = workloads.WORKLOADS[args.workload](args.seed)
        self.work = OUT / "work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        self.bundle = self.work / "bundle"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # operations that raised or exited non-zero
        self.errors: list[str] = []    # checks that failed: the run is not correct
        self.probe = speed.Probe()     # sampled around every set-up stage

    # ------------------------------------------------------------- set-up

    def stages(self, inputs: dict[str, Path]) -> list[tuple[str, list[str]]]:
        b, kw, vocab = self.bundle, str(self.bundle / "keywords.txt"), str(self.bundle / "vocab.txt")
        trie = ["build-trie", "--keywords", kw, "--vocab", vocab, "--direction"]
        return [
            ("build-vocab", ["build-vocab", "--keywords", kw, "--pairs", str(inputs["pairs"]),
                             "--out", vocab]),
            ("build-trie", trie + ["fwd", "--out", str(b / "trie.fwd.ktri")]),
            ("build-trie", trie + ["rev", "--out", str(b / "trie.rev.ktri")]),
            ("train", ["train", "--pairs", str(inputs["pairs"]), "--vocab", vocab,
                       "--config-file", str(inputs["train_config"]),
                       "--out", str(b / "encoder.kenc")]),
            ("index", ["index", "--checkpoint", str(b / "encoder.kenc"), "--keywords", kw,
                       "--vocab", vocab, *self.w.index_args, "--seed", str(self.args.seed),
                       "--out", str(b)]),
        ]

    def setup_pass(self, inputs, tracer=None) -> tuple[float, float, dict[str, float]]:
        """Build the bundle afresh as a user would; (start, end, wall
        seconds per stage)."""
        shutil.rmtree(self.bundle, ignore_errors=True)
        self.bundle.mkdir(parents=True)
        shutil.copy(inputs["keywords"], self.bundle / "keywords.txt")
        per_stage: dict[str, float] = {}
        start = time.perf_counter()
        for stage, argv in self.stages(inputs):
            main = tracer.span("cli." + stage, cli.main) if tracer else cli.main
            self.attempted += 1
            self.probe.sample(speed.BURST)
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
            except (Exception, SystemExit) as exc:  # counted and reported as a failure
                code = f"{type(exc).__name__}: {exc}"
            per_stage[stage] = per_stage.get(stage, 0.0) + time.perf_counter() - t0
            if code != 0:
                self.failed += 1
                self.failures.append(f"unikw {stage}: {code}")
                raise RuntimeError(f"unikw {stage} failed: {code}")
        end = time.perf_counter()
        self.probe.sample(speed.BURST)
        return start, end, per_stage

    # ------------------------------------------------------------ serving

    def serve(self, inputs, seconds: float, min_samples: int) -> dict:
        out_path = self.work / "serve.json"
        argv = [
            sys.executable, str(HERE / "serve.py"), "--bundle", str(self.bundle),
            "--queries", str(inputs["queries"]), "--beam", str(self.w.beam),
            "--orders", ",".join(self.w.orders), "--seconds", str(seconds),
            "--min-samples", str(min_samples),
            "--trace", str(self.args.trace),
            "--batch-out", str(self.work / "results.jsonl"), "--out", str(out_path),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=SERVE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"serve.py exited {proc.returncode}: {proc.stderr[-2000:]}")
        served = json.loads(out_path.read_text(encoding="utf-8"))
        self.attempted += served["attempted"]
        self.failed += served["failed"]
        self.failures += served["failures"]
        return served

    # ------------------------------------------------------------- checks

    def check(self, served: dict) -> dict:
        """Independent checks of every output; returns the measured recalls."""
        w, errors = self.w, self.errors
        ref = checks.Reference(self.bundle)
        errors += checks.check_embeddings(ref)
        errors += checks.check_forward_passes(served["forward_passes"])
        cli_rows = [json.loads(line) for line in
                    (self.work / "results.jsonl").read_text(encoding="utf-8").splitlines()]
        errors += checks.check_cli_rows(cli_rows, served["library_rows"])

        k = min(100, len(ref.index_ids))
        exact = "graph" not in w.index_args
        nlg_recall, dr_recall, nlg_lists, dr_lists, gold = [], [], [], [], []
        for i, (query, channels, row) in enumerate(
                zip(self.w.queries, served["channels"], served["library_rows"])):
            if channels is None or row is None:
                continue  # a failed operation, already counted
            nlg = [(int(kid), score) for kid, score in channels[0]]
            dr = [(int(kid), score) for kid, score in channels[1]]
            dense, table = ref.forward(query)
            exhaustive, scan = ref.nlg_scores(table), ref.scan(dense)
            errors += checks.check_nlg(nlg, exhaustive, w.beam)
            errors += checks.check_dr(dr, scan, k, exact)
            errors += checks.check_merged(nlg, dr, row["results"], ref.catalog)
            nlg_recall.append(checks.recall_at(nlg[:10], checks.top(exhaustive, 10), checks.SCORE_TOL))
            dr_recall.append(checks.recall_at(dr[:10], checks.top(scan, 10), checks.SCAN_TOL))
            nlg_lists.append(nlg)
            dr_lists.append(dr)
            gold.append(w.gold[i] if w.gold else None)
        if not nlg_lists:
            errors.append("no query was checked")
            return {}
        found = {
            "checked_queries": len(nlg_lists),
            "nlg_recall_at_10": float(np.mean(nlg_recall)),
            "dr_recall_at_10": float(np.mean(dr_recall)),
        }
        errors += checks.check_floor("NLG top-10 recall vs exhaustive", found["nlg_recall_at_10"],
                                     NLG_RECALL_FLOOR)
        errors += checks.check_floor("DR recall@10 vs scan", found["dr_recall_at_10"],
                                     1.0 if exact else 0.95)
        if w.gold is not None:
            for name, lists in (("NLG", nlg_lists), ("DR", dr_lists)):
                found[f"gold_recall_at_10.{name}"] = checks.gold_recall(lists, gold)
                errors += checks.check_floor(f"{name} gold recall@10",
                                             found[f"gold_recall_at_10.{name}"], 0.9)
        pairs = lambda lists: {(q, kid) for q, lst in enumerate(lists) for kid, _ in lst}  # noqa: E731
        found["overlap"] = retriever.overlap_stats(pairs(nlg_lists), pairs(dr_lists))
        return found

    # ------------------------------------------------------------ metrics

    def end_to_end(self, setup_s: float, served: dict) -> dict[str, float]:
        """Medians over the run, every time at the reference speed (``speed.py``)."""
        latencies = np.concatenate(served["rounds_ms"])
        return {
            "setup_s": setup_s,
            "load_s": statistics.median(served["load_s"]),
            "query_p50_ms": float(np.percentile(latencies, 50)),
            "query_p90_ms": float(np.percentile(latencies, 90)),
            "batch_qps": served["queries"] / statistics.median(served["batch_s"]),
            "peak_rss_mb": served["peak_rss_mib"],
            "bundle_bytes": float(sum(
                (self.bundle / f).stat().st_size for f in BUNDLE_FILES if (self.bundle / f).exists()
            )),
        }

    def per_layer(self, setup_trace: dict, stage_s: dict, served: dict, found: dict) -> dict:
        setup, t = setup_trace, served["traces"]
        load, query, batch = t["load"], t["query"], t["batch"]
        loads = len(served["traced_load_s"])
        traced_rounds = served["traced_rounds_ms"]
        n = len(traced_rounds) * served["queries"]
        per_load = lambda name: tracing.total_s(load, name) / loads  # noqa: E731
        per_query_ms = lambda name: tracing.total_s(query, name) / n * 1e3  # noqa: E731
        trie_files = ("trie.fwd.ktri", "trie.rev.ktri")
        m = {f"cli.stage_s.{s}": stage_s[s] for s in ("build-vocab", "build-trie", "train", "index")}
        m.update({
            "cli.load_bundle_s": per_load("cli.load_bundle"),
            "cli.write_results_s": tracing.total_s(batch, "cli.cmd_retrieve") - tracing.children_s(
                batch, "cli.cmd_retrieve", ("cli.load_bundle", "retriever.retrieve")),
            "corpus.tokenize_s": setup["tally_s"].get("corpus.tokenize", 0.0),
            "corpus.load_s": per_load("corpus.load"),
            "trie.build_s": tracing.total_s(setup, "trie.build"),
            "trie.to_bytes_s": tracing.total_s(setup, "trie.to_bytes"),
            "trie.to_bytes_calls": setup["counts"].get("trie.to_bytes_calls", 0),
            "trie.from_bytes_s": per_load("trie.from_bytes"),
            "trie.file_bytes": sum((self.bundle / f).stat().st_size for f in trie_files),
            "encoder.train_s": tracing.total_s(setup, "encoder.train"),
            "encoder.mine_negatives_s": tracing.total_s(setup, "encoder.mine_negatives"),
            "encoder.joint_loss_s": tracing.total_s(setup, "encoder.joint_loss"),
            "encoder.joint_loss_calls": setup["counts"].get("encoder.joint_loss_calls", 0),
            "encoder.embed_batch_s": tracing.total_s(setup, "encoder.embed_batch"),
            "encoder.encode_ms": per_query_ms("encoder.encode"),
            "encoder.forward_passes_per_query": sum(served["traced_forward_passes"]) / n,
            "decoder.permutation_decode_ms": per_query_ms("decoder.permutation_decode"),
            "decoder.beam_search_ms.l2r": per_query_ms("decoder.beam_search.l2r"),
            "decoder.beam_search_ms.r2l": per_query_ms("decoder.beam_search.r2l"),
            "decoder.children_expanded_per_query":
                query["counts"].get("decoder.terminal_id_calls", 0) / n,
            "dense_index.search_ms": per_query_ms("dense_index.search"),
            "dense_index.build_graph_s": tracing.total_s(setup, "dense_index.build_graph"),
            "dense_index.save_graph_s": tracing.total_s(setup, "dense_index.save_graph"),
            "dense_index.save_embeddings_s": tracing.total_s(setup, "dense_index.save_embeddings"),
            "dense_index.load_embeddings_s": per_load("dense_index.load_embeddings"),
            "dense_index.load_graph_s": per_load("dense_index.load_graph"),
            "dense_index.graph_recall_at_10": found.get("dr_recall_at_10", 0.0),
            "fileio.crc64_s": per_load("fileio.crc64"),
            "fileio.crc64_bytes": load["counts"].get("fileio.crc64_bytes", 0) / loads,
            "retriever.retrieve_channels_ms": per_query_ms("retriever.retrieve_channels"),
            "retriever.merge_ms": per_query_ms("retriever.retrieve")
                - per_query_ms("retriever.retrieve_channels"),
            "retriever.validate_s": per_load("retriever.validate"),
            "trace.overhead_p50_pct": 100.0 * (
                np.median(traced_rounds) / np.median(served["untraced_pair_rounds_ms"]) - 1.0),
        })
        setup_self, query_self = tracing.self_times(setup), tracing.self_times(query)
        for module in MODULES:
            m[f"self.setup_s.{module}"] = setup_self.get(module, 0.0)
            m[f"self.query_ms.{module}"] = query_self.get(module, 0.0) / n * 1e3
        return m

    # ---------------------------------------------------------------- run

    def run(self) -> tuple[bool, dict, dict]:
        args = self.args
        errors = self.errors
        errors += selftest.run_all()
        shutil.rmtree(self.work, ignore_errors=True)
        inputs = self.w.write(self.work / "in")

        # Each set-up pass is followed by a serving part in a fresh process,
        # so that both are timed at several places spread over the run.  A
        # traced run makes one of each: it reports per-layer times only.
        parts = 1 if args.trace else SETUP_PASSES
        tracer = tracing.Tracer() if args.trace else None
        passes, served_parts, found, checked = [], [], {}, 0
        for _ in range(parts):
            uninstall = tracing.install(tracer) if tracer else None
            try:
                passes.append(self.setup_pass(inputs, tracer))
            finally:
                if uninstall:
                    uninstall()
            served_parts.append(self.serve(inputs, args.seconds / parts,
                                           math.ceil(MIN_SAMPLES / parts)))
            part_found = self.check(served_parts[-1])  # every part's outputs are checked
            checked += part_found.get("checked_queries", 0)
            found = found or part_found
        served = pool(served_parts)
        setup_s = statistics.median(self.probe.scale(start, end) for start, end, _ in passes)
        stage_s = {stage: statistics.median(p[2][stage] for p in passes) for stage in passes[0][2]}
        wall_latencies = np.concatenate(served["wall_rounds_ms"])
        details = {"latency_samples": sum(map(len, served["rounds_ms"])),
                   "serving_parts": len(served_parts), "load_s": served["load_s"],
                   "batch_s": served["batch_s"], "stage_s": stage_s, **found,
                   "checked_queries": checked,
                   "probe_ms": served["probe_ms"],
                   "wall_clock": {  # the same figures before scaling to the reference speed
                       "setup_s": statistics.median(end - start for start, end, _ in passes),
                       "load_s": statistics.median(served["wall_load_s"]),
                       "query_p50_ms": float(np.percentile(wall_latencies, 50)),
                       "query_p90_ms": float(np.percentile(wall_latencies, 90)),
                       "batch_qps": served["queries"] / statistics.median(served["wall_batch_s"])}}
        if args.trace:
            setup_trace = tracer.export()
            metrics = self.per_layer(setup_trace, stage_s, served, found)
            self.write_trace(setup_trace, served, metrics)
        else:
            metrics = self.end_to_end(setup_s, served)
        return not errors, metrics, details

    def write_trace(self, setup_trace: dict, served: dict, metrics: dict) -> None:
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        table = {
            module: {
                "setup_self_s": metrics[f"self.setup_s.{module}"],
                "query_self_ms": metrics[f"self.query_ms.{module}"],
            }
            for module in MODULES
        }
        payload = {
            "workload": self.args.workload, "seed": self.args.seed,
            "phases": {"setup": setup_trace, **served["traces"]},
            "per_layer_table": table, "per_layer_metrics": metrics,
        }
        path = traces / f"{self.args.workload}-seed{self.args.seed}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")


def pool(parts: list[dict]) -> dict:
    """The serving parts of a run as one: timings pooled, the largest peak RSS."""
    served = dict(parts[0])
    for key in ("load_s", "rounds_ms", "batch_s", "wall_load_s", "wall_rounds_ms", "wall_batch_s"):
        served[key] = [x for part in parts for x in part[key]]
    served["peak_rss_mib"] = max(part["peak_rss_mib"] for part in parts)
    return served


def environment() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    units = listed_units()[args.trace]
    run = Run(args)
    try:
        correct, metrics, details = run.run()
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        # The run cannot finish.  Its counts so far are still its result; a
        # step that failed outside a counted operation counts as one.
        if not run.failed:
            run.attempted += 1
            run.failed += 1
        print(f"perfbench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": run.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": run.attempted,
        "failed": run.failed, "failures": run.failures[:50], "errors": run.errors[:50],
        "metrics": metrics,
        "details": details, "environment": environment(),
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for failure in run.failures[:20]:
        print(f"perfbench: operation failed: {failure}", file=sys.stderr)
    for error in run.errors[:20]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {details.get('latency_samples')} latency samples, "
          f"{details.get('serving_parts')} serving parts, "
          f"{details.get('checked_queries')} checked queries")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
