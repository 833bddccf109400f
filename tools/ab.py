"""A/B harness: alternating pairs of benchmark runs of two revisions.

Usage, from the root of a checkout:

    python3 tools/ab.py --parent REV --change REV --workload prefix100k \\
        --workload graph5k --seeds 71-80 --claim prefix100k:load_s \\
        --statement "prefix100k load_s falls by >= 20%" --out BENCH_x.json

Each revision is ``git archive``d into a tree of its own under ``--scratch``
(a new temporary directory by default); the two trees must hold the same
``perfbench/`` and ``BENCHMARK.json``.  For each workload and seed, both
trees run ``python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0``, N being ``BENCHMARK.json``'s ``run_seconds``: the parent
first on even-numbered seeds of the list and the change first on
odd-numbered ones, with ``perfbench/out`` emptied before every run.

The output file has the layout of the earlier ``BENCH_*.json`` files:
``about``, ``claim``, ``workloads`` (per workload and end-to-end metric:
each side's median, quartiles, IQR and values, the change/parent ratio of
every pair, the pairs the change wins, and the median change in percent;
the same for the wall-clock figures and the set-up stages), ``records``
(every run's perfbench record) and ``environment``.

The verdict on the claim is the benchmark's rule: the change is better in
at least nine of ten pairs (ties count for neither side), and its median
is better than the parent's by more than the parent's IQR.  Every other
end-to-end metric is checked against its bound in ``BENCHMARK.json``: a
median worse by more than the bound fails, and one whose parent spread
(IQR over median) exceeds the bound is unresolved unless every change run
is better than every parent run.  Quartiles are linear interpolations
(``statistics.quantiles`` with ``method="inclusive"``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
RUN_TIMEOUT_S = 900


# ------------------------------------------------------------- statistics


def describe(values: list[float]) -> dict:
    """Median, quartiles and IQR of one side's values, and the values."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": list(values)}


def better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` is strictly better than ``b`` for a metric whose
    ``direction`` is "lower" or "higher"."""
    return a < b if direction == "lower" else a > b


def compare(parent: list[float], change: list[float], direction: str) -> dict:
    """Pairwise summary of one metric; ``parent[i]`` and ``change[i]`` are
    one pair's runs."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs on each side")
    p, c = describe(parent), describe(change)
    return {
        "parent": p,
        "change": c,
        "pair_ratios": [b / a if a else None for a, b in zip(parent, change)],
        "change_better_pairs": sum(better(b, a, direction) for a, b in zip(parent, change)),
        "pairs": len(parent),
        "median_change_pct": 100.0 * (c["median"] / p["median"] - 1.0) if p["median"] else None,
    }


def claim_verdict(summary: dict, direction: str) -> dict:
    """The rule for claiming a gain: wins in at least 9/10 of the pairs and
    a median gap, in the better direction, wider than the parent's IQR."""
    gap = summary["change"]["median"] - summary["parent"]["median"]
    iqr = summary["parent"]["iqr"]
    wins, pairs = summary["change_better_pairs"], summary["pairs"]
    enough_wins = 10 * wins >= 9 * pairs
    beyond_iqr = abs(gap) > iqr and (gap < 0 if direction == "lower" else gap > 0)
    return {"wins": wins, "pairs": pairs, "median_gap": gap, "parent_iqr": iqr,
            "enough_wins": enough_wins, "beyond_parent_iqr": beyond_iqr,
            "met": enough_wins and beyond_iqr}


def bound_check(summary: dict, direction: str, bound: float) -> str:
    """"ok", "worse beyond bound" or "unresolved" for a metric that may
    worsen by at most ``bound`` (a fraction of the parent's median)."""
    p, c = summary["parent"], summary["change"]
    if not p["median"]:
        return "ok" if c["median"] == p["median"] else "unresolved"
    worse = (c["median"] - p["median"]) / p["median"]
    if direction == "higher":
        worse = -worse
    if worse > bound:
        return "worse beyond bound"
    spread = p["iqr"] / abs(p["median"])
    all_better = all(better(b, a, direction) for a in p["values"] for b in c["values"])
    if spread > bound and not all_better:
        return "unresolved"
    return "ok"


def summarize(records: dict[str, list[dict]], spec: dict) -> dict:
    """One workload's summary from its records, the parent's and the
    change's in pair order."""
    parent, change = records["parent"], records["change"]
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {
        "seeds": [r["seed"] for r in parent],
        "first_side_per_seed": {str(r["seed"]): r.get("first_side") for r in parent},
        "all_correct": all(r["correct"] for r in parent + change),
        "failed_operations": {side: sum(r["failed"] for r in records[side]) for side in SIDES},
        "attempted_operations": {side: sum(r["attempted"] for r in records[side]) for side in SIDES},
        "metrics": {},
        "wall_clock": {},
        "stage_s_wall": {},
    }
    if not out["all_correct"]:
        return out
    for name, direction in directions.items():
        summary = compare([r["metrics"][name] for r in parent],
                          [r["metrics"][name] for r in change], direction)
        summary["bound"] = bounds[name]
        summary["bound_check"] = bound_check(summary, direction, bounds[name])
        out["metrics"][name] = summary
    for name in parent[0]["details"].get("wall_clock", {}):
        out["wall_clock"][name] = compare([r["details"]["wall_clock"][name] for r in parent],
                                          [r["details"]["wall_clock"][name] for r in change],
                                          directions[name])
    for stage in parent[0]["details"].get("stage_s", {}):
        out["stage_s_wall"][stage] = compare([r["details"]["stage_s"][stage] for r in parent],
                                             [r["details"]["stage_s"][stage] for r in change],
                                             "lower")
    return out


# ------------------------------------------------------------------ runs


def parse_seeds(text: str) -> list[int]:
    """"71-80" or "71,73,75" (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise ValueError("no seeds given")
    return seeds


def archive(repo: Path, rev: str, tree: Path) -> str:
    """Extract ``rev`` of ``repo`` into ``tree``; return its full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=repo,
                            check=True, capture_output=True, text=True).stdout.strip()
    tree.mkdir(parents=True)
    with subprocess.Popen(["git", "archive", "--format=tar", commit], cwd=repo,
                          stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(tree, filter="data")
    if proc.returncode:
        raise RuntimeError(f"git archive {rev} failed")
    return commit


def same_benchmark(a: Path, b: Path) -> bool:
    """Whether two trees hold byte-identical ``perfbench/`` and ``BENCHMARK.json``."""
    def files(tree: Path) -> dict[str, bytes]:
        paths = [tree / "BENCHMARK.json", *sorted((tree / "perfbench").rglob("*"))]
        return {str(p.relative_to(tree)): p.read_bytes() for p in paths if p.is_file()}
    return files(a) == files(b)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its perfbench record, or a record of
    the failure when the run wrote none."""
    shutil.rmtree(tree / "perfbench" / "out", ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    result = tree / "perfbench" / "out" / "results" / f"{workload}-seed{seed}-trace0.json"
    if result.exists():
        return json.loads(result.read_text(encoding="utf-8"))
    lines = proc.stdout.strip().splitlines()
    line = json.loads(lines[-1]) if lines else {}
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": 0,
            "correct": False, "attempted": line.get("attempted", 1),
            "failed": line.get("failed", 1), "failures": [proc.stderr[-2000:]],
            "errors": [], "metrics": {}, "details": {}}


def run_pairs(trees: dict[str, Path], workload: str, seeds: list[int], seconds: float) -> dict:
    records: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            record = run_once(trees[side], workload, seed, seconds)
            record["first_side"] = order[0]
            records[side].append(record)
            metrics = record.get("metrics", {})
            print(f"{workload} seed {seed} {side}: correct {record['correct']}, "
                  f"failed {record['failed']}, "
                  + ", ".join(f"{k} {v:.4g}" for k, v in metrics.items()), flush=True)
    return records


# ------------------------------------------------------------------ main


def report(workloads: dict, claim: tuple[str, str] | None, spec: dict) -> dict | None:
    """Print each workload's end-to-end metrics, then its set-up stages on
    the wall clock (medians, % change and wins), and the claim's verdict;
    return the verdict."""
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    verdict = None
    for name, w in workloads.items():
        print(f"\n{name}: all correct {w['all_correct']}, failed operations {w['failed_operations']}")
        for metric, s in w["metrics"].items():
            print(f"  {metric:14s} parent {s['parent']['median']:.6g} (IQR {s['parent']['iqr']:.3g})"
                  f"  change {s['change']['median']:.6g} (IQR {s['change']['iqr']:.3g})"
                  f"  {s['median_change_pct'] or 0.0:+.1f}%  wins {s['change_better_pairs']}/{s['pairs']}"
                  f"  bound {s['bound']:.0%}: {s['bound_check']}")
        for stage, s in w["stage_s_wall"].items():
            print(f"  stage {stage:8s} parent {s['parent']['median']:.6g}"
                  f"  change {s['change']['median']:.6g}"
                  f"  {s['median_change_pct'] or 0.0:+.1f}%  wins {s['change_better_pairs']}/{s['pairs']}")
        if claim and claim[0] == name and claim[1] in w["metrics"]:
            verdict = claim_verdict(w["metrics"][claim[1]], directions[claim[1]])
            w["claim_verdict"] = verdict
    if claim:
        if verdict is None:
            print(f"\nclaim {claim[0]}:{claim[1]}: no result")
        else:
            print(f"\nclaim {claim[0]}:{claim[1]}: {'MET' if verdict['met'] else 'NOT MET'} "
                  f"(wins {verdict['wins']}/{verdict['pairs']}, median gap "
                  f"{verdict['median_gap']:.6g} against parent IQR {verdict['parent_iqr']:.6g})")
    return verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision measured as the parent")
    parser.add_argument("--change", required=True, help="revision measured as the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help='e.g. "71-80"')
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--statement", default="", help="the claim in words, for the output file")
    parser.add_argument("--scratch", default=None, help="directory for the two trees")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    repo = Path.cwd()
    seeds = parse_seeds(args.seeds)
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="ab-"))
    trees = {side: scratch / side for side in SIDES}
    for tree in trees.values():
        shutil.rmtree(tree, ignore_errors=True)
    commits = {side: archive(repo, getattr(args, side), trees[side]) for side in SIDES}
    if not same_benchmark(trees["parent"], trees["change"]):
        sys.exit("ab: the two revisions hold different perfbench/ or BENCHMARK.json")
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))

    seconds = spec["run_seconds"]
    records = {w: run_pairs(trees, w, seeds, seconds) for w in args.workload}
    workloads = {w: summarize(records[w], spec) for w in args.workload}
    verdict = report(workloads, claim, spec)
    first = next((r for rs in records.values() for r in rs["parent"] if "environment" in r), {})
    result = {
        "about": (f"{len(seeds)} alternating pairs per workload of `python3 perfbench/run.py "
                  f"--workload W --seed S --seconds {seconds:g} --trace 0`, parent "
                  f"{commits['parent'][:7]} against change {commits['change'][:7]}, each side "
                  "from its own `git archive` tree with identical perfbench/ and "
                  "BENCHMARK.json (perfbench/out emptied before every run), written by "
                  "tools/ab.py. `metrics` are the end-to-end figures at the speed probe's "
                  "reference speed, `wall_clock` the same before scaling, `stage_s_wall` the "
                  "set-up stages on the wall clock. `pair_ratios` are change/parent per pair; "
                  "quartiles by linear interpolation. `records` holds every run's perfbench "
                  "record."),
        "claim": args.statement or (f"{claim[0]} {claim[1]}" if claim else ""),
        "workloads": workloads,
        "records": records,
        "environment": first.get("environment", {}),
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}; trees in {scratch}")
    return 0 if verdict is None or verdict["met"] else 1


if __name__ == "__main__":
    sys.exit(main())
