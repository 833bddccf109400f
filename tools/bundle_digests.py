"""Digests of the bundle files, and the retrieve output, of seeded workloads.

Usage, from the root of a checkout:

    python3 tools/bundle_digests.py --seed 1 > digests.txt
    python3 tools/bundle_digests.py --seed 1 --workload graph5k --expect digests.txt

For each workload (``prefix100k`` and ``graph5k`` unless ``--workload`` is
given), the inputs of ``perfbench/workloads.py`` at ``--seed`` are written to
a temporary directory and the bundle is built from them as
``perfbench/run.py`` builds it: build-vocab, build-trie fwd and rev, train
and index, each through ``unikw.cli.main``.  Then ``unikw retrieve`` runs
over the workload's queries at its beam and orders.

One line ``workload file sha256[:12]`` is printed per file the pipeline
wrote: each of ``ARTIFACTS`` the bundle holds, and the retrieve output as
``retrieve.jsonl``.  The catalog copy and the sidecar JSON files are left
out: the first is an input, the others name temporary paths.

With ``--expect FILE``, a file of such lines, every line printed is checked
against it.  The tool exits 1 and names each file whose digest differs, is
missing from the build or was not expected; it exits 0 when all agree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Bundle files the pipeline writes, in the order they are listed.
ARTIFACTS = ("vocab.txt", "trie.fwd.ktri", "trie.rev.ktri", "encoder.kenc",
             "embeddings.kemb", "graph.kgra")
RESULTS = "retrieve.jsonl"
PREFIX = 12


def digests(directory: Path) -> dict[str, str]:
    """sha256[:PREFIX] of each of ``ARTIFACTS`` and ``RESULTS`` that
    ``directory`` holds, by file name."""
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()[:PREFIX]
        for name in ARTIFACTS + (RESULTS,)
        if (directory / name).is_file()
    }


def format_lines(workload: str, found: dict[str, str]) -> list[str]:
    return [f"{workload} {name} {digest}" for name, digest in found.items()]


def parse_lines(text: str) -> dict[tuple[str, str], str]:
    """``workload file digest`` lines as ``{(workload, file): digest}``;
    blank lines are skipped."""
    table = {}
    for n, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 3:
            raise ValueError(f"line {n}: expected 'workload file digest', got {line!r}")
        table[fields[0], fields[1]] = fields[2]
    return table


def mismatches(expected: dict[tuple[str, str], str], found: dict[tuple[str, str], str],
               workloads) -> list[str]:
    """One message per file of ``workloads`` whose digest in ``found``
    differs from ``expected``, is missing, or is not expected."""
    problems = []
    for key in sorted(set(expected) | set(found)):
        if key[0] not in workloads:
            continue
        want, got = expected.get(key), found.get(key)
        if want == got:
            continue
        if got is None:
            problems.append(f"{key[0]} {key[1]}: expected {want}, not built")
        elif want is None:
            problems.append(f"{key[0]} {key[1]}: built {got}, not expected")
        else:
            problems.append(f"{key[0]} {key[1]}: expected {want}, got {got}")
    return problems


def build(name: str, seed: int, work: Path) -> dict[str, str]:
    """Build workload ``name`` at ``seed`` under ``work``; its digests."""
    import workloads
    from unikw import cli

    w = workloads.WORKLOADS[name](seed)
    inputs = w.write(work / "inputs")
    b = work / "bundle"
    b.mkdir()
    shutil.copy(inputs["keywords"], b / "keywords.txt")
    kw, vocab = str(b / "keywords.txt"), str(b / "vocab.txt")
    trie = ["build-trie", "--keywords", kw, "--vocab", vocab, "--direction"]
    stages = [
        ["build-vocab", "--keywords", kw, "--pairs", str(inputs["pairs"]), "--out", vocab],
        trie + ["fwd", "--out", str(b / "trie.fwd.ktri")],
        trie + ["rev", "--out", str(b / "trie.rev.ktri")],
        ["train", "--pairs", str(inputs["pairs"]), "--vocab", vocab,
         "--config-file", str(inputs["train_config"]), "--out", str(b / "encoder.kenc")],
        ["index", "--checkpoint", str(b / "encoder.kenc"), "--keywords", kw, "--vocab", vocab,
         *w.index_args, "--seed", str(seed), "--out", str(b)],
        ["retrieve", "--bundle-dir", str(b), "--queries", str(inputs["queries"]),
         "--beam", str(w.beam), "--orders", ",".join(w.orders), "--out", str(b / RESULTS)],
    ]
    for argv in stages:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"bundle_digests: unikw {argv[0]} exited {code} on {name}")
    return digests(b)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=("prefix100k", "graph5k"),
                        help="repeatable; both workloads when omitted")
    parser.add_argument("--expect", type=Path, default=None,
                        help="file of 'workload file digest' lines to check against")
    args = parser.parse_args(argv)
    # As in perfbench/run.py: BLAS single-threaded, set before numpy is first
    # imported, and unikw from this checkout.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    names = args.workload or ["prefix100k", "graph5k"]
    expected = parse_lines(args.expect.read_text(encoding="utf-8")) if args.expect else None

    found: dict[tuple[str, str], str] = {}
    with tempfile.TemporaryDirectory(prefix="bundle-digests-") as tmp:
        for name in names:
            work = Path(tmp) / name
            work.mkdir()
            built = build(name, args.seed, work)
            print("\n".join(format_lines(name, built)), flush=True)
            found.update({(name, file): digest for file, digest in built.items()})
    if expected is None:
        return 0
    problems = mismatches(expected, found, names)
    for problem in problems:
        print(f"DIFFERS {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
