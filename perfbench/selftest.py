"""Self-test of the benchmark's checkers: they pass a right output and
reject each deliberately wrong one.

Runs in a few milliseconds, at the start of every benchmark run and on its
own:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import sys

import numpy as np

import checks

CATALOG = [f"kw{i}" for i in range(8)]
EXHAUSTIVE = np.log(np.array([0.05, 0.3, 0.1, 0.2, 0.15, 0.08, 0.07, 0.05]))
SCAN = np.array([0.9, 0.1, 0.5, -0.2, 0.7, 0.3, 0.6, 0.0])
BEAM = DENSE_K = 3


def _merged(nlg, dr) -> list[dict]:
    """The right merged list, built by hand for the toy case below."""
    nlg_s, dr_s = dict(nlg), dict(dr)
    rows = []
    for kid in sorted(set(nlg_s) | set(dr_s)):
        source = "BOTH" if kid in nlg_s and kid in dr_s else "NLG" if kid in nlg_s else "DR"
        row = {"keyword": CATALOG[kid], "id": kid, "source": source}
        if kid in nlg_s:
            row["nlg_score"] = nlg_s[kid]
        if kid in dr_s:
            row["dr_score"] = dr_s[kid]
        rows.append(row)
    rank = checks.SOURCE_RANK
    rows.sort(key=lambda r: (rank[r["source"]], -r.get("dr_score", r.get("nlg_score")), r["id"]))
    return rows


def cases():
    """(name, checker returning errors, must the checker object?)."""
    nlg = checks.top(EXHAUSTIVE, BEAM)     # ids 1, 3, 4
    dr = checks.top(SCAN, DENSE_K)         # ids 0, 4, 6: one shared with NLG
    merged = _merged(nlg, dr)
    rows = [{"query": "q", "results": merged}]

    shifted = [(nlg[0][0], nlg[0][1] + 1e-6)] + nlg[1:]
    outside = nlg[:2] + [(len(CATALOG), nlg[-1][1] - 1.0)]  # sorted: only the id is wrong
    unsorted = [nlg[1], nlg[0], nlg[2]]
    missing = [r for r in merged if r["source"] != "DR"]
    relabelled = copy.deepcopy(merged)
    relabelled[0]["source"] = "NLG" if relabelled[0]["source"] != "NLG" else "DR"
    misordered = merged[::-1]
    wrong_text = copy.deepcopy(merged)
    wrong_text[0]["keyword"] = "not in the catalog"
    cli_differs = copy.deepcopy(rows)
    cli_differs[0]["results"][0]["dr_score" if "dr_score" in merged[0] else "nlg_score"] += 1e-12
    skipped_rank = [dr[0], dr[2], (7, float(SCAN[7]))]

    return [
        ("right NLG list", lambda: checks.check_nlg(nlg, EXHAUSTIVE, BEAM), False),
        ("shifted NLG score", lambda: checks.check_nlg(shifted, EXHAUSTIVE, BEAM), True),
        ("NLG id outside the catalog", lambda: checks.check_nlg(outside, EXHAUSTIVE, BEAM), True),
        ("unsorted NLG list", lambda: checks.check_nlg(unsorted, EXHAUSTIVE, BEAM), True),
        ("NLG list over the beam", lambda: checks.check_nlg(nlg, EXHAUSTIVE, BEAM - 1), True),
        ("right DR list", lambda: checks.check_dr(dr, SCAN, DENSE_K, exact=True), False),
        ("exact DR list missing a top-k id",
         lambda: checks.check_dr(skipped_rank, SCAN, DENSE_K, exact=True), True),
        ("DR id outside the catalog",
         lambda: checks.check_dr(dr[:2] + [(99, 0.0)], SCAN, DENSE_K, exact=False), True),
        ("right merged list", lambda: checks.check_merged(nlg, dr, merged, CATALOG), False),
        ("merged list missing a union member",
         lambda: checks.check_merged(nlg, dr, missing, CATALOG), True),
        ("wrong source label", lambda: checks.check_merged(nlg, dr, relabelled, CATALOG), True),
        ("merged list out of order", lambda: checks.check_merged(nlg, dr, misordered, CATALOG), True),
        ("merged text not the catalog line",
         lambda: checks.check_merged(nlg, dr, wrong_text, CATALOG), True),
        ("same CLI and library rows", lambda: checks.check_cli_rows(rows, copy.deepcopy(rows)), False),
        ("CLI row differs from the library", lambda: checks.check_cli_rows(cli_differs, rows), True),
        ("one encoder pass per query", lambda: checks.check_forward_passes([1, 1, 1]), False),
        ("two encoder passes for a query", lambda: checks.check_forward_passes([1, 2, 1]), True),
        ("recall under its floor", lambda: checks.check_floor("recall", 0.89, 0.9), True),
    ]


def run_all() -> list[str]:
    """Empty when every checker behaves; otherwise one line per misbehaviour."""
    failures = []
    for name, checker, must_object in cases():
        objected = bool(checker())
        if objected != must_object:
            failures.append(f"checker self-test: {name}: "
                            f"{'objected' if objected else 'did not object'}")
    return failures


if __name__ == "__main__":
    problems = run_all()
    for line in problems:
        print(line)
    print(f"{len(cases()) - len(problems)}/{len(cases())} checker cases behave")
    sys.exit(1 if problems else 0)
