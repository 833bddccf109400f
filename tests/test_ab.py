"""The A/B harness's summary and verdict arithmetic, on canned records."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import ab  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "load_s", "better": "lower", "bound": 0.25},
    {"name": "batch_qps", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
]}


def record(seed, load_s, batch_qps, peak_rss_mb, first_side="parent", failed=0):
    return {
        "seed": seed, "correct": True, "attempted": 100, "failed": failed, "first_side": first_side,
        "metrics": {"load_s": load_s, "batch_qps": batch_qps, "peak_rss_mb": peak_rss_mb},
        "details": {"wall_clock": {"load_s": load_s / 2}, "stage_s": {"index": 1.0}},
    }


def canned(load_parent, load_change, rss_change=None):
    seeds = range(71, 71 + len(load_parent))
    rss_change = rss_change or [60.0] * len(load_parent)
    return {
        "parent": [record(s, v, 100.0, 60.0) for s, v in zip(seeds, load_parent)],
        "change": [record(s, v, 100.0 + i, r, failed=i % 2)
                   for i, (s, v, r) in enumerate(zip(seeds, load_change, rss_change))],
    }


PARENT = [0.110, 0.112, 0.114, 0.116, 0.118, 0.120, 0.122, 0.124, 0.126, 0.128]


class TestSummary:
    def test_quartiles_ratios_and_wins(self):
        change = [0.090, 0.091, 0.092, 0.093, 0.094, 0.095, 0.096, 0.097, 0.098, 0.130]
        w = ab.summarize(canned(PARENT, change), SPEC)
        load = w["metrics"]["load_s"]
        # Linear interpolation: positions 2.25, 4.5 and 6.75 of the sorted values.
        assert load["parent"]["q1"] == pytest.approx(0.1145)
        assert load["parent"]["median"] == pytest.approx(0.119)
        assert load["parent"]["q3"] == pytest.approx(0.1235)
        assert load["parent"]["iqr"] == pytest.approx(0.009)
        assert load["change"]["median"] == pytest.approx(0.0945)
        assert load["pair_ratios"][0] == pytest.approx(0.090 / 0.110)
        assert load["change_better_pairs"] == 9 and load["pairs"] == 10
        assert load["median_change_pct"] == pytest.approx(100 * (0.0945 / 0.119 - 1))
        # batch_qps is higher-better: change runs 100..109 beat 100 in nine pairs (one tie).
        assert w["metrics"]["batch_qps"]["change_better_pairs"] == 9
        assert w["wall_clock"]["load_s"]["parent"]["median"] == pytest.approx(0.0595)
        assert w["stage_s_wall"]["index"]["change_better_pairs"] == 0  # ties count for neither
        assert w["failed_operations"] == {"parent": 0, "change": 5}
        assert w["first_side_per_seed"]["71"] == "parent" and w["seeds"][0] == 71

    def test_incorrect_run_gives_no_metrics(self):
        records = canned(PARENT, PARENT)
        records["change"][3]["correct"] = False
        w = ab.summarize(records, SPEC)
        assert not w["all_correct"] and w["metrics"] == {}


class TestVerdict:
    @pytest.mark.parametrize("change, met", [
        # 9 of 10 wins and a median gap of 0.0245 beyond the parent's IQR 0.009.
        ([0.090, 0.091, 0.092, 0.093, 0.094, 0.095, 0.096, 0.097, 0.098, 0.130], True),
        # 8 of 10 wins is too few.
        ([0.090, 0.091, 0.092, 0.093, 0.094, 0.095, 0.096, 0.097, 0.130, 0.130], False),
        # Every pair won, but the medians differ by 0.004, inside the parent's IQR.
        ([v - 0.004 for v in PARENT], False),
        # Eight wins and two ties: a tie is not a win.
        ([0.090] * 8 + [0.126, 0.128], False),
    ], ids=["met", "eight-wins", "inside-iqr", "ties"])
    def test_claim_rule(self, change, met):
        summary = ab.summarize(canned(PARENT, change), SPEC)["metrics"]["load_s"]
        verdict = ab.claim_verdict(summary, "lower")
        assert verdict["met"] is met
        assert verdict["parent_iqr"] == pytest.approx(0.009)

    def test_gap_in_the_wrong_direction_is_not_met(self):
        summary = ab.compare([1.0] * 10, [2.0] * 10, "higher")
        assert ab.claim_verdict(summary, "higher")["met"]
        summary = ab.compare([2.0] * 10, [1.0] * 10, "higher")
        assert not ab.claim_verdict(summary, "higher")["met"]

    @pytest.mark.parametrize("parent, change, want", [
        ([60.0] * 10, [62.0] * 10, "ok"),                      # 3.3% worse, bound 5%
        ([60.0] * 10, [64.0] * 10, "worse beyond bound"),      # 6.7% worse
        ([50.0, 55.0, 60.0, 65.0, 70.0] * 2, [61.0] * 10, "unresolved"),  # spread 21% > 5%
        ([50.0, 55.0, 60.0, 65.0, 70.0] * 2, [40.0] * 10, "ok"),  # every change run is better
    ], ids=["within", "beyond", "unresolved", "all-better"])
    def test_bound_check(self, parent, change, want):
        assert ab.bound_check(ab.compare(parent, change, "lower"), "lower", 0.05) == want


def test_report_prints_set_up_stages_beside_the_end_to_end_rows(capsys):
    records = canned(PARENT, PARENT)
    for i, r in enumerate(records["change"]):
        r["details"]["stage_s"] = {"index": 0.8 if i < 9 else 1.2}
    workloads = {"graph5k": ab.summarize(records, SPEC)}
    ab.report(workloads, ("graph5k", "load_s"), SPEC)
    lines = capsys.readouterr().out.splitlines()
    stage = next(line for line in lines if line.split()[:2] == ["stage", "index"])
    assert lines.index(stage) > max(i for i, line in enumerate(lines) if "load_s" in line.split()[:1])
    assert stage.split()[2:] == ["parent", "1", "change", "0.8", "-20.0%", "wins", "9/10"]


def test_parse_seeds():
    assert ab.parse_seeds("71-74,80") == [71, 72, 73, 74, 80]
    with pytest.raises(ValueError):
        ab.parse_seeds("")
