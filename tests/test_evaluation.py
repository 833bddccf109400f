"""Metric tests against hand-computed fixtures.

The two-query fixture and its expected values (documented inline) were
derived by direct spreadsheet-style arithmetic from the metric
definitions, independent of the implementation:

    q1: relevant {0, 1, 2} with propensities .5 / .25 / 1.0,
        retrieved ranking [0, 9, 1, 8, 7]
    q2: relevant {3} with propensity .2,
        retrieved ranking [5, 3]
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unikw import (
    LabeledSet,
    RetrievalResult,
    Scorer,
    ValidationError,
    good_keyword_density,
    length_distribution,
    load_labels,
    ndcg_at_k,
    precision_at_k,
    psn_at_k,
    psp_at_k,
    recall_at_k,
    token_overlap_scorer,
)

from oracles import (
    loop_ndcg_at_k,
    loop_precision_at_k,
    loop_psn_at_k,
    loop_psp_at_k,
    loop_recall_at_k,
)

RANKED = [("q1", [0, 9, 1, 8, 7]), ("q2", [5, 3])]
LABELS = LabeledSet(
    labels={"q1": {0, 1, 2}, "q2": {3}},
    propensities={0: 0.5, 1: 0.25, 2: 1.0, 3: 0.2},
)


def fake_scorer():
    """Keyword text 'kw <n>' scores n/10; deterministic and total."""
    return Scorer(fn=lambda q, k: int(k.split()[1]) / 10)


class TestGoodKeywordDensity:
    def test_two_query_fixture(self):
        # Pair scores {.8, .6} and {.4}; strictly above .5 -> 2 pairs / 2 queries.
        retrieved = [("q1", ["kw 8", "kw 6"]), ("q2", ["kw 4"])]
        assert good_keyword_density(retrieved, fake_scorer(), 0.5) == 1.0

    def test_all_below_threshold(self):
        retrieved = [("q1", ["kw 2"]), ("q2", ["kw 3"])]
        assert good_keyword_density(retrieved, fake_scorer(), 0.5) == 0.0

    def test_strict_inequality_at_threshold(self):
        retrieved = [("q1", ["kw 5"])]
        assert good_keyword_density(retrieved, fake_scorer(), 0.5) == 0.0

    def test_constant_scorer_reduces_to_mean_count(self):
        ones = Scorer(fn=lambda q, k: 1.0)
        retrieved = [("q1", ["a", "b", "c"]), ("q2", ["d"])]
        assert good_keyword_density(retrieved, ones, 0.5) == 2.0

    def test_monotone_in_threshold(self):
        retrieved = [("q1", ["kw 8", "kw 6", "kw 3"]), ("q2", ["kw 4", "kw 9"])]
        sweep = [good_keyword_density(retrieved, fake_scorer(), s / 10) for s in range(11)]
        assert all(a >= b for a, b in zip(sweep, sweep[1:]))

    def test_no_queries_rejected(self):
        with pytest.raises(ValidationError):
            good_keyword_density([], fake_scorer(), 0.5)


class TestRankedMetrics:
    def test_precision(self):
        # q1: hits {0, 1} -> 2/5. q2: hit {3} -> 1/5. Mean .3.
        assert precision_at_k(RANKED, LABELS, 5) == pytest.approx(0.3)

    def test_recall(self):
        # q1: 2/3 of labels found; q2: 1/1. Mean 5/6.
        assert recall_at_k(RANKED, LABELS, 5) == pytest.approx(0.8333333333333333)

    def test_hit_count_identity(self):
        # P@k * k == R@k * |labels| per query (both count hits).
        for query, ranked in RANKED:
            labels = LABELS.relevant(query)
            p = precision_at_k([(query, ranked)], LABELS, 5)
            r = recall_at_k([(query, ranked)], LABELS, 5)
            assert p * 5 == pytest.approx(r * len(labels))

    def test_ndcg(self):
        # q1: (1 + 1/2) / (1 + 1/log2(3) + 1/2) = 0.7039180890341347
        # q2: (1/log2(3)) / 1                   = 0.6309297535714575
        assert ndcg_at_k(RANKED, LABELS, 5) == pytest.approx(0.6674239213027962)

    def test_perfect_ranking_is_one(self):
        assert ndcg_at_k([("q1", [0, 1, 2])], LABELS, 5) == 1.0
        assert ndcg_at_k([("q1", [0, 1, 2, 9, 8])], LABELS, 5) == 1.0

    def test_disjoint_retrieval_is_zero(self):
        ranked = [("q1", [7, 8, 9])]
        assert precision_at_k(ranked, LABELS, 3) == 0.0
        assert recall_at_k(ranked, LABELS, 3) == 0.0
        assert ndcg_at_k(ranked, LABELS, 3) == 0.0

    def test_unlabeled_queries_excluded_from_recall_ndcg(self):
        ranked = RANKED + [("unlabeled", [1, 2, 3])]
        assert recall_at_k(ranked, LABELS, 5) == recall_at_k(RANKED, LABELS, 5)
        assert ndcg_at_k(ranked, LABELS, 5) == ndcg_at_k(RANKED, LABELS, 5)
        # P@k keeps the query: its precision is 0.
        assert precision_at_k(ranked, LABELS, 5) == pytest.approx(0.2)

    def test_ndcg_in_unit_interval(self):
        assert 0.0 <= ndcg_at_k(RANKED, LABELS, 5) <= 1.0


class TestPropensityScored:
    def test_psp_fixture(self):
        # q1: (1/.5 + 1/.25) / (4 + 2 + 1) = 6/7;  q2: 5/5 = 1.  Mean 13/14.
        assert psp_at_k(RANKED, LABELS, 5) == pytest.approx(0.9285714285714286)

    def test_psp_at_1(self):
        # q1: 2/4 = .5 (ideal takes the rarest label first); q2: miss -> 0.
        assert psp_at_k(RANKED, LABELS, 1) == pytest.approx(0.25)

    def test_psn_fixture(self):
        # q1: (2 + 4/2) / (4 + 2/log2(3) + 1/2); q2: (5/log2(3)) / 5.
        assert psn_at_k(RANKED, LABELS, 5) == pytest.approx(0.6625750410513832)

    def test_single_gold_rank_one(self):
        labels = LabeledSet(labels={"q": {0}}, propensities={0: 0.5})
        assert psp_at_k([("q", [0])], labels, 1) == 1.0

    def test_uniform_propensity_degenerates_to_ideal_normalized_precision(self):
        uniform = LabeledSet(
            labels=LABELS.labels, propensities={k: 1.0 for k in LABELS.propensities}
        )
        got = psp_at_k(RANKED, uniform, 5)
        expected = 0.0
        for query, ranked in RANKED:
            relevant = uniform.relevant(query)
            hits = sum(1 for kid in ranked[:5] if kid in relevant)
            expected += hits / min(5, len(relevant))
        assert got == pytest.approx(expected / len(RANKED))

    def test_missing_propensity_names_id(self):
        labels = LabeledSet(labels={"q": {42}}, propensities={1: 0.5})
        with pytest.raises(ValidationError, match="42"):
            psp_at_k([("q", [42])], labels, 1)


def outcome(metric, *args):
    """A metric's value, or the type and text of what it raised."""
    try:
        return metric(*args)
    except Exception as exc:  # noqa: BLE001 -- the error is the outcome
        return type(exc), str(exc)


def same(a, b) -> bool:
    """Equal, counting two NaNs as equal."""
    return a == b or all(isinstance(x, float) and math.isnan(x) for x in (a, b))


keyword_ids = st.integers(0, 7)
query_texts = st.sampled_from(["q0", "q1", "q2", "q3"])
propensity = st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.floats())


class TestFoldedMetricsMatchLoops:
    """One shared per-query loop gives what five hand-written loops gave:
    the same floats and the same errors, raised in the same order."""

    @settings(max_examples=400, deadline=None)
    @given(
        ranked=st.lists(st.tuples(query_texts, st.lists(keyword_ids, max_size=8)), max_size=5),
        labels=st.dictionaries(query_texts, st.sets(keyword_ids, max_size=5)),
        propensities=st.one_of(st.none(), st.dictionaries(keyword_ids, propensity)),
        k=st.integers(-1, 9),
    )
    def test_equal_to_the_loops(self, ranked, labels, propensities, k):
        labeled = LabeledSet(labels=labels, propensities=propensities)
        for folded, loop in (
            (precision_at_k, loop_precision_at_k),
            (recall_at_k, loop_recall_at_k),
            (ndcg_at_k, loop_ndcg_at_k),
            (psp_at_k, loop_psp_at_k),
            (psn_at_k, loop_psn_at_k),
        ):
            got, want = outcome(folded, ranked, labeled, k), outcome(loop, ranked, labeled, k)
            assert same(got, want), (folded.__name__, got, want)


class TestLengthDistribution:
    def _result(self, text, source):
        return RetrievalResult(
            keyword_id=0, text=text, source=source,
            nlg_score=-1.0 if source in ("NLG", "BOTH") else None,
            dr_score=0.5 if source in ("DR", "BOTH") else None,
        )

    def test_point_mass(self):
        results = [self._result("two words", "DR") for _ in range(4)]
        assert length_distribution(results) == {"DR": {2: 4}}

    def test_empty(self):
        assert length_distribution([]) == {}

    def test_mixed_matches_direct_tally(self, rng):
        words = ["alpha", "beta", "gamma", "delta"]
        results = []
        tally: dict[tuple[str, int], int] = {}
        for _ in range(50):
            n = int(rng.integers(1, 5))
            source = ("NLG", "DR", "BOTH")[int(rng.integers(0, 3))]
            results.append(self._result(" ".join(words[:n]), source))
            tally[(source, n)] = tally.get((source, n), 0) + 1
        hist = length_distribution(results)
        for (source, n), count in tally.items():
            assert hist[source][n] == count


class TestScorers:
    def test_overlap_scorer_bounds(self):
        scorer = token_overlap_scorer("exact")
        assert scorer("red shoes", "red shoes") == 1.0
        assert scorer("red shoes", "blue kettle") == 0.0
        assert 0.0 < scorer("red shoes", "red kettle") < 1.0

    def test_phrase_scorer_containment(self):
        scorer = token_overlap_scorer("phrase")
        assert scorer("cheap red shoes online", "red shoes") == 1.0


class TestLabelsFile:
    def test_load(self, tmp_path):
        labels_path = tmp_path / "labels.tsv"
        labels_path.write_text("q1\t0,1,2\nq2\t3\n", encoding="utf-8")
        prop_path = tmp_path / "props.tsv"
        prop_path.write_text("0\t0.5\n1\t0.25\n2\t1.0\n3\t0.2\n", encoding="utf-8")
        labels = load_labels(labels_path, prop_path)
        assert labels.relevant("q1") == {0, 1, 2}
        assert labels.propensities[3] == 0.2

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("q1 no tab here\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="columns"):
            load_labels(path)
