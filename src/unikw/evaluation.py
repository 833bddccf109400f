"""Retrieval evaluation: good-keyword density and standard ranked metrics.

Good-keyword density Q@s is the average number of retrieved keywords per
query whose quality score strictly exceeds the threshold s.  The quality
scorer is pluggable — any deterministic total function of (query text,
keyword text) into [0, 1] — because learned judgment models are
deployment-specific; a token-overlap scorer ships as the default
synthetic stand-in.

Ranked metrics follow the usual conventions:

    P@k    hits in the top k, over k
    R@k    hits in the top k, over |labels|
    nDCG@k binary gains with log2(rank+1) discounts, ideal-normalized
    PSP@k  propensity-scored precision: each hit counts 1/p_l, the sum
           normalized per query by the best achievable top-k value
    PSN@k  as PSP@k but with DCG discounts on both sides

Queries with no labels are excluded from R@k / nDCG@k / PSP@k / PSN@k
averages (their count is reported by ``compute_metrics``); P@k keeps them
since its denominator does not involve labels.  One per-query loop serves
every ranked metric: it averages a per-query score over the (labeled)
queries, and nDCG@k, PSP@k and PSN@k share one gain sum, run once on the
top k and once on the ideal ranking.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .errors import ValidationError
from .retriever import RetrievalResult


@dataclass(frozen=True)
class Scorer:
    """Quality-judgment contract: deterministic, total, range [0, 1]."""

    fn: Callable[[str, str], float]

    def __call__(self, query: str, keyword: str) -> float:
        return self.fn(query, keyword)


def _jaccard_tokens(query: str, keyword: str) -> float:
    a, b = set(query.lower().split()), set(keyword.lower().split())
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def _containment_tokens(query: str, keyword: str) -> float:
    a, b = set(query.lower().split()), set(keyword.lower().split())
    if not b:
        return 0.0
    return len(a & b) / len(b)


def token_overlap_scorer(match_type: str = "exact") -> Scorer:
    """Synthetic scorer: token Jaccard for exact, containment for phrase."""
    if match_type == "exact":
        return Scorer(fn=_jaccard_tokens)
    if match_type == "phrase":
        return Scorer(fn=_containment_tokens)
    raise ValidationError(f"unknown match type: {match_type!r}")


@dataclass(frozen=True)
class LabeledSet:
    """Per-query relevant ids, with optional per-keyword propensities."""

    labels: dict[str, set[int]]
    propensities: dict[int, float] | None = None

    def relevant(self, query: str) -> set[int]:
        return self.labels.get(query, set())


def good_keyword_density(retrievals, scorer: Scorer, threshold: float) -> float:
    """Q@s over ``retrievals``: iterable of (query text, [keyword texts]).

    Counts every retrieved pair scoring strictly above the threshold and
    divides by the number of queries; a density, not a rate, so values
    above 1 are normal.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValidationError("threshold must lie in [0, 1]")
    retrievals = list(retrievals)
    if not retrievals:
        raise ValidationError("no queries to evaluate")
    good = sum(
        1
        for query, keywords in retrievals
        for keyword in keywords
        if scorer(query, keyword) > threshold
    )
    return good / len(retrievals)


def _query_mean(queries, labels: LabeledSet, k: int, per_query, labeled_only=True) -> float:
    """Mean of ``per_query(top k ids, relevant ids)`` over the labeled
    queries, or over every query when not ``labeled_only``."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    values = []
    for query, ranked in queries:
        relevant = labels.relevant(query)
        if relevant or not labeled_only:
            values.append(per_query(ranked[:k], relevant))
    if not values:
        raise ValidationError(f"no {'labeled ' if labeled_only else ''}queries to evaluate")
    return sum(values) / len(values)


def _dcg(gains, discounted: bool) -> float:
    """Sum of ``gains`` in rank order, each over log2(rank + 2) if ``discounted``."""
    total = 0.0
    for rank, gain in enumerate(gains):
        total += gain / math.log2(rank + 2) if discounted else gain
    return total


def _ideal_normalized(queries, labels: LabeledSet, k: int, gain, discounted: bool) -> float:
    """Mean over labeled queries of the top k's summed ``gain`` (0 for a
    miss) over the most the query's relevant ids could reach in k ranks."""

    def per_query(top, relevant):
        found = _dcg([gain(kid) if kid in relevant else 0.0 for kid in top], discounted)
        return found / _dcg(sorted(map(gain, relevant), reverse=True)[:k], discounted)

    return _query_mean(queries, labels, k, per_query)


def precision_at_k(ranked_ids_per_query, labels: LabeledSet, k: int) -> float:
    """Mean over all queries of |top-k ∩ relevant| / k."""
    per_query = lambda top, relevant: sum(kid in relevant for kid in top) / k  # noqa: E731
    return _query_mean(ranked_ids_per_query, labels, k, per_query, labeled_only=False)


def recall_at_k(ranked_ids_per_query, labels: LabeledSet, k: int) -> float:
    """Mean over labeled queries of |top-k ∩ relevant| / |relevant|."""
    per_query = lambda top, relevant: sum(kid in relevant for kid in top) / len(relevant)  # noqa: E731
    return _query_mean(ranked_ids_per_query, labels, k, per_query)


def ndcg_at_k(ranked_ids_per_query, labels: LabeledSet, k: int) -> float:
    """Binary-gain nDCG with log2(rank+1) discounts, per-query normalized."""
    return _ideal_normalized(ranked_ids_per_query, labels, k, lambda kid: 1.0, True)


def _inverse_propensity(labels: LabeledSet, keyword_id: int) -> float:
    if labels.propensities is None:
        raise ValidationError("propensities are required for propensity-scored metrics")
    p = labels.propensities.get(keyword_id)
    if p is None:
        raise ValidationError(f"missing propensity for keyword id {keyword_id}")
    if not 0.0 < p <= 1.0:
        raise ValidationError(f"propensity for keyword id {keyword_id} must be in (0, 1]")
    return 1.0 / p


def psp_at_k(ranked_ids_per_query, labels: LabeledSet, k: int) -> float:
    """Propensity-scored precision, normalized by the per-query ideal at k."""
    return _ideal_normalized(ranked_ids_per_query, labels, k, partial(_inverse_propensity, labels), False)


def psn_at_k(ranked_ids_per_query, labels: LabeledSet, k: int) -> float:
    """Propensity-scored nDCG, normalized by the per-query ideal at k."""
    return _ideal_normalized(ranked_ids_per_query, labels, k, partial(_inverse_propensity, labels), True)


def length_distribution(results) -> dict[str, dict[int, int]]:
    """Histogram of keyword token lengths per source channel."""
    hist: dict[str, Counter] = {}
    for result in results:
        if not isinstance(result, RetrievalResult):
            raise ValidationError("length_distribution expects RetrievalResult items")
        length = len(result.text.split())
        hist.setdefault(result.source, Counter())[length] += 1
    return {channel: dict(sorted(counter.items())) for channel, counter in hist.items()}


def compute_metrics(
    ranked_ids_per_query,
    labels: LabeledSet,
    ks,
    retrieved_texts=None,
    scorer: Scorer | None = None,
    thresholds=(),
) -> dict:
    """One-call aggregate used by the command line.

    ``ranked_ids_per_query`` is a list of (query, ranked ids); metrics are
    emitted for every k in ``ks``; Q@s values additionally require
    ``retrieved_texts`` (query, keyword texts) and a scorer.
    """
    ranked = list(ranked_ids_per_query)
    metrics: dict = {}
    unlabeled = sum(1 for query, _ in ranked if not labels.relevant(query))
    for k in ks:
        metrics[f"P@{k}"] = precision_at_k(ranked, labels, k)
        metrics[f"R@{k}"] = recall_at_k(ranked, labels, k)
        metrics[f"nDCG@{k}"] = ndcg_at_k(ranked, labels, k)
        if labels.propensities is not None:
            metrics[f"PSP@{k}"] = psp_at_k(ranked, labels, k)
            metrics[f"PSN@{k}"] = psn_at_k(ranked, labels, k)
    if scorer is not None and retrieved_texts is not None:
        for threshold in thresholds:
            metrics[f"Q@{threshold:g}"] = good_keyword_density(
                retrieved_texts, scorer, threshold
            )
    metrics["queries"] = len(ranked)
    metrics["queries_without_labels"] = unlabeled
    return metrics


def load_labels(path, propensity_path=None) -> LabeledSet:
    """Labels TSV ``query<TAB>id[,id...]``; propensities TSV ``id<TAB>p``."""
    labels: dict[str, set[int]] = {}
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValidationError(f"labels line {line_no}: expected 2 columns")
            ids = {int(x) for x in parts[1].split(",") if x}
            labels.setdefault(parts[0], set()).update(ids)
    propensities = None
    if propensity_path is not None:
        propensities = {}
        with open(propensity_path, encoding="utf-8") as f:
            for line_no, line in enumerate(f):
                line = line.strip()
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ValidationError(f"propensity line {line_no}: expected 2 columns")
                propensities[int(parts[0])] = float(parts[1])
    return LabeledSet(labels=labels, propensities=propensities)
