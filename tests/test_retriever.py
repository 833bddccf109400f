import json
from dataclasses import astuple, replace

import numpy as np
import pytest

from unikw import (
    ValidationError,
    Vocab,
    build_exact,
    build_trie,
    overlap_stats,
    retrieve,
    retrieve_channels,
    tokenize,
)
from unikw.retriever import SOURCE_BOTH, SOURCE_DR, SOURCE_NLG, results_to_jsonl_line

import unikw.retriever as retriever_module
from conftest import bundle_from_catalog
from oracles import sorted_merge

CATALOG = [
    "red shoes",
    "running shoes",
    "blue kettle",
    "electric kettle",
    "hp ink cartridge",
    "printer ink",
]


@pytest.fixture(scope="module")
def bundle():
    return bundle_from_catalog(CATALOG)


class TestRetrieve:
    def test_one_encoder_pass_per_query(self, bundle):
        before = bundle.params.forward_counter.count
        retrieve(bundle, "red shoes")
        assert bundle.params.forward_counter.count == before + 1

    def test_beam_size_does_not_change_pass_count(self, bundle):
        from dataclasses import replace

        for beam in (1, 5, 20):
            b = replace(bundle, decode=replace(bundle.decode, beam_size=beam))
            before = b.params.forward_counter.count
            retrieve(b, "printer ink")
            assert b.params.forward_counter.count == before + 1

    def test_negative_dense_k_rejected(self, bundle):
        with pytest.raises(ValidationError, match="^dense_k must be >= 0, not -1$"):
            replace(bundle, dense_k=-1).validate()
        nlg_only = replace(bundle, dense_k=0)  # legal: no dense channel
        nlg_only.validate()
        assert retrieve_channels(nlg_only, "red shoes")[1] == []

    def test_merged_equals_channel_union(self, bundle):
        nlg, dr = retrieve_channels(bundle, "blue kettle")
        merged = retrieve(bundle, "blue kettle")
        assert {r.keyword_id for r in merged} == {k for k, _ in nlg} | {k for k, _ in dr}

    def test_source_partition_and_scores(self, bundle):
        nlg, dr = retrieve_channels(bundle, "hp ink")
        nlg_ids, dr_ids = {k for k, _ in nlg}, {k for k, _ in dr}
        for r in retrieve(bundle, "hp ink"):
            if r.source == SOURCE_BOTH:
                assert r.keyword_id in nlg_ids & dr_ids
                assert r.nlg_score is not None and r.dr_score is not None
            elif r.source == SOURCE_NLG:
                assert r.keyword_id in nlg_ids - dr_ids
                assert r.nlg_score is not None and r.dr_score is None
            else:
                assert r.keyword_id in dr_ids - nlg_ids
                assert r.dr_score is not None and r.nlg_score is None

    def test_ordering_both_then_dr_then_nlg(self, bundle):
        results = retrieve(bundle, "red kettle")
        ranks = [{SOURCE_BOTH: 0, SOURCE_DR: 1, SOURCE_NLG: 2}[r.source] for r in results]
        assert ranks == sorted(ranks)

    def test_idempotence(self, bundle):
        a = retrieve(bundle, "running shoes")
        b = retrieve(bundle, "running shoes")
        assert a == b

    def test_empty_query_total(self, bundle):
        results = retrieve(bundle, "")
        assert isinstance(results, list)  # no error; quality is not promised

    def test_results_text_matches_catalog(self, bundle):
        for r in retrieve(bundle, "ink"):
            assert r.text == CATALOG[r.keyword_id]


class TestBundleValidation:
    def test_checksum_mismatch_detected(self, bundle):
        from dataclasses import replace

        other_vocab = Vocab.from_tokens(sorted({"decoy", *bundle.vocab.id_to_token[3:]}))
        entries = [
            (tokenize(text, other_vocab, "keyword", 8), kid)
            for kid, text in enumerate(CATALOG)
        ]
        bad = replace(
            bundle,
            forward_trie=build_trie(entries, vocab_checksum=other_vocab.checksum()),
        )
        with pytest.raises(ValidationError, match="checksum|vocab"):
            bad.validate()

    def test_catalog_too_small_detected(self, bundle):
        from dataclasses import replace

        bad = replace(bundle, catalog=bundle.catalog[:2])
        with pytest.raises(ValidationError):
            bad.validate()

    def test_catalog_one_short_detected(self, bundle):
        bad = replace(bundle, catalog=bundle.catalog[:-1])
        with pytest.raises(ValidationError, match="trie keyword id outside the catalog"):
            bad.validate()

    @pytest.mark.parametrize("new_id", [-1, 0, len(CATALOG) + 3],
                             ids=["dropped", "repeated", "past-catalog"])
    def test_tries_covering_different_keywords_detected(self, bundle, new_id):
        # The reversed trie's last terminal changes id: the id lists differ
        # in length, in their counts, or (past the catalog) when sorted.
        node_keyword = bundle.reversed_trie.node_keyword.copy()
        node_keyword[bundle.reversed_trie.term_nodes[-1]] = new_id
        bad = replace(bundle, reversed_trie=replace(bundle.reversed_trie, node_keyword=node_keyword))
        with pytest.raises(ValidationError, match="cover different keywords"):
            bad.validate()

    def test_dense_width_mismatch_detected(self, bundle):
        from dataclasses import replace

        narrower = replace(bundle.index, vectors=bundle.index.vectors[:, :-1])
        bad = replace(bundle, index=narrower)
        with pytest.raises(ValidationError, match="dense_dim"):
            bad.validate()


    def test_negative_index_id_detected(self, bundle):
        ids = bundle.index.ids.copy()
        ids[-1] = -1  # what a u64 id of 2**64 - 1 reads as
        bad = replace(bundle, index=build_exact(bundle.index.vectors, ids))
        with pytest.raises(ValidationError, match="outside the catalog"):
            bad.validate()


def _sorted_hits(rng, ids, levels):
    """An (id, score) list sorted by (-score, id), scores drawn from a few
    levels so that ties are common."""
    hits = [(int(kid), float(levels[rng.integers(len(levels))])) for kid in ids]
    return sorted(hits, key=lambda hit: (-hit[1], hit[0]))


class TestMergeOrder:
    """``retrieve`` merges without sorting; the one-sort merge is the oracle."""

    @pytest.mark.parametrize("query", ["red shoes", "ink", "blue running kettle", ""])
    def test_real_channels_match_sorted_merge(self, bundle, query):
        nlg, dr = retrieve_channels(bundle, query)
        got = [astuple(r) for r in retrieve(bundle, query)]
        assert got == sorted_merge(nlg, dr, bundle.catalog)

    @pytest.mark.parametrize("grouped", [False, True])
    def test_random_channels_match_sorted_merge(self, monkeypatch, rng, grouped):
        catalog = [f"kw{i}" for i in range(40)]
        base = bundle_from_catalog(catalog)
        groups, index = None, base.index
        if grouped:
            cuts = np.sort(rng.choice(np.arange(1, 40), size=11, replace=False))
            chunks = np.split(rng.permutation(40), cuts)
            groups = {int(chunk[0]): tuple(sorted(chunk.tolist())) for chunk in chunks}
            reps = np.array(sorted(groups))
            index = build_exact(base.index.vectors[reps], reps)
        pool = sorted(groups) if grouped else list(range(40))
        nlg, dr = [], []
        monkeypatch.setattr(retriever_module, "permutation_decode", lambda *args: nlg)
        monkeypatch.setattr(retriever_module, "search_batch",
                            lambda index, queries, k: [dr[:k] for _ in queries])
        sources = set()
        for _ in range(60):
            nlg_ids = rng.choice(40, size=int(rng.integers(0, 25)), replace=False)
            dr_ids = rng.choice(pool, size=int(rng.integers(0, len(pool) + 1)), replace=False)
            nlg[:] = _sorted_hits(rng, nlg_ids, [-3.0, -2.5, -2.0, -1.5])
            dr[:] = _sorted_hits(rng, dr_ids, [0.1, 0.4, 0.7])
            b = replace(base, index=index, groups=groups, dense_k=int(rng.integers(1, 30)))
            b.validate()
            got_nlg, got_dr = retrieve_channels(b, "kw1")
            for hits in (got_nlg, got_dr):  # the contract the merge rests on
                assert hits == sorted(hits, key=lambda hit: (-hit[1], hit[0]))
            got = [astuple(r) for r in retrieve(b, "kw1")]
            assert got == sorted_merge(got_nlg, got_dr, b.catalog)
            sources.update(r[4] for r in got)
        assert sources == {SOURCE_BOTH, SOURCE_DR, SOURCE_NLG}


class TestOverlapStats:
    def test_half_overlap(self):
        stats = overlap_stats({1, 2}, {2, 3})
        assert stats == {
            "unique_to_a_fraction": 0.5,
            "unique_to_b_fraction": 0.5,
            "jaccard": pytest.approx(1 / 3),
        }

    def test_identical(self):
        assert overlap_stats({1, 2}, {1, 2}) == {
            "unique_to_a_fraction": 0.0,
            "unique_to_b_fraction": 0.0,
            "jaccard": 1.0,
        }

    def test_empty_conventions(self):
        stats = overlap_stats(set(), {1})
        assert stats["unique_to_a_fraction"] == 0.0
        assert stats["unique_to_b_fraction"] == 1.0
        assert stats["jaccard"] == 0.0
        assert overlap_stats(set(), set())["jaccard"] == 1.0


class TestJsonOutput:
    def test_jsonl_schema(self, bundle):
        results = retrieve(bundle, "hp ink")
        row = json.loads(results_to_jsonl_line("hp ink", results))
        assert row["query"] == "hp ink"
        for obj in row["results"]:
            assert set(obj) <= {"keyword", "id", "source", "nlg_score", "dr_score"}
            assert obj["source"] in ("NLG", "DR", "BOTH")
            if obj["source"] == "BOTH":
                assert "nlg_score" in obj and "dr_score" in obj


class TestRepresentativeGroups:
    # Representatives 0, 1 and 4; 0 and 1 share a vector, so their groups
    # tie and their members interleave by id.
    GROUPS = {0: (0, 3), 1: (1, 2), 4: (4, 5)}

    def clustered(self, bundle, dense_k):
        reps = np.array(sorted(self.GROUPS))
        vectors = bundle.index.vectors[reps]
        vectors[1] = vectors[0]
        index = build_exact(vectors, reps)
        return replace(bundle, index=index, groups=self.GROUPS, dense_k=dense_k)

    @pytest.mark.parametrize("dense_k", [1, 2, 5, 20])
    def test_members_take_their_representatives_score(self, bundle, dense_k):
        clustered = self.clustered(bundle, dense_k)
        clustered.validate()
        _, reps_dr = retrieve_channels(replace(clustered, groups=None), "red shoes")
        _, dr = retrieve_channels(clustered, "red shoes")
        scores = dict(reps_dr)
        want = {(kid, scores[rep]) for rep in scores for kid in self.GROUPS[rep]}
        assert len(dr) == min(dense_k, 6) and set(dr) <= want
        assert dr == sorted(dr, key=lambda hit: (-hit[1], hit[0]))
        # The cut keeps the best: nothing left out scores above what was kept.
        assert all(score <= dr[-1][1] for kid, score in want - set(dr))

    @pytest.mark.parametrize("groups, message", [
        ({0: (0, 3), 1: (1, 2), 4: (4,)}, "every catalog id once"),
        ({0: (0, 3), 1: (1, 2, 2), 4: (4, 5)}, "every catalog id once"),
        ({0: (0, 3), 1: (2,), 4: (1, 4, 5)}, "map to itself"),
        ({0: (0, 3), 1: (1,), 2: (2,), 4: (4, 5)}, "exactly the index ids"),
    ])
    def test_inconsistent_groups_rejected(self, bundle, groups, message):
        clustered = replace(self.clustered(bundle, 20), groups=groups)
        with pytest.raises(ValidationError, match=message):
            clustered.validate()
