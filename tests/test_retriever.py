import json

import pytest

from unikw import (
    ValidationError,
    Vocab,
    build_trie,
    overlap_stats,
    retrieve,
    retrieve_channels,
    tokenize,
)
from unikw.retriever import SOURCE_BOTH, SOURCE_DR, SOURCE_NLG, results_to_jsonl_line

from conftest import bundle_from_catalog

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

    def test_channel_floors(self, bundle):
        from dataclasses import replace

        floored = replace(bundle, nlg_floor=0.0, dr_floor=2.0)
        nlg, dr = retrieve_channels(floored, "red shoes")
        assert nlg == []  # log-probs are negative
        assert dr == []   # cosines never reach 2.0


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

    def test_dense_width_mismatch_detected(self, bundle):
        from dataclasses import replace

        narrower = replace(bundle.index, vectors=bundle.index.vectors[:, :-1])
        bad = replace(bundle, index=narrower)
        with pytest.raises(ValidationError, match="dense_dim"):
            bad.validate()


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
