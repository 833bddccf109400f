import json
from collections.abc import Mapping
from functools import cache
from dataclasses import FrozenInstanceError, is_dataclass, replace
from types import MappingProxyType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unikw import (
    FORWARD,
    REVERSED,
    Catalog,
    ValidationError,
    Vocab,
    build_exact,
    build_trie,
    encode,
    init_params,
    load_vocab,
    overlap_stats,
    retrieve,
    retrieve_channels,
    save_params,
    search,
    tokenize,
)
from unikw.cli import load_bundle, main
from unikw.encoder import PARAM_NAMES
from unikw.retriever import (
    SOURCE_BOTH, SOURCE_DR, SOURCE_NLG, RetrievalResult, results_to_jsonl_line,
)

import unikw.retriever as retriever_module
from conftest import bundle_from_catalog
from oracles import reference_jsonl_line, sorted_merge
from synthdata import make_training_corpus, write_corpus_files

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
        with pytest.raises(ValidationError, match="^dense_k must be an integer >= 0, got -1$"):
            replace(bundle, dense_k=-1)
        nlg_only = replace(bundle, dense_k=0)  # legal: no dense channel
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
        with pytest.raises(ValidationError, match="checksum|vocab"):
            replace(
                bundle,
                forward_trie=build_trie(entries, vocab_checksum=other_vocab.checksum()),
            )

    def test_catalog_too_small_detected(self, bundle):
        from dataclasses import replace

        with pytest.raises(ValidationError):
            replace(bundle, catalog=bundle.catalog[:2])

    def test_catalog_one_short_detected(self, bundle):
        with pytest.raises(ValidationError, match=(
                "^forward trie holds keyword id 5, outside the catalog of 5$")):
            replace(bundle, catalog=bundle.catalog[:-1])

    @pytest.mark.parametrize("new_id, message", [
        (-1, "every other leaf a terminal"),
        (0, "^reversed trie must hold every catalog id once; keyword 0 is held 2 times$"),
        (len(CATALOG) + 3, "^reversed trie holds keyword id 9, outside the catalog of 6$"),
    ], ids=["dropped", "repeated", "past-catalog"])
    def test_tries_covering_different_keywords_detected(self, bundle, new_id, message):
        # The reversed trie's last terminal changes id: a leaf that completes
        # nothing fails the trie's layout, the others the bundle's coverage.
        node_keyword = bundle.reversed_trie.node_keyword.copy()
        node_keyword[bundle.reversed_trie.term_nodes[-1]] = new_id
        with pytest.raises(ValidationError, match=message):
            replace(bundle, reversed_trie=replace(bundle.reversed_trie, node_keyword=node_keyword))

    def test_dense_width_mismatch_detected(self, bundle):
        from dataclasses import replace

        narrower = replace(bundle.index, vectors=bundle.index.vectors[:, :-1])
        with pytest.raises(ValidationError, match="dense_dim"):
            replace(bundle, index=narrower)


    @pytest.mark.parametrize("direction", [FORWARD, REVERSED])
    def test_trie_deeper_than_the_encoder_detected(self, bundle, direction):
        # The decoder has max_len (8) rows and used to skip, silently, every
        # keyword longer than that: here one of 8 tokens plus EOW.
        entries = [(tokenize(text, bundle.vocab, "keyword", 16), kid)
                   for kid, text in enumerate([*CATALOG, " ".join(["red"] * 8)])]
        trie = build_trie(entries, direction, bundle.vocab.checksum())
        with pytest.raises(ValidationError, match=(
            f"^{direction} trie holds a keyword of 9 positions, more than the encoder's "
            "max_len 8: build the tries with build-trie --max-len 8$"
        )):
            replace(bundle, **{f"{direction}_trie": trie})

    def test_keywords_as_long_as_max_len_fit(self, bundle):
        catalog = [*CATALOG, " ".join(["red"] * 7)]  # 7 tokens plus EOW: all 8 rows
        entries = [(tokenize(text, bundle.vocab, "keyword", 16), kid)
                   for kid, text in enumerate(catalog)]
        checksum = bundle.vocab.checksum()
        vectors = np.vstack([bundle.index.vectors, bundle.index.vectors[:1]])
        full = replace(bundle, catalog=tuple(catalog),
                       forward_trie=build_trie(entries, FORWARD, checksum),
                       reversed_trie=build_trie(entries, REVERSED, checksum),
                       index=build_exact(vectors, np.arange(len(catalog))))
        assert len(catalog) - 1 in dict(retrieve_channels(full, catalog[-1])[0])

    def test_negative_index_id_detected(self, bundle):
        ids = bundle.index.ids.copy()
        ids[-1] = -1  # what a u64 id of 2**64 - 1 reads as
        with pytest.raises(ValidationError, match="outside the catalog"):
            replace(bundle, index=build_exact(bundle.index.vectors, ids))

    def test_encoder_over_another_vocab_detected(self, bundle):
        n = len(bundle.vocab)
        params = init_params(n + 1, dim=16, dense_dim=8, hidden_dim=24, max_len=8)
        with pytest.raises(ValidationError, match=f"^encoder vocabulary {n + 1} != vocab {n}$"):
            replace(bundle, params=params)

    def test_swapped_tries_detected(self, bundle):
        with pytest.raises(ValidationError, match=f"^trie direction {REVERSED}, expected {FORWARD}$"):
            replace(bundle, forward_trie=bundle.reversed_trie, reversed_trie=bundle.forward_trie)

    def test_replace_checks_the_new_bundle(self, bundle):
        # An encoder cut to 3 positions: "hp ink cartridge" and EOW take 4.
        cut = replace(bundle.params, pos_emb=bundle.params.pos_emb[:3])
        with pytest.raises(ValidationError, match=(
            "^forward trie holds a keyword of 4 positions, more than the encoder's max_len 3"
        )):
            replace(bundle, params=cut)

    def test_a_bundle_cannot_be_changed_in_place(self, bundle):
        dense_k = bundle.dense_k
        with pytest.raises(FrozenInstanceError):
            bundle.dense_k = -1
        assert bundle.dense_k == dense_k

    def test_its_parts_cannot_be_changed_in_place(self):
        bundle = bundle_from_catalog(CATALOG)  # its own: a part that could change would stay so
        pos_emb, ids = bundle.params.pos_emb, bundle.index.ids
        with pytest.raises(FrozenInstanceError):
            bundle.params.pos_emb = pos_emb[:3]
        with pytest.raises(FrozenInstanceError):
            bundle.index.ids = ids + 1
        assert bundle.params.pos_emb is pos_emb and bundle.index.ids is ids

    def test_its_served_arrays_cannot_be_written(self):
        bundle = bundle_from_catalog(CATALOG)  # its own: a write that got through would stay
        before = retrieve(bundle, "hp ink cartridge")
        vectors, node_keyword = bundle.index.vectors, bundle.forward_trie.node_keyword
        with pytest.raises(ValueError, match="read-only"):
            vectors[:] = vectors[::-1].copy()  # reordered the hits: id 1 came first
        with pytest.raises(ValueError, match="read-only"):
            node_keyword[:] = node_keyword[::-1].copy()  # made retrieve raise ConsistencyError
        assert retrieve(bundle, "hp ink cartridge") == before

    def test_every_dataclass_part_is_frozen(self, loaded):
        """Everything a loaded bundle reaches is a frozen dataclass, a
        read-only array, a tuple, a read-only mapping or a plain value,
        except what ``LET_THROUGH`` names."""
        seen = dict(reachable(loaded))
        assert LET_THROUGH <= set(seen)
        for path, value in seen.items():
            if path in LET_THROUGH:
                continue
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, path
            elif is_dataclass(value):
                assert type(value).__dataclass_params__.frozen, path
            else:
                assert isinstance(value, (tuple, MappingProxyType, str, int, float, type(None),
                                          np.generic)), path
        # The walk met every kind of part, a graph and a group map among them.
        kinds = {type(value).__name__ for value in seen.values()}
        assert {"EncoderParams", "Vocab", "Catalog", "KeywordTrie", "DenseIndex", "DecodeConfig",
                "mappingproxy"} <= kinds
        assert loaded.index.offsets is not None and len(loaded.groups) < len(loaded.catalog)
        assert sum(isinstance(value, np.ndarray) for value in seen.values()) == 7 + 1 + 3 * 2 + 4

    def test_a_vocab_map_write_raises(self):
        bundle = bundle_from_catalog(CATALOG)  # its own: a write that got through would stay
        before, checksum = retrieve(bundle, "red shoes"), bundle.vocab.checksum()
        with pytest.raises(TypeError):
            bundle.vocab.token_to_id["red"] = bundle.vocab.id_of("blue")  # re-ranked the hits
        assert retrieve(bundle, "red shoes") == before and bundle.vocab.checksum() == checksum

    def test_a_list_catalog_is_held_as_a_catalog(self, bundle):
        texts = list(CATALOG)
        held = replace(bundle, catalog=texts)
        texts[0] = "blue shoes"  # was served as keyword 0's text
        assert isinstance(held.catalog, Catalog) and list(held.catalog) == CATALOG
        assert {r.text for r in retrieve(held, "red shoes")} <= set(CATALOG)
        with pytest.raises(TypeError):
            held.catalog[0] = "blue shoes"

    @pytest.mark.parametrize("entry, message", [
        ("", "^blank keyword at line 2$"), ("kettle\nlid", "^keyword 2 holds a line break$")])
    def test_a_catalog_entry_blank_or_with_a_break_rejected(self, bundle, entry, message):
        with pytest.raises(ValidationError, match=message):
            replace(bundle, catalog=[*CATALOG[:2], entry, *CATALOG[3:]])

    def test_empty_catalog_serves_nothing(self):
        empty = bundle_from_catalog([])
        assert len(empty.catalog) == 0 and retrieve(empty, "red shoes") == []

    @pytest.mark.parametrize("dense_k", [2.5, "3", True])
    def test_dense_k_must_be_an_integer(self, bundle, dense_k):
        # 2.5 used to construct, and retrieve then raised a TypeError in the partition.
        with pytest.raises(ValidationError, match="^dense_k must be an integer >= 0, got "):
            replace(bundle, dense_k=dense_k)

    def test_a_trie_layout_is_checked_in_a_bundle(self, bundle):
        labels = bundle.forward_trie.labels.copy()
        labels[[0, 1]] = labels[[1, 0]]  # root labels swapped: served under l2r, other scores
        with pytest.raises(ValidationError, match="labels must increase"):
            replace(bundle, forward_trie=replace(bundle.forward_trie, labels=labels))



#: What the walk of a loaded bundle lets through, each for its reason: the
#: encoder's tensors, which ``train`` updates in place; its forward-pass
#: counter; and the dict behind ``Vocab.token_to_id``, whose own ``get``
#: ``tokenize_batch`` calls.
LET_THROUGH = {f"bundle.params.{name}" for name in PARAM_NAMES} | {
    "bundle.params.forward_counter", "bundle.vocab._ids"}


def reachable(value, path="bundle"):
    """Each ``(path, value)`` reachable from ``value`` through instance
    attributes (fields and what construction derives), tuple and list items
    and mapping entries, stopping at what ``LET_THROUGH`` names."""
    yield path, value
    if path in LET_THROUGH:
        return
    if is_dataclass(value):
        items = [(f".{name}", item) for name, item in vars(value).items()]
    elif isinstance(value, (tuple, list, set, frozenset)):
        items = [(f"[{i}]", item) for i, item in enumerate(value)]
    elif isinstance(value, Mapping):
        items = [(f"[{key!r}]", item) for key, item in value.items()]
    else:
        return
    for step, item in items:
        yield from reachable(item, path + step)


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """A bundle as ``cli.load_bundle`` gives it, indexed as a graph over
    cluster representatives: every kind of part a bundle can hold."""
    bundle = tmp_path_factory.mktemp("loaded")
    paths = write_corpus_files(make_training_corpus(seed=3, n_keywords=40, n_train=40,
                                                    n_heldout=1), bundle)
    vocab = bundle / "vocab.txt"
    assert main(["build-vocab", "--keywords", str(paths["keywords"]),
                 "--pairs", str(paths["pairs"]), "--out", str(vocab)]) == 0
    for direction in ("fwd", "rev"):
        assert main(["build-trie", "--keywords", str(paths["keywords"]), "--vocab", str(vocab),
                     "--direction", direction, "--max-len", "4",
                     "--out", str(bundle / f"trie.{direction}.ktri")]) == 0
    save_params(init_params(len(load_vocab(vocab)), dim=8, dense_dim=4, hidden_dim=8, max_len=4),
                bundle / "encoder.kenc")
    assert main(["index", "--checkpoint", str(bundle / "encoder.kenc"),
                 "--keywords", str(paths["keywords"]), "--vocab", str(vocab),
                 "--kind", "graph", "--max-degree", "4", "--build-width", "8",
                 "--cluster-threshold", "0.3", "--out", str(bundle)]) == 0
    return load_bundle(bundle)


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
        got = [tuple(r) for r in retrieve(bundle, query)]
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
            got_nlg, got_dr = retrieve_channels(b, "kw1")
            for hits in (got_nlg, got_dr):  # the contract the merge rests on
                assert hits == sorted(hits, key=lambda hit: (-hit[1], hit[0]))
            got = [tuple(r) for r in retrieve(b, "kw1")]
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


# Texts that exercise every escape ``json.dumps`` makes with ensure_ascii
# off, and what it leaves alone: quotes, backslashes, control characters,
# DEL, a line separator, non-ASCII, astral code points, the separator
# between two hits, and the writer's own ``%``.
LINE_TEXTS = st.lists(
    st.one_of(st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "é",
                               "\U0001F600", '", "', "%s", "%"]),
              st.text(max_size=3)),
    max_size=5).map("".join)
LINE_SCORES = st.one_of(
    st.sampled_from([float("-inf"), float("inf"), float("nan"), -0.0, 5e-324,
                     2.2250738585072014e-308, np.float64(0.1), np.float64("nan"),
                     np.float64("-inf")]),
    st.floats(),
    st.floats().map(np.float64),
)


class TestLineBytes:
    """The one JSON writer gives the bytes of ``json.dumps`` over per-hit dicts."""

    @given(query=LINE_TEXTS, rows=st.lists(st.builds(
        RetrievalResult, st.integers(0, 2**63), LINE_TEXTS, st.none() | LINE_SCORES,
        st.none() | LINE_SCORES, st.sampled_from([SOURCE_BOTH, SOURCE_DR, SOURCE_NLG]))))
    @example(query="", rows=[])
    @settings(max_examples=300, deadline=None)
    def test_rows_line_is_the_reference(self, query, rows):
        assert results_to_jsonl_line(query, rows) == reference_jsonl_line(query, rows)

    @given(query=LINE_TEXTS, texts=st.lists(LINE_TEXTS, min_size=1, max_size=12),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_columns_line_is_the_reference(self, query, texts, data):
        ids = st.lists(st.integers(0, len(texts) - 1), unique=True)
        nlg = [(kid, data.draw(LINE_SCORES)) for kid in data.draw(ids)]
        dr = [(kid, data.draw(LINE_SCORES)) for kid in data.draw(ids)]
        catalog = SimpleNamespace(texts=lambda wanted: [texts[kid] for kid in wanted])
        columns = retriever_module._partition(SimpleNamespace(catalog=catalog), nlg, dr)
        rows = retriever_module._merge(columns)
        assert retriever_module._columns_line(query, columns) == reference_jsonl_line(query, rows)

    def test_every_source_and_no_hits(self):
        columns = retriever_module._partition(
            SimpleNamespace(catalog=Catalog.from_texts(['say "hi"', "a\\b", "naïve"])),
            [(0, -1.5), (1, float("-inf"))], [(2, float("nan")), (0, 0.25)])
        assert retriever_module._columns_line("q", columns) == (
            '{"query": "q", "results": ['
            '{"keyword": "say \\"hi\\"", "id": 0, "source": "BOTH", "nlg_score": -1.5, '
            '"dr_score": 0.25}, '
            '{"keyword": "naïve", "id": 2, "source": "DR", "dr_score": NaN}, '
            '{"keyword": "a\\\\b", "id": 1, "source": "NLG", "nlg_score": -Infinity}]}')
        empty = retriever_module._partition(SimpleNamespace(catalog=Catalog.from_texts(["x"])),
                                            [], [])
        assert retriever_module._columns_line("", empty) == '{"query": "", "results": []}'


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
        query = tokenize("red shoes", bundle.vocab, "query", bundle.params.max_len)
        scores = dict(search(clustered.index, encode(bundle.params, query).dr_embedding, 3))
        _, dr = retrieve_channels(clustered, "red shoes")
        want = {(kid, scores[rep]) for rep in scores for kid in self.GROUPS[rep]}
        assert len(dr) == min(dense_k, 6) and set(dr) <= want
        assert dr == sorted(dr, key=lambda hit: (-hit[1], hit[0]))
        # The cut keeps the best: nothing left out scores above what was kept.
        assert all(score <= dr[-1][1] for kid, score in want - set(dr))

    def test_groups_are_a_read_only_copy(self, bundle):
        groups = {rep: list(members) for rep, members in self.GROUPS.items()}
        clustered = replace(self.clustered(bundle, 20), groups=groups)
        with pytest.raises(TypeError):
            clustered.groups[0] = (0, 1, 99)  # an IndexError at query time
        groups[0].append(99)  # the caller's dict and lists do not reach it
        groups[6] = (6,)
        assert clustered.groups == self.GROUPS
        assert all(type(members) is tuple for members in clustered.groups.values())
        retrieve(clustered, "red shoes")

    @pytest.mark.parametrize("groups, message", [
        ({0: (0, 3), 1: (1, 2), 4: (4,)}, "every catalog id once"),
        ({0: (0, 3), 1: (1, 2, 2), 4: (4, 5)}, "every catalog id once"),
        ({0: (0, 3), 1: (2,), 4: (1, 4, 5)}, "map to itself"),
        ({0: (0, 3), 1: (1,), 2: (2,), 4: (4, 5)}, "exactly the index ids"),
    ])
    def test_inconsistent_groups_rejected(self, bundle, groups, message):
        clustered = self.clustered(bundle, 20)
        with pytest.raises(ValidationError, match=message):
            replace(clustered, groups=groups)

    @pytest.mark.parametrize("groups", [
        {0: (0.0, 3), 1: (1, 2), 4: (4, 5)},
        {0: (0, "3"), 1: (1, 2), 4: (4, 5)},
        {0: (0, 3), True: (1, 2), 4: (4, 5)},
    ], ids=["float-member", "str-member", "bool-representative"])
    def test_group_ids_must_be_integers(self, bundle, groups):
        # A member 0.0 built, and retrieve then raised a TypeError in the catalog's slices.
        with pytest.raises(ValidationError, match="^group map ids must be integers, got "):
            replace(self.clustered(bundle, 20), groups=groups)

    def test_numpy_integer_ids_are_held_as_ints(self, bundle):
        groups = {np.int64(rep): tuple(map(np.int32, group)) for rep, group in self.GROUPS.items()}
        clustered = replace(self.clustered(bundle, 20), groups=groups)
        assert clustered.groups == self.GROUPS
        assert {type(kid) for group in clustered.groups.values() for kid in group} == {int}

    @pytest.mark.parametrize("member", [-1, 6, 2**63, 10**30])
    def test_a_member_outside_the_catalog_names_it(self, bundle, member):
        # 2**63 and past stay exact: neither an OverflowError nor a float.
        with pytest.raises(ValidationError, match=(
                f"^dense index holds keyword id {member}, outside the catalog of 6$")):
            replace(self.clustered(bundle, 20), groups={0: (0, 3), 1: (1, 2), 4: (4, 5, member)})


class TestCoverage:
    """Each channel holds every catalog id exactly once: the forward trie's
    terminals, the reversed trie's, and the index ids or their groups'
    members.  Each bundle rejected below used to build, and serve."""

    def test_a_catalog_grown_after_the_tries_detected(self, bundle):
        # "green kettle" (id 6) was never a hit of either channel.
        with pytest.raises(ValidationError, match=(
                "^forward trie must hold every catalog id once; keyword 6 is held 0 times$")):
            replace(bundle, catalog=[*CATALOG, "green kettle"])

    def test_an_index_missing_a_keyword_detected(self, bundle):
        # Keyword 5 was reported NLG-only because the index lacked it.
        with pytest.raises(ValidationError, match=(
                "^dense index must hold every catalog id once; keyword 5 is held 0 times$")):
            replace(bundle, index=build_exact(bundle.index.vectors[:5], np.arange(5)))

    def test_one_id_at_two_terminals_detected(self, bundle):
        # Keyword 1's terminals relabelled 0 in both tries: every query raised
        # ConsistencyError, keyword 0 scored differently under the two orders.
        tries = {f"{trie.direction}_trie": _relabelled(trie, [0, 0, 2, 3, 4, 5])
                 for trie in (bundle.forward_trie, bundle.reversed_trie)}
        with pytest.raises(ValidationError, match=(
                "^forward trie must hold every catalog id once; keyword 0 is held 2 times$")):
            replace(bundle, **tries)

    @pytest.mark.parametrize("direction", [FORWARD, REVERSED])
    def test_a_leaf_that_completes_nothing_detected(self, bundle, direction):
        # Keyword 4's terminals set to -1: keyword 4 could never be an NLG hit.
        trie = getattr(bundle, f"{direction}_trie")
        node_keyword = np.where(trie.node_keyword == 4, -1, trie.node_keyword)
        with pytest.raises(ValidationError, match="every other leaf a terminal"):
            replace(trie, node_keyword=node_keyword)

    def test_an_id_past_int64_in_a_trie_names_it(self, bundle):
        with pytest.raises(ValidationError, match=(
                f"^reversed trie holds keyword id {2**62}, outside the catalog of 6$")):
            replace(bundle, reversed_trie=_relabelled(bundle.reversed_trie,
                                                      [0, 1, 2, 3, 4, 2**62]))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_a_bundle_builds_exactly_when_every_channel_covers(self, data):
        """One channel's ids are relabelled by a permutation, then one of
        them dropped, repeated, shifted or pushed past the catalog (or none
        is).  Construction raises exactly when that channel no longer holds
        every catalog id once; a bundle that builds serves catalog ids only,
        each at most once per channel."""
        n = data.draw(st.integers(1, len(CATALOG)))
        channel = data.draw(st.sampled_from([FORWARD, REVERSED, "index", "groups"]))
        perm = data.draw(st.permutations(range(n)))
        ids = list(perm)  # ids[k]: the id keyword k's entry holds; None drops the entry
        defect = data.draw(st.sampled_from(["none", "drop", "repeat", "shift", "past"]))
        k = data.draw(st.integers(0, n - 1))
        if defect == "drop":
            ids[k] = None
        elif defect == "repeat":
            ids[k] = ids[data.draw(st.integers(0, n - 1))]  # the same one: no defect
        elif defect == "shift":
            shift = data.draw(st.sampled_from([-2, -1, 1, 2]))
            ids = [kid + shift for kid in ids]
        elif defect == "past":
            ids[k] = n + data.draw(st.sampled_from([0, 3, 2**40, 2**62]))
        kept = [k for k, kid in enumerate(ids) if kid is not None]
        covers = sorted(ids[k] for k in kept) == list(range(n))
        base = _small_bundle(n)

        def build():
            if channel in (FORWARD, REVERSED):  # the other trie agrees on the permutation
                other = REVERSED if channel == FORWARD else FORWARD
                entries = [(tokenize(CATALOG[k], base.vocab, "keyword", 8), k) for k in kept]
                trie = build_trie(entries, channel, base.vocab.checksum())
                return replace(base, **{f"{channel}_trie": _relabelled(trie, ids),
                                        f"{other}_trie": _relabelled(getattr(base, f"{other}_trie"),
                                                                     perm)})
            dense_ids = np.array([ids[k] for k in kept], dtype=np.int64)
            if channel == "index":
                return replace(base, index=build_exact(base.index.vectors[kept], dense_ids))
            return replace(base, index=build_exact(base.index.vectors[:1], np.array([0])),
                           groups={0: tuple(dense_ids.tolist())})

        if not covers:
            with pytest.raises(ValidationError):
                build()
            return
        bundle = build()
        for hits in retrieve_channels(bundle, CATALOG[0]):
            got = [kid for kid, _ in hits]
            assert len(set(got)) == len(got) and set(got) <= set(range(n))


@cache
def _small_bundle(n):
    return bundle_from_catalog(CATALOG[:n])


def _relabelled(trie, ids):
    """``trie`` with keyword k's terminal holding ``ids[k]`` in its place."""
    node_keyword = trie.node_keyword.copy()
    held = node_keyword >= 0
    node_keyword[held] = [ids[kid] for kid in node_keyword[held].tolist()]
    return replace(trie, node_keyword=node_keyword)
