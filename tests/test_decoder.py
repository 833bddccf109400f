import math

import numpy as np
import pytest

from unikw import (
    ConsistencyError,
    DecodeConfig,
    FORWARD,
    REVERSED,
    ValidationError,
    beam_search,
    build_trie,
    constrained_logprob,
    permutation_decode,
)
from unikw import decoder as decoder_module
from unikw.decoder import NEG_INF

from oracles import (
    brute_force_ranking,
    keyword_token_logprobs,
    random_catalog,
    random_prob_table,
    scalar_beam_search,
)

EOW, A, B, C, D = 2, 3, 4, 5, 6


def table_from_probs(rows, vocab_size):
    """Build a log table from {token: prob} rows; unused cells ~ zero prob."""
    out = np.full((len(rows), vocab_size), -1e9)
    for t, row in enumerate(rows):
        for token, p in row.items():
            out[t, token] = math.log(p)
    return out


@pytest.fixture
def two_keyword_instance():
    # K1=[a,EOW] id 0, K2=[b,EOW] id 1 with hand-computable probabilities.
    trie = build_trie([((A, EOW), 0), ((B, EOW), 1)])
    table = table_from_probs(
        [{A: 0.7, B: 0.2, EOW: 0.1}, {EOW: 0.8, A: 0.1, B: 0.1}], vocab_size=5
    )
    return trie, table


class TestConstrainedLogprob:
    def test_nonchild_masked(self, two_keyword_instance):
        trie, table = two_keyword_instance
        assert constrained_logprob(table, trie, (), C) == NEG_INF

    def test_child_returns_table_value(self, two_keyword_instance):
        trie, table = two_keyword_instance
        assert constrained_logprob(table, trie, (), A) == pytest.approx(math.log(0.7))
        assert constrained_logprob(table, trie, (A,), EOW) == pytest.approx(math.log(0.8))

    def test_position_out_of_range(self, two_keyword_instance):
        trie, table = two_keyword_instance
        with pytest.raises(ValidationError, match="row"):
            constrained_logprob(table, trie, (A, EOW), A)

    def test_invalid_prefix(self, two_keyword_instance):
        trie, table = two_keyword_instance
        with pytest.raises(ValidationError, match="prefix"):
            constrained_logprob(table, trie, (C,), A)

    def test_masking_law_random_probes(self, rng):
        entries, vocab_size = random_catalog(rng, max_keywords=40)
        trie = build_trie(entries)
        table = random_prob_table(rng, 6, vocab_size)
        for _ in range(500):
            tokens, _ = entries[rng.integers(len(entries))]
            cut = int(rng.integers(0, len(tokens)))
            prefix = tokens[:cut]
            token = int(rng.integers(0, vocab_size))
            got = constrained_logprob(table, trie, prefix, token)
            is_child = token in {tok for tok, _ in _children_of(trie, prefix)}
            if is_child:
                assert got == float(table[len(prefix), token])
            else:
                assert got == NEG_INF


def _children_of(trie, prefix):
    from unikw import children, walk

    return children(trie, walk(trie, prefix))


class TestBeamSearch:
    def test_hand_computed_two_keywords(self, two_keyword_instance):
        trie, table = two_keyword_instance
        results = beam_search(table, trie, DecodeConfig(beam_size=2, orders=("l2r",)))
        assert [kid for kid, _ in results] == [0, 1]
        assert results[0][1] == pytest.approx(math.log(0.56), abs=1e-12)
        assert results[1][1] == pytest.approx(math.log(0.16), abs=1e-12)

    def test_pruning_drops_low_token(self, two_keyword_instance):
        trie, table = two_keyword_instance
        config = DecodeConfig(beam_size=2, prune_threshold=math.log(0.3), orders=("l2r",))
        results = beam_search(table, trie, config)
        assert results == [(0, pytest.approx(math.log(0.56)))]

    def test_oracle_equivalence_random(self, rng):
        for _ in range(30):
            entries, vocab_size = random_catalog(rng, max_keywords=60)
            trie = build_trie(entries)
            table = random_prob_table(rng, 6, vocab_size)
            expected = brute_force_ranking(table, entries)
            config = DecodeConfig(beam_size=len(entries), orders=("l2r",))
            got = beam_search(table, trie, config)
            assert [kid for kid, _ in got] == [kid for kid, _ in expected]
            for (_, score), (_, want) in zip(got, expected):
                assert score == pytest.approx(want, abs=1e-9)

    def test_every_output_is_catalog_keyword(self, rng):
        entries, vocab_size = random_catalog(rng)
        catalog_ids = {kid for _, kid in entries}
        trie = build_trie(entries)
        table = random_prob_table(rng, 6, vocab_size)
        for kid, _ in beam_search(table, trie, DecodeConfig(beam_size=10, orders=("l2r",))):
            assert kid in catalog_ids

    def test_monotone_pruning(self, rng):
        for _ in range(10):
            entries, vocab_size = random_catalog(rng, max_keywords=40)
            by_id = dict((kid, tokens) for tokens, kid in entries)
            trie = build_trie(entries)
            table = random_prob_table(rng, 6, vocab_size)
            full = beam_search(table, trie, DecodeConfig(beam_size=40, orders=("l2r",)))
            threshold = float(np.log(0.05))
            pruned = beam_search(
                table, trie,
                DecodeConfig(beam_size=40, prune_threshold=threshold, orders=("l2r",)),
            )
            assert {k for k, _ in pruned} <= {k for k, _ in full}
            for kid, _ in pruned:
                assert min(keyword_token_logprobs(table, by_id[kid])) >= threshold

    def test_top1_monotone_in_beam(self, rng):
        for _ in range(10):
            entries, vocab_size = random_catalog(rng, max_keywords=80)
            trie = build_trie(entries)
            table = random_prob_table(rng, 6, vocab_size)
            best = -np.inf
            for beam in (1, 2, 5, 20, 80):
                results = beam_search(table, trie, DecodeConfig(beam_size=beam, orders=("l2r",)))
                if results:
                    assert results[0][1] >= best - 1e-12
                    best = max(best, results[0][1])

    def test_empty_result_when_everything_pruned(self, two_keyword_instance):
        trie, table = two_keyword_instance
        config = DecodeConfig(beam_size=2, prune_threshold=0.5, orders=("l2r",))
        assert beam_search(table, trie, config) == []

    def test_direction_mismatch_rejected(self, two_keyword_instance):
        trie, table = two_keyword_instance
        with pytest.raises(ValidationError, match="trie"):
            beam_search(table, trie, DecodeConfig(beam_size=2, orders=("r2l",)))

    def test_tie_break_by_keyword_id(self):
        trie = build_trie([((A, EOW), 5), ((B, EOW), 1)])
        table = table_from_probs(
            [{A: 0.4, B: 0.4, EOW: 0.2}, {EOW: 1.0}], vocab_size=5
        )
        results = beam_search(table, trie, DecodeConfig(beam_size=2, orders=("l2r",)))
        assert [kid for kid, _ in results] == [1, 5]

    def test_matches_scalar_reference_on_ties(self, rng):
        # Tables rounded to 0.5 over small alphabets make equal scores
        # common, so the beam cut often splits a tie and the prefix
        # tie-break decides which hypotheses survive.
        for _ in range(1000):
            entries, vocab_size = random_catalog(
                rng, max_keywords=30, max_tokens=4, alphabet=int(rng.integers(2, 6))
            )
            tries = {"l2r": build_trie(entries, FORWARD), "r2l": build_trie(entries, REVERSED)}
            max_len = int(rng.integers(2, 7))
            width = vocab_size - int(rng.integers(0, 2))  # sometimes drops a token
            table = np.round(random_prob_table(rng, max_len, width) * 2) / 2
            for order, trie in tries.items():
                for beam in (1, 2, 3, 7):
                    for threshold in (NEG_INF, -2.0):
                        config = DecodeConfig(beam, threshold, (order,))
                        want = scalar_beam_search(
                            table, entries, beam, threshold, reverse=order == "r2l"
                        )
                        assert beam_search(table, trie, config) == want


def _length_ladder_catalog(rng, count=300, alphabet=6):
    """``count`` distinct keywords of 1-4 tokens, ids shuffled so that id
    order is not token order."""
    paths = [
        tuple(int(t) for t in rng.integers(A, A + alphabet, int(rng.integers(1, 5))))
        for _ in range(20 * count)
    ]
    unique = list(dict.fromkeys(paths))[:count]
    ids = rng.permutation(len(unique))
    return [(path + (EOW,), int(kid)) for path, kid in zip(unique, ids)], A + alphabet


class TestBeamCut:
    """The partition cut keeps every tie at the B-th score, so it matches
    the scalar reference however many edges tie there."""

    @pytest.mark.parametrize("order", ["l2r", "r2l"])
    @pytest.mark.parametrize("beam", [1, 7, 50])
    def test_all_equal_table_matches_scalar_reference(self, rng, order, beam):
        entries, vocab_size = _length_ladder_catalog(rng)
        assert len(entries) >= 200
        trie = build_trie(entries, FORWARD if order == "l2r" else REVERSED)
        table = np.full((5, vocab_size), -1.0)  # every keyword of a length ties
        want = scalar_beam_search(table, entries, beam, reverse=order == "r2l")
        assert beam_search(table, trie, DecodeConfig(beam, orders=(order,))) == want

    @pytest.mark.parametrize("order", ["l2r", "r2l"])
    def test_neg_inf_entries_at_the_cut(self, rng, order):
        # Most cells are -inf, so the B-th best live score and the B-th
        # best completed score are often -inf themselves.
        for _ in range(40):
            entries, vocab_size = random_catalog(rng, max_keywords=80, max_tokens=4, alphabet=5)
            trie = build_trie(entries, FORWARD if order == "l2r" else REVERSED)
            table = np.round(random_prob_table(rng, 5, vocab_size) * 2) / 2
            table[rng.random(table.shape) < 0.6] = NEG_INF
            for beam in (1, 3, 10):
                for threshold in (NEG_INF, -3.0):
                    want = scalar_beam_search(
                        table, entries, beam, threshold, reverse=order == "r2l"
                    )
                    config = DecodeConfig(beam, threshold, (order,))
                    assert beam_search(table, trie, config) == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_pos_inf_table_rejected(self, two_keyword_instance, bad):
        trie, table = two_keyword_instance
        table = table.copy()
        table[1, 3] = bad
        with pytest.raises(ValidationError, match="NaN"):
            beam_search(table, trie, DecodeConfig(beam_size=1, orders=("l2r",)))


class TestPermutationDecode:
    def test_single_order_degenerates_to_beam_search(self, two_keyword_instance):
        trie, table = two_keyword_instance
        rev = build_trie([((A, EOW), 0), ((B, EOW), 1)], REVERSED)
        config = DecodeConfig(beam_size=2, orders=("l2r",))
        assert permutation_decode(table, trie, rev, config) == beam_search(table, trie, config)

    def test_scores_agree_across_orders(self, rng):
        for _ in range(20):
            entries, vocab_size = random_catalog(rng, max_keywords=60)
            fwd = build_trie(entries, FORWARD)
            rev = build_trie(entries, REVERSED)
            table = random_prob_table(rng, 6, vocab_size)
            config = DecodeConfig(beam_size=16)
            l2r = dict(beam_search(table, fwd, DecodeConfig(beam_size=16, orders=("l2r",))))
            r2l = dict(beam_search(table, rev, DecodeConfig(beam_size=16, orders=("r2l",))))
            for kid in set(l2r) & set(r2l):
                assert abs(l2r[kid] - r2l[kid]) < 1e-9
            merged = permutation_decode(table, fwd, rev, config)
            assert {k for k, _ in merged} == set(
                sorted(set(l2r) | set(r2l), key=lambda k: (-max(l2r.get(k, -np.inf), r2l.get(k, -np.inf)), k))[:16]
            )

    def test_union_beats_single_order(self):
        # The best keyword hides behind a weak first token: greedy L2R
        # commits to K0, while R2L finds K1 from its strong tail.
        entries = [((A, C, EOW), 0), ((B, D, EOW), 1)]
        fwd = build_trie(entries, FORWARD)
        rev = build_trie(entries, REVERSED)
        table = table_from_probs(
            [
                {A: 0.6, B: 0.35, C: 0.025, D: 0.02, EOW: 0.005},
                {D: 0.85, C: 0.1, A: 0.02, B: 0.02, EOW: 0.01},
                {EOW: 0.95, A: 0.02, B: 0.01, C: 0.01, D: 0.01},
            ],
            vocab_size=7,
        )
        l2r_only = beam_search(table, fwd, DecodeConfig(beam_size=1, orders=("l2r",)))
        merged = permutation_decode(table, fwd, rev, DecodeConfig(beam_size=1))
        assert l2r_only[0][0] == 0
        assert merged[0][0] == 1
        assert merged[0][1] > l2r_only[0][1]

    def test_each_single_order_config_is_made_once(self, rng, monkeypatch):
        # Each query used to make and check a single-order config per order.
        entries, vocab_size = random_catalog(rng, max_keywords=30)
        fwd, rev = build_trie(entries, FORWARD), build_trie(entries, REVERSED)
        table = random_prob_table(rng, 6, vocab_size)
        config = DecodeConfig(beam_size=8, prune_threshold=-9.0)
        want = permutation_decode(table, fwd, rev, config)
        made, seen, search = [], [], decoder_module.beam_search
        post_init = DecodeConfig.__post_init__
        monkeypatch.setattr(DecodeConfig, "__post_init__", lambda c: made.append(c) or post_init(c))
        monkeypatch.setattr(decoder_module, "beam_search",
                            lambda t, trie, c: seen.append(c) or search(t, trie, c))
        for _ in range(3):
            assert permutation_decode(table, fwd, rev, config) == want
        assert made == [] and seen[0] is seen[2] is seen[4] and seen[1] is seen[3] is seen[5]
        assert seen[:2] == [DecodeConfig(8, -9.0, ("l2r",)), DecodeConfig(8, -9.0, ("r2l",))]

    def test_catalog_mismatch_raises_consistency_error(self):
        fwd = build_trie([((A, EOW), 0)], FORWARD)
        rev = build_trie([((B, EOW), 0)], REVERSED)
        table = table_from_probs(
            [{A: 0.9, B: 0.05, EOW: 0.05}, {EOW: 0.9, A: 0.05, B: 0.05}], vocab_size=5
        )
        with pytest.raises(ConsistencyError, match="scored"):
            permutation_decode(table, fwd, rev, DecodeConfig(beam_size=4))


class TestDecodeConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            DecodeConfig(beam_size=0)
        with pytest.raises(ValidationError):
            DecodeConfig(orders=())
        with pytest.raises(ValidationError):
            DecodeConfig(orders=("upside-down",))

    def test_nan_prune_threshold_rejected(self):
        # Every comparison with NaN is false, so it used to switch pruning off.
        with pytest.raises(ValidationError, match="prune_threshold"):
            DecodeConfig(prune_threshold=float("nan"))

    @pytest.mark.parametrize("orders", [("l2r", "l2r"), ("r2l", "l2r", "r2l")])
    def test_repeated_order_rejected(self, orders):
        # A repeat used to run the same beam search twice for the same result.
        with pytest.raises(ValidationError, match="repeated decoding order"):
            DecodeConfig(orders=orders)

    @pytest.mark.parametrize("beam_size", [2.5, 3.0, "3", True, None])
    def test_beam_size_must_be_an_integer(self, beam_size):
        # 2.5 used to construct, and retrieve then raised a TypeError in the partition.
        with pytest.raises(ValidationError, match="^beam_size must be an integer >= 1, got "):
            DecodeConfig(beam_size=beam_size)
        assert DecodeConfig(beam_size=np.int64(3)).beam_size == 3

    def test_orders_are_held_as_a_tuple(self):
        config = DecodeConfig(orders=["l2r"])
        assert config.orders == ("l2r",)
        with pytest.raises(AttributeError):
            config.orders.append("zzz")  # a KeyError at query time
