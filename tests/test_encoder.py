import os
import re
import subprocess
import sys
import textwrap
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from unikw import (
    EOW_ID,
    TrainConfig,
    TrainingDiverged,
    ValidationError,
    Vocab,
    embed_batch,
    encode,
    init_params,
    joint_loss,
    load_params,
    mine_negatives,
    save_params,
    tokenize,
    train,
)
import unikw.encoder as encoder
from unikw.corpus import TrainingPair, _flatten
from unikw.encoder import _balanced_kmeans, _pool

from oracles import (
    einsum_joint_loss,
    finite_difference_grads,
    max_relative_error,
    scalar_balanced_kmeans,
    scalar_mine_negatives,
    scalar_pool,
)


def small_params(seed=0, vocab_size=16, dim=4, dense_dim=3, hidden_dim=6, max_len=4):
    return init_params(vocab_size, dim, dense_dim, hidden_dim, max_len, seed)


def random_batch(rng, params, n_pairs=3, n_negatives=2):
    """Random (query, keyword, negatives) triples fitting the params."""
    vocab_size, max_len = params.vocab_size, params.max_len

    def query():
        length = int(rng.integers(1, max_len + 1))
        return tuple(int(t) for t in rng.integers(3, vocab_size, length))

    def keyword():
        length = int(rng.integers(1, max_len))
        return tuple(int(t) for t in rng.integers(3, vocab_size, length)) + (EOW_ID,)

    return [
        (query(), keyword(), tuple(keyword() for _ in range(n_negatives)))
        for _ in range(n_pairs)
    ]


class TestEncode:
    def test_rows_are_log_distributions(self, rng):
        params = small_params()
        out = encode(params, (3, 4, 5))
        sums = np.exp(out.nar_logprobs).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_embedding_unit_norm(self):
        params = small_params()
        out = encode(params, (3,))
        assert abs(np.linalg.norm(out.dr_embedding) - 1.0) < 1e-9

    def test_token_multiset_invariance(self):
        # Mean pooling is order-free up to float summation order.
        params = small_params()
        a = encode(params, (3, 4, 5))
        b = encode(params, (5, 3, 4))
        np.testing.assert_allclose(a.dr_embedding, b.dr_embedding, atol=1e-12)
        np.testing.assert_allclose(a.nar_logprobs, b.nar_logprobs, atol=1e-12)

    def test_determinism(self):
        params = small_params()
        a = encode(params, (3, 4))
        b = encode(params, (3, 4))
        np.testing.assert_array_equal(a.nar_logprobs, b.nar_logprobs)

    def test_token_out_of_vocab_rejected(self):
        params = small_params()
        with pytest.raises(ValidationError, match="vocabulary"):
            encode(params, (99,))

    def test_too_long_rejected(self):
        params = small_params()
        with pytest.raises(ValidationError, match="length"):
            encode(params, tuple([3] * 10))

    def test_forward_counter(self):
        params = small_params()
        before = params.forward_counter.count
        encode(params, (3,))
        encode(params, (4,))
        assert params.forward_counter.count == before + 2

    def test_embed_batch_matches_encode(self, rng):
        params = small_params()
        seqs = [(3, 4), (5,), (6, 7, 8)]
        batch = embed_batch(params, seqs)
        for row, seq in zip(batch, seqs):
            np.testing.assert_allclose(row, encode(params, seq).dr_embedding, atol=1e-12)


class TestPool:
    @pytest.mark.parametrize(
        "lengths",
        [[1], [3, 3, 3, 3], [1, 4, 2, 4, 1, 3, 2], list(range(1, 17)) * 3 + [16, 1, 7]],
        ids=["one-row", "uniform", "ragged", "wide"],
    )
    def test_bit_equal_to_scalar_loop(self, rng, lengths):
        token_emb = rng.normal(size=(50, 7))
        lengths = np.array(lengths, dtype=np.int64)
        flat_ids = rng.integers(0, 50, int(lengths.sum()))
        assert np.array_equal(
            _pool(token_emb, flat_ids, lengths), scalar_pool(token_emb, flat_ids, lengths)
        )

    def test_row_is_same_bits_in_any_batch(self, rng):
        params = small_params(max_len=6)
        seqs = [tuple(int(t) for t in rng.integers(3, 16, n)) for n in (5, 1, 6, 2, 2)]
        whole = _pool(params.token_emb, *_flatten(seqs))
        for row, seq in zip(whole, seqs):
            assert np.array_equal(row, _pool(params.token_emb, *_flatten([seq]))[0])


class TestJointLoss:
    def test_empty_batch_rejected(self):
        params = small_params()
        with pytest.raises(ValidationError, match="empty batch"):
            joint_loss(params, [], TrainConfig())

    def test_missing_negatives_rejected(self):
        params = small_params()
        with pytest.raises(ValidationError, match="negative"):
            joint_loss(params, [((3,), (4, EOW_ID), ())], TrainConfig())

    def test_identical_query_keyword_zero_margin_hinge_inactive(self):
        # sim(q, k) = 1 exactly when the sequences coincide, so with
        # margin 0 the hinge term must vanish for any negative.
        params = small_params()
        batch = [((3, 4), (3, 4), ((5, 6),))]  # DR head ignores EOW role
        config = TrainConfig(margin=0.0, nlg_weight=0.0)
        loss, _ = joint_loss(params, batch, config)
        assert loss == 0.0

    def test_nlg_weight_linearity(self, rng):
        params = small_params()
        batch = random_batch(rng, params)
        base, _ = joint_loss(params, batch, TrainConfig(nlg_weight=0.0))
        one, _ = joint_loss(params, batch, TrainConfig(nlg_weight=1.0))
        two, _ = joint_loss(params, batch, TrainConfig(nlg_weight=2.0))
        assert two - base == pytest.approx(2 * (one - base), rel=1e-12)

    def test_zero_nlg_weight_zeroes_output_head_grads(self, rng):
        params = small_params()
        batch = random_batch(rng, params)
        _, grads = joint_loss(params, batch, TrainConfig(nlg_weight=0.0))
        assert not grads["out_w"].any()
        assert not grads["out_b"].any()

    def test_always_active_hinge_shifts_by_margin(self, rng):
        # For margin large enough every hinge is active and the DR term is
        # exactly (mean hardest-negative sim - mean positive sim) + margin.
        params = small_params()
        batch = random_batch(rng, params)
        a, _ = joint_loss(params, batch, TrainConfig(margin=9.0, nlg_weight=0.0))
        b, _ = joint_loss(params, batch, TrainConfig(margin=10.0, nlg_weight=0.0))
        assert b - a == pytest.approx(1.0, abs=1e-12)

    # The dense head is unit-normalised: its similarity is the cosine.
    @pytest.mark.parametrize("config", [TrainConfig(nlg_weight=0.7, margin=0.4)], ids=["cosine"])
    def test_gradients_match_finite_differences(self, config):
        rng = np.random.default_rng(7)
        params = small_params(seed=11)
        batch = random_batch(rng, params)
        _, analytic = joint_loss(params, batch, config)
        numeric = finite_difference_grads(
            lambda: joint_loss(params, batch, config)[0], params.arrays()
        )
        assert max_relative_error(analytic, numeric) < 1e-4


class TestMineNegatives:
    def test_gold_keyword_excluded(self):
        # Batch keyword pool is {0, 1, 2}; pair 0 counts both 0 and 1 as
        # positives, so its single negative must be keyword 2 even though
        # keyword 1 has the highest similarity.
        queries = np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]])
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        keywords = np.array([[1.0, 0.0], [0.99, 0.14], [0.0, 1.0]])
        keywords /= np.linalg.norm(keywords, axis=1, keepdims=True)
        plan = mine_negatives(
            queries, keywords, gold_ids=np.array([0, 1, 2]),
            cluster_count=1, negatives_per_positive=1, batch_size=3,
            positive_sets=[{0, 1}, {1}, {2}],
        )
        assert plan.negatives[0] == (2,)

    def test_single_negative_is_argmax(self):
        queries = np.array([[1.0, 0.0]])
        keywords = np.array([[1.0, 0.0], [0.9, 0.44], [0.1, 0.99]])
        keywords /= np.linalg.norm(keywords, axis=1, keepdims=True)
        # Only one pair: its batch pool is just its own gold, so mining
        # falls back to a global non-positive keyword.
        plan = mine_negatives(
            queries, keywords, gold_ids=np.array([0]),
            cluster_count=1, negatives_per_positive=1, batch_size=4,
        )
        assert plan.negatives[0] and plan.negatives[0][0] != 0

    def test_in_batch_argmax(self):
        queries = np.array([[1.0, 0.0], [0.0, 1.0]])
        keywords = np.array([[0.9, 0.44], [0.0, 1.0]])
        keywords /= np.linalg.norm(keywords, axis=1, keepdims=True)
        plan = mine_negatives(
            queries, keywords, gold_ids=np.array([1, 0]),
            cluster_count=1, negatives_per_positive=1, batch_size=2,
        )
        # Pair 0's gold is keyword 1; the only other batch keyword is 0.
        assert plan.negatives[0] == (0,)

    def test_cluster_count_bound(self):
        queries = np.eye(3)
        with pytest.raises(ValidationError, match="cluster_count"):
            mine_negatives(
                queries, queries, gold_ids=np.array([0, 1, 2]),
                cluster_count=4, negatives_per_positive=1, batch_size=2,
            )

    def test_batches_respect_well_separated_clusters(self, rng):
        # Two orthogonal query blobs; cluster-wise batching should almost
        # never mix them.
        n_per = 100
        a = np.column_stack([np.ones(n_per), rng.normal(0, 0.05, n_per)])
        b = np.column_stack([rng.normal(0, 0.05, n_per), np.ones(n_per)])
        queries = np.vstack([a, b])
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        keywords = queries[::10].copy()
        gold_ids = np.repeat(np.arange(len(keywords)), 10)[: len(queries)]
        plan = mine_negatives(
            queries, keywords, gold_ids,
            cluster_count=2, negatives_per_positive=1, batch_size=16, seed=3,
        )
        truth = np.array([0] * n_per + [1] * n_per)
        pure = sum(1 for batch in plan.batches if len(set(truth[list(batch)])) == 1)
        assert pure / len(plan.batches) >= 0.9


def tiny_corpus_pairs(vocab_size=24, n_keywords=8, n_queries=60, seed=0):
    rng = np.random.default_rng(seed)
    tokens = [f"t{i}" for i in range(vocab_size)]
    vocab = Vocab.from_tokens(tokens)
    keywords = [f"t{2 * i} t{2 * i + 1}" for i in range(n_keywords)]
    pairs = []
    for _ in range(n_queries):
        kid = int(rng.integers(0, n_keywords))
        query = keywords[kid]
        pairs.append(
            TrainingPair(
                query_text=query,
                query_ids=tuple(vocab.id_of(t) for t in query.split()),
                keyword_text=keywords[kid],
                keyword_ids=tuple(vocab.id_of(t) for t in keywords[kid].split()) + (EOW_ID,),
                keyword_id=kid,
            )
        )
    return vocab, pairs


class TestTrain:
    def test_loss_decreases(self):
        vocab, pairs = tiny_corpus_pairs()
        config = TrainConfig(
            epochs=6, batch_size=16, cluster_count=1, learning_rate=0.5,
            dim=16, dense_dim=8, hidden_dim=24, max_len=4, seed=1,
        )
        result = train(config, pairs, vocab)
        assert result.epoch_losses[-1] < 0.5 * result.epoch_losses[0]

    def test_seed_reproducibility(self):
        vocab, pairs = tiny_corpus_pairs()
        config = TrainConfig(
            epochs=2, batch_size=16, cluster_count=2, learning_rate=0.3,
            dim=8, dense_dim=4, hidden_dim=12, max_len=4, seed=5,
        )
        r1 = train(config, pairs, vocab)
        r2 = train(config, pairs, vocab)
        assert r1.epoch_losses == r2.epoch_losses
        for name, arr in r1.params.arrays().items():
            np.testing.assert_array_equal(arr, r2.params.arrays()[name])

    def test_zero_nlg_weight_leaves_output_head_untouched(self):
        vocab, pairs = tiny_corpus_pairs()
        config = TrainConfig(
            epochs=2, batch_size=16, cluster_count=1, learning_rate=0.3,
            nlg_weight=0.0, dim=8, dense_dim=4, hidden_dim=12, max_len=4, seed=5,
        )
        result = train(config, pairs, vocab)
        init = init_params(len(vocab), 8, 4, 12, 4, seed=5)
        np.testing.assert_array_equal(result.params.out_w, init.out_w)
        np.testing.assert_array_equal(result.params.out_b, init.out_b)

    def test_divergence_raises(self):
        vocab, pairs = tiny_corpus_pairs()
        config = TrainConfig(
            epochs=8, batch_size=16, cluster_count=1, learning_rate=1e12,
            dim=8, dense_dim=4, hidden_dim=12, max_len=4, seed=5,
        )
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
            train(config, pairs, vocab)

    def test_momentum_zero_is_plain_sgd_to_the_bit(self, monkeypatch):
        vocab, pairs = tiny_corpus_pairs()
        config = TrainConfig(
            epochs=3, batch_size=16, cluster_count=2, learning_rate=0.3, momentum=0.0,
            dim=8, dense_dim=4, hidden_dim=12, max_len=4, seed=5,
        )
        seen = []  # (params before the step, gradients of the step)
        real_joint_loss = encoder.joint_loss

        def recording_joint_loss(params, triples, config):
            loss, grads = real_joint_loss(params, triples, config)
            before = {name: arr.copy() for name, arr in params.arrays().items()}
            seen.append((before, {name: g.copy() for name, g in grads.items()}))
            return loss, grads

        monkeypatch.setattr(encoder, "joint_loss", recording_joint_loss)
        final = train(config, pairs, vocab).params.arrays()
        assert len(seen) > 10
        afters = [before for before, _ in seen[1:]] + [final]
        for (before, grads), after in zip(seen, afters):
            for name, arr in before.items():
                expected = arr - config.learning_rate * grads[name]
                assert after[name].tobytes() == expected.tobytes(), name

    def test_queries_that_tokenize_alike_share_positives(self, monkeypatch):
        # Grouped by raw text, "Red Shoes" and "red shoes" mined each
        # other's gold keyword as a negative.
        vocab = Vocab.from_tokens(["red", "shoes", "boots", "blue", "hat"])
        texts = [("Red Shoes", "red shoes"), ("red shoes", "red boots"), ("blue hat", "blue hat")]
        pairs = [
            TrainingPair(q, tokenize(q, vocab, "query", 4), k, tokenize(k, vocab, "keyword", 4), kid)
            for kid, (q, k) in enumerate(texts)
        ]
        plans = []
        real_mine_negatives = encoder.mine_negatives

        def recording_mine_negatives(*args, **kwargs):
            plans.append(real_mine_negatives(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(encoder, "mine_negatives", recording_mine_negatives)
        config = TrainConfig(
            epochs=1, batch_size=16, cluster_count=1, negatives_per_positive=2,
            dim=8, dense_dim=4, hidden_dim=12, max_len=4, seed=5,
        )
        train(config, pairs, vocab)
        assert len(plans) == 1 and plans[0].negatives[:2] == ((2,), (2,))

    def test_empty_pairs_rejected(self):
        vocab, _ = tiny_corpus_pairs()
        with pytest.raises(ValidationError, match="pairs"):
            train(TrainConfig(), [], vocab)


class TestParamShapes:
    """The seven tensors agree on (V, d, M, d_dr, h) whenever params are
    made or replaced, and no tensor can be swapped in place."""

    @pytest.mark.parametrize("field, value, message", [
        ("out_b", lambda a: a[:1], "out_b has shape (1,), not (16,)"),  # it would broadcast
        ("hidden_b", lambda a: a[:1], "hidden_b has shape (1,), not (6,)"),
        # token_emb sets V and d, hidden_w sets h: the others disagree.
        ("token_emb", lambda a: a[:, :3], "pos_emb has shape (4, 4), not (4, 3)"),
        ("token_emb", lambda a: a[:, :0], "pos_emb has shape (4, 4), not (4, 0)"),
        ("hidden_w", lambda a: a[:0], "hidden_b has shape (6,), not (0,)"),
        ("out_w", lambda a: a[None], "out_w has shape (1, 16, 6), not (16, 6)"),
        ("token_emb", lambda a: a[0], "token_emb has shape (4,), not (4, -1)"),
    ])
    def test_replace_with_a_disagreeing_tensor_rejected(self, field, value, message):
        params = small_params()
        with pytest.raises(ValidationError, match="^encoder " + re.escape(message)):
            replace(params, **{field: value(getattr(params, field))})

    def test_params_cannot_be_changed_in_place(self):
        params = small_params()
        with pytest.raises(FrozenInstanceError):
            params.pos_emb = params.pos_emb[:3]


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        params = small_params(seed=3)
        save_params(params, tmp_path / "p.kenc")
        back = load_params(tmp_path / "p.kenc")
        for name, arr in params.arrays().items():
            np.testing.assert_array_equal(arr, back.arrays()[name])

    @pytest.mark.parametrize("field, change, message", [
        ("pos_emb", lambda p: {"pos_emb": p.pos_emb[:0]}, "max_len 0 is below 2"),
        ("pos_emb", lambda p: {"pos_emb": p.pos_emb[:1]}, "max_len 1 is below 2"),
        ("token_emb", lambda p: {name: getattr(p, name)[:, :0]
                                 for name in ("token_emb", "pos_emb", "dense_proj", "hidden_w")},
         "dim 0 is below 1"),
        ("dense_proj", lambda p: {"dense_proj": p.dense_proj[:0]}, "dense_dim 0 is below 1"),
        ("hidden_w", lambda p: {"hidden_w": p.hidden_w[:0], "hidden_b": p.hidden_b[:0],
                                "out_w": p.out_w[:, :0]}, "hidden_dim 0 is below 1"),
        ("out_w", lambda p: {"out_w": np.where(p.out_w == p.out_w[1, 0], np.nan, p.out_w)},
         "out_w holds a non-finite weight"),
        ("pos_emb", lambda p: {"pos_emb": np.where(p.pos_emb == p.pos_emb[1, 0], -np.inf, p.pos_emb)},
         "pos_emb holds a non-finite weight"),
    ])
    def test_save_rejects_what_load_would_and_writes_nothing(self, tmp_path, field, change, message):
        """Widths below ``TrainConfig``'s minimums and non-finite weights
        raise before the file is opened.  ``change`` alters ``field`` and
        every tensor whose shape must agree with it."""
        params = small_params()
        changes = change(params)
        assert field in changes
        params = replace(params, **changes)
        with pytest.raises(ValidationError, match=f"checkpoint not written: {message}"):
            save_params(params, tmp_path / "p.kenc")
        assert list(tmp_path.iterdir()) == []

    def test_corruption_detected(self, tmp_path):
        params = small_params()
        path = tmp_path / "p.kenc"
        save_params(params, path)
        data = bytearray(path.read_bytes())
        data[100] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(ValidationError, match="checksum"):
            load_params(path)


class TestTrainConfigJson:
    def test_roundtrip(self):
        config = TrainConfig(margin=0.5, epochs=3, seed=9)
        assert TrainConfig.from_json(config.to_json()) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            TrainConfig.from_json('{"not_a_field": 1}')

    @pytest.mark.parametrize("text", ["3", "null", "[{}]", '"seed"'])
    def test_non_object_rejected(self, text):
        with pytest.raises(ValidationError, match="JSON object"):
            TrainConfig.from_json(text)

    def test_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(margin=-1.0)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("override", [
        {"cluster_count": 0},
        {"epochs": 0},
        {"epochs": 1.5},
        {"batch_size": 1.5},
        {"negatives_per_positive": 0},
        {"dim": 0},
        {"hidden_dim": 0},
        {"dense_dim": 0},
        {"max_len": 1},
        {"epochs": True},
        {"seed": -1},
        {"seed": "0"},
        {"margin": float("nan")},
        {"margin": float("inf")},
        {"nlg_weight": float("nan")},
        {"learning_rate": float("nan")},
        {"learning_rate": 0.0},
        {"learning_rate": -0.1},
        {"momentum": float("nan")},
        {"momentum": 1.0},
        {"momentum": -0.5},
        {"momentum": False},
        {"margin": "0.3"},
    ], ids=repr)
    def test_rejected(self, override):
        with pytest.raises(ValidationError, match=next(iter(override))):
            TrainConfig(**override)

    def test_edges_accepted(self):
        TrainConfig(max_len=2, seed=0, momentum=0.0, margin=0.0, nlg_weight=0.0,
                    learning_rate=1e-9, epochs=np.int64(1), dim=1, dense_dim=1, hidden_dim=1)
        TrainConfig(momentum=0.999, margin=1, learning_rate=2)


def ragged_batch(rng, params, n_pairs, tie_every=3):
    """Random triples with 1-3 negatives of ragged lengths; every
    ``tie_every``-th pair repeats its first negative, so its hardest
    negative is tied."""
    batch = random_batch(rng, params, n_pairs=n_pairs, n_negatives=3)
    out = []
    for i, (query, gold, negatives) in enumerate(batch):
        negatives = negatives[: int(rng.integers(1, 4))]
        if i % tie_every == 0:
            negatives = (negatives[0],) + negatives
        out.append((query, gold, negatives))
    return out


def assert_grads_close(grads, reference, rel=1e-12):
    assert grads.keys() == reference.keys()
    for name, ref in reference.items():
        scale = np.abs(ref).max()
        assert np.abs(grads[name] - ref).max() <= rel * scale, name


class TestJointLossMatchesOracle:
    @pytest.mark.parametrize("nlg_weight", [0.0, 2.0], ids=["0.0-cosine", "2.0-cosine"])
    def test_gradients_match_einsum_oracle(self, nlg_weight):
        rng = np.random.default_rng(31)
        for trial in range(12):
            params = small_params(seed=trial, vocab_size=int(rng.integers(5, 40)),
                                  max_len=int(rng.integers(2, 7)))
            batch = ragged_batch(rng, params, n_pairs=int(rng.integers(1, 20)))
            config = TrainConfig(nlg_weight=nlg_weight, margin=float(rng.uniform(0.0, 1.5)))
            loss, grads = joint_loss(params, batch, config)
            ref_loss, ref_grads = einsum_joint_loss(params, batch, config)
            assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-15)
            assert_grads_close(grads, ref_grads)

    def test_tied_hardest_negative_takes_the_first(self):
        # Pair 0's two negatives are the same sequence: both score the
        # maximum, and only the first may receive the hinge gradient.
        params = small_params(seed=4)
        batch = [((3, 4), (5, EOW_ID), ((6, 7, EOW_ID), (6, 7, EOW_ID), (8, EOW_ID)))]
        config = TrainConfig(margin=5.0, nlg_weight=0.0)
        loss, grads = joint_loss(params, batch, config)
        ref_loss, ref_grads = einsum_joint_loss(params, batch, config)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert_grads_close(grads, ref_grads)

    def test_wide_batch_matches_oracle(self):
        # The shape the training loop runs: 64 pairs, a 400-token vocabulary.
        rng = np.random.default_rng(5)
        params = init_params(403, dim=8, dense_dim=4, hidden_dim=16, max_len=8, seed=2)
        batch = ragged_batch(rng, params, n_pairs=64)
        loss, grads = joint_loss(params, batch, TrainConfig())
        ref_loss, ref_grads = einsum_joint_loss(params, batch, TrainConfig())
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert_grads_close(grads, ref_grads)


def unit_rows(rng, n, width):
    rows = rng.normal(size=(n, width))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestBalancedKmeansMatchesOracle:
    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_labels_identical(self, k):
        rng = np.random.default_rng(k)
        for trial in range(25):
            n = int(rng.integers(k, 150))
            points = unit_rows(rng, n, int(rng.integers(2, 5)))
            copies = rng.integers(0, n, n // 2)  # duplicate points tie exactly
            points[rng.integers(0, n, n // 2)] = points[copies]
            labels = _balanced_kmeans(points, k, np.random.default_rng(trial))
            expected = scalar_balanced_kmeans(points, k, np.random.default_rng(trial))
            np.testing.assert_array_equal(labels, expected)
            assert np.bincount(labels, minlength=k).max() <= -(-n // k)

    def test_all_points_identical(self):
        points = np.tile(unit_rows(np.random.default_rng(0), 1, 3), (10, 1))
        labels = _balanced_kmeans(points, 3, np.random.default_rng(1))
        np.testing.assert_array_equal(labels, scalar_balanced_kmeans(points, 3, np.random.default_rng(1)))


class TestMiningMatchesOracle:
    def test_plans_identical(self):
        fallbacks = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n_pairs, n_keywords = int(rng.integers(4, 120)), int(rng.integers(2, 30))
            queries = unit_rows(rng, n_pairs, 4)
            keywords = unit_rows(rng, n_keywords, 4)
            keywords[1] = keywords[0]  # tied similarities break by keyword id
            gold = rng.integers(0, n_keywords, n_pairs)
            positives = None
            if seed % 4 == 1:  # extra positives, some outside the catalog
                positives = [
                    {int(g)} | set(rng.integers(0, n_keywords + 2, int(rng.integers(0, 4))).tolist())
                    for g in gold
                ]
            elif seed % 4 == 3:  # some pairs block nothing, not even their gold
                positives = [set() if rng.random() < 0.3 else {int(g)} for g in gold]
            kwargs = dict(
                cluster_count=int(rng.integers(1, 5)),
                negatives_per_positive=int(rng.integers(1, 4)),
                batch_size=int(rng.integers(1, 24)),
                seed=seed,
                positive_sets=positives,
            )
            plan = mine_negatives(queries, keywords, gold, **kwargs)
            batches, negatives, labels = scalar_mine_negatives(queries, keywords, gold, **kwargs)
            assert plan.batches == batches
            assert plan.negatives == negatives
            np.testing.assert_array_equal(plan.cluster_labels, labels)
            pools = {i: set(gold[list(b)].tolist()) for b in batches for i in b}
            fallbacks += sum(1 for i, neg in enumerate(negatives)
                             if len(neg) == 1 and neg[0] not in pools[i])
        assert fallbacks > 0  # the seeded random draws were exercised

    def test_no_legal_keyword_leaves_pair_without_negatives(self):
        plan = mine_negatives(
            np.eye(2), np.eye(2), gold_ids=np.array([0, 1]),
            cluster_count=1, negatives_per_positive=1, batch_size=2,
            positive_sets=[{0, 1}, {1}],
        )
        assert plan.negatives == ((), (0,))


_TRAIN_AND_SAVE = textwrap.dedent("""
    import sys
    import numpy as np
    from unikw import EOW_ID, TrainConfig, Vocab, save_params, train
    from unikw.corpus import TrainingPair

    rng = np.random.default_rng(0)
    vocab = Vocab.from_tokens([f"w{i:03d}" for i in range(400)])
    pairs = []
    for kid in range(300):
        ids = tuple(int(t) for t in rng.choice(np.arange(3, len(vocab)), int(rng.integers(1, 5)), replace=False))
        for _ in range(2):
            query = tuple(t for t in ids if rng.random() < 0.7) or ids[:1]
            pairs.append(TrainingPair(query_text=str(query), query_ids=query, keyword_text=str(ids),
                                      keyword_ids=ids + (EOW_ID,), keyword_id=kid))
    config = TrainConfig(epochs=1, batch_size=64, cluster_count=2, max_len=8, momentum=0.5, seed=3)
    save_params(train(config, pairs, vocab).params, sys.argv[1])
""")


def test_checkpoint_independent_of_blas_threads(tmp_path):
    """Each BLAS call in training is small enough that OpenBLAS runs it on
    one thread, so the trained weights do not depend on the thread count.
    A 400-token vocabulary at batch 64 and max_len 8 would cross that size
    in a single (batch x positions) GEMM."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2", "1"):
        path = tmp_path / f"threads{threads}-{len(digests)}.kenc"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", _TRAIN_AND_SAVE, str(path)], env=env,
                       check=True, timeout=120)
        digests.append(path.read_bytes())
    assert digests[0] == digests[1] == digests[2]
