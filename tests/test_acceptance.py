"""Acceptance suite: one test per shipping criterion.

Each test pins the criterion's stated tolerance and prints the measured
value; the terminal summary (see conftest) emits one pass/fail line per
criterion.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
measurements inline.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from unikw import (
    DecodeConfig,
    EngineBundle,
    FORWARD,
    REVERSED,
    TrainConfig,
    Vocab,
    beam_search,
    build_exact,
    build_graph,
    build_trie,
    cluster_keywords,
    constrained_logprob,
    embed_batch,
    encode,
    init_params,
    joint_loss,
    memory_stats,
    permutation_decode,
    retrieve,
    retrieve_channels,
    overlap_stats,
    save_embeddings,
    save_params,
    search,
    serialize,
    tokenize,
    train,
)
from unikw.cli import main
from unikw.corpus import TrainingPair
from unikw.decoder import NEG_INF
from unikw.evaluation import LabeledSet, Scorer, good_keyword_density, ndcg_at_k, precision_at_k, psp_at_k, recall_at_k
from unikw.trie import from_bytes, to_bytes, children, lookup

from oracles import (
    brute_force_ranking,
    finite_difference_grads,
    keyword_token_logprobs,
    max_relative_error,
    random_catalog,
    random_prob_table,
)
from synthdata import make_prefix_heavy_catalog, make_training_corpus

MAX_LEN = 4  # synthetic corpus: two content words + EOW fits in 4 rows


# ------------------------------------------------------------------ shared


@pytest.fixture(scope="module")
def trained():
    """Train the unified encoder once on the synthetic corpus (criteria 6-8)."""
    corpus = make_training_corpus(seed=0, n_keywords=200, n_train=1000, n_heldout=200)
    tokens = sorted(
        {t for text in corpus.keywords for t in text.split()}
        | {f"noise{j}" for j in range(8)}
    )
    vocab = Vocab.from_tokens(tokens)

    def make_pair(query, kid):
        return TrainingPair(
            query_text=query,
            query_ids=tokenize(query, vocab, "query", MAX_LEN),
            keyword_text=corpus.keywords[kid],
            keyword_ids=tokenize(corpus.keywords[kid], vocab, "keyword", MAX_LEN),
            keyword_id=kid,
        )

    pairs = [make_pair(q, k) for q, k in corpus.train_queries]
    config = TrainConfig(
        epochs=40, batch_size=64, cluster_count=4, negatives_per_positive=2,
        learning_rate=0.2, momentum=0.8, margin=0.3, nlg_weight=1.0,
        dim=32, dense_dim=16, hidden_dim=96, max_len=MAX_LEN, seed=0,
    )
    t0 = time.monotonic()
    result = train(config, pairs, vocab)
    train_seconds = time.monotonic() - t0

    entries = [
        (tokenize(text, vocab, "keyword", MAX_LEN), kid)
        for kid, text in enumerate(corpus.keywords)
    ]
    checksum = vocab.checksum()
    keyword_embs = embed_batch(result.params, [seq for seq, _ in entries])
    bundle = EngineBundle(
        params=result.params,
        vocab=vocab,
        catalog=tuple(corpus.keywords),
        forward_trie=build_trie(entries, FORWARD, checksum),
        reversed_trie=build_trie(entries, REVERSED, checksum),
        index=build_exact(keyword_embs, np.arange(len(corpus.keywords))),
        decode=DecodeConfig(beam_size=100),
        dense_k=100,
    )
    return {
        "corpus": corpus,
        "vocab": vocab,
        "pairs": pairs,
        "config": config,
        "entries": entries,
        "bundle": bundle,
        "train_seconds": train_seconds,
        "losses": result.epoch_losses,
    }


def channel_hits(bundle, queries, vocab, top_k):
    """(query idx, gold) pairs found by each channel within its top_k."""
    nlg_hits, dr_hits = set(), set()
    for qi, (query, gold) in enumerate(queries):
        nlg, dr = retrieve_channels(bundle, query)
        if any(kid == gold for kid, _ in nlg[:top_k]):
            nlg_hits.add((qi, gold))
        if any(kid == gold for kid, _ in dr[:top_k]):
            dr_hits.add((qi, gold))
    return nlg_hits, dr_hits


# ------------------------------------------------------------------ criteria


def test_01_decoding_oracle_equivalence():
    """Beam search at full width reproduces brute-force constrained
    ranking exactly (set, order, scores within 1e-9) on 500 instances."""
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    for _ in range(500):
        entries, vocab_size = random_catalog(rng, max_keywords=200, max_tokens=5)
        trie = build_trie(entries)
        table = random_prob_table(rng, 6, vocab_size)
        expected = brute_force_ranking(table, entries)
        got = beam_search(
            table, trie, DecodeConfig(beam_size=len(entries), orders=("l2r",))
        )
        assert [kid for kid, _ in got] == [kid for kid, _ in expected]
        for (_, score), (_, want) in zip(got, expected):
            assert abs(score - want) < 1e-9
    elapsed = time.monotonic() - t0
    print(f"\n[criterion 1] 500 instances, exact match, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_02_masking_law():
    """constrained_logprob: raw table value for trie children, -inf for
    everything else, over 10^4 random (prefix, token) probes."""
    rng = np.random.default_rng(202)
    probes = 0
    while probes < 10_000:
        entries, vocab_size = random_catalog(rng, max_keywords=50)
        trie = build_trie(entries)
        table = random_prob_table(rng, 6, vocab_size)
        for _ in range(400):
            tokens, _ = entries[rng.integers(len(entries))]
            prefix = tokens[: rng.integers(0, len(tokens))]
            token = int(rng.integers(0, vocab_size))
            got = constrained_logprob(table, trie, prefix, token)
            node = _walk(trie, prefix)
            legal = {label for label, _ in children(trie, node)}
            if token in legal:
                assert got == float(table[len(prefix), token])
            else:
                assert got == NEG_INF
            probes += 1
    print(f"\n[criterion 2] {probes} probes verified")


def _walk(trie, prefix):
    from unikw import walk

    return walk(trie, prefix)


def test_03_permutation_decoding_invariance():
    """Scores agree across decoding orders within 1e-9 on 500 instances;
    a constructed instance shows the union strictly beating one order."""
    rng = np.random.default_rng(303)
    agreements = 0
    for _ in range(500):
        entries, vocab_size = random_catalog(rng, max_keywords=80)
        fwd = build_trie(entries, FORWARD)
        rev = build_trie(entries, REVERSED)
        table = random_prob_table(rng, 6, vocab_size)
        l2r = dict(beam_search(table, fwd, DecodeConfig(beam_size=16, orders=("l2r",))))
        r2l = dict(beam_search(table, rev, DecodeConfig(beam_size=16, orders=("r2l",))))
        for kid in set(l2r) & set(r2l):
            assert abs(l2r[kid] - r2l[kid]) < 1e-9
            agreements += 1

    # Constructed instance: the best keyword hides behind a weak first
    # token, so a width-1 left-to-right beam commits to the wrong branch
    # while right-to-left decoding recovers it from its strong tail.
    EOW, A, B, C, D = 2, 3, 4, 5, 6
    entries = [((A, C, EOW), 0), ((B, D, EOW), 1)]
    fwd = build_trie(entries, FORWARD)
    rev = build_trie(entries, REVERSED)
    table = np.full((3, 7), -1e9)
    for t, row in enumerate(
        [{A: 0.6, B: 0.35, C: 0.025, D: 0.02, EOW: 0.005},
         {D: 0.85, C: 0.1, A: 0.02, B: 0.02, EOW: 0.01},
         {EOW: 0.95, A: 0.02, B: 0.01, C: 0.01, D: 0.01}]
    ):
        for token, p in row.items():
            table[t, token] = math.log(p)
    single = beam_search(table, fwd, DecodeConfig(beam_size=1, orders=("l2r",)))
    union = permutation_decode(table, fwd, rev, DecodeConfig(beam_size=1))
    assert union[0][1] > single[0][1]
    print(f"\n[criterion 3] {agreements} cross-order score agreements; "
          f"union top-1 {union[0][1]:.4f} > single-order top-1 {single[0][1]:.4f}")


def test_04_early_pruning():
    """Pruned output is a subset of the unpruned output and every
    survivor's per-token log-probabilities clear the threshold."""
    rng = np.random.default_rng(404)
    pruned_totals = kept_totals = 0
    for _ in range(200):
        entries, vocab_size = random_catalog(rng, max_keywords=80)
        by_id = {kid: tokens for tokens, kid in entries}
        trie = build_trie(entries)
        table = random_prob_table(rng, 6, vocab_size)
        threshold = float(np.log(rng.uniform(0.01, 0.3)))
        full = beam_search(
            table, trie, DecodeConfig(beam_size=len(entries), orders=("l2r",))
        )
        pruned = beam_search(
            table, trie,
            DecodeConfig(beam_size=len(entries), prune_threshold=threshold, orders=("l2r",)),
        )
        full_ids = {kid for kid, _ in full}
        for kid, _ in pruned:
            assert kid in full_ids
            assert min(keyword_token_logprobs(table, by_id[kid])) >= threshold
        pruned_totals += len(full) - len(pruned)
        kept_totals += len(pruned)
    print(f"\n[criterion 4] 200 instances; {kept_totals} survivors, "
          f"{pruned_totals} pruned, all bounds verified")


def test_05_gradient_check():
    """Analytic gradients of the joint loss match central finite
    differences within 1e-4 relative error on 50 random configurations."""
    rng = np.random.default_rng(505)
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(50):
        vocab_size = int(rng.integers(8, 17))
        dim = int(rng.integers(2, 9))
        dense_dim = int(rng.integers(2, 7))
        hidden_dim = int(rng.integers(2, 9))
        max_len = int(rng.integers(2, 5))
        params = init_params(vocab_size, dim, dense_dim, hidden_dim, max_len,
                             seed=int(rng.integers(0, 2**31)))

        def seq(keyword: bool):
            body_max = max_len - 1 if keyword else max_len
            length = int(rng.integers(1, body_max + 1))
            body = tuple(int(t) for t in rng.integers(3, vocab_size, length))
            return body + (2,) if keyword else body

        batch = [
            (seq(False), seq(True), tuple(seq(True) for _ in range(int(rng.integers(1, 3)))))
            for _ in range(2)
        ]
        config = TrainConfig(
            margin=float(rng.uniform(0.0, 0.6)),
            nlg_weight=float(rng.choice([0.0, 0.5, 1.5])),
        )
        _, analytic = joint_loss(params, batch, config)
        numeric = finite_difference_grads(
            lambda: joint_loss(params, batch, config)[0], params.arrays()
        )
        worst = max(worst, max_relative_error(analytic, numeric))
        assert worst < 1e-4, f"trial {trial}: relative error {worst:.2e}"
    elapsed = time.monotonic() - t0
    print(f"\n[criterion 5] 50 configs, worst relative error {worst:.2e}, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_06_training_sanity(trained):
    """After training on the synthetic corpus, both channels place the
    gold keyword in their top 10 for at least 90% of held-out queries."""
    assert trained["train_seconds"] < 300.0
    assert trained["losses"][-1] < 0.5 * trained["losses"][0]
    nlg_hits, dr_hits = channel_hits(
        trained["bundle"], trained["corpus"].heldout_queries, trained["vocab"], top_k=10
    )
    n = len(trained["corpus"].heldout_queries)
    dr_recall = len(dr_hits) / n
    nlg_recall = len(nlg_hits) / n
    print(f"\n[criterion 6] train {trained['train_seconds']:.1f}s, "
          f"loss {trained['losses'][0]:.3f}->{trained['losses'][-1]:.3f}, "
          f"DR recall@10 {dr_recall:.3f}, NLG top-10 {nlg_recall:.3f}")
    assert dr_recall >= 0.9
    assert nlg_recall >= 0.9


def test_07_union_dominance(trained):
    """The merged channel never loses to either single channel, and wins
    strictly when each channel finds gold keywords the other misses."""
    corpus, vocab = trained["corpus"], trained["vocab"]
    n = len(corpus.heldout_queries)

    # Fully trained model: dominance must hold (here both channels saturate).
    nlg_hits, dr_hits = channel_hits(trained["bundle"], corpus.heldout_queries, vocab, 10)
    merged = len(nlg_hits | dr_hits) / n
    assert merged >= max(len(nlg_hits), len(dr_hits)) / n

    # A dense-bottlenecked, under-trained model drives the channels apart:
    # each finds gold keywords the other misses, so the union must win
    # strictly over both.
    weak_config = replace(
        trained["config"], epochs=12, dense_dim=4, seed=0
    )
    weak = train(weak_config, trained["pairs"], vocab)
    checksum = vocab.checksum()
    weak_embs = embed_batch(weak.params, [seq for seq, _ in trained["entries"]])
    weak_bundle = EngineBundle(
        params=weak.params,
        vocab=vocab,
        catalog=tuple(corpus.keywords),
        forward_trie=trained["bundle"].forward_trie,
        reversed_trie=trained["bundle"].reversed_trie,
        index=build_exact(weak_embs, np.arange(len(corpus.keywords))),
        decode=DecodeConfig(beam_size=100),
        dense_k=100,
    )
    nlg_hits, dr_hits = channel_hits(weak_bundle, corpus.heldout_queries, vocab, 1)
    stats = overlap_stats(nlg_hits, dr_hits)
    merged_recall = len(nlg_hits | dr_hits) / n
    best_single = max(len(nlg_hits), len(dr_hits)) / n
    print(f"\n[criterion 7] weak model @1: NLG {len(nlg_hits)/n:.3f}, "
          f"DR {len(dr_hits)/n:.3f}, merged {merged_recall:.3f}; "
          f"unique-to-NLG {stats['unique_to_a_fraction']:.1%}, "
          f"unique-to-DR {stats['unique_to_b_fraction']:.1%} "
          f"(production-scale analyses report roughly 40% unique per channel)")
    assert merged_recall >= best_single
    assert stats["unique_to_a_fraction"] > 0 and stats["unique_to_b_fraction"] > 0
    assert merged_recall > best_single  # strict: both channels contribute


def test_08_one_pass_contract(trained, tmp_path):
    """Exactly one encoder forward pass per query at every beam size;
    decode wall-clock per beam is reported, not thresholded."""
    bundle = trained["bundle"]
    queries = [q for q, _ in trained["corpus"].heldout_queries[:50]]
    for beam in (10, 50, 100):
        sized = replace(bundle, decode=replace(bundle.decode, beam_size=beam))
        before = sized.params.forward_counter.count
        for query in queries:
            retrieve(sized, query)
        assert sized.params.forward_counter.count - before == len(queries)

    # cmd_bench on a serialized bundle reports decode latency growth.
    bundle_dir = tmp_path / "bundle"
    bundle_dir.mkdir()
    (bundle_dir / "vocab.txt").write_text(
        "\n".join(trained["vocab"].id_to_token[3:]) + "\n", encoding="utf-8"
    )
    (bundle_dir / "keywords.txt").write_text(
        "\n".join(trained["corpus"].keywords) + "\n", encoding="utf-8"
    )
    save_params(bundle.params, bundle_dir / "encoder.kenc")
    serialize(bundle.forward_trie, bundle_dir / "trie.fwd.ktri")
    serialize(bundle.reversed_trie, bundle_dir / "trie.rev.ktri")
    save_embeddings(bundle_dir / "embeddings.kemb", bundle.index.vectors, bundle.index.ids)
    queries_path = tmp_path / "queries.txt"
    queries_path.write_text("\n".join(queries[:20]) + "\n", encoding="utf-8")
    report_path = tmp_path / "bench.json"
    assert main([
        "bench", "--bundle-dir", str(bundle_dir), "--queries", str(queries_path),
        "--beams", "10,50,100", "--repeat", "1", "--out", str(report_path),
    ]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    decode_ms = {row["beam"]: row["decode"]["mean_ms"] for row in report["beams"]}
    for row in report["beams"]:
        assert row["forward_passes_per_query"] == 1.0
    print(f"\n[criterion 8] forward passes/query = 1 at B=10/50/100; "
          f"decode mean ms by beam: {decode_ms} (reported, hardware-dependent)")


def test_09_ann_recall():
    """Graph index at its fixed settings reaches recall@10 >= 0.95
    against the exact index on 10k random unit vectors."""
    rng = np.random.default_rng(909)
    t0 = time.monotonic()
    vectors = rng.normal(size=(10_000, 32))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    ids = np.arange(10_000)
    graph = build_graph(vectors, ids, seed=0)
    exact = build_exact(vectors, ids)
    hits = total = 0
    for _ in range(200):
        query = rng.normal(size=32)
        want = {kid for kid, _ in search(exact, query, 10)}
        got = {kid for kid, _ in search(graph, query, 10)}
        hits += len(want & got)
        total += 10
    recall = hits / total
    elapsed = time.monotonic() - t0
    print(f"\n[criterion 9] recall@10 = {recall:.4f} over 200 queries, {elapsed:.1f}s")
    assert recall >= 0.95
    assert elapsed < 120.0


def test_10_trie_memory():
    """Serialized trie stays within 60% of the raw catalog bytes on a
    100k prefix-heavy catalog; round-trips preserve behavior."""
    catalog = make_prefix_heavy_catalog()  # 50 x 100 x 20 = 100k keywords
    assert len(catalog) == 100_000
    raw_bytes = len(("\n".join(catalog) + "\n").encode("utf-8"))
    tokens = sorted({t for text in catalog for t in text.split()})
    vocab = Vocab.from_tokens(tokens)
    entries = [
        (tokenize(text, vocab, "keyword", max_len=8), kid)
        for kid, text in enumerate(catalog)
    ]
    trie = build_trie(entries, FORWARD, vocab.checksum())
    stats = memory_stats(trie)
    ratio = stats["serialized_bytes"] / raw_bytes
    total_tokens = sum(len(seq) for seq, _ in entries)
    print(f"\n[criterion 10] {stats['nodes']} nodes vs {total_tokens} tokens; "
          f"{stats['serialized_bytes']} bytes vs {raw_bytes} raw "
          f"(ratio {ratio:.3f}); {stats['bytes_per_keyword']:.1f} B/keyword")
    assert stats["nodes"] < total_tokens
    assert ratio <= 0.6

    rng = np.random.default_rng(1010)
    for _ in range(100):
        small_entries, _ = random_catalog(rng, max_keywords=40)
        direction = FORWARD if rng.random() < 0.5 else REVERSED
        original = build_trie(small_entries, direction, vocab_checksum=7)
        back = from_bytes(to_bytes(original))
        for seq, kid in small_entries:
            assert lookup(back, seq) == kid
        for node in range(original.node_count):
            assert children(back, node) == children(original, node)


def test_11_metric_fixtures():
    """Hand-computed two-query fixtures match exactly; Q@s is monotone."""
    ranked = [("q1", [0, 9, 1, 8, 7]), ("q2", [5, 3])]
    labels = LabeledSet(
        labels={"q1": {0, 1, 2}, "q2": {3}},
        propensities={0: 0.5, 1: 0.25, 2: 1.0, 3: 0.2},
    )
    assert precision_at_k(ranked, labels, 5) == pytest.approx(0.3)
    assert recall_at_k(ranked, labels, 5) == pytest.approx(0.8333333333333333)
    assert ndcg_at_k(ranked, labels, 5) == pytest.approx(0.6674239213027962)
    assert psp_at_k(ranked, labels, 5) == pytest.approx(0.9285714285714286)
    assert psp_at_k(ranked, labels, 1) == pytest.approx(0.25)

    scorer = Scorer(fn=lambda q, k: int(k.split()[1]) / 10)
    retrieved = [("q1", ["kw 8", "kw 6"]), ("q2", ["kw 4"])]
    assert good_keyword_density(retrieved, scorer, 0.5) == 1.0  # strict >
    assert good_keyword_density(retrieved, scorer, 0.6) == 0.5  # 0.6 excluded
    sweep = [good_keyword_density(retrieved, scorer, s / 20) for s in range(21)]
    assert all(a >= b for a, b in zip(sweep, sweep[1:]))
    print(f"\n[criterion 11] fixtures exact; Q@s sweep {sweep[0]:.2f} -> {sweep[-1]:.2f}")


def test_12_keyword_clustering():
    """With 10% planted duplicates the representative-only index shrinks
    by the duplicate fraction and every duplicate's query recovers its
    group through the representative map."""
    rng = np.random.default_rng(1212)
    base = rng.normal(size=(1000, 16))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    dupes = base[:100] + rng.normal(0, 1e-4, (100, 16))
    vectors = np.vstack([base, dupes])
    ids = np.arange(1100)
    mapping = cluster_keywords(vectors, ids, similarity_threshold=0.999)
    representatives = sorted({rep for rep in mapping.values()})
    assert abs(len(representatives) - 1000) <= 1
    rep_rows = np.array(representatives)
    index = build_exact(vectors[rep_rows], rep_rows)
    groups: dict[int, set[int]] = {}
    for kid, rep in mapping.items():
        groups.setdefault(rep, set()).add(kid)
    for dup_id in range(1000, 1100):
        top = search(index, vectors[dup_id], 1)[0][0]
        assert top == mapping[dup_id]
        assert dup_id in groups[top]
    shrink = 1 - len(representatives) / len(ids)
    print(f"\n[criterion 12] index shrank {shrink:.1%} "
          f"({len(ids)} -> {len(representatives)}); all 100 duplicate "
          f"queries recovered their group")
