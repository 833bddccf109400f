"""Train the two-headed encoder and retrieve through both channels.

A synthetic corpus gives every keyword two private words and queries are
noisy copies, so both retrieval channels can learn the mapping in a few
seconds.  One encode() call per query then feeds:

  * the generative channel: trie-constrained permutation decoding over
    the predicted position distributions, and
  * the dense channel: nearest-neighbor search over keyword embeddings,

whose union is the merged result set.
"""

import numpy as np

from unikw import (
    DecodeConfig,
    EngineBundle,
    FORWARD,
    REVERSED,
    TrainConfig,
    Vocab,
    build_exact,
    build_trie,
    embed_batch,
    overlap_stats,
    retrieve,
    retrieve_channels,
    tokenize,
    train,
)
from unikw.corpus import TrainingPair

rng = np.random.default_rng(0)
MAX_LEN = 4

keywords = [f"kw{2 * i:03d} kw{2 * i + 1:03d}" for i in range(60)]
noise = [f"noise{j}" for j in range(6)]
vocab = Vocab.from_tokens(sorted({t for k in keywords for t in k.split()} | set(noise)))


def noisy_query(kid):
    words = keywords[kid].split()
    if rng.random() < 0.5:
        words.insert(int(rng.integers(0, 3)), str(rng.choice(noise)))
    return " ".join(words)


def make_pair(query, kid):
    return TrainingPair(
        query_text=query,
        query_ids=tokenize(query, vocab, "query", MAX_LEN),
        keyword_text=keywords[kid],
        keyword_ids=tokenize(keywords[kid], vocab, "keyword", MAX_LEN),
        keyword_id=kid,
    )


gold = [int(rng.integers(0, len(keywords))) for _ in range(400)]
pairs = [make_pair(noisy_query(kid), kid) for kid in gold]

config = TrainConfig(
    epochs=25, batch_size=32, cluster_count=2, negatives_per_positive=2,
    learning_rate=0.2, momentum=0.8, margin=0.3, nlg_weight=1.0,
    dim=24, dense_dim=12, hidden_dim=48, max_len=MAX_LEN, seed=0,
)
result = train(config, pairs, vocab)
print("epoch losses:", " ".join(f"{x:.2f}" for x in result.epoch_losses[::5]))

entries = [(tokenize(k, vocab, "keyword", MAX_LEN), i) for i, k in enumerate(keywords)]
checksum = vocab.checksum()
# Building the bundle runs its consistency checks: a bundle that exists can serve.
bundle = EngineBundle(
    params=result.params,
    vocab=vocab,
    catalog=tuple(keywords),
    forward_trie=build_trie(entries, FORWARD, checksum),
    reversed_trie=build_trie(entries, REVERSED, checksum),
    index=build_exact(embed_batch(result.params, [s for s, _ in entries]),
                      np.arange(len(keywords))),
    decode=DecodeConfig(beam_size=50),
    dense_k=10,
)

query = noisy_query(7)
print(f"\nquery: {query!r} (gold keyword: {keywords[7]!r})")
before = bundle.params.forward_counter.count
for r in retrieve(bundle, query)[:5]:
    print(f"  [{r.source:4s}] {r.text!r:22s} nlg={r.nlg_score} dr={r.dr_score}")
print("encoder forward passes for this retrieval:",
      bundle.params.forward_counter.count - before)

# Channel complementarity over a batch of held-out queries.
nlg_sets, dr_sets = set(), set()
for _ in range(50):
    kid = int(rng.integers(0, len(keywords)))
    nlg, dr = retrieve_channels(bundle, noisy_query(kid))
    nlg_sets.update((kid, k) for k, _ in nlg[:3])
    dr_sets.update((kid, k) for k, _ in dr[:3])
print("\ntop-3 overlap between channels:", overlap_stats(nlg_sets, dr_sets))
