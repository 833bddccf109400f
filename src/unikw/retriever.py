"""End-to-end unified retrieval: one encoder pass feeds both channels.

``retrieve_batch`` is the one serving path, and ``retrieve`` its one-query
case.  Each query is encoded exactly once.  The resulting
log-probability table drives permutation-decoded trie search (the
generative channel, "NLG") and the dense embedding drives
nearest-neighbor search (the dense channel, "DR").  Results merge by
keyword id; the merged set is exactly the union of the two channels, so
its recall can never fall below either channel's.

Queries are served a chunk at a time: one ``tokenize_batch``, one
``encode_batch`` and one ``search_batch`` per chunk, then the decode and
the merge per query.  A query's results do not depend on its chunk: the
encoder's rows and the dense hits are the same bits in any batch, so
``retrieve_batch(bundle, qs)[i] == retrieve(bundle, qs[i])``.  A chunk
holds as many queries as keep each of its arrays (the queries' M x V
tables, a graph search's unseen mask) within ``CHUNK_BYTES``.

Merged ordering is a convention, not a model output: keywords found by
both channels come first, then dense-only results, both by (-dense score,
id), then generative-only results by (-generative score, id).  Since
each channel arrives sorted by (-score, id) (``retrieve_channels``), the
merge sorts nothing: it is a stable partition of the dense list into
BOTH and DR-only by lookup in the generative scores, followed by the
generative hits the dense list lacks.  Callers that want channel-specific
quality thresholds apply their own floors to the raw lists
``retrieve_channels`` returns.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

# ``tokenize``, ``search`` and ``encode``, the one-item cases of what this
# module calls, are imported only so the benchmark's tracer finds them here.
from .corpus import Vocab, texts_of, tokenize, tokenize_batch  # noqa: F401
from .decoder import DecodeConfig, permutation_decode
from .dense_index import GRAPH, DenseIndex, search, search_batch  # noqa: F401
from .encoder import EncoderParams, encode, encode_batch  # noqa: F401
from .errors import ValidationError
from .trie import FORWARD, REVERSED, KeywordTrie

#: The most bytes any one array of a chunk may take.  256 KiB of tables is
#: ~10 graph5k and ~23 prefix100k queries per chunk.
CHUNK_BYTES = 256 * 1024

SOURCE_NLG = "NLG"
SOURCE_DR = "DR"
SOURCE_BOTH = "BOTH"


@dataclass(frozen=True)
class RetrievalResult:
    keyword_id: int
    text: str
    nlg_score: float | None
    dr_score: float | None
    source: str

    def to_json_obj(self) -> dict:
        obj = {"keyword": self.text, "id": self.keyword_id, "source": self.source}
        if self.nlg_score is not None:
            obj["nlg_score"] = self.nlg_score
        if self.dr_score is not None:
            obj["dr_score"] = self.dr_score
        return obj


@dataclass
class EngineBundle:
    """Every component of a servable engine, built over one catalog."""

    params: EncoderParams
    vocab: Vocab
    catalog: Sequence[str]  # keyword id -> text; ``load_bundle`` gives a ``corpus.Catalog``
    forward_trie: KeywordTrie
    reversed_trie: KeywordTrie
    index: DenseIndex
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    dense_k: int = 100
    # Representative id -> the ids of its group, ascending, when the index
    # holds representatives only (``index --cluster-threshold``).
    groups: dict[int, tuple[int, ...]] | None = None

    def validate(self) -> None:
        """Cross-check that all components describe the same catalog/vocab."""
        if self.dense_k < 0:  # 0 is legal: no dense channel
            raise ValidationError(f"dense_k must be >= 0, not {self.dense_k}")
        if self.params.vocab_size != len(self.vocab):
            raise ValidationError(
                f"encoder vocabulary {self.params.vocab_size} != vocab {len(self.vocab)}"
            )
        checksum = self.vocab.checksum()
        for trie, direction in ((self.forward_trie, FORWARD), (self.reversed_trie, REVERSED)):
            if trie.direction != direction:
                raise ValidationError(f"trie direction {trie.direction}, expected {direction}")
            if trie.vocab_checksum != checksum:
                raise ValidationError("trie vocab checksum does not match the vocab")
        n = len(self.catalog)
        fwd_ids, rev_ids = (t.node_keyword[t.node_keyword >= 0]
                            for t in (self.forward_trie, self.reversed_trie))
        top = max(fwd_ids.max(initial=-1), rev_ids.max(initial=-1))
        if len(fwd_ids) != len(rev_ids):
            same = False
        elif top < n:  # one count per catalog id and trie
            same = np.array_equal(np.bincount(fwd_ids, minlength=n), np.bincount(rev_ids, minlength=n))
        else:  # ids past the catalog: an error either way; the sort tells which
            same = np.array_equal(np.sort(fwd_ids), np.sort(rev_ids))
        if not same:
            raise ValidationError("forward and reversed tries cover different keywords")
        if top >= n:
            raise ValidationError("trie keyword id outside the catalog")
        ids = self.index.ids
        if len(ids) and (int(ids.min()) < 0 or int(ids.max()) >= len(self.catalog)):
            raise ValidationError("index keyword id outside the catalog")
        if self.index.vectors.shape[1] != self.params.dense_dim:
            raise ValidationError(
                f"index vector width {self.index.vectors.shape[1]} != encoder dense_dim "
                f"{self.params.dense_dim}"
            )
        if self.groups is not None:
            members = sorted(kid for group in self.groups.values() for kid in group)
            if members != list(range(len(self.catalog))):
                raise ValidationError("representative map must list every catalog id once")
            if any(rep not in group for rep, group in self.groups.items()):
                raise ValidationError("every representative must map to itself")
            if sorted(self.groups) != sorted(self.index.ids.tolist()):
                raise ValidationError("representatives must be exactly the index ids")


def chunk_size(bundle: EngineBundle) -> int:
    """Queries per chunk: the most whose (queries x M x V) float64 tables,
    and for a graph index the (queries x rows) unseen mask, each fit in
    ``CHUNK_BYTES``; at least one."""
    per_query = bundle.params.max_len * bundle.params.vocab_size * 8
    if bundle.index.kind == GRAPH:
        per_query = max(per_query, len(bundle.index))
    return max(1, CHUNK_BYTES // per_query)


def _channels(
    bundle: EngineBundle, queries: Sequence[str]
) -> list[tuple[list[tuple[int, float]], list[tuple[int, float]]]]:
    """``retrieve_channels`` of every query of one chunk: one tokenize, one
    encoder forward and one dense search for the chunk, then the decode
    and the group expansion per query."""
    flat_ids, lengths = tokenize_batch(queries, bundle.vocab, "query", bundle.params.max_len)
    output = encode_batch(bundle.params, flat_ids, lengths)
    k = min(bundle.dense_k, len(bundle.index))
    hits = search_batch(bundle.index, output.dr_embedding, k) if k else [[] for _ in queries]
    channels = []
    for table, dr in zip(output.nar_logprobs, hits):
        nlg = permutation_decode(table, bundle.forward_trie, bundle.reversed_trie, bundle.decode)
        if bundle.groups is not None:
            members = [(kid, score) for rep, score in dr for kid in bundle.groups[rep]]
            dr = sorted(members, key=lambda hit: (-hit[1], hit[0]))[: bundle.dense_k]
        channels.append((nlg, dr))
    return channels


def retrieve_channels(
    bundle: EngineBundle, query_text: str
) -> tuple[list[tuple[int, float]], list[tuple[int, float]]]:
    """Raw per-channel outputs from a single encoder pass.

    Returns ``(nlg, dr)`` lists of ``(keyword id, score)`` where the NLG
    score is a cumulative log-probability and the DR score an inner
    product.  With ``groups``, each representative the dense search finds
    stands for its whole group: every member takes the representative's
    score, and the expanded hits are ordered by (-score, id) and cut at
    ``dense_k``.

    Ordering contract, which the merge relies on: each list is sorted
    by (-score, id) and holds each keyword id at most once.
    ``permutation_decode`` and ``search_batch`` return their hits in that
    order, and the group expansion sorts into it.
    """
    return _channels(bundle, [query_text])[0]


def _merge(
    bundle: EngineBundle, nlg: list[tuple[int, float]], dr: list[tuple[int, float]]
) -> list[RetrievalResult]:
    """One query's channels as merged results (see the module docstring).

    Both channel lists arrive sorted by (-score, id), so the merged order
    is a stable partition of them: one pass over the dense hits splits
    BOTH from DR-only, then the generative hits the dense channel lacks.
    Their texts come from the catalog in one call.
    """
    nlg_scores, dr_scores = dict(nlg), dict(dr)
    nlg_only = [kid for kid, _ in nlg if kid not in dr_scores]
    texts = texts_of(bundle.catalog, [kid for kid, _ in dr] + nlg_only)
    merged, dr_only = [], []
    for (kid, score), text in zip(dr, texts):
        nlg_score = nlg_scores.get(kid)
        if nlg_score is None:
            dr_only.append(RetrievalResult(kid, text, None, score, SOURCE_DR))
        else:
            merged.append(RetrievalResult(kid, text, nlg_score, score, SOURCE_BOTH))
    merged += dr_only
    merged += (RetrievalResult(kid, text, nlg_scores[kid], None, SOURCE_NLG)
               for kid, text in zip(nlg_only, texts[len(dr):]))
    return merged


def retrieve_batch(bundle: EngineBundle, queries: Sequence[str]) -> list[list[RetrievalResult]]:
    """Merged results of both channels for each query, in order; exactly
    one encoder evaluation per query.

    The queries are served ``chunk_size(bundle)`` at a time, so every
    array a chunk needs stays within ``CHUNK_BYTES`` however many queries
    there are.  Each query's results equal what ``retrieve`` gives it alone.
    """
    size = chunk_size(bundle)
    return [_merge(bundle, nlg, dr)
            for lo in range(0, len(queries), size)
            for nlg, dr in _channels(bundle, queries[lo:lo + size])]


def retrieve(bundle: EngineBundle, query_text: str) -> list[RetrievalResult]:
    """``retrieve_batch`` of one query."""
    return retrieve_batch(bundle, [query_text])[0]


def overlap_stats(results_a, results_b) -> dict[str, float]:
    """Set overlap between two id collections.

    ``unique_to_a`` is |A\\B| / |A| (0 when A is empty), symmetrically for
    B; jaccard is |A∩B| / |A∪B| with the convention that two empty sets
    overlap perfectly (1.0).
    """
    a, b = set(results_a), set(results_b)
    union = a | b
    return {
        "unique_to_a_fraction": len(a - b) / len(a) if a else 0.0,
        "unique_to_b_fraction": len(b - a) / len(b) if b else 0.0,
        "jaccard": len(a & b) / len(union) if union else 1.0,
    }


def results_to_jsonl_line(query: str, results: list[RetrievalResult]) -> str:
    return json.dumps(
        {"query": query, "results": [r.to_json_obj() for r in results]},
        ensure_ascii=False,
    )
