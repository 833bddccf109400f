"""End-to-end unified retrieval: one encoder pass feeds both channels.

``retrieve`` encodes the query exactly once.  The resulting
log-probability table drives permutation-decoded trie search (the
generative channel, "NLG") and the dense embedding drives
nearest-neighbor search (the dense channel, "DR").  Results merge by
keyword id; the merged set is exactly the union of the two channels, so
its recall can never fall below either channel's.

Merged ordering is a convention, not a model output: keywords found by
both channels come first (by dense score), then dense-only results, then
generative-only results.  Callers that want channel-specific quality
thresholds should use ``retrieve_channels`` and apply their own floors,
or set ``nlg_floor`` / ``dr_floor`` on the bundle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import Vocab, tokenize
from .decoder import DecodeConfig, permutation_decode
from .dense_index import DenseIndex, search
from .encoder import EncoderParams, encode
from .errors import ValidationError
from .trie import FORWARD, REVERSED, KeywordTrie

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
    catalog: tuple[str, ...]
    forward_trie: KeywordTrie
    reversed_trie: KeywordTrie
    index: DenseIndex
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    dense_k: int = 100
    search_width: int = 100
    nlg_floor: float | None = None
    dr_floor: float | None = None

    def validate(self) -> None:
        """Cross-check that all components describe the same catalog/vocab."""
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
        fwd_ids = np.sort(self.forward_trie.term_ids)
        rev_ids = np.sort(self.reversed_trie.term_ids)
        if not np.array_equal(fwd_ids, rev_ids):
            raise ValidationError("forward and reversed tries cover different keywords")
        if len(fwd_ids) and int(fwd_ids[-1]) >= len(self.catalog):
            raise ValidationError("trie keyword id outside the catalog")
        if len(self.index.ids) and int(self.index.ids.max()) >= len(self.catalog):
            raise ValidationError("index keyword id outside the catalog")
        if self.index.vectors.shape[1] != self.params.dense_dim:
            raise ValidationError(
                f"index vector width {self.index.vectors.shape[1]} != encoder dense_dim "
                f"{self.params.dense_dim}"
            )


def retrieve_channels(
    bundle: EngineBundle, query_text: str
) -> tuple[list[tuple[int, float]], list[tuple[int, float]]]:
    """Raw per-channel outputs from a single encoder pass.

    Returns ``(nlg, dr)`` lists of ``(keyword id, score)`` where the NLG
    score is a cumulative log-probability and the DR score an inner
    product.  Channel floors from the bundle are applied here.
    """
    tokens = tokenize(query_text, bundle.vocab, "query", bundle.params.max_len)
    output = encode(bundle.params, tokens)
    nlg = permutation_decode(
        output.nar_logprobs, bundle.forward_trie, bundle.reversed_trie, bundle.decode
    )
    k = min(bundle.dense_k, len(bundle.index))
    dr = search(bundle.index, output.dr_embedding, k, bundle.search_width) if k else []
    if bundle.nlg_floor is not None:
        nlg = [(kid, s) for kid, s in nlg if s >= bundle.nlg_floor]
    if bundle.dr_floor is not None:
        dr = [(kid, s) for kid, s in dr if s >= bundle.dr_floor]
    return nlg, dr


def retrieve(bundle: EngineBundle, query_text: str) -> list[RetrievalResult]:
    """Merged results of both channels; exactly one encoder evaluation."""
    nlg, dr = retrieve_channels(bundle, query_text)
    nlg_scores = dict(nlg)
    dr_scores = dict(dr)
    results = []
    for kid in set(nlg_scores) | set(dr_scores):
        in_nlg, in_dr = kid in nlg_scores, kid in dr_scores
        source = SOURCE_BOTH if (in_nlg and in_dr) else (SOURCE_NLG if in_nlg else SOURCE_DR)
        results.append(
            RetrievalResult(
                keyword_id=kid,
                text=bundle.catalog[kid],
                nlg_score=nlg_scores.get(kid),
                dr_score=dr_scores.get(kid),
                source=source,
            )
        )

    rank = {SOURCE_BOTH: 0, SOURCE_DR: 1, SOURCE_NLG: 2}

    def sort_key(r: RetrievalResult):
        primary = r.dr_score if r.dr_score is not None else r.nlg_score
        return (rank[r.source], -primary, r.keyword_id)

    results.sort(key=sort_key)
    return results


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
