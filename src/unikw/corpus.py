"""Tokenization, vocabulary construction, and training-pair ingestion.

Text handling is deliberately simple: lowercase + whitespace split.  Three
ids are reserved: PAD=0, UNK=1 and EOW=2, the end-of-keyword sentinel that
terminates every keyword token sequence.  Length selection during decoding
is therefore probabilistic (the model has to predict EOW) and keyword
terminals in the trie are ordinary edges.

``tokenize`` maps one text (a served query) to a tuple of ids.
``tokenize_batch`` maps a whole catalog at once to one flat int64 id array
plus per-text lengths, equal to ``tokenize`` text by text, concatenated;
``build-trie`` and ``index`` feed those arrays to the trie and the encoder
without building a tuple per keyword.  Splitting and id lookup run as
C-level passes (``map`` over ``str`` methods and the vocabulary dict), the
reserved forms, cuts and EOW as array operations.  ``build_vocab`` counts
each file with one ``Counter`` over its lowercased, split text.

File formats:
  * keyword catalog — UTF-8, one keyword per line, 0-based line number is
    the keyword id;
  * training pairs — UTF-8 TSV ``query<TAB>keyword``;
  * vocab file — UTF-8, one token per line in id order starting at id 3
    (reserved ids are implicit).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, repeat

import numpy as np

from .errors import ValidationError
from .fileio import checksum64

crc64 = checksum64  # kept only so the benchmark's tracer can find it by name

PAD_ID = 0
UNK_ID = 1
EOW_ID = 2

#: Surface forms for reserved ids; must never appear as corpus tokens.
RESERVED_TOKENS = ("<pad>", "<unk>", "</kw>")

#: Default maximum sequence length (keyword length includes the EOW token).
DEFAULT_MAX_LEN = 16

TokenSeq = tuple[int, ...]


@dataclass(frozen=True)
class Vocab:
    """Immutable token<->id bijection with reserved ids 0..2."""

    id_to_token: tuple[str, ...]
    token_to_id: dict[str, int]

    @classmethod
    def from_tokens(cls, tokens) -> "Vocab":
        """Build from non-reserved tokens already in id order (id 3 first)."""
        id_to_token = RESERVED_TOKENS + tuple(tokens)
        token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
        if len(token_to_id) != len(id_to_token):
            raise ValidationError("duplicate token in vocabulary")
        return cls(id_to_token=id_to_token, token_to_id=token_to_id)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def token_of(self, token_id: int) -> str:
        return self.id_to_token[token_id]

    def checksum(self) -> int:
        """BLAKE2b-64 of the non-reserved token list; ties files to one vocab."""
        payload = "\n".join(self.id_to_token[3:]).encode("utf-8")
        return checksum64(payload)


@dataclass(frozen=True)
class TrainingPair:
    """One supervised (query, keyword) example."""

    query_text: str
    query_ids: TokenSeq
    keyword_text: str
    keyword_ids: TokenSeq
    keyword_id: int


def _check_tokenize_args(role: str, max_len: int) -> None:
    if role not in ("query", "keyword"):
        raise ValidationError(f"unknown tokenize role: {role!r}")
    if max_len < 1:
        raise ValidationError(f"max_len must be >= 1, got {max_len}")


def tokenize(text: str, vocab: Vocab, role: str, max_len: int = DEFAULT_MAX_LEN) -> TokenSeq:
    """Map text to token ids; total function (never raises on content).

    Queries are truncated to ``max_len`` tokens.  Keywords are truncated to
    ``max_len - 1`` tokens and terminated with EOW, so their total length
    including the sentinel never exceeds ``max_len``.  Text with no tokens
    (empty or whitespace-only) maps to a single UNK so downstream pooling
    always has at least one token.
    """
    _check_tokenize_args(role, max_len)
    # Reserved surface forms are never legitimate corpus tokens; mapping
    # them to UNK keeps EOW/PAD out of query sequences.
    ids = [
        UNK_ID if tok in RESERVED_TOKENS else vocab.id_of(tok)
        for tok in text.lower().split()
    ]
    if not ids:
        ids = [UNK_ID]
    if role == "query":
        return tuple(ids[:max_len])
    return tuple(ids[: max_len - 1]) + (EOW_ID,)


def tokenize_batch(
    texts, vocab: Vocab, role: str, max_len: int = DEFAULT_MAX_LEN
) -> tuple[np.ndarray, np.ndarray]:
    """``tokenize`` over many texts: ``(flat_ids, lengths)``, int64.

    ``flat_ids`` holds every text's ids end to end, exactly what
    ``tokenize`` gives text by text, concatenated; ``lengths[i]`` is the
    length of text i's sequence.  No Python code runs per token: the texts
    are lowercased, split and looked up by C-level ``map`` passes, and
    the reserved forms, cuts, blank texts' UNK and keywords' EOW are
    array operations.
    """
    _check_tokenize_args(role, max_len)
    words = list(map(str.split, map(str.lower, texts)))
    counts = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    ids = np.fromiter(
        map(vocab.token_to_id.get, chain.from_iterable(words), repeat(UNK_ID)),
        dtype=np.int64,
        count=int(counts.sum()),
    )
    ids[ids <= EOW_ID] = UNK_ID  # every reserved surface form maps to UNK
    keyword = role == "keyword"
    keep = max_len - keyword  # content tokens a sequence holds at most
    if counts.max(initial=0) > keep:
        position = np.arange(len(ids)) - np.repeat(np.cumsum(counts) - counts, counts)
        ids = ids[position < keep]
        counts = np.minimum(counts, keep)
    # Two kinds of slot hold no looked-up id: the UNK that stands for a
    # blank text's tokens (absent when nothing fits) and a keyword's EOW.
    blank = (counts == 0) & (keep > 0)
    lengths = counts + blank + keyword
    ends = np.cumsum(lengths)
    flat_ids = np.full(int(lengths.sum()), UNK_ID, dtype=np.int64)
    looked_up = np.ones(len(flat_ids), dtype=bool)
    looked_up[(ends - lengths)[blank]] = False
    if keyword:
        looked_up[ends - 1] = False
        flat_ids[ends - 1] = EOW_ID
    flat_ids[looked_up] = ids
    return flat_ids, lengths


def detokenize(ids: TokenSeq, vocab: Vocab) -> str:
    """Inverse of tokenize for in-vocabulary text; EOW/PAD are dropped."""
    return " ".join(vocab.token_of(i) for i in ids if i not in (PAD_ID, EOW_ID))


def _reject_reserved(counts: Counter) -> None:
    """Name the first reserved surface form counted, in file order."""
    found = [tok for tok in RESERVED_TOKENS if tok in counts]
    if found:
        order = list(counts)  # a Counter keeps first-seen order
        raise ValidationError(f"reserved token {min(found, key=order.index)!r} appears in corpus")


def build_vocab(keyword_path, pairs_path, min_count: int = 1) -> Vocab:
    """Count tokens over the catalog and both pair columns; threshold by count.

    Id assignment is deterministic: tokens sorted by descending count, ties
    broken lexicographically.  Shuffling the corpus lines does not change
    the result.  Pair lines without exactly two tab-separated fields are
    skipped (``load_pairs`` accounts for them).
    """
    if min_count < 1:
        raise ValidationError("min_count must be >= 1")
    counts: Counter = Counter()
    with open(keyword_path, encoding="utf-8") as f:
        counts.update(f.read().lower().split())
    _reject_reserved(counts)
    with open(pairs_path, encoding="utf-8") as f:
        lines = f.read().split("\n")  # the lines iterating the file yields
    # Lines holding exactly one tab, picked in C; a tab is whitespace, so
    # they split into both columns' tokens.
    two_fields = compress(lines, map((1).__eq__, map(str.count, lines, repeat("\t"))))
    counts.update("\n".join(two_fields).lower().split())
    _reject_reserved(counts)
    if not counts:
        raise ValidationError("empty corpus")
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocab.from_tokens(kept)


def load_keywords(path) -> list[str]:
    """Read the keyword catalog; 0-based line number is the keyword id."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not all(map(str.strip, lines)):
        blank = next(i for i, line in enumerate(lines) if not line.strip())
        raise ValidationError(f"blank keyword at line {blank}")
    return lines


def load_pairs(
    path,
    vocab: Vocab,
    catalog: list[str] | None = None,
    max_len: int = DEFAULT_MAX_LEN,
    max_malformed_fraction: float = 0.10,
) -> tuple[list[TrainingPair], int]:
    """Parse a TSV pairs file into TrainingPair records.

    Malformed lines (wrong column count, empty fields, or — when a catalog
    is supplied — keywords missing from it) are counted and skipped; if
    they exceed ``max_malformed_fraction`` of all lines the file is
    rejected.  Returns ``(pairs, malformed_count)``.

    Keyword ids resolve against ``catalog`` (matched on lowercased text)
    when given; otherwise ids are assigned by first occurrence order of
    each distinct keyword within the file.
    """
    catalog_index: dict[str, int] | None = None
    if catalog is not None:
        catalog_index = {}
        for i, text in enumerate(catalog):
            catalog_index.setdefault(text.lower(), i)

    local_ids: dict[str, int] = {}
    pairs: list[TrainingPair] = []
    malformed = 0
    total = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            total += 1
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                malformed += 1
                continue
            query_text, keyword_text = parts
            key = keyword_text.lower()
            if catalog_index is not None:
                keyword_id = catalog_index.get(key, -1)
                if keyword_id < 0:
                    malformed += 1
                    continue
            else:
                keyword_id = local_ids.setdefault(key, len(local_ids))
            pairs.append(
                TrainingPair(
                    query_text=query_text,
                    query_ids=tokenize(query_text, vocab, "query", max_len),
                    keyword_text=keyword_text,
                    keyword_ids=tokenize(keyword_text, vocab, "keyword", max_len),
                    keyword_id=keyword_id,
                )
            )
    if total and malformed / total > max_malformed_fraction:
        raise ValidationError(
            f"{malformed}/{total} malformed lines exceeds "
            f"{max_malformed_fraction:.0%} threshold"
        )
    return pairs, malformed


def save_vocab(vocab: Vocab, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for token in vocab.id_to_token[3:]:
            f.write(token + "\n")


def load_vocab(path) -> Vocab:
    with open(path, encoding="utf-8") as f:
        tokens = f.read().splitlines()
    return Vocab.from_tokens(tokens)
