"""Tokenization, vocabulary construction, and training-pair ingestion.

Text handling is deliberately simple: lowercase + whitespace split.  Three
ids are reserved: PAD=0, UNK=1 and EOW=2, the end-of-keyword sentinel that
terminates every keyword token sequence.  Length selection during decoding
is therefore probabilistic (the model has to predict EOW) and keyword
terminals in the trie are ordinary edges.

``tokenize_batch`` is the one tokenizer: it maps many texts at once to one
flat int64 id array plus per-text lengths, which ``build-trie`` and
``index`` feed to the trie and the encoder without building a tuple per
keyword.  It has two front ends and one shared tail.  A ``Catalog`` whose
text is ASCII (what ``build-trie`` and ``index`` pass) is lowercased and
split as one text, and each line's word count is read from the bytes,
with no string or list per line.  Any other input (served queries,
``load_pairs``' columns, a non-ASCII catalog) is lowercased and split text
by text, by C-level ``map`` passes over ``str`` methods: a lone served
query costs less this way than as a one-line catalog.  Both look the
words up in one pass over the vocabulary dict; the tail (reserved forms,
cuts, a blank text's UNK, the keywords' EOW) is array operations.
``tokenize`` is the one-text case, as a tuple of ids; served queries go
through ``tokenize_batch``, a chunk at a time.

One reader, ``_pair_lines``, parses a pairs file: ``build_vocab`` counts
the tokens of the lines it keeps, with one ``Counter`` per file, and
``load_pairs`` tokenizes their two columns with one ``tokenize_batch``
call each.

``load_keywords``, the one catalog reader (``build_vocab``'s too), gives a
``Catalog``: the decoded text and one array of line offsets, with no
string per keyword until one is asked for.  A ``Vocab`` and a ``Catalog``
check themselves when they are made and cannot be changed after.

File formats:
  * keyword catalog — UTF-8, one keyword per line as ``str.splitlines``
    splits it, 0-based line number is the keyword id;
  * training pairs — UTF-8 TSV ``query<TAB>keyword``;
  * vocab file — UTF-8, one token per line in id order starting at id 3
    (reserved ids are implicit).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import KW_ONLY, InitVar, dataclass
from itertools import chain, compress, repeat
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, check_integer
from .fileio import checksum64, read_file, read_only

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
    """Immutable token<->id bijection.  Construction checks ``id_to_token`` (strings,
    the reserved forms at ids 0..2, no token twice) and derives a read-only ``token_to_id``."""

    id_to_token: tuple[str, ...]

    def __post_init__(self) -> None:
        tokens = tuple(self.id_to_token)
        if bad := [i for i, tok in enumerate(tokens) if not isinstance(tok, str)]:
            raise ValidationError(f"vocabulary token {bad[0]} is not a string: {tokens[bad[0]]!r}")
        ids = {tok: i for i, tok in enumerate(tokens)}
        if tokens[:3] != RESERVED_TOKENS or len(ids) != len(tokens):
            raise ValidationError(f"a vocabulary holds {RESERVED_TOKENS} first and no token twice")
        object.__setattr__(self, "id_to_token", tokens)
        object.__setattr__(self, "token_to_id", MappingProxyType(ids))
        object.__setattr__(self, "_ids", ids)  # its ``get`` is faster than the view's

    @classmethod
    def from_tokens(cls, tokens) -> "Vocab":
        """Build from non-reserved tokens already in id order (id 3 first)."""
        return cls(RESERVED_TOKENS + tuple(tokens))

    def __len__(self) -> int:
        return len(self.id_to_token)

    def id_of(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def token_of(self, token_id: int) -> str:
        return self.id_to_token[token_id]

    def checksum(self) -> int:
        """SHA-256/64 (``fileio.checksum64``) of the non-reserved token list;
        ties files to one vocab."""
        payload = "\n".join(self.id_to_token[3:]).encode("utf-8")
        return checksum64(payload)


class TrainingPair(NamedTuple):
    """One supervised (query, keyword) example."""

    query_text: str
    query_ids: TokenSeq
    keyword_text: str
    keyword_ids: TokenSeq
    keyword_id: int


def tokenize(text: str, vocab: Vocab, role: str, max_len: int = DEFAULT_MAX_LEN) -> TokenSeq:
    """``tokenize_batch`` of one text, as a tuple of ids."""
    return tuple(tokenize_batch((text,), vocab, role, max_len)[0].tolist())


def tokenize_batch(
    texts, vocab: Vocab, role: str, max_len: int = DEFAULT_MAX_LEN
) -> tuple[np.ndarray, np.ndarray]:
    """Map texts to token ids: ``(flat_ids, lengths)``, int64; total
    function (never raises on content).

    ``flat_ids`` holds every text's ids end to end; ``lengths[i]`` is the
    length of text i's sequence.  A text is lowercased and split at
    whitespace, and each token looked up; a reserved surface form maps to
    UNK, which keeps EOW and PAD out of query sequences.  Queries are cut
    to ``max_len`` tokens.  Keywords are cut to ``max_len - 1`` tokens and
    terminated with EOW, so their length with the sentinel never exceeds
    ``max_len``.  Text with no tokens (empty or whitespace-only) maps to a
    single UNK, so pooling always has a token.

    No Python code runs per token.  An ASCII ``Catalog`` is split as one
    text (``_catalog_words``); other texts are split one by one, by
    C-level ``map`` passes.  Either way the words are looked up in one
    pass, and the reserved forms, cuts, blank texts' UNK and keywords' EOW
    are array operations.
    """
    if role not in ("query", "keyword"):
        raise ValidationError(f"unknown tokenize role: {role!r}")
    check_integer("max_len", max_len, 1)
    if isinstance(texts, Catalog) and texts.text.isascii():
        words, counts = _catalog_words(texts)
    else:
        lists = list(map(str.split, map(str.lower, texts)))
        counts = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
        words = chain.from_iterable(lists)
    ids = np.fromiter(
        map(vocab._ids.get, words, repeat(UNK_ID)),
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


#: The ASCII characters ``str.split`` splits at.  Each ASCII line break is
#: one of them, so no word crosses a line.
_ASCII_SPACES = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "

#: A ``bytes.translate`` table: 1 for a byte inside a word, 0 for whitespace.
_IN_WORD = bytes(c not in _ASCII_SPACES for c in range(256))


def _catalog_words(catalog: "Catalog") -> tuple[list[str], np.ndarray]:
    """An ASCII catalog's words, from one ``split`` of its lowercased text,
    and each line's word count, from the bytes: a word starts at a byte
    inside a word that starts the text or follows whitespace, and one
    ``reduceat`` at the line starts counts them.  ``Catalog`` rejects
    blank lines, so the line starts strictly increase, as ``reduceat``
    needs; the last start (past a last line with no break) is not used."""
    text, starts = catalog.text, catalog._starts
    if not len(catalog):
        return [], np.zeros(0, dtype=np.int64)
    in_word = np.frombuffer(text.encode("ascii").translate(_IN_WORD), dtype=bool)
    first = np.empty_like(in_word)
    first[0] = in_word[0]
    np.greater(in_word[1:], in_word[:-1], out=first[1:])
    return text.lower().split(), np.add.reduceat(first, starts[:-1], dtype=np.int64)


def _flatten(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Token sequences as one flat id array plus per-sequence lengths: the
    ``tokenize_batch`` layout, for sequences already tokenized."""
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    flat_ids = np.fromiter(chain.from_iterable(seqs), dtype=np.int64, count=int(lengths.sum()))
    return flat_ids, lengths


def _unflatten(flat_ids: np.ndarray, lengths: np.ndarray) -> list[TokenSeq]:
    """The inverse of ``_flatten``: one tuple per sequence."""
    ids, ends = flat_ids.tolist(), np.cumsum(lengths).tolist()
    return list(map(tuple, map(ids.__getitem__, map(slice, [0] + ends[:-1], ends))))


def detokenize(ids: TokenSeq, vocab: Vocab) -> str:
    """Inverse of tokenize for in-vocabulary text; EOW/PAD are dropped."""
    return " ".join(vocab.token_of(i) for i in ids if i not in (PAD_ID, EOW_ID))


def _reject_reserved(counts: Counter) -> None:
    """Name the first reserved surface form counted, in file order."""
    found = [tok for tok in RESERVED_TOKENS if tok in counts]
    if found:
        order = list(counts)  # a Counter keeps first-seen order
        raise ValidationError(f"reserved token {min(found, key=order.index)!r} appears in corpus")


def _pair_lines(path) -> tuple[list[str], int]:
    """The lines of a pairs file that hold a pair, and the number of its
    non-empty lines.  A pair's line holds exactly one tab with a token on
    each side (``strip`` keeps the tab only then); both are picked by
    C-level passes.  Lines are those that iterating the file yields."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    two_fields = list(compress(lines, map((1).__eq__, map(str.count, lines, repeat("\t")))))
    kept = compress(two_fields, map(str.__contains__, map(str.strip, two_fields), repeat("\t")))
    return list(kept), len(lines) - lines.count("")


def build_vocab(keyword_path, pairs_path, min_count: int = 1) -> Vocab:
    """Count tokens over the catalog and both pair columns; threshold by count.

    Id assignment is deterministic: tokens sorted by descending count, ties
    broken lexicographically.  Shuffling the corpus lines does not change
    the result.  ``load_keywords`` reads the catalog, as for ``build-trie``
    (a blank keyword line fails); pair lines are counted only where
    ``load_pairs`` parses them, through ``_pair_lines``.
    """
    check_integer("min_count", min_count, 1)
    counts = Counter(load_keywords(keyword_path).text.lower().split())
    _reject_reserved(counts)
    counts.update("\n".join(_pair_lines(pairs_path)[0]).lower().split())
    _reject_reserved(counts)
    if not counts:
        raise ValidationError("empty corpus")
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    if not kept:
        raise ValidationError(f"empty vocabulary: no token occurs {min_count} or more times")
    return Vocab.from_tokens(kept)


#: Where ``str.splitlines`` splits, other than at ``\r\n``, which it takes as
#: one break.  The first seven are all the ASCII breaks, each below 0x1f.
_LINE_BREAKS = np.array([0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x85, 0x2028, 0x2029])


@dataclass(frozen=True, repr=False)
class Catalog(Sequence):
    """The keyword catalog as one string and one read-only offsets array,
    int32 (int64 for a text of 2**31 - 1 characters or more).  Frozen;
    construction finds the text's lines, as ``str.splitlines`` gives them,
    by array operations on the code points (the bytes of ASCII text, else
    its UTF-32) and rejects a blank line.  Each ``\\r\\n`` is held as
    ``\\n``, so keyword i is ``text[starts[i]:starts[i + 1] - 1]``; no string
    is made per keyword until ``texts`` fetches many at once."""

    text: str
    _: KW_ONLY
    #: The bytes an ASCII ``text`` was decoded from, which ``load_keywords``
    #: passes so that the line search views them instead of a new encoding.
    _ascii: InitVar[bytes | None] = None

    def __post_init__(self, _ascii: bytes | None) -> None:
        text = self.text
        if "\r" in text:
            text, _ascii = text.replace("\r\n", "\n"), None
            object.__setattr__(self, "text", text)  # so that every break is one character
        if text.isascii():
            if _ascii is None or len(_ascii) != len(text):
                _ascii = text.encode("ascii")
            codes = np.frombuffer(_ascii, dtype=np.uint8)
            near = np.flatnonzero(codes < 0x1F)
        else:
            codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
            near = np.flatnonzero((codes < 0x1F) | (codes == 0x85) | ((codes | 1) == 0x2029))
        breaks = near[np.isin(codes[near], _LINE_BREAKS)]
        # int32 unless the text is too long for it; the last: end of an unbroken last line.
        starts = np.empty(len(breaks) + 2, dtype=np.int32 if len(text) < 2**31 - 1 else np.int64)
        starts[0], starts[-1] = 0, len(text) + 1
        np.add(breaks, 1, out=starts[1:-1])
        starts = starts[:-1] if starts[-2] == len(text) else starts
        # A blank line starts with whitespace: an empty one with its break.
        # Only lines whose first character is whitespace need a closer look.
        first = codes[starts[:-1]]
        s = np.sort(first)  # distinct: s[0] and each s[i] != s[i - 1] (np.unique imports numpy.ma)
        spaces = [c for c in np.r_[s[:1], s[1:][s[1:] != s[:-1]]].tolist() if chr(c).isspace()]
        for i in np.flatnonzero(np.isin(first, spaces)).tolist():
            if not text[starts[i]:starts[i + 1] - 1].strip():
                raise ValidationError(f"blank keyword at line {i}")
        object.__setattr__(self, "_starts", read_only(starts))

    @classmethod
    def from_texts(cls, texts) -> "Catalog":
        """Keyword i is ``texts[i]``: an entry blank or holding a break is an error."""
        if broken := [i for i, text in enumerate(texts) if text and text.splitlines() != [text]]:
            raise ValidationError(f"keyword {broken[0]} holds a line break")
        return cls("\n".join([*texts, ""]))  # "" for no texts

    def __len__(self) -> int:
        return len(self._starts) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.texts(range(*index.indices(len(self))))
        return self.texts([range(len(self))[index]])[0]

    def __iter__(self):
        # One C call, where Sequence's own __iter__ makes a ``texts`` call per line.
        return iter(self.text.splitlines())

    def texts(self, ids) -> list[str]:
        """The texts of keyword ``ids``, a list of ints, in order, in one call.
        A memoryview reads the offsets as ints without numpy's per-call cost
        (a query fetches a few hundred)."""
        if len(ids) and (min(ids) < 0 or max(ids) >= len(self)):
            raise IndexError("keyword id outside the catalog")
        text, starts = self.text, memoryview(self._starts)
        return [text[starts[i]:starts[i + 1] - 1] for i in ids]


def load_keywords(path) -> Catalog:
    """Read the keyword catalog: UTF-8, keyword i on the i-th (0-based) line,
    lines as ``str.splitlines`` gives them.  A blank line is an error."""
    data = read_file(path)
    return Catalog(data.decode("utf-8"), _ascii=data)


#: A pairs file with more malformed lines than this share is rejected.
_MAX_MALFORMED_FRACTION = 0.10


def load_pairs(
    path, vocab: Vocab, max_len: int = DEFAULT_MAX_LEN
) -> tuple[list[TrainingPair], int]:
    """Parse a TSV pairs file into TrainingPair records.

    Malformed lines (wrong column count or a blank field) are counted and
    skipped; if they exceed ``_MAX_MALFORMED_FRACTION`` of the non-empty
    lines the file is rejected.  Returns ``(pairs, malformed_count)``.

    Keyword ids number the distinct keyword token sequences in order of
    first occurrence within the file: keywords that tokenize alike are one
    keyword to training, which uses the ids only to tell keywords apart.
    """
    lines, total = _pair_lines(path)
    malformed = total - len(lines)
    if total and malformed / total > _MAX_MALFORMED_FRACTION:
        raise ValidationError(
            f"{malformed}/{total} malformed lines exceeds "
            f"{_MAX_MALFORMED_FRACTION:.0%} threshold"
        )
    fields = "\t".join(lines).split("\t") if lines else []
    queries, keywords = fields[0::2], fields[1::2]
    query_ids = _unflatten(*tokenize_batch(queries, vocab, "query", max_len))
    keyword_ids = _unflatten(*tokenize_batch(keywords, vocab, "keyword", max_len))
    number = {seq: n for n, seq in enumerate(dict.fromkeys(keyword_ids))}
    pairs = list(map(TrainingPair, queries, query_ids, keywords, keyword_ids,
                     map(number.__getitem__, keyword_ids)))
    return pairs, malformed


def save_vocab(vocab: Vocab, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for token in vocab.id_to_token[3:]:
            f.write(token + "\n")


def load_vocab(path) -> Vocab:
    with open(path, encoding="utf-8") as f:
        tokens = f.read().splitlines()
    return Vocab.from_tokens(tokens)
