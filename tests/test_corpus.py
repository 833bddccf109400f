import os
import subprocess
import sys
import tempfile
from dataclasses import FrozenInstanceError, fields
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unikw import (
    EOW_ID,
    UNK_ID,
    Catalog,
    ValidationError,
    Vocab,
    build_vocab,
    detokenize,
    load_keywords,
    load_pairs,
    load_vocab,
    save_vocab,
    tokenize,
    tokenize_batch,
)
from unikw import corpus
from unikw.corpus import RESERVED_TOKENS

from oracles import reference_load_keywords, scalar_load_pairs, scalar_tokenize, scalar_vocab_tokens


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestBuildVocab:
    def test_count_then_lex_ordering(self, tmp_path):
        kw = _write(tmp_path / "kw.txt", "a b\na c\n")
        pairs = _write(tmp_path / "p.tsv", "")
        vocab = build_vocab(kw, pairs, min_count=1)
        # a appears twice -> id 3; b and c tie on count, lexicographic order.
        assert len(vocab) == 6
        assert vocab.token_to_id == {
            "<pad>": 0, "<unk>": 1, "</kw>": 2, "a": 3, "b": 4, "c": 5,
        }

    def test_min_count_threshold(self, tmp_path):
        kw = _write(tmp_path / "kw.txt", "a a\nb\n")
        pairs = _write(tmp_path / "p.tsv", "")
        vocab = build_vocab(kw, pairs, min_count=2)
        assert set(vocab.id_to_token[3:]) == {"a"}
        assert vocab.id_of("b") == UNK_ID

    def test_empty_corpus_rejected(self, tmp_path):
        kw = _write(tmp_path / "kw.txt", "")
        pairs = _write(tmp_path / "p.tsv", "")
        with pytest.raises(ValidationError, match="empty corpus"):
            build_vocab(kw, pairs)

    def test_counts_both_pair_columns(self, tmp_path):
        kw = _write(tmp_path / "kw.txt", "x\n")
        pairs = _write(tmp_path / "p.tsv", "left\tright\n")
        vocab = build_vocab(kw, pairs)
        assert vocab.id_of("left") != UNK_ID
        assert vocab.id_of("right") != UNK_ID

    def test_shuffle_invariance(self, tmp_path):
        lines = [f"tok{i} shared" for i in range(20)]
        kw1 = _write(tmp_path / "kw1.txt", "\n".join(lines) + "\n")
        kw2 = _write(tmp_path / "kw2.txt", "\n".join(reversed(lines)) + "\n")
        pairs = _write(tmp_path / "p.tsv", "")
        assert build_vocab(kw1, pairs) == build_vocab(kw2, pairs)

    def test_reserved_surface_token_rejected(self, tmp_path):
        kw = _write(tmp_path / "kw.txt", "fine </kw>\n")
        pairs = _write(tmp_path / "p.tsv", "")
        with pytest.raises(ValidationError, match="reserved"):
            build_vocab(kw, pairs)


class TestTokenize:
    def test_query_role(self, tiny_vocab):
        ids = tokenize("A  b", tiny_vocab, "query")
        assert ids == (tiny_vocab.id_of("a"), tiny_vocab.id_of("b"))

    def test_keyword_role_appends_eow(self, tiny_vocab):
        ids = tokenize("a b", tiny_vocab, "keyword")
        assert ids[-1] == EOW_ID and ids.count(EOW_ID) == 1

    def test_oov_maps_to_unk(self, tiny_vocab):
        assert tokenize("zzz", tiny_vocab, "query") == (UNK_ID,)

    def test_truncation(self, tiny_vocab):
        long = " ".join(["a"] * 20)
        assert len(tokenize(long, tiny_vocab, "query", max_len=16)) == 16
        kw = tokenize(long, tiny_vocab, "keyword", max_len=16)
        assert len(kw) == 16 and kw[-1] == EOW_ID

    def test_empty_text_is_unk(self, tiny_vocab):
        assert tokenize("", tiny_vocab, "query") == (UNK_ID,)
        assert tokenize("   ", tiny_vocab, "keyword") == (UNK_ID, EOW_ID)

    def test_reserved_surface_forms_map_to_unk(self, tiny_vocab):
        # A hostile query must not smuggle EOW/PAD ids into the sequence.
        assert tokenize("</kw> a <pad>", tiny_vocab, "query") == (
            UNK_ID, tiny_vocab.id_of("a"), UNK_ID,
        )

    @given(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=10))
    def test_roundtrip_idempotence(self, words):
        vocab = Vocab.from_tokens(["a", "b", "c", "d", "e"])
        text = " ".join(words)
        ids = tokenize(text, vocab, "query")
        assert detokenize(ids, vocab) == text
        assert tokenize(detokenize(ids, vocab), vocab, "query") == ids


#: Pieces of text that stress splitting and casing: vocabulary words, case
#: variants (final sigma, dotted capital I), unknown words, reserved forms
#: in either case, and whitespace that ``str.split`` splits at (some of
#: it, like ``\x85``, also a line break to ``splitlines``).
PIECES = [
    "a", "B", "c", "σ", "Σ", "ΑΣ", "ας", "İ", "i̇", "zz", "Zz",
    "<pad>", "<unk>", "</kw>", "</KW>", "<PAD>",
    " ", "  ", "\t", "\n", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u3000", "",
]
texts_strategy = st.lists(
    st.one_of(st.lists(st.sampled_from(PIECES), max_size=40).map("".join), st.text(max_size=12)),
    max_size=12,
)
BATCH_VOCAB = Vocab.from_tokens(["a", "b", "c", "σ", "ασ", "ας", "i̇", "zz"])


class TestTokenizeBatch:
    @settings(max_examples=150, deadline=None)
    @given(texts_strategy)
    def test_equals_tokenize_concatenated(self, texts):
        for role in ("query", "keyword"):
            for max_len in (1, 2, 3, 16):
                flat_ids, lengths = tokenize_batch(texts, BATCH_VOCAB, role, max_len)
                want = [scalar_tokenize(t, BATCH_VOCAB, role, max_len) for t in texts]
                assert flat_ids.dtype == lengths.dtype == np.int64
                assert lengths.tolist() == list(map(len, want))
                assert flat_ids.tolist() == list(chain.from_iterable(want))

    def test_fixed_cases(self, tiny_vocab):
        texts = ["A b", "", "   ", "</kw> a <pad>", " ".join(["a"] * 20), "zzz"]
        flat_ids, lengths = tokenize_batch(texts, tiny_vocab, "keyword", 4)
        a, b = tiny_vocab.id_of("a"), tiny_vocab.id_of("b")
        assert lengths.tolist() == [3, 2, 2, 4, 4, 2]
        assert flat_ids.tolist() == [
            a, b, EOW_ID, UNK_ID, EOW_ID, UNK_ID, EOW_ID, UNK_ID, a, UNK_ID, EOW_ID,
            a, a, a, EOW_ID, UNK_ID, EOW_ID,
        ]

    def test_no_texts(self, tiny_vocab):
        flat_ids, lengths = tokenize_batch([], tiny_vocab, "keyword")
        assert flat_ids.shape == lengths.shape == (0,)

    def test_unknown_role_rejected(self, tiny_vocab):
        with pytest.raises(ValidationError, match="role"):
            tokenize_batch(["a"], tiny_vocab, "title")

    @pytest.mark.parametrize("role", ["query", "keyword"])
    @pytest.mark.parametrize("max_len", [0, -1])
    def test_max_len_below_one_rejected(self, tiny_vocab, role, max_len):
        with pytest.raises(ValidationError, match="max_len"):
            tokenize_batch(["a b"], tiny_vocab, role, max_len)
        with pytest.raises(ValidationError, match="max_len"):
            tokenize("a b", tiny_vocab, role, max_len)


#: Lines of a pairs file: two fields, or pieces holding any number of tabs
#: (blank lines included).
PAIR_LINES = st.lists(
    st.one_of(
        st.tuples(texts_strategy.map(" ".join), texts_strategy.map(" ".join)).map("\t".join),
        st.lists(st.sampled_from(PIECES + ["\t"]), max_size=12).map("".join),
    ),
    max_size=8,
)


class TestBuildVocabMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from(PIECES), max_size=10).map("".join), max_size=8),
        PAIR_LINES,
        st.sampled_from(["\n", "\r\n"]),
        st.integers(1, 3),
    )
    def test_equal_vocab_or_equal_error(self, keyword_lines, pair_lines, newline, min_count):
        with tempfile.TemporaryDirectory() as tmp:
            kw = Path(tmp) / "kw.txt"
            pairs = Path(tmp) / "p.tsv"
            kw.write_bytes(newline.join(keyword_lines).encode("utf-8"))
            pairs.write_bytes(newline.join(pair_lines).encode("utf-8"))
            try:
                want = scalar_vocab_tokens(kw, pairs, min_count)
            except ValueError as exc:
                with pytest.raises(ValidationError) as info:
                    build_vocab(kw, pairs, min_count)
                assert str(info.value) == str(exc)
            else:
                assert build_vocab(kw, pairs, min_count) == Vocab.from_tokens(want)

    def test_malformed_pair_lines_are_not_counted(self, tmp_path):
        kw = _write(tmp_path / "kw.txt", "x\n")
        pairs = _write(tmp_path / "p.tsv", "one\ttwo\nthree\nfour\tfive\tsix\n\tseven\n")
        vocab = build_vocab(kw, pairs)
        assert vocab.id_to_token[3:] == scalar_vocab_tokens(kw, pairs)
        assert set(vocab.id_to_token[3:]) == {"x", "one", "two"}

    @pytest.mark.parametrize("blank", [" \tzebra", "\tzebra", "zebra\t", "zebra\t\u3000", "\x1c\tzebra"])
    def test_pair_lines_load_pairs_rejects_are_not_counted(self, tmp_path, blank):
        # A line with a blank field used to be counted, though load_pairs
        # skips it as malformed.
        kw = _write(tmp_path / "kw.txt", "red shoes\n")
        good = ["red\tred shoes"] * 5 + ["blue\tblue kettle"] * 5
        pairs = _write(tmp_path / "p.tsv", "\n".join(good + [blank]) + "\n")
        vocab = build_vocab(kw, pairs)
        assert "zebra" not in vocab.token_to_id
        assert vocab.id_to_token[3:] == scalar_vocab_tokens(kw, pairs)
        assert load_pairs(pairs, vocab)[1] == 1

    def test_min_count_above_every_count_is_rejected(self, tmp_path):
        # It used to write an empty vocabulary that every later stage failed on.
        kw = _write(tmp_path / "kw.txt", "a b\na\n")
        pairs = _write(tmp_path / "p.tsv", "a\tb\n")
        with pytest.raises(ValidationError, match="^empty vocabulary: no token occurs 4 or more"):
            build_vocab(kw, pairs, min_count=4)

    def test_first_reserved_token_is_named(self, tmp_path):
        kw = _write(tmp_path / "kw.txt", "fine\n")
        pairs = _write(tmp_path / "p.tsv", "a </kw>\tb\nc\t<pad> <unk>\n")
        with pytest.raises(ValidationError, match="'</kw>'"):
            build_vocab(kw, pairs)
        kw = _write(tmp_path / "kw.txt", "fine <unk>\n<pad>\n")
        with pytest.raises(ValidationError, match="'<unk>'"):
            build_vocab(kw, pairs)


#: Well-formed pair lines whose sides tokenize alike in pairs, or do once cut.
ALIKE_PAIRS = ["a\ta b", "A\ta  b", " a \tA B", "a\ta b c", "zz\tzz", "Zz\tyy", "b\tσ", "B\tΣ"]


class TestLoadPairsMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                PAIR_LINES,
                st.lists(st.sampled_from(["", " ", "\t", " \u3000 "]), max_size=3),
                st.lists(st.sampled_from(ALIKE_PAIRS), max_size=6),
            ),
            max_size=4,
        ).map(lambda groups: list(chain.from_iterable(groups))),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
        st.sampled_from([1, 2, 16]),
    )
    def test_equal_pairs_or_equal_error(self, lines, newline, final_break, max_len):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.tsv"
            path.write_bytes((newline.join(lines) + newline * final_break).encode("utf-8"))
            try:
                want = scalar_load_pairs(path, BATCH_VOCAB, max_len)
            except ValidationError as exc:
                with pytest.raises(ValidationError) as info:
                    load_pairs(path, BATCH_VOCAB, max_len)
                assert str(info.value) == str(exc)
                return
            pairs, malformed = load_pairs(path, BATCH_VOCAB, max_len)
        assert malformed == want[1]
        assert [tuple(p) for p in pairs] == want[0]
        for p in pairs:
            assert type(p.query_ids) is type(p.keyword_ids) is tuple
            assert {type(i) for i in p.query_ids + p.keyword_ids} == {int}

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path / "p.tsv", "")
        assert load_pairs(path, BATCH_VOCAB) == scalar_load_pairs(path, BATCH_VOCAB, 16) == ([], 0)


class TestLoadPairs:
    def test_basic(self, tmp_path, tiny_vocab):
        path = _write(tmp_path / "p.tsv", "a\tb c\na b\tc\n")
        pairs, malformed = load_pairs(path, tiny_vocab)
        assert malformed == 0
        assert [p.query_text for p in pairs] == ["a", "a b"]
        assert pairs[0].keyword_ids[-1] == EOW_ID
        assert pairs[0].keyword_id == 0 and pairs[1].keyword_id == 1

    def test_malformed_counted_and_skipped(self, tmp_path, tiny_vocab):
        path = _write(tmp_path / "p.tsv", "\n".join(["a\tb"] * 9 + ["onlyonecolumn"]) + "\n")
        pairs, malformed = load_pairs(path, tiny_vocab)
        assert len(pairs) == 9 and malformed == 1

    def test_too_many_malformed_is_hard_error(self, tmp_path, tiny_vocab):
        path = _write(tmp_path / "p.tsv", "a\tb\nbad line without tab\n")
        with pytest.raises(ValidationError, match="malformed"):
            load_pairs(path, tiny_vocab)

    def test_keywords_that_tokenize_alike_share_an_id(self, tmp_path, tiny_vocab):
        # Numbered by lowercased text, "a  b" and "a b" were two keywords with
        # one token sequence, each the other's hardest negative.
        path = _write(tmp_path / "p.tsv", "a\ta b\nb\ta  b\nc\tA B\nc\tb a\n")
        pairs, _ = load_pairs(path, tiny_vocab)
        assert [p.keyword_id for p in pairs] == [0, 0, 0, 1]
        assert [p.keyword_text for p in pairs] == ["a b", "a  b", "A B", "b a"]


class TestVocabFile:
    def test_roundtrip(self, tmp_path, tiny_vocab):
        save_vocab(tiny_vocab, tmp_path / "v.txt")
        assert load_vocab(tmp_path / "v.txt") == tiny_vocab

    def test_checksum_changes_with_content(self, tiny_vocab):
        other = Vocab.from_tokens(["a", "b", "c", "d", "f"])
        assert tiny_vocab.checksum() != other.checksum()


class TestVocab:
    """``Vocab`` holds its tokens only, checks them and derives the id map."""

    TOKENS = RESERVED_TOKENS + ("red", "blue")

    def test_the_id_map_is_derived_and_read_only(self):
        vocab = Vocab(list(self.TOKENS))
        assert vocab.id_to_token == self.TOKENS and isinstance(vocab.id_to_token, tuple)
        assert vocab.token_to_id == {tok: i for i, tok in enumerate(self.TOKENS)}
        assert [f.name for f in fields(Vocab)] == ["id_to_token"]
        with pytest.raises(TypeError):
            vocab.token_to_id["red"] = 4  # re-ranked the hits; the checksum did not change
        assert vocab.id_of("red") == 3 and vocab == Vocab.from_tokens(["red", "blue"])

    def test_no_id_map_can_be_passed(self):
        with pytest.raises(TypeError):  # it built, and served, a map that disagreed
            Vocab(id_to_token=self.TOKENS, token_to_id={"red": 4, "blue": 3})

    @pytest.mark.parametrize("tokens", [
        ("red", "blue"), ("<unk>", "<pad>", "</kw>", "red"), (), RESERVED_TOKENS + ("red", "red"),
        RESERVED_TOKENS + ("red", "<unk>")],
        ids=["no-reserved", "misordered", "empty", "repeated-token", "repeated-reserved"])
    def test_reserved_forms_first_and_no_token_twice(self, tokens):
        with pytest.raises(ValidationError, match=(
                r"^a vocabulary holds \('<pad>', '<unk>', '</kw>'\) first and no token twice$")):
            Vocab(tokens)

    @pytest.mark.parametrize("token", [5, None, b"red"])
    def test_tokens_are_strings(self, token):
        # It built, and then failed in checksum() with a TypeError.
        with pytest.raises(ValidationError, match=f"^vocabulary token 3 is not a string: {token!r}$"):
            Vocab(RESERVED_TOKENS + (token, "red"))


class TestCatalogOfTexts:
    """``Catalog.from_texts``: the catalog parse, over texts already split."""

    def test_ids_are_positions(self):
        texts = ["red shoes", "blue  kettle ", "σ ink"]
        catalog = Catalog.from_texts(texts)
        assert list(catalog) == texts and catalog.texts([2, 0]) == ["σ ink", "red shoes"]
        texts[0] = "changed"  # the catalog holds its own text
        assert catalog[0] == "red shoes"

    @pytest.mark.parametrize("entry, message", [
        ("", "^blank keyword at line 1$"),
        (" \t", "^blank keyword at line 1$"),
        ("red\nshoes", "^keyword 1 holds a line break$"),
        ("red\r", "^keyword 1 holds a line break$"),
        ("\n", "^keyword 1 holds a line break$"),
        ("shoes\u2028", "^keyword 1 holds a line break$"),
    ], ids=["empty", "whitespace", "newline", "carriage-return", "only-a-break", "separator"])
    def test_blank_entry_or_line_break_rejected(self, entry, message):
        with pytest.raises(ValidationError, match=message):
            Catalog.from_texts(["red shoes", entry, "blue kettle"])

    @pytest.mark.parametrize("make", [lambda: Catalog.from_texts([]), lambda: Catalog("")],
                             ids=["no-texts", "no-text"])
    def test_empty_catalog(self, make):
        catalog = make()
        assert len(catalog) == 0 and list(catalog) == [] and catalog.texts([]) == []

    def test_cannot_be_changed(self):
        catalog = Catalog.from_texts(["red shoes", "blue kettle"])
        with pytest.raises(TypeError):
            catalog[0] = "blue shoes"
        with pytest.raises(FrozenInstanceError):
            catalog.text = "blue shoes\nred kettle\n"
        with pytest.raises(ValueError, match="read-only"):
            catalog._starts[1] = 0
        assert list(catalog) == ["red shoes", "blue kettle"]


class TestLoadKeywords:
    def test_line_number_is_id(self, tmp_path):
        path = _write(tmp_path / "kw.txt", "first kw\nsecond kw\n")
        assert list(load_keywords(path)) == ["first kw", "second kw"]

    def test_blank_line_rejected(self, tmp_path):
        path = _write(tmp_path / "kw.txt", "one\n\ntwo\n")
        with pytest.raises(ValidationError, match="blank"):
            load_keywords(path)

    def test_first_blank_line_is_named(self, tmp_path):
        path = _write(tmp_path / "kw.txt", "one\ntwo\n \t\nthree\n\n")
        with pytest.raises(ValidationError, match="^blank keyword at line 2$"):
            load_keywords(path)

    def test_indexing_and_texts(self, tmp_path):
        catalog = load_keywords(_write(tmp_path / "kw.txt", "a b\nc\nd e f"))
        assert len(catalog) == 3 and catalog[-1] == "d e f" and catalog[1:] == ["c", "d e f"]
        assert catalog.texts([2, 0, 2]) == ["d e f", "a b", "d e f"] and catalog.texts([]) == []
        with pytest.raises(IndexError):
            catalog[3]
        with pytest.raises(IndexError):
            catalog.texts([-1])

    def test_empty_file_is_an_empty_catalog(self, tmp_path):
        assert list(load_keywords(_write(tmp_path / "kw.txt", ""))) == []

    @pytest.mark.parametrize("text", [
        "red shoes\n\tblue kettle\nink\x0bpen\x1cx\n", "σ ink\nred shoes\n",
        "red shoes\r\nblue\rkettle\r\nink\r\n",
    ], ids=["ascii", "non-ascii", "crlf"])
    def test_the_file_route_finds_the_lines_of_the_text_route(self, tmp_path, text):
        # load_keywords hands Catalog the bytes an ASCII text was decoded from.
        path = tmp_path / "kw.txt"
        path.write_bytes(text.encode("utf-8"))
        by_text = Catalog(text)
        by_file = load_keywords(path)
        assert by_file.text == by_text.text
        assert by_file._starts.tolist() == by_text._starts.tolist()
        assert list(by_file) == list(by_text) == by_text.text.splitlines()

    def test_reading_a_catalog_does_not_import_numpy_ma(self, tmp_path):
        # numpy.ma takes 10-15 ms to import, and np.unique imports it.
        path = _write(tmp_path / "kw.txt", "red shoes\n\tblue kettle\nprinter ink\n")
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys; from unikw.corpus import load_keywords; "
                f"assert len(load_keywords({str(path)!r})) == 3; print('numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=60)
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


#: Catalog text pieces: letters, spaces, tabs, non-ASCII letters, Unicode
#: whitespace that does not break a line, and every break ``str.splitlines``
#: knows (``\r\n`` as one).
LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
CATALOG_PIECES = ["a", "Bc", "x y", "\xe9", "\u65e5\u672c", " ", "\t", "\x1f", "\xa0", "\u3000",
                  "\u2003"] + LINE_BREAKS


class TestCatalogMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(CATALOG_PIECES), max_size=24),
           st.sampled_from([""] + LINE_BREAKS))
    def test_same_texts_or_same_error(self, pieces, final_break):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "kw.txt"
            path.write_bytes(("".join(pieces) + final_break).encode("utf-8"))
            try:
                want = reference_load_keywords(path)
            except ValidationError as exc:
                with pytest.raises(ValidationError) as info:
                    load_keywords(path)
                assert str(info.value) == str(exc)
            else:
                catalog = load_keywords(path)
                assert len(catalog) == len(want)
                assert list(catalog) == want
                assert catalog.texts(range(len(want))[::-1]) == want[::-1]
                assert [catalog[i] for i in range(-len(want), 0)] == want

    @pytest.mark.parametrize("line_break", LINE_BREAKS)
    @pytest.mark.parametrize("other", ["b", "\xe9"], ids=["ascii", "non-ascii"])
    def test_each_break(self, tmp_path, line_break, other):
        path = tmp_path / "kw.txt"
        path.write_bytes(f"a{line_break}{other}{line_break}c".encode("utf-8"))
        assert list(load_keywords(path)) == reference_load_keywords(path) == ["a", other, "c"]


#: Catalog words: vocabulary words in either case, unknown words and
#: reserved forms in any case; ``OTHER_WORDS`` make a catalog non-ASCII.
ASCII_WORDS = ["a", "B", "c", "zz", "Zz", "q", "<pad>", "<UNK>", "</kw>", "</KW>"]
OTHER_WORDS = ["σ", "ΑΣ", "İ", "\xe9t\xe9"]
#: Every ASCII whitespace character: three inside a line, the rest (and
#: ``\r\n``) as line breaks.
INLINE_SPACES = [" ", "\t", "\x1f"]
ASCII_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e"]


def catalog_line(words):
    """A keyword line: leading whitespace, a word, then words and runs of
    whitespace in any order (trailing whitespace too), up to 25 words."""
    pieces = st.lists(st.sampled_from(words + INLINE_SPACES), max_size=24)
    return st.tuples(st.lists(st.sampled_from(INLINE_SPACES), max_size=2), st.sampled_from(words),
                     pieces).map(lambda t: "".join(t[0]) + t[1] + "".join(t[2]))


class TestCatalogTokenize:
    """``tokenize_batch`` of a ``Catalog``, split as one text when it is
    ASCII, against the scalar tokenizer line by line."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_each_line_as_the_scalar_tokenizer(self, data):
        words = data.draw(st.sampled_from([ASCII_WORDS, ASCII_WORDS + OTHER_WORDS]))
        lines = data.draw(st.lists(catalog_line(words), max_size=6))
        breaks = data.draw(st.lists(st.sampled_from(ASCII_BREAKS), min_size=len(lines),
                                    max_size=len(lines)))
        text = "".join(map(str.__add__, lines, breaks))
        if lines and data.draw(st.booleans()):
            text = text[:-len(breaks[-1])]  # no final break
        with tempfile.TemporaryDirectory() as tmp:
            path = _write(Path(tmp) / "kw.txt", text)
            catalog = load_keywords(path)
        assert list(catalog) == lines
        for role in ("query", "keyword"):
            for max_len in (1, 2, 3, 16):
                flat_ids, lengths = tokenize_batch(catalog, BATCH_VOCAB, role, max_len)
                want = [scalar_tokenize(line, BATCH_VOCAB, role, max_len) for line in lines]
                assert flat_ids.dtype == lengths.dtype == np.int64
                assert lengths.tolist() == list(map(len, want))
                assert flat_ids.tolist() == list(chain.from_iterable(want))

    def test_empty_catalog(self, tmp_path):
        for role in ("query", "keyword"):
            flat_ids, lengths = tokenize_batch(load_keywords(_write(tmp_path / "kw.txt", "")),
                                               BATCH_VOCAB, role)
            assert flat_ids.shape == lengths.shape == (0,)
            assert flat_ids.dtype == lengths.dtype == np.int64

    def test_split_bytes_are_the_ascii_whitespace(self):
        assert list(corpus._ASCII_SPACES) == [c for c in range(128) if chr(c).isspace()]
