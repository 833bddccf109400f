import tempfile
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unikw import (
    EOW_ID,
    UNK_ID,
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

from oracles import scalar_vocab_tokens


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
                want = [tokenize(t, BATCH_VOCAB, role, max_len) for t in texts]
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
        assert set(vocab.id_to_token[3:]) == {"x", "one", "two", "seven"}

    def test_first_reserved_token_is_named(self, tmp_path):
        kw = _write(tmp_path / "kw.txt", "fine\n")
        pairs = _write(tmp_path / "p.tsv", "a </kw>\tb\nc\t<pad> <unk>\n")
        with pytest.raises(ValidationError, match="'</kw>'"):
            build_vocab(kw, pairs)
        kw = _write(tmp_path / "kw.txt", "fine <unk>\n<pad>\n")
        with pytest.raises(ValidationError, match="'<unk>'"):
            build_vocab(kw, pairs)


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

    def test_catalog_resolution(self, tmp_path, tiny_vocab):
        path = _write(tmp_path / "p.tsv", "a\tB C\n")
        pairs, _ = load_pairs(path, tiny_vocab, catalog=["d", "b c"])
        assert pairs[0].keyword_id == 1

    def test_catalog_miss_is_malformed(self, tmp_path, tiny_vocab):
        path = _write(tmp_path / "p.tsv", "\n".join(["a\tb"] * 20 + ["a\tmissing kw"]) + "\n")
        pairs, malformed = load_pairs(path, tiny_vocab, catalog=["b"])
        assert len(pairs) == 20 and malformed == 1


class TestVocabFile:
    def test_roundtrip(self, tmp_path, tiny_vocab):
        save_vocab(tiny_vocab, tmp_path / "v.txt")
        assert load_vocab(tmp_path / "v.txt") == tiny_vocab

    def test_checksum_changes_with_content(self, tiny_vocab):
        other = Vocab.from_tokens(["a", "b", "c", "d", "f"])
        assert tiny_vocab.checksum() != other.checksum()


class TestLoadKeywords:
    def test_line_number_is_id(self, tmp_path):
        path = _write(tmp_path / "kw.txt", "first kw\nsecond kw\n")
        assert load_keywords(path) == ["first kw", "second kw"]

    def test_blank_line_rejected(self, tmp_path):
        path = _write(tmp_path / "kw.txt", "one\n\ntwo\n")
        with pytest.raises(ValidationError, match="blank"):
            load_keywords(path)

    def test_first_blank_line_is_named(self, tmp_path):
        path = _write(tmp_path / "kw.txt", "one\ntwo\n \t\nthree\n\n")
        with pytest.raises(ValidationError, match="^blank keyword at line 2$"):
            load_keywords(path)
