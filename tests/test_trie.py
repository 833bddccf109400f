import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unikw import (
    EOW_ID,
    FORWARD,
    REVERSED,
    ValidationError,
    build_trie,
    build_trie_arrays,
    children,
    length_partitions,
    lookup,
    memory_stats,
    serialize,
    deserialize,
    terminal_id,
    tokenize,
    Vocab,
    walk,
)
from unikw.fileio import append_checksum, checksum64, frame, split_checksummed, write_uvarint
from unikw.trie import from_bytes, to_bytes

from oracles import random_catalog, scalar_ktri_bytes, scalar_trie
from synthdata import make_prefix_heavy_catalog

A, B, C = 3, 4, 5


class TestBuildFromArrays:
    @pytest.mark.parametrize("direction", [FORWARD, REVERSED])
    def test_matches_scalar_trie(self, direction):
        rng = np.random.default_rng(5)
        for _ in range(20):
            entries, _ = random_catalog(rng, max_keywords=60)
            entries = [(seq, 3 * kid + 1) for seq, kid in reversed(entries)]
            lengths = np.array([len(seq) for seq, _ in entries], dtype=np.int64)
            tokens = np.array([t for seq, _ in entries for t in seq], dtype=np.int64)
            ids = np.array([kid for _, kid in entries], dtype=np.int64)
            got = build_trie_arrays(tokens, lengths, ids, direction, 77)
            assert to_bytes(got) == scalar_ktri_bytes(entries, direction == REVERSED, 77)

    @pytest.mark.parametrize(
        "tokens, lengths, ids",
        [
            ([A, EOW_ID], [2], [0, 1]),        # more ids than lengths
            ([A, EOW_ID], [3], [0]),           # lengths run past the tokens
            ([A, EOW_ID, B, EOW_ID], [2], [0]),  # tokens left over
            ([A, EOW_ID], [4, -2], [0, 1]),    # a negative length
        ],
    )
    def test_mismatched_arrays_rejected(self, tokens, lengths, ids):
        with pytest.raises(ValidationError, match="disagree"):
            build_trie_arrays(tokens, lengths, ids)


class TestBuild:
    def test_prefix_sharing(self):
        trie = build_trie([((A, EOW_ID), 0), ((A, B, EOW_ID), 1)])
        root_children = children(trie, 0)
        assert [label for label, _ in root_children] == [A]
        node_a = root_children[0][1]
        assert [label for label, _ in children(trie, node_a)] == [EOW_ID, B]

    def test_empty_catalog(self):
        trie = build_trie([])
        assert trie.node_count == 1
        assert trie.keyword_count == 0
        assert children(trie, 0) == []

    def test_missing_eow_rejected(self):
        with pytest.raises(ValidationError, match="EOW"):
            build_trie([((A, B), 0)])

    @pytest.mark.parametrize(
        "seq", [(A, B), (A, EOW_ID, B, EOW_ID), (EOW_ID, EOW_ID), (A, EOW_ID, B), ()],
        ids=["no-eow", "two-eows", "eow-twice-at-end", "eow-inside", "empty"],
    )
    def test_bad_eow_layout_names_the_keyword(self, seq):
        entries = [((A, EOW_ID), 5), ((B, EOW_ID), 6), (seq, 9), ((C, EOW_ID), 4)]
        with pytest.raises(ValidationError, match="^keyword 9: .*single EOW"):
            build_trie(entries)

    def test_empty_first_sequence_names_the_keyword(self):
        with pytest.raises(ValidationError, match="^keyword 8: "):
            build_trie([((), 8), ((A, EOW_ID), 1)])
        with pytest.raises(ValidationError, match="^keyword 8: "):
            build_trie([((), 8)])

    def test_duplicate_sequence_rejected(self):
        with pytest.raises(ValidationError, match="duplicate keyword token sequence"):
            build_trie([((A, EOW_ID), 0), ((A, EOW_ID), 1)])

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValidationError, match="duplicate keyword id"):
            build_trie([((A, EOW_ID), 7), ((B, EOW_ID), 7)])

    def test_smallest_duplicate_id_is_named(self):
        entries = [((A, EOW_ID), 7), ((B, EOW_ID), 3), ((C, EOW_ID), 7), ((A, B, EOW_ID), 3)]
        with pytest.raises(ValidationError, match="^duplicate keyword id 3$"):
            build_trie(entries)

    @pytest.mark.parametrize("token", [-1, 2**31], ids=["negative", "2^31"])
    def test_token_outside_int32_rejected(self, token):
        with pytest.raises(ValidationError, match="label range"):
            build_trie([((A, EOW_ID), 0), ((token, EOW_ID), 1)])

    def test_negative_id_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            build_trie([((A, EOW_ID), 0), ((B, EOW_ID), -3)])

    def test_insertion_order_invariance(self):
        entries = [((A, B, EOW_ID), 0), ((A, C, EOW_ID), 1), ((B, EOW_ID), 2)]
        t1 = build_trie(entries)
        t2 = build_trie(list(reversed(entries)))
        assert to_bytes(t1) == to_bytes(t2)

    def test_node_count_bounded_by_tokens(self, rng):
        entries, _ = random_catalog(rng)
        trie = build_trie(entries)
        total_tokens = sum(len(tokens) for tokens, _ in entries)
        assert trie.node_count <= 1 + total_tokens


class TestChildren:
    def test_root_sorted(self):
        trie = build_trie([((B, EOW_ID), 0), ((A, EOW_ID), 1)])
        labels = [label for label, _ in children(trie, 0)]
        assert labels == sorted(labels) == [A, B]

    def test_eow_node_is_leaf(self):
        trie = build_trie([((A, EOW_ID), 0), ((A, B, EOW_ID), 1)])
        node = walk(trie, (A, EOW_ID))
        assert children(trie, node) == []

    def test_invalid_node_rejected(self):
        trie = build_trie([((A, EOW_ID), 0)])
        with pytest.raises(ValidationError, match="invalid node"):
            children(trie, trie.node_count)

    def test_walk_matches_binary_search(self, rng):
        entries, _ = random_catalog(rng, max_keywords=50)
        trie = build_trie(entries)
        for node in range(trie.node_count):
            kids = children(trie, node)
            for label, child in kids:
                from unikw import step

                assert step(trie, node, label) == child
            assert walk(trie, (), node) == node


class TestLookup:
    def test_hit_and_miss(self):
        trie = build_trie([((A, EOW_ID), 42)])
        assert lookup(trie, (A, EOW_ID)) == 42
        assert lookup(trie, (B, EOW_ID)) is None
        assert lookup(trie, (A, B, EOW_ID)) is None

    def test_every_inserted_keyword_found(self, rng):
        entries, _ = random_catalog(rng)
        trie = build_trie(entries)
        for tokens, kid in entries:
            assert lookup(trie, tokens) == kid

    def test_random_noninserted_fails(self, rng):
        entries, vocab_size = random_catalog(rng, max_keywords=30)
        inserted = {tokens for tokens, _ in entries}
        trie = build_trie(entries)
        for _ in range(200):
            length = int(rng.integers(1, 6))
            probe = tuple(int(t) for t in rng.integers(3, vocab_size, length)) + (EOW_ID,)
            if probe in inserted:
                continue
            assert lookup(trie, probe) is None


class TestReversed:
    def test_partition_paths_map_to_same_ids(self, rng):
        entries, _ = random_catalog(rng, max_keywords=100)
        fwd = build_trie(entries, FORWARD)
        rev = build_trie(entries, REVERSED)
        partitions = dict(length_partitions(rev))
        for tokens, kid in entries:
            assert lookup(fwd, tokens) == kid
            assert lookup(rev, tokens) == kid
            # The reversed path lives under its length partition.
            node = walk(rev, tuple(reversed(tokens)), partitions[len(tokens)])
            assert node is not None and terminal_id(rev, node) == kid

    def test_partitions_only_on_reversed(self):
        fwd = build_trie([((A, EOW_ID), 0)])
        with pytest.raises(ValidationError):
            length_partitions(fwd)


class TestSerialization:
    def test_roundtrip_identity(self, rng):
        entries, _ = random_catalog(rng)
        trie = build_trie(entries, vocab_checksum=123456789)
        data = to_bytes(trie)
        back = from_bytes(data)
        assert np.array_equal(back.offsets, trie.offsets)
        assert np.array_equal(back.labels, trie.labels)
        assert np.array_equal(back.term_nodes, trie.term_nodes)
        assert np.array_equal(back.term_ids, trie.term_ids)
        assert back.direction == trie.direction
        assert back.vocab_checksum == 123456789
        assert to_bytes(back) == data  # determinism

    def test_file_roundtrip(self, tmp_path, rng):
        entries, _ = random_catalog(rng, max_keywords=20)
        trie = build_trie(entries, REVERSED)
        serialize(trie, tmp_path / "t.ktri")
        back = deserialize(tmp_path / "t.ktri")
        for tokens, kid in entries:
            assert lookup(back, tokens) == kid

    def test_bad_magic(self):
        with pytest.raises(ValidationError, match="bad magic"):
            from_bytes(b"NOPE" + b"\x00" * 64)

    def test_truncated(self, rng):
        entries, _ = random_catalog(rng, max_keywords=20)
        data = to_bytes(build_trie(entries))
        with pytest.raises(ValidationError, match="checksum|truncated"):
            from_bytes(data[: len(data) // 2])

    def test_corrupted_byte(self, rng):
        entries, _ = random_catalog(rng, max_keywords=20)
        data = bytearray(to_bytes(build_trie(entries)))
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(ValidationError, match="checksum mismatch"):
            from_bytes(bytes(data))

    @pytest.mark.parametrize(
        "nodes",
        [
            pytest.param(lambda ns, n: [ns[0], ns[0]] + ns[2:], id="repeated"),
            pytest.param(lambda ns, n: [0] + ns[1:], id="root"),
            pytest.param(lambda ns, n: ns[:-1] + [n], id="past-last-node"),
        ],
    )
    def test_corrupt_terminal_nodes(self, nodes):
        trie = build_trie([((A, EOW_ID), 0), ((A, B, EOW_ID), 1), ((C, EOW_ID), 2)])

        def terminal_section(node_list):
            buf, prev = bytearray(), 0
            for node, kid in zip(node_list, trie.term_ids.tolist()):
                write_uvarint(buf, node - prev)
                write_uvarint(buf, kid)
                prev = node
            return bytes(buf)

        payload = split_checksummed(to_bytes(trie))
        original = terminal_section(trie.term_nodes.tolist())
        assert payload.endswith(original)
        corrupt = terminal_section(nodes(trie.term_nodes.tolist(), trie.node_count))
        data = append_checksum(bytearray(payload[: -len(original)] + corrupt))
        with pytest.raises(ValidationError, match="terminal nodes"):
            from_bytes(data)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_roundtrip_behavior_preserving(self, data):
        seqs = data.draw(
            st.sets(
                st.tuples(*[st.integers(3, 8)] * 2).map(lambda t: t + (EOW_ID,)),
                min_size=0,
                max_size=12,
            )
        )
        entries = [(tokens, i) for i, tokens in enumerate(sorted(seqs))]
        trie = build_trie(entries)
        back = from_bytes(to_bytes(trie))
        for tokens, kid in entries:
            assert lookup(back, tokens) == kid
        for node in range(trie.node_count):
            assert children(back, node) == children(trie, node)


class TestMemoryStats:
    def test_single_keyword(self):
        stats = memory_stats(build_trie([((A, EOW_ID), 0)]))
        assert stats["nodes"] == 3 and stats["edges"] == 2
        assert stats["bytes_per_keyword"] == stats["serialized_bytes"]

    def test_empty(self):
        stats = memory_stats(build_trie([]))
        assert stats["nodes"] == 1 and stats["edges"] == 0
        assert stats["bytes_per_keyword"] is None


def crafted_ktri(node_count, flag, term_count, varints=(), tail=b"") -> bytes:
    """A KTRI file with a good checksum around any header and varint body."""
    body = bytearray(struct.pack("<QQBQ", 0, node_count, flag, term_count))
    for value in varints:
        write_uvarint(body, value)
    return frame(b"KTRI", 2, bytes(body + tail))


class TestCraftedFiles:
    def test_boundary_values_load(self):
        # root -> node 1 along label 2**31 - 1, keyword id 2**63 - 1 ends there
        trie = from_bytes(crafted_ktri(2, 0, 1, [1, 0, 2**31 - 1, 1, 2**63 - 1]))
        assert trie.labels.tolist() == [2**31 - 1]
        assert terminal_id(trie, 1) == 2**63 - 1

    @pytest.mark.parametrize(
        "data",
        [
            pytest.param(crafted_ktri(2, 7, 1, [1, 0, 5, 1, 0]), id="direction-flag-7"),
            pytest.param(crafted_ktri(0, 0, 0), id="no-nodes"),
            pytest.param(crafted_ktri(2**50, 0, 0, [0]), id="nodes-beyond-body"),
        ],
    )
    def test_bad_header_rejected_before_allocating(self, data):
        with pytest.raises(ValidationError, match="corrupt trie header"):
            from_bytes(data)

    @pytest.mark.parametrize(
        "varints, nodes, terms",
        [
            pytest.param([1, 0, 2**31, 1, 0], 2, 1, id="label-2^31"),
            pytest.param([1, 0, 5, 1, 2**63], 2, 1, id="keyword-id-2^63"),
            pytest.param([2, 0, 0, 5, 0, 1, 0, 1, 1], 3, 2, id="repeated-label"),
        ],
    )
    def test_out_of_range_values_rejected(self, varints, nodes, terms):
        with pytest.raises(ValidationError, match="label|varint too long"):
            from_bytes(crafted_ktri(nodes, 0, terms, varints))

    @pytest.mark.parametrize(
        "varints, nodes, terms, message",
        [
            # int64 sums that wrap back into range
            pytest.param([2**63 - 1, 2**63 - 1, 5, 0, 1, 2, 3], 4, 0, "edge count",
                         id="degrees-wrap"),
            pytest.param([4, 0, 0, 0, 0, 5, 2**63 - 1, 2**63 - 1, 4], 5, 0, "label",
                         id="labels-wrap"),
            pytest.param([3, 0, 0, 0, 3, 1, 1, 2**63 - 1, 0, 2**63 - 1, 1, 4, 2], 4, 3,
                         "terminal nodes", id="terminals-wrap"),
            pytest.param([2, 0, 0, 5, 6, 1, 0, 300], 3, 2, "truncated", id="missing-varint"),
            pytest.param([1, 0, 5, 1, 0, 9], 2, 1, "trailing", id="extra-varint"),
            pytest.param([1, 1, 5, 1, 0], 2, 1, "edge count", id="edge-count"),
        ],
    )
    def test_corrupt_varint_stream_rejected(self, varints, nodes, terms, message):
        with pytest.raises(ValidationError, match=message):
            from_bytes(crafted_ktri(nodes, 0, terms, varints))

    @pytest.mark.parametrize(
        "varints, message",
        [([1, 0, 5, 1], "truncated"), ([1, 0, 5, 1, 0], "trailing")],
        ids=["in-last-varint", "after-last-varint"],
    )
    def test_unterminated_varint_rejected(self, varints, message):
        with pytest.raises(ValidationError, match=message):
            from_bytes(crafted_ktri(2, 0, 1, varints, tail=b"\x80"))


# Keyword ids where varints grow a byte, up to the largest int64 (nine bytes).
BOUNDARY_IDS = [0, 127, 128, 16383, 16384, 2**21, 2**28, 2**35, 2**42, 2**49, 2**56, 2**63 - 1]


class TestScalarOracle:
    @pytest.mark.parametrize("direction", [FORWARD, REVERSED])
    def test_random_catalogs(self, rng, direction):
        for _ in range(30):
            entries, _ = random_catalog(rng, max_keywords=60)
            ids = rng.permutation(np.array(BOUNDARY_IDS + list(range(1000, 1000 + len(entries)))))
            entries = [(tokens, int(kid)) for (tokens, _), kid in zip(entries, ids)]
            self.check(entries, direction)

    @pytest.mark.parametrize("direction", [FORWARD, REVERSED])
    @pytest.mark.parametrize(
        "entries",
        [
            pytest.param([], id="empty"),
            pytest.param([((A, EOW_ID), 0)], id="single"),
            pytest.param([((A, B, EOW_ID), kid) for kid in BOUNDARY_IDS[:1]]
                         + [((C,) * (i + 1) + (EOW_ID,), kid)
                            for i, kid in enumerate(BOUNDARY_IDS[1:])], id="boundary-ids"),
        ],
    )
    def test_edge_catalogs(self, entries, direction):
        self.check(entries, direction)

    @staticmethod
    def check(entries, direction):
        reverse = direction == REVERSED
        trie = build_trie(entries, direction, vocab_checksum=99)
        offsets, labels, node_keyword = scalar_trie(entries, reverse)
        assert trie.offsets.tolist() == offsets
        assert trie.labels.tolist() == labels
        assert trie.node_keyword.tolist() == node_keyword
        data = to_bytes(trie)
        assert data == scalar_ktri_bytes(entries, reverse, vocab_checksum=99)
        back = from_bytes(data)
        assert back.offsets.tolist() == offsets
        assert back.labels.tolist() == labels
        assert back.node_keyword.tolist() == node_keyword


def test_ktri_format_pinned():
    """The KTRI bytes of test_10's 100k prefix catalog are fixed: a change
    to the format must show here, not pass through round trips."""
    catalog = make_prefix_heavy_catalog()
    vocab = Vocab.from_tokens(sorted({t for text in catalog for t in text.split()}))
    entries = [(tokenize(text, vocab, "keyword", max_len=8), kid) for kid, text in enumerate(catalog)]
    for direction, size, digest in (
        (FORWARD, 793_632, 0x7D582DEA269812F8),
        (REVERSED, 587_575, 0x0C4A5526B7D2BBF0),
    ):
        data = to_bytes(build_trie(entries, direction, vocab.checksum()))
        assert (len(data), checksum64(data)) == (size, digest), direction
