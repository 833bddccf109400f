import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unikw import (
    EOW_ID,
    FORWARD,
    REVERSED,
    KeywordTrie,
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
    tokenize_batch,
    Vocab,
    walk,
)
from unikw.fileio import checksum64, frame
from unikw.trie import _VERSION, from_bytes, to_bytes

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


class TestMaxPositions:
    """Table rows the longest keyword takes: its tokens and EOW, in either
    direction (a reversed trie's length edge takes none)."""

    @pytest.mark.parametrize("direction", [FORWARD, REVERSED])
    def test_matches_the_longest_sequence(self, direction):
        rng = np.random.default_rng(6)
        for _ in range(20):
            entries, _ = random_catalog(rng, max_keywords=60)
            want = max((len(seq) for seq, _ in entries), default=0)
            assert build_trie(entries, direction).max_positions == want

    @pytest.mark.parametrize("direction", [FORWARD, REVERSED])
    def test_empty_and_single(self, direction):
        assert build_trie([], direction).max_positions == 0
        assert build_trie([((A, B, C, EOW_ID), 0)], direction).max_positions == 4


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

    def test_arrays_are_read_only_views(self):
        trie = build_trie([((A, EOW_ID), 0), ((A, B, EOW_ID), 1)])
        arrays = [trie.offsets.copy(), trie.labels.copy(), trie.node_keyword.copy()]
        for held in (KeywordTrie(*arrays, FORWARD, 0), from_bytes(to_bytes(trie))):
            for name in ("offsets", "labels", "node_keyword"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(held, name)[0] = 0
        assert all(a.flags.writeable for a in arrays)  # views: the caller's arrays stay writable

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValidationError, match="^unknown trie direction: 'sideways'$"):
            build_trie([((A, EOW_ID), 0)], "sideways")

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

    def test_id_minus_one_rejected(self):
        # -1 reads as "no keyword": the leaf it would mark completes nothing.
        with pytest.raises(ValidationError, match="every other leaf a terminal"):
            build_trie([((A, EOW_ID), 0), ((B, EOW_ID), -1)])

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
        assert np.array_equal(back.node_keyword, trie.node_keyword)
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


def _layout(offsets, labels, node_keyword, direction=FORWARD):
    return KeywordTrie(np.array(offsets), np.array(labels), np.array(node_keyword), direction, 0)


class TestLayoutChecks:
    """``KeywordTrie`` checks its own layout, however it is made."""

    # build_trie([((A, EOW_ID), 0), ((A, B, EOW_ID), 1), ((C, EOW_ID), 2)]):
    # root -A-> 1, root -C-> 2; 1 -EOW-> 3 (keyword 0), 1 -B-> 4; 2 -EOW-> 5
    # (keyword 2); 4 -EOW-> 6 (keyword 1).
    OFFSETS = [0, 2, 4, 5, 5, 6, 6, 6]
    LABELS = [A, C, EOW_ID, B, EOW_ID, EOW_ID]
    NODE_KEYWORD = [-1, -1, -1, 0, -1, 2, 1]

    def test_the_layout_is_build_tries(self):
        trie = build_trie([((A, EOW_ID), 0), ((A, B, EOW_ID), 1), ((C, EOW_ID), 2)])
        assert trie.offsets.tolist() == self.OFFSETS
        assert trie.labels.tolist() == self.LABELS
        assert trie.node_keyword.tolist() == self.NODE_KEYWORD
        assert to_bytes(_layout(self.OFFSETS, self.LABELS, self.NODE_KEYWORD)) == to_bytes(trie)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("direction", "sideways", "direction"),
            ("offsets", [0, 2, 4, 5, 5, 6, 6], "^a trie of 7 nodes has 8 offsets"),
            ("labels", [A, C, EOW_ID, B, EOW_ID], "and 6 edge labels$"),
            ("node_keyword", [-1, -1, -1, 0, -1, 2], "^a trie of 6 nodes"),
            ("offsets", [1, 2, 4, 5, 5, 6, 6, 6], "from 0 up to its edge count"),
            ("offsets", [0, 2, 4, 3, 5, 6, 6, 6], "from 0 up to its edge count"),
            ("offsets", [0, 2, 4, 5, 5, 6, 6, 7], "from 0 up to its edge count"),  # past the edges
            # int64 sums that wrap: each difference is >= 0, and they end at 6
            ("offsets", [0, 2**63 - 1, -2, 2**63 - 3, -4, 6, 6, 6], "from 0 up to its edge count"),
            ("labels", [-1, C, EOW_ID, B, EOW_ID, EOW_ID], "label range"),
            ("labels", [A, 2**31, EOW_ID, B, EOW_ID, EOW_ID], "label range"),
            ("labels", [C, A, EOW_ID, B, EOW_ID, EOW_ID], "labels must increase"),
            ("labels", [A, C, B, B, EOW_ID, EOW_ID], "labels must increase"),
            ("node_keyword", [-1, -1, -1, 0, -1, 2, -2], "ids >= -1$"),
            ("node_keyword", [7, -1, -1, 0, -1, 2, 1], "terminal nodes must be leaves, not the root"),
            ("node_keyword", [-1, 7, -1, 0, -1, 2, 1], "terminal nodes must be leaves"),
            ("node_keyword", [-1, -1, -1, 0, -1, 2, -1], "every other leaf a terminal"),
            ("offsets", [0, 0, 2, 4, 5, 6, 6, 6], "BFS order"),  # node 1 owns the edge to itself
        ],
    )
    def test_bad_layout_rejected(self, field, value, message):
        arrays = {"offsets": self.OFFSETS, "labels": self.LABELS, "node_keyword": self.NODE_KEYWORD}
        arrays[field] = value
        direction = value if field == "direction" else FORWARD
        with pytest.raises(ValidationError, match=message):
            _layout(arrays["offsets"], arrays["labels"], arrays["node_keyword"], direction)

    def test_replace_checks_the_new_layout(self):
        trie = build_trie([((A, EOW_ID), 0), ((A, B, EOW_ID), 1), ((C, EOW_ID), 2)])
        swapped = trie.labels.copy()
        swapped[[0, 1]] = swapped[[1, 0]]  # was served, with other scores, under l2r
        with pytest.raises(ValidationError, match="labels must increase within each node"):
            replace(trie, labels=swapped)
        past = trie.offsets.copy()
        past[-1] += 1  # an IndexError at bundle construction
        with pytest.raises(ValidationError, match="edge count"):
            replace(trie, offsets=past)

    def test_labels_are_held_as_int32(self):
        trie = _layout(self.OFFSETS, np.array(self.LABELS, dtype=np.int64), self.NODE_KEYWORD)
        assert trie.labels.dtype == np.int32 and trie.labels.tolist() == self.LABELS

    @pytest.mark.parametrize("top, label_dtype, id_dtype", [
        (255, np.uint8, np.int32), (2**16, np.uint32, np.int32),
        (2**31 - 1, np.uint32, np.int32), (2**31, np.uint32, np.int64),
    ])
    def test_arrays_are_held_narrow(self, top, label_dtype, id_dtype):
        # Offsets and ids are int32 unless a value needs int64; a loaded trie
        # keeps the labels at the width its file stored, a built one int32.
        built = build_trie([((A, EOW_ID), 0), ((B, min(top, 2**31 - 1), EOW_ID), top)])
        loaded = from_bytes(to_bytes(built))
        assert (built.offsets.dtype, built.labels.dtype, built.node_keyword.dtype) == (
            np.int32, np.int32, id_dtype)
        assert (loaded.offsets.dtype, loaded.labels.dtype, loaded.node_keyword.dtype) == (
            np.int32, label_dtype, id_dtype)
        for name in ("offsets", "labels", "node_keyword"):
            assert getattr(loaded, name).tolist() == getattr(built, name).tolist()


class TestMemoryStats:
    def test_single_keyword(self):
        stats = memory_stats(build_trie([((A, EOW_ID), 0)]))
        assert stats["nodes"] == 3 and stats["edges"] == 2
        assert stats["bytes_per_keyword"] == stats["serialized_bytes"]

    def test_empty(self):
        stats = memory_stats(build_trie([]))
        assert stats["nodes"] == 1 and stats["edges"] == 0
        assert stats["bytes_per_keyword"] is None


THREE_KEYWORDS = [((A, EOW_ID), 0), ((A, B, EOW_ID), 1), ((C, EOW_ID), 2)]
# TestLayoutChecks' trie as a KTRI body: degrees 2, 2, 1, 0, 1, 0, 0 in unary
# (1101101001000, then three padding bits), the labels, then the keyword ids
# of leaves 3, 5 and 6, one byte each.
BITS = bytes([0b11011010, 0b01000000])
LABELS = bytes([A, C, EOW_ID, B, EOW_ID, EOW_ID])
IDS = bytes([0, 2, 1])


def crafted_ktri(nodes, keywords, body, flag=0, label_width=1, id_width=1) -> bytes:
    """A KTRI file with a good checksum around any header and body."""
    header = struct.pack("<QQBQBB", 0, nodes, flag, keywords, label_width, id_width)
    return frame(b"KTRI", _VERSION, header + body)


class TestCraftedFiles:
    def test_the_reference_body_is_to_bytes(self):
        assert crafted_ktri(7, 3, BITS + LABELS + IDS) == to_bytes(build_trie(THREE_KEYWORDS))

    def test_boundary_values_load(self):
        # root -> node 1 along label 2**31 - 1, keyword id 2**63 - 1 ends there
        body = bytes([0b10000000]) + struct.pack("<I", 2**31 - 1) + struct.pack("<Q", 2**63 - 1)
        trie = from_bytes(crafted_ktri(2, 1, body, label_width=4, id_width=8))
        assert trie.labels.tolist() == [2**31 - 1]
        assert terminal_id(trie, 1) == 2**63 - 1

    @pytest.mark.parametrize(
        "data, message",
        [
            pytest.param(crafted_ktri(7, 3, BITS + LABELS + IDS, flag=7), "corrupt trie header",
                         id="direction-flag-7"),
            pytest.param(crafted_ktri(0, 0, b""), "corrupt trie header", id="no-nodes"),
            pytest.param(crafted_ktri(7, 3, BITS + LABELS * 3 + IDS, label_width=3),
                         "corrupt trie header", id="label-width-3"),
            pytest.param(crafted_ktri(7, 3, BITS + LABELS + IDS * 3, id_width=3),
                         "corrupt trie header", id="id-width-3"),
            pytest.param(crafted_ktri(2**50, 0, b"\0"), "^truncated trie: 1125899906842624 nodes",
                         id="nodes-beyond-body"),
            pytest.param(crafted_ktri(7, 2**50, BITS + LABELS + IDS), "^truncated trie",
                         id="keywords-beyond-body"),
            pytest.param(crafted_ktri(7, 3, BITS + LABELS + IDS[:-1]), "^truncated trie",
                         id="body-one-byte-short"),
            pytest.param(crafted_ktri(7, 3, BITS + LABELS + IDS + b"\0"),
                         "^corrupt trie: trailing bytes$", id="body-one-byte-long"),
        ],
    )
    def test_bad_header_rejected_before_allocating(self, data, message):
        with pytest.raises(ValidationError, match=message):
            from_bytes(data)

    @pytest.mark.parametrize(
        "bits, message",
        [
            pytest.param(bytes([0b11011010, 0b01000001]), "^corrupt trie: a padding bit is set$",
                         id="padding-bit"),
            pytest.param(bytes([0b01011010, 0b01000000]), "^corrupt trie: 8 degree ends for 7",
                         id="one-0-bit-too-many"),
            pytest.param(bytes([0b11111010, 0b01000000]), "^corrupt trie: 6 degree ends for 7",
                         id="one-0-bit-too-few"),
            # degrees 2, 1, 0, 0, 0, 1, 1 and then a 1 bit that no 0 bit ends
            pytest.param(bytes([0b11010000, 0b10101000]), "from 0 up to its edge count",
                         id="last-node-unterminated"),
        ],
    )
    def test_corrupt_degree_bits_rejected(self, bits, message):
        with pytest.raises(ValidationError, match=message):
            from_bytes(crafted_ktri(7, 3, bits + LABELS + IDS))

    def test_a_node_that_owns_the_edge_to_itself_rejected(self):
        # Degrees 0, 2, 0 (bits 01100): node 1 owns edges 0 and 1, which lead
        # to nodes 1 and 2, so node 1 is its own child and no edge leaves the root.
        data = crafted_ktri(3, 1, bytes([0b01100000, 5, 6, 0]))
        with pytest.raises(ValidationError, match="BFS order"):
            from_bytes(data)

    @pytest.mark.parametrize("ids", [IDS[:2], IDS + b"\3"], ids=["fewer", "more"])
    def test_keyword_count_other_than_the_leaf_count_rejected(self, ids):
        with pytest.raises(ValidationError, match=f"^corrupt trie: {len(ids)} keyword ids for 3 "):
            from_bytes(crafted_ktri(7, len(ids), BITS + LABELS + ids))

    @pytest.mark.parametrize(
        "nodes, body, label_width, id_width, message",
        [
            pytest.param(2, bytes([0b10000000]) + struct.pack("<IB", 2**31, 0), 4, 1,
                         "label range", id="label-2^31"),
            # as int64 the stored id reads -2**63: no id is negative but -1
            pytest.param(2, bytes([0b10000000, 5]) + struct.pack("<Q", 2**63), 1, 8, "ids >= -1",
                         id="keyword-id-2^63"),
            pytest.param(3, bytes([0b11000000, 5, 5, 0, 1]), 1, 1, "labels must increase",
                         id="repeated-label"),
        ],
    )
    def test_out_of_range_values_rejected(self, nodes, body, label_width, id_width, message):
        with pytest.raises(ValidationError, match=message):
            from_bytes(crafted_ktri(nodes, nodes - 1, body, 0, label_width, id_width))


# Keyword ids where the id width grows, up to the largest int64 (eight bytes).
BOUNDARY_IDS = [0, 255, 256, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**63 - 1]


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

    @pytest.mark.parametrize("direction", [FORWARD, REVERSED])
    @pytest.mark.parametrize("top", BOUNDARY_IDS)
    def test_each_width(self, top, direction):
        # ``top`` is the largest id and, capped at int32, the largest label
        self.check([((A, EOW_ID), 1), ((B, min(top, 2**31 - 1), EOW_ID), top)], direction)

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
    """KTRI, byte by byte: magic, u32 version, a ``<QQBQBB`` header (vocab
    checksum, nodes, direction, keywords, label width, id width), the unary
    degree bits, the u1 labels, the u2 keyword ids and the checksum footer
    of every byte before it.  The bytes of test_10's 100k prefix catalog
    are pinned too: a change to the format must show here, not pass
    through round trips."""
    entries = [(seq, kid) for (seq, _), kid in zip(THREE_KEYWORDS, (0, 300, 2))]
    head = b"".join((b"KTRI", struct.pack("<I", _VERSION),
                     struct.pack("<QQBQBB", 0x0123456789ABCDEF, 7, 0, 3, 1, 2), BITS, LABELS,
                     struct.pack("<3H", 0, 2, 300)))
    data = to_bytes(build_trie(entries, vocab_checksum=0x0123456789ABCDEF))
    assert data == head + struct.pack("<Q", checksum64(head))

    catalog = make_prefix_heavy_catalog()
    vocab = Vocab.from_tokens(sorted({t for text in catalog for t in text.split()}))
    tokens, lengths = tokenize_batch(catalog, vocab, "keyword", max_len=8)
    ids = np.arange(len(catalog))
    for direction, size, digest in (
        (FORWARD, 656_356, 0x2DE4379CD9C37E4E),
        (REVERSED, 527_571, 0x6484A0BD54B1FFAB),
    ):
        data = to_bytes(build_trie_arrays(tokens, lengths, ids, direction, vocab.checksum()))
        assert (len(data), checksum64(data)) == (size, digest), direction
