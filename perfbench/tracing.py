"""Tracing from outside the program's source: spans and counters around
unikw's layers.

The program's source is never edited.  ``install`` swaps wrappers into the
module attributes where callers look functions up (``unikw.decoder`` calls
``beam_search`` and ``terminal_id`` through its own globals, the CLI calls
``build_trie`` through ``unikw.cli`` and so on) and returns a function that
puts the originals back.

Three kinds of wrapper, chosen by how often a function runs:

* span  -- one record per call: name, start, end, parent.  For calls made a
  few hundred times per query or stage at most.
* tally -- calls and total time, no record.  For per-keyword helpers that
  run hundreds of thousands of times during set-up (``tokenize``).
* count -- calls only.  For the decoder's per-child ``terminal_id`` lookup,
  where even two clock reads would distort the time being measured.

Time spent in a tally or a child span is charged to the enclosing span, so
``self_times`` can split wall time into per-module self time.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# Span record fields.
NAME, START, END, PARENT, CHILD_NS = range(5)


class Tracer:
    """Spans, tallies and counters of one traced phase.

    Spans nest through one stack, so a tracer serves one thread at a time;
    the benchmark serves with one client and no ``--threads``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.tally_ns: Counter = Counter()

    def _charge_parent(self, elapsed_ns: int) -> None:
        if self.stack:
            self.spans[self.stack[-1]][CHILD_NS] += elapsed_ns

    def span(self, name: str, fn, name_of=None, count_bytes=None):
        """Wrap ``fn`` so each call records a span.

        ``name_of(args, kwargs)`` refines the name per call (the decode order);
        ``count_bytes(args)`` adds to the counter ``<name>_bytes``.
        """
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            label = name_of(args, kwargs) if name_of else name
            if count_bytes:
                self.counts[label + "_bytes"] += count_bytes(args)
            self.counts[label + "_calls"] += 1
            record = [label, clock(), 0, self.stack[-1] if self.stack else -1, 0]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                self.stack.pop()
                self._charge_parent(record[END] - record[START])

        wrapper.__wrapped__ = fn
        return wrapper

    def tally(self, name: str, fn):
        clock = time.perf_counter_ns
        counts, totals = self.counts, self.tally_ns

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                counts[name + "_calls"] += 1
                totals[name] += elapsed
                self._charge_parent(elapsed)

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, fn):
        counts = self.counts
        key = name + "_calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def export(self) -> dict:
        return {
            "spans": [
                {"name": s[NAME], "start_ns": s[START], "end_ns": s[END],
                 "parent": s[PARENT], "child_ns": s[CHILD_NS]}
                for s in self.spans
            ],
            "counts": dict(self.counts),
            "tally_s": {k: v / 1e9 for k, v in self.tally_ns.items()},
        }


# --------------------------------------------------- summaries of an export


def _seconds(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e9


def total_s(trace: dict, prefix: str) -> float:
    """Wall seconds of every span named ``prefix`` or ``prefix.<more>``."""
    return sum(
        _seconds(s) for s in trace["spans"]
        if s["name"] == prefix or s["name"].startswith(prefix + ".")
    )


def self_times(trace: dict) -> dict[str, float]:
    """Self seconds per module: each span's duration minus the time charged
    to its children, plus the time of every tally."""
    out: dict[str, float] = defaultdict(float)
    for s in trace["spans"]:
        out[s["name"].split(".")[0]] += _seconds(s) - s["child_ns"] / 1e9
    for name, seconds in trace["tally_s"].items():
        out[name.split(".")[0]] += seconds
    return dict(out)


def children_s(trace: dict, parent: str, names: tuple[str, ...]) -> float:
    """Seconds of the direct children called ``names`` of spans called ``parent``."""
    parents = {i for i, s in enumerate(trace["spans"]) if s["name"] == parent}
    return sum(_seconds(s) for s in trace["spans"] if s["parent"] in parents and s["name"] in names)


def _order_of(args, kwargs) -> str:
    config = args[2] if len(args) > 2 else kwargs["config"]
    return "decoder.beam_search." + config.orders[0]


def _data_len(args) -> int:
    return len(args[0])


def _patch_table(tracer: Tracer):
    """(module, attribute, wrapper factory) for every traced call site."""
    import unikw.cli as cli
    import unikw.corpus as corpus
    import unikw.decoder as decoder
    import unikw.encoder as encoder
    import unikw.fileio as fileio
    import unikw.retriever as retriever
    import unikw.trie as trie

    span, tally, count = tracer.span, tracer.tally, tracer.count
    crc = lambda fn: span("fileio.crc64", fn, count_bytes=_data_len)  # noqa: E731
    return [
        # cli
        (cli, "load_bundle", lambda fn: span("cli.load_bundle", fn)),
        (cli, "cmd_retrieve", lambda fn: span("cli.cmd_retrieve", fn)),
        (cli, "results_to_jsonl_line", lambda fn: tally("cli.results_to_jsonl_line", fn)),
        # corpus
        (cli, "tokenize", lambda fn: tally("corpus.tokenize", fn)),
        (retriever, "tokenize", lambda fn: tally("corpus.tokenize", fn)),
        (corpus, "tokenize", lambda fn: tally("corpus.tokenize", fn)),
        (cli, "build_vocab", lambda fn: span("corpus.build_vocab", fn)),
        (cli, "load_keywords", lambda fn: span("corpus.load.keywords", fn)),
        (cli, "load_vocab", lambda fn: span("corpus.load.vocab", fn)),
        (cli, "load_pairs", lambda fn: span("corpus.load.pairs", fn)),
        (cli, "save_vocab", lambda fn: span("corpus.save_vocab", fn)),
        # fileio
        (fileio, "crc64", crc),
        (corpus, "crc64", crc),
        # trie
        (cli, "build_trie", lambda fn: span("trie.build", fn)),
        (cli, "serialize", lambda fn: span("trie.serialize", fn)),
        (cli, "deserialize", lambda fn: span("trie.deserialize", fn)),
        (cli, "memory_stats", lambda fn: span("trie.memory_stats", fn)),
        (trie, "to_bytes", lambda fn: span("trie.to_bytes", fn)),
        (trie, "from_bytes", lambda fn: span("trie.from_bytes", fn)),
        # encoder
        (cli, "train", lambda fn: span("encoder.train", fn)),
        (encoder, "mine_negatives", lambda fn: span("encoder.mine_negatives", fn)),
        (encoder, "joint_loss", lambda fn: span("encoder.joint_loss", fn)),
        (encoder, "embed_batch", lambda fn: span("encoder.embed_batch", fn)),
        (cli, "embed_batch", lambda fn: span("encoder.embed_batch", fn)),
        (cli, "load_params", lambda fn: span("encoder.load_params", fn)),
        (cli, "save_params", lambda fn: span("encoder.save_params", fn)),
        (retriever, "encode", lambda fn: span("encoder.encode", fn)),
        # decoder
        (retriever, "permutation_decode", lambda fn: span("decoder.permutation_decode", fn)),
        (decoder, "beam_search", lambda fn: span("decoder.beam_search", fn, name_of=_order_of)),
        (decoder, "terminal_id", lambda fn: count("decoder.terminal_id", fn)),
        # dense_index
        (retriever, "search", lambda fn: span("dense_index.search", fn)),
        (cli, "build_graph", lambda fn: span("dense_index.build_graph", fn)),
        (cli, "build_exact", lambda fn: span("dense_index.build_exact", fn)),
        (cli, "save_graph", lambda fn: span("dense_index.save_graph", fn)),
        (cli, "load_graph", lambda fn: span("dense_index.load_graph", fn)),
        (cli, "save_embeddings", lambda fn: span("dense_index.save_embeddings", fn)),
        (cli, "load_embeddings", lambda fn: span("dense_index.load_embeddings", fn)),
        # retriever
        (cli, "retrieve", lambda fn: span("retriever.retrieve", fn)),
        (retriever, "retrieve", lambda fn: span("retriever.retrieve", fn)),
        (retriever, "retrieve_channels", lambda fn: span("retriever.retrieve_channels", fn)),
        (retriever.EngineBundle, "validate", lambda fn: span("retriever.validate", fn)),
    ]


def install(tracer: Tracer):
    """Swap traced wrappers in; return a function that restores the originals."""
    saved = []
    for owner, attr, wrap in _patch_table(tracer):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall
