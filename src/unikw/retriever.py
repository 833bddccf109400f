"""End-to-end unified retrieval: one encoder pass feeds both channels.

``retrieve_batch`` is the one serving path, and ``retrieve`` its one-query
case; any ``EngineBundle`` serves: each part checks itself when made, and
the bundle what spans two, each channel holding every catalog id once.
No part changes after, but the encoder's tensors, which ``train`` updates
in place; the catalog is always a ``corpus.Catalog``.
Each query is encoded exactly once.  The resulting log-probability table
drives permutation-decoded trie search (the generative channel, "NLG") and
the dense embedding drives nearest-neighbor search (the dense channel,
"DR").  Results merge by keyword id; the merged set is exactly the union
of the two channels, so its recall can never fall below either channel's.

Queries are served a chunk at a time: one ``tokenize_batch``, one
``encode_batch`` and one ``search_batch`` per chunk, then the decode and
the merge per query.  A query's results do not depend on its chunk: the
encoder's rows and the dense hits are the same bits in any batch, so
``retrieve_batch(bundle, qs)[i] == retrieve(bundle, qs[i])``.  A chunk
holds as many queries as keep their M x V tables within ``CHUNK_BYTES``;
the dense search bounds its own scratch.

Two channels side by side.  The channels share nothing after the encoder
pass, so a chunk's exact dense search may run on a worker thread while
the calling thread decodes the chunk; the call then waits for the search.
It does so only when the index is exact, its float32 rows span at least
``OVERLAP_BYTES`` (4 MiB, 65,536 rows at width 16) and the process may
run on two CPUs or more (``os.sched_getaffinity``).  The scan's float32
GEMV releases the GIL, so it runs beside the decode; below ~2 MiB of rows
the scan is short and most of it is Python holding the GIL, so the
hand-off costs more than it hides, and a graph search holds the GIL
throughout.  Measured beside prefix100k's decode (2 vCPUs, numpy 2.4,
OpenBLAS on one thread), a chunk's time as a share of its time in turn
was 1.12-1.22 at 10k random unit rows of width 16 (0.61 MiB), 1.04-1.09
at 35k (2.14 MiB), 0.91-0.98 at 50k and 0.73-0.77 at 100k (README,
*Serving in chunks*); graph5k's ``retrieve`` got slower side by side,
on its graph and with its rows served exactly.
Every other bundle, and a process that cannot start a thread, serves the
channels in turn.  The calling thread's work first; its error first: the
decode runs before the search in turn, and its error is raised first side
by side, so the results and the errors are the same either way.

One worker serves both the load and the search: one pool of one thread
(``worker_pool``), made on first use and dropped in a forked child, and
one hand-off to it, ``beside``, under the rule above.
``cli.load_bundle`` reads, checks and builds the dense index on it when
the KEMB file passes the same gate (its size from one ``os.stat``, the
index's kind aside), while the calling thread loads the vocab, the
catalog, the encoder and the tries.

Merged ordering is a convention, not a model output: keywords found by
both channels come first, then dense-only results, both by (-dense score,
id), then generative-only results by (-generative score, id).  Since
each channel arrives sorted by (-score, id) (``retrieve_channels``), the
merge sorts nothing: it is a stable partition of the dense list into
BOTH and DR-only by lookup in the generative scores, followed by the
generative hits the dense list lacks.  Callers that want channel-specific
quality thresholds apply their own floors to the raw lists
``retrieve_channels`` returns.

The merge yields a query's columns: the ids of each source, both score
maps and the texts of one ``Catalog.texts`` call.  ``retrieve_batch``
builds ``RetrievalResult`` rows from them; ``retrieve_lines``, which
``unikw retrieve`` writes, builds each JSON line straight from them, with
no rows and no per-hit dicts.  That column writer is the one fast JSON
writer.  ``results_to_jsonl_line`` is its reference: ``json.dumps({"query":
q, "results": [r.to_json_obj() for r in rows]}, ensure_ascii=False)``, whose
bytes every line of ``retrieve_lines`` holds.
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain, filterfalse
from json.encoder import encode_basestring
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

# ``tokenize``, ``search`` and ``encode``, the one-item cases of what this
# module calls, are imported only so the benchmark's tracer finds them here.
from .corpus import Catalog, Vocab, tokenize, tokenize_batch  # noqa: F401
from .decoder import DecodeConfig, permutation_decode
from .dense_index import EXACT, DenseIndex, search, search_batch  # noqa: F401
from .encoder import EncoderParams, encode, encode_batch  # noqa: F401
from .errors import ValidationError, check_integer
from .trie import FORWARD, REVERSED, KeywordTrie

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

#: The most bytes a chunk's M x V tables may take.  256 KiB is ~10 graph5k
#: and ~23 prefix100k queries per chunk.
CHUNK_BYTES = 256 * 1024

#: The least bytes of dense data a job must touch to run on the worker: an
#: exact scan's float32 rows (4 MiB is 65,536 rows at width 16), or the KEMB
#: file a load reads, hashes and checks.
OVERLAP_BYTES = 4 * 1024 * 1024

#: CPUs this process may run on; the overlap needs two.
_USABLE_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)

SOURCE_NLG = "NLG"
SOURCE_DR = "DR"
SOURCE_BOTH = "BOTH"


class RetrievalResult(NamedTuple):
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


@dataclass(frozen=True)
class EngineBundle:
    """Every component of a servable engine, built over one catalog.  Frozen;
    construction and every ``replace`` make the catalog a ``Catalog`` and the
    groups a read-only copy of tuples, then run ``validate``."""

    params: EncoderParams
    vocab: Vocab
    catalog: Catalog  # keyword id -> text; any other sequence of texts is made one
    forward_trie: KeywordTrie
    reversed_trie: KeywordTrie
    index: DenseIndex
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    dense_k: int = 100
    # Representative id -> the ids of its group, ascending, when the index
    # holds representatives only (``index --cluster-threshold``).
    groups: Mapping[int, tuple[int, ...]] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.catalog, Catalog):
            object.__setattr__(self, "catalog", Catalog.from_texts(self.catalog))
        if self.groups is not None:
            groups = {_as_id(rep): tuple(map(_as_id, group)) for rep, group in self.groups.items()}
            object.__setattr__(self, "groups", MappingProxyType(groups))
        self.validate()

    def validate(self) -> None:
        """Check what spans two components, each of which checks itself: one catalog
        and vocab, keywords the encoder can score, tries of one depth, every
        catalog id once per channel."""
        check_integer("dense_k", self.dense_k, 0)  # 0 is legal: no dense channel
        if self.params.vocab_size != len(self.vocab):
            raise ValidationError(
                f"encoder vocabulary {self.params.vocab_size} != vocab {len(self.vocab)}"
            )
        checksum, n = self.vocab.checksum(), len(self.catalog)
        for trie, direction in ((self.forward_trie, FORWARD), (self.reversed_trie, REVERSED)):
            if trie.direction != direction:
                raise ValidationError(f"trie direction {trie.direction}, expected {direction}")
            if trie.vocab_checksum != checksum:
                raise ValidationError("trie vocab checksum does not match the vocab")
            if (positions := trie.max_positions) > self.params.max_len:
                raise ValidationError(
                    f"{direction} trie holds a keyword of {positions} positions, more than the "
                    f"encoder's max_len {self.params.max_len}: build the tries with "
                    f"build-trie --max-len {self.params.max_len}")
            _check_covers(trie.node_keyword[trie.node_keyword >= 0], n, f"{direction} trie")
        # Tries of one catalog cut at one length are equally deep; a shorter
        # cut that shortened a keyword leaves it two paths, scored apart.
        if (fwd := self.forward_trie.max_positions) != (rev := self.reversed_trie.max_positions):
            raise ValidationError(
                f"forward trie is {fwd} positions deep and reversed trie {rev}: build both "
                f"tries with one build-trie --max-len")
        if (width := self.index.vectors.shape[1]) != self.params.dense_dim:
            raise ValidationError(
                f"index vector width {width} != encoder dense_dim {self.params.dense_dim}")
        dense = self.index.ids
        if self.groups is not None:
            if any(rep not in group for rep, group in self.groups.items()):
                raise ValidationError("every representative must map to itself")
            if self.groups.keys() != set(self.index.ids.tolist()):
                raise ValidationError("representatives must be exactly the index ids")
            # Python ints in an object array: an id past int64 stays itself.
            dense = np.array([kid for group in self.groups.values() for kid in group], dtype=object)
        _check_covers(dense, n, "dense index")


def _as_id(value) -> int:  # a float or str group id would fail in the catalog's slices
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValidationError(f"group map ids must be integers, got {value!r}")
    return value.__index__()


def _check_covers(ids: np.ndarray, n: int, what: str) -> None:
    """Raise unless ``ids`` holds each of ``range(n)`` exactly once.  The range
    comes first, so no id, however large, sizes the count."""
    if (outside := (ids < 0) | (ids >= n)).any():
        raise ValidationError(f"{what} holds keyword id {ids[outside][0]}, outside the catalog of {n}")
    counts = np.bincount(ids.astype(np.intp, copy=False), minlength=n)
    if (wrong := np.flatnonzero(counts != 1)).size:
        raise ValidationError(f"{what} must hold every catalog id once; keyword {wrong[0]} "
                              f"is held {counts[wrong[0]]} times")


def chunk_size(bundle: EngineBundle) -> int:
    """Queries per chunk: the most whose (queries x M x V) float64 tables
    fit in ``CHUNK_BYTES``; at least one."""
    return max(1, CHUNK_BYTES // (bundle.params.max_len * bundle.params.vocab_size * 8))


_pool: ThreadPoolExecutor | None = None  # one per process, made on first use
_pool_lock = threading.Lock()


def _drop_pool() -> None:
    # A forked child holds a copy of the pool but not its thread.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def worker_pool(job_bytes: int) -> ThreadPoolExecutor | None:
    """The process's one-thread pool, to run a job that touches ``job_bytes``
    of dense data beside the calling thread, or None to run it in turn:
    below ``OVERLAP_BYTES``, on one CPU, or when no thread can start.
    ``beside`` runs each chunk's exact search on it, weighed by the index's
    float32 rows, and ``cli.load_bundle``'s dense index load, weighed by the
    KEMB file's size."""
    if job_bytes < OVERLAP_BYTES or _USABLE_CPUS < 2:
        return None
    global _pool
    with _pool_lock:
        if _pool is None:
            # Imported here: with the logging it imports, ~0.5 MiB and ~10 ms
            # that a process serving in turn does not pay.
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(1, thread_name_prefix="unikw-dense")
            try:
                pool.submit(int).result()  # its thread starts now, or cannot
            except RuntimeError:  # no thread can start: run in turn
                return None
            _pool = pool
        return _pool


def beside(job_bytes: int, job: Callable, args: tuple, work: Callable[[], object]) -> tuple:
    """``(job(*args), work())``: the job on the worker while this thread does
    the work when ``worker_pool(job_bytes)`` gives the pool, else the work
    first and then the job.  The calling thread's work first; its error
    first: when the work fails, the job is waited for and its result
    dropped with its future, so neither the pool nor the error's traceback
    keeps it.  The one hand-off to the worker, for ``_channels`` and
    ``cli.load_bundle``."""
    pool = worker_pool(job_bytes)
    if pool is None:
        done = work()
        return job(*args), done
    pending = pool.submit(job, *args)
    try:
        done = work()
    except BaseException:
        pending.exception()
        del pending
        raise
    return pending.result(), done


def _channels(
    bundle: EngineBundle, queries: Sequence[str]
) -> list[tuple[list[tuple[int, float]], list[tuple[int, float]]]]:
    """``retrieve_channels`` of every query of one chunk: one tokenize, one
    encoder forward and one dense search for the chunk, the decode per
    query beside that search or before it (``beside``), then the group
    expansion."""
    flat_ids, lengths = tokenize_batch(queries, bundle.vocab, "query", bundle.params.max_len)
    output = encode_batch(bundle.params, flat_ids, lengths)
    k = min(bundle.dense_k, len(bundle.index))

    def decode() -> list[list[tuple[int, float]]]:
        return [permutation_decode(table, bundle.forward_trie, bundle.reversed_trie, bundle.decode)
                for table in output.nar_logprobs]

    if k:
        rows = bundle.index.vectors.nbytes if bundle.index.kind == EXACT else 0
        hits, nlgs = beside(rows, search_batch, (bundle.index, output.dr_embedding, k), decode)
    else:
        hits, nlgs = [[] for _ in queries], decode()
    if bundle.groups is not None:
        hits = [sorted([(kid, score) for rep, score in dr for kid in bundle.groups[rep]],
                       key=lambda hit: (-hit[1], hit[0]))[: bundle.dense_k] for dr in hits]
    return list(zip(nlgs, hits))


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


class _Columns(NamedTuple):
    """One query's merge as columns: the ids of each source in merged order,
    both channels' scores by id, and the texts of ``both + dr + nlg``."""

    both: list[int]
    dr: list[int]
    nlg: list[int]
    nlg_scores: dict[int, float]
    dr_scores: dict[int, float]
    texts: list[str]


def _partition(
    bundle: EngineBundle, nlg: list[tuple[int, float]], dr: list[tuple[int, float]]
) -> _Columns:
    """One query's channels as merged columns (see the module docstring).

    Both channel lists arrive sorted by (-score, id), so the merged order
    is one stable partition of their ids: BOTH and DR-only in dense order,
    then NLG-only in generative order.  One ``Catalog.texts`` call reads
    every text.
    """
    nlg_scores, dr_scores = dict(nlg), dict(dr)
    both = list(filter(nlg_scores.__contains__, dr_scores))
    dr_only = list(filterfalse(nlg_scores.__contains__, dr_scores))
    nlg_only = list(filterfalse(dr_scores.__contains__, nlg_scores))
    return _Columns(both, dr_only, nlg_only, nlg_scores, dr_scores,
                    bundle.catalog.texts(both + dr_only + nlg_only))


def _merge(columns: _Columns) -> list[RetrievalResult]:
    """The library's rows of one query's merged columns; one ``map`` builds them."""
    ids = columns.both + columns.dr + columns.nlg
    sources = ([SOURCE_BOTH] * len(columns.both) + [SOURCE_DR] * len(columns.dr)
               + [SOURCE_NLG] * len(columns.nlg))
    return list(map(RetrievalResult, ids, columns.texts, map(columns.nlg_scores.get, ids),
                    map(columns.dr_scores.get, ids), sources))


def _columns(bundle: EngineBundle, queries: Sequence[str]) -> Iterator[_Columns]:
    """The merged columns of each query, in order, ``chunk_size(bundle)``
    queries at a time, so a chunk's tables stay within ``CHUNK_BYTES``
    however many queries there are."""
    size = chunk_size(bundle)
    for lo in range(0, len(queries), size):
        for nlg, dr in _channels(bundle, queries[lo:lo + size]):
            yield _partition(bundle, nlg, dr)


def retrieve_batch(bundle: EngineBundle, queries: Sequence[str]) -> list[list[RetrievalResult]]:
    """Merged results of both channels for each query, in order; exactly
    one encoder evaluation per query.

    Each query's results equal what ``retrieve`` gives it alone.
    """
    return list(map(_merge, _columns(bundle, queries)))


def retrieve_lines(bundle: EngineBundle, queries: Sequence[str]) -> Iterator[str]:
    """An iterator over the JSON line of each query's merged results, in
    order: the bytes of ``results_to_jsonl_line(q, retrieve(bundle, q))``,
    written straight from the merge's columns, with no rows and no per-hit
    dicts.  It serves a chunk at a time, as its lines are taken."""
    return map(_columns_line, queries, _columns(bundle, queries))


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


# The column writer.  A line holds the bytes of ``results_to_jsonl_line``, the
# ``json.dumps`` reference at the end of this module, without the dicts: each
# run of hits that share a source and the scores they hold fills one template,
# whose keys are in ``to_json_obj``'s order, with one ``%``.
# Texts go through ``encode_basestring``, the C escaper ``json.dumps`` uses
# when ``ensure_ascii`` is off, and floats are written as ``json`` writes them.

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _template(source: str, has_nlg: bool, has_dr: bool) -> str:
    """One hit's JSON, with ``%`` slots for its escaped text, its id and the
    reprs of the scores it holds."""
    return ('{"keyword": %s, "id": %d, "source": ' + encode_basestring(source).replace("%", "%%")
            + (', "nlg_score": %s' if has_nlg else "") + (', "dr_score": %s' if has_dr else "")
            + "}")


_BOTH = _template(SOURCE_BOTH, True, True)
_DR = _template(SOURCE_DR, False, True)
_NLG = _template(SOURCE_NLG, True, False)


def _floats(scores: Iterable[float]) -> list[str]:
    """Each score as ``json`` writes a float: ``float.__repr__`` if finite,
    else ``NaN``, ``Infinity`` or ``-Infinity``."""
    reprs = list(map(float.__repr__, scores))
    return reprs if _NON_FINITE.keys().isdisjoint(reprs) else [_NON_FINITE.get(r, r) for r in reprs]


def _run(template: str, texts: Sequence[str], ids: Sequence[int], *scores: Iterable[float]) -> str:
    """The JSON of ``len(ids)`` hits of one template, joined by ``", "``."""
    columns = (map(encode_basestring, texts), ids, *map(_floats, scores))
    return ", ".join([template] * len(ids)) % tuple(chain.from_iterable(zip(*columns)))


def _line(query: str, runs: Iterable[str]) -> str:
    return '{"query": %s, "results": [%s]}' % (encode_basestring(query),
                                               ", ".join(filter(None, runs)))


def _columns_line(query: str, columns: _Columns) -> str:
    """The JSON line of one query's merged columns: one run per source."""
    both, dr, nlg, texts = columns.both, columns.dr, columns.nlg, columns.texts
    nlg_of, dr_of = columns.nlg_scores.__getitem__, columns.dr_scores.__getitem__
    a, b = len(both), len(both) + len(dr)
    return _line(query, (
        _run(_BOTH, texts[:a], both, map(nlg_of, both), map(dr_of, both)),
        _run(_DR, texts[a:b], dr, map(dr_of, dr)),
        _run(_NLG, texts[b:], nlg, map(nlg_of, nlg)),
    ))


def results_to_jsonl_line(query: str, results: Sequence[RetrievalResult]) -> str:
    """The JSON line of ``query`` and its rows, in their order."""
    return json.dumps({"query": query, "results": [r.to_json_obj() for r in results]},
                      ensure_ascii=False)
