"""Command-line surface. One subcommand per pipeline stage.

Conventions shared by every command:

  * global flags ``--seed`` and ``--config`` (a JSON file, in any spelling
    argparse accepts, whose keys override built-in defaults; explicit flags
    win over both, but a ``train --config-file`` that sets a seed wins over
    ``--seed``);
  * ``build-vocab`` rejects a blank keyword line, as ``build-trie`` does;
  * deterministic outputs under a fixed seed;
  * a metadata block (tool version, seed, effective config and its hash)
    embedded in JSON outputs and written to ``<out>.meta.json`` next to
    JSONL outputs;
  * exit codes: 0 ok, 2 validation (usage errors and a diverged training
    run included), 3 I/O, 4 internal consistency, with a machine-readable
    error JSON on stderr.

Bundle directories use fixed file names: ``vocab.txt``, ``keywords.txt``,
``encoder.kenc``, ``trie.fwd.ktri``, ``trie.rev.ktri``,
``embeddings.kemb`` and, for graph indexes, ``graph.kgra`` (plus
``reps.tsv`` when keyword clustering was applied).  ``index --kind graph``
takes no graph settings but ``--seed``: ``dense_index`` fixes the rest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    DEFAULT_MAX_LEN,
    build_vocab,
    load_keywords,
    load_pairs,
    load_vocab,
    save_vocab,
    tokenize,
    tokenize_batch,
)
from .decoder import DecodeConfig, permutation_decode
from .dense_index import (
    DenseIndex,
    build_exact,
    build_graph,
    cluster_keywords,
    load_embeddings,
    load_graph,
    save_embeddings,
    save_graph,
    search,
)
from .encoder import (  # noqa: F401 -- embed_batch is kept so the benchmark's tracer finds it
    TrainConfig,
    embed_batch,
    embed_flat,
    encode,
    load_params,
    save_params,
    train,
)
from .errors import ConsistencyError, TrainingDiverged, ValidationError
from .evaluation import compute_metrics, load_labels, token_overlap_scorer
from .retriever import (
    EngineBundle,
    beside,
    overlap_stats,
    results_to_jsonl_line,  # noqa: F401 -- kept so the benchmark's tracer finds it
    retrieve,
    retrieve_lines,
)
from .trie import (  # noqa: F401 -- build_trie is kept so the benchmark's tracer finds it
    FORWARD,
    REVERSED,
    build_trie,
    build_trie_arrays,
    deserialize,
    memory_stats,
    serialize,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_CONSISTENCY = 4


def _meta(args: argparse.Namespace, command: str) -> dict:
    settings = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("handler", "config") and not k.startswith("_")
    }
    canonical = json.dumps(settings, sort_keys=True, default=str)
    return {
        "tool": "unikw",
        "version": __version__,
        "command": command,
        "seed": getattr(args, "seed", 0),
        "config": settings,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest()[:16],
    }


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, ensure_ascii=False)
        f.write("\n")


def _write_sidecar_meta(out_path, meta: dict) -> None:
    _write_json(str(out_path) + ".meta.json", meta)


def _read_queries(path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f if line.strip()]


def _read_results_jsonl(path) -> list[dict]:
    """Rows written by ``retrieve``: a query and its results, each with id and keyword."""
    rows = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    for n, row in enumerate(rows, 1):
        results = row.get("results") if isinstance(row, dict) else None
        if (
            not isinstance(results, list)
            or not isinstance(row.get("query"), str)
            or not all(isinstance(r, dict) and type(r.get("id")) is int
                       and isinstance(r.get("keyword"), str) for r in results)
        ):
            raise ValidationError(f"{path}: row {n} needs a query and a results list of "
                                  "objects with an integer id and a keyword text")
    return rows


# ---------------------------------------------------------------- commands


def cmd_build_vocab(args) -> int:
    vocab = build_vocab(args.keywords, args.pairs, args.min_count)
    save_vocab(vocab, args.out)
    _write_sidecar_meta(args.out, _meta(args, "build-vocab"))
    print(f"wrote {len(vocab)} token vocab (incl. 3 reserved) to {args.out}")
    return EXIT_OK


def cmd_build_trie(args) -> int:
    vocab = load_vocab(args.vocab)
    keywords = load_keywords(args.keywords)
    direction = FORWARD if args.direction == "fwd" else REVERSED
    tokens, lengths = tokenize_batch(keywords, vocab, "keyword", args.max_len)
    ids = np.arange(len(keywords), dtype=np.int64)
    trie = build_trie_arrays(tokens, lengths, ids, direction, vocab.checksum())
    stats = memory_stats(trie, serialized_bytes=serialize(trie, args.out))
    _write_json(str(args.out) + ".stats.json", {"meta": _meta(args, "build-trie"), "stats": stats})
    print(f"wrote {direction} trie: {stats['nodes']} nodes, {stats['serialized_bytes']} bytes")
    return EXIT_OK


def cmd_train(args) -> int:
    vocab = load_vocab(args.vocab)
    if args.config_file:
        with open(args.config_file, encoding="utf-8") as f:
            text = f.read()
        config = TrainConfig.from_json(text)
        if "seed" not in json.loads(text):  # a file's seed wins; a seedless file takes --seed
            config = replace(config, seed=args.seed)
    else:
        config = TrainConfig(seed=args.seed)
    pairs, malformed = load_pairs(args.pairs, vocab, max_len=config.max_len)
    result = train(config, pairs, vocab)
    save_params(result.params, args.out)
    meta = _meta(args, "train")
    meta["seed"] = config.seed  # a --config-file's seed overrides --seed
    meta["train_config"] = json.loads(config.to_json())
    meta["epoch_losses"] = result.epoch_losses
    meta["malformed_pairs"] = malformed
    _write_sidecar_meta(args.out, meta)
    print(
        f"trained {config.epochs} epochs on {len(pairs)} pairs; "
        f"loss {result.epoch_losses[0]:.4f} -> {result.epoch_losses[-1]:.4f}"
    )
    return EXIT_OK


def cmd_index(args) -> int:
    params = load_params(args.checkpoint)
    vocab = load_vocab(args.vocab)
    keywords = load_keywords(args.keywords)
    vectors = embed_flat(params, *tokenize_batch(keywords, vocab, "keyword", params.max_len))
    ids = np.arange(len(keywords), dtype=np.int64)

    reps_text, graph, rep_note = None, None, ""
    if args.cluster_threshold is not None:
        mapping = cluster_keywords(vectors, ids, args.cluster_threshold)
        reps_text = "".join(f"{kid}\t{mapping[kid]}\n" for kid in sorted(mapping))
        reps = np.array(sorted(set(mapping.values())), dtype=np.int64)
        vectors, ids = vectors[reps], reps
        rep_note = f" ({len(reps)} representatives of {len(keywords)})"
    if args.kind == "graph":
        graph = build_graph(vectors, ids, seed=args.seed)

    # Only now, with everything built, is the bundle touched: a bad flag
    # leaves it as it was.  Drop what an earlier index run wrote and this
    # one does not rewrite: load_bundle serves graph.kgra whenever it exists.
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in ("reps.tsv", "graph.kgra"):
        (out_dir / stale).unlink(missing_ok=True)
    if reps_text is not None:
        (out_dir / "reps.tsv").write_text(reps_text, encoding="utf-8")
    save_embeddings(out_dir / "embeddings.kemb", vectors, ids)
    if graph is not None:
        save_graph(out_dir / "graph.kgra", graph)
    _write_json(out_dir / "index.meta.json", {"meta": _meta(args, "index"), "count": len(ids)})
    print(f"indexed {len(ids)} keywords{rep_note} ({args.kind}) into {out_dir}")
    return EXIT_OK


def _load_groups(path) -> dict[int, tuple[int, ...]]:
    """``reps.tsv``, one ``keyword id<TAB>representative id`` line per
    keyword, as representative -> its keyword ids, ascending."""
    groups: dict[int, list[int]] = {}
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 2 or not all(field.isascii() and field.isdigit() for field in fields):
                raise ValidationError(f"{path}: line {n} is not 'keyword id<TAB>representative id'")
            kid, rep = int(fields[0]), int(fields[1])
            groups.setdefault(rep, []).append(kid)
    return {rep: tuple(sorted(members)) for rep, members in groups.items()}


def load_bundle(
    bundle_dir,
    beam_size: int = DecodeConfig.beam_size,
    orders: tuple[str, ...] = DecodeConfig.orders,
    prune_threshold: float = DecodeConfig.prune_threshold,
    dense_k: int = EngineBundle.dense_k,
) -> EngineBundle:
    """The EngineBundle of a bundle directory, checked as it is built.

    Each framed part's checksum is checked as the part is read, before it
    is parsed, by the thread that reads it.  The index serves the embedding
    rows from the buffer ``load_embeddings`` read them into.

    When the KEMB file's size passes ``retriever.worker_pool``'s gate (the
    read, its hash and the row check all scale with it), the dense index
    (``load_embeddings``, then ``load_graph`` or ``build_exact``) loads on
    the retriever's worker while this thread loads the vocab, the catalog,
    the encoder and the tries; otherwise it loads after them.  A file that
    cannot be stat'ed weighs 0, so its load runs in turn and reports the
    file's own error.  A failure is reported as in turn (``retriever.beside``):
    this thread's parts first, then the index, the groups and
    ``EngineBundle.validate``."""
    d = Path(bundle_dir)
    try:
        kemb_bytes = os.stat(d / "embeddings.kemb").st_size
    except OSError:
        kemb_bytes = 0

    def parts() -> tuple:
        return (load_vocab(d / "vocab.txt"), load_keywords(d / "keywords.txt"),
                load_params(d / "encoder.kenc"), deserialize(d / "trie.fwd.ktri"),
                deserialize(d / "trie.rev.ktri"))

    index, (vocab, catalog, params, fwd, rev) = beside(kemb_bytes, _load_index, (d,), parts)
    reps_path = d / "reps.tsv"
    return EngineBundle(
        params=params,
        vocab=vocab,
        catalog=catalog,
        forward_trie=fwd,
        reversed_trie=rev,
        index=index,
        decode=DecodeConfig(beam_size=beam_size, prune_threshold=prune_threshold, orders=orders),
        dense_k=dense_k,
        groups=_load_groups(reps_path) if reps_path.exists() else None,
    )


def _load_index(d: Path) -> DenseIndex:
    """The dense index of bundle directory ``d``: its rows, and its graph
    when it has one."""
    vectors, ids = load_embeddings(d / "embeddings.kemb")
    graph_path = d / "graph.kgra"
    if graph_path.exists():
        return load_graph(graph_path, vectors, ids)
    return build_exact(vectors, ids)


def _parse_orders(text: str) -> tuple[str, ...]:
    """The comma-separated orders; ``DecodeConfig`` checks them."""
    return tuple(o.strip() for o in text.split(",") if o.strip())


def cmd_retrieve(args) -> int:
    bundle = load_bundle(
        args.bundle_dir,
        beam_size=args.beam,
        orders=_parse_orders(args.orders),
        prune_threshold=args.prune,
        dense_k=args.topk,
    )
    queries = _read_queries(args.queries)
    # retrieve_lines serves the queries a chunk at a time as its lines are
    # taken, so each chunk's lines are written, and its results freed, before
    # the next chunk runs.  They go to a temporary file beside --out that
    # replaces it only once every chunk has succeeded.
    out = Path(args.out)
    partial = out.with_name(f".{out.name}.{os.getpid()}.partial")
    try:
        with open(partial, "w", encoding="utf-8") as f:
            f.writelines(map("{}\n".format, retrieve_lines(bundle, queries)))
        os.replace(partial, out)
    finally:
        partial.unlink(missing_ok=True)
    _write_sidecar_meta(args.out, _meta(args, "retrieve"))
    print(f"retrieved for {len(queries)} queries -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    rows = _read_results_jsonl(args.results)
    ranked = [(row["query"], [r["id"] for r in row["results"]]) for row in rows]
    texts = [(row["query"], [r["keyword"] for r in row["results"]]) for row in rows]
    labels = load_labels(args.labels, args.propensities)
    ks = [int(x) for x in args.ks.split(",") if x]
    thresholds = [float(x) for x in args.thresholds.split(",") if x]
    scorer = token_overlap_scorer(args.scorer_match) if args.scorer == "overlap" else None
    metrics = compute_metrics(
        ranked, labels, ks, retrieved_texts=texts, scorer=scorer, thresholds=thresholds
    )
    _write_json(args.out, {"meta": _meta(args, "eval"), "metrics": metrics})
    print(json.dumps(metrics, indent=2))
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.repeat < 1:
        raise ValidationError(f"--repeat must be >= 1, got {args.repeat}")
    queries = _read_queries(args.queries)
    if not queries:
        raise ValidationError(f"{args.queries}: no queries to bench")
    beams = [int(b) for b in args.beams.split(",") if b.strip()]
    if not beams or len(set(beams)) != len(beams):
        raise ValidationError(f"--beams needs distinct beam sizes, got {args.beams!r}")
    orders = _parse_orders(args.orders)
    report = {"meta": _meta(args, "bench"), "queries": len(queries), "beams": []}

    base = load_bundle(args.bundle_dir)
    dense_k = min(base.dense_k, len(base.index))
    encoded = [
        encode(base.params, tokenize(q, base.vocab, "query", base.params.max_len))
        for q in queries
    ]
    for beam in beams:
        bundle = replace(base, decode=replace(base.decode, beam_size=beam, orders=orders))
        end_to_end: list[float] = []
        decode_only: list[float] = []
        dense_only: list[float] = []
        forwards_before = bundle.params.forward_counter.count
        for _ in range(args.repeat):
            for query in queries:
                t0 = time.perf_counter()
                retrieve(bundle, query)
                end_to_end.append((time.perf_counter() - t0) * 1e3)
            for out in encoded:
                t0 = time.perf_counter()
                permutation_decode(
                    out.nar_logprobs, bundle.forward_trie, bundle.reversed_trie, bundle.decode
                )
                decode_only.append((time.perf_counter() - t0) * 1e3)
                t0 = time.perf_counter()
                search(bundle.index, out.dr_embedding, dense_k)
                dense_only.append((time.perf_counter() - t0) * 1e3)
        forwards = bundle.params.forward_counter.count - forwards_before
        per_query = forwards / (len(queries) * args.repeat)

        def stats(xs: list[float]) -> dict:
            arr = np.array(xs)
            return {
                "mean_ms": float(arr.mean()),
                "p50_ms": float(np.percentile(arr, 50)),
                "p90_ms": float(np.percentile(arr, 90)),
                "p99_ms": float(np.percentile(arr, 99)),
            }

        report["beams"].append(
            {
                "beam": beam,
                "forward_passes_per_query": per_query,
                "end_to_end": stats(end_to_end),
                "decode": stats(decode_only),
                "dense": stats(dense_only),
            }
        )
    if args.out:
        _write_json(args.out, report)
    print(json.dumps(report["beams"], indent=2))
    return EXIT_OK


def cmd_overlap(args) -> int:
    def pair_set(path):
        return {
            (row["query"], r["id"])
            for row in _read_results_jsonl(path)
            for r in row["results"]
        }

    stats = overlap_stats(pair_set(args.results_a), pair_set(args.results_b))
    payload = {"meta": _meta(args, "overlap"), "overlap": stats}
    if args.out:
        _write_json(args.out, payload)
    print(json.dumps(stats, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 2 with the error JSON, as any bad input
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="unikw",
        description="Unified keyword retrieval: trie-decoded generative + dense channels",
    )
    parser.add_argument("--version", action="version", version=f"unikw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None, help="JSON file overriding flag defaults")

    p = sub.add_parser("build-vocab", help="build a vocabulary file")
    common(p)
    p.add_argument("--keywords", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_build_vocab)

    p = sub.add_parser("build-trie", help="build a keyword trie file")
    common(p)
    p.add_argument("--keywords", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--direction", choices=("fwd", "rev"), default="fwd")
    p.add_argument("--max-len", type=int, default=DEFAULT_MAX_LEN)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_build_trie)

    p = sub.add_parser("train", help="train the two-headed encoder")
    common(p)
    p.add_argument("--pairs", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--config-file", default=None, help="TrainConfig JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("index", help="embed the catalog and build an index")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--keywords", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--kind", choices=("exact", "graph"), default="exact")
    p.add_argument("--cluster-threshold", type=float, default=None)
    p.add_argument("--out", required=True, help="bundle directory")
    p.set_defaults(handler=cmd_index)

    p = sub.add_parser("retrieve", help="run unified retrieval over queries")
    common(p)
    p.add_argument("--bundle-dir", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--beam", type=int, default=DecodeConfig.beam_size)
    p.add_argument("--orders", default=",".join(DecodeConfig.orders))
    p.add_argument("--prune", type=float, default=DecodeConfig.prune_threshold)
    p.add_argument("--topk", type=int, default=EngineBundle.dense_k)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_retrieve)

    p = sub.add_parser("eval", help="score a results file against labels")
    common(p)
    p.add_argument("--results", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--propensities", default=None)
    p.add_argument("--scorer", choices=("overlap", "none"), default="none")
    p.add_argument("--scorer-match", choices=("exact", "phrase"), default="exact")
    p.add_argument("--ks", default="1,5,10")
    p.add_argument("--thresholds", default="0.5,0.7")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("bench", help="latency / forward-pass report across beams")
    common(p)
    p.add_argument("--bundle-dir", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--beams", default="10,50,100")
    p.add_argument("--orders", default=",".join(DecodeConfig.orders))
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("overlap", help="overlap stats between two result files")
    common(p)
    p.add_argument("--results-a", required=True)
    p.add_argument("--results-b", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_overlap)

    return parser


def _apply_config_file(parser: argparse.ArgumentParser, path: str) -> None:
    """Let the --config JSON at ``path`` override subcommand defaults (flags still win)."""
    if not path:
        raise ValidationError("--config needs a JSON file path")
    with open(path, encoding="utf-8") as f:
        overrides = json.load(f)
    if not isinstance(overrides, dict):
        raise ValidationError("--config must contain a JSON object")
    # Defaults apply to every subparser that knows the key; unknown keys fail.
    subparsers = [
        sp
        for action in parser._subparsers._group_actions  # noqa: SLF001
        for sp in action.choices.values()
    ]
    known = {a.dest for sp in subparsers for a in sp._actions}  # noqa: SLF001
    unknown = set(overrides) - known
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for sp in subparsers:
        sp.set_defaults(**{a.dest: _config_value(sp, a, overrides[a.dest])
                           for a in sp._actions if a.dest in overrides})  # noqa: SLF001


def _config_value(parser: argparse.ArgumentParser, action: argparse.Action, value):
    """A --config value parsed as its text on the command line would be;
    null only where the flag's default is None."""
    if value is None and action.default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (str, int, float) if action.type else str):
        raise ValidationError(f"--config {action.dest}: {json.dumps(value)} is not a valid value")
    try:
        return parser._get_values(action, [str(value)])  # noqa: SLF001
    except argparse.ArgumentError as exc:
        raise ValidationError(f"--config {action.dest}: {exc}") from exc


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:  # argparse found it, in whatever spelling
            _apply_config_file(parser, args.config)
            args = parser.parse_args(argv)
        return args.handler(args)
    except (ValidationError, ValueError, RecursionError) as exc:  # bad inputs, deep JSON too
        _emit_error(EXIT_VALIDATION, "validation", exc)
        return EXIT_VALIDATION
    except TrainingDiverged as exc:  # the settings, usually the learning rate, do not train
        _emit_error(EXIT_VALIDATION, "diverged", exc)
        return EXIT_VALIDATION
    except ConsistencyError as exc:
        _emit_error(EXIT_CONSISTENCY, "consistency", exc)
        return EXIT_CONSISTENCY
    except OSError as exc:
        _emit_error(EXIT_IO, "io", exc)
        return EXIT_IO


def _emit_error(code: int, kind: str, exc: Exception) -> None:
    print(json.dumps({"error": {"code": code, "kind": kind, "message": str(exc)}}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
