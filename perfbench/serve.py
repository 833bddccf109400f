"""Serving half of one benchmark run, in a process of its own.

``run.py`` starts this script after set-up, so its peak resident memory
is that of a process that loads a bundle and serves queries, and nothing
else.  It reaches the program only through ``unikw.cli.load_bundle``,
``unikw.retriever.retrieve`` (and ``retrieve_channels`` for the checks)
and ``unikw.cli.main(["retrieve", ...])``, looked up at call time so that
traced wrappers are seen.

The process runs one cycle of: cold ``load_bundle`` calls; warm-up; whole
closed-loop rounds of ``retrieve`` over the query file (one client) for
``--seconds`` and at least ``--min-samples`` calls; release of the bundle;
one batch ``unikw retrieve`` over the query file.  ``run.py`` starts one
such process after each set-up pass, so every phase is timed at several
places spread over the run.  The cycle also records the outputs the checks
need.  The speed probe of ``speed.py`` runs after every timed call and
around every load and batch, and every timed interval is reported at the
reference speed, next to its wall-clock time.

With ``--trace 1`` a second cycle runs with tracing on; its latency
rounds alternate with untraced ones, which give the tracer's overhead.
Results go to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import unikw.cli as cli  # noqa: E402
import unikw.retriever as retriever  # noqa: E402

from speed import BURST, Probe  # noqa: E402
from tracing import Tracer, install  # noqa: E402

WARMUP_QUERIES = 5
LOAD_SECONDS = 1.0  # cold loads per cycle: as many as fit, at least one


def peak_rss_mib() -> float:
    """This process's peak resident memory since it started.

    ``ru_maxrss`` is no use here: Linux carries the parent's peak over
    ``exec`` into the child's, so it would report the set-up's memory.
    The high-water mark in ``/proc/self/status`` belongs to this program
    image alone."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Serve:
    def __init__(self, args):
        self.args = args
        self.orders = tuple(args.orders.split(","))
        self.queries = [q for q in Path(args.queries).read_text(encoding="utf-8").splitlines() if q.strip()]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracers: dict[str, Tracer] = {}
        self.probe = Probe()

    def _op(self, fn, *args):
        """Run one operation, counting it and any failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # counted, reported, and the run goes on
            self.failed += 1
            self.failures.append(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            return None

    @contextlib.contextmanager
    def traced(self, phase: str, on: bool):
        """Trace the block into the phase's tracer when ``on``."""
        if not on:
            yield
            return
        uninstall = install(self.tracers.setdefault(phase, Tracer()))
        try:
            yield
        finally:
            uninstall()

    def load(self):
        return cli.load_bundle(self.args.bundle, beam_size=self.args.beam, orders=self.orders)

    def cold_loads(self):
        """Cold loads until LOAD_SECONDS have passed; returns the last
        bundle, which serves the cycle, and every load's (start, end)."""
        bundle, times = None, []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < LOAD_SECONDS:
            bundle = None  # release the previous bundle before the next load
            gc.collect()
            self.probe.sample(BURST)
            t0 = time.perf_counter()
            bundle = self._op(self.load)
            times.append((t0, time.perf_counter()))
            self.probe.sample(BURST)
            if bundle is None:
                break
        return bundle, times

    def latency_slice(self, bundle, seconds: float, min_rounds: int):
        """Whole rounds over the query file until both floors are reached.

        Returns one list of (start, end) per round, in query-file order,
        the encoder passes of every call and the first round's rows."""
        counter = bundle.params.forward_counter
        rounds, passes, rows = [], [], []
        start = time.perf_counter()
        while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
            latencies = []
            for query in self.queries:
                before = counter.count
                t0 = time.perf_counter()
                results = self._op(retriever.retrieve, bundle, query)
                latencies.append((t0, time.perf_counter()))
                self.probe.sample()
                passes.append(counter.count - before)
                if not rounds:
                    rows.append(None if results is None else
                                {"query": query, "results": [r.to_json_obj() for r in results]})
            rounds.append(latencies)
        return rounds, passes, rows

    def traced_latency(self, bundle, seconds: float, min_rounds: int):
        """Traced rounds, each after an untraced one, so that the two sets
        see the same machine and give the tracer's overhead."""
        traced, passes, untraced = [], [], []
        start = time.perf_counter()
        while len(traced) < min_rounds or time.perf_counter() - start < seconds:
            untraced += self.latency_slice(bundle, 0, 1)[0]
            with self.traced("query", True):
                rounds, calls, _ = self.latency_slice(bundle, 0, 1)
            traced += rounds
            passes += calls
        return traced, passes, untraced

    def batch(self) -> tuple[float, float] | None:
        """(start, end) of one `unikw retrieve` over the query file; None if it failed."""
        argv = [
            "retrieve", "--bundle-dir", str(self.args.bundle), "--queries", self.args.queries,
            "--beam", str(self.args.beam), "--orders", self.args.orders, "--out", self.args.batch_out,
        ]
        self.attempted += 1
        self.probe.sample(BURST)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # counted, reported, and the run goes on
            code = f"{type(exc).__name__}: {exc}"
        elapsed = (t0, time.perf_counter())
        self.probe.sample(BURST)
        if code != 0:
            self.failed += 1
            self.failures.append(f"unikw retrieve: {code}")
            return None
        return elapsed

    def cycle(self, traced: bool, out: dict) -> bool:
        """One load / latency slice / batch cycle; False if the load failed."""
        with self.traced("load", traced):
            bundle, load_s = self.cold_loads()
        if bundle is None:
            return False
        for query in self.queries[:WARMUP_QUERIES]:
            self._op(retriever.retrieve, bundle, query)
        min_rounds = math.ceil(self.args.min_samples / len(self.queries))
        if traced:  # the overhead rests on several traced / untraced pairs
            rounds, passes, out["untraced_pair_rounds_ms"] = self.traced_latency(
                bundle, self.args.seconds, max(min_rounds, 2))
        else:
            rounds, passes, rows = self.latency_slice(bundle, self.args.seconds, min_rounds)
            out["library_rows"] = rows
            channels = [self._op(retriever.retrieve_channels, bundle, q) for q in self.queries]
            out["channels"] = [None if c is None else [list(map(list, c[0])), list(map(list, c[1]))]
                               for c in channels]
        del bundle  # the batch below loads its own copy; never hold two
        gc.collect()
        with self.traced("batch", traced):
            batch_s = self.batch()
        prefix = "traced_" if traced else ""
        out[prefix + "load_s"] += load_s
        out[prefix + "rounds_ms"] += rounds
        out[prefix + "forward_passes"] += passes
        if batch_s is not None:
            out[prefix + "batch_s"].append(batch_s)
        return True

    def run(self) -> dict:
        out = {"queries": len(self.queries)}
        for prefix in ("", "traced_"):
            for key in ("load_s", "rounds_ms", "forward_passes", "batch_s"):
                out[prefix + key] = []
        if self.cycle(False, out) and self.args.trace:
            self.cycle(True, out)
        # Each timed interval at the reference speed; wall times go to the record.
        scale = self.probe.scale
        for key, intervals in list(out.items()):
            if key.endswith(("load_s", "batch_s")):
                out[key] = [scale(*iv) for iv in intervals]
                out["wall_" + key] = [t1 - t0 for t0, t1 in intervals]
            elif key.endswith("rounds_ms"):
                out[key] = [[scale(*iv) * 1e3 for iv in r] for r in intervals]
                out["wall_" + key] = [[(t1 - t0) * 1e3 for t0, t1 in r] for r in intervals]
        out["probe_ms"] = 1e3 * self.probe.median_s()
        out["peak_rss_mib"] = peak_rss_mib()
        out.update(attempted=self.attempted, failed=self.failed, failures=self.failures,
                   traces={phase: t.export() for phase, t in self.tracers.items()})
        return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bundle", required=True)
    parser.add_argument("--queries", required=True)
    parser.add_argument("--beam", type=int, required=True)
    parser.add_argument("--orders", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-samples", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--batch-out", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    result = Serve(args).run()
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
