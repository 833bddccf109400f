"""Graph-based approximate nearest neighbor search vs the exact oracle.

Builds the navigable graph (batched beam search + robust pruning,
reciprocal edges) at its fixed settings, measures recall and per-query
time against the exhaustive scan at k = 10 and k = 100, times build and
search against the exact scan at two catalog sizes, and shows leader
clustering collapsing near-duplicate vectors into representatives.  Runs
in about six seconds on a 2-vCPU machine.

BLAS runs on one thread, as in the benchmark: with threaded OpenBLAS the
exact scan of 32,000 rows was seen to run some 60x slower in some
processes.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy is imported

import time  # noqa: E402

import numpy as np  # noqa: E402

from unikw import build_exact, build_graph, cluster_keywords, search  # noqa: E402

rng = np.random.default_rng(0)
n, dim = 4000, 32
vectors = rng.normal(size=(n, dim))
vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
dupes = vectors[:400] + rng.normal(0, 1e-4, (400, dim))  # 10% near-duplicates, clustered below
ids = np.arange(n)

t0 = time.perf_counter()
graph = build_graph(vectors, ids, seed=0)
print(f"graph over {n} vectors in {time.perf_counter() - t0:.1f}s, "
      f"mean out-degree {np.diff(graph.offsets).mean():.1f}")

exact = build_exact(vectors, ids)
queries = rng.normal(size=(100, dim))

print("\nrecall and latency against the exhaustive scan:")
for k in (10, 100):
    hits = 0
    graph_s = exact_s = 0.0
    for q in queries:
        t0 = time.perf_counter()
        want = {kid for kid, _ in search(exact, q, k)}
        t1 = time.perf_counter()
        got = {kid for kid, _ in search(graph, q, k)}
        graph_s += time.perf_counter() - t1
        exact_s += t1 - t0
        hits += len(want & got)
    print(f"  k = {k:3d}: recall {hits / (k * len(queries)):.4f}  "
          f"graph {graph_s / len(queries) * 1e3:.2f} ms/query  "
          f"exact {exact_s / len(queries) * 1e3:.2f} ms/query")


# Where does the graph pay?  Width 16, as the encoder's dense head; k = 10.
# Each time is the best of three passes over the probes.
def per_query_ms(index, probes):
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for q in probes:
            search(index, q, 10)
        best = min(best, time.perf_counter() - t0)
    return best / len(probes) * 1e3


print("\nbuild and per-query time at width 16 (k = 10):")
print("      rows  graph build  graph ms/query  exact ms/query")
for size in (2_000, 8_000):
    rows = rng.normal(size=(size, 16))
    t0 = time.perf_counter()
    graph = build_graph(rows, np.arange(size), seed=0)
    build_s = time.perf_counter() - t0
    probes = rng.normal(size=(200, 16))
    graph_ms = per_query_ms(graph, probes)
    exact_ms = per_query_ms(build_exact(rows, np.arange(size)), probes)
    print(f"  {size:8d}  {build_s:9.1f} s  {graph_ms:14.3f}  {exact_ms:14.3f}")

# Leader clustering: the planted near-duplicates collapse into their originals.
all_vectors = np.vstack([vectors, dupes])
all_ids = np.arange(len(all_vectors))
mapping = cluster_keywords(all_vectors, all_ids, similarity_threshold=0.999)
reps = sorted({r for r in mapping.values()})
print(f"\nleader clustering at 0.999: {len(all_ids)} keywords -> {len(reps)} "
      f"representatives ({1 - len(reps) / len(all_ids):.1%} smaller index)")
sample = 4321
print(f"duplicate id {sample} maps to representative {mapping[sample]}")
