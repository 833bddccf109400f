"""Seeded input generators for the benchmark's three workloads.

Each generator returns a :class:`Workload`: the text files a user would
hand to the ``unikw`` pipeline (catalog, training pairs, queries, train
config) plus the flags for ``index`` and ``retrieve``.  Nothing here
imports from ``tests/`` or from ``unikw``, so neither a test edit nor a
program change can alter a workload's inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Workload:
    name: str
    keywords: list[str]                 # catalog; line number is the keyword id
    pairs: list[tuple[str, str]]        # (query text, keyword text) training pairs
    queries: list[str]                  # served queries, in file order
    train_config: dict
    index_args: list[str]               # extra flags for `unikw index`
    beam: int
    orders: tuple[str, ...]
    gold: list[int] | None = None       # gold keyword id per query (trained-synth only)

    def write(self, directory: Path) -> dict[str, Path]:
        """Materialize the inputs as the files the CLI reads."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {
            "keywords": directory / "keywords.txt",
            "pairs": directory / "pairs.tsv",
            "queries": directory / "queries.txt",
            "train_config": directory / "train.json",
        }
        paths["keywords"].write_text("\n".join(self.keywords) + "\n", encoding="utf-8")
        paths["pairs"].write_text(
            "".join(f"{q}\t{k}\n" for q, k in self.pairs), encoding="utf-8"
        )
        paths["queries"].write_text("".join(q + "\n" for q in self.queries), encoding="utf-8")
        paths["train_config"].write_text(json.dumps(self.train_config), encoding="utf-8")
        return paths


def _partial_copy(words: list[str], rng: np.random.Generator) -> str:
    """A query that keeps a random non-empty subset of the keyword's words."""
    keep = int(rng.integers(1, len(words) + 1))
    picked = sorted(rng.choice(len(words), size=keep, replace=False).tolist())
    return " ".join(words[i] for i in picked)


def _brief_training(seed: int) -> dict:
    return {
        "epochs": 2, "batch_size": 64, "cluster_count": 4,
        "negatives_per_positive": 2, "learning_rate": 0.2, "momentum": 0.8,
        "dim": 32, "dense_dim": 16, "hidden_dim": 64, "max_len": 8, "seed": seed,
    }


def prefix100k(seed: int) -> Workload:
    """50 brands x 100 models x 20 colours: a deep, heavily shared trie."""
    keywords = [
        f"brand{b:02d} model{m:03d} colour{c:02d}"
        for b in range(50)
        for m in range(100)
        for c in range(20)
    ]
    rng = np.random.default_rng(seed)

    def sample(n: int) -> list[tuple[str, str]]:
        out = []
        for kid in rng.integers(0, len(keywords), size=n).tolist():
            out.append((_partial_copy(keywords[kid].split(), rng), keywords[kid]))
        return out

    pairs = sample(2000)
    queries = [q for q, _ in sample(20)]
    return Workload(
        name="prefix100k", keywords=keywords, pairs=pairs, queries=queries,
        train_config=_brief_training(seed), index_args=["--kind", "exact"],
        beam=100, orders=("l2r", "r2l"),
    )


def graph5k(seed: int) -> Workload:
    """~5k keywords of 1-4 words drawn Zipf-like from 400 words: a wide,
    shallow trie whose prefixes are rarely shared, served by the graph index.

    The catalog, the training pairs and the training seed are one fixed
    draw, so that runs differ only in queries and the graph's insertion
    order (``index --seed``): with a per-seed encoder, decoding cost moved
    between seeds by more than the host's noise."""
    draw = np.random.default_rng(5000)
    words = [f"w{i:03d}" for i in range(400)]
    weights = 1.0 / np.arange(1, len(words) + 1)
    weights /= weights.sum()
    seen: set[str] = set()
    keywords: list[str] = []
    while len(keywords) < 5000:
        length = int(draw.integers(1, 5))
        text = " ".join(words[i] for i in draw.choice(len(words), size=length, p=weights))
        if text not in seen:
            seen.add(text)
            keywords.append(text)

    def sample(rng: np.random.Generator, n: int) -> list[tuple[str, str]]:
        out = []
        for kid in rng.integers(0, len(keywords), size=n).tolist():
            out.append((_partial_copy(keywords[kid].split(), rng), keywords[kid]))
        return out

    pairs = sample(draw, 2000)
    queries = [q for q, _ in sample(np.random.default_rng(seed), 150)]
    return Workload(
        name="graph5k", keywords=keywords, pairs=pairs, queries=queries,
        train_config=_brief_training(5000), index_args=["--kind", "graph"],
        beam=10, orders=("l2r",),
    )


def trained_synth(seed: int) -> Workload:
    """Every keyword owns two private words; queries are noisy copies, so
    each has exactly one gold keyword and both channels can learn it."""
    rng = np.random.default_rng(seed)
    keywords = [f"kw{2 * i:03d} kw{2 * i + 1:03d}" for i in range(200)]
    noise = [f"noise{j}" for j in range(8)]

    def sample(n: int) -> list[tuple[str, int]]:
        out = []
        for _ in range(n):
            kid = int(rng.integers(0, len(keywords)))
            tokens = keywords[kid].split()
            if rng.random() < 0.5:
                tokens.insert(int(rng.integers(0, len(tokens) + 1)), str(rng.choice(noise)))
            out.append((" ".join(tokens), kid))
        return out

    train_pairs = sample(1000)
    heldout = sample(200)
    config = {
        "epochs": 40, "batch_size": 64, "cluster_count": 4,
        "negatives_per_positive": 2, "learning_rate": 0.2, "momentum": 0.8,
        "margin": 0.3, "nlg_weight": 1.0, "dim": 32, "dense_dim": 16,
        "hidden_dim": 96, "max_len": 4, "seed": seed,
    }
    return Workload(
        name="trained-synth", keywords=keywords,
        pairs=[(q, keywords[k]) for q, k in train_pairs],
        queries=[q for q, _ in heldout], gold=[k for _, k in heldout],
        train_config=config, index_args=["--kind", "exact"],
        beam=100, orders=("l2r", "r2l"),
    )


WORKLOADS = {"prefix100k": prefix100k, "graph5k": graph5k, "trained-synth": trained_synth}
