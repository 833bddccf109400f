"""Shared fixtures plus a per-criterion summary for the acceptance suite."""

from __future__ import annotations

import numpy as np
import pytest

from unikw import (
    DecodeConfig,
    EngineBundle,
    FORWARD,
    REVERSED,
    Vocab,
    build_exact,
    build_trie,
    embed_batch,
    init_params,
    tokenize,
)

_acceptance_results: list[tuple[str, str]] = []


def bundle_from_catalog(
    catalog: list[str],
    params=None,
    max_len: int = 8,
    beam_size: int = 20,
    dense_k: int = 20,
    seed: int = 0,
) -> EngineBundle:
    """Assemble a consistent engine over a catalog; random params unless given."""
    tokens = sorted({t for text in catalog for t in text.lower().split()})
    vocab = Vocab.from_tokens(tokens)
    if params is None:
        params = init_params(len(vocab), dim=16, dense_dim=8, hidden_dim=24,
                             max_len=max_len, seed=seed)
    entries = [
        (tokenize(text, vocab, "keyword", max_len), kid)
        for kid, text in enumerate(catalog)
    ]
    checksum = vocab.checksum()
    vectors = embed_batch(params, [seq for seq, _ in entries])
    return EngineBundle(
        params=params,
        vocab=vocab,
        catalog=tuple(catalog),
        forward_trie=build_trie(entries, FORWARD, checksum),
        reversed_trie=build_trie(entries, REVERSED, checksum),
        index=build_exact(vectors, np.arange(len(catalog))),
        decode=DecodeConfig(beam_size=beam_size),
        dense_k=dense_k,
    )


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance_results.append((report.nodeid.split("::")[-1], report.outcome))


def pytest_terminal_summary(terminalreporter):
    if _acceptance_results:
        terminalreporter.section("acceptance criteria")
        for name, outcome in _acceptance_results:
            terminalreporter.write_line(f"{name}: {outcome.upper()}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


@pytest.fixture
def tiny_vocab():
    return Vocab.from_tokens(["a", "b", "c", "d", "e"])
