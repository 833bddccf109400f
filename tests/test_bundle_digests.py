"""The bundle digest tool's listing and compare logic, on a fake bundle."""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bundle_digests  # noqa: E402


def fake_bundle(directory: Path) -> Path:
    directory.mkdir()
    for name, data in (("vocab.txt", b"red\nshoes\n"), ("encoder.kenc", b"KENC"),
                       ("retrieve.jsonl", b"{}\n"), ("keywords.txt", b"red shoes\n"),
                       ("index.meta.json", b"{}")):
        (directory / name).write_bytes(data)
    return directory


def test_lists_only_written_artifacts(tmp_path):
    found = bundle_digests.digests(fake_bundle(tmp_path / "b"))
    assert list(found) == ["vocab.txt", "encoder.kenc", "retrieve.jsonl"]
    assert found["vocab.txt"] == hashlib.sha256(b"red\nshoes\n").hexdigest()[:12]


def test_lines_round_trip_and_agree(tmp_path):
    found = bundle_digests.digests(fake_bundle(tmp_path / "b"))
    lines = bundle_digests.format_lines("graph5k", found)
    table = bundle_digests.parse_lines("\n".join(lines) + "\n\n")
    assert table == {("graph5k", name): digest for name, digest in found.items()}
    assert bundle_digests.mismatches(table, table, ["graph5k"]) == []


def test_names_each_file_that_differs(tmp_path):
    b = fake_bundle(tmp_path / "b")
    expected = {("graph5k", name): digest for name, digest in bundle_digests.digests(b).items()}
    expected["prefix100k", "vocab.txt"] = "000000000000"  # a workload not built: ignored
    (b / "encoder.kenc").write_bytes(b"KENC2")
    (b / "retrieve.jsonl").unlink()
    (b / "graph.kgra").write_bytes(b"KGRA")
    found = {("graph5k", name): digest for name, digest in bundle_digests.digests(b).items()}
    problems = bundle_digests.mismatches(expected, found, ["graph5k"])
    assert [p.split(":")[0] for p in problems] == [
        "graph5k encoder.kenc", "graph5k graph.kgra", "graph5k retrieve.jsonl"]
    assert "not built" in problems[2] and "not expected" in problems[1]


def test_rejects_a_malformed_line():
    with pytest.raises(ValueError, match="line 2"):
        bundle_digests.parse_lines("graph5k vocab.txt be0269a7355c\ngraph5k vocab.txt\n")
