"""The bundle digest tool's listing and compare logic, on a fake bundle."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

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


def test_seed_1_builds_the_committed_bytes():
    """Both workloads built and served at seed 1 give the files listed in
    ``tools/digests-seed1.txt``, so a change that claims the same bytes is
    held to it.  The listing was made with numpy 2.4 and OpenBLAS 0.3.31
    (DYNAMIC_ARCH) on x86-64; another BLAS build may round the encoder's
    products differently.  The tool runs in a subprocess because it sets
    the BLAS thread count before numpy is first imported."""
    done = subprocess.run(
        [sys.executable, str(TOOLS / "bundle_digests.py"), "--seed", "1",
         "--expect", str(TOOLS / "digests-seed1.txt")],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
