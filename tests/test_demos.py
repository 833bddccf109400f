"""The demos run to completion: no other test runs them, and they build
the library's records (``TrainingPair``, ``RetrievalResult``) by keyword."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", [
    "01_corpus_and_trie",
    "02_constrained_decoding",
    "03_train_unified_encoder",
    "04_ann_graph_search",
    "05_evaluation_metrics",
])
def test_demo_exits_0(tmp_path, name):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
