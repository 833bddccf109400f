"""The benchmark's tracer wraps program functions by name; a renamed or
deleted one would only show in a traced benchmark run."""

import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = _load_tracing()
    table = tracing._patch_table(tracing.Tracer())
    assert table
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in table if not hasattr(owner, attr)]
    assert not missing, missing
