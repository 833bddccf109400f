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


def test_no_job_handed_to_the_worker_is_traced(monkeypatch):
    """The tracer keeps one span stack, so a query's spans stay on one
    thread only while nothing it wraps runs on the retriever's worker: no
    job ``_channels`` hands to ``beside`` (the exact search) may be traced."""
    import unikw.retriever as retriever
    from conftest import bundle_from_catalog

    jobs, beside = [], retriever.beside

    def recorded(job_bytes, job, args, work):
        jobs.append(job)
        return beside(job_bytes, job, args, work)

    monkeypatch.setattr(retriever, "beside", recorded)
    retriever.retrieve(bundle_from_catalog(["red shoes", "blue kettle"]), "red shoes")
    assert jobs
    tracing = _load_tracing()
    traced = [f"{getattr(owner, '__name__', owner)}.{attr}"
              for owner, attr, _ in tracing._patch_table(tracing.Tracer())
              if any(getattr(owner, attr, None) is job or attr == job.__name__ for job in jobs)]
    assert not traced, traced
