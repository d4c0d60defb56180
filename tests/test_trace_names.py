"""The benchmark's per-layer tracer still finds every function it wraps.

`bench/tracer.py` patches package functions by name, where their callers
look them up, and records a name it cannot find in `missing` instead of
failing. A refactor that renames or moves a traced function would then
silently drop a per-layer metric; this test makes it fail here instead.
The tracer is loaded from its file and `bench/` is not modified.
"""
import importlib.util
import os

TRACER_PATH = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("swarmclean_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_traced_name():
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()

