"""Guard for the benchmark's layer trace.

perfbench/tracer.py patches lossyetc functions by (module, attribute) pairs,
so renaming or deleting one of those bindings would break the benchmark
without failing any package test.  This loads the tracer by file path and
checks that every pair resolves, installs and restores.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("lossyetc_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_bindings_resolve():
    tracer = _load_tracer()
    pairs = [(module, attr) for module, attr, _, _ in tracer._PATCHES]
    missing = [f"{m.__name__}.{attr}" for m, attr in pairs if not hasattr(m, attr)]
    assert not missing, f"bindings patched by perfbench/tracer.py are gone: {missing}"
    originals = [getattr(m, attr) for m, attr in pairs]
    spans = tracer.Tracer()
    try:
        spans.install()
        for (m, attr), fn in zip(pairs, originals):
            assert getattr(m, attr).__wrapped__ is fn
    finally:
        spans.uninstall()
    for (m, attr), fn in zip(pairs, originals):
        assert getattr(m, attr) is fn
