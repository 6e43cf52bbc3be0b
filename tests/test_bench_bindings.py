"""Guards for the benchmark's view of the package.

perfbench/tracer.py patches lossyetc functions by (module, attribute) pairs,
and perfbench/workloads.py reads report fields, CLI outputs and trace
columns; renaming or deleting any of them would break the benchmark without
failing any other package test.  These load the benchmark files by path,
check that every tracer pair resolves, installs and restores, and run one
short unit and the certificate panel of every workload.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, filename):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules at class creation
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("lossyetc_bench_tracer", "tracer.py")


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


@pytest.mark.parametrize("workload", ["certify_family", "zoh_sweep", "trace_io"])
def test_workload_unit_and_panel(workload, tmp_path):
    workloads = _load("lossyetc_bench_workloads", "workloads.py")
    inp = workloads.make_inputs(workload, 3, str(tmp_path), 3.0)[0]
    digest = workloads.CHECK[workload](inp, workloads.RUN[workload](inp))
    assert len(digest) == 64
    slack, shortfall = workloads.certificate_panel(workload, 3.0)
    assert slack >= 0.0 and math.isfinite(shortfall)
