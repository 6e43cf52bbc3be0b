"""One workload run in a fresh interpreter: set up, run units, report.

Started by run.py with ``src`` on PYTHONPATH.  It prints ``ready`` on stdout
as soon as its inputs exist (run.py times set-up from process start to that
line), then the host speed.  It then runs units in a closed loop: one
client, and the next unit starts only when the previous one and its untimed
check have finished.  The result is one JSON line on stdout.

With ``--trace 0`` it reports the end-to-end metrics, with no wrapper
installed.  With ``--trace 1`` it runs the same units twice, first untraced
and then traced, and reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

import lossyetc

from workloads import CHECK, RUN, UnitFailure, certificate_panel, make_inputs

# At least this many timed units per run, however long they take.
MIN_UNITS = 2
# A tail percentile needs this many units beyond it.
TAIL_BEYOND = 10
# Median seconds of the host probe on the reference machine (2-core x86-64,
# Python 3.11.7, numpy 2.4.6); unit times are reported at that host speed.
PROBE_REFERENCE_S = 0.019

_PROBE_MATRIX = np.linspace(-1.0, 1.0, 144).reshape(12, 12) / 12.0


def host_probe() -> float:
    """Seconds taken by a fixed mix of the work the units do.

    Interpreter steps, small-matrix numpy calls and float text round trips,
    as in the simulator's event loop and the trace CSV.  The host shares
    its cores, and its speed drifts by up to 2x over tens of seconds; the
    probe, run between units, measures that drift.
    """
    start = time.perf_counter()
    v = np.ones(12)
    acc = 0.0
    for _ in range(3000):
        v = _PROBE_MATRIX @ v + 1.0
        acc = float(f"{acc + float(np.linalg.norm(v)):.17g}") * 0.5
    return time.perf_counter() - start


def _emit(line: str) -> None:
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


class Loop:
    """Closed-loop unit runner that times each unit and checks its output."""

    def __init__(self, workload: str, inputs, tracer=None):
        self.workload = workload
        self.inputs = inputs
        self.tracer = tracer
        self.durations: list[float] = []
        self.probes: list[float] = []
        self.digests: list[str | None] = []
        self.failures: list[str] = []

    def run_unit(self, i: int) -> None:
        inp = self.inputs[i % len(self.inputs)]
        if self.tracer is not None:
            self.tracer.unit = i
        digest = None
        self.probes.append(host_probe())
        start = time.perf_counter()
        try:
            out = RUN[self.workload](inp)
        except Exception as exc:  # a crashing unit is a failed unit
            self.durations.append(time.perf_counter() - start)
            self.failures.append(f"unit {i} (draw {inp.draw}): {type(exc).__name__}: {exc}")
        else:
            self.durations.append(time.perf_counter() - start)
            try:
                if self.tracer is None:
                    digest = CHECK[self.workload](inp, out)
                else:
                    with self.tracer.suspended():
                        digest = CHECK[self.workload](inp, out)
            except UnitFailure as exc:
                self.failures.append(f"unit {i} (draw {inp.draw}): {exc}")
        self.digests.append(digest)

    def run_for(self, seconds: float) -> None:
        start = time.perf_counter()
        while len(self.durations) < MIN_UNITS or time.perf_counter() - start < seconds:
            self.run_unit(len(self.durations))
        self.probes.append(host_probe())

    def run_count(self, count: int) -> None:
        for i in range(count):
            self.run_unit(i)
        self.probes.append(host_probe())

    def scaled(self) -> list[float]:
        """Unit times at reference host speed.

        Each unit's wall time times PROBE_REFERENCE_S over the mean of the
        probes taken just before and just after it.
        """
        return [
            d * 2.0 * PROBE_REFERENCE_S / (self.probes[i] + self.probes[i + 1])
            for i, d in enumerate(self.durations)
        ]


def tail(durations: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND units beyond it, and that percentile.

    With TAIL_BEYOND units or fewer there is no such percentile, and the
    slowest unit stands in for it (p100).
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def blas_threads() -> int | None:
    """Threads of the OpenBLAS bundled with numpy, or None if not found."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "libscipy_openblas*.so")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "sched_nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "lossyetc": os.path.dirname(lossyetc.__file__),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(RUN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--tmax", type=float, default=None)
    parser.add_argument("--spans", default=None, help="write the traced spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = make_inputs(args.workload, args.seed, args.tmp, args.tmax)
    if tracer is not None:
        tracer.uninstall()
    _emit("ready")
    # run.py scales this process's set-up time to reference host speed.
    _emit(f"speed {PROBE_REFERENCE_S / host_probe():.6f}")
    if args.setup_only:
        return 0

    # Warm-up: lazy imports and first-call costs stay out of the timings.
    # Its digest is the reference the first timed unit must reproduce.
    warm = Loop(args.workload, inputs)
    warm.run_unit(0)

    seconds = args.seconds / 2 if tracer is not None else args.seconds
    plain = Loop(args.workload, inputs)
    plain.run_for(seconds)
    loops = [warm, plain]
    if tracer is not None:
        traced = Loop(args.workload, inputs, tracer)
        tracer.install()
        try:
            traced.run_count(len(plain.durations))
        finally:
            tracer.uninstall()
        loops.append(traced)

    failures = [f for loop in loops for f in loop.failures]
    for loop in loops[1:]:
        if loop.digests[0] != warm.digests[0]:
            failures.append("unit 0 output differs from its warm-up run")
    attempted = sum(len(loop.durations) for loop in loops[1:])
    failed = sum(len(loop.failures) for loop in loops[1:])

    _emit("env " + json.dumps(environment(), sort_keys=True))
    _emit(f"digest {plain.digests[0]} {plain.digests[min(1, len(plain.digests) - 1)]}")
    for failure in failures:
        _emit("FAILED " + failure)

    if tracer is None:
        scaled = plain.scaled()
        unit_tail, pct = tail(scaled)
        slack, shortfall = certificate_panel(args.workload, args.tmax)
        metrics = {
            "units_per_s": (len(scaled) / sum(scaled), "1/s"),
            "unit_p50_ms": (1e3 * median(scaled), "ms"),
            "unit_tail_ms": (1e3 * unit_tail, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "delta_slack_log10": (slack, "log10"),
            "miet_shortfall_log10": (shortfall, "log10"),
        }
        _emit(f"tail p{pct:.1f} over {len(plain.durations)} units")
        _emit("unit_ms " + " ".join(f"{1e3 * d:.1f}" for d in scaled))
        _emit("unit_wall_ms " + " ".join(f"{1e3 * d:.1f}" for d in plain.durations))
        _emit("probe_ms " + " ".join(f"{1e3 * d:.2f}" for d in plain.probes))
        wall_tail, _ = tail(plain.durations)
        _emit(f"wall clock: units_per_s {len(scaled) / sum(plain.durations):.6g} "
              f"unit_p50_ms {1e3 * median(plain.durations):.6g} "
              f"unit_tail_ms {1e3 * wall_tail:.6g}")
    else:
        units = list(range(len(traced.durations)))
        metrics = tracer.layer_metrics(units)
        overhead = median(traced.scaled()) / median(plain.scaled()) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        if args.spans:
            tracer.write(args.spans)
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            failures.append(f"metric {name} is not finite")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": max(failed, 1 if failures else 0),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    _emit(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
