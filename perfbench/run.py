"""lossyetc benchmark: one workload run, end to end or traced layer by layer.

    python3 perfbench/run.py --workload certify_family --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  Each run starts fresh interpreters: several that only set up, to
time set-up, and one that sets up and then runs the workload's units in a
closed loop (see worker.py).  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  Without a
lossyetc source tree the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("certify_family", "zoh_sweep", "trace_io")
# Set-up is timed this many times per run (the worker's own set-up is one).
SETUP_SAMPLES = 5
# Everything, build-free set-up included, must end within this budget.
DEADLINE_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH", "")) if p
    )
    # One client and matrices of at most 12 x 12: BLAS threads have nothing
    # to split, and a single thread keeps the timings steady.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Worker:
    """A worker interpreter whose set-up is timed up to its ``ready`` line."""

    def __init__(self, argv: list[str], deadline: float):
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv],
            stdout=subprocess.PIPE, env=_env(), cwd=str(ROOT), text=True,
        )

    def wait_ready(self) -> float:
        """Set-up seconds, scaled to reference host speed as the worker measured it."""
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            raise RuntimeError(f"worker did not get ready: {line!r}")
        elapsed = time.perf_counter() - self.started
        word, _, speed = self.proc.stdout.readline().partition(" ")
        if word != "speed":
            raise RuntimeError(f"worker sent no host speed: {word!r}")
        return elapsed * float(speed)

    def finish(self) -> list[str]:
        remaining = max(1.0, self.deadline - time.perf_counter())
        out, _ = self.proc.communicate(timeout=remaining)
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited {self.proc.returncode}")
        return out.splitlines()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmax", type=float, default=None,
                        help="shorter horizon for smoke tests (default: the preset's)")
    args = parser.parse_args(argv)

    if not (SRC / "lossyetc" / "__init__.py").is_file():
        print(f"run.py: no lossyetc sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    workers: list[Worker] = []
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        if args.tmax is not None:
            common += ["--tmax", str(args.tmax)]
        setup = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                setup_dir = tmp / f"setup{i}"
                setup_dir.mkdir()
                setup_only = Worker(common + ["--seconds", "0", "--tmp", str(setup_dir),
                                              "--setup-only"], deadline)
                workers.append(setup_only)
                setup.append(setup_only.wait_ready())
                setup_only.finish()
        run_dir = tmp / "run"
        run_dir.mkdir()
        worker_argv = common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                "--tmp", str(run_dir)]
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            worker_argv += ["--spans", str(out_dir / f"spans-{args.workload}.json.gz")]
        worker = Worker(worker_argv, deadline)
        workers.append(worker)
        setup.append(worker.wait_ready())
        lines = worker.finish()
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        for w in workers:
            w.stop()
        shutil.rmtree(tmp, ignore_errors=True)

    if not lines:
        print("run.py: worker printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        print("setup samples " + " ".join(f"{s:.4f}" for s in setup))
    for name, metric in result["metrics"].items():
        print(f"{name:45s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
