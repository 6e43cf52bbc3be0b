"""Self-test of the benchmark: few draws, a short horizon, no timing gate.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TMAX = 3.0


def _run(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tmax", str(TMAX)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    return result, lines


def _units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_repeatable_digests(workload):
    first, first_lines = _run(workload, 0)
    second, second_lines = _run(workload, 0)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert _units(first) == expected
    assert _units(second) == expected

    def digest(lines):
        return next(line for line in lines if line.startswith("digest "))

    assert digest(first_lines) == digest(second_lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result, _ = _run(workload, 1)
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_corrupted_csv_counts_as_failed_unit(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import lossyetc.cli
    import worker
    import workloads

    save_trace = lossyetc.cli.save_trace

    def save_and_corrupt(tr, path):
        save_trace(tr, path)
        with open(path, "r+b") as fh:
            data = bytearray(fh.read())
            # Last digit of the second row's time stamp.
            i = data.index(b",", data.index(b"\n") + 1) - 1
            data[i] = ord("0") + (data[i] - ord("0") + 1) % 10
            fh.seek(0)
            fh.write(data)

    inputs = workloads.make_inputs("trace_io", 3, str(tmp_path), TMAX)
    clean = worker.Loop("trace_io", inputs)
    clean.run_unit(0)
    assert clean.failures == []

    monkeypatch.setattr(lossyetc.cli, "save_trace", save_and_corrupt)
    corrupted = worker.Loop("trace_io", inputs)
    corrupted.run_unit(0)
    assert len(corrupted.failures) == 1
    assert "reloaded trace differs" in corrupted.failures[0]
