import ctypes
import dataclasses
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lossyetc as le
from lossyetc import cli, pool, scenarios, simulator
from lossyetc.bounds import BoundCheck
from lossyetc.cli import main
from lossyetc.numerics import NumericsError
from lossyetc.scenarios import load_trace, save_scenario, scenario_to_dict
from lossyetc.simulator import SimulationError, simulate
from lossyetc.trigger_channel import ChannelMode, ChannelPolicy

_FORK = "fork" in multiprocessing.get_all_start_methods()


def _exit_at_once(*args):
    """Stands in for a worker's task: the worker dies as if the OS killed it."""
    os._exit(1)


@pytest.fixture(scope="module")
def config_v0(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "vehicle.json"
    save_scenario(le.vehicle_preset(), str(path))
    return str(path)


@pytest.fixture(scope="module")
def config_seed1(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "drawn.json"
    save_scenario(le.vehicle_preset(1), str(path))
    return str(path)


@pytest.fixture(scope="module")
def config_bern(tmp_path_factory):
    scn = dataclasses.replace(
        le.vehicle_preset(1),
        channel=ChannelPolicy(M=5, mode=ChannelMode.BERNOULLI, p=0.7, seed=1),
    )
    path = tmp_path_factory.mktemp("cfg") / "bern.json"
    save_scenario(scn, str(path))
    return str(path)


def _module_env() -> dict:
    # the child must import the same source tree as this process
    src = str(Path(le.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestSimulate:
    def test_csv_outputs(self, config_v0, tmp_path, capsys):
        out = tmp_path / "run.trace.csv"
        code = main([
            "simulate", "--config", config_v0, "--out", str(out), "--tmax", "10",
        ])
        assert code == 0
        tr = load_trace(str(out))
        assert tr.num_samples > 10000
        summary = json.loads((tmp_path / "run.trace.summary.json").read_text())
        assert summary["trigger_count"] == 0
        line = capsys.readouterr().out
        assert line.startswith("simulate[mb]: 0 triggers")

    def test_json_format(self, config_seed1, tmp_path):
        out = tmp_path / "run.trace.json"
        code = main([
            "simulate", "--config", config_seed1, "--out", str(out),
            "--format", "json", "--tmax", "10",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {
            "t", "x", "x_s", "x_c", "es_norm", "ec_norm", "threshold",
            "triggered", "delivered",
        }
        assert len(doc["t"]) == len(doc["x"])
        assert (tmp_path / "run.trace.summary.json").exists()

    def test_estimator_override(self, config_seed1, tmp_path, capsys):
        out = tmp_path / "z.trace.csv"
        code = main([
            "simulate", "--config", config_seed1, "--out", str(out),
            "--estimator", "zoh", "--tmax", "10",
        ])
        assert code == 0
        assert capsys.readouterr().out.startswith("simulate[zoh]:")

    def test_policy_override_matches_explicit_config(
        self, config_bern, config_seed1, tmp_path
    ):
        a = tmp_path / "a.trace.csv"
        b = tmp_path / "b.trace.csv"
        # overriding the bernoulli config to worst_case must reproduce the
        # run of a config that was worst_case to begin with
        assert main([
            "simulate", "--config", config_bern, "--out", str(a),
            "--policy", "worst_case", "--tmax", "10",
        ]) == 0
        assert main([
            "simulate", "--config", config_seed1, "--out", str(b), "--tmax", "10",
        ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override(self, config_bern, tmp_path):
        a = tmp_path / "s2.trace.csv"
        b = tmp_path / "s9.trace.csv"
        for out, seed in ((a, "2"), (b, "9")):
            assert main([
                "simulate", "--config", config_bern, "--out", str(out),
                "--seed", seed, "--tmax", "10",
            ]) == 0
        assert a.read_bytes() != b.read_bytes()
        again = tmp_path / "s2again.trace.csv"
        assert main([
            "simulate", "--config", config_bern, "--out", str(again),
            "--seed", "2", "--tmax", "10",
        ]) == 0
        assert a.read_bytes() == again.read_bytes()


    @pytest.mark.skipif(not _FORK, reason="needs the fork start method")
    def test_killed_formatting_worker_exits_three(
        self, config_seed1, tmp_path, monkeypatch, usable_cpus, capsys
    ):
        started = usable_cpus(2)
        monkeypatch.setattr(scenarios, "_format_block", _exit_at_once)
        assert main([
            "simulate", "--config", config_seed1, "--out", str(tmp_path / "run.trace.csv"),
            "--tmax", "10",
        ]) == 3
        assert started == [2]
        assert "terminated abruptly" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_flag(self, config_v0):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--config", config_v0, "--frobnicate"])
        assert err.value.code == 1

    def test_missing_config(self):
        with pytest.raises(SystemExit) as err:
            main(["simulate"])
        assert err.value.code == 1

    def test_no_command(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 1

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--help"])
        assert err.value.code == 0

    def test_module_entry_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lossyetc"], capture_output=True, text=True,
            env=_module_env(),
        )
        assert proc.returncode == 1
        assert "usage" in proc.stderr.lower()

    def test_invalid_config_payload(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        doc = scenario_to_dict(le.vehicle_preset())
        doc["trigger"]["beta"] = -1.0
        path.write_text(json.dumps(doc, indent=2))
        assert main(["simulate", "--config", str(path)]) == 1
        assert "trigger.beta" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1
        assert "nope.json" in capsys.readouterr().err

    def test_bad_tmax_rejected(self, config_v0, capsys):
        # sample_dt invariant breaks when the horizon shrinks below 10 dt
        assert main(["simulate", "--config", config_v0, "--tmax", "0.005"]) == 1
        assert "sample_dt" in capsys.readouterr().err


class TestBounds:
    def test_report_written(self, config_seed1, tmp_path, capsys):
        out = tmp_path / "rep.bounds.json"
        code = main([
            "bounds", "--config", config_seed1, "--out", str(out), "--tmax", "20",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {
            "Delta", "delta_bar", "delta_tilde", "miet", "F_bar", "F_cap",
            "F_bold", "a_hat", "a_tilde", "envelopes", "x0_norm",
        }
        assert doc["Delta"] >= 1.0 and doc["miet"] > 0.0
        assert "Delta=" in capsys.readouterr().out

    def test_zoh_writes_companion_report(self, config_seed1, tmp_path):
        out = tmp_path / "rep.bounds.json"
        code = main([
            "bounds", "--config", config_seed1, "--out", str(out),
            "--estimator", "zoh", "--tmax", "20",
        ])
        assert code == 0
        zdoc = json.loads((tmp_path / "rep.bounds.zoh.json").read_text())
        assert set(zdoc) == {"Delta_zoh", "delta_bar_zoh", "growth", "state_norms"}
        assert zdoc["Delta_zoh"] >= 1.0
        for name, digest in [
            ("rep.bounds.json", "08538348278458ba6f7e721fb8068d73f6c7dff082acff67971f4ce2d6c8e089"),
            ("rep.bounds.zoh.json", "9c65c7b2bba060f6e6c7300ad9730ee86754e6af5d16dfcd7fa8d766203c4cb9"),
        ]:
            data = (tmp_path / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    def test_zoh_simulates_worst_case_once(self, config_seed1, tmp_path, monkeypatch):
        calls = []

        def counting(scn):
            calls.append(scn.channel.mode)
            return simulate(scn)

        monkeypatch.setattr("lossyetc.cli.simulate", counting)
        monkeypatch.setattr("lossyetc.bounds.simulate", counting)
        assert main([
            "bounds", "--config", config_seed1, "--out", str(tmp_path / "rep.bounds.json"),
            "--estimator", "zoh", "--tmax", "20",
        ]) == 0
        assert calls == [ChannelMode.WORST_CASE]

    def test_csv_format_rejected(self, config_seed1, capsys):
        assert main(["bounds", "--config", config_seed1, "--format", "csv"]) == 1
        assert "JSON only" in capsys.readouterr().err

    def test_numerics_failure_maps_to_three(self, config_seed1, monkeypatch, capsys):
        def boom(*_args, **_kwargs):
            raise NumericsError("synthetic numerics failure")

        monkeypatch.setattr("lossyetc.cli.analyze_scenario", boom)
        assert main(["bounds", "--config", config_seed1, "--tmax", "20"]) == 3
        assert "synthetic numerics failure" in capsys.readouterr().err


class TestVerify:
    def test_exact_model_passes(self, config_v0, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = main([
            "verify", "--config", config_v0, "--out", str(out), "--tmax", "20",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"report", "checks", "max_ratio", "observed_min_gap"}
        assert all(doc["checks"].values())
        assert "-> PASS" in capsys.readouterr().out

    def test_perturbed_draw_passes(self, config_seed1):
        assert main(["verify", "--config", config_seed1, "--tmax", "20"]) == 0

    def test_zoh_variant_passes(self, config_seed1, tmp_path):
        out = tmp_path / "verify_zoh.json"
        code = main([
            "verify", "--config", config_seed1, "--estimator", "zoh",
            "--out", str(out), "--tmax", "20",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc["checks"]) == {"ec_bound", "gaps_positive"}

    def test_verify_deterministic(self, config_seed1):
        first = main(["verify", "--config", config_seed1, "--tmax", "20"])
        second = main(["verify", "--config", config_seed1, "--tmax", "20"])
        assert first == second == 0

    def test_violation_exits_two(self, config_seed1, monkeypatch, capsys):
        monkeypatch.setattr(
            "lossyetc.cli.verify_ec_bound",
            lambda *_a, **_k: BoundCheck(ok=False, max_ratio=9.9),
        )
        assert main(["verify", "--config", config_seed1, "--tmax", "20"]) == 2
        assert "-> FAIL" in capsys.readouterr().out

    def test_simulation_failure_maps_to_three(self, config_seed1, monkeypatch, capsys):
        def boom(*_args, **_kwargs):
            raise SimulationError("synthetic event pile-up")

        monkeypatch.setattr("lossyetc.bounds.simulate", boom)
        assert main(["verify", "--config", config_seed1, "--tmax", "20"]) == 3
        assert "synthetic event pile-up" in capsys.readouterr().err


_BOUNDS_KEYS = [
    "Delta", "delta_bar", "delta_tilde", "miet", "F_bar", "F_cap", "F_bold",
    "a_hat", "a_tilde",
    ("envelopes", [("true_loop", ["c", "rate"]), ("model_loop", ["c", "rate"])]),
    "x0_norm",
]
_ZOH_KEYS = ["Delta_zoh", "delta_bar_zoh", ("growth", ["eta", "gamma"]), "state_norms"]


def _key_tree(doc):
    """Keys of a JSON object in document order, nested objects as (key, keys)."""
    return [
        (k, _key_tree(v)) if isinstance(v, dict) else k for k, v in doc.items()
    ]


def test_json_key_order(config_seed1, tmp_path):
    """Every JSON document the CLI writes keeps its keys in a fixed order."""
    out = tmp_path / "rep.bounds.json"
    assert main([
        "bounds", "--config", config_seed1, "--out", str(out),
        "--estimator", "zoh", "--tmax", "20",
    ]) == 0
    assert _key_tree(json.loads(out.read_text())) == _BOUNDS_KEYS
    zdoc = json.loads((tmp_path / "rep.bounds.zoh.json").read_text())
    assert _key_tree(zdoc) == _ZOH_KEYS
    for estimator, report, checks in (
        ("mb", _BOUNDS_KEYS, ["ec_bound", "miet_positive", "min_gap_at_least_miet"]),
        ("zoh", _ZOH_KEYS, ["ec_bound", "gaps_positive"]),
    ):
        out = tmp_path / f"verify_{estimator}.json"
        assert main([
            "verify", "--config", config_seed1, "--estimator", estimator,
            "--out", str(out), "--tmax", "20",
        ]) == 0
        assert _key_tree(json.loads(out.read_text())) == [
            ("report", report), ("checks", checks), "max_ratio", "observed_min_gap",
        ]
    out = tmp_path / "run.trace.csv"
    assert main([
        "simulate", "--config", config_seed1, "--out", str(out), "--tmax", "10",
    ]) == 0
    summary = json.loads((tmp_path / "run.trace.summary.json").read_text())
    assert _key_tree(summary) == [
        "trigger_count", "delivery_count", "min_inter_event", "mean_inter_event",
        "min_receive_interval", "mean_receive_interval", "final_state_norm",
        "empirical_amplification",
    ]



def _openblas_threads(item=None) -> list[int]:
    """Thread counts of the OpenBLAS libraries loaded in this process."""
    with open("/proc/self/maps") as fh:
        paths = {line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line}
    counts = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads",
        ):
            if hasattr(lib, name):
                counts.append(getattr(lib, name)())
                break
    return counts


class TestSweep:
    def test_paired_runs(self, config_seed1, tmp_path, capsys):
        out = tmp_path / "table.sweep.csv"
        code = main([
            "sweep", "--config", config_seed1, "--out", str(out),
            "--values", "0,0.9", "--repeats", "1", "--tmax", "10",
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "param,value,repeat,estimator,trigger_count,delivery_count,"
            "min_inter_event,mean_inter_event,min_receive_interval,"
            "mean_receive_interval,final_state_norm,empirical_amplification"
        )
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4
        assert [r[3] for r in rows] == ["mb", "zoh", "mb", "zoh"]
        for mb_row, zoh_row in zip(rows[0::2], rows[1::2]):
            assert mb_row[1] == zoh_row[1] and mb_row[2] == zoh_row[2]
            # the hold estimator drifts faster, so it retriggers more
            assert int(zoh_row[4]) >= int(mb_row[4])
        assert "4 runs" in capsys.readouterr().out

    def test_sweep_deterministic(self, config_seed1, tmp_path):
        a = tmp_path / "a.sweep.csv"
        b = tmp_path / "b.sweep.csv"
        for out in (a, b):
            assert main([
                "sweep", "--config", config_seed1, "--out", str(out),
                "--values", "0.5", "--repeats", "1", "--tmax", "10",
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "cpus, pools", [(2, [2] if _FORK else []), (1, [])], ids=["pool", "in_process"]
    )
    def test_bytes_pinned(self, config_seed1, tmp_path, usable_cpus, capsys, cpus, pools):
        started = usable_cpus(cpus)
        out = tmp_path / "table.sweep.csv"
        assert main([
            "sweep", "--config", config_seed1, "--out", str(out), "--tmax", "20",
        ]) == 0
        assert started == pools
        data = out.read_bytes()
        assert len(data) == 1428
        assert hashlib.sha256(data).hexdigest() == (
            "518832a1bc0aa8805bd5cd731182e36748e71bdee2172cee7e0c73d377300346"
        )
        assert capsys.readouterr().out == (
            f"sweep: 8 runs over channel.p=[0.0, 0.3, 0.7, 0.9], wrote {out}\n"
        )

    def test_script_exhaustion_in_worker_exits_one(
        self, config_seed1, tmp_path, monkeypatch, usable_cpus, capsys
    ):
        started = usable_cpus(2)
        monkeypatch.setattr(cli, "_SWEEP_SCRIPT_LENGTH", 3)
        assert main([
            "sweep", "--config", config_seed1, "--out", str(tmp_path / "s.csv"),
            "--values", "0.5", "--tmax", "10",
        ]) == 1
        assert started == ([2] if _FORK else [])
        assert "script exhausted" in capsys.readouterr().err

    def test_event_accumulation_in_worker_exits_three(
        self, config_seed1, tmp_path, monkeypatch, usable_cpus, capsys
    ):
        started = usable_cpus(2)
        monkeypatch.setattr(simulator, "ZENO_GAP", 1e3)
        assert main([
            "sweep", "--config", config_seed1, "--out", str(tmp_path / "s.csv"),
            "--values", "0.9", "--tmax", "10",
        ]) == 3
        assert started == ([2] if _FORK else [])
        assert "event accumulation" in capsys.readouterr().err

    @pytest.mark.skipif(not _FORK, reason="needs the fork start method")
    def test_killed_worker_exits_three(
        self, config_seed1, tmp_path, monkeypatch, usable_cpus, capsys
    ):
        usable_cpus(2)
        monkeypatch.setattr(cli, "simulate", lambda run: os._exit(1))
        assert main([
            "sweep", "--config", config_seed1, "--out", str(tmp_path / "s.csv"),
            "--values", "0.5", "--tmax", "10",
        ]) == 3
        assert "terminated abruptly" in capsys.readouterr().err

    @pytest.mark.skipif(
        not (_FORK and os.path.exists("/proc/self/maps")), reason="needs fork and /proc"
    )
    def test_workers_run_one_blas_thread(self, usable_cpus):
        usable_cpus(2)
        counts = list(pool.fork_map(_openblas_threads, [None, None]))
        if not any(counts):
            pytest.skip("no OpenBLAS loaded")
        assert counts == [[1] * len(counts[0])] * 2

    def test_module_entry_prints_one_line(self, config_seed1, tmp_path):
        # stdout on a pipe is block-buffered, so forked workers must not
        # inherit unflushed output.
        out = tmp_path / "s.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "lossyetc", "sweep", "--config", config_seed1,
             "--out", str(out), "--values", "0,0.9", "--tmax", "5"],
            capture_output=True, text=True, env=_module_env(),
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout == f"sweep: 4 runs over channel.p=[0.0, 0.9], wrote {out}\n"

    def test_rejections(self, config_seed1, capsys):
        assert main([
            "sweep", "--config", config_seed1, "--param", "trigger.beta",
        ]) == 1
        assert "unsupported" in capsys.readouterr().err
        assert main([
            "sweep", "--config", config_seed1, "--format", "json",
        ]) == 1
        capsys.readouterr()
        assert main([
            "sweep", "--config", config_seed1, "--values", "a,b",
        ]) == 1
        assert "bad --values" in capsys.readouterr().err
        assert main([
            "sweep", "--config", config_seed1, "--repeats", "0",
        ]) == 1
        assert main([
            "sweep", "--config", config_seed1, "--values", " ,",
        ]) == 1
