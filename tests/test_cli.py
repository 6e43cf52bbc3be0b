import ctypes
import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import lossyetc as le
from lossyetc import cli, pool, scenarios, simulator
from lossyetc.bounds import BoundCheck
from lossyetc.cli import main
from lossyetc.numerics import NumericsError
from lossyetc.scenarios import _format_block, load_trace, save_scenario, scenario_to_dict
from lossyetc.simulator import SimulationError, simulate
from lossyetc.trigger_channel import ChannelError, ChannelMode, ChannelPolicy

_FORK = "fork" in multiprocessing.get_all_start_methods()


def _exit_at_once(*args):
    """Stands in for a worker's task: the worker dies as if the OS killed it."""
    os._exit(1)


def _exit_after_first_block(block):
    """Stands in for `_format_block`: the first block formats, a later one dies."""
    if block[0, 0] > 0.0:
        os._exit(1)
    return _format_block(block)


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
def config_p7(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "p7.json"
    save_scenario(le.vehicle_preset(7), str(path))
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


def _simulate_with_dying_formatter(die, config, tmp_path, monkeypatch, usable_cpus, capsys):
    """`simulate --out` whose formatting worker runs `die`: exit 3, no file left."""
    started = usable_cpus(2)
    monkeypatch.setattr(scenarios, "_format_block", die)
    out = tmp_path / "run.trace.csv"
    assert main(["simulate", "--config", config, "--out", str(out), "--tmax", "10"]) == 3
    assert started == [2]
    assert "terminated abruptly" in capsys.readouterr().err
    # no truncated trace that load_trace would take for a shorter run
    assert list(tmp_path.iterdir()) == []


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

    def test_missing_out_directory_names_target(
        self, config_v0, tmp_path, monkeypatch, capsys
    ):
        # save_trace writes a temporary file beside its target; the error
        # names the target, and nothing is left behind.
        monkeypatch.chdir(tmp_path)
        code = main([
            "simulate", "--config", config_v0, "--out", "missing/run.trace.csv",
            "--tmax", "10",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            "lossyetc simulate: [Errno 2] No such file or directory: "
            "'missing/run.trace.csv'\n"
        )
        assert list(tmp_path.iterdir()) == []

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

    def test_negative_seed_is_a_channel_error(self, config_bern, tmp_path, capsys):
        code = main([
            "simulate", "--config", config_bern, "--out", str(tmp_path / "s.trace.csv"),
            "--seed", "-1",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "lossyetc simulate: seed must be a non-negative integer, got -1\n"
        )

    def test_seed_outside_bernoulli_is_a_channel_error(self, config_bern, tmp_path, capsys):
        code = main([
            "simulate", "--config", config_bern, "--out", str(tmp_path / "s.trace.csv"),
            "--policy", "worst_case", "--seed", "3",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "lossyetc simulate: seed is only valid for bernoulli mode, got 3\n"
        )


    @pytest.mark.skipif(not _FORK, reason="needs the fork start method")
    def test_killed_formatting_worker_exits_three(
        self, config_seed1, tmp_path, monkeypatch, usable_cpus, capsys
    ):
        _simulate_with_dying_formatter(
            _exit_at_once, config_seed1, tmp_path, monkeypatch, usable_cpus, capsys
        )

    @pytest.mark.skipif(not _FORK, reason="needs the fork start method")
    def test_killed_later_formatting_worker_leaves_no_trace(
        self, config_seed1, tmp_path, monkeypatch, usable_cpus, capsys
    ):
        # the first block is written before the later one dies
        _simulate_with_dying_formatter(
            _exit_after_first_block, config_seed1, tmp_path, monkeypatch, usable_cpus,
            capsys,
        )


# --format and --param have their own tests: test_csv_format_rejected and
# TestSweep::test_rejections
_REMOVED_OPTIONS = [
    ["simulate", "--policy", "bernoulli"],
    ["simulate", "--policy", "scripted"],
    *([cmd, *option] for cmd in ("bounds", "verify") for option in (
        ["--policy", "worst_case"], ["--seed", "99"],
    )),
    ["sweep", "--estimator", "zoh"],
    ["sweep", "--policy", "worst_case"],
]


class TestUsageErrors:
    def test_unknown_flag(self, config_v0, capsys):
        # options a subcommand would ignore or overwrite are unknown to it,
        # and the error shows that subcommand's usage, not the top-level one
        for cmd, *option in [["simulate", "--frobnicate"], *_REMOVED_OPTIONS]:
            with pytest.raises(SystemExit) as err:
                main([cmd, "--config", config_v0, *option])
            assert err.value.code == 1, [cmd, *option]
            assert capsys.readouterr().err.startswith(f"usage: lossyetc {cmd} ")

    def test_option_sets_pinned(self):
        (commands,) = (
            a.choices for a in cli.build_parser()._actions if a.dest == "command"
        )
        options = {
            name: {opt for a in sub._actions for opt in a.option_strings}
            for name, sub in commands.items()
        }
        common = {"-h", "--help", "--config", "--out", "--tmax"}
        assert options == {
            "simulate": common | {"--estimator", "--format", "--policy", "--seed"},
            "bounds": common | {"--estimator"},
            "verify": common | {"--estimator"},
            "sweep": common | {"--seed", "--values", "--repeats"},
        }
        (policy,) = (a for a in commands["simulate"]._actions if a.dest == "policy")
        assert list(policy.choices) == ["always_deliver", "worst_case"]

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
            "Delta", "miet", "F_bar", "F_cap", "F_bold", "a_hat", "a_tilde",
            "envelopes", "x0_norm",
        }
        assert doc["Delta"] >= 1.0 and doc["miet"] > 0.0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "6a6a476442623fbc386ca978570754e52711eed7090752941ac9447d1f2cfa9d"
        )
        assert capsys.readouterr().out == (
            f"bounds: Delta={doc['Delta']:.6g}, miet={doc['miet']:.6g}, wrote {out}\n"
        )

    def test_zoh_writes_only_its_report(self, config_seed1, tmp_path, monkeypatch, capsys):
        def boom(*_args, **_kwargs):
            raise AssertionError("the hold estimator needs no model-based report")

        monkeypatch.setattr("lossyetc.cli.analyze_scenario", boom)
        out = tmp_path / "rep.bounds.json"
        code = main([
            "bounds", "--config", config_seed1, "--out", str(out),
            "--estimator", "zoh", "--tmax", "20",
        ])
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == ["rep.bounds.json"]
        zdoc = json.loads(out.read_text())
        assert zdoc["Delta_zoh"] >= 1.0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "2900294457860053772ac0005567f4377223a11a7e3a458a5e09e44769d4dd62"
        )
        assert capsys.readouterr().out == (
            f"bounds: Delta_zoh={zdoc['Delta_zoh']:.6g}, wrote {out}\n"
        )

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
        # reports are JSON only, so bounds and verify take no --format
        for command in ("bounds", "verify"):
            with pytest.raises(SystemExit) as err:
                main([command, "--config", config_seed1, "--format", "csv"])
            assert err.value.code == 1
            assert "unrecognized arguments: --format" in capsys.readouterr().err

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
        assert set(doc["checks"]) == {"ec_bound"}

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
    "Delta", "miet", "F_bar", "F_cap", "F_bold", "a_hat", "a_tilde",
    ("envelopes", [("true_loop", ["c", "rate"])]), "x0_norm",
]
_ZOH_KEYS = ["Delta_zoh", "delta_bar_zoh", ("growth", ["eta", "gamma"]), "state_norms"]


def _key_tree(doc):
    """Keys of a JSON object in document order, nested objects as (key, keys)."""
    return [
        (k, _key_tree(v)) if isinstance(v, dict) else k for k, v in doc.items()
    ]


def test_json_key_order(config_seed1, tmp_path):
    """Every JSON document the CLI writes keeps its keys in a fixed order."""
    for estimator, report, checks in (
        ("mb", _BOUNDS_KEYS, ["ec_bound", "min_gap_at_least_miet"]),
        ("zoh", _ZOH_KEYS, ["ec_bound"]),
    ):
        out = tmp_path / f"rep_{estimator}.bounds.json"
        assert main([
            "bounds", "--config", config_seed1, "--out", str(out),
            "--estimator", estimator, "--tmax", "20",
        ]) == 0
        assert _key_tree(json.loads(out.read_text())) == report
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


@pytest.mark.parametrize("estimator", ["mb", "zoh"])
def test_bounds_writes_the_report_verify_checks(config_seed1, tmp_path, estimator):
    common = ["--config", config_seed1, "--estimator", estimator, "--tmax", "20"]
    bounds_out, verify_out = tmp_path / "rep.bounds.json", tmp_path / "rep.verify.json"
    assert main(["bounds", *common, "--out", str(bounds_out)]) == 0
    assert main(["verify", *common, "--out", str(verify_out)]) == 0
    report = json.loads(verify_out.read_text())["report"]
    assert json.loads(bounds_out.read_text()) == report


def test_readme_commands_run(tmp_path, monkeypatch):
    """The README's command-line examples parse and run, on a short horizon."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
    commands = [line.split() for line in lines]
    assert len(commands) == 4 and all(argv[0] == "lossyetc" for argv in commands)
    monkeypatch.chdir(tmp_path)
    save_scenario(le.vehicle_preset(7), "scn.json")
    for argv in commands:
        assert main([*argv[1:], "--tmax", "5"]) == 0, argv


def test_readme_quick_start_runs(tmp_path):
    """The README's Python quick start runs to the end in a fresh interpreter."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1]
    proc = subprocess.run(
        [sys.executable, "-c", block.split("```", 1)[0]], capture_output=True,
        text=True, env=_module_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


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
    def test_benchmark_outputs_pinned(self, config_p7, tmp_path, capsys):
        """The sweep and verify calls of the zoh_sweep benchmark unit, full horizon."""
        for argv, name, digest, line in [
            (
                ["sweep", "--values", "0,0.5,0.9", "--seed", "1"], "s.csv",
                "4f1722995b4ac0bd19f5c5a759b3d55840e5afcffecdce955b55ad84acb2e871",
                "sweep: 6 runs over channel.p=[0.0, 0.5, 0.9], wrote {out}\n",
            ),
            (
                ["verify", "--estimator", "zoh"], "v.json",
                "de5018c7f1f8124eed4cc3cebf01fb2b3a985e20be4ca2a1c9a30df4cef94486",
                "verify[zoh]: ec_bound=ok, max ratio 0.2092 -> PASS\n",
            ),
        ]:
            out = tmp_path / name
            assert main([argv[0], "--config", config_p7, "--out", str(out), *argv[1:]]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, name
            assert capsys.readouterr().out == line.format(out=out)

    def test_negative_seed_names_the_option(self, config_seed1, tmp_path, capsys):
        # not the first channel's derived seed, 7919 times --seed
        code = main([
            "sweep", "--config", config_seed1, "--out", str(tmp_path / "s.csv"),
            "--values", "0.5", "--seed", "-1",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "lossyetc sweep: --seed must be non-negative, got -1\n"
        )

    def test_rows_are_seeded_bernoulli_runs(self, config_seed1, tmp_path):
        out = tmp_path / "s.csv"
        assert main([
            "sweep", "--config", config_seed1, "--out", str(out),
            "--values", "0.3,0.9", "--repeats", "2", "--seed", "3", "--tmax", "10",
        ]) == 0
        scn = dataclasses.replace(le.load_scenario(config_seed1), t_max=10.0)
        expected = []
        for vi, value in enumerate((0.3, 0.9)):
            for repeat in range(2):
                policy = ChannelPolicy(
                    M=scn.channel.M, mode=ChannelMode.BERNOULLI, p=value,
                    seed=1000 * vi + repeat + 7919 * 3,
                )
                for kind in ("mb", "zoh"):
                    run = dataclasses.replace(
                        scn, estimator=le.EstimatorKind(kind), channel=policy
                    )
                    stats = dataclasses.asdict(le.summarize(le.simulate(run), run.trigger))
                    expected.append([
                        "channel.p", f"{value:.17g}", str(repeat), kind,
                        *("" if v is None else f"{v:.17g}" for v in stats.values()),
                    ])
        assert [line.split(",") for line in out.read_text().splitlines()[1:]] == expected

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
            "70cda33a80bcbeba4c743f04a273c523fc3121373f12ca56bcdc7f9def97da77"
        )
        assert capsys.readouterr().out == (
            f"sweep: 8 runs over channel.p=[0.0, 0.3, 0.7, 0.9], wrote {out}\n"
        )

    def test_channel_error_in_worker_exits_one(
        self, config_seed1, tmp_path, monkeypatch, usable_cpus, capsys
    ):
        started = usable_cpus(2)

        def refuse(policy, state):
            raise ChannelError("script", "script exhausted after 3 offers")

        monkeypatch.setattr(simulator, "channel_offer", refuse)
        assert main([
            "sweep", "--config", config_seed1, "--out", str(tmp_path / "s.csv"),
            "--values", "0.5", "--tmax", "10",
        ]) == 1
        assert started == ([2] if _FORK else [])
        assert capsys.readouterr().err == "lossyetc sweep: script exhausted after 3 offers\n"

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

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc")
    def test_cli_process_runs_one_blas_thread(self, tmp_path):
        # Every matrix is small: the CLI process itself drops to one BLAS
        # thread, whatever the environment asks for.
        script = (
            "import json, sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from test_cli import _openblas_threads\n"
            "from lossyetc.cli import main\n"
            "before = _openblas_threads()\n"
            f"main(['simulate', '--config', {str(tmp_path / 'missing.json')!r}])\n"
            "print(json.dumps([before, _openblas_threads()]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**_module_env(), "OPENBLAS_NUM_THREADS": "2"},
        )
        assert proc.returncode == 0, proc.stderr
        before, after = json.loads(proc.stdout)
        if not before or max(before) < 2:
            pytest.skip("no OpenBLAS with 2 threads loaded")
        assert after == [1] * len(before)

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

    @pytest.mark.skipif(not os.path.exists("/proc"), reason="needs /proc")
    def test_leaves_no_worker_behind(self, config_seed1, tmp_path):
        # The pool outlives main() but not the interpreter; the workers hold the
        # child's stdout, so run() would block on its EOF if they outlived it.
        script = (
            "import json, multiprocessing, sys\n"
            "from lossyetc.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps([p.pid for p in multiprocessing.active_children()]))\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "sweep", "--config", config_seed1,
             "--out", str(tmp_path / "s.csv"), "--values", "0,0.9", "--tmax", "5"],
            capture_output=True, text=True, env=_module_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        workers = json.loads(proc.stdout.splitlines()[-1])
        assert len(workers) == (pool.usable_cpus() if pool.would_fork(4) else 0)
        assert not any(_running(pid) for pid in workers)

    def test_rejections(self, config_seed1, capsys):
        # channel.p is the one swept parameter and CSV the one table format
        for option, value in (("--param", "trigger.beta"), ("--format", "json")):
            with pytest.raises(SystemExit) as err:
                main(["sweep", "--config", config_seed1, option, value])
            assert err.value.code == 1
            assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        assert main([
            "sweep", "--config", config_seed1, "--values", "a,b",
        ]) == 1
        assert "bad --values" in capsys.readouterr().err
        assert main([
            "sweep", "--config", config_seed1, "--values", "0.5,1.5",
        ]) == 1
        assert capsys.readouterr().err == (
            "lossyetc sweep: --values must lie in [0, 1], got 1.5\n"
        )
        assert main([
            "sweep", "--config", config_seed1, "--repeats", "0",
        ]) == 1
        assert main([
            "sweep", "--config", config_seed1, "--values", " ,",
        ]) == 1


def _worker_pid(item=None) -> int:
    return os.getpid()


def _fail(item):
    raise ValueError(f"task {item} failed")


def _fail_first(directory, item):
    """Task 0 raises at once; every other task waits, then leaves a file."""
    if item == 0:
        raise ValueError("task 0 failed")
    time.sleep(0.2)
    (Path(directory) / str(item)).touch()


def _child_pool_pids(conn) -> None:
    conn.send(list(pool.fork_map(_worker_pid, range(4))))
    conn.close()


def _pool_workers() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _running(pid: int) -> bool:
    """Whether the process exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not _FORK, reason="needs the fork start method")
class TestForkPool:
    def test_calls_share_one_pool(self, usable_cpus):
        started = usable_cpus(2)
        first = list(pool.fork_map(_worker_pid, range(4)))
        workers = _pool_workers()
        second = list(pool.fork_map(_worker_pid, range(4)))
        assert started == [2]
        assert len(workers) == 2 and os.getpid() not in workers
        assert set(first + second) <= workers == _pool_workers()

    def test_killed_worker_replaces_the_pool(self, usable_cpus):
        started = usable_cpus(2)
        list(pool.fork_map(_worker_pid, range(2)))
        with pytest.raises(BrokenProcessPool, match="terminated abruptly"):
            list(pool.fork_map(_exit_at_once, range(2)))
        assert started == [2]
        first = list(pool.fork_map(_worker_pid, range(4)))
        second = list(pool.fork_map(_worker_pid, range(4)))
        assert started == [2, 2]
        assert set(first + second) <= _pool_workers()

    def test_failed_task_keeps_the_pool(self, usable_cpus):
        started = usable_cpus(2)
        with pytest.raises(ValueError, match="task 1 failed"):
            list(pool.fork_map(_fail, range(1, 5)))
        workers = _pool_workers()
        assert set(pool.fork_map(_worker_pid, range(4))) <= workers
        # an abandoned generator keeps the pool too
        parts = pool.fork_map(_worker_pid, range(4))
        next(parts)
        parts.close()
        assert set(pool.fork_map(_worker_pid, range(4))) <= workers == _pool_workers()
        assert started == [2]

    def test_failed_task_cancels_the_queued_ones(self, usable_cpus, tmp_path):
        usable_cpus(2)
        with pytest.raises(ValueError, match="task 0 failed"):
            list(pool.fork_map(functools.partial(_fail_first, str(tmp_path)), range(12)))
        # a later call's tasks start after every earlier task still queued
        list(pool.fork_map(_worker_pid, range(2)))
        time.sleep(0.5)  # longer than a task: the ones that started are done
        # only the two running tasks and the few handed to the call queue ran
        assert len(list(tmp_path.iterdir())) < 11

    def test_child_starts_its_own_pool(self, usable_cpus):
        usable_cpus(2)
        list(pool.fork_map(_worker_pid, range(4)))
        workers = _pool_workers()
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_child_pool_pids, args=(writer,))
        child.start()
        writer.close()
        child_workers = set()
        try:
            # a child that submits to the parent's pool waits forever
            assert reader.poll(60), "fork_map in the child did not return"
            child_workers = set(reader.recv())
            # and one that does not stop its pool before it exits hangs
            child.join(60)
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join(10)
                for pid in filter(_running, child_workers):
                    os.kill(pid, signal.SIGKILL)
        assert child_workers and not child_workers & (workers | {os.getpid()})
        assert set(pool.fork_map(_worker_pid, range(4))) <= workers == _pool_workers()
