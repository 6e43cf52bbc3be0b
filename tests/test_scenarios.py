import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import (
    REACTOR_A,
    REACTOR_B,
    batch_reactor,
    float_trace_rows,
    percent_trace_rows,
    reactor_lqr_gain,
)

import lossyetc as le
from lossyetc import scenarios
from lossyetc.scenarios import (
    ScenarioFormatError,
    load_scenario,
    load_trace,
    save_scenario,
    save_trace,
    scenario_from_dict,
    scenario_to_dict,
    trace_to_dict,
    vehicle_preset,
)
from lossyetc.simulator import Trace, summarize
from lossyetc.system_model import EstimatorKind
from lossyetc.trigger_channel import ChannelMode, ChannelPolicy, random_drop_script

NOM_A = np.array([[-1.6579, 10.45], [0.4886, -2.718]])
NOM_B = np.array([-12.1053, 13.1429])


def _assert_scenarios_equal(a, b):
    assert np.array_equal(a.plant.A, b.plant.A)
    assert np.array_equal(a.plant.B, b.plant.B)
    assert np.array_equal(a.model.A_hat, b.model.A_hat)
    assert np.array_equal(a.model.B_hat, b.model.B_hat)
    assert np.array_equal(a.gain.K, b.gain.K)
    assert a.estimator is b.estimator
    assert a.trigger == b.trigger
    assert a.channel == b.channel
    assert np.array_equal(a.x0, b.x0)
    assert (a.t_max, a.sample_dt, a.event_tol) == (b.t_max, b.sample_dt, b.event_tol)


class TestVehiclePreset:
    def test_nominal_model_matrices(self, vehicle0):
        m = vehicle0.model
        assert m.A_hat[0, 0] == -1.6579
        assert np.array_equal(m.A_hat[:2, :2], NOM_A)
        assert np.array_equal(m.A_hat[2], [0.0, 1.0, 0.0, 0.0])
        assert np.array_equal(m.A_hat[3], [1.0, 0.0, -12.0, 0.0])
        assert m.B_hat[0, 0] == NOM_B[0] and m.B_hat[1, 1] == NOM_B[1]
        assert np.count_nonzero(m.B_hat) == 2

    def test_gain_structure(self, vehicle0):
        expected_row = [0.0, 0.0, -1.0, 1.0 / 40.0]
        assert np.array_equal(vehicle0.gain.K, [expected_row, expected_row])

    def test_defaults(self, vehicle0):
        assert vehicle0.estimator is EstimatorKind.MODEL_BASED
        assert vehicle0.trigger.beta == 0.5 and vehicle0.trigger.alpha == 0.25
        assert vehicle0.channel == ChannelPolicy(M=5, mode=ChannelMode.WORST_CASE)
        assert np.array_equal(vehicle0.x0, [0.0, 0.0, 0.2, 1.0])
        assert vehicle0.t_max == 60.0
        assert vehicle0.sample_dt == 1e-3
        assert vehicle0.event_tol == 1e-9

    def test_no_seed_means_exact_model(self, vehicle0):
        assert np.array_equal(vehicle0.plant.A, vehicle0.model.A_hat)
        assert np.array_equal(vehicle0.plant.B, vehicle0.model.B_hat)

    def test_seed_determinism(self):
        a = vehicle_preset(7)
        b = vehicle_preset(7)
        _assert_scenarios_equal(a, b)
        c = vehicle_preset(8)
        assert not np.array_equal(a.plant.A, c.plant.A)

    def test_perturbation_bounds_and_support(self):
        for seed in range(1, 21):
            scn = vehicle_preset(seed)
            d_a = scn.plant.A - scn.model.A_hat
            d_b = scn.plant.B - scn.model.B_hat
            assert np.max(np.abs(d_a[:2, :2])) <= 0.1
            assert np.max(np.abs(d_a[:2, :2])) > 0.0
            # only the dynamic block and the two input gains move
            assert np.array_equal(d_a[2:], np.zeros((2, 4)))
            assert abs(d_b[0, 0]) <= 0.05 and abs(d_b[1, 1]) <= 0.05
            assert np.count_nonzero(d_b) <= 2
            # the model side never moves
            assert np.array_equal(scn.model.A_hat, vehicle_preset().model.A_hat)


class TestScenarioJson:
    def test_round_trip_preset(self, vehicle0, tmp_path):
        path = tmp_path / "scn.json"
        save_scenario(vehicle0, str(path))
        _assert_scenarios_equal(load_scenario(str(path)), vehicle0)

    def test_round_trip_bernoulli(self, golden_scn, tmp_path):
        path = tmp_path / "scn.json"
        save_scenario(golden_scn, str(path))
        loaded = load_scenario(str(path))
        _assert_scenarios_equal(loaded, golden_scn)
        assert loaded.channel.p == 0.7 and loaded.channel.seed == 1

    def test_round_trip_scripted(self, vehicle0, tmp_path):
        script = random_drop_script(5, 0.6, 40, seed=3)
        scn = dataclasses.replace(
            vehicle0,
            channel=ChannelPolicy(M=5, mode=ChannelMode.SCRIPTED, script=script),
        )
        path = tmp_path / "scn.json"
        save_scenario(scn, str(path))
        loaded = load_scenario(str(path))
        assert loaded.channel.script == script
        doc = json.loads(path.read_text())
        assert set(doc["channel"]["script"]) <= {0, 1}

    def test_dict_round_trip_exact_floats(self, golden_scn):
        # through an actual JSON text, so float formatting is exercised
        doc = json.loads(json.dumps(scenario_to_dict(golden_scn)))
        _assert_scenarios_equal(scenario_from_dict(doc), golden_scn)

    @settings(max_examples=30, deadline=None)
    @given(
        mode=st.sampled_from(list(ChannelMode)),
        m=st.integers(min_value=2, max_value=8),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
        beta=st.floats(min_value=1e-3, max_value=100.0),
        alpha=st.floats(min_value=1e-3, max_value=2.0),
        estimator=st.sampled_from(list(EstimatorKind)),
    )
    def test_round_trip_randomized(self, mode, m, p, seed, beta, alpha, estimator):
        import dataclasses

        from lossyetc.trigger_channel import TriggerConfig

        kwargs = {"M": m, "mode": mode}
        if mode is ChannelMode.BERNOULLI:
            kwargs["p"] = p
            kwargs["seed"] = seed
        elif mode is ChannelMode.SCRIPTED:
            kwargs["script"] = random_drop_script(m, p, 30, seed=seed)
        scn = dataclasses.replace(
            vehicle_preset(seed % 5 or None),
            channel=ChannelPolicy(**kwargs),
            trigger=TriggerConfig(beta=beta, alpha=alpha),
            estimator=estimator,
        )
        doc = json.loads(json.dumps(scenario_to_dict(scn)))
        _assert_scenarios_equal(scenario_from_dict(doc), scn)


class TestScenarioErrors:
    def _doc(self, vehicle0):
        return scenario_to_dict(vehicle0)

    def test_collects_multiple_problems(self, vehicle0, tmp_path):
        doc = self._doc(vehicle0)
        doc["trigger"]["beta"] = -1.0
        doc["channel"] = {
            "M": 5,
            "mode": "scripted",
            "script": [1, 1, 1, 1, 1, 0],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(str(path))
        problems = err.value.problems
        assert len(problems) == 2
        beta_line = 1 + path.read_text()[: path.read_text().find('"beta"')].count("\n")
        assert problems[0] == (
            f"line {beta_line}: trigger.beta: "
            "beta must be positive and finite, got -1.0"
        )
        assert "channel.script: script contains 5 consecutive drops, cap is 4" in problems[1]
        assert problems[1].startswith("line ")

    def test_model_errors_collected_with_lines(self, vehicle0, tmp_path):
        doc = self._doc(vehicle0)
        doc["plant"]["A"] = doc["plant"]["A"][:3]  # 3 x 4: not square
        doc["trigger"]["beta"] = -1
        path = tmp_path / "bad.json"
        text = json.dumps(doc, indent=2) + "\n"
        path.write_text(text)
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(str(path))
        a_line = 1 + text[: text.find('"A"', text.find('"plant"'))].count("\n")
        beta_line = 1 + text[: text.find('"beta"')].count("\n")
        assert err.value.problems == [
            f"line {a_line}: plant.A: A must be square, got shape (3, 4)",
            f"line {beta_line}: trigger.beta: "
            "beta must be positive and finite, got -1.0",
        ]

    def test_model_input_rows_named(self, vehicle0):
        doc = self._doc(vehicle0)
        doc["model"]["B_hat"] = doc["model"]["B_hat"][:3]
        doc["channel"] = {"M": 5, "mode": "bernoulli", "p": "often"}
        with pytest.raises(ScenarioFormatError) as err:
            scenario_from_dict(doc)
        assert err.value.problems == [
            "model.B_hat: B_hat must be 4 x m, got shape (3, 2)",
            "channel.p: must be a number, got 'often'",
        ]

    def test_seed_outside_bernoulli_named(self, vehicle0):
        doc = self._doc(vehicle0)
        doc["channel"] = {"M": 5, "mode": "worst_case", "seed": 3}
        with pytest.raises(ScenarioFormatError) as err:
            scenario_from_dict(doc)
        assert err.value.problems == [
            "channel.seed: seed is only valid for bernoulli mode, got 3"
        ]

    @pytest.mark.parametrize("script", [
        ["0", "0", 2, None, 0.5],
        [1, 0, True],
        [1, 0, 1.0],
        [1, 0, -1],
    ])
    def test_script_entries_must_be_flags(self, vehicle0, tmp_path, script):
        doc = self._doc(vehicle0)
        doc["channel"] = {"M": 5, "mode": "scripted", "script": script}
        path = tmp_path / "bad.json"
        text = json.dumps(doc, indent=2) + "\n"
        path.write_text(text)
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(str(path))
        line = 1 + text[: text.find('"script"', text.find('"channel"'))].count("\n")
        assert err.value.problems == [
            f"line {line}: channel.script: must be a list of 0/1 flags"
        ]

    def test_x0_must_be_a_vector(self, vehicle0, tmp_path):
        doc = self._doc(vehicle0)
        doc["sim"]["x0"] = [[0.0, 0.0], [0.2, 1.0]]
        path = tmp_path / "bad.json"
        text = json.dumps(doc, indent=2) + "\n"
        path.write_text(text)
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(str(path))
        line = 1 + text[: text.find('"x0"', text.find('"sim"'))].count("\n")
        assert err.value.problems == [
            f"line {line}: sim.x0: must be a 1-d numeric array, got shape (2, 2)"
        ]

    def test_missing_section(self, vehicle0):
        doc = self._doc(vehicle0)
        del doc["trigger"]
        with pytest.raises(ScenarioFormatError) as err:
            scenario_from_dict(doc)
        joined = "; ".join(err.value.problems)
        assert "trigger: missing or not an object" in joined
        assert "trigger.beta" in joined

    def test_bad_estimator(self, vehicle0):
        doc = self._doc(vehicle0)
        doc["estimator"] = "hold"
        with pytest.raises(ScenarioFormatError, match="estimator"):
            scenario_from_dict(doc)

    def test_bad_channel_mode_and_m(self, vehicle0):
        doc = self._doc(vehicle0)
        doc["channel"] = {"M": "five", "mode": "sometimes"}
        with pytest.raises(ScenarioFormatError, match="channel.M"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("seed", [-3, "7", True])
    def test_bad_seed_named(self, vehicle0, seed):
        doc = self._doc(vehicle0)
        doc["channel"] = {"M": 5, "mode": "bernoulli", "p": 0.5, "seed": seed}
        with pytest.raises(ScenarioFormatError) as err:
            scenario_from_dict(doc)
        assert err.value.problems == [
            f"channel.seed: seed must be a non-negative integer, got {seed!r}"
        ]

    def test_bernoulli_without_p(self, vehicle0):
        doc = self._doc(vehicle0)
        doc["channel"] = {"M": 5, "mode": "bernoulli"}
        with pytest.raises(ScenarioFormatError, match="channel.p"):
            scenario_from_dict(doc)

    def test_sim_invariants_mapped_to_keys(self, vehicle0):
        doc = self._doc(vehicle0)
        doc["sim"]["sample_dt"] = 30.0
        with pytest.raises(ScenarioFormatError, match="sim.sample_dt"):
            scenario_from_dict(doc)
        doc = self._doc(vehicle0)
        doc["sim"]["event_tol"] = 1.0
        with pytest.raises(ScenarioFormatError, match="sim.event_tol"):
            scenario_from_dict(doc)

    def test_non_numeric_matrix(self, vehicle0):
        doc = self._doc(vehicle0)
        doc["plant"]["A"] = [["x", 1.0], [0.0, 1.0]]
        with pytest.raises(ScenarioFormatError, match="plant.A"):
            scenario_from_dict(doc)

    def test_top_level_must_be_object(self):
        with pytest.raises(ScenarioFormatError, match="top level"):
            scenario_from_dict([1, 2, 3])

    def test_error_pickles(self):
        # Errors cross process boundaries pickled, e.g. out of a pool worker.
        problems = ["line 3: trigger.beta: must be positive", "channel.M: must be >= 2"]
        err = pickle.loads(pickle.dumps(ScenarioFormatError(problems)))
        assert type(err) is ScenarioFormatError
        assert err.problems == problems
        assert str(err) == "line 3: trigger.beta: must be positive; channel.M: must be >= 2"

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "plant": {\n')
        with pytest.raises(ScenarioFormatError, match=r"line \d+: malformed JSON"):
            load_scenario(str(path))


# Finite doubles that stress a text round-trip: signed zero, the subnormal
# range, the largest finite values, and values that need all 17 digits.
_ADVERSARIAL_DOUBLES = (
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3,
    0.30000000000000004, 1e23, 9007199254740991.0, 2.0**-1074 * 3,
)


def _hand_trace(t, x, x_s, x_c, norms, triggered, delivered):
    return Trace(
        t=t, x=x, x_s=x_s, x_c=x_c,
        e_s_norm=norms[:, 0], e_c_norm=norms[:, 1], threshold=norms[:, 2],
        triggered=triggered, delivered=delivered,
        triggers=t[triggered], deliveries=t[delivered],
    )


@st.composite
def _traces(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    rows = draw(st.integers(min_value=0, max_value=6))
    value = st.one_of(
        st.sampled_from(_ADVERSARIAL_DOUBLES),
        st.floats(allow_nan=False, allow_infinity=False),
    )

    def floats(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(value, min_size=size, max_size=size))).reshape(shape)

    def flags():
        return np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=bool)

    return _hand_trace(
        floats(rows), floats(rows, n), floats(rows, n), floats(rows, n),
        floats(rows, 3), flags(), flags(),
    )


def _multi_block_trace():
    """6,144 rows of adversarial doubles and random floats: three save blocks
    and two load spans."""
    rng = np.random.default_rng(0)
    rows, n = 6144, 3
    size = rows * (3 * n + 4)
    values = np.where(
        rng.random(size) < 0.5,
        rng.choice(_ADVERSARIAL_DOUBLES, size),
        rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size),
    ).reshape(rows, -1)
    return _hand_trace(
        values[:, 0], values[:, 1 : n + 1], values[:, n + 1 : 2 * n + 1],
        values[:, 2 * n + 1 : 3 * n + 1], values[:, 3 * n + 1 :],
        rng.random(rows) < 0.5, rng.random(rows) < 0.5,
    )


_FORK = "fork" in multiprocessing.get_all_start_methods()
# Usable CPUs, and the worker count of each pool that save plus load start:
# the save starts one and the load reuses it.
_POOL_CASES = pytest.mark.parametrize(
    "cpus, pools", [(2, [2] if _FORK else []), (1, [])], ids=["pool", "in_process"]
)


_HEADER = "t,x_0,xs_0,xc_0,es_norm,ec_norm,threshold,triggered,delivered"
# Body lines for a 1-dimensional state, 19 bytes each with their CRLF.
_ROWS = [f"{i},1,2,3,4,5,6,0,0" for i in range(4)]


def _write_rows(path, rows):
    """A trace CSV for a 1-dimensional state with the given body lines."""
    path.write_text("\r\n".join([_HEADER, *rows]) + "\r\n")


# %.17g edge cases: the switches between e and fixed notation at 1e-4 and at
# 17 digits, zeros in the integer part, and an exact tie in the 17th digit.
_FORMAT_EDGES = (
    0.0, 5e-324, 1.7976931348623157e308, 1e-5, 1e-4, 9.9999999999999995e-5,
    1e16, 1e17, 99999999999999999.0, 10.0, 100.0, 0.1, 1234567890123456.75,
)


def _flagged(values, rng):
    """A table block of the given float columns plus two random flag columns."""
    flags = rng.integers(0, 2, size=(len(values), 2)).astype(float)
    return np.column_stack((values, flags))


class TestTraceCsv:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=1, max_value=3), data=st.data())
    def test_format_block_matches_percent_operator(self, n, data):
        width = 3 * n + 4
        rows = data.draw(st.integers(min_value=1, max_value=4))
        values = data.draw(
            st.lists(st.floats(width=64), min_size=rows * width, max_size=rows * width)
        )
        block = _flagged(np.array(values).reshape(rows, width), np.random.default_rng(rows))
        assert scenarios._format_block(block) == percent_trace_rows(block)

    def test_format_block_random_bit_patterns(self):
        # every exponent, subnormals, NaN payloads and infinities
        rng = np.random.default_rng(20)
        bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64)
        block = _flagged(bits.view(np.float64).reshape(-1, 16), rng)
        text = scenarios._format_block(block)
        assert text == percent_trace_rows(block)
        # the bytes do not depend on where blocks are cut
        cuts = [0, 1, 700, 4097, 9000, len(block)]
        assert b"".join(
            scenarios._format_block(block[i:j]) for i, j in zip(cuts, cuts[1:])
        ) == text

    def test_tables_are_built_at_the_first_save(self):
        # A process that writes or reads no trace CSV never builds the %.17g
        # tables.
        code = (
            "import numpy as np, lossyetc.cli, lossyetc.scenarios as s\n"
            "tables = (s._powers_of_ten, s._field_words, s._quads, s._mantissa_tables)\n"
            "assert all(t.cache_info().currsize == 0 for t in tables)\n"
            "s._parse_rows(b'1,2\\r\\n', 2)\n"
            "assert [t.cache_info().currsize for t in tables] == [1, 0, 0, 1]\n"
            "s._format_block(np.ones((3, 6)))\n"
            "assert all(t.cache_info().currsize == 1 for t in tables)\n"
        )
        src = str(Path(scenarios.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})

    def test_format_block_edges_and_fallback(self, monkeypatch):
        edges = np.array(_FORMAT_EDGES + tuple(-v for v in _FORMAT_EDGES))
        block = _flagged(edges.reshape(2, -1), np.random.default_rng(0))
        uncertified = []

        def python_g17(values):
            uncertified.extend(values)
            return ["%.17g" % v for v in values]

        monkeypatch.setattr(scenarios, "_python_g17", python_g17)
        assert scenarios._format_block(block) == percent_trace_rows(block)
        # zeros, out-of-range magnitudes and the tie go to Python; the rest
        # is certified by the vectorized conversion
        fallback = (0.0, 5e-324, 1.7976931348623157e308, 1234567890123456.75)
        assert sorted(map(abs, uncertified)) == sorted(2 * fallback)
        assert {np.signbit(v) for v in uncertified} == {False, True}

    @_POOL_CASES
    def test_round_trip_bitwise(self, golden_trace, tmp_path, usable_cpus, cpus, pools):
        started = usable_cpus(cpus)
        path = tmp_path / "trace.csv"
        save_trace(golden_trace, str(path))
        loaded = load_trace(str(path))
        assert started == pools
        for name in ("t", "x", "x_s", "x_c", "e_s_norm", "e_c_norm", "threshold",
                     "triggered", "delivered", "triggers", "deliveries"):
            assert np.array_equal(getattr(loaded, name), getattr(golden_trace, name)), name
        assert not loaded.x.flags.writeable

    @_POOL_CASES
    def test_columns_are_contiguous(
        self, golden_trace, trace_zoh7, tmp_path, usable_cpus, cpus, pools
    ):
        # simulate and load_trace give one column-major layout: each 1-D column
        # is a contiguous table row.  trace_zoh7 outgrows the simulator's
        # first table.
        started = usable_cpus(cpus)
        path = tmp_path / "trace.csv"
        save_trace(golden_trace, str(path))
        loaded = load_trace(str(path))
        assert started == pools
        for tr in (golden_trace, trace_zoh7, loaded):
            for name in ("t", "e_s_norm", "e_c_norm", "threshold"):
                assert getattr(tr, name).flags.c_contiguous, name

    def test_relative_path_after_chdir(self, golden_trace, tmp_path, monkeypatch, usable_cpus):
        # the save starts the pool; its workers keep the directory they started in
        started = usable_cpus(2)
        save_trace(golden_trace, str(tmp_path / "trace.csv"))
        monkeypatch.chdir(tmp_path)
        loaded = load_trace("trace.csv")
        assert started == ([2] if _FORK else [])
        assert loaded.t.tobytes() == golden_trace.t.tobytes()

    def test_one_cpu_parses_in_one_piece(self, golden_trace, tmp_path, usable_cpus):
        # With no pool to parse spans on, the 21 MB body is one span.
        path = tmp_path / "trace.csv"
        save_trace(golden_trace, str(path))
        started = usable_cpus(1)
        with path.open("rb") as fh:
            assert len(scenarios._body_spans(str(path), fh.readline())) == 1
        loaded = load_trace(str(path))
        assert started == []
        for name in ("t", "x", "x_s", "x_c", "e_s_norm", "e_c_norm", "threshold",
                     "triggered", "delivered"):
            a, b = getattr(loaded, name), getattr(golden_trace, name)
            assert a.tobytes() == b.tobytes(), name

    def test_header_layout(self, golden_trace, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace(golden_trace, str(path))
        header = path.read_text().splitlines()[0]
        assert header == (
            "t,x_0,x_1,x_2,x_3,xs_0,xs_1,xs_2,xs_3,xc_0,xc_1,xc_2,xc_3,"
            "es_norm,ec_norm,threshold,triggered,delivered"
        )

    def test_flags_written_as_ints(self, golden_trace, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace(golden_trace, str(path))
        lines = path.read_text().splitlines()[1:]
        flags = {line.rsplit(",", 2)[-2] for line in lines}
        assert flags <= {"0", "1"}

    @_POOL_CASES
    def test_bytes_pinned(self, golden_trace, tmp_path, usable_cpus, cpus, pools):
        started = usable_cpus(cpus)
        path = tmp_path / "trace.csv"
        save_trace(golden_trace, str(path))
        assert started == pools
        data = path.read_bytes()
        assert golden_trace.num_samples == 60079
        assert len(data) == 21_663_026
        assert data.count(b"\r\n") == 60080
        assert hashlib.sha256(data).hexdigest() == (
            "18e3e93df569bfad266f158d63c6f59ad99e908b701b4528141b2ed6ac635d88"
        )

    @_POOL_CASES
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(tr=_traces())
    @example(tr=_multi_block_trace())
    def test_round_trip_adversarial_doubles(self, usable_cpus, cpus, pools, tr):
        started = usable_cpus(cpus)
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "trace.csv")
            save_trace(tr, path)
            loaded = load_trace(path)
        # the drawn traces fit in one block and one span, so never fork
        assert started == (pools if tr.num_samples > 2048 else [])
        for name in ("t", "x", "x_s", "x_c", "e_s_norm", "e_c_norm", "threshold",
                     "triggered", "delivered", "triggers", "deliveries"):
            a, b = getattr(loaded, name), getattr(tr, name)
            # byte comparison, so a lost sign bit on -0.0 fails too
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name

    def test_header_only_loads_empty(self, tmp_path, usable_cpus):
        started = usable_cpus(2)
        empty = np.empty(0)
        tr = _hand_trace(
            empty, np.empty((0, 4)), np.empty((0, 4)), np.empty((0, 4)),
            np.empty((0, 3)), empty.astype(bool), empty.astype(bool),
        )
        path = tmp_path / "trace.csv"
        save_trace(tr, str(path))
        assert path.read_bytes().count(b"\r\n") == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_trace(str(path))
        assert loaded.num_samples == 0
        assert loaded.x.shape == loaded.x_s.shape == loaded.x_c.shape == (0, 4)
        assert loaded.triggered.dtype == bool and loaded.triggers.shape == (0,)
        assert started == []

    def test_non_numeric_field_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        _write_rows(path, ["0,1,2,3,4,5,6,0,0", "0.5,1,2,abc,4,5,6,0,0"])
        with pytest.raises(ValueError, match="abc"):
            load_trace(str(path))

    @pytest.mark.parametrize("rows", [
        ["0,1,2,3,4,5,6,0,0", "0.5,1,2,3,4,5,6,0"],
        ["0,1,2,3,4,5,6,0", "0.5,1,2,3,4,5,6,0"],
        ["0,1,2,3,4,5,6,0,0,1"],
    ])
    def test_wrong_column_count_rejected(self, tmp_path, rows):
        path = tmp_path / "trace.csv"
        _write_rows(path, rows)
        with pytest.raises(ValueError, match="column"):
            load_trace(str(path))

    @pytest.mark.parametrize("bad, message", [
        ("5,1,2,abc,4,5,6,0,0", "could not convert string 'abc' to float64 at row 5, column 4."),
        ("5,1,2,3,4,5,6,0", "the number of columns changed from 9 to 8 at row 6; "),
    ], ids=["non_numeric", "short_row"])
    def test_error_in_later_span_keeps_its_message(
        self, tmp_path, monkeypatch, usable_cpus, bad, message
    ):
        path = tmp_path / "trace.csv"
        _write_rows(path, [f"{i},1,2,3,4,5,6,0,0" for i in range(5)] + [bad, "6,1,2,3,4,5,6,0,0"])
        with pytest.raises(ValueError) as in_process:
            load_trace(str(path))
        # spans of two rows: the bad row is the last of the third span
        monkeypatch.setattr(scenarios, "_SPAN_BYTES", 64)
        started = usable_cpus(2)
        with pytest.raises(ValueError) as pooled:
            load_trace(str(path))
        assert started == ([2] if _FORK else [])
        assert str(pooled.value) == str(in_process.value)
        assert str(pooled.value).startswith(message)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_spans_balanced_over_the_cpus(self, tmp_path, monkeypatch, usable_cpus, cpus):
        path = tmp_path / "trace.csv"
        _write_rows(path, [f"{i},1,2,3,4,5,6,0,{i % 2}" for i in range(40)])
        whole = load_trace(str(path))
        monkeypatch.setattr(scenarios, "_SPAN_BYTES", 64)
        started = usable_cpus(cpus)
        # 790 body bytes: the fewest spans of at most about 64 bytes whose
        # count is a multiple of the CPUs, cut every 790 / count <= 57 bytes
        spans = scenarios._body_spans(str(path), (_HEADER + "\r\n").encode())
        assert len(spans) == cpus * -(-790 // (cpus * 64))
        # each runs at most one 20-byte line past its cut
        assert max(stop - start for start, stop in spans) <= 57 + 20
        loaded = load_trace(str(path))
        assert started == ([cpus] if _FORK else [])
        for name in ("t", "x", "x_s", "x_c", "e_s_norm", "triggered", "delivered"):
            assert np.array_equal(getattr(loaded, name), getattr(whole, name)), name

    def test_short_later_span_rejected(self, tmp_path, monkeypatch, usable_cpus):
        path = tmp_path / "trace.csv"
        # three full rows, then a span of three rows that parses, one column short
        _write_rows(path, [f"{i},1,2,3,4,5,6,0,0" for i in range(3)]
                    + [f"{i},1,2,3,4,5,6,0" for i in range(3, 6)])
        monkeypatch.setattr(scenarios, "_SPAN_BYTES", 64)
        started = usable_cpus(2)
        with pytest.raises(ValueError, match="column"):
            load_trace(str(path))
        assert started == ([2] if _FORK else [])

    @pytest.mark.parametrize("text, pools", [
        # a span of one row and one empty line: the pooled parse falls back
        ("\r\n".join(_ROWS[:2] + [""] + _ROWS[2:]) + "\r\n", [2] if _FORK else []),
        # spans of empty lines only: the whole body falls back to loadtxt,
        # which skips them without a warning
        ("\r\n".join(_ROWS + [""] * 20) + "\r\n", [2] if _FORK else []),
        # a header ended by a lone CR: its binary line runs into the first row
        ("\r" + "\r\n".join(_ROWS) + "\r\n", []),
    ], ids=["inner_empty_line", "trailing_empty_lines", "cr_header"])
    def test_newlines_read_as_in_one_piece(
        self, tmp_path, monkeypatch, usable_cpus, text, pools
    ):
        path = tmp_path / "trace.csv"
        path.write_bytes((_HEADER + ("" if text.startswith("\r") else "\r\n") + text).encode())
        whole = load_trace(str(path))
        assert whole.num_samples == len(_ROWS)
        # spans of one line, plus an empty line that fits beside it
        monkeypatch.setattr(scenarios, "_SPAN_BYTES", 24)
        started = usable_cpus(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_trace(str(path))
        assert started == pools
        for name in ("t", "x", "x_s", "x_c", "e_s_norm", "triggered", "delivered"):
            assert np.array_equal(getattr(loaded, name), getattr(whole, name)), name

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "nottrace.csv"
        path.write_text("time,value\n0.0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_trace(str(path))


def _table(tr):
    """The trace's CSV columns as save_trace stacks them."""
    return np.column_stack(
        (tr.t, tr.x, tr.x_s, tr.x_c, tr.e_s_norm, tr.e_c_norm, tr.threshold,
         tr.triggered, tr.delivered)
    )


# Fields save_trace never writes, and those it writes at the edges of the
# reader's fast path, each on a line of its own: exact midpoints between
# adjacent doubles (1e23, 2**53 + 1, ...; they round to even), decimals just
# off one, 18-20 significant digits, signed zeros, short and three-digit
# exponents, the smallest normal and the largest subnormal, the table's
# ends, non-finite values, integer parts of up to 17 digits, and mantissas
# that reach the end of the 24 bytes the reader reads past the sign.
_READER_EDGES = {
    # field: not certified by the vectorized reader
    b"1e+23": True, b"9.007199254740993e+15": True, b"9007199254740993": True,
    b"-9007199254740995": True, b"1.8014398509481986e+16": True,
    b"3.6028797018963972e+16": True, b"9.0071992547409931e+15": False,
    b"9007199254740992.9": False, b"1.23456789012345678": True,
    b"0.12345678901234567891": True, b"-123456789012345678.5": True,
    b"-0": False, b"0": False, b"-0.0": False, b"1e-05": False, b"1e-5": True,
    b"1.5e-123": False, b"-2.5e+200": False, b"1e-300": True, b"1e+300": True,
    b"2.2250738585072014e-308": True, b"2.2250738585072009e-308": True,
    b"4.9406564584124654e-324": True, b"1.7976931348623157e+308": True,
    b"1.2345678901234567e-220": False, b"1.2345678901234567e-221": True,
    b"9.9999999999999997e+284": False, b"1e+285": True,
    b"nan": True, b"-inf": True, b"12345678.5": False, b"-1234567890123456.8": False,
    b"99999999999999984": False, b"0.00099999999999999915": False,
    b"123456789012345678901234.5": True, b"000000000000000000000012": True,
    b"00000000000000000000012": False, b"0000000000000000000001.2": False,
    b"000000000000000000000001.2": True,
}


class TestTraceCsvReader:
    """The vectorized reader of save_trace's dialect, against float()."""

    @settings(max_examples=60, deadline=None)
    @given(tr=_traces())
    @example(tr=_multi_block_trace())
    def test_parse_rows_matches_float_oracle(self, tr):
        table = _table(tr)
        text = scenarios._format_block(table)
        rows = scenarios._parse_rows(text, table.shape[1])
        want = float_trace_rows(text, table.shape[1])
        # the writer's own doubles are certified, except outside the power
        # table or when not finite
        a = np.abs(table)
        if np.all((a == 0.0) | ((a >= 1e-200) & (a <= 1e200))):
            assert rows is not None
        assert rows is None or rows.tobytes() == want.tobytes()

    def test_parse_rows_edges(self, tmp_path):
        # each field on a line of its own: None exactly where it is flagged
        for field, uncertified in _READER_EDGES.items():
            got = scenarios._parse_rows(field + b"\r\n", 1)
            if uncertified:
                assert got is None, field
            else:
                assert got.tobytes() == float_trace_rows(field + b"\r\n", 1).tobytes(), field
        text = b"".join(field + b"\r\n" for field in _READER_EDGES)
        assert scenarios._parse_rows(text, 1) is None
        path = tmp_path / "edges.csv"
        _write_rows(path, [",".join([field.decode()] * 9) for field in _READER_EDGES])
        t = load_trace(str(path)).t
        assert t[list(_READER_EDGES).index(b"1e+23")] == 99999999999999991611392.0
        assert t[list(_READER_EDGES).index(b"9007199254740993")] == 2.0**53

    def test_parse_rows_random_decimal_fields(self):
        # Fields of 1-30 digits, many with leading zeros, some with a point,
        # an exponent of 2 or 3 digits or a sign: each line of four parses as
        # float() does, or gives None where a field is not certified.
        rng = np.random.default_rng(24)
        fields = []
        for n, zeros, point, exp, neg in zip(
            rng.integers(1, 31, 40_000), rng.random(40_000), rng.random(40_000),
            rng.random(40_000), rng.random(40_000) < 0.3,
        ):
            digits = "".join(map(str, rng.integers(0, 10, n)))
            digits = "0" * int(zeros * n) + digits[int(zeros * n) :]
            if point < 0.6:
                at = int(point / 0.6 * (n + 1))
                digits = digits[:at] + "." + digits[at:]
            if exp < 0.4:
                digits += "e%s%0*d" % ("+-"[int(exp * 5) % 2], 2 + int(exp * 10) % 2,
                                       int(exp * 825))
            fields.append(("-" if neg else "") + digits)
        certified = 0
        for i in range(0, len(fields), 4):
            got = scenarios._parse_rows((",".join(fields[i : i + 4]) + "\r\n").encode(), 4)
            if got is not None:
                certified += 1
                assert got.tobytes() == np.array([list(map(float, fields[i : i + 4]))]).tobytes()
        assert certified == 1347  # of 10,000 lines

    @_POOL_CASES
    def test_load_trace_edges_match_loadtxt(self, tmp_path, monkeypatch, usable_cpus, cpus, pools):
        # Every edge field in each column of a trace file: load_trace gives the
        # table that np.loadtxt reads from it, in one piece and span by span.
        path = tmp_path / "trace.csv"
        edges = [field.decode() for field in _READER_EDGES]
        _write_rows(path, [",".join([field] * 9) for field in edges])
        want = np.loadtxt(path, delimiter=",", skiprows=1)
        monkeypatch.setattr(scenarios, "_SPAN_BYTES", 512)
        started = usable_cpus(cpus)
        loaded = load_trace(str(path))
        assert started == pools
        assert _table(loaded)[:, :7].tobytes() == want[:, :7].tobytes()
        assert np.array_equal(_table(loaded)[:, 7:], want[:, 7:] != 0)

    @pytest.mark.parametrize("text", [
        b"0,1_0\r\n", b"0, 1\r\n", b"0,1\n", b"0,1\r\n\r\n", b"0,1", b"0,1,2\r\n",
        b"0,1.2.3\r\n", b"0,--1\r\n", b"0,1e\r\n", b"0,.\r\n", b"0,\r\n", b"0,infinity\r\n",
    ])
    def test_parse_rows_leaves_other_text_to_loadtxt(self, text):
        assert scenarios._parse_rows(text, 2) is None

    def test_save_trace_files_never_reach_loadtxt(
        self, golden_trace, trace7, tmp_path, monkeypatch, usable_cpus
    ):
        # save_trace's own files parse on the vectorized path alone, in one
        # piece and on a fresh pool: a change that sends them back to loadtxt
        # fails here.
        usable_cpus(1)
        paths = [tmp_path / "golden.csv", tmp_path / "preset7.csv"]
        for tr, path in zip((golden_trace, trace7), paths):
            save_trace(tr, str(path))

        def no_loadtxt(*_args, **_kwargs):
            raise AssertionError("np.loadtxt reached")

        monkeypatch.setattr(np, "loadtxt", no_loadtxt)
        for cpus, pools in [(1, []), (2, [2] if _FORK else [])]:
            started = usable_cpus(cpus)
            for tr, path in zip((golden_trace, trace7), paths):
                loaded = load_trace(str(path))
                assert _table(loaded).tobytes() == _table(tr).tobytes()
            assert started == pools

    def test_batch_reactor_plant(self):
        # the published open-loop eigenvalues catch a typo in A or B
        eig = np.sort(np.linalg.eigvals(REACTOR_A).real)
        assert np.allclose(eig, [-8.6659, -5.0566, 0.0635, 1.9910], atol=1e-4)
        loop = np.linalg.eigvals(REACTOR_A + REACTOR_B @ reactor_lqr_gain())
        loop = loop[np.lexsort((loop.imag, loop.real))]
        assert np.allclose(loop, [-8.755, -6.046 - 2.254j, -6.046 + 2.254j, -3.123], atol=1e-3)

    @_POOL_CASES
    def test_batch_reactor_round_trip(self, tmp_path, usable_cpus, cpus, pools):
        # A second plant: the reactor's traces take the reader through other
        # exponents and integer parts than the vehicle's.
        started = usable_cpus(cpus)
        digests, triggers = [], []
        for estimator in (EstimatorKind.MODEL_BASED, EstimatorKind.ZERO_ORDER_HOLD):
            tr = le.simulate(batch_reactor(estimator))
            triggers.append(len(tr.triggers))
            path = tmp_path / f"reactor.{estimator.value}.csv"
            save_trace(tr, str(path))
            loaded = load_trace(str(path))
            for name in ("t", "x", "x_s", "x_c", "e_s_norm", "e_c_norm", "threshold",
                         "triggered", "delivered", "triggers", "deliveries"):
                a, b = getattr(loaded, name), getattr(tr, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert started == pools
        assert triggers == [32, 305]  # as ROADMAP item 13 measured them
        assert digests[0] == "9c4ebadd9609dcd58045635a3821c42a681ba0bcd3ec3c2dfdb30cec67d591eb"


class TestReportSerializers:
    """Report JSON is the report dataclass's fields, in field order."""

    def test_bounds_report_keys(self, report7):
        doc = dataclasses.asdict(report7)
        assert list(doc) == [
            "Delta", "miet", "F_bar", "F_cap", "F_bold", "a_hat", "a_tilde",
            "envelopes", "x0_norm",
        ]
        assert list(doc["envelopes"]) == ["true_loop"]
        assert list(doc["envelopes"]["true_loop"]) == ["c", "rate"]
        assert doc["Delta"] == report7.Delta
        json.dumps(doc)

    def test_zoh_report_keys(self, zoh7, trace_zoh7):
        from lossyetc.bounds import analyze_scenario_zoh

        doc = dataclasses.asdict(analyze_scenario_zoh(zoh7, trace_zoh7))
        assert list(doc) == ["Delta_zoh", "delta_bar_zoh", "growth", "state_norms"]
        assert list(doc["growth"]) == ["eta", "gamma"]
        json.dumps(doc)

    def test_subspace_report_keys(self, vehicle0):
        from lossyetc.bounds import stable_subspace_residual

        rep = stable_subspace_residual(
            vehicle0.plant, vehicle0.model, vehicle0.gain, vehicle0.x0
        )
        doc = dataclasses.asdict(rep)
        assert list(doc) == ["residual", "basis_dim"]
        json.dumps(doc)

    def test_trace_keys_and_flags(self, golden_trace):
        doc = trace_to_dict(golden_trace)
        assert list(doc) == [
            "t", "x", "x_s", "x_c", "es_norm", "ec_norm", "threshold",
            "triggered", "delivered",
        ]
        assert doc["x"] == golden_trace.x.tolist()
        flags = doc["triggered"] + doc["delivered"]
        assert {type(v) for v in flags} == {int} and set(flags) == {0, 1}
        assert sum(doc["triggered"]) == golden_trace.triggers.size

    def test_summary_keys_and_values(self, trace7, vehicle7):
        stats = summarize(trace7, vehicle7.trigger)
        doc = dataclasses.asdict(stats)
        assert list(doc) == [
            "trigger_count", "delivery_count", "min_inter_event",
            "mean_inter_event", "min_receive_interval", "mean_receive_interval",
            "final_state_norm", "empirical_amplification",
        ]
        assert doc["trigger_count"] == stats.trigger_count
        assert doc["final_state_norm"] == stats.final_state_norm
        json.dumps(doc)
