import dataclasses
import hashlib
import json
import math
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lossyetc as le
from lossyetc import bounds, pool, simulator

from lossyetc.numerics import mat_exp
from lossyetc.scenarios import load_trace, save_trace
from lossyetc.simulator import (
    Scenario,
    SimulationError,
    SummaryStats,
    Trace,
    simulate,
    summarize,
)
from lossyetc.system_model import (
    EstimatorKind,
    Gain,
    ModelError,
    NominalModel,
    Plant,
    closed_loop,
    gamma_matrix,
)
from lossyetc.trigger_channel import (
    ChannelMode,
    ChannelPolicy,
    TriggerConfig,
    random_drop_script,
    threshold_value,
)

from oracles import hybrid_reference
from test_random_plants import _scenario


def _scalar_scenario(**overrides):
    """Unstable scalar plant with a frozen model copy: e_s(t) = e^t - 1."""
    kwargs = dict(
        plant=Plant(A=[[1.0]], B=[[0.0]]),
        model=NominalModel(A_hat=[[0.0]], B_hat=[[0.0]]),
        gain=Gain(K=[[0.0]]),
        estimator=EstimatorKind.MODEL_BASED,
        trigger=TriggerConfig(beta=0.5, alpha=1e-12),
        channel=ChannelPolicy(M=2, mode=ChannelMode.ALWAYS_DELIVER),
        x0=[1.0],
        t_max=2.0,
        sample_dt=0.1,
        event_tol=1e-9,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestScenarioValidation:
    def _kwargs(self):
        return dict(
            plant=Plant(A=np.eye(2), B=np.ones((2, 1))),
            model=NominalModel(A_hat=np.eye(2), B_hat=np.ones((2, 1))),
            gain=Gain(K=np.zeros((1, 2))),
            estimator=EstimatorKind.MODEL_BASED,
            trigger=TriggerConfig(beta=1.0, alpha=0.1),
            channel=ChannelPolicy(M=2, mode=ChannelMode.ALWAYS_DELIVER),
            x0=[1.0, 0.0],
            t_max=10.0,
            sample_dt=0.1,
            event_tol=1e-6,
        )

    def test_accepts_valid(self):
        scn = Scenario(**self._kwargs())
        assert scn.n == 2
        assert not scn.x0.flags.writeable

    def test_unstable_loops_accepted(self):
        # stability is a bounds-layer hypothesis, not a scenario invariant
        _scalar_scenario()

    def test_sample_dt_bounds(self):
        kw = self._kwargs()
        for bad in (0.0, -0.1, 1.000001, 5.0):
            with pytest.raises(ValueError, match="sample_dt"):
                Scenario(**{**kw, "sample_dt": bad})
        Scenario(**{**kw, "sample_dt": 1.0, "event_tol": 1e-3})

    def test_event_tol_bounds(self):
        kw = self._kwargs()
        for bad in (0.0, -1e-9, 0.1 / 100 * 1.01, 0.5):
            with pytest.raises(ValueError, match="event_tol"):
                Scenario(**{**kw, "event_tol": bad})
        Scenario(**{**kw, "event_tol": 0.001})

    def test_t_max_positive(self):
        kw = self._kwargs()
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                Scenario(**{**kw, "t_max": bad})

    def test_dimension_mismatches(self):
        kw = self._kwargs()
        for field, value, message in [
            ("model", NominalModel(A_hat=np.eye(3), B_hat=np.ones((3, 1))),
             "model dimension"),
            ("gain", Gain(K=np.zeros((2, 2))), "gain shape"),
            ("x0", [1.0, 0.0, 0.0], "x0 has size"),
        ]:
            with pytest.raises(ModelError, match=message) as err:
                Scenario(**{**kw, field: value})
            assert err.value.field == field

    def test_x0_finite(self):
        kw = self._kwargs()
        with pytest.raises(ValueError, match="finite"):
            Scenario(**{**kw, "x0": [np.inf, 0.0]})

    def test_estimator_type_checked(self):
        kw = self._kwargs()
        with pytest.raises(ValueError, match="estimator"):
            Scenario(**{**kw, "estimator": "mb"})


def test_huge_threshold_never_triggers():
    scn = _scalar_scenario(trigger=TriggerConfig(beta=1e6, alpha=0.1), t_max=5.0)
    tr = simulate(scn)
    assert tr.triggers.size == 0 and tr.deliveries.size == 0
    # with no events the pair (x, x_c) just flows under the cascade generator
    g = gamma_matrix(scn.plant, scn.model, scn.gain)
    ref = mat_exp(g, 5.0) @ np.concatenate([scn.x0, scn.x0])
    assert np.allclose(tr.x[-1], ref[:1], rtol=1e-10, atol=1e-12)
    assert np.allclose(tr.x_c[-1], ref[1:], rtol=1e-10, atol=1e-12)


def test_exact_model_never_triggers(vehicle0):
    tr = simulate(vehicle0)
    assert tr.triggers.size == 0
    # Compare mid-horizon where off-manifold rounding (amplified by the
    # plant's open-loop growth over the remaining time) is still ~1e-12.
    loop = closed_loop(vehicle0.model, vehicle0.gain)
    idx = int(np.searchsorted(tr.t, 10.0))
    ref = mat_exp(loop, float(tr.t[idx])) @ vehicle0.x0
    assert np.allclose(tr.x[idx], ref, atol=1e-9)
    assert np.linalg.norm(tr.x[-1]) <= 1e-8
    assert np.all(tr.e_s_norm <= 1e-8)


def test_golden_run_regression(golden_trace, golden_scn):
    assert golden_trace.triggers.size == 39
    assert golden_trace.deliveries.size == 13
    min_gap = float(np.min(np.diff(golden_trace.triggers)))
    assert min_gap == pytest.approx(0.23961952972412082, rel=1e-9)
    final = float(np.linalg.norm(golden_trace.x[-1]))
    # frozen from an independent adaptive hybrid integration
    assert abs(final - 6.7449172850769876e-07) <= 1e-9
    assert final <= 0.01 * float(np.linalg.norm(golden_scn.x0))


def _assert_matches_oracle(scn, tr, t_end):
    ref = hybrid_reference(scn, t_end=t_end)
    engine = tr.triggers[tr.triggers <= t_end + 1e-6]
    k = min(engine.size, len(ref.triggers))
    assert k >= 10
    assert abs(engine.size - len(ref.triggers)) <= 1
    assert np.max(np.abs(engine[:k] - np.asarray(ref.triggers[:k]))) <= 1e-6
    deliv = tr.deliveries[tr.deliveries <= t_end + 1e-6]
    kd = min(deliv.size, len(ref.deliveries))
    assert np.max(np.abs(deliv[:kd] - np.asarray(ref.deliveries[:kd]))) <= 1e-6


def test_against_adaptive_hybrid_oracle(vehicle7, trace7):
    _assert_matches_oracle(vehicle7, trace7, 15.0)


def test_zoh_against_adaptive_hybrid_oracle(zoh7, trace_zoh7):
    # The hold estimator's events come every few dozen samples, so 5 s
    # already holds about 80 of them.
    _assert_matches_oracle(zoh7, trace_zoh7, 5.0)


def test_perturbed_worst_case_regression(trace7):
    assert trace7.triggers.size == 83
    assert trace7.deliveries.size == 16
    assert float(np.min(np.diff(trace7.triggers))) == pytest.approx(
        0.17589146614074913, rel=1e-9
    )
    assert float(np.linalg.norm(trace7.x[-1])) == pytest.approx(
        2.6370592038413679e-07, rel=1e-6
    )


def test_perturbed_worst_case_summary(trace7, vehicle7):
    stats = summarize(trace7, vehicle7.trigger)
    assert stats.trigger_count == 83 and stats.delivery_count == 16
    assert stats.empirical_amplification == pytest.approx(
        4.4747283799056117, rel=1e-6
    )
    assert stats.min_inter_event == pytest.approx(0.17589146614074913, rel=1e-9)


def test_zoh_regression(trace_zoh7):
    assert trace_zoh7.triggers.size == 936
    assert trace_zoh7.deliveries.size == 187
    assert float(np.min(np.diff(trace_zoh7.triggers))) == pytest.approx(
        0.037113754272461108, rel=1e-9
    )


def _trace_sha256(tr):
    h = hashlib.sha256()
    for f in dataclasses.fields(Trace):
        a = np.ascontiguousarray(getattr(tr, f.name))
        h.update(f"{f.name}:{a.dtype.str}:{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


_ZOH7_SHA256 = "a6d4db63d71b3ebd733efe292ab1847207f72e90093b6aa8e153f547f1d912a4"
_MB7_SHA256 = "19b10ee253a43c568c0e180485ea7a663c6fea785a2a68344c246e2d01e7a493"


def test_zoh_trace_bytes_pinned(trace_zoh7):
    # Every Trace field of the event-heavy run, bit for bit: event location
    # must not move a single double.  Pinned after its event times were
    # checked against tests/oracles.py.
    assert trace_zoh7.num_samples == 61873
    assert _trace_sha256(trace_zoh7) == _ZOH7_SHA256


def test_zoh_trace_bytes_pinned_through_table_growth(zoh7, monkeypatch):
    # Without room for event rows the same run outgrows the row table's
    # initial capacity of grid + _BATCH columns, and growing it must not move
    # a bit.
    monkeypatch.setattr(simulator, "_EVENT_ROOM", 0)
    tr = simulate(zoh7)
    grid = math.floor(zoh7.t_max / zoh7.sample_dt + 1e-9) + 1
    assert tr.num_samples == 61873 > grid + simulator._BATCH
    assert _trace_sha256(tr) == _ZOH7_SHA256


def test_mb_trace_bytes_pinned(trace7):
    # The model-based run fits the initial capacity of the row table.
    assert trace7.num_samples == 60167
    assert _trace_sha256(trace7) == _MB7_SHA256


@pytest.mark.parametrize("n, seed, estimator, rows, digest, reports", [
    (8, 0, EstimatorKind.MODEL_BASED, 10007,
     "98d4124beefb4ef02b4f4d73830c6e9dcbd7303b19d0503c709e70815ff6de69",
     "d538eddecf548807ecc646083c422376f845469ab375165c3418e8f2347c11e9"),
    (8, 0, EstimatorKind.ZERO_ORDER_HOLD, 10085,
     "404e2f66829fa672b2ad8cdc0ff8e8a2a299e4a380a8fbe5376b0ba542d1f8af",
     "8d050015aae7fb20bfd8cf9ea9542effaa3efce2cc27a9f65f1132e360b36cc3"),
    (9, 0, EstimatorKind.MODEL_BASED, 10027,
     "2de29dc9481f0a57f56e5313f3465fc72f48a765dec726869476d2f7a3917936",
     "fa66a706b6b9a2dcdaa5998b0e3cf5f78eb7ddd3b0d4885ed5bb6f05410fba00"),
    (9, 0, EstimatorKind.ZERO_ORDER_HOLD, 10099,
     "bee994d469e4b062943b40f33add982a4c4ad6c4e6dfe298b58aaa66c58a15ae",
     "ec49211a1b7d857958fb9b30c79a90ec8391df4b4ccc7c1a005d26837fc09538"),
    (8, 1, EstimatorKind.MODEL_BASED, 10007,
     "4057a4ec02ee84d864adcd8d65eac227ac6399b8785239f81b8959ba363a4c51",
     "373f4ce2b0e35e37c027af9e04f8a8911bb92e631338e417fc7a56fdf88fe040"),
    (8, 1, EstimatorKind.ZERO_ORDER_HOLD, 10079,
     "28e67c148765ec76e961bc76c883bf7137fa32e6530c14796d53cf7d83d79602",
     "f7401e35486b9511c73e5a1c0f69476d55c5812bdef8bdd8c4fce3c4e5d71888"),
])
def test_wide_state_traces_pinned(n, seed, estimator, rows, digest, reports):
    # From n = 8 on numpy sums a row of squares in 8 running partial sums, so
    # every row norm of a trace, in the simulator and in the reports read off
    # it, must follow that order.  The digests are those of numpy's own row
    # sums over a row-major table; `reports` covers every field of both
    # certificates of the trace.
    scn = dataclasses.replace(_scenario(n, 2, 3, estimator, seed), t_max=10.0)
    tr = simulate(scn)
    assert tr.num_samples == rows
    assert _trace_sha256(tr) == digest
    h = hashlib.sha256()
    for analyze in (le.analyze_scenario, le.analyze_scenario_zoh):
        h.update(json.dumps(dataclasses.asdict(analyze(scn, tr))).encode())
    assert h.hexdigest() == reports


def test_column_sums_follow_row_order():
    # Each column sum must have the bits of np.add.reduce over the same
    # numbers laid out as a contiguous row, for every state dimension.
    rng = np.random.default_rng(0)
    for n in [*range(2, 41), 200]:
        for k in (1, 7, 256):
            sq = rng.normal(size=(n, k)) ** 2 * 10.0 ** rng.uniform(-8, 8, (n, 1))
            want = np.add.reduce(np.ascontiguousarray(sq.T), 1)
            assert simulator._column_sums(sq).tobytes() == want.tobytes(), (n, k)
        # The batch's layout: e_s and e_c squares as (n, 2, rows).
        d = rng.normal(size=(2, n, 5)) ** 2
        want = np.add.reduce(np.ascontiguousarray(d.transpose(0, 2, 1)), 2)
        assert simulator._column_sums(d.swapaxes(0, 1)).tobytes() == want.tobytes(), n


def _record_batches(monkeypatch):
    """Log the batch products and the grid events found in them.

    Returns two lists that fill as `simulate` runs: (first power, rows) of
    every batch product, and (first power of its product, row) of every
    event bracketed in a batch's rows.
    """
    chunks, events, last = [], [], {}
    grid_rows, locate = simulator._Flow.grid_rows, simulator._Flow.locate

    def logging_rows(flow, lo, hi, z):
        out = grid_rows(flow, lo, hi, z)
        chunks.append((lo, hi - lo))
        last.update(out=out, lo=lo)
        return out

    def logging_locate(flow, t_g, k_lo, z_lo, k_hi, z_hi, *rest):
        rows = last.get("out")
        if rows is not None and np.shares_memory(z_hi, rows):
            row = (z_hi.ctypes.data - rows.ctypes.data) // rows.strides[0]
            events.append((last["lo"], row))
        return locate(flow, t_g, k_lo, z_lo, k_hi, z_hi, *rest)

    monkeypatch.setattr(simulator._Flow, "grid_rows", logging_rows)
    monkeypatch.setattr(simulator._Flow, "locate", logging_locate)
    return chunks, events


@pytest.mark.parametrize("estimator, channel, rows, digest, split_events, row0_events", [
    (EstimatorKind.ZERO_ORDER_HOLD,
     ChannelPolicy(M=5, mode=ChannelMode.BERNOULLI, p=0.9, seed=3), 61879,
     "7a137dfd49cb468ab1eef16764a10108e4545d317925a14ad3caad2d3c88a687", 8, 4),
    (EstimatorKind.ZERO_ORDER_HOLD,
     ChannelPolicy(
         M=5, mode=ChannelMode.SCRIPTED, script=random_drop_script(5, 0.5, 20000, seed=5)
     ),
     61105, "a731d1ace479977b931d062fe2312d557f849726f3e3638f78e8b1cdf511aa6a", 6, 0),
    (EstimatorKind.MODEL_BASED, ChannelPolicy(M=5, mode=ChannelMode.WORST_CASE), 60201,
     "03cf00d0678763d77953c6b251a2d5f7f71796965d98fa54ed4938c2d615a017", 0, 0),
], ids=["zoh_bernoulli", "zoh_scripted", "mb_worst_case"])
def test_split_batch_traces_pinned(
    monkeypatch, estimator, channel, rows, digest, split_events, row0_events
):
    # A batch after an event is evaluated in two products from the same start
    # state.  For the vehicle's 3n = 12 the rows are the bits of one product
    # over the whole batch; for 3n not a multiple of 4 they need not be (see
    # _Flow.grid_rows), and the n = 9 wide-state pins hold those widths.
    # Both hold-estimator runs bracket events in a batch's second product; in
    # the Bernoulli run four of them sit at its row 0, where the bracket's
    # lower end is the last row of the first product.  Pins derived after the
    # event times were checked against tests/oracles.py.
    scn = dataclasses.replace(
        le.vehicle_preset(45), estimator=estimator, channel=channel
    )
    flow = simulator._flow(scn)
    z0 = np.tile(scn.x0, 3)
    whole = flow.grid_rows(0, 256, z0)
    for lo, hi in [(0, 1), (1, 97), (97, 256), (200, 201)]:
        assert flow.grid_rows(lo, hi, z0).tobytes() == whole[lo:hi].tobytes()
    chunks, events = _record_batches(monkeypatch)
    tr = simulate(scn)
    assert tr.num_samples == rows
    assert _trace_sha256(tr) == digest
    assert sum(lo > 0 for lo, _ in events) == split_events
    assert sum(lo > 0 and j == 0 for lo, j in events) == row0_events
    if estimator is EstimatorKind.MODEL_BASED:
        assert all(lo == 0 for lo, _ in chunks)


def _zoh45_short():
    return dataclasses.replace(
        le.vehicle_preset(45),
        estimator=EstimatorKind.ZERO_ORDER_HOLD,
        channel=ChannelPolicy(M=5, mode=ChannelMode.WORST_CASE),
        t_max=10.0004567,
    )


# With event_tol = sample_dt / 100 the lattice has 32**2 points per step; this
# sample_dt puts grid point 37 half a lattice unit past the first crossing, ln 1.5.
_DT_AT_GRID_POINT = math.log(1.5) / (37 - 1 / 2048)


@pytest.mark.parametrize("make, rows, digest", [
    (lambda: _scalar_scenario(), 45,
     "0b037435669808e3a39b103a8d3438096efe986aaef9c88b45a6a8eb3df6cc72"),
    (lambda: _scalar_scenario(sample_dt=0.0109, event_tol=0.0109 / 100), 209,
     "013e6bd03e0d22f1571b5b31907d1d052dfcdff64c312b6861f1beaa0b39e98e"),
    (lambda: _scalar_scenario(sample_dt=0.0134, event_tol=0.0134 / 100), 175,
     "f890d57bda039c1e24c5e2e15ec48dd82affd50dc2f646031e4339f975335611"),
    (_zoh45_short, 10324,
     "cdbebd2d6fc21a0099c49ac5a82c7d5235ae6221ee6837a73d7c1798b23ea17d"),
    (lambda: _scalar_scenario(sample_dt=_DT_AT_GRID_POINT, event_tol=_DT_AT_GRID_POINT / 100),
     207, "794471ec779f4272a4b019e6e30a129870db53f0603506d10f380801c5f723dd"),
], ids=["event_in_partial_step", "bisection_ends_on_grid_point",
        "bisection_ends_one_ulp_past_grid_point", "event_in_final_partial_step",
        "event_at_grid_point"])
def test_rare_loop_branches_pinned(make, rows, digest):
    # Each run reaches one branch of the event loop that the vehicle pins do
    # not: an event bracketed by a partial step (after an event, or the last
    # step before a t_max off the grid), and an event at the bracket's upper
    # end, the grid point itself, whose row the event rows replace.  The two
    # `bisection_*` runs are where the dyadic bisection that the lattice scan
    # replaced ended on, or one ulp past, the grid point; on the scan's
    # 32**2-point lattice their events fall inside the step.
    tr = simulate(make())
    assert tr.num_samples == rows
    assert _trace_sha256(tr) == digest


def _exhaustive_locate(flow, t_g, k_lo, z_lo, k_hi, z_hi, es_hi, cfg):
    """_Flow.locate without its screen: every sub-point gets the exact test."""
    for s, stack, e_stack in zip(flow.spacing, flow.scan, flow.scan_es):
        m = -(-(k_hi - k_lo) // s) - 1
        e_s = (e_stack[: m * flow.n] @ z_lo).reshape(m, flow.n)
        es = np.sqrt(np.add.reduce(e_s * e_s, 1))
        j = m
        for c in range(m):
            if es[c] > threshold_value(t_g + (k_lo + (c + 1) * s) * flow.unit, cfg):
                j = c
                break
        if j < m:
            k_hi, z_hi, es_hi = k_lo + (j + 1) * s, stack[j] @ z_lo, float(es[j])
        if j:
            k_lo, z_lo = k_lo + j * s, stack[j - 1] @ z_lo
    return k_hi, z_hi, es_hi


def _short_final_step():
    """The scalar run with its event in a last step shorter than sample_dt / 32:
    the scan's first round has no sub-point in that bracket and is skipped."""
    return _scalar_scenario(
        sample_dt=0.0405, event_tol=0.0405 / 100, t_max=math.log(1.5) + 1e-4
    )


def _bernoulli45(estimator):
    return dataclasses.replace(
        le.vehicle_preset(45), estimator=estimator, t_max=20.0,
        channel=ChannelPolicy(M=5, mode=ChannelMode.BERNOULLI, p=0.9, seed=3),
    )


# Run id: (scenario maker, fewest triggers).  The partial-bracket runs are
# those of test_rare_loop_branches_pinned plus _short_final_step.
_SCAN_RUNS = {
    "EstimatorKind.MODEL_BASED": (lambda: _bernoulli45(EstimatorKind.MODEL_BASED), 20),
    "EstimatorKind.ZERO_ORDER_HOLD": (lambda: _bernoulli45(EstimatorKind.ZERO_ORDER_HOLD), 20),
    "event_in_partial_step": (_scalar_scenario, 12),
    "event_in_final_partial_step": (_zoh45_short, 161),
    "event_in_short_final_step": (_short_final_step, 1),
}


@pytest.mark.parametrize("run", list(_SCAN_RUNS))
def test_screened_scan_matches_exhaustive_scan(monkeypatch, run):
    # The locator tests only the sub-points whose squared error beats the
    # threshold at the bracket's upper end, and skips a round with no
    # sub-point; testing every sub-point of every round must give the same
    # events, to the last bit.
    make, events = _SCAN_RUNS[run]
    scn = make()
    screened = simulate(scn)
    monkeypatch.setattr(simulator._Flow, "locate", _exhaustive_locate)
    assert _trace_sha256(simulate(scn)) == _trace_sha256(screened)
    assert screened.triggers.size >= events


def test_batch_row_budget(monkeypatch, vehicle7, zoh7):
    # Preset 7: the hold estimator's 936 events each threw away the rest of a
    # 256-row batch (239,085 rows for 61,873 kept); the model-based run's
    # events are more than a batch apart and keep one einsum per batch.
    chunks, _ = _record_batches(monkeypatch)
    simulate(zoh7)
    assert sum(rows for _, rows in chunks) <= 130_000
    chunks.clear()
    simulate(vehicle7)
    assert len(chunks) <= 271


def test_mat_exp_only_in_flow_build(monkeypatch, cold_flows, zoh7):
    # Event location and the steps after events use the scan stacks, so an
    # on-grid run takes every matrix exponential while _Flow is built: the
    # grid step and one per scan round (1e-3 / 32**4 <= 1e-9: four rounds).
    # A second run of the same scenario takes its flow from the cache and
    # no exponential at all.  A t_max off the grid adds one per step to it:
    # here two, as an event falls inside that last partial step.
    calls, building = [], []
    exp, init = simulator.mat_exp, simulator._Flow.__init__

    def counting_exp(*args):
        calls.append(bool(building))
        return exp(*args)

    def tracked_init(flow, *args):
        building.append(args)
        init(flow, *args)
        building.pop()

    monkeypatch.setattr(simulator, "mat_exp", counting_exp)
    monkeypatch.setattr(simulator._Flow, "__init__", tracked_init)
    assert simulate(zoh7).triggers.size == 936
    assert calls == [True] * 5
    calls.clear()
    assert simulate(zoh7).triggers.size == 936
    assert calls == []
    simulate(_zoh45_short())
    assert calls == [True] * 5 + [False] * 2


def _wide9(estimator):
    return dataclasses.replace(_scenario(9, 2, 3, estimator, 0), t_max=10.0)


@pytest.mark.parametrize("make, digest", [
    (lambda: le.vehicle_preset(7), _MB7_SHA256),
    (lambda: dataclasses.replace(
        le.vehicle_preset(7), estimator=EstimatorKind.ZERO_ORDER_HOLD), _ZOH7_SHA256),
    (lambda: _wide9(EstimatorKind.MODEL_BASED),
     "2de29dc9481f0a57f56e5313f3465fc72f48a765dec726869476d2f7a3917936"),
    (lambda: _wide9(EstimatorKind.ZERO_ORDER_HOLD),
     "bee994d469e4b062943b40f33add982a4c4ad6c4e6dfe298b58aaa66c58a15ae"),
], ids=["mb7", "zoh7", "mb_n9", "zoh_n9"])
def test_flow_cache_warm_run_bytes_pinned(cold_flows, make, digest):
    # A warm entry holds the arrays the cold build made, so the run that
    # builds its flow and grid and the run that finds them give one trace.
    scn = make()
    cold = _trace_sha256(simulate(scn))
    warm = _trace_sha256(simulate(scn))
    for cache in (simulator._cached_flow, simulator._grid):
        info = cache.cache_info()
        assert (info.misses, info.hits) == (1, 1)
    assert cold == warm == digest


def test_flow_cache_keys_on_exact_values(cold_flows, vehicle7):
    # A one-ulp change of the plant, or another event_tol, sample_dt or
    # estimator, gets a flow of its own; the same scenario finds its flow.
    flow = simulator._flow(vehicle7)
    a = vehicle7.plant.A.copy()
    a[0, 1] = math.nextafter(a[0, 1], math.inf)
    variants = [
        dataclasses.replace(vehicle7, plant=Plant(A=a, B=vehicle7.plant.B)),
        dataclasses.replace(vehicle7, event_tol=vehicle7.event_tol / 2),
        dataclasses.replace(vehicle7, sample_dt=vehicle7.sample_dt / 2),
        dataclasses.replace(vehicle7, estimator=EstimatorKind.ZERO_ORDER_HOLD),
    ]
    for scn in variants:
        misses = simulator._cached_flow.cache_info().misses
        other = simulator._flow(scn)
        assert simulator._cached_flow.cache_info().misses == misses + 1
        assert other is not flow and simulator._flow(scn) is other
        assert simulator._flow(vehicle7) is flow
    assert simulator._flow(dataclasses.replace(vehicle7, x0=2.0 * vehicle7.x0)) is flow


def test_flow_cache_arrays_read_only(cold_flows, vehicle7, zoh7):
    for scn in (vehicle7, zoh7):
        flow = simulator._flow(scn)
        for arr in (flow.gen, flow.blank, flow.powers, *flow.scan, *flow.scan_es):
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            flow.powers[0, 0, 0] = 0.0
    _, grid, grid_thr = simulator._grid(vehicle7.t_max, vehicle7.sample_dt, vehicle7.trigger)
    assert not grid.flags.writeable and not grid_thr.flags.writeable


def test_flow_cache_holds_two_entries(cold_flows, vehicle7):
    for k in range(1, 5):
        scn = dataclasses.replace(vehicle7, sample_dt=vehicle7.sample_dt / k)
        simulator._flow(scn)
        simulator._grid(scn.t_max, scn.sample_dt, scn.trigger)
    for cache in (simulator._cached_flow, simulator._grid):
        info = cache.cache_info()
        assert info.maxsize == info.currsize == 2


def test_flow_cache_one_build_per_family_draw(monkeypatch, cold_flows):
    # The acceptance family's unit: a worst-case run, then three Bernoulli
    # runs of the same draw, which differ only in their channel.
    builds = []
    init = simulator._Flow.__init__

    def counting(flow, *args):
        builds.append(args[0])
        init(flow, *args)

    monkeypatch.setattr(simulator._Flow, "__init__", counting)
    scn = le.vehicle_preset(8)
    bounds.worst_case_trace(scn)
    for p in (0.0, 0.5, 0.9):
        chan = ChannelPolicy(M=scn.channel.M, mode=ChannelMode.BERNOULLI, p=p, seed=3)
        simulate(dataclasses.replace(scn, channel=chan))
    assert builds == [EstimatorKind.MODEL_BASED]
    assert simulator._grid.cache_info().misses == 1


@pytest.fixture
def no_spares():
    """The test starts with no spare trace table, so it knows which it gets."""
    simulator._spares.clear()


def _pages_of(tr):
    """The mapping under the table of tr: its columns view one np.frombuffer array."""
    return tr.t.base.base.obj


def _bernoulli7(seed):
    scn = le.vehicle_preset(7)
    chan = ChannelPolicy(M=scn.channel.M, mode=ChannelMode.BERNOULLI, p=0.5, seed=seed)
    return dataclasses.replace(scn, channel=chan)


def test_spare_table_held_trace_keeps_digest(vehicle7):
    # Later runs of the same table shape cycle through the spares; none may
    # take the pages of a trace that is still alive.
    kept = simulate(vehicle7)
    for seed in range(simulator._SPARE_TABLES + 2):
        other = simulate(_bernoulli7(seed))
        assert other.t.base.shape == kept.t.base.shape
        assert _pages_of(other) is not _pages_of(kept)
    assert _trace_sha256(kept) == _MB7_SHA256


def test_spare_table_reused_once_trace_dies(no_spares, vehicle7):
    tr = simulate(vehicle7)
    pages = _pages_of(tr)
    assert simulator._spares == []
    del tr
    assert simulator._spares == [pages]
    tr = simulate(vehicle7)
    assert _pages_of(tr) is pages and simulator._spares == []
    assert _trace_sha256(tr) == _MB7_SHA256


def test_spare_tables_capped_and_smaller_ones_unmapped(no_spares, vehicle7, zoh7):
    mb, zoh = (dataclasses.replace(scn, t_max=10.0) for scn in (vehicle7, zoh7))
    traces = [simulate(mb) for _ in range(simulator._SPARE_TABLES + 2)]
    digest = _trace_sha256(traces[0])
    small = [weakref.ref(_pages_of(tr)) for tr in traces]
    del traces
    assert len(simulator._spares) == simulator._SPARE_TABLES
    assert sum(ref() is None for ref in small) == 2
    # A hold-estimator table is wider than every spare: they are unmapped.
    tr = simulate(zoh)
    assert simulator._spares == [] and all(ref() is None for ref in small)
    large = _pages_of(tr)
    del tr
    # The smallest spare that fits serves a smaller table with its prefix.
    tr = simulate(mb)
    assert _pages_of(tr) is large and _trace_sha256(tr) == digest


def _trace_digest_of_run(scn):
    return _trace_sha256(simulate(scn))


def test_spare_table_pages_private_to_forked_workers(no_spares, usable_cpus, vehicle7, zoh7):
    # Workers forked while the parent holds spares inherit them.  A worker
    # that takes one must write its own copy of the pages, not the parent's,
    # which a live trace has taken since, nor another worker's.
    pools = usable_cpus(2)
    traces = [simulate(vehicle7), simulate(zoh7)]
    del traces
    assert len(simulator._spares) == 2
    assert list(pool.fork_map(abs, [-1, -2])) == [1, 2] and pools == [2]
    kept = simulate(_bernoulli7(3))
    digest = _trace_sha256(kept)
    runs = [vehicle7, zoh7, vehicle7, zoh7]
    assert list(pool.fork_map(_trace_digest_of_run, runs)) == [_MB7_SHA256, _ZOH7_SHA256] * 2
    assert _trace_sha256(kept) == digest


def test_spare_tables_two_threads_pinned(vehicle7, zoh7):
    # Two threads take and give back tables at once, alternating the two
    # table sizes; no run may get pages another run still writes.
    runs = [(vehicle7, _MB7_SHA256), (zoh7, _ZOH7_SHA256)] * 2
    digests = [[], []]

    def work(i):
        for scn, _ in runs[i:] + runs[:i]:
            digests[i].append(_trace_sha256(simulate(scn)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert digests == [[want for _, want in runs[i:] + runs[:i]] for i in (0, 1)]


def test_spare_tables_stress_more_threads_than_cores():
    # Four threads take tables of two widths thousands of times, each filling
    # its table with its own number and reading it back after a thread switch:
    # a table handed to two threads at once would mix the numbers, and two
    # threads taking one spare would fail to remove it twice.
    failures = []

    def work(i):
        try:
            for k in range(2000):
                table = simulator._table(7, 1000 + 500 * ((i + k) % 2))
                table[...] = i
                time.sleep(0)
                if not np.all(table == i):
                    failures.append((i, k))
        except Exception as exc:  # a thread's error fails the test below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert failures == []
    assert len(simulator._spares) <= simulator._SPARE_TABLES


def test_event_accumulation_aborts(monkeypatch, vehicle7, trace7):
    # A gap floor above the first inter-event gap turns the second trigger
    # into an event pile-up.
    first_gap = float(trace7.triggers[1] - trace7.triggers[0])
    monkeypatch.setattr(simulator, "ZENO_GAP", 2.0 * first_gap)
    with pytest.raises(SimulationError, match="event accumulation"):
        simulate(vehicle7)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 18: triggers lie at least one lattice unit apart, "
    "so a ZENO_GAP below the unit never fires at default tolerances",
)
def test_zeno_guard_can_fire_at_default_tolerances(vehicle7):
    assert simulator.ZENO_GAP >= simulator._flow(vehicle7).unit


def test_one_generator_build_per_run(monkeypatch, vehicle7, zoh7):
    builds = []

    def counting(fn):
        def wrapper(*args):
            builds.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(simulator, "gamma_matrix", counting(simulator.gamma_matrix))
    monkeypatch.setattr(simulator, "gamma_zoh", counting(simulator.gamma_zoh))
    assert simulate(zoh7).triggers.size == 936
    assert builds == ["gamma_zoh"]
    builds.clear()
    assert simulate(vehicle7).triggers.size > 0
    assert builds == ["gamma_matrix"]


_EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                 -2.225073858507201e-308, 1e154, -1e154, 1.3407807929942596e154,
                 9.9e153, 1.0, -1.0]
_doubles = st.one_of(
    st.sampled_from(_EDGE_DOUBLES),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),
    st.floats(min_value=-1.5e154, max_value=1.5e154),
)


@st.composite
def _stacks(draw):
    n = draw(st.integers(1, 8))
    return n, np.array(draw(st.lists(_doubles, min_size=3 * n, max_size=3 * n)))


@settings(max_examples=300, deadline=None)
@given(stack=_stacks())
def test_errors_match_linalg_norm_bitwise(stack):
    # The bisection compares sqrt(e.e) against the threshold; it must be the
    # very double np.linalg.norm gives for the same slices.
    n, z = stack
    e_c = z[2 * n :] - z[:n]
    e_s = z[n : 2 * n] + e_c
    with np.errstate(over="ignore"):  # near 1e154 the squares overflow to inf
        got = simulator._errors(n, z)
        want = (float(np.linalg.norm(e_s)), float(np.linalg.norm(e_c)))
    assert all(type(v) is float for v in got)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_zoh_summary(trace_zoh7, zoh7):
    stats = summarize(trace_zoh7, zoh7.trigger)
    assert stats.empirical_amplification == pytest.approx(
        5.2188654871591247, rel=1e-6
    )


def _event_row_indices(tr):
    return np.flatnonzero(tr.triggered)


def test_event_row_semantics(trace7):
    idx = _event_row_indices(trace7)
    assert idx.size == trace7.triggers.size
    for i in idx:
        # pre-jump row: strictly above threshold
        assert trace7.e_s_norm[i] > trace7.threshold[i]
        assert trace7.t[i] in trace7.triggers
        # post-jump row at the next representable instant
        j = i + 1
        assert trace7.t[j] == np.nextafter(trace7.t[i], np.inf)
        assert trace7.e_s_norm[j] == 0.0
        assert np.array_equal(trace7.x_s[j], trace7.x[j])
        if trace7.delivered[i]:
            assert trace7.e_c_norm[j] == 0.0
            assert np.array_equal(trace7.x_c[j], trace7.x[j])
            assert np.array_equal(trace7.x_c[j], trace7.x_s[j])


def test_synchronized_windows_are_exact(trace7):
    """x_c == x_s bit-for-bit from each delivery to the following trigger."""
    deliveries = trace7.deliveries
    triggers = trace7.triggers
    checked = 0
    for d in deliveries:
        later = triggers[triggers > d]
        hi = later[0] if later.size else trace7.t[-1]
        mask = (trace7.t > d) & (trace7.t <= hi) & ~trace7.triggered
        if not np.any(mask):
            continue
        assert np.array_equal(trace7.x_c[mask], trace7.x_s[mask])
        checked += int(np.count_nonzero(mask))
    assert checked > 100


def test_threshold_column_is_threshold_value_of_t(
    trace7, trace_zoh7, golden_trace, vehicle7, golden_scn
):
    # Grid rows take their threshold from one call over the grid, event rows
    # from calls at their own times; every row must hold the bits of
    # threshold_value at its time, so the column is derivable from t.
    for tr, cfg in ((trace7, vehicle7.trigger), (trace_zoh7, vehicle7.trigger),
                    (golden_trace, golden_scn.trigger)):
        assert tr.threshold.tobytes() == threshold_value(tr.t, cfg).tobytes()


def test_threshold_soundness(trace7, trace_zoh7, golden_trace):
    for tr in (trace7, trace_zoh7, golden_trace):
        quiet = ~tr.triggered
        assert np.all(tr.e_s_norm[quiet] <= tr.threshold[quiet] + 1e-9)


def test_trace_structure(trace7, vehicle7, tmp_path):
    assert np.all(np.diff(trace7.t) > 0)
    assert set(np.round(trace7.deliveries, 12)) <= set(np.round(trace7.triggers, 12))
    assert trace7.num_samples == trace7.t.shape[0]
    assert trace7.t[0] == 0.0
    assert trace7.t[-1] == pytest.approx(vehicle7.t_max, abs=1e-9)
    path = tmp_path / "trace7.csv"
    save_trace(trace7, str(path))
    for tr in (trace7, load_trace(str(path))):
        for f in dataclasses.fields(Trace):
            assert not getattr(tr, f.name).flags.writeable, f.name
        assert np.array_equal(tr.triggers, tr.t[tr.triggered])
        assert np.array_equal(tr.deliveries, tr.t[tr.delivered])


def test_bounded_drop_runs_in_flags(trace7, vehicle7):
    flags = trace7.delivered[trace7.triggered]
    run = 0
    for got in flags:
        run = 0 if got else run + 1
        assert run <= vehicle7.channel.M - 1
    # worst case policy delivers exactly every M-th offer
    assert np.flatnonzero(flags)[0] == vehicle7.channel.M - 1


def test_simulation_deterministic(golden_scn, golden_trace):
    again = simulate(golden_scn)
    for name in ("t", "x", "x_s", "x_c", "e_s_norm", "e_c_norm", "threshold",
                 "triggered", "delivered", "triggers", "deliveries"):
        assert np.array_equal(getattr(again, name), getattr(golden_trace, name))


class TestLocateEvent:
    """Event location inside one grid step of the simulator."""

    def test_scalar_crossing(self):
        tr = simulate(_scalar_scenario())
        # e^t - 1 = 0.5 at t = ln 1.5 (alpha is negligible)
        assert 0.0 <= tr.triggers[0] - math.log(1.5) <= 2e-9

    def test_tolerance_honored(self):
        for tol in (1e-3, 1e-6, 1e-11):
            tr = simulate(_scalar_scenario(event_tol=tol))
            assert 0.0 <= tr.triggers[0] - math.log(1.5) <= tol + 1e-13

    def test_event_at_grid_point_takes_the_grid_time(self):
        dt = _DT_AT_GRID_POINT
        tr = simulate(_scalar_scenario(sample_dt=dt, event_tol=dt / 100))
        assert tr.triggers[0] == 37 * dt
        # the event rows replace that sample's row
        assert np.count_nonzero(tr.t == 37 * dt) == 1

    def test_first_crossing_inside_one_step(self):
        # x rotates at w while the copies hold x0, so ||e_s|| = 2 |sin(w t / 2)|
        # peaks at 0.03, 0.09, ... s; the threshold lets through 24 ms around
        # each peak (wider than sample_dt / 32).  The first grid step (0.1 s)
        # ends inside the second excursion, after the first has come and gone.
        w, half = 2 * math.pi / 0.06, 0.012
        scn = Scenario(
            plant=Plant(A=[[0.0, w], [-w, 0.0]], B=np.zeros((2, 1))),
            model=NominalModel(A_hat=np.zeros((2, 2)), B_hat=np.zeros((2, 1))),
            gain=Gain(K=np.zeros((1, 2))),
            estimator=EstimatorKind.MODEL_BASED,
            trigger=TriggerConfig(beta=2 * math.cos(w * half / 2), alpha=1e-12),
            channel=ChannelPolicy(M=2, mode=ChannelMode.ALWAYS_DELIVER),
            x0=[1.0, 0.0],
            t_max=1.0,
            sample_dt=0.1,
            event_tol=1e-9,
        )
        first = hybrid_reference(scn, t_end=0.05).triggers[0]
        assert first == pytest.approx(0.03 - half, abs=1e-9)
        assert abs(simulate(scn).triggers[0] - first) <= scn.event_tol

    def test_margin_sign(self):
        tr = simulate(_scalar_scenario())
        margin = tr.e_s_norm - tr.threshold
        first = int(np.flatnonzero(tr.triggered)[0])
        assert np.all(margin[:first] <= 0.0)
        # the located instant is the upper end of the bracket: strictly above
        assert margin[first] > 0.0


def test_probe_matches_trace(vehicle7, trace7):
    # Before the first trigger, (x, x_c) flows from (x0, x0) under gamma_matrix.
    g = gamma_matrix(vehicle7.plant, vehicle7.model, vehicle7.gain)
    z0 = np.concatenate([vehicle7.x0, vehicle7.x0])
    n = vehicle7.n
    rows = np.flatnonzero(trace7.t < trace7.triggers[0])[1::97]
    assert rows.size >= 5
    for row in rows:
        z = mat_exp(g, float(trace7.t[row])) @ z0
        assert np.allclose(z[:n], trace7.x[row], atol=1e-10)
        assert np.allclose(z[n:], trace7.x_c[row], atol=1e-10)
        assert np.array_equal(trace7.x_s[row], trace7.x_c[row])


def _tiny_trace(triggers, deliveries):
    k = 5
    t = np.linspace(0.0, 4.0, k)
    zeros = np.zeros((k, 1))
    return Trace(
        t=t,
        x=zeros + 2.0,
        x_s=zeros,
        x_c=zeros,
        e_s_norm=np.zeros(k),
        e_c_norm=np.array([0.0, 0.1, 0.2, 0.1, 0.05]),
        threshold=np.full(k, 1.0),
        triggered=np.zeros(k, dtype=bool),
        delivered=np.zeros(k, dtype=bool),
        triggers=np.asarray(triggers, dtype=float),
        deliveries=np.asarray(deliveries, dtype=float),
    )


def test_summarize_synthetic():
    cfg = TriggerConfig(beta=0.5, alpha=0.25)
    stats = summarize(_tiny_trace([1.0, 2.0, 4.0], [1.0, 2.0, 4.0]), cfg)
    assert isinstance(stats, SummaryStats)
    assert stats.trigger_count == 3 and stats.delivery_count == 3
    assert stats.min_inter_event == 1.0
    assert stats.mean_inter_event == pytest.approx(1.5)
    assert stats.min_receive_interval == 1.0
    assert stats.mean_receive_interval == pytest.approx(1.5)
    assert stats.final_state_norm == 2.0
    expected_amp = max(
        ec * math.exp(0.25 * t) / 0.5
        for ec, t in zip([0.0, 0.1, 0.2, 0.1, 0.05], np.linspace(0.0, 4.0, 5))
    )
    assert stats.empirical_amplification == pytest.approx(expected_amp, rel=1e-12)


def test_summarize_degenerate_intervals():
    cfg = TriggerConfig(beta=0.5, alpha=0.25)
    stats = summarize(_tiny_trace([1.0], []), cfg)
    assert stats.trigger_count == 1 and stats.delivery_count == 0
    assert stats.min_inter_event is None
    assert stats.mean_receive_interval is None
