import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_continuous_are

import lossyetc as le
from lossyetc.bounds import (
    BoundCheck,
    BoundsError,
    BoundsReport,
    GrowthEnvelope,
    MietBreakdown,
    SubspaceReport,
    ZohBoundsReport,
    _crossing_roots,
    _dropped_intervals,
    _growth_rate,
    analyze_scenario,
    analyze_scenario_zoh,
    compute_delta_zoh,
    min_inter_event_time,
    stability_envelope_bound,
    stable_subspace_residual,
    verify_ec_bound,
    worst_case_trace,
)
from lossyetc import bounds, numerics
from lossyetc.numerics import DecayEnvelope, NumericsError, decay_envelope, norm_ceiling
from lossyetc.scenarios import load_trace, save_trace
from lossyetc.simulator import Trace, simulate, summarize
from lossyetc.system_model import (
    EstimatorKind,
    Gain,
    NominalModel,
    Plant,
    closed_loop,
    gamma_matrix,
    gamma_zoh,
)
from lossyetc.trigger_channel import ChannelMode, ChannelPolicy, TriggerConfig

from oracles import (
    compute_Delta,
    delta_bar,
    delta_bar_reference,
    miet_reference,
    modal_growth_coefficient,
    nongrowing_subspace_distance,
    scalar_bisect_root,
    taylor_expm,
    windowed_delta,
    zoh_crossing_reference,
    zoh_delta_reference,
    zoh_report_reference,
)

CFG = TriggerConfig(beta=0.5, alpha=0.25)
# Gain 1 leaves each row's state norm as its zeta_j; rate 1 is kappa.
UNIT_ENV = DecayEnvelope(c=1.0, rate=1.0)

# Off-diagonal coupling feeds the decaying mode into the growing one, so the
# top-block norm has a nontrivial modal coefficient: |x(t)| = 1.25 e^t - 0.25 e^-t.
SCALAR_GAMMA = np.array([[1.0, 0.5], [0.0, -1.0]])
# miet_reference at preset 7's Delta
MIET7 = 6.78685740345169e-05


@pytest.fixture(scope="module")
def report0(vehicle0):
    return analyze_scenario(vehicle0, simulate(vehicle0))


def _true_envelope(scn):
    return decay_envelope(scn.plant.A + scn.plant.B @ scn.gain.K)


def _table(*windows):
    """The (3, W, M - 1) dropped-interval table of windows of (t_j, eta_j, X_j) rows."""
    return np.array(windows, dtype=float).transpose(2, 0, 1)


def _scalar_flow_trace(ts):
    """Event-free trace whose plant state follows the SCALAR_GAMMA flow."""
    k = ts.size
    x = (1.25 * np.exp(ts) - 0.25 * np.exp(-ts))[:, None]
    return Trace(
        t=ts, x=x, x_s=x, x_c=x,
        e_s_norm=np.zeros(k), e_c_norm=np.zeros(k), threshold=np.ones(k),
        triggered=np.zeros(k, dtype=bool), delivered=np.zeros(k, dtype=bool),
        triggers=np.array([]), deliveries=np.array([]),
    )


class TestGrowthConstants:
    """The growth rate, and the stand-in window of a trace without drops."""

    def test_scalar_example_frozen(self):
        assert _growth_rate(SCALAR_GAMMA) == pytest.approx(0.99, abs=1e-15)

    def test_scalar_example_against_modal_oracle(self):
        gamma = _growth_rate(SCALAR_GAMMA)
        tr = _scalar_flow_trace(np.linspace(5.0, 20.0, 400))
        table = _dropped_intervals(tr, 3, gamma)
        assert table.shape == (3, 1, 2)
        assert np.array_equal(table[:, 0, 0], table[:, 0, 1])
        t_j, eta, peak = table[:, 0, 0]
        modal = modal_growth_coefficient(SCALAR_GAMMA, np.array([1.0]))
        assert modal == pytest.approx(1.25, rel=1e-12)
        assert t_j == 0.0
        assert 0.9 * modal <= eta <= 1.1 * modal
        assert peak == pytest.approx(1.25 * math.exp(20.0), rel=1e-12)

    def test_scalar_envelope_holds_on_fresh_grid(self):
        gamma = _growth_rate(SCALAR_GAMMA)
        tr = _scalar_flow_trace(np.linspace(5.0, 20.0, 400))
        table = _dropped_intervals(tr, 2, gamma)
        assert table.shape == (3, 1, 1)
        eta = table[1, 0, 0]
        rng = np.random.default_rng(99)
        ts = rng.uniform(5.0, 20.0, 500)
        vals = np.abs(1.25 * np.exp(ts) - 0.25 * np.exp(-ts))
        assert np.all(vals >= eta * np.exp(gamma * ts) - 1e-9)

    def test_rows_start_at_dropped_triggers(self, vehicle7, trace7):
        tr = trace7
        gamma = _growth_rate(gamma_matrix(vehicle7.plant, vehicle7.model, vehicle7.gain))
        table = _dropped_intervals(tr, vehicle7.channel.M, gamma)
        assert table.shape[0] == 3 and table.shape[1] > 0
        assert table.shape[2] == vehicle7.channel.M - 1
        dropped = set(np.setdiff1d(tr.triggers, tr.deliveries).tolist())
        for rows in table.transpose(1, 2, 0).tolist():
            starts = [t_j for t_j, _, _ in rows]
            assert starts == sorted(starts) and set(starts) <= dropped
            for t_j, eta, x_norm in rows:
                i = int(np.searchsorted(tr.t, t_j, side="left"))
                assert tr.t[i] == t_j
                assert x_norm == np.linalg.norm(tr.x[i])
                assert 0.0 < eta < x_norm

    def test_vehicle_draw_frozen(self):
        scn = le.vehicle_preset(1)
        gamma = _growth_rate(gamma_matrix(scn.plant, scn.model, scn.gain))
        # rate: 0.99 times the one growing plant mode of this draw
        assert gamma == pytest.approx(0.011196551640090053, rel=1e-12)

    def test_validation(self):
        with pytest.raises(BoundsError, match="no growing mode"):
            _growth_rate(-np.eye(2))
        tr = _scalar_flow_trace(np.linspace(0.0, 1.0, 5))
        with pytest.raises(BoundsError, match="state norm vanished"):
            _dropped_intervals(dataclasses.replace(tr, x=np.zeros((5, 1))), 2, 1.0)

    def test_envelope_value_type(self):
        with pytest.raises(BoundsError):
            GrowthEnvelope(eta=0.0, gamma=1.0)
        with pytest.raises(BoundsError):
            GrowthEnvelope(eta=1.0, gamma=-0.5)


class TestDeltaBar:
    def test_frozen_examples(self):
        # kappa >= alpha: rate gamma + alpha = 1.25
        assert delta_bar(1.0, 1.0, 1.0, 1.0, CFG) == pytest.approx(
            0.32437208648653149, rel=1e-15
        )
        # kappa < alpha: rate gamma + kappa = 1.1
        assert delta_bar(1.0, 1.0, 1.0, 0.1, CFG) == pytest.approx(
            0.36860464373469487, rel=1e-15
        )

    def test_against_bisection_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            eta = float(rng.uniform(0.1, 5.0))
            zeta = eta * float(rng.uniform(1.0, 10.0))
            gamma = float(rng.uniform(0.05, 3.0))
            kappa = float(rng.uniform(0.05, 3.0))
            beta = float(rng.uniform(1e-3, 5.0))
            alpha = float(rng.uniform(0.05, 3.0))
            t_j = float(rng.uniform(0.0, 10.0))
            cfg = TriggerConfig(beta=beta, alpha=alpha)
            got = delta_bar(eta, zeta, gamma, kappa, cfg, t_j)
            ref = delta_bar_reference(eta, zeta, gamma, kappa, beta, alpha, t_j)
            assert got == pytest.approx(ref, abs=1e-9, rel=1e-9)

    def test_small_beta_limit(self):
        cfg = TriggerConfig(beta=1e-300, alpha=0.25)
        assert delta_bar(1.0, 2.0, 1.0, 1.0, cfg) == pytest.approx(
            math.log(2.0) / 1.25, rel=1e-12
        )

    def test_later_windows_are_shorter(self):
        assert delta_bar(1.0, 1.0, 1.0, 1.0, CFG, t_j=2.0) < delta_bar(
            1.0, 1.0, 1.0, 1.0, CFG, t_j=0.0
        )

    def test_validation(self):
        with pytest.raises(BoundsError):
            delta_bar(0.0, 1.0, 1.0, 1.0, CFG)
        with pytest.raises(BoundsError):
            delta_bar(2.0, 1.0, 1.0, 1.0, CFG)  # zeta below eta
        with pytest.raises(BoundsError):
            delta_bar(1.0, 1.0, -1.0, 1.0, CFG)
        with pytest.raises(BoundsError):
            delta_bar(1.0, 1.0, 1.0, 1.0, CFG, t_j=-0.5)

    @settings(max_examples=80, deadline=None)
    @given(
        eta=st.floats(min_value=0.1, max_value=10.0),
        factor=st.floats(min_value=1.0, max_value=10.0),
        gamma=st.floats(min_value=0.01, max_value=5.0),
        kappa=st.floats(min_value=0.01, max_value=5.0),
        alpha=st.floats(min_value=0.01, max_value=5.0),
        beta_lo=st.floats(min_value=1e-6, max_value=5.0),
        beta_hi=st.floats(min_value=1e-6, max_value=5.0),
    )
    def test_monotonicities(self, eta, factor, gamma, kappa, alpha, beta_lo, beta_hi):
        beta_lo, beta_hi = sorted((beta_lo, beta_hi))
        zeta = eta * factor
        lo = delta_bar(eta, zeta, gamma, kappa, TriggerConfig(beta_lo, alpha))
        hi = delta_bar(eta, zeta, gamma, kappa, TriggerConfig(beta_hi, alpha))
        assert lo <= hi + 1e-12  # larger threshold radius buys more time
        cfg = TriggerConfig(beta_lo, alpha)
        assert delta_bar(eta, 2.0 * zeta, gamma, kappa, cfg) >= lo - 1e-12
        assert delta_bar(0.5 * eta, zeta, gamma, kappa, cfg) >= lo - 1e-12
        assert lo > 0.0


class TestComputeDelta:
    """The paper's windowed Delta (tests/oracles.py), the reference that
    analyze_scenario's Delta must not exceed."""

    def test_single_drop_stable_model(self):
        # stable model copy: the transition sup floors at 1
        s_mat = closed_loop(NominalModel(A_hat=[[-2.0]], B_hat=[[0.0]]), Gain(K=[[0.0]]))
        out = compute_Delta(s_mat, CFG, 2, _table([(0.0, 1.0, 1.0)]), 1.0, UNIT_ENV)
        bar = 0.32437208648653149
        assert out.delta_bar == pytest.approx((bar,), rel=1e-15)
        assert out.delta_tilde == pytest.approx((bar,), rel=1e-15)
        assert out.Delta == pytest.approx(1.0 + math.exp(0.25 * bar), rel=1e-12)

    def test_single_drop_growing_model(self):
        # growing model copy: the sup contributes e^{0.5 tilde}
        s_mat = closed_loop(NominalModel(A_hat=[[0.5]], B_hat=[[0.0]]), Gain(K=[[0.0]]))
        out = compute_Delta(s_mat, CFG, 2, _table([(0.0, 1.0, 1.0)]), 1.0, UNIT_ENV)
        bar = 0.32437208648653149
        assert out.Delta == pytest.approx(1.0 + math.exp(0.75 * bar), rel=1e-10)

    def test_tail_sums_and_growth_in_budget(self):
        s_mat = closed_loop(NominalModel(A_hat=[[-2.0]], B_hat=[[0.0]]), Gain(K=[[0.0]]))
        two = compute_Delta(s_mat, CFG, 2, _table([(0.0, 1.0, 1.0)]), 1.0, UNIT_ENV)
        three = compute_Delta(s_mat, CFG, 3, _table([(0.0, 1.0, 1.0)] * 2), 1.0, UNIT_ENV)
        assert three.Delta > two.Delta >= 1.0
        assert three.delta_tilde[0] == pytest.approx(sum(three.delta_bar), rel=1e-12)
        assert np.all(np.diff(three.delta_tilde) < 0.0)

    def test_validation(self):
        s_mat = closed_loop(NominalModel(A_hat=[[-2.0]], B_hat=[[0.0]]), Gain(K=[[0.0]]))
        with pytest.raises(BoundsError, match="M > 1"):
            compute_Delta(s_mat, CFG, 1, np.zeros((3, 1, 0)), 1.0, UNIT_ENV)
        with pytest.raises(BoundsError, match="per-interval"):
            compute_Delta(s_mat, CFG, 3, _table([(0.0, 1.0, 1.0)]), 1.0, UNIT_ENV)
        # there must be a window, and each row needs all three columns
        for table in (np.zeros((3, 0, 1)), np.ones((2, 1, 1)), np.ones((3, 1))):
            with pytest.raises(BoundsError, match="per-interval"):
                compute_Delta(s_mat, CFG, 2, table, 1.0, UNIT_ENV)

    def test_rows_take_the_envelope_constants(self):
        s_mat = closed_loop(NominalModel(A_hat=[[-2.0]], B_hat=[[0.0]]), Gain(K=[[0.0]]))
        env = DecayEnvelope(c=2.0, rate=0.1)
        out = compute_Delta(s_mat, CFG, 2, _table([(0.5, 1.0, 1.5)]), 1.0, env)
        assert out.delta_bar == (delta_bar(1.0, 3.0, 1.0, 0.1, CFG, 0.5),)

    def test_interval_start_shrinks_threshold(self):
        s_mat = closed_loop(NominalModel(A_hat=[[-2.0]], B_hat=[[0.0]]), Gain(K=[[0.0]]))
        late = compute_Delta(s_mat, CFG, 2, _table([(4.0, 1.0, 1.0)]), 1.0, UNIT_ENV)
        bar = delta_bar_reference(1.0, 1.0, 1.0, 1.0, CFG.beta, CFG.alpha, 4.0)
        assert late.delta_bar == pytest.approx((bar,), rel=1e-9)
        early = compute_Delta(s_mat, CFG, 2, _table([(0.0, 1.0, 1.0)]), 1.0, UNIT_ENV)
        assert late.Delta < early.Delta

    def test_one_eigendecomposition_per_call(self, monkeypatch):
        model = NominalModel(A_hat=[[-2.0, 3.0], [0.0, 0.5]], B_hat=[[0.0], [1.0]])
        s_mat = closed_loop(model, Gain(K=[[0.0, -2.0]]))
        calls = []
        real = numerics.eigendecompose

        def counting(matrix):
            calls.append(matrix)
            return real(matrix)

        monkeypatch.setattr(numerics, "eigendecompose", counting)
        windows = [[(0.0, 1.0, 2.0)] * 4, [(1.0, 1.0, 3.0)] * 4, [(2.0, 0.5, 2.0)] * 4]
        compute_Delta(s_mat, CFG, 5, _table(*windows), 1.0, UNIT_ENV)
        assert len(calls) == 1

    def test_overflowing_grid_evaluates_every_window(self):
        # S * tilde_k overflows on the first window's grid, so its sup fails
        # and c stands in for the sups of every window.
        s_mat = -1e4 * np.eye(2)
        cfg = TriggerConfig(beta=0.5, alpha=1e-305)
        env = DecayEnvelope(c=3.0, rate=1e-305)
        windows = [[(0.0, 1.0, 1.0)], [(0.0, 25000.0, 25000.0 / 3.0)]]
        with np.errstate(over="ignore"):
            got = compute_Delta(s_mat, cfg, 2, _table(*windows), 1e-305, env)
        assert got.Delta == 1.0 + math.exp(cfg.alpha * got.delta_tilde[0]) * 3.0

    def test_windows_give_the_max_of_single_window_calls(self):
        model = NominalModel(A_hat=[[-2.0, 3.0], [0.0, 0.5]], B_hat=[[0.0], [1.0]])
        s_mat = closed_loop(model, Gain(K=[[0.0, -2.0]]))
        rng = np.random.default_rng(5)
        windows = [
            [(float(t), float(eta), float(eta * (1.0 + f))) for t, eta, f in rng.uniform(0.1, 3.0, (3, 3))]
            for _ in range(6)
        ]
        singles = [compute_Delta(s_mat, CFG, 4, _table(rows), 1.0, UNIT_ENV) for rows in windows]
        assert len({single.Delta for single in singles}) == len(windows)
        both = compute_Delta(s_mat, CFG, 4, _table(*windows), 1.0, UNIT_ENV)
        assert both == max(singles, key=lambda single: single.Delta)

    def test_first_window_wins_a_tie(self):
        # the threshold has underflowed at t = 1e4, so each bar is log(zeta)
        # over 1.25: distinct, yet too small to move exp(alpha * tilde) off 1;
        # on a stable model both windows total exactly 2
        s_mat = closed_loop(NominalModel(A_hat=[[-2.0]], B_hat=[[0.0]]), Gain(K=[[0.0]]))
        first = [(1e4, 1.0, 1.0 + 2.0**-52)]
        second = [(1e4, 1.0, 1.0 + 2.0**-51)]
        a = compute_Delta(s_mat, CFG, 2, _table(first, second), 1.0, UNIT_ENV)
        b = compute_Delta(s_mat, CFG, 2, _table(second, first), 1.0, UNIT_ENV)
        assert a.Delta == b.Delta == 2.0
        assert 0.0 < a.delta_bar[0] < b.delta_bar[0]
        assert a == compute_Delta(s_mat, CFG, 2, _table(first), 1.0, UNIT_ENV)
        assert b == compute_Delta(s_mat, CFG, 2, _table(second), 1.0, UNIT_ENV)

    def test_sup_falls_back_to_envelope_ceiling(self, monkeypatch):
        # the second interval starts where the threshold has underflowed and
        # its zeta_j equals its eta_j, so its tail sum is 0 and its sup is 1
        # without a grid
        model = NominalModel(A_hat=[[-2.0, 3.0], [0.0, -1.0]], B_hat=[[0.0], [0.0]])
        s_mat = closed_loop(model, Gain(K=[[0.0, 0.0]]))

        def fail(*_args):
            raise NumericsError("synthetic grid failure")

        monkeypatch.setattr("oracles.exp_norms_on_grid", fail)
        # the ceiling is the given envelope's gain; S is not analyzed again
        monkeypatch.setattr("oracles.decay_envelope", fail)
        env = DecayEnvelope(c=3.0, rate=1.0)
        out = compute_Delta(s_mat, CFG, 3, _table([(0.0, 1.0, 1.0), (1e4, 3.0, 1.0)]), 1.0, env)
        assert out.delta_tilde[1] == 0.0
        assert out.Delta == 1.0 + math.exp(CFG.alpha * out.delta_tilde[0]) * 3.0 + 1.0


def _quiet_trace(k):
    """k samples of a one-state run without error or events."""
    return Trace(
        t=np.linspace(0.0, 3.0, k),
        x=np.ones((k, 1)),
        x_s=np.ones((k, 1)),
        x_c=np.ones((k, 1)),
        e_s_norm=np.zeros(k),
        e_c_norm=np.zeros(k),
        threshold=np.full(k, 0.5),
        triggered=np.zeros(k, dtype=bool),
        delivered=np.zeros(k, dtype=bool),
        triggers=np.array([]),
        deliveries=np.array([]),
    )


class TestVerifyEcBound:
    def test_zero_error_trace(self):
        check = verify_ec_bound(_quiet_trace(4), 1.0, CFG)
        assert check == BoundCheck(ok=True, max_ratio=0.0)

    def test_empty_trace_rejected(self, tmp_path):
        # a header-only trace CSV loads as a trace without samples
        path = tmp_path / "empty.trace.csv"
        save_trace(_quiet_trace(0), str(path))
        with pytest.raises(ValueError, match="^empty trace$"):
            verify_ec_bound(load_trace(str(path)), 1.0, CFG)

    def test_certified_trace_passes(self, trace7, report7, vehicle7):
        check = verify_ec_bound(trace7, report7.Delta, vehicle7.trigger)
        assert check.ok
        emp = summarize(trace7, vehicle7.trigger).empirical_amplification
        assert check.max_ratio == pytest.approx(emp / report7.Delta, rel=1e-9)

    def test_understated_amplification_fails(self, trace7, vehicle7):
        emp = summarize(trace7, vehicle7.trigger).empirical_amplification
        check = verify_ec_bound(trace7, emp / 2.0, vehicle7.trigger)
        assert not check.ok
        assert check.max_ratio > 1.0


class TestMinInterEventTime:
    def test_scalar_formula_frozen(self):
        got = miet_reference(0.5, 0.25, 1.0, 1.0, 1.0, 0.1, 2.0, 1.0, 1.0)
        assert got[0] == pytest.approx(0.21960162387000726, rel=1e-15)
        assert got[1] == pytest.approx(1.1333333333333333, rel=1e-15)
        assert got[2] == 0.0
        assert got[3] == pytest.approx(0.90666666666666662, rel=1e-15)

    def test_report_consistent_with_formula_oracle(self, vehicle7, report7):
        env = report7.envelopes["true_loop"]
        bk_norm = float(np.linalg.norm(vehicle7.plant.B @ vehicle7.gain.K, 2))
        ref = miet_reference(
            vehicle7.trigger.beta,
            vehicle7.trigger.alpha,
            env.c,
            env.rate,
            report7.a_hat,
            report7.a_tilde,
            report7.Delta,
            bk_norm,
            report7.x0_norm,
        )
        assert report7.miet == pytest.approx(ref[0], rel=1e-12)
        assert report7.F_cap == pytest.approx(ref[1], rel=1e-12)
        assert report7.F_bar == ref[2]
        assert report7.F_bold == pytest.approx(ref[3], rel=1e-12)

    def test_breakdown_fields(self, vehicle0):
        out = min_inter_event_time(
            closed_loop(vehicle0.model, vehicle0.gain),
            vehicle0.plant, vehicle0.model, vehicle0.gain, CFG, 2.0, 1.0,
            _true_envelope(vehicle0),
        )
        assert isinstance(out, MietBreakdown)
        assert out.a_tilde == 0.0
        assert out.a_hat == pytest.approx(23.045194978569295, rel=1e-12)
        assert out.miet > 0.0
        # exact model: the mismatch term vanishes, so F_bar does too
        assert out.F_bar == 0.0
        assert out.F_bold == pytest.approx(
            out.F_cap / (23.045194978569295 + 0.25), rel=1e-9
        )

    def test_zero_initial_norm_clamps(self, vehicle7):
        out = min_inter_event_time(
            closed_loop(vehicle7.model, vehicle7.gain),
            vehicle7.plant, vehicle7.model, vehicle7.gain, CFG, 2.0, 0.0,
            _true_envelope(vehicle7),
        )
        assert out.F_bar == 0.0 and out.miet > 0.0

    def test_validation(self, vehicle0):
        args = (
            closed_loop(vehicle0.model, vehicle0.gain),
            vehicle0.plant, vehicle0.model, vehicle0.gain,
        )
        env = _true_envelope(vehicle0)
        with pytest.raises(BoundsError, match="Delta"):
            min_inter_event_time(*args, CFG, 0.5, 1.0, env)
        with pytest.raises(BoundsError, match="x0_norm"):
            min_inter_event_time(*args, CFG, 2.0, -1.0, env)
        fast = TriggerConfig(beta=0.5, alpha=5.0)
        with pytest.raises(BoundsError, match="stay below"):
            min_inter_event_time(*args, fast, 2.0, 1.0, env)


def _crossing_batches(scn, tr):
    """(rows, gamma, roots) batches for _crossing_roots, each row
    (eta, X_j, beta_j, t_cap) with its root from the scalar bisection of its
    crossing on [0, t_cap].

    The rows of all of tr's hold windows, plus a row whose crossing is zero
    at 0 (threshold underflowed, eta = X_j); a row whose bracket outgrows the
    200-halving budget; and rows under slow growth, whose last midpoints'
    crossings come within an ulp of zero, where np.exp and math.exp can
    disagree on the sign.
    """
    alpha = scn.trigger.alpha

    def cap(eta, x_norm, beta_j, gamma):
        return math.log((x_norm + beta_j) / eta) / gamma + 1.0

    def root(eta, x_norm, beta_j, t_cap, gamma):
        def crossing(d):
            return eta * math.exp(gamma * d) - x_norm - beta_j * math.exp(-alpha * d)
        return scalar_bisect_root(crossing, 0.0, t_cap, tol=1e-12)

    gamma = _growth_rate(gamma_zoh(scn.plant, scn.gain))
    rows = []
    for window in _dropped_intervals(tr, scn.channel.M, gamma).transpose(1, 2, 0).tolist():
        eta = min(min(e, x) for _, e, x in window)
        for t_j, _, x_norm in window:
            beta_j = scn.trigger.beta * math.exp(-alpha * t_j)
            rows.append((eta, x_norm, beta_j, cap(eta, x_norm, beta_j, gamma)))
    batches = [(rows + [(2.0, 2.0, 0.0, 5.0)], gamma), ([(1.0, 3.0, 0.5, 1e60)], 1e-59)]
    rng = np.random.default_rng(1)
    for gamma in (1e-4, 1e-3):
        rows = []
        for eta, ratio, beta_j in rng.uniform((0.05, 1.0, 1e-3), (2.0, 20.0, 4.0), (200, 3)):
            rows.append((eta, eta * ratio, beta_j, cap(eta, eta * ratio, beta_j, gamma)))
        batches.append((rows, gamma))
    return [(rows, gamma, [root(*row, gamma) for row in rows]) for rows, gamma in batches]


def _one_ulp_jitter(real, moved, seed=5):
    """real with a seeded half of its results moved by one ulp either way;
    each call appends how many it moved to `moved`."""
    rng = np.random.default_rng(seed)

    def jittered(z):
        out = real(z)
        shift = rng.random(np.shape(out)) < 0.5
        moved.append(int(np.count_nonzero(shift)))
        toward = np.where(rng.random(np.shape(out)) < 0.5, np.inf, -np.inf)
        return np.where(shift, np.nextafter(out, toward), out)

    return jittered


class TestComputeDeltaZoh:
    def test_frozen_crossing(self):
        rep = compute_delta_zoh(CFG, 2, _table([(0.0, 1.0, 1.0)]), 1.0)
        root = 0.37516811896670577
        assert rep.growth == GrowthEnvelope(eta=1.0, gamma=1.0)
        assert rep.delta_bar_zoh[0] == pytest.approx(root, abs=1e-9)
        assert rep.Delta_zoh == pytest.approx(1.0 + math.exp(0.25 * root), rel=1e-9)

    def test_against_scan_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            eta = float(rng.uniform(0.05, 2.0))
            x_norm = eta * float(rng.uniform(1.0, 20.0))
            gamma = float(rng.uniform(0.05, 2.0))
            beta = float(rng.uniform(1e-3, 4.0))
            alpha = float(rng.uniform(0.05, 2.0))
            t_j = float(rng.uniform(0.0, 10.0))
            cfg = TriggerConfig(beta=beta, alpha=alpha)
            rep = compute_delta_zoh(cfg, 2, _table([(t_j, eta, x_norm)]), gamma)
            # the threshold at the interval's start takes beta's place
            beta_j = beta * math.exp(-alpha * t_j)
            ref = zoh_crossing_reference(eta, gamma, x_norm, beta_j, alpha)
            assert rep.delta_bar_zoh[0] == pytest.approx(ref, abs=1e-9)

    def test_floor_and_positivity(self):
        rows = [(0.0, 0.5, 2.0), (0.3, 0.5, 1.5), (0.6, 0.5, 0.7)]
        rep = compute_delta_zoh(CFG, 4, _table(rows), 0.8)
        assert rep.Delta_zoh >= 4.0
        assert all(d > 0.0 for d in rep.delta_bar_zoh)
        assert rep.state_norms == ((0.0, 2.0), (0.3, 1.5), (0.6, 0.7))

    def test_window_envelope_is_the_least_row_constant(self):
        # a state norm below every eta_j caps the window's envelope gain
        rows = [(0.0, 0.8, 2.0), (0.3, 0.9, 0.6), (0.6, 0.7, 1.0)]
        rep = compute_delta_zoh(CFG, 4, _table(rows), 0.8)
        assert rep.growth == GrowthEnvelope(eta=0.6, gamma=0.8)

    def test_windows_give_the_max_of_single_window_calls(self):
        rng = np.random.default_rng(7)
        windows = [
            [(float(t), float(eta), float(eta * (1.0 + f))) for t, eta, f in rng.uniform(0.1, 3.0, (3, 3))]
            for _ in range(6)
        ]
        singles = [compute_delta_zoh(CFG, 4, _table(rows), 0.5) for rows in windows]
        assert len({single.Delta_zoh for single in singles}) == len(windows)
        both = compute_delta_zoh(CFG, 4, _table(*windows), 0.5)
        assert both == max(singles, key=lambda single: single.Delta_zoh)

    def test_first_window_wins_a_tie(self):
        # the threshold has underflowed at t = 1e20, so each bar is ln X_j:
        # distinct, yet alpha is too small to move exp(alpha * tilde) off 1
        cfg = TriggerConfig(beta=0.5, alpha=1e-17)
        first = [(1e20, 1.0, 2.0)]
        second = [(1e20, 1.0, 3.0)]
        a = compute_delta_zoh(cfg, 2, _table(first, second), 1.0)
        b = compute_delta_zoh(cfg, 2, _table(second, first), 1.0)
        assert a.Delta_zoh == b.Delta_zoh == 2.0
        assert 0.0 < a.delta_bar_zoh[0] < b.delta_bar_zoh[0]
        assert a == compute_delta_zoh(cfg, 2, _table(first), 1.0)
        assert b == compute_delta_zoh(cfg, 2, _table(second), 1.0)

    def test_cap_check_names_the_first_failing_cap(self):
        # With the threshold underflowed and growth this slow, the + 1 of
        # t_cap = ln(X_j / eta) / gamma + 1 is lost, and the crossing at the
        # cap is the rounding of e^{ln X_j} - X_j: positive for X_j = 3,
        # negative for 5 and 7.
        windows = [[(1e20, 1.0, x_norm)] for x_norm in (3.0, 5.0, 7.0)]
        cap = math.log(5.0) / 1e-300 + 1.0
        with pytest.raises(BoundsError, match=re.escape(f"failed at cap {cap!r}") + "$"):
            compute_delta_zoh(CFG, 2, _table(*windows), 1e-300)

    def test_roots_match_scalar_bisection(self, monkeypatch, zoh7, trace_zoh7):
        # One bisect_root call per _crossing_roots gives every row the bits of
        # the scalar bisection of its crossing from [0, t_cap].
        batches = _crossing_batches(zoh7, trace_zoh7)
        calls = []

        def counting(f, lo, hi, tol):
            calls.append(len(hi))
            return numerics.bisect_root(f, lo, hi, tol)

        monkeypatch.setattr(bounds, "bisect_root", counting)
        for rows, gamma, want in batches:
            got = _crossing_roots(*np.array(rows).T, gamma, zoh7.trigger.alpha)
            assert got.tobytes() == np.array(want).tobytes()
        assert calls == [len(rows) for rows, _, _ in batches]
        assert batches[0][2][-1] == 0.0

    def test_roots_match_scalar_bisection_under_jittered_exp(
        self, monkeypatch, zoh7, trace_zoh7
    ):
        # np.exp and math.exp differ in the last bit on some arguments, on
        # some hosts only.  Moving a seeded half of np.exp's results by one
        # ulp either way must leave every root the scalar one: wherever the
        # two could disagree on a sign, the margin hands the value to math.exp.
        batches = _crossing_batches(zoh7, trace_zoh7)
        moved = []
        monkeypatch.setattr(np, "exp", _one_ulp_jitter(np.exp, moved))
        for rows, gamma, want in batches:
            got = _crossing_roots(*np.array(rows).T, gamma, zoh7.trigger.alpha)
            assert got.tobytes() == np.array(want).tobytes()
        assert sum(moved) > 10_000

    def test_report_matches_scalar_reference_under_jittered_exp_and_log(
        self, monkeypatch, zoh7, trace_zoh7
    ):
        # The same one-ulp jitter of np.exp and np.log leaves every byte of
        # the report: each beta_j and cap is computed with math.exp and
        # math.log, and the crossings keep their scalar signs.
        gamma = _growth_rate(gamma_zoh(zoh7.plant, zoh7.gain))
        table = _dropped_intervals(trace_zoh7, zoh7.channel.M, gamma)
        want = repr(zoh_delta_reference(zoh7.trigger, zoh7.channel.M, table, gamma))
        moved = []
        monkeypatch.setattr(np, "exp", _one_ulp_jitter(np.exp, moved))
        monkeypatch.setattr(np, "log", _one_ulp_jitter(np.log, moved))
        assert repr(compute_delta_zoh(zoh7.trigger, zoh7.channel.M, table, gamma)) == want
        assert sum(moved) > 1_000

    def test_validation(self):
        with pytest.raises(BoundsError, match="M > 1"):
            compute_delta_zoh(CFG, 1, np.zeros((3, 1, 0)), 1.0)
        with pytest.raises(BoundsError, match="per-interval"):
            compute_delta_zoh(CFG, 3, _table([(0.0, 1.0, 3.0)]), 1.0)
        # there must be a window, and each row needs all three columns
        for table in (np.zeros((3, 0, 1)), np.ones((2, 1, 1)), np.ones((3, 1))):
            with pytest.raises(BoundsError, match="per-interval"):
                compute_delta_zoh(CFG, 2, table, 1.0)

    @pytest.mark.parametrize("bad, match", [
        ((1.0, 0.0, 3.0), "eta must be positive"),
        ((1.0, np.inf, np.inf), "eta must be positive"),
        ((1.0, np.nan, 3.0), "eta must be positive"),
        # the threshold has underflowed and eta = X_j: the crossing is 0 at 0
        ((1e20, 2.0, 2.0), "every crossing time must be positive"),
    ], ids=["zero_eta", "infinite_eta", "nan_eta", "zero_crossing"])
    def test_every_window_is_checked(self, bad, match):
        # A bad window is rejected also where another window would win.
        good = [(0.0, 1.0, 3.0)]
        assert compute_delta_zoh(CFG, 2, _table(good), 1.0).Delta_zoh > 2.0
        for table in (_table(good, [bad]), _table([bad], good)):
            with pytest.raises(BoundsError, match=match):
                compute_delta_zoh(CFG, 2, table, 1.0)
        with pytest.raises(BoundsError, match="gamma must be positive"):
            compute_delta_zoh(CFG, 2, _table(good, good), 0.0)


class TestSubspaceResidual:
    def test_exact_model_is_member(self, vehicle0):
        rep = stable_subspace_residual(
            vehicle0.plant, vehicle0.model, vehicle0.gain, vehicle0.x0
        )
        assert rep.residual <= 1e-12
        assert rep.basis_dim == 7  # 2n minus the one growing plant mode

    def test_perturbed_draw_frozen(self):
        # Taken from an ordered real Schur form of gamma_matrix; the
        # sign-function projector of tests/oracles.py (nongrowing_subspace_distance)
        # gives 0.04494524156512542, 2.5e-13 away.
        scn = le.vehicle_preset(1)
        rep = stable_subspace_residual(scn.plant, scn.model, scn.gain, scn.x0)
        assert rep.residual == pytest.approx(0.04494524156513683, rel=1e-9)
        assert rep.residual > 1e-6
        assert rep.basis_dim == 7

    def test_zero_state_has_zero_residual(self, vehicle0):
        rep = stable_subspace_residual(
            vehicle0.plant, vehicle0.model, vehicle0.gain, np.zeros(4)
        )
        assert rep.residual == 0.0

    @settings(max_examples=40, deadline=None)
    @given(scale=st.floats(min_value=0.05, max_value=20.0))
    def test_residual_scales_linearly(self, scale):
        scn = le.vehicle_preset(1)
        base = stable_subspace_residual(scn.plant, scn.model, scn.gain, scn.x0)
        scaled = stable_subspace_residual(
            scn.plant, scn.model, scn.gain, scale * scn.x0
        )
        assert scaled.residual == pytest.approx(scale * base.residual, rel=1e-6)

    def test_constructed_exact_models_are_members(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            # every plant mode growing; the matched flow runs under the
            # stabilizing S, so all n growing modes of the flow come from A
            v = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
            a = v @ np.diag([0.5, 1.5, 2.5]) @ np.linalg.inv(v)
            b = rng.normal(size=(3, 2))
            k = -b.T @ solve_continuous_are(a, b, np.eye(3), np.eye(2))
            plant = Plant(A=a, B=b)
            model = NominalModel(A_hat=a.copy(), B_hat=b.copy())
            x0 = rng.normal(size=3)
            rep = stable_subspace_residual(plant, model, Gain(K=k), x0)
            assert rep.residual <= 1e-9
            assert rep.basis_dim == 3

    def test_unstable_model_loop_leaves_no_span(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            # a small gain keeps every mode of S growing, so the whole flow grows
            v = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
            a = v @ np.diag([0.5, 1.5, 2.5]) @ np.linalg.inv(v)
            b = rng.normal(size=(3, 2))
            k = 0.3 * rng.normal(size=(2, 3))
            assert np.all(np.linalg.eigvals(a + b @ k).real > 1e-6)
            x0 = rng.normal(size=3)
            rep = stable_subspace_residual(
                Plant(A=a, B=b), NominalModel(A_hat=a, B_hat=b), Gain(K=k), x0
            )
            assert rep.residual == pytest.approx(math.sqrt(2.0) * np.linalg.norm(x0), rel=1e-12)
            assert rep.basis_dim == 0

    def test_no_growing_mode_is_vacuous(self):
        plant = Plant(A=-np.eye(2), B=np.ones((2, 1)))
        model = NominalModel(A_hat=-np.eye(2), B_hat=np.ones((2, 1)))
        with pytest.raises(BoundsError, match="no growing mode"):
            stable_subspace_residual(plant, model, Gain(K=np.zeros((1, 2))), [1.0, 1.0])

    def test_wrong_x0_size(self, vehicle0):
        with pytest.raises(BoundsError, match="x0 has size 3"):
            stable_subspace_residual(
                vehicle0.plant, vehicle0.model, vehicle0.gain, np.ones(3)
            )

    def test_shared_plant_model_spectrum(self):
        # Plant and model share both eigenvalues, so the flow has each twice;
        # the trailing Schur vectors span e_1 and e_3.
        a = np.diag([1.0, -1.0])
        plant = Plant(A=a, B=np.ones((2, 1)))
        model = NominalModel(A_hat=a, B_hat=np.ones((2, 1)))
        rep = stable_subspace_residual(plant, model, Gain(K=np.zeros((1, 2))), [1.0, 0.0])
        assert rep.residual == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert rep.basis_dim == 2

    @pytest.mark.parametrize("a_hat", [
        [[1.0, 1.0], [0.0, 1.0]],
        [[1.0, 1.0], [0.1, 1.0]],  # the model loop gains a growing mode
    ], ids=["exact_model", "perturbed_model"])
    def test_defective_growing_mode_matches_oracle(self, a_hat):
        # The plant's growing mode is a Jordan block, which has one
        # eigenvector; the Schur vectors still span its invariant subspace.
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
        b = np.array([[0.0], [1.0]])
        plant = Plant(A=jordan, B=b)
        model = NominalModel(A_hat=np.array(a_hat), B_hat=b)
        gain = Gain(K=np.array([[-3.0, -4.0]]))
        x0 = np.array([1.0, 0.0])
        rep = stable_subspace_residual(plant, model, gain, x0)
        ref, dim = nongrowing_subspace_distance(gamma_matrix(plant, model, gain), x0)
        assert rep.basis_dim == dim
        assert rep.residual == pytest.approx(ref, rel=1e-8, abs=1e-12)


class TestReports:
    def test_perturbed_report_frozen(self, report7):
        # Delta = 1 + 4 (1 + 1e-6) c_alpha with the vehicle's ceiling
        # c_alpha = 12.684746649276724 of S + alpha I (its dense taylor_expm
        # max is 12.6226, test_numerics), then miet_reference at that Delta.
        assert report7.Delta == pytest.approx(51.73903733609349, rel=1e-12)
        assert report7.miet == pytest.approx(MIET7, rel=1e-6)

    @pytest.mark.parametrize("draw, digest", [
        (1, "780dea66c2dc09d68f749e0c1df595f132daa7f936702e43a3032f2a57b53268"),
        (7, "d17831a992860af1c4416148c442f132a9bbc7b3e5e2a9e61618e36df0b019ec"),
        (8, "c12f5eb31d5ab10de80ef32a5d1e9b3d4e40bff1d0873fa58108bdd57f8f337d"),
    ], ids=["1", "7", "8"])
    def test_report_bytes_pinned(self, draw, digest):
        # Every field to the last bit, beyond the Delta and MIET pins.
        scn = le.vehicle_preset(draw)
        rep = analyze_scenario(scn, worst_case_trace(scn))
        assert hashlib.sha256(repr(rep).encode()).hexdigest() == digest

    @pytest.mark.parametrize("draw, digest", [
        (1, "b0c1ce181667f5700baf7fd80d181ea629d4320045cea0d80a074a710ebdf0e9"),
        (8, "921daef2abec3f90a0fdc2ea7a202e29c1416fe3eb6526ebf4f1e5990a57f0f4"),
        (63, "20b301ff917512d336b20ac767e9f51fe51abe1cb146b39ddfe0df64648865ff"),
    ], ids=["1", "8", "63"])
    def test_zoh_report_bytes_pinned(self, draw, digest):
        # The near-marginal draws, whose crossing times run to tens of seconds.
        scn = dataclasses.replace(
            le.vehicle_preset(draw), estimator=EstimatorKind.ZERO_ORDER_HOLD
        )
        rep = analyze_scenario_zoh(scn, worst_case_trace(scn))
        assert hashlib.sha256(repr(rep).encode()).hexdigest() == digest

    @pytest.mark.parametrize("draw", [1, 7, 8, 45, 63, 72])
    @pytest.mark.parametrize("channel", [
        ChannelPolicy(M=5, mode=ChannelMode.WORST_CASE),
        ChannelPolicy(M=5, mode=ChannelMode.BERNOULLI, p=0.5, seed=3),
    ], ids=["worst_case", "bernoulli"])
    def test_zoh_report_matches_scalar_reference(self, draw, channel):
        # Every byte of the hold report, against one scalar bisection per row.
        scn = dataclasses.replace(
            le.vehicle_preset(draw), estimator=EstimatorKind.ZERO_ORDER_HOLD,
            channel=channel, t_max=20.0,
        )
        tr = simulate(scn)
        assert _dropped_intervals(tr, 5, 1.0).shape[1] > 1  # several windows compete
        assert repr(analyze_scenario_zoh(scn, tr)) == repr(zoh_report_reference(scn, tr))

    def test_zoh_stand_in_row_matches_scalar_reference(self, zoh7):
        # Three triggers and no delivery: no window is complete.
        scn = dataclasses.replace(zoh7, t_max=0.5)
        tr = worst_case_trace(scn)
        assert tr.triggers.size < scn.channel.M and tr.deliveries.size == 0
        rep = analyze_scenario_zoh(scn, tr)
        assert repr(rep) == repr(zoh_report_reference(scn, tr))
        assert [t_j for t_j, _ in rep.state_norms] == [0.0] * (scn.channel.M - 1)

    def test_zoh_analysis_builds_one_report(self, zoh7, trace_zoh7, monkeypatch):
        # One report, the winning window's, and no norm of a single state row.
        reports, norms = [], []
        real_norm = np.linalg.norm

        def recording_report(**fields):
            reports.append(ZohBoundsReport(**fields))
            return reports[-1]

        def recording_norm(a, *args, **kwargs):
            norms.append(np.ndim(a))
            return real_norm(a, *args, **kwargs)

        monkeypatch.setattr("lossyetc.bounds.ZohBoundsReport", recording_report)
        monkeypatch.setattr(np.linalg, "norm", recording_norm)
        rep = analyze_scenario_zoh(zoh7, trace_zoh7)
        assert reports == [rep]
        assert norms and 1 not in norms

    def test_analyzers_pass_the_table_through(
        self, vehicle7, trace7, zoh7, trace_zoh7, monkeypatch
    ):
        # The hold analyzer hands the dropped-interval table, as built, to
        # one amplification call; the model-based one builds none.
        tables, seen = [], []
        real_table = _dropped_intervals

        def recording_table(*args):
            tables.append(real_table(*args))
            return tables[-1]

        def recording(real, at):
            def call(*args):
                seen.append(args[at])
                return real(*args)
            return call

        monkeypatch.setattr("lossyetc.bounds._dropped_intervals", recording_table)
        monkeypatch.setattr("lossyetc.bounds.compute_delta_zoh", recording(compute_delta_zoh, 2))
        analyze_scenario(vehicle7, trace7)
        assert tables == []
        analyze_scenario_zoh(zoh7, trace_zoh7)
        assert len(tables) == len(seen) == 1
        assert tables[0] is seen[0]

    def test_model_based_delta_reads_no_trace_row(self, vehicle7, trace7, report7, monkeypatch):
        def fail(*_args):
            raise AssertionError("the model-based Delta needs no trace grounding")

        monkeypatch.setattr("lossyetc.bounds._dropped_intervals", fail)
        monkeypatch.setattr("lossyetc.bounds._growth_rate", fail)
        assert analyze_scenario(vehicle7, trace7) == report7
        # The shared model loop gives every draw and every trace the same Delta.
        draw = le.vehicle_preset(45)
        assert analyze_scenario(draw, trace7).Delta == report7.Delta

    def test_delta_within_the_windowed_formula(self, vehicle7, trace7, report7):
        # The paper's windowed Delta of the parent's report, from the oracle.
        windowed = windowed_delta(vehicle7, trace7)
        assert windowed.Delta == pytest.approx(6233.454929862856, rel=1e-12)
        assert report7.Delta <= windowed.Delta

    def test_stable_open_loop_draw_is_certified(self):
        # Draw 12's plant has no growing mode (only the vehicle's double
        # zero), which the windowed formula needs; the model-based Delta
        # does not.
        scn = le.vehicle_preset(12)
        assert np.all(np.linalg.eigvals(scn.plant.A).real <= 1e-6)
        with pytest.raises(BoundsError, match="no growing mode"):
            windowed_delta(scn, worst_case_trace(scn))
        bernoulli = ChannelPolicy(M=5, mode=ChannelMode.BERNOULLI, p=0.5, seed=12)
        empirical = []
        for tr in (worst_case_trace(scn), simulate(dataclasses.replace(scn, channel=bernoulli))):
            rep = analyze_scenario(scn, tr)
            stats = summarize(tr, scn.trigger)
            assert rep.Delta == pytest.approx(51.739, rel=1e-4)
            assert verify_ec_bound(tr, rep.Delta, scn.trigger).ok
            assert stats.min_inter_event >= rep.miet > scn.event_tol
            empirical.append(stats.empirical_amplification)
        assert empirical == pytest.approx([5.7071, 5.2845], rel=1e-4)

    def test_model_loop_rate_required(self, vehicle7, trace7, monkeypatch):
        # S decays at 0.3648; alpha = 0.4 leaves S + alpha I no ceiling.
        slow = dataclasses.replace(vehicle7, trigger=TriggerConfig(beta=0.5, alpha=0.4))
        with pytest.raises(BoundsError, match="model loop's rate 0.3648"):
            analyze_scenario(slow, trace7)
        monkeypatch.setattr("lossyetc.bounds.norm_ceiling", lambda _m: None)
        with pytest.raises(BoundsError, match="no certified norm ceiling"):
            analyze_scenario(vehicle7, trace7)

    def test_trace_of_another_dimension_rejected(self, vehicle7, zoh7):
        # A 2-state trace against the 4-state preset once certified
        # without complaint.
        scn = dataclasses.replace(vehicle7, t_max=10.0)
        tr = worst_case_trace(scn)
        cut = dataclasses.replace(tr, x=tr.x[:, :2], x_s=tr.x_s[:, :2], x_c=tr.x_c[:, :2])
        with pytest.raises(BoundsError, match="2 states, the scenario 4"):
            analyze_scenario(scn, cut)
        with pytest.raises(BoundsError, match="2 states, the scenario 4"):
            analyze_scenario_zoh(dataclasses.replace(zoh7, t_max=10.0), cut)

    def test_analysis_svd_budget(self, vehicle7, trace7, monkeypatch):
        # The true loop's decay envelope takes 700 SVDs; the ceiling of
        # S + alpha I takes one per sample.
        svd = np.linalg.svd
        taken = []

        def counting(a, *args, **kwargs):
            a = np.asarray(a)
            taken.append(math.prod(a.shape[:-2]))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        analyze_scenario(vehicle7, trace7)
        assert sum(taken) <= 2000

    def test_analysis_builds_spectral_data_once(self, vehicle7, trace7, monkeypatch):
        # One eigendecomposition each for S + alpha I (its ceiling) and the
        # true loop (its envelope); S is built once, for Delta and the
        # inter-event time alike.
        eig, builds = [], []
        real_eig, real_build = numerics.eigendecompose, closed_loop

        def counting_eig(matrix):
            eig.append(matrix)
            return real_eig(matrix)

        def counting_build(*args):
            builds.append(args)
            return real_build(*args)

        monkeypatch.setattr(numerics, "eigendecompose", counting_eig)
        monkeypatch.setattr("lossyetc.bounds.eigendecompose", counting_eig)
        monkeypatch.setattr("lossyetc.bounds.closed_loop", counting_build)
        analyze_scenario(vehicle7, trace7)
        assert (len(eig), len(builds)) == (2, 1)

    def test_second_analysis_of_s_reuses_its_record(self, vehicle7, trace7, monkeypatch):
        # Every draw shares the model loop S.  Once S + alpha I has been
        # analyzed, a second analysis decomposes nothing and fits no envelope,
        # and another draw decomposes and fits only its own true loop.
        first = analyze_scenario(vehicle7, trace7)
        draw = le.vehicle_preset(45)
        trace45 = simulate(draw)
        s_mat = closed_loop(vehicle7.model, vehicle7.gain)
        eig, fits = [], []
        real_eig, real_fit = numerics.eigendecompose, numerics._fit_envelope

        def counting_eig(matrix):
            eig.append(matrix)
            return real_eig(matrix)

        def counting_fit(record):
            fits.append(record.m)
            return real_fit(record)

        monkeypatch.setattr(numerics, "eigendecompose", counting_eig)
        monkeypatch.setattr(numerics, "_fit_envelope", counting_fit)
        assert analyze_scenario(vehicle7, trace7) == first
        assert (eig, fits) == ([], [])
        analyze_scenario(draw, trace45)
        true_loop = draw.plant.A + draw.plant.B @ draw.gain.K
        assert len(eig) == len(fits) == 1
        assert np.array_equal(eig[0], true_loop) and np.array_equal(fits[0], true_loop)
        assert not np.array_equal(true_loop, s_mat)

    def test_report_invariants(self, report7, vehicle7):
        s_mat = closed_loop(vehicle7.model, vehicle7.gain)
        c_alpha = norm_ceiling(s_mat + vehicle7.trigger.alpha * np.eye(4))
        assert report7.Delta == 1.0 + (1.0 + bounds.TRIGGER_OVERSHOOT) * 4 * c_alpha
        assert report7.miet > 0.0
        assert report7.x0_norm == pytest.approx(float(np.linalg.norm(vehicle7.x0)))
        assert report7.a_tilde > 0.0
        assert set(report7.envelopes) == {"true_loop"}

    def test_nominal_constants_frozen(self, vehicle7, report7):
        # the model side is the unperturbed design, shared by every draw
        assert report7.a_hat == pytest.approx(23.045194978569295, rel=1e-12)
        s_mat = closed_loop(vehicle7.model, vehicle7.gain)
        assert norm_ceiling(s_mat + 0.25 * np.eye(4)) == pytest.approx(
            12.684746649276724, rel=1e-12
        )

    def test_exact_model_report(self, report0, vehicle0):
        assert report0.a_tilde == 0.0
        assert report0.F_bar == 0.0
        true_env = report0.envelopes["true_loop"]
        model_env = decay_envelope(closed_loop(vehicle0.model, vehicle0.gain))
        assert true_env.c == model_env.c and true_env.rate == model_env.rate
        check = verify_ec_bound(le.simulate(vehicle0), report0.Delta, vehicle0.trigger)
        assert check.ok

    def test_empirical_amplification_within_certificate(
        self, trace7, report7, vehicle7
    ):
        emp = summarize(trace7, vehicle7.trigger).empirical_amplification
        assert emp <= report7.Delta

    def test_alpha_must_undercut_loop_rate(self, vehicle7, trace7):
        scn = dataclasses.replace(vehicle7, trigger=TriggerConfig(beta=0.5, alpha=5.0))
        with pytest.raises(BoundsError, match="stay below"):
            analyze_scenario(scn, trace7)

    def test_zoh_report_frozen(self, zoh7, trace_zoh7):
        rep = analyze_scenario_zoh(zoh7, trace_zoh7)
        # From zoh_crossing_reference with beta e^{-alpha t_j} on every window
        # of trace_zoh7, the worst window's tail-sum exponentials.
        assert rep.Delta_zoh == pytest.approx(24.95097201229083, rel=1e-6)
        assert rep.Delta_zoh >= zoh7.channel.M
        assert len(rep.delta_bar_zoh) == zoh7.channel.M - 1

    def test_zoh_empirical_within_certificate(self, zoh7, trace_zoh7):
        rep = analyze_scenario_zoh(zoh7, trace_zoh7)
        emp = summarize(trace_zoh7, zoh7.trigger).empirical_amplification
        assert emp <= rep.Delta_zoh
        check = verify_ec_bound(trace_zoh7, rep.Delta_zoh, zoh7.trigger)
        assert check.ok

    def test_report_validation(self, report7):
        with pytest.raises(BoundsError, match="Delta"):
            dataclasses.replace(report7, Delta=0.5)
        with pytest.raises(BoundsError, match="miet"):
            dataclasses.replace(report7, miet=0.0)

    def test_zoh_report_validation(self):
        growth = GrowthEnvelope(eta=1.0, gamma=1.0)
        with pytest.raises(BoundsError, match="floor"):
            ZohBoundsReport(
                Delta_zoh=0.5, delta_bar_zoh=(), growth=growth, state_norms=()
            )
        with pytest.raises(BoundsError, match="positive"):
            ZohBoundsReport(
                Delta_zoh=5.0, delta_bar_zoh=(0.0,), growth=growth,
                state_norms=((0.0, 1.0),),
            )


def _largest_discrepancy_gap(tr, flow):
    """Largest ||x_s - x_c + sum_i flow(t - t_i) e_s(t_i^-)|| / thr(t) over
    every 50th row, and the most dropped triggers since a delivery."""
    pre = np.flatnonzero(tr.triggered)
    worst, longest = 0.0, 0
    for r in range(0, tr.num_samples, 50):
        done = pre[pre < r]
        delivered = done[tr.delivered[done]]
        since = done[done > delivered[-1]] if delivered.size else done
        longest = max(longest, since.size)
        w = np.zeros(tr.x.shape[1])
        for i in since:
            w -= flow(tr.t[r] - tr.t[i]) @ (tr.x_s[i] - tr.x[i])
        worst = max(worst, np.linalg.norm(tr.x_s[r] - tr.x_c[r] - w) / tr.threshold[r])
    return worst, longest


_IDENTITY_CHANNELS = pytest.mark.parametrize("channel", [
    ChannelPolicy(M=5, mode=ChannelMode.WORST_CASE),
    ChannelPolicy(M=5, mode=ChannelMode.BERNOULLI, p=0.5, seed=7),
], ids=["worst_case", "bernoulli"])


class TestDiscrepancyIdentity:
    """The lemma under the model-based Delta, read off preset-7 traces.

    With t_1 < ... < t_k the dropped triggers since the last delivery,
    x_s - x_c = -sum_i P(t - t_i) e_s(t_i^-), e_s(t_i^-) = x_s - x on the
    trigger's pre-jump row; the jump shows from the row after it.  P(a) is
    exp(S a) for the model-based estimator and I for the hold estimator.
    """

    @_IDENTITY_CHANNELS
    def test_discrepancy_is_the_sum_of_dropped_errors(self, vehicle7, channel):
        scn = dataclasses.replace(vehicle7, channel=channel, t_max=20.0)
        tr = simulate(scn)
        s_mat = closed_loop(scn.model, scn.gain)
        worst, longest = _largest_discrepancy_gap(tr, lambda a: taylor_expm(s_mat, a))
        # largest seen: 8.5e-14 (worst case) and 6.2e-14 (Bernoulli)
        assert worst <= 1e-9
        assert 0 < longest <= scn.channel.M - 1
        rep = analyze_scenario(scn, tr)
        assert np.all(tr.e_c_norm <= rep.Delta * tr.threshold)

    @_IDENTITY_CHANNELS
    def test_hold_discrepancy_is_the_sum_of_dropped_errors(self, zoh7, channel):
        # The hold jump logic, without any certificate.
        scn = dataclasses.replace(zoh7, channel=channel, t_max=20.0)
        tr = simulate(scn)
        worst, longest = _largest_discrepancy_gap(tr, lambda a: np.eye(scn.n))
        # largest seen: 7.2e-16 (worst case) and 2.5e-16 (Bernoulli)
        assert worst <= 1e-12
        assert 0 < longest <= scn.channel.M - 1


class TestStabilityEnvelope:
    def test_matches_direct_arithmetic(self, vehicle7, report7):
        env = report7.envelopes["true_loop"]
        bk_norm = float(np.linalg.norm(vehicle7.plant.B @ vehicle7.gain.K, 2))
        expected = env.c * report7.x0_norm + (
            vehicle7.trigger.beta * env.c * report7.Delta * bk_norm
            / (env.rate - vehicle7.trigger.alpha)
        )
        got = stability_envelope_bound(vehicle7, report7)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_trace_respects_envelope(self, vehicle7, trace7, report7):
        bound = stability_envelope_bound(vehicle7, report7)
        weighted = np.linalg.norm(trace7.x, axis=1) * np.exp(
            vehicle7.trigger.alpha * trace7.t
        )
        assert float(np.max(weighted)) <= bound

    def test_rate_gap_required(self, vehicle7, report7):
        scn = dataclasses.replace(vehicle7, trigger=TriggerConfig(beta=0.5, alpha=0.5))
        with pytest.raises(BoundsError, match="reaches"):
            stability_envelope_bound(scn, report7)
