import dataclasses
import hashlib
import math

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
    DeltaBreakdown,
    GrowthEnvelope,
    MietBreakdown,
    SubspaceReport,
    ZohBoundsReport,
    _crossing_roots,
    _dropped_intervals,
    _growth_rate,
    analyze_scenario,
    analyze_scenario_zoh,
    compute_Delta,
    compute_delta_zoh,
    delta_bar,
    min_inter_event_time,
    stability_envelope_bound,
    stable_subspace_residual,
    verify_ec_bound,
    worst_case_trace,
)
from lossyetc import bounds, numerics
from lossyetc.numerics import DecayEnvelope, NumericsError, decay_envelope, grid_norm_maxes
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
from lossyetc.trigger_channel import TriggerConfig

from oracles import (
    HURWITZ,
    delta_bar_reference,
    miet_reference,
    modal_growth_coefficient,
    every_window_delta,
    nongrowing_subspace_distance,
    zoh_crossing_reference,
)

CFG = TriggerConfig(beta=0.5, alpha=0.25)
# Gain 1 leaves each row's state norm as its zeta_j; rate 1 is kappa.
UNIT_ENV = DecayEnvelope(c=1.0, rate=1.0)

# Off-diagonal coupling feeds the decaying mode into the growing one, so the
# top-block norm has a nontrivial modal coefficient: |x(t)| = 1.25 e^t - 0.25 e^-t.
SCALAR_GAMMA = np.array([[1.0, 0.5], [0.0, -1.0]])


@pytest.fixture(scope="module")
def report0(vehicle0):
    return analyze_scenario(vehicle0, simulate(vehicle0))


def _true_envelope(scn):
    return decay_envelope(scn.plant.A + scn.plant.B @ scn.gain.K)


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
        [rows] = _dropped_intervals(tr, 3, gamma)
        assert rows[0] == rows[1]
        t_j, eta, peak = rows[0]
        modal = modal_growth_coefficient(SCALAR_GAMMA, np.array([1.0]))
        assert modal == pytest.approx(1.25, rel=1e-12)
        assert t_j == 0.0
        assert 0.9 * modal <= eta <= 1.1 * modal
        assert peak == pytest.approx(1.25 * math.exp(20.0), rel=1e-12)

    def test_scalar_envelope_holds_on_fresh_grid(self):
        gamma = _growth_rate(SCALAR_GAMMA)
        tr = _scalar_flow_trace(np.linspace(5.0, 20.0, 400))
        [[(_, eta, _)]] = _dropped_intervals(tr, 2, gamma)
        rng = np.random.default_rng(99)
        ts = rng.uniform(5.0, 20.0, 500)
        vals = np.abs(1.25 * np.exp(ts) - 0.25 * np.exp(-ts))
        assert np.all(vals >= eta * np.exp(gamma * ts) - 1e-9)

    def test_rows_start_at_dropped_triggers(self, vehicle7, trace7):
        tr = trace7
        gamma = _growth_rate(gamma_matrix(vehicle7.plant, vehicle7.model, vehicle7.gain))
        windows = _dropped_intervals(tr, vehicle7.channel.M, gamma)
        assert windows
        dropped = set(np.setdiff1d(tr.triggers, tr.deliveries).tolist())
        for rows in windows:
            assert len(rows) == vehicle7.channel.M - 1
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
    def test_single_drop_stable_model(self):
        # stable model copy: the transition sup floors at 1
        s_mat = closed_loop(NominalModel(A_hat=[[-2.0]], B_hat=[[0.0]]), Gain(K=[[0.0]]))
        out = compute_Delta(s_mat, CFG, 2, [[(0.0, 1.0, 1.0)]], 1.0, UNIT_ENV)
        bar = 0.32437208648653149
        assert out.delta_bar == pytest.approx((bar,), rel=1e-15)
        assert out.delta_tilde == pytest.approx((bar,), rel=1e-15)
        assert out.Delta == pytest.approx(1.0 + math.exp(0.25 * bar), rel=1e-12)

    def test_single_drop_growing_model(self):
        # growing model copy: the sup contributes e^{0.5 tilde}
        s_mat = closed_loop(NominalModel(A_hat=[[0.5]], B_hat=[[0.0]]), Gain(K=[[0.0]]))
        out = compute_Delta(s_mat, CFG, 2, [[(0.0, 1.0, 1.0)]], 1.0, UNIT_ENV)
        bar = 0.32437208648653149
        assert out.Delta == pytest.approx(1.0 + math.exp(0.75 * bar), rel=1e-10)

    def test_tail_sums_and_growth_in_budget(self):
        s_mat = closed_loop(NominalModel(A_hat=[[-2.0]], B_hat=[[0.0]]), Gain(K=[[0.0]]))
        two = compute_Delta(s_mat, CFG, 2, [[(0.0, 1.0, 1.0)]], 1.0, UNIT_ENV)
        three = compute_Delta(s_mat, CFG, 3, [[(0.0, 1.0, 1.0)] * 2], 1.0, UNIT_ENV)
        assert three.Delta > two.Delta >= 1.0
        assert three.delta_tilde[0] == pytest.approx(sum(three.delta_bar), rel=1e-12)
        assert np.all(np.diff(three.delta_tilde) < 0.0)

    def test_validation(self):
        s_mat = closed_loop(NominalModel(A_hat=[[-2.0]], B_hat=[[0.0]]), Gain(K=[[0.0]]))
        with pytest.raises(BoundsError, match="M > 1"):
            compute_Delta(s_mat, CFG, 1, [[]], 1.0, UNIT_ENV)
        with pytest.raises(BoundsError, match="per-interval"):
            compute_Delta(s_mat, CFG, 3, [[(0.0, 1.0, 1.0)]], 1.0, UNIT_ENV)
        # every window is checked, not only the first, and there must be one
        for windows in ([[(0.0, 1.0, 1.0)], []], []):
            with pytest.raises(BoundsError, match="per-interval"):
                compute_Delta(s_mat, CFG, 2, windows, 1.0, UNIT_ENV)

    def test_rows_take_the_envelope_constants(self):
        s_mat = closed_loop(NominalModel(A_hat=[[-2.0]], B_hat=[[0.0]]), Gain(K=[[0.0]]))
        env = DecayEnvelope(c=2.0, rate=0.1)
        out = compute_Delta(s_mat, CFG, 2, [[(0.5, 1.0, 1.5)]], 1.0, env)
        assert out.delta_bar == (delta_bar(1.0, 3.0, 1.0, 0.1, CFG, 0.5),)

    def test_interval_start_shrinks_threshold(self):
        s_mat = closed_loop(NominalModel(A_hat=[[-2.0]], B_hat=[[0.0]]), Gain(K=[[0.0]]))
        late = compute_Delta(s_mat, CFG, 2, [[(4.0, 1.0, 1.0)]], 1.0, UNIT_ENV)
        bar = delta_bar_reference(1.0, 1.0, 1.0, 1.0, CFG.beta, CFG.alpha, 4.0)
        assert late.delta_bar == pytest.approx((bar,), rel=1e-9)
        early = compute_Delta(s_mat, CFG, 2, [[(0.0, 1.0, 1.0)]], 1.0, UNIT_ENV)
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
        compute_Delta(s_mat, CFG, 5, windows, 1.0, UNIT_ENV)
        assert len(calls) == 1

    def test_window_skip_keeps_every_bit(self, monkeypatch):
        # Random windows on random Hurwitz S of n = 2..9 with complex,
        # repeated and strongly non-normal modes, and one defective S whose
        # norms come from expm: the windows skipped under the norm ceiling
        # never change a bit of the result.  (Each defective S costs about
        # 0.25 s of expm calls, hence only one.)
        rng = np.random.default_rng(11)
        evaluated, every = [], 0
        real = grid_norm_maxes

        def counting(m, grids):
            evaluated.append(len(grids))
            return real(m, grids)

        monkeypatch.setattr("lossyetc.bounds.grid_norm_maxes", counting)
        env = DecayEnvelope(c=2.0, rate=0.5)
        for name, s_mat in HURWITZ.items():
            if name.startswith("jordan") and name != "jordan_3":
                continue
            windows = [
                [(float(t), float(eta), float(eta * f)) for t, eta, f in
                 zip(rng.uniform(0.0, 10.0, 2), rng.uniform(0.05, 1.0, 2), rng.uniform(1.0, 20.0, 2))]
                for _ in range(6)
            ]
            want = every_window_delta(s_mat, CFG, 3, windows, 1.0, env)
            assert compute_Delta(s_mat, CFG, 3, windows, 1.0, env) == want
            every += 6 * 2
        assert sum(evaluated) < every / 3

    def test_window_skip_evaluates_a_window_under_the_top_bound(self, vehicle7):
        # The first window has the larger bound (weights e^{alpha tilde_k}
        # 3.12 against 2.93), but its short tail sum 0.01 has a small sup;
        # the second, whose tail sums both pass the vehicle's norm peak of
        # 9.9 at s = 0.93, still has a bound above the first's Delta and wins.
        s_mat = closed_loop(vehicle7.model, vehicle7.gain)
        rows = lambda bars: [(100.0, 1.0, math.exp(1.25 * b)) for b in bars]
        windows = [rows((2.99, 0.01)), rows((1.0, 1.0))]
        got = compute_Delta(s_mat, CFG, 3, windows, 1.0, UNIT_ENV)
        assert got == every_window_delta(s_mat, CFG, 3, windows, 1.0, UNIT_ENV)
        assert got == compute_Delta(s_mat, CFG, 3, windows[1:], 1.0, UNIT_ENV)

    def test_overflowing_grid_evaluates_every_window(self):
        # S has a ceiling, but S * tilde_k overflows on the first window's
        # grid, so grid_norm_maxes fails and c stands in for every sup.
        s_mat = -1e4 * np.eye(2)
        cfg = TriggerConfig(beta=0.5, alpha=1e-305)
        env = DecayEnvelope(c=3.0, rate=1e-305)
        windows = [[(0.0, 1.0, 1.0)], [(0.0, 25000.0, 25000.0 / 3.0)]]
        assert numerics.norm_ceiling(s_mat) is not None
        with np.errstate(over="ignore"):
            got = compute_Delta(s_mat, cfg, 2, windows, 1e-305, env)
            assert got == every_window_delta(s_mat, cfg, 2, windows, 1e-305, env)
        assert got.Delta == 1.0 + math.exp(cfg.alpha * got.delta_tilde[0]) * 3.0

    def test_growing_model_evaluates_every_window(self, monkeypatch):
        # A growing S has no ceiling, so every window's grids are evaluated,
        # in one call each for the top window and the rest.
        model = NominalModel(A_hat=[[0.5, 1.0], [0.0, -1.0]], B_hat=[[0.0], [0.0]])
        s_mat = closed_loop(model, Gain(K=[[0.0, 0.0]]))
        windows = [[(float(t), 1.0, x)] * 2 for t, x in ((0.0, 2.0), (1.0, 5.0), (2.0, 3.0), (0.5, 1.5))]
        evaluated = []

        def counting(m, grids):
            evaluated.append(len(grids))
            return grid_norm_maxes(m, grids)

        monkeypatch.setattr("lossyetc.bounds.grid_norm_maxes", counting)
        got = compute_Delta(s_mat, CFG, 3, windows, 1.0, UNIT_ENV)
        assert numerics.norm_ceiling(s_mat) is None
        assert got == every_window_delta(s_mat, CFG, 3, windows, 1.0, UNIT_ENV)
        assert evaluated == [2, 6]

    def test_single_window_asks_for_no_ceiling(self, monkeypatch):
        def fail(*_args):
            raise AssertionError("no ceiling is needed")

        monkeypatch.setattr("lossyetc.bounds.norm_ceiling", fail)
        s_mat = closed_loop(NominalModel(A_hat=[[-2.0]], B_hat=[[0.0]]), Gain(K=[[0.0]]))
        rows = [(0.0, 1.0, 1.0)] * 2
        got = compute_Delta(s_mat, CFG, 3, [rows], 1.0, UNIT_ENV)
        assert got == every_window_delta(s_mat, CFG, 3, [rows], 1.0, UNIT_ENV)

    def test_windows_give_the_max_of_single_window_calls(self):
        model = NominalModel(A_hat=[[-2.0, 3.0], [0.0, 0.5]], B_hat=[[0.0], [1.0]])
        s_mat = closed_loop(model, Gain(K=[[0.0, -2.0]]))
        rng = np.random.default_rng(5)
        windows = [
            [(float(t), float(eta), float(eta * (1.0 + f))) for t, eta, f in rng.uniform(0.1, 3.0, (3, 3))]
            for _ in range(6)
        ]
        singles = [compute_Delta(s_mat, CFG, 4, [rows], 1.0, UNIT_ENV) for rows in windows]
        assert len({single.Delta for single in singles}) == len(windows)
        both = compute_Delta(s_mat, CFG, 4, windows, 1.0, UNIT_ENV)
        assert both == max(singles, key=lambda single: single.Delta)

    def test_first_window_wins_a_tie(self):
        # the threshold has underflowed at t = 1e4, so each bar is log(zeta)
        # over 1.25: distinct, yet too small to move exp(alpha * tilde) off 1;
        # on a stable model both windows total exactly 2
        s_mat = closed_loop(NominalModel(A_hat=[[-2.0]], B_hat=[[0.0]]), Gain(K=[[0.0]]))
        first = [(1e4, 1.0, 1.0 + 2.0**-52)]
        second = [(1e4, 1.0, 1.0 + 2.0**-51)]
        a = compute_Delta(s_mat, CFG, 2, [first, second], 1.0, UNIT_ENV)
        b = compute_Delta(s_mat, CFG, 2, [second, first], 1.0, UNIT_ENV)
        assert a.Delta == b.Delta == 2.0
        assert 0.0 < a.delta_bar[0] < b.delta_bar[0]
        assert a == compute_Delta(s_mat, CFG, 2, [first], 1.0, UNIT_ENV)
        assert b == compute_Delta(s_mat, CFG, 2, [second], 1.0, UNIT_ENV)

    def test_sup_falls_back_to_envelope_ceiling(self, monkeypatch):
        # the second interval starts where the threshold has underflowed and
        # its zeta_j equals its eta_j, so its tail sum is 0 and its sup is 1
        # without a grid
        model = NominalModel(A_hat=[[-2.0, 3.0], [0.0, -1.0]], B_hat=[[0.0], [0.0]])
        s_mat = closed_loop(model, Gain(K=[[0.0, 0.0]]))

        def fail(*_args):
            raise NumericsError("synthetic grid failure")

        monkeypatch.setattr("lossyetc.bounds.grid_norm_maxes", fail)
        # the ceiling is the given envelope's gain; S is not analyzed again
        monkeypatch.setattr("lossyetc.bounds.decay_envelope", fail)
        env = DecayEnvelope(c=3.0, rate=1.0)
        out = compute_Delta(s_mat, CFG, 3, [[(0.0, 1.0, 1.0), (1e4, 3.0, 1.0)]], 1.0, env)
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


class TestComputeDeltaZoh:
    def test_frozen_crossing(self):
        rep = compute_delta_zoh(CFG, 2, [[(0.0, 1.0, 1.0)]], 1.0)
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
            rep = compute_delta_zoh(cfg, 2, [[(t_j, eta, x_norm)]], gamma)
            # the threshold at the interval's start takes beta's place
            beta_j = beta * math.exp(-alpha * t_j)
            ref = zoh_crossing_reference(eta, gamma, x_norm, beta_j, alpha)
            assert rep.delta_bar_zoh[0] == pytest.approx(ref, abs=1e-9)

    def test_floor_and_positivity(self):
        rows = [(0.0, 0.5, 2.0), (0.3, 0.5, 1.5), (0.6, 0.5, 0.7)]
        rep = compute_delta_zoh(CFG, 4, [rows], 0.8)
        assert rep.Delta_zoh >= 4.0
        assert all(d > 0.0 for d in rep.delta_bar_zoh)
        assert rep.state_norms == ((0.0, 2.0), (0.3, 1.5), (0.6, 0.7))

    def test_window_envelope_is_the_least_row_constant(self):
        # a state norm below every eta_j caps the window's envelope gain
        rows = [(0.0, 0.8, 2.0), (0.3, 0.9, 0.6), (0.6, 0.7, 1.0)]
        rep = compute_delta_zoh(CFG, 4, [rows], 0.8)
        assert rep.growth == GrowthEnvelope(eta=0.6, gamma=0.8)

    def test_windows_give_the_max_of_single_window_calls(self):
        rng = np.random.default_rng(7)
        windows = [
            [(float(t), float(eta), float(eta * (1.0 + f))) for t, eta, f in rng.uniform(0.1, 3.0, (3, 3))]
            for _ in range(6)
        ]
        singles = [compute_delta_zoh(CFG, 4, [rows], 0.5) for rows in windows]
        assert len({single.Delta_zoh for single in singles}) == len(windows)
        both = compute_delta_zoh(CFG, 4, windows, 0.5)
        assert both == max(singles, key=lambda single: single.Delta_zoh)

    def test_first_window_wins_a_tie(self):
        # the threshold has underflowed at t = 1e20, so each bar is ln X_j:
        # distinct, yet alpha is too small to move exp(alpha * tilde) off 1
        cfg = TriggerConfig(beta=0.5, alpha=1e-17)
        first = [(1e20, 1.0, 2.0)]
        second = [(1e20, 1.0, 3.0)]
        a = compute_delta_zoh(cfg, 2, [first, second], 1.0)
        b = compute_delta_zoh(cfg, 2, [second, first], 1.0)
        assert a.Delta_zoh == b.Delta_zoh == 2.0
        assert 0.0 < a.delta_bar_zoh[0] < b.delta_bar_zoh[0]
        assert a == compute_delta_zoh(cfg, 2, [first], 1.0)
        assert b == compute_delta_zoh(cfg, 2, [second], 1.0)

    def test_roots_match_scalar_bisection(self, monkeypatch, zoh7, trace_zoh7):
        # The array bisection gives every row the bits of one scalar
        # bisect_root run from [0, t_cap]: the rows of all preset-7 hold
        # windows, plus a row whose crossing is zero at 0 (threshold
        # underflowed, eta = X_j) and one whose bracket outgrows bisect_root's
        # step budget.
        gamma = _growth_rate(gamma_zoh(zoh7.plant, zoh7.gain))
        alpha = zoh7.trigger.alpha
        rows = []
        for window in _dropped_intervals(trace_zoh7, zoh7.channel.M, gamma):
            eta = min(min(e, x) for _, e, x in window)
            for t_j, _, x_norm in window:
                beta_j = zoh7.trigger.beta * math.exp(-alpha * t_j)
                rows.append((eta, x_norm, beta_j, math.log((x_norm + beta_j) / eta) / gamma + 1.0))
        rows += [(2.0, 2.0, 0.0, 5.0), (1.0, 3.0, 0.5, 1e60)]

        def reference(eta, x_norm, beta_j, t_cap, gamma):
            def crossing(d):
                return eta * math.exp(gamma * d) - x_norm - beta_j * math.exp(-alpha * d)
            return numerics.bisect_root(crossing, 0.0, t_cap, tol=1e-12)

        want = [reference(*row, gamma) for row in rows[:-1]]
        want.append(reference(*rows[-1], 1e-59))
        calls = []

        def counting(f, lo, hi, tol):
            calls.append(lo)
            return numerics.bisect_root(f, lo, hi, tol)

        monkeypatch.setattr(bounds, "bisect_root", counting)
        got = _crossing_roots(rows[:-1], gamma, alpha) + _crossing_roots(rows[-1:], 1e-59, alpha)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert got[-2] == 0.0
        # the array pass settles nearly every row; the two extra rows go whole
        assert calls.count(0.0) == 2 and len(calls) < len(rows) / 10
        # Under slow growth the last midpoints' crossings come within an ulp
        # of zero, where np.exp and math.exp can disagree on the sign.
        rng = np.random.default_rng(1)
        for gamma in (1e-4, 1e-3):
            rows = []
            for eta, ratio, beta_j in rng.uniform((0.05, 1.0, 1e-3), (2.0, 20.0, 4.0), (200, 3)):
                x_norm = eta * ratio
                rows.append((eta, x_norm, beta_j, math.log((x_norm + beta_j) / eta) / gamma + 1.0))
            want = [reference(*row, gamma) for row in rows]
            assert _crossing_roots(rows, gamma, alpha) == want

    def test_validation(self):
        with pytest.raises(BoundsError, match="M > 1"):
            compute_delta_zoh(CFG, 1, [[]], 1.0)
        with pytest.raises(BoundsError, match="per-interval"):
            compute_delta_zoh(CFG, 3, [[(0.0, 1.0, 3.0)]], 1.0)
        # every window is checked, not only the first, and there must be one
        for windows in ([[(0.0, 1.0, 3.0)], []], []):
            with pytest.raises(BoundsError, match="per-interval"):
                compute_delta_zoh(CFG, 2, windows, 1.0)


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
        # From tests/oracles.py on the trace-grounded rows of trace7:
        # delta_bar_reference at each row's t_j, sups of taylor_expm over 400
        # points, the worst window, then miet_reference at that Delta.
        assert report7.Delta == pytest.approx(6233.454929862856, rel=1e-6)
        assert report7.miet == pytest.approx(5.637679149948192e-07, rel=1e-6)

    @pytest.mark.parametrize("draw, digest", [
        (1, "3b110638033c7a1e832f7bce3bb9c747dd5b7dec1550b13b1c473a19f3efb62b"),
        (7, "f5606185a9440101c13d3ea2e7910d71021a9428f50e72ee6db79dad0678b1c9"),
        (8, "fba5de517d932e7cdf67558709d43172ce60d2bc26d2f08e058c806006f40faf"),
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

    def test_analyzers_pass_the_table_through(
        self, vehicle7, trace7, zoh7, trace_zoh7, monkeypatch
    ):
        # Each analyzer hands the dropped-interval table, as built, to one
        # amplification call.
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
        monkeypatch.setattr("lossyetc.bounds.compute_Delta", recording(compute_Delta, 3))
        monkeypatch.setattr("lossyetc.bounds.compute_delta_zoh", recording(compute_delta_zoh, 2))
        analyze_scenario(vehicle7, trace7)
        analyze_scenario_zoh(zoh7, trace_zoh7)
        assert len(tables) == len(seen) == 2
        assert all(table is windows for table, windows in zip(tables, seen))

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
        # The two decay envelopes take 700 SVDs each; the Delta sups, which
        # would take 400 each, screen most grid points out.
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
        # One eigendecomposition each for S (its envelope and the sups of all
        # 16 windows), the true loop's envelope and the growth rate; S is
        # built once, for the envelope, the sups and the inter-event time alike.
        gamma = _growth_rate(gamma_matrix(vehicle7.plant, vehicle7.model, vehicle7.gain))
        assert len(_dropped_intervals(trace7, vehicle7.channel.M, gamma)) == 16
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
        assert (len(eig), len(builds)) == (3, 1)

    def test_second_analysis_of_s_reuses_its_record(self, vehicle7, trace7, monkeypatch):
        # Every draw shares the model loop S.  Once S has been analyzed, a
        # second analysis neither decomposes nor fits its envelope again, and
        # another draw decomposes and fits only its own true loop.
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
        assert report7.Delta >= 1.0
        assert report7.miet > 0.0
        assert len(report7.delta_bar) == vehicle7.channel.M - 1
        assert len(report7.delta_tilde) == vehicle7.channel.M - 1
        assert report7.delta_tilde[0] == pytest.approx(sum(report7.delta_bar), rel=1e-12)
        assert np.all(np.diff(report7.delta_tilde) < 0.0)
        assert report7.x0_norm == pytest.approx(float(np.linalg.norm(vehicle7.x0)))
        assert report7.a_tilde > 0.0
        assert set(report7.envelopes) == {"true_loop", "model_loop"}

    def test_nominal_constants_frozen(self, report7):
        # the model side is the unperturbed design, shared by every draw
        assert report7.a_hat == pytest.approx(23.045194978569295, rel=1e-12)
        env = report7.envelopes["model_loop"]
        assert env.rate == pytest.approx(0.36117622548934308, rel=1e-12)
        assert env.c == pytest.approx(14.863114764585044, rel=1e-12)

    def test_exact_model_report(self, report0, vehicle0):
        assert report0.a_tilde == 0.0
        assert report0.F_bar == 0.0
        true_env = report0.envelopes["true_loop"]
        model_env = report0.envelopes["model_loop"]
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
        with pytest.raises(BoundsError, match="decreasing"):
            dataclasses.replace(report7, delta_tilde=(1.0, 1.0, 2.0, 0.5))

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
