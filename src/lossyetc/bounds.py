"""Analytical bounds for event-triggered loops over a dropout-limited link.

Three families of certificates, all checkable against simulated traces:

* an amplification factor Delta such that the controller-side error stays
  under Delta * beta * exp(-alpha t) no matter how the channel drops packets
  within its consecutive-drop budget;
* a strictly positive lower bound on the spacing of trigger events, which
  rules out event accumulation; and
* for the hold-type estimator, the analogous amplification factor built from
  crossing times of a scalar transcendental equation.

The model-based Delta reads no trace: the discrepancy w = x_s - x_c is the
sum of the dropped sensor errors since the last delivery, each carried
forward by the model closed loop's flow exp(S s), so one norm ceiling of
S + alpha I bounds every term at once (see analyze_scenario).  The hold
estimator's w does not decay between events, so Delta_zoh sums bounds on the
dropped intervals of a maximal-drop window instead, read from one
(3, W, M - 1) table of t_j, eta_j and ||x(t_j)|| over W windows.  Each
interval bound uses the threshold beta * exp(-alpha t_j) at its own start
t_j, while the factor itself stays relative to the global threshold
beta * exp(-alpha t).  Its per-interval growth constants are not
constructive in general; the report builder grounds them on a worst-case
dropout trace of the scenario under study, which makes every reported
number reproducible from the scenario alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import schur

from .numerics import (
    MARGINAL_RE_TOL,
    DecayEnvelope,
    bisect_root,
    decay_envelope,
    eigendecompose,
    exp_norms_on_grid,  # unused here: perfbench/tracer.py patches this binding
    norm_ceiling,
)
from .system_model import Gain, NominalModel, Plant, closed_loop, gamma_matrix, gamma_zoh
from .trigger_channel import ChannelMode, ChannelPolicy, TriggerConfig
from .simulator import Scenario, Trace, _column_sums, simulate

# epsilon of the model-based Delta: the relative overshoot
# ||e_s(t_i^-)|| / thr(t_i) - 1 of a located trigger that Delta covers.
TRIGGER_OVERSHOOT = 1e-6
_TRACE_MARGIN = 0.99
# Width at which the hold estimator's crossing bisection stops.
_ZOH_TOL = 1e-12
_EPS = 2.0**-52


class BoundsError(ValueError):
    """Raised when a bound's precondition fails or a formula degenerates."""


@dataclass(frozen=True)
class GrowthEnvelope:
    """Certified lower envelope ||x(t)|| >= eta * exp(gamma * (t - t0))."""

    eta: float
    gamma: float

    def __post_init__(self):
        if not (self.eta > 0.0 and math.isfinite(self.eta)):
            raise BoundsError(f"eta must be positive and finite, got {self.eta!r}")
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise BoundsError(f"gamma must be positive and finite, got {self.gamma!r}")


class MietBreakdown(NamedTuple):
    """Minimum inter-event time and the constants of its formula."""

    miet: float
    F_cap: float
    F_bar: float
    F_bold: float
    a_hat: float
    a_tilde: float


class BoundCheck(NamedTuple):
    ok: bool
    max_ratio: float


@dataclass(frozen=True)
class BoundsReport:
    """Everything the model-based certificates produced for one scenario."""

    Delta: float
    miet: float
    F_bar: float
    F_cap: float
    F_bold: float
    a_hat: float
    a_tilde: float
    envelopes: dict[str, DecayEnvelope]
    x0_norm: float

    def __post_init__(self):
        if not self.Delta >= 1.0:
            raise BoundsError(f"Delta must be >= 1, got {self.Delta!r}")
        if not self.miet > 0.0:
            raise BoundsError(f"miet must be positive, got {self.miet!r}")


@dataclass(frozen=True)
class ZohBoundsReport:
    """Amplification certificate for the hold-type estimator."""

    Delta_zoh: float
    delta_bar_zoh: tuple[float, ...]
    growth: GrowthEnvelope
    state_norms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        m = len(self.delta_bar_zoh) + 1
        if not self.Delta_zoh >= m:
            raise BoundsError(
                f"Delta_zoh {self.Delta_zoh!r} below the exponent-free floor {m}"
            )
        if any(not d > 0.0 for d in self.delta_bar_zoh):
            raise BoundsError("every crossing time must be positive")


@dataclass(frozen=True)
class SubspaceReport:
    """Distance of the doubled initial condition from the non-growing span."""

    residual: float
    basis_dim: int


def verify_ec_bound(tr: Trace, Delta: float, cfg: TriggerConfig) -> BoundCheck:
    """Check every sample against Delta * beta * exp(-alpha t) + 1e-9."""
    if tr.num_samples == 0:
        raise ValueError("empty trace")
    # One trace-length temporary, filled twice with the bound: once plus 1e-9
    # for the check, once for the ratios.  A second temporary would cost more
    # in freshly faulted pages than the second fill does.
    bound = np.empty_like(tr.t)
    _fill_ec_bound(bound, tr, Delta, cfg)
    bound += 1e-9
    ok = bool(np.all(tr.e_c_norm <= bound))
    _fill_ec_bound(bound, tr, Delta, cfg)
    positive = bound > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.divide(tr.e_c_norm, bound, out=bound, where=positive)
    ratios[~positive] = 0.0
    return BoundCheck(ok=ok, max_ratio=float(np.max(ratios)))


def _fill_ec_bound(out: np.ndarray, tr: Trace, Delta: float, cfg: TriggerConfig) -> None:
    """out = Delta * beta * np.exp(-alpha * t) in place, the operations in that order."""
    np.multiply(-cfg.alpha, tr.t, out=out)
    np.exp(out, out=out)
    out *= Delta * cfg.beta


def min_inter_event_time(
    s_mat: np.ndarray,
    plant: Plant,
    model: NominalModel,
    gain: Gain,
    cfg: TriggerConfig,
    Delta: float,
    x0_norm: float,
    env_true: DecayEnvelope,
) -> MietBreakdown:
    """Strictly positive lower bound on the spacing of trigger events.

    s_mat is the model closed loop S and env_true the decay envelope of the
    true loop A + BK.  Evaluated at the initial instant, where the driving
    terms are largest, so the bound is uniform in time; a negative F_bar is
    clamped to zero, which only shrinks the result.
    """
    if not (Delta >= 1.0 and math.isfinite(Delta)):
        raise BoundsError(f"Delta must be >= 1 and finite, got {Delta!r}")
    if not (x0_norm >= 0.0 and math.isfinite(x0_norm)):
        raise BoundsError(f"x0_norm must be nonnegative, got {x0_norm!r}")
    c, abar = env_true.c, env_true.rate
    if not cfg.alpha < abar:
        raise BoundsError(
            f"trigger decay rate {cfg.alpha!r} must stay below the closed-loop "
            f"rate {abar!r}"
        )
    a_hat = float(np.linalg.norm(s_mat, 2))
    mismatch = (plant.A - model.A_hat) + (plant.B - model.B_hat) @ gain.K
    a_tilde = float(np.linalg.norm(mismatch, 2))
    bk_norm = float(np.linalg.norm(plant.B @ gain.K, 2))
    drive = cfg.beta * Delta * bk_norm / (abar - cfg.alpha)
    f_bar = max(0.0, a_tilde * c * (x0_norm - drive))
    f_cap = (1.0 + a_tilde * c / (abar - cfg.alpha)) * cfg.beta * Delta * bk_norm
    f_bold = f_bar / (a_hat + abar) + f_cap / (a_hat + cfg.alpha)
    if not (f_bold > 0.0 and math.isfinite(f_bold)):
        raise BoundsError("driving terms vanished or overflowed; no usable bound")
    # log1p keeps the bound strictly positive even when beta/f_bold is far
    # below machine epsilon.
    miet = math.log1p(cfg.beta / f_bold) / (a_hat + abar)
    return MietBreakdown(
        miet=miet, F_cap=f_cap, F_bar=f_bar, F_bold=f_bold, a_hat=a_hat, a_tilde=a_tilde
    )


def compute_delta_zoh(
    cfg: TriggerConfig, M: int, table: np.ndarray, gamma: float
) -> ZohBoundsReport:
    """Amplification factor for the hold-type estimator.

    table is _dropped_intervals' (3, W, M - 1) array of t_j, eta_j and
    X_j = ||x(t_j)|| over the dropped intervals of W windows; a window's
    growth envelope takes eta = min over its rows of min(eta_j, X_j).  Each
    interval bound solves eta e^{gamma d} - X_j = beta_j e^{-alpha d}, with
    the threshold beta_j = beta e^{-alpha t_j} at the interval's start; the
    left side starts below the right and grows without bound, so
    [0, ln((X_j + beta_j)/eta)/gamma + 1] brackets the crossing; a cap where
    the crossing is not positive raises BoundsError naming the first.  One
    bisection of every row at once (_crossing_roots) gives each the bits of a
    bisection of its crossing alone.  Every window's eta and crossing times
    are checked; the report is that of the first window with the largest
    Delta_zoh.
    """
    if not (M > 1 and table.ndim == 3 and table.shape[::2] == (3, M - 1) and table.size):
        raise BoundsError(
            f"need M > 1 and a (3, W > 0, M - 1) per-interval table, got M={M!r}, {table.shape}")
    alpha = cfg.alpha
    t_j, eta_j, x_j = table
    etas = np.minimum(eta_j, x_j).min(axis=1)
    # The least and the largest eta (a NaN reaches both) stand for every window.
    for extreme in (etas.min(), etas.max()):
        GrowthEnvelope(eta=float(extreme), gamma=gamma)
    # math.exp and math.log per row: np.exp and np.log can differ in the last bit.
    x, eta = x_j.ravel(), np.repeat(etas, M - 1)
    beta_j = cfg.beta * np.array([math.exp(z) for z in (-alpha * t_j.ravel()).tolist()])
    t_cap = np.array([math.log(r) for r in ((x + beta_j) / eta).tolist()]) / gamma + 1.0
    bars = _crossing_roots(eta, x, beta_j, t_cap, gamma, alpha).reshape(x_j.shape)
    if not np.all(bars > 0.0):
        raise BoundsError("every crossing time must be positive")
    # Tail sums for k = 1..M, left to right; the last is empty and contributes 1.
    deltas = [sum(math.exp(alpha * sum(bar[k:])) for k in range(M)) for bar in bars.tolist()]
    w = deltas.index(max(deltas))
    return ZohBoundsReport(
        Delta_zoh=deltas[w],
        delta_bar_zoh=tuple(bars[w].tolist()),
        growth=GrowthEnvelope(eta=float(etas[w]), gamma=gamma),
        state_norms=tuple(zip(t_j[w].tolist(), x_j[w].tolist())),
    )


def _crossing_roots(eta: np.ndarray, x: np.ndarray, b: np.ndarray, t_cap: np.ndarray,
                    gamma: float, alpha: float) -> np.ndarray:
    """Crossing time on [0, t_cap] of every row of the columns eta, X_j,
    beta_j and t_cap, by one bisect_root call, with the bits of a bisection
    of each row alone.

    crossing evaluates eta e^{gamma d} - X_j - beta_j e^{-alpha d} with
    np.exp, which differed from math.exp by at most one ulp over 800,000
    arguments (numpy 2.4.6, x86-64 with AVX-512).  A gap of k ulp moves the
    value by at most (k + 3) eps (A + X_j + B), A and B being its two
    exponential terms, so where it clears 8 eps (A + X_j + B) both have the
    same sign.  Elsewhere it takes the math.exp value, so every sign and
    exact zero that bisect_root sees is the scalar formula's.
    """

    def crossing(d, i):
        a = eta[i] * np.exp(gamma * d)
        bb = b[i] * np.exp(-alpha * d)
        f = a - x[i] - bb
        # The tail term covers the absolute rounding of subnormal terms.
        near = np.flatnonzero(~(np.abs(f) > 8.0 * _EPS * (a + x[i] + bb) + 2.0**-1070))
        f[near] = [
            eta.item(r) * math.exp(gamma * t) - x.item(r) - b.item(r) * math.exp(-alpha * t)
            for r, t in zip(i[near].tolist(), d[near].tolist())
        ]
        return f

    failed = np.flatnonzero(~(crossing(t_cap, np.arange(t_cap.size)) > 0.0))
    if failed.size:
        raise BoundsError(f"crossing bracket failed at cap {t_cap.item(failed[0])!r}")
    return bisect_root(crossing, 0.0, t_cap, tol=_ZOH_TOL)


def stable_subspace_residual(
    plant: Plant, model: NominalModel, gain: Gain, x0: np.ndarray
) -> SubspaceReport:
    """Distance of the doubled initial condition from the non-growing span.

    An ordered real Schur form of gamma_matrix puts its basis_dim eigenvalues
    with real part at most MARGINAL_RE_TOL first.  The leading Schur vectors
    span the non-growing invariant subspace of the (x, x_c) flow, defective
    modes included, so the distance is the norm of [x0; x0] projected onto
    the trailing ones.  A residual above tolerance certifies that the
    matched flow excites a growing mode.
    """
    n = plant.n
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != n:
        raise BoundsError(f"x0 has size {x0.size}, expected {n}")
    _, z, dim = schur(gamma_matrix(plant, model, gain), output="real",
                      sort=lambda re, im: re <= MARGINAL_RE_TOL)
    if dim == 2 * n:
        raise BoundsError("augmented flow has no growing mode; the membership test is vacuous")
    residual = np.linalg.norm(z[:, dim:].T @ np.concatenate([x0, x0]))
    return SubspaceReport(residual=float(residual), basis_dim=int(dim))


def stability_envelope_bound(scn: Scenario, report: BoundsReport) -> float:
    """Constant bounding ||x(t)|| * exp(alpha t) over the whole run."""
    env = report.envelopes["true_loop"]
    bk_norm = float(np.linalg.norm(scn.plant.B @ scn.gain.K, 2))
    gap = env.rate - scn.trigger.alpha
    if not gap > 0.0:
        raise BoundsError("trigger decay rate reaches the closed-loop rate")
    return env.c * report.x0_norm + scn.trigger.beta * env.c * report.Delta * bk_norm / gap


# --- report builders ------------------------------------------------------------

def worst_case_trace(scn: Scenario) -> Trace:
    """One run of the scenario under the worst-case channel of its drop budget."""
    policy = ChannelPolicy(mode=ChannelMode.WORST_CASE, M=scn.channel.M)
    return simulate(replace(scn, channel=policy))


def _lower_envelopes(
    t: np.ndarray, norms: np.ndarray, i0: np.ndarray, i1: np.ndarray, t0: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """0.99 times the largest eta_k with norms >= eta_k e^{gamma (t - t0_k)}.

    Entry k spans the samples i0[k]..i1[k]-1; all spans are evaluated in one
    pass with the same elementwise operations as one span at a time.
    """
    sizes = i1 - i0
    starts = np.cumsum(sizes) - sizes
    rows = np.arange(sizes.sum()) + np.repeat(i0 - starts, sizes)
    span_norms = norms[rows]
    mins = np.zeros(sizes.shape)  # an empty row span counts as vanished
    filled = sizes > 0
    if filled.any():
        mins[filled] = np.minimum.reduceat(span_norms, starts[filled])
    vanished = np.flatnonzero(~(mins > 0.0))
    if vanished.size:
        raise BoundsError(f"state norm vanished on the rows from t={t0[vanished[0]]}")
    decayed = span_norms * np.exp(-gamma * (t[rows] - np.repeat(t0, sizes)))
    return _TRACE_MARGIN * np.minimum.reduceat(decayed, starts)


def _dropped_intervals(tr: Trace, M: int, gamma: float) -> np.ndarray:
    """The (3, W, M - 1) table of t_j, eta_j and ||x(t_j)|| of the trace's W
    maximal-drop windows.

    A window runs from a delivery (or the synchronized start) over M - 1
    dropped triggers to the next delivery; its j-th dropped interval starts
    at the j-th dropped trigger t_j and ends at the next event, and eta_j is
    the trace-grounded growth envelope of the state norm on it.  A trace
    without a complete window gets one stand-in window of M - 1 equal rows:
    t_j = 0, the whole-trace envelope and the peak state norm.
    """
    # np.linalg.norm(tr.x, axis=1) in the bits of a row-major trace: tr.x is
    # a transposed view, whose rows numpy would sum in another order.
    norms = np.sqrt(_column_sums(tr.x.T ** 2))
    anchors = np.concatenate([[0.0], tr.deliveries])
    # The triggers strictly between consecutive anchors start at `first`.
    first = np.searchsorted(tr.triggers, anchors[:-1], side="right")
    count = np.searchsorted(tr.triggers, anchors[1:], side="left") - first
    full = np.flatnonzero(count == M - 1)
    if full.size == 0:
        eta = _lower_envelopes(
            tr.t, norms, np.array([0]), np.array([tr.num_samples]), np.array([0.0]), gamma
        )
        return np.array([0.0, eta[0], np.max(norms)]).reshape(3, 1, 1).repeat(M - 1, axis=2)
    lo = tr.triggers[first[full, None] + np.arange(M - 1)]
    hi = np.concatenate([lo[:, 1:], anchors[full + 1, None]], axis=1)
    i0 = np.searchsorted(tr.t, lo.ravel(), side="left")
    i1 = np.searchsorted(tr.t, hi.ravel(), side="left")
    etas = _lower_envelopes(tr.t, norms, i0, i1, lo.ravel(), gamma).reshape(lo.shape)
    # ||x(t_j)|| in np.linalg.norm(tr.x[i])'s bits: the dot product of each
    # row as a contiguous copy.  The column sums above differ in the last bit.
    x_norms = np.sqrt([row.dot(row) for row in tr.x[i0]]).reshape(lo.shape)
    return np.stack([lo, etas, x_norms])


def _drop_budget(scn: Scenario, tr: Trace) -> int:
    """The scenario's drop budget M, once the trace is known to be of its state."""
    if tr.x.shape[1] != scn.n:
        raise BoundsError(f"trace has {tr.x.shape[1]} states, the scenario {scn.n}")
    return scn.channel.M


def _growth_rate(gamma_mat: np.ndarray) -> float:
    """0.99 times the slowest growing mode of an (x, x_c) generator."""
    eig = eigendecompose(gamma_mat)
    growing = eig.eigenvalues.real > MARGINAL_RE_TOL
    if not np.any(growing):
        raise BoundsError("augmented flow has no growing mode")
    return 0.99 * float(np.min(eig.eigenvalues.real[growing]))


def analyze_scenario(scn: Scenario, tr: Trace) -> BoundsReport:
    """Full model-based certificate for one scenario.

    Delta = 1 + (1 + eps)(M - 1) c_alpha, with c_alpha = norm_ceiling(S + alpha I)
    >= ||exp(S s)|| e^{alpha s} for all s >= 0, S the model closed loop and
    eps = TRIGGER_OVERSHOOT.  With t_1 < ... < t_k the dropped triggers since
    the last delivery (k <= M - 1), w = x_s - x_c = -sum_i exp(S (t - t_i))
    e_s(t_i^-), and e_c = e_s - w; off events ||e_s|| <= thr(t), so
    ||e_c(t)|| <= thr(t) + sum_i (1 + eps) thr(t_i) ||exp(S (t - t_i))|| <=
    Delta thr(t).  eps covers a located trigger's overshoot
    ||e_s(t_i^-)|| / thr(t_i) - 1 up to eps, and up to eps / 2 on the trigger's
    own row, where e_s is not yet reset (as (M - 1) c_alpha >= 1).  The
    overshoot was at most 4.3e-9 over the 8,651 triggers of the 200
    model-based acceptance-family traces, and at most 2.9e-8 over draws 1-39
    of both estimators.  Delta reads no trace row and no plant matrix, so it
    covers every run, every channel within the drop budget and every plant
    behind the same model and gain; `tr` is checked only for its state
    dimension.
    The inter-event and stability constants take Delta and the scenario's
    true loop, so they hold per scenario.  Raises BoundsError where alpha is
    not below S's decay rate or S + alpha I has no norm ceiling.
    """
    m = _drop_budget(scn, tr)
    alpha = scn.trigger.alpha
    s_mat = closed_loop(scn.model, scn.gain)
    c_alpha = norm_ceiling(s_mat + alpha * np.eye(scn.n))
    if c_alpha is None:
        rate = -float(np.max(eigendecompose(s_mat).eigenvalues.real))
        if not alpha < rate:
            raise BoundsError(
                f"trigger decay rate {alpha!r} must stay below the model loop's rate {rate!r}"
            )
        raise BoundsError("S + alpha I has no certified norm ceiling")
    delta = 1.0 + (1.0 + TRIGGER_OVERSHOOT) * (m - 1) * c_alpha
    env_true = decay_envelope(scn.plant.A + scn.plant.B @ scn.gain.K)
    x0_norm = float(np.linalg.norm(scn.x0))
    miet = min_inter_event_time(
        s_mat, scn.plant, scn.model, scn.gain, scn.trigger, delta, x0_norm, env_true
    )
    return BoundsReport(
        Delta=delta, **miet._asdict(), envelopes={"true_loop": env_true}, x0_norm=x0_norm
    )


def analyze_scenario_zoh(scn: Scenario, tr: Trace) -> ZohBoundsReport:
    """Hold-type certificate Delta_zoh, grounded on `tr`, the scenario's
    worst-case dropout trace: it covers that run, and does not bound every
    run of the scenario (see test_known_zoh_certificate_gaps)."""
    m = _drop_budget(scn, tr)
    gamma = _growth_rate(gamma_zoh(scn.plant, scn.gain))
    return compute_delta_zoh(scn.trigger, m, _dropped_intervals(tr, m, gamma), gamma)
