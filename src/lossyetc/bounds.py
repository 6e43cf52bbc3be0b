"""Analytical bounds for event-triggered loops over a dropout-limited link.

Three families of certificates, all checkable against simulated traces:

* an amplification factor Delta such that the controller-side error stays
  under Delta * beta * exp(-alpha t) no matter how the channel drops packets
  within its consecutive-drop budget;
* a strictly positive lower bound on the spacing of trigger events, which
  rules out event accumulation; and
* for the hold-type estimator, the analogous amplification factor built from
  crossing times of a scalar transcendental equation.

Both amplification factors sum bounds on the dropped intervals of a
maximal-drop window.  Each interval bound uses the threshold
beta * exp(-alpha t_j) at its own start t_j, while the factor itself stays
relative to the global threshold beta * exp(-alpha t).

The per-interval growth and decay constants these formulas consume are not
constructive in general; the report builders ground them on a worst-case
dropout trace of the scenario under study, which makes every reported number
reproducible from the scenario alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import schur

from .numerics import (
    MARGINAL_RE_TOL,
    DecayEnvelope,
    NumericsError,
    bisect_root,
    decay_envelope,
    eigendecompose,
    exp_norms_on_grid,  # unused here: perfbench/tracer.py patches this binding
    grid_norm_maxes,
    norm_ceiling,
)
from .system_model import Gain, NominalModel, Plant, closed_loop, gamma_matrix, gamma_zoh
from .trigger_channel import ChannelMode, ChannelPolicy, TriggerConfig
from .simulator import Scenario, Trace, _column_sums, simulate

_SUP_GRID_POINTS = 400
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


class DeltaBreakdown(NamedTuple):
    """Amplification factor with the interval bounds that produced it."""

    Delta: float
    delta_bar: tuple[float, ...]
    delta_tilde: tuple[float, ...]


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
    delta_bar: tuple[float, ...]
    delta_tilde: tuple[float, ...]
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
        tilde = np.asarray(self.delta_tilde)
        if tilde.size and np.any(np.diff(tilde) >= 0.0):
            raise BoundsError("delta_tilde must be strictly decreasing")


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


def delta_bar(
    eta_j: float,
    zeta_j: float,
    gamma: float,
    kappa: float,
    cfg: TriggerConfig,
    t_j: float = 0.0,
) -> float:
    """Guaranteed length of one dropped-packet interval.

    ln((zeta_j + beta e^{-alpha t_j}) / eta_j) over (gamma + alpha) when
    kappa >= alpha, over (gamma + kappa) otherwise.
    """
    if not (eta_j > 0.0 and math.isfinite(eta_j)):
        raise BoundsError(f"eta_j must be positive and finite, got {eta_j!r}")
    if zeta_j < eta_j:
        raise BoundsError(f"zeta_j {zeta_j!r} must be at least eta_j {eta_j!r}")
    if not (gamma > 0.0 and kappa > 0.0):
        raise BoundsError(f"rates must be positive, got gamma={gamma!r} kappa={kappa!r}")
    if t_j < 0.0:
        raise BoundsError(f"t_j must be nonnegative, got {t_j!r}")
    numer = zeta_j + cfg.beta * math.exp(-cfg.alpha * t_j)
    denom = gamma + cfg.alpha if kappa >= cfg.alpha else gamma + kappa
    return math.log(numer / eta_j) / denom


def _check_windows(M: int, windows: list[list[tuple[float, float, float]]]) -> None:
    """At least one window, each with the M - 1 rows of a drop budget M > 1."""
    if M <= 1:
        raise BoundsError(f"need M > 1, got {M!r}")
    sizes = {len(rows) for rows in windows}
    if sizes != {M - 1}:
        raise BoundsError(
            f"need {M - 1} per-interval rows per window for M={M}, got {sorted(sizes)}"
        )


def compute_Delta(
    s_mat: np.ndarray,
    cfg: TriggerConfig,
    M: int,
    windows: list[list[tuple[float, float, float]]],
    gamma: float,
    env_model: DecayEnvelope,
) -> DeltaBreakdown:
    """Amplification factor for the controller-side error under M-1 drops.

    s_mat is the model closed loop S and env_model its decay envelope; each
    window holds (t_j, eta_j, X_j) for its M - 1 dropped intervals, as
    _dropped_intervals returns them. Interval j's bound takes
    zeta_j = c X_j and kappa = rate from env_model. Per window,
    Delta = 1 + sum over k of e^{alpha tilde_k} * sup ||exp(S s)|| with the
    sup taken over s in [0, tilde_k]; tilde_k is the tail sum of the interval
    bounds, so the stale-data age after k drops never exceeds it. Returns the
    first window with the largest Delta.

    The sups are sampled on dense grids from one eigen-basis of S.  When S
    has a norm ceiling U (norm_ceiling), a window whose Delta with every sup
    replaced by U, raised by 1e-12, is below the Delta of the window with the
    largest such bound cannot be the worst, so its grids are not evaluated
    (U's 1e-6 sample margin also covers the round-off of a sampled sup).
    Without a ceiling (U = inf), or when a grid could fail, every window is
    evaluated, and on a failure the decay-envelope gain c stands in for every
    sup.
    """
    _check_windows(M, windows)
    c, kappa = env_model.c, env_model.rate
    bars = [
        tuple(delta_bar(eta_j, c * x_norm, gamma, kappa, cfg, t_j) for t_j, eta_j, x_norm in rows)
        for rows in windows
    ]
    tildes = [tuple(float(sum(bar[k:])) for k in range(M - 1)) for bar in bars]

    def grids(ws):
        return [np.linspace(0.0, tk, _SUP_GRID_POINTS) for w in ws for tk in tildes[w] if not tk <= 0.0]

    def window(w, sups):
        total = 1.0
        for tk in tildes[w]:
            total += math.exp(cfg.alpha * tk) * (1.0 if tk <= 0.0 else max(1.0, next(sups)))
        return DeltaBreakdown(Delta=total, delta_bar=bars[w], delta_tilde=tildes[w])

    def worst(frags):
        return max(frags, key=lambda frag: frag.Delta)

    everything = range(len(windows))
    # grid_norm_maxes raises only where S * t overflows, and t ends at
    # tilde_k; such a failure puts c in every window's sups.  An infinite
    # ceiling then caps every window with a grid at inf, so every grid is
    # evaluated.  One window has nothing to skip and needs no ceiling.
    lengths = [tk for tilde in tildes for tk in tilde if not tk <= 0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(np.multiply.outer(lengths, s_mat)).all()
    ceiling = (norm_ceiling(s_mat) if finite and len(windows) > 1 else None) or math.inf
    try:
        caps = [window(w, itertools.repeat(ceiling)).Delta * (1.0 + 1e-12) for w in everything]
        top = max(everything, key=caps.__getitem__)
        frags = {top: window(top, iter(grid_norm_maxes(s_mat, grids([top]))))}
        # "not <" also evaluates a window whose cap or the top Delta is NaN.
        rest = [w for w in everything if w != top and not caps[w] < frags[top].Delta]
        sups = iter(grid_norm_maxes(s_mat, grids(rest)))
        frags.update((w, window(w, sups)) for w in rest)
        return worst(frags[w] for w in sorted(frags))
    except NumericsError:
        return worst(window(w, itertools.repeat(c)) for w in everything)


def verify_ec_bound(tr: Trace, Delta: float, cfg: TriggerConfig) -> BoundCheck:
    """Check every sample against Delta * beta * exp(-alpha t) + 1e-9."""
    if tr.num_samples == 0:
        raise ValueError("empty trace")
    bound = Delta * cfg.beta * np.exp(-cfg.alpha * tr.t)
    ok = bool(np.all(tr.e_c_norm <= bound + 1e-9))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bound > 0.0, tr.e_c_norm / bound, 0.0)
    return BoundCheck(ok=ok, max_ratio=float(np.max(ratios)))


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
    cfg: TriggerConfig,
    M: int,
    windows: list[list[tuple[float, float, float]]],
    gamma: float,
) -> ZohBoundsReport:
    """Amplification factor for the hold-type estimator.

    Each window holds (t_j, eta_j, X_j) for its M - 1 dropped intervals, as
    _dropped_intervals returns them; the window's growth envelope takes
    eta = min over its rows of min(eta_j, X_j).  Each interval bound solves
    eta e^{gamma d} - X_j = beta_j e^{-alpha d}, with the threshold
    beta_j = beta e^{-alpha t_j} at the interval's start, by bisection; the
    left side starts below the right and grows without bound, so
    [0, ln((X_j + beta_j)/eta)/gamma + 1] always brackets the crossing.
    Returns the first window with the largest Delta_zoh.
    """
    _check_windows(M, windows)
    alpha = cfg.alpha
    growths, rows = [], []
    for window in windows:
        growth = GrowthEnvelope(eta=min(min(eta, x) for _, eta, x in window), gamma=gamma)
        growths.append(growth)
        eta = growth.eta
        for t_j, _, x_norm in window:
            beta_j = cfg.beta * math.exp(-alpha * t_j)
            t_cap = math.log((x_norm + beta_j) / eta) / gamma + 1.0
            if not _crossing(eta, x_norm, beta_j, gamma, alpha, t_cap) > 0.0:
                raise BoundsError(f"crossing bracket failed at cap {t_cap!r}")
            rows.append((eta, x_norm, beta_j, t_cap))
    roots = iter(_crossing_roots(rows, gamma, alpha))
    reports = []
    for window, growth in zip(windows, growths):
        bars = tuple(itertools.islice(roots, len(window)))
        # Tail sums for k = 1..M; the last is empty, so its term contributes 1.
        tilde = [float(sum(bars[k:])) for k in range(M - 1)] + [0.0]
        reports.append(ZohBoundsReport(
            Delta_zoh=float(sum(math.exp(alpha * tk) for tk in tilde)),
            delta_bar_zoh=bars,
            growth=growth,
            state_norms=tuple((t_j, x_norm) for t_j, _, x_norm in window),
        ))
    return max(reports, key=lambda rep: rep.Delta_zoh)


def _crossing(eta: float, x_norm: float, beta_j: float, gamma: float, alpha: float,
              d: float) -> float:
    return eta * math.exp(gamma * d) - x_norm - beta_j * math.exp(-alpha * d)


def _crossing_roots(
    rows: list[tuple[float, float, float, float]], gamma: float, alpha: float
) -> list[float]:
    """bisect_root(_crossing, 0.0, t_cap, tol=_ZOH_TOL) of every row
    (eta, X_j, beta_j, t_cap), bit for bit, bisecting all rows at once.

    The array pass evaluates the crossing with np.exp, which differed from
    math.exp by at most one ulp over 800,000 arguments (numpy 2.4.6, x86-64
    with AVX-512).  A gap of k ulp moves the crossing by at most
    (k + 3) eps (A + X_j + B) through the formula's roundings, A and B being
    its two exponential terms, so where the crossing clears 8 eps (A + X_j + B)
    both evaluations put the midpoint on the same side of the root.  A row
    whose midpoint does not clear it goes on in bisect_root from its current
    bracket: the crossing is nonzero at both ends with known sign, so
    bisect_root repeats the scalar run.  Rows whose crossing is not negative
    at 0, or whose bracket is so wide that bisect_root's 200-step budget
    could bind, go to bisect_root whole.
    """
    eta, x, b, hi = (np.array(col) for col in zip(*rows))
    lo = np.zeros_like(hi)
    roots = np.zeros_like(hi)
    vector = (eta - x - b < 0.0) & (hi <= _ZOH_TOL * 2.0**180)
    handed = ~vector
    live = np.flatnonzero(vector)
    while live.size:
        l, h = lo[live], hi[live]
        mid = 0.5 * (l + h)
        done = (h - l <= _ZOH_TOL) | (mid <= l) | (mid >= h)
        roots[live[done]] = mid[done]
        live, mid = live[~done], mid[~done]
        a = eta[live] * np.exp(gamma * mid)
        bb = b[live] * np.exp(-alpha * mid)
        f = a - x[live] - bb
        # The tail term covers the absolute rounding of subnormal terms.
        clear = np.abs(f) > 8.0 * _EPS * (a + x[live] + bb) + 2.0**-1070
        handed[live[~clear]] = True
        up = clear & (f > 0.0)
        hi[live[up]] = mid[up]
        down = clear & ~up
        lo[live[down]] = mid[down]
        live = live[clear]
    for i in np.flatnonzero(handed).tolist():
        f = functools.partial(_crossing, *rows[i][:3], gamma, alpha)
        roots[i] = bisect_root(f, lo.item(i), hi.item(i), tol=_ZOH_TOL)
    return roots.tolist()


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


# --- trace-grounded report builders -------------------------------------------

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


def _dropped_intervals(
    tr: Trace, M: int, gamma: float
) -> list[list[tuple[float, float, float]]]:
    """Rows (t_j, eta_j, ||x(t_j)||) of every maximal-drop window in the trace.

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
        return [[(0.0, float(eta[0]), float(np.max(norms)))] * (M - 1)]
    lo = tr.triggers[first[full, None] + np.arange(M - 1)]
    hi = np.concatenate([lo[:, 1:], anchors[full + 1, None]], axis=1)
    i0 = np.searchsorted(tr.t, lo.ravel(), side="left")
    i1 = np.searchsorted(tr.t, hi.ravel(), side="left")
    etas = _lower_envelopes(tr.t, norms, i0, i1, lo.ravel(), gamma).reshape(lo.shape)
    return [
        [
            (float(t_j), float(eta), float(np.linalg.norm(tr.x[i])))
            for t_j, eta, i in zip(lo_row, eta_row, i0_row)
        ]
        for lo_row, eta_row, i0_row in zip(lo, etas, i0.reshape(lo.shape))
    ]


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

    Grounds the per-interval constants on a worst-case dropout trace of the
    scenario (see worst_case_trace), takes the worst window's amplification,
    and assembles the inter-event and stability constants from the scenario
    matrices.  Only the drop budget M is read from the scenario's channel.
    """
    m = _drop_budget(scn, tr)
    s_mat = closed_loop(scn.model, scn.gain)
    env_model = decay_envelope(s_mat)
    env_true = decay_envelope(scn.plant.A + scn.plant.B @ scn.gain.K)
    if not scn.trigger.alpha < env_true.rate:
        raise BoundsError(
            f"trigger decay rate {scn.trigger.alpha!r} must stay below the "
            f"closed-loop rate {env_true.rate!r}"
        )
    gamma = _growth_rate(gamma_matrix(scn.plant, scn.model, scn.gain))
    windows = _dropped_intervals(tr, m, gamma)
    best = compute_Delta(s_mat, scn.trigger, m, windows, gamma, env_model)
    x0_norm = float(np.linalg.norm(scn.x0))
    miet = min_inter_event_time(
        s_mat, scn.plant, scn.model, scn.gain, scn.trigger, best.Delta, x0_norm, env_true
    )
    return BoundsReport(
        **best._asdict(), **miet._asdict(),
        envelopes={"true_loop": env_true, "model_loop": env_model},
        x0_norm=x0_norm,
    )


def analyze_scenario_zoh(scn: Scenario, tr: Trace) -> ZohBoundsReport:
    """Hold-type certificate for one scenario, grounded like analyze_scenario."""
    m = _drop_budget(scn, tr)
    gamma = _growth_rate(gamma_zoh(scn.plant, scn.gain))
    return compute_delta_zoh(scn.trigger, m, _dropped_intervals(tr, m, gamma), gamma)
