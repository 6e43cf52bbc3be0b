"""Independent reference implementations used to fix expected test values.

Everything here is written against definitions, not against the package's
code paths: truncated series for the matrix exponential, characteristic
polynomial roots for eigenvalues, the matrix sign function for spectral
projectors, dense scans plus bisection for crossing equations, the scalar
bisection that numerics.bisect_root runs on many brackets at once, Python's
own %-formatting of trace CSV rows and its own float() of their fields, and
a general-purpose adaptive ODE integration of the hybrid closed loop.  Slow
and simple on purpose.  Also the random Hurwitz test matrices, the paper's
windowed amplification factor (compute_Delta with its interval bound
delta_bar), the reference that the model-based Delta of
bounds.analyze_scenario must not exceed, the hold certificate one scalar
bisection at a time (zoh_delta_reference), and a second plant from the
event-triggered control literature, the unstable batch reactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

from lossyetc.bounds import (
    BoundsError,
    GrowthEnvelope,
    ZohBoundsReport,
    _dropped_intervals,
    _drop_budget,
    _growth_rate,
)
from lossyetc.numerics import NumericsError, decay_envelope, exp_norms_on_grid
from lossyetc.simulator import Scenario
from lossyetc.system_model import (
    EstimatorKind,
    Gain,
    NominalModel,
    Plant,
    closed_loop,
    gamma_matrix,
    gamma_zoh,
)
from lossyetc.trigger_channel import (
    ChannelMode,
    ChannelPolicy,
    ChannelState,
    Outcome,
    TriggerConfig,
    channel_offer,
)


def taylor_expm(a: np.ndarray, t: float = 1.0, terms: int = 40) -> np.ndarray:
    """Scaling-and-squaring Taylor series for e^{a t}."""
    a = np.asarray(a, dtype=float) * t
    norm = np.linalg.norm(a, np.inf)
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    b = a / (2.0**squarings)
    n = a.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms + 1):
        term = term @ b / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def charpoly_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues via Faddeev-LeVerrier coefficients and np.roots."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    roots = np.roots(coeffs)
    order = np.lexsort((-roots.imag, -roots.real))
    return roots[order]


def bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection for f(lo) <= 0 < f(hi)."""
    if not (f(lo) <= 0.0 < f(hi)):
        raise ValueError("bracket does not straddle the root")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def scalar_bisect_root(f, lo: float, hi: float, tol: float) -> float:
    """Root of f on [lo, hi] by bisection; f(lo) and f(hi) must differ in sign.

    The one-bracket bisection that numerics.bisect_root runs on every bracket
    at once: the same zero handling, stopping rule and returned midpoint.
    """
    if not (tol > 0.0):
        raise NumericsError("tol must be positive")
    if not (hi > lo):
        raise NumericsError("need hi > lo")
    lo, hi = float(lo), float(hi)
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NumericsError(f"no sign change on [{lo!r}, {hi!r}]")
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (fhi > 0.0):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def percent_trace_rows(block: np.ndarray) -> bytes:
    """Trace CSV lines of table rows by Python's % operator.

    Every column but the last two is written ``%.17g``, those two (the
    flags) ``%d``, and each line ends in CRLF: the bytes
    scenarios._format_block must give.
    """
    row = ",".join(["%.17g"] * (block.shape[1] - 2)) + ",%d,%d\r\n"
    return ((row * len(block)) % tuple(block.ravel().tolist())).encode()


def float_trace_rows(text: bytes, width: int) -> np.ndarray:
    """The (rows, width) table of a trace CSV body by Python's float().

    One float() per field of CRLF lines of comma-separated numbers: the
    values scenarios._parse_rows must give wherever it certifies every field
    and so returns a table.
    """
    lines = text.split(b"\r\n")
    assert lines.pop() == b"", "the body ends in CRLF"
    rows = [[float(f) for f in line.split(b",")] for line in lines]
    return np.array(rows, dtype=float).reshape(len(rows), width)


def delta_bar_reference(
    eta: float,
    zeta: float,
    gamma: float,
    kappa: float,
    beta: float,
    alpha: float,
    t_j: float = 0.0,
) -> float:
    """Crossing time of the interval-length equation, by bisection.

    The growing lower envelope eta*e^{gamma d} meets the shrinking budget
    (zeta + beta e^{-alpha t_j}) e^{-r d}, where the decay exponent r is
    alpha when the model loop decays at least that fast, else kappa.
    """
    r = alpha if kappa >= alpha else kappa
    rhs = zeta + beta * math.exp(-alpha * t_j)

    def f(d):
        return eta * math.exp(gamma * d) - rhs * math.exp(-r * d)

    hi = 1.0
    while f(hi) <= 0.0:
        hi *= 2.0
    return bisect(f, 0.0, hi)


def zoh_crossing_reference(
    eta: float, gamma: float, x_norm: float, beta: float, alpha: float
) -> float:
    """First root of eta e^{gamma d} - x_norm = beta e^{-alpha d}.

    Dense scan to find the first sign change, then bisection refinement.
    """

    def f(d):
        return eta * math.exp(gamma * d) - x_norm - beta * math.exp(-alpha * d)

    hi = 1.0
    while f(hi) <= 0.0:
        hi *= 2.0
    grid = np.linspace(0.0, hi, 100001)
    vals = np.array([f(d) for d in grid])
    idx = int(np.argmax(vals > 0.0))
    return bisect(f, grid[idx - 1], grid[idx])


def miet_reference(
    beta: float,
    alpha: float,
    c: float,
    abar: float,
    a_hat: float,
    a_tilde: float,
    Delta: float,
    bk_norm: float,
    x0_norm: float,
) -> tuple[float, float, float, float]:
    """Direct evaluation of the inter-event lower-bound formula chain."""
    drive = beta * Delta * bk_norm / (abar - alpha)
    f_bar = max(0.0, a_tilde * c * (x0_norm - drive))
    f_cap = (1.0 + a_tilde * c / (abar - alpha)) * beta * Delta * bk_norm
    f_bold = f_bar / (a_hat + abar) + f_cap / (a_hat + alpha)
    miet = math.log1p(beta / f_bold) / (a_hat + abar)
    return miet, f_cap, f_bar, f_bold


SUP_GRID_POINTS = 400


class DeltaBreakdown(NamedTuple):
    """Windowed amplification factor with the interval bounds that produced it."""

    Delta: float
    delta_bar: tuple[float, ...]
    delta_tilde: tuple[float, ...]


def delta_bar(
    eta_j: float,
    zeta_j: float,
    gamma: float,
    kappa: float,
    cfg,
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


def _check_windows(M: int, table: np.ndarray) -> None:
    """At least one window, each with the M - 1 rows of a drop budget M > 1."""
    if M <= 1:
        raise BoundsError(f"need M > 1, got {M!r}")
    if table.ndim != 3 or table.shape[0] != 3 or table.shape[1] == 0 or table.shape[2] != M - 1:
        raise BoundsError(
            f"need a (3, W > 0, {M - 1}) table of per-interval rows for M={M}, got {table.shape}"
        )


def compute_Delta(s_mat, cfg, M, table, gamma, env_model) -> DeltaBreakdown:
    """The paper's windowed amplification factor under M - 1 drops.

    s_mat is the model closed loop S and env_model its decay envelope; table
    holds (t_j, eta_j, X_j) for the M - 1 dropped intervals of each window,
    the (3, W, M - 1) array that bounds._dropped_intervals returns.  Interval
    j's bound takes zeta_j = c X_j and kappa = rate from env_model.  Per
    window, Delta = 1 + sum over k of e^{alpha tilde_k} * max(1, sup ||exp(S s)||)
    with the sup sampled on 400 points of [0, tilde_k]; tilde_k is the tail
    sum of the interval bounds.  Returns the first window with the largest
    Delta.  If any sup grid fails, c stands in for every sup.  Unlike the
    rest of this module it shares exp_norms_on_grid with the package; it
    gives the bits of the package's windowed Delta before the model-based
    Delta stopped reading the trace.
    """
    _check_windows(M, table)
    c = env_model.c
    bars = [
        tuple(delta_bar(eta, c * x_norm, gamma, env_model.rate, cfg, t_j) for t_j, eta, x_norm in rows)
        for rows in table.transpose(1, 2, 0).tolist()
    ]
    tildes = [tuple(float(sum(bar[k:])) for k in range(M - 1)) for bar in bars]
    lengths = [tk for tilde in tildes for tk in tilde if not tk <= 0.0]
    try:
        sups = iter([
            float(np.max(exp_norms_on_grid(s_mat, np.linspace(0.0, tk, SUP_GRID_POINTS))))
            for tk in lengths
        ])
    except NumericsError:
        sups = iter([c] * len(lengths))
    frags = []
    for bar, tilde in zip(bars, tildes):
        total = 1.0
        for tk in tilde:
            total += math.exp(cfg.alpha * tk) * (1.0 if tk <= 0.0 else max(1.0, next(sups)))
        frags.append(DeltaBreakdown(Delta=total, delta_bar=bar, delta_tilde=tilde))
    return max(frags, key=lambda frag: frag.Delta)


def windowed_delta(scn, tr) -> DeltaBreakdown:
    """compute_Delta of a scenario, grounded on the dropped intervals of tr.

    The growth rate is that of the scenario's (x, x_c) flow, so the
    scenario's plant must have a growing mode.
    """
    s_mat = closed_loop(scn.model, scn.gain)
    gamma = _growth_rate(gamma_matrix(scn.plant, scn.model, scn.gain))
    table = _dropped_intervals(tr, scn.channel.M, gamma)
    return compute_Delta(s_mat, scn.trigger, scn.channel.M, table, gamma, decay_envelope(s_mat))


def zoh_delta_reference(cfg, M, table, gamma) -> ZohBoundsReport:
    """bounds.compute_delta_zoh one row and one window at a time.

    Per window of the (3, W, M - 1) dropped-interval table, eta = min over
    its rows of min(eta_j, X_j); each row's crossing of
    eta e^{gamma d} - X_j = beta_j e^{-alpha d} by scalar_bisect_root on
    [0, ln((X_j + beta_j)/eta)/gamma + 1], all in math.exp and math.log;
    then the tail sums and Delta_zoh, added left to right, and the first
    window with the largest Delta_zoh.
    """
    alpha = cfg.alpha
    reports = []
    for rows in table.transpose(1, 2, 0).tolist():
        eta = min(min(eta_j, x_norm) for _, eta_j, x_norm in rows)
        bars = []
        for t_j, _, x_norm in rows:
            beta_j = cfg.beta * math.exp(-alpha * t_j)

            def crossing(d):
                return eta * math.exp(gamma * d) - x_norm - beta_j * math.exp(-alpha * d)

            t_cap = math.log((x_norm + beta_j) / eta) / gamma + 1.0
            bars.append(scalar_bisect_root(crossing, 0.0, t_cap, tol=1e-12))
        tilde = [sum(bars[k:]) for k in range(M - 1)] + [0.0]
        reports.append(ZohBoundsReport(
            Delta_zoh=sum(math.exp(alpha * tk) for tk in tilde),
            delta_bar_zoh=tuple(bars),
            growth=GrowthEnvelope(eta=eta, gamma=gamma),
            state_norms=tuple((t_j, x_norm) for t_j, _, x_norm in rows),
        ))
    return max(reports, key=lambda rep: rep.Delta_zoh)


def zoh_report_reference(scn, tr) -> ZohBoundsReport:
    """zoh_delta_reference of a scenario, on the dropped-interval table of tr
    and the hold loop's growth rate, which it shares with the package."""
    M = _drop_budget(scn, tr)
    gamma = _growth_rate(gamma_zoh(scn.plant, scn.gain))
    return zoh_delta_reference(scn.trigger, M, _dropped_intervals(tr, M, gamma), gamma)


def _hurwitz(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """A random Hurwitz matrix of one kind of spectrum."""
    if kind == "complex":
        a = rng.normal(size=(n, n))
        return a - (np.max(np.linalg.eigvals(a).real) + rng.uniform(0.1, 1.0)) * np.eye(n)
    if kind == "repeated":  # each eigenvalue twice, diagonalizable
        v = rng.normal(size=(n, n))
        return v @ np.diag(-np.repeat(rng.uniform(0.2, 2.0, (n + 1) // 2), 2)[:n]) @ np.linalg.inv(v)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    if kind == "jordan":  # one defective eigenvalue
        return q @ (-rng.uniform(0.2, 1.5) * np.eye(n) + 2.0 * np.eye(n, k=1)) @ q.T
    upper = np.diag(-rng.uniform(0.2, 2.0, n)) + np.triu(rng.normal(scale=2.0, size=(n, n)), 1)
    return q @ upper @ q.T  # strongly non-normal


HURWITZ_KINDS = ("complex", "repeated", "jordan", "nonnormal")
_RNG = np.random.default_rng(20)
# Every kind for n = 2..9, by id.
HURWITZ = {f"{kind}_{n}": _hurwitz(kind, n, _RNG) for n in range(2, 10) for kind in HURWITZ_KINDS}


def modal_growth_coefficient(gamma_mat: np.ndarray, x0: np.ndarray) -> float:
    """|top-block coefficient| of the fastest-growing mode of e^{Gt}[x0;x0].

    Valid only for diagonalizable G with a unique eigenvalue of maximal
    real part (real); used for hand-built scalar examples.
    """
    vals, vecs = np.linalg.eig(gamma_mat)
    k = int(np.argmax(vals.real))
    coeff = np.linalg.solve(vecs, np.concatenate([x0, x0]).astype(complex))
    n = x0.size
    mode = coeff[k] * vecs[:n, k]
    return float(np.linalg.norm(mode))


def nongrowing_subspace_distance(
    gamma_mat: np.ndarray, x0: np.ndarray, marginal: float = 1e-6
) -> tuple[float, int]:
    """Distance of [x0; x0] from the non-growing invariant subspace, and its dim.

    The spectral projector onto the eigenvalues with real part at most
    `marginal` is (I - sign(G - tau I)) / 2, with tau in the middle of the gap
    between those real parts and the growing ones; the sign function comes
    from Newton's iteration X <- (X + X^-1) / 2 (Higham, Functions of
    Matrices, ch. 5).  The projector's rank is its trace, and the left
    singular vectors past that rank span the orthogonal complement of its
    range, onto which [x0; x0] is projected.
    """
    g = np.asarray(gamma_mat, dtype=float)
    re = np.linalg.eigvals(g).real
    growing = re > marginal
    tau = 0.5 * (max(re[~growing], default=marginal) + min(re[growing], default=marginal))
    x = g - tau * np.eye(g.shape[0])
    for _ in range(100):
        step = 0.5 * (x + np.linalg.inv(x))
        done = np.linalg.norm(step - x) <= 1e-12 * np.linalg.norm(step)
        x = step
        if done:
            break
    else:
        raise RuntimeError("sign iteration did not converge")
    projector = 0.5 * (np.eye(g.shape[0]) - x)
    dim = int(round(np.trace(projector)))
    u, _, _ = np.linalg.svd(projector)
    v = np.concatenate([x0, x0]).astype(float)
    return float(np.linalg.norm(u[:, dim:].T @ v)), dim


@dataclass
class HybridReference:
    """Trigger/delivery schedule from an adaptive-ODE replay of the loop."""

    triggers: list[float] = field(default_factory=list)
    deliveries: list[float] = field(default_factory=list)
    final_state: np.ndarray | None = None
    final_time: float = 0.0


def hybrid_reference(scn, t_end: float | None = None) -> HybridReference:
    """Integrate the hybrid closed loop with DOP853 and scipy event finding.

    The flow field is assembled here from the scenario matrices, the sensor
    and controller copies carried explicitly, so the only shared code with
    the engine under test is the channel policy itself.
    """
    n = scn.plant.n
    a = scn.plant.A
    bk = scn.plant.B @ scn.gain.K
    s = scn.model.A_hat + scn.model.B_hat @ scn.gain.K
    mb = scn.estimator is EstimatorKind.MODEL_BASED
    beta, alpha = scn.trigger.beta, scn.trigger.alpha
    horizon = scn.t_max if t_end is None else t_end

    def rhs(_t, y):
        x, x_s, x_c = y[:n], y[n : 2 * n], y[2 * n :]
        dx = a @ x + bk @ x_c
        if mb:
            return np.concatenate([dx, s @ x_s, s @ x_c])
        return np.concatenate([dx, np.zeros(n), np.zeros(n)])

    def crossing(t, y):
        return np.linalg.norm(y[n : 2 * n] - y[:n]) - beta * math.exp(-alpha * t)

    crossing.terminal = True
    crossing.direction = 1

    ref = HybridReference()
    state = ChannelState()
    y = np.concatenate([scn.x0, scn.x0, scn.x0])
    t = 0.0
    while t < horizon:
        sol = solve_ivp(
            rhs,
            (t, horizon),
            y,
            method="DOP853",
            events=crossing,
            rtol=1e-11,
            atol=1e-13,
            dense_output=False,
        )
        if sol.status == 1 and sol.t_events[0].size:
            t_star = float(sol.t_events[0][0])
            y = sol.y_events[0][0].copy()
            if ref.triggers and t_star - ref.triggers[-1] < 1e-9:
                raise RuntimeError("oracle hit event accumulation")
            ref.triggers.append(t_star)
            y[n : 2 * n] = y[:n]
            outcome, state = channel_offer(scn.channel, state)
            if outcome is Outcome.DELIVERED:
                ref.deliveries.append(t_star)
                y[2 * n :] = y[:n]
            t = t_star
        else:
            y = sol.y[:, -1]
            t = float(sol.t[-1])
            break
    ref.final_state = y[:n].copy()
    ref.final_time = t
    return ref


# The unstable batch reactor (Walsh, Ye & Bushnell, IEEE TCST 2002), the
# standard plant of networked and event-triggered control: two inputs, two
# growing modes and a near-marginal one.
REACTOR_A = np.array([
    [1.38, -0.2077, 6.715, -5.676],
    [-0.5814, -4.29, 0.0, 0.675],
    [1.067, 4.273, -6.654, 5.893],
    [0.048, 4.273, 1.343, -2.104],
])
REACTOR_B = np.array([[0.0, 0.0], [5.679, 0.0], [1.136, -3.146], [1.136, 0.0]])


def reactor_lqr_gain() -> np.ndarray:
    """K of u = K x from the LQR problem on the reactor with Q = I, R = I."""
    p = scipy.linalg.solve_continuous_are(REACTOR_A, REACTOR_B, np.eye(4), np.eye(2))
    return -REACTOR_B.T @ p


def batch_reactor(estimator: EstimatorKind, seed: int = 1) -> Scenario:
    """The reactor loop of ROADMAP item 13 on a worst-case channel.

    The model is the literature plant; the true plant adds 0.02 N(0, 1) to
    every entry of A, then of B, drawn with the perturbation seed.
    beta = alpha = 0.5, M = 4, x0 = (1, 0, 1, 0), t_max = 20.
    """
    rng = np.random.default_rng(seed)
    a = REACTOR_A + 0.02 * rng.standard_normal(REACTOR_A.shape)
    b = REACTOR_B + 0.02 * rng.standard_normal(REACTOR_B.shape)
    return Scenario(
        plant=Plant(A=a, B=b),
        model=NominalModel(A_hat=REACTOR_A, B_hat=REACTOR_B),
        gain=Gain(K=reactor_lqr_gain()),
        estimator=estimator,
        trigger=TriggerConfig(beta=0.5, alpha=0.5),
        channel=ChannelPolicy(M=4, mode=ChannelMode.WORST_CASE),
        x0=np.array([1.0, 0.0, 1.0, 0.0]),
        t_max=20.0,
    )
