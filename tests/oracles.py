"""Independent reference implementations used to fix expected test values.

Everything here is written against definitions, not against the package's
code paths: truncated series for the matrix exponential, characteristic
polynomial roots for eigenvalues, the matrix sign function for spectral
projectors, dense scans plus bisection for crossing equations, and a
general-purpose adaptive ODE integration of the hybrid closed loop.  Slow
and simple on purpose.  Also the random Hurwitz test matrices, and
every_window_delta, the all-windows form of compute_Delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from lossyetc.bounds import _SUP_GRID_POINTS, DeltaBreakdown, delta_bar
from lossyetc.numerics import NumericsError, grid_norm_maxes
from lossyetc.system_model import EstimatorKind
from lossyetc.trigger_channel import ChannelState, Outcome, channel_offer


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


def every_window_delta(s_mat, cfg, M, windows, gamma, env_model):
    """compute_Delta evaluating the sup grids of every window, in one call.

    This is compute_Delta's algorithm before its window skip, kept as the
    reference the skip must match bit for bit; unlike the rest of this
    module it shares delta_bar and grid_norm_maxes with the package.  A grid
    failure puts the envelope gain c in every sup.
    """
    c = env_model.c
    frags = []
    bars = [
        tuple(delta_bar(eta, c * x_norm, gamma, env_model.rate, cfg, t_j) for t_j, eta, x_norm in rows)
        for rows in windows
    ]
    tildes = [tuple(float(sum(bar[k:])) for k in range(M - 1)) for bar in bars]
    grids = [np.linspace(0.0, tk, _SUP_GRID_POINTS) for tilde in tildes for tk in tilde if not tk <= 0.0]
    try:
        sups = iter(grid_norm_maxes(s_mat, grids))
    except NumericsError:
        sups = iter([c] * len(grids))
    for bar, tilde in zip(bars, tildes):
        total = 1.0
        for tk in tilde:
            total += math.exp(cfg.alpha * tk) * (1.0 if tk <= 0.0 else max(1.0, next(sups)))
        frags.append(DeltaBreakdown(Delta=total, delta_bar=bar, delta_tilde=tilde))
    return max(frags, key=lambda frag: frag.Delta)


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
