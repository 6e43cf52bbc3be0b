"""Dense linear-algebra helpers shared by the simulator and the bounds code.

Everything here operates on small (n <= a few dozen) float64 matrices. The
matrix exponential and the eigensolver are delegated to scipy/numpy; this
module adds the fixed tolerances, deterministic ordering, and validity checks
that the rest of the package relies on. Tolerances are module constants on
purpose: bound verification must not depend on per-run knobs. What is derived
from one matrix (its eigendecomposition, decay envelope and norm ceiling) is
kept for the last few matrices seen, keyed on their exact bytes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import expm as _scipy_expm

Matrix = np.ndarray

# Per-eigenpair residual gate: ||M v - lambda v|| <= tol * ||v||.
EIG_RESIDUAL_TOL = 1e-8
# Real parts closer to zero than this are treated as marginal, not growing.
# Defective eigenvalues (the vehicle plant has a double zero) come back from
# the QR iteration with ~sqrt(eps) noise on their real parts, so a strict
# sign test would misclassify them.
MARGINAL_RE_TOL = 1e-6
# Safety margins of decay_envelope: rate backs off 1% from the spectral
# abscissa, the gain adds 5% headroom over the sampled sup.
ENVELOPE_RATE_MARGIN = 0.99
ENVELOPE_GAIN_MARGIN = 1.05
ENVELOPE_FIT_POINTS = 400
ENVELOPE_CHECK_POINTS = 300
# norm_ceiling: each sampled ||exp(M s)|| is raised by this relative margin,
# which covers the round-off of the sampled exponential and its SVD; cells are
# split until each is within CEILING_SLACK of the largest sample; more than
# CEILING_MAX_SAMPLES samples give no ceiling.
CEILING_SAMPLE_MARGIN = 1e-6
CEILING_SLACK = 5e-3
CEILING_MAX_SAMPLES = 4096
# Records of the last few matrices, keyed on their exact bytes.
_RECORDS = 8


class NumericsError(Exception):
    """Raised when a numerics operation cannot certify its result."""


class EigendecompositionError(NumericsError):
    """Eigensolver output failed the residual gate."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted by descending real part, unit right eigenvectors.

    eigenvectors[:, i] belongs to eigenvalues[i]. Conjugate pairs are adjacent
    (positive imaginary part first) so the ordering is deterministic.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class DecayEnvelope:
    """Certified bound ||exp(M t)|| <= c * exp(-rate * t) for t >= 0."""

    c: float
    rate: float


def _as_square(matrix: Matrix, name: str = "matrix") -> Matrix:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NumericsError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericsError(f"{name} has non-finite entries")
    return m


def mat_exp(matrix: Matrix, t: float = 1.0) -> Matrix:
    """exp(matrix * t) via scaling-and-squaring Pade."""
    m = np.asarray(matrix, dtype=float)
    if not math.isfinite(t):
        _as_square(m)
        raise NumericsError("time argument must be finite")
    mt = m * t
    # One finiteness test of the product covers the matrix as well; only a
    # failure looks further, to name the fault.
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not np.isfinite(mt).all():
        _as_square(m)
        raise NumericsError(f"matrix * t overflows at t={t!r}")
    return _scipy_expm(mt)


def eigendecompose(matrix: Matrix) -> EigenDecomposition:
    """Right eigendecomposition with deterministic ordering.

    Raises EigendecompositionError if any eigenpair misses the residual gate
    (rather than silently returning garbage); defective inputs are accepted
    as long as the returned pairs individually satisfy it.
    """
    m = _as_square(matrix)
    try:
        values, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"eigensolver did not converge: {exc}") from exc
    order = np.lexsort((-values.imag, -values.real))
    values = values[order]
    vectors = vectors[:, order]
    norms = np.linalg.norm(vectors, axis=0)
    if np.any(norms == 0.0):
        raise EigendecompositionError("eigensolver returned a zero vector")
    vectors = vectors / norms
    residuals = np.linalg.norm(m @ vectors - vectors * values, axis=0)
    worst = float(np.max(residuals)) if residuals.size else 0.0
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    if worst > EIG_RESIDUAL_TOL * scale:
        raise EigendecompositionError(
            f"eigenpair residual {worst:.3e} exceeds {EIG_RESIDUAL_TOL:.0e} * {scale:.3e}"
        )
    return EigenDecomposition(eigenvalues=values, eigenvectors=vectors)


class _Record:
    """What this module derives from one square matrix m, computed once.

    The eigendecomposition is taken when the record is made; the eigen-basis
    that rebuilds exp(m t), the decay envelope and the norm ceiling all come
    from it.  Arrays are shared by every caller and are never written.
    """

    def __init__(self, m: Matrix):
        self.m = m
        self.eig: EigenDecomposition | None = None
        # Only the message of a failed eigendecomposition is kept, so a record
        # holds no traceback and no caller's frames.
        self.error: str | None = None
        self.basis = None  # (V, eigenvalues, V^-1), or None when m is far from diagonalizable
        try:
            self.eig = eigendecompose(m)
        except EigendecompositionError as exc:
            self.error = str(exc)
            return
        v = self.eig.eigenvectors
        try:
            vinv = np.linalg.inv(v)
            if np.linalg.cond(v) < 1e7:
                self.basis = v, self.eig.eigenvalues, vinv
        except np.linalg.LinAlgError:
            pass

    def norms(self, ts: np.ndarray) -> np.ndarray:
        """2-norm of exp(m t) for each t in ts."""
        return _all_norms(self.m, _exp_batch(self.m, self.basis, ts), ts)

    @functools.cached_property
    def envelope(self) -> DecayEnvelope:
        return _fit_envelope(self)

    @functools.cached_property
    def ceiling(self) -> float | None:
        # Every sampling failure gives None, which the record keeps.
        try:
            return _sampled_ceiling(self)
        except NumericsError:
            return None


def _record(matrix: Matrix) -> _Record:
    """The record of matrix, shared by every call with the same shape and bytes."""
    m = _as_square(matrix)
    return _cached_record(m.shape[0], m.tobytes())


@functools.lru_cache(maxsize=_RECORDS)
def _cached_record(n: int, data: bytes) -> _Record:
    return _Record(np.frombuffer(data).reshape(n, n))


def _exp_batch(m: Matrix, basis, ts: np.ndarray) -> np.ndarray | None:
    """exp(m t) stacked over ts, rebuilt from the eigen-basis.

    Cross-checked against expm at the middle grid point; None when there is
    no basis or the check fails, so the caller falls back to expm per point.
    """
    if basis is None:
        return None
    v, values, vinv = basis
    try:
        batch = np.einsum("ij,tj,jk->tik", v, np.exp(np.outer(ts, values)), vinv)
        direct = mat_exp(m, float(ts[len(ts) // 2]))
        err = np.linalg.norm(batch[len(ts) // 2].real - direct)
    except np.linalg.LinAlgError:
        return None
    if err <= 1e-9 * max(1.0, np.linalg.norm(direct)):
        return batch.real
    return None


def _all_norms(m: Matrix, batch: np.ndarray | None, ts: np.ndarray) -> np.ndarray:
    """2-norm of every exponential: batched SVDs, else one expm per point."""
    if batch is not None:
        try:
            return np.linalg.svd(batch, compute_uv=False)[:, 0]
        except np.linalg.LinAlgError:
            pass
    exps = [mat_exp(m, float(t)) for t in ts]
    # An overflowed expm raises here, before LAPACK sees its inf or NaN.
    if not all(np.isfinite(e).all() for e in exps):
        raise NumericsError("exp(matrix * t) overflows on the grid")
    try:
        return np.array([np.linalg.norm(e, 2) for e in exps])
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"SVD of exp(matrix * t) failed: {exc}") from exc


def exp_norms_on_grid(matrix: Matrix, ts: np.ndarray) -> np.ndarray:
    """2-norms of exp(matrix * t) for each t in ts.

    Fast path reconstructs the exponentials from one eigendecomposition and
    takes batched SVDs; it is cross-checked against expm at one grid point and
    abandoned for a direct expm loop when the input is too far from
    diagonalizable.
    """
    rec = _record(matrix)
    ts = np.asarray(ts, dtype=float)
    if ts.size == 0:
        return np.zeros(0)
    return rec.norms(ts)


# SVDs per screening step of grid_norm_maxes.
_SCREEN_CHUNK = 8


def grid_norm_maxes(matrix: Matrix, grids: list[np.ndarray]) -> list[float]:
    """float(np.max(exp_norms_on_grid(matrix, ts))) for each non-empty ts, bit for bit.

    The matrix's one eigendecomposition serves every grid. On the batched
    path the Frobenius norm bounds each point's 2-norm from above
    (||A||_2 <= ||A||_F, equal for rank-1 A). Inflated by 64 n eps, the computed Frobenius norm
    also covers the round-off of both computed norms at the sizes this module
    handles, so a point whose bound is below a computed 2-norm cannot hold
    the max. SVDs run in chunks in descending bound order and stop at the
    first chunk whose bound falls below the best 2-norm so far. A non-finite
    bound sends the grid through exp_norms_on_grid's full path, so inf and
    NaN come out as they do there.
    """
    rec = _record(matrix)
    m = rec.m
    slack = 1.0 + 64.0 * m.shape[0] * np.finfo(float).eps
    maxes = []
    for ts in grids:
        ts = np.asarray(ts, dtype=float)
        if ts.size == 0:
            raise ValueError("grid_norm_maxes needs non-empty grids")
        batch = _exp_batch(m, rec.basis, ts)
        maxes.append(_screened_max(m, batch, ts, slack))
    return maxes


def _screened_max(m: Matrix, batch: np.ndarray | None, ts: np.ndarray, slack: float) -> float:
    """Max 2-norm over the grid, with SVDs only where slack * ||.||_F reaches it."""
    if batch is not None:
        bound = slack * np.sqrt(np.einsum("tij,tij->t", batch, batch))
        if np.all(np.isfinite(bound)):
            order = np.argsort(-bound, kind="stable")
            best = -np.inf
            try:
                for start in range(0, order.size, _SCREEN_CHUNK):
                    idx = order[start:start + _SCREEN_CHUNK]
                    if bound[idx[0]] < best:
                        break
                    sigma = np.linalg.svd(batch[idx], compute_uv=False)[:, 0]
                    best = max(best, float(np.max(sigma)))
                return best
            except np.linalg.LinAlgError:
                # The full batch holds this chunk, so its SVD fails too.
                batch = None
    return float(np.max(_all_norms(m, batch, ts)))


def decay_envelope(matrix: Matrix) -> DecayEnvelope:
    """Fit and validate c, rate with ||exp(M t)|| <= c exp(-rate t).

    The rate is 99% of the negated spectral abscissa; c is 105% of the sup of
    ||exp(M t)|| exp(rate t) over a 400-point geometric grid on [0, 20/rate].
    The pair is then re-checked on a fixed-seed random grid over [0, 40/rate];
    failure raises instead of returning an uncertified envelope. The
    matrix's one eigendecomposition yields the abscissa and serves both
    grids, and a matrix seen recently is not fitted again.
    """
    return _record(matrix).envelope


def _fit_envelope(rec: _Record) -> DecayEnvelope:
    if rec.eig is None:
        raise EigendecompositionError(rec.error)
    m = rec.m
    sa = float(np.max(rec.eig.eigenvalues.real))
    if sa >= 0.0:
        raise NumericsError(f"matrix is not Hurwitz (spectral abscissa {sa:.3e})")
    rate = ENVELOPE_RATE_MARGIN * (-sa)
    horizon = 20.0 / rate
    grid = np.concatenate([[0.0], np.geomspace(horizon * 1e-4, horizon, ENVELOPE_FIT_POINTS - 1)])
    sup = float(np.max(rec.norms(grid) * np.exp(rate * grid)))
    c = ENVELOPE_GAIN_MARGIN * sup
    check = np.random.default_rng(0).uniform(0.0, 2.0 * horizon, ENVELOPE_CHECK_POINTS)
    excess = rec.norms(check) - c * np.exp(-rate * check)
    if np.max(excess) > 1e-9:
        raise NumericsError(
            f"decay envelope failed validation by {np.max(excess):.3e}"
        )
    return DecayEnvelope(c=c, rate=rate)


def norm_ceiling(matrix: Matrix) -> float | None:
    """U >= ||exp(M s)||_2 for every s >= 0, or None when none is certified.

    ||exp(M s)|| is sampled on [0, T], where T is the first sample whose
    norm, raised by CEILING_SAMPLE_MARGIN, is below 1; by submultiplicativity
    no s > T exceeds the max over [0, T].  A cell [s, s + h] between samples
    is covered by the log-norm inflation ||exp(M (s + r))|| <=
    ||exp(M s)|| e^{mu r} for 0 <= r <= h, mu the largest eigenvalue of
    (M + M^T) / 2 (Soderlind, BIT 2006), and cells are halved until every
    cell's bound is within CEILING_SLACK of the largest sample.  U is the
    largest cell bound.  A non-square, non-finite or non-Hurwitz matrix, a
    failed sample, or more than CEILING_MAX_SAMPLES samples give None.
    """
    try:
        return _record(matrix).ceiling
    except NumericsError:
        return None


def _sampled_ceiling(rec: _Record) -> float | None:
    if rec.eig is None:
        return None
    sa = float(np.max(rec.eig.eigenvalues.real))
    if not sa < 0.0:
        return None
    m = rec.m
    n = m.shape[0]
    # eigvalsh is backward stable; 64 n eps ||M||_F covers its round-off.  A
    # cell's bound is at least its left sample's, also when mu < 0.
    mu = float(np.linalg.eigvalsh(0.5 * (m + m.T))[-1])
    mu = max(0.0, mu + 64.0 * n * np.finfo(float).eps * float(np.linalg.norm(m)))
    raise_by = 1.0 + CEILING_SAMPLE_MARGIN
    # Extend [0, T] by doublings, 32 samples each, from one e-folding time of
    # the slowest mode until a sample falls below 1.
    ts = np.linspace(0.0, 1.0 / -sa, 33)
    norms = rec.norms(ts)
    while not np.any(norms[1:] * raise_by < 1.0):
        if ts.size >= CEILING_MAX_SAMPLES:
            return None
        more = ts[-1] * (1.0 + np.arange(1, 33) / 32.0)
        ts = np.concatenate([ts, more])
        norms = np.concatenate([norms, rec.norms(more)])
    end = 2 + int(np.flatnonzero(norms[1:] * raise_by < 1.0)[0])
    ts, norms = ts[:end], norms[:end]
    while True:
        cells = norms[:-1] * raise_by * np.exp(mu * np.diff(ts))
        split = np.flatnonzero(cells > (1.0 + CEILING_SLACK) * np.max(norms))
        if split.size == 0:
            ceiling = float(np.max(cells))
            return ceiling if math.isfinite(ceiling) else None
        if ts.size + split.size > CEILING_MAX_SAMPLES:
            return None
        mids = 0.5 * (ts[split] + ts[split + 1])
        ts = np.insert(ts, split + 1, mids)
        norms = np.insert(norms, split + 1, rec.norms(mids))


def bisect_root(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Root of f on [lo, hi] by bisection; f(lo) and f(hi) must differ in sign.

    Returns the midpoint of the final bracket, whose width is at most tol.
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
