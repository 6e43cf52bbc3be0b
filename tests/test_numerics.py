import math

import numpy as np
import pytest

from lossyetc import numerics
from lossyetc.numerics import (
    CEILING_SLACK,
    DecayEnvelope,
    EigendecompositionError,
    NumericsError,
    _record,
    bisect_root,
    decay_envelope,
    eigendecompose,
    exp_norms_on_grid,
    mat_exp,
    norm_ceiling,
)
from lossyetc.system_model import closed_loop
from oracles import HURWITZ, HURWITZ_KINDS, charpoly_eigenvalues, scalar_bisect_root, taylor_expm


def test_mat_exp_identity_at_zero_time():
    a = np.array([[0.3, -1.2], [0.7, 0.1]])
    assert np.allclose(mat_exp(a, 0.0), np.eye(2), atol=1e-15)
    assert np.allclose(mat_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)


def test_mat_exp_matches_taylor_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=(4, 4))
        t = float(rng.uniform(0.1, 2.0))
        got = mat_exp(a, t)
        ref = taylor_expm(a, t)
        err = np.linalg.norm(got - ref, np.inf) / max(1.0, np.linalg.norm(ref, np.inf))
        worst = max(worst, err)
    assert worst <= 1e-8


def test_mat_exp_semigroup_property():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3))
    lhs = mat_exp(a, 0.7)
    rhs = mat_exp(a, 0.3) @ mat_exp(a, 0.4)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("matrix, t, message", [
    (np.eye(2), np.inf, "time argument must be finite"),
    (np.eye(2), np.nan, "time argument must be finite"),
    (np.full((2, 2), np.inf), 0.0, "matrix has non-finite entries"),
    (np.full((2, 2), np.nan), 1.0, "matrix has non-finite entries"),
    (np.full((2, 2), np.nan), np.inf, "matrix has non-finite entries"),
    (np.ones((2, 3)), 1.0, "matrix must be square"),
    (np.full((2, 2), 1e300), 1e300, "overflows"),
], ids=["inf_t", "nan_t", "inf_matrix", "nan_matrix", "both", "not_square", "overflow"])
def test_mat_exp_names_the_bad_argument(matrix, t, message):
    # One finiteness test of matrix * t on the fast path; a failure still
    # names the argument at fault, the matrix first.  The product itself may
    # overflow or be inf * 0.
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NumericsError, match=message
    ):
        mat_exp(matrix, t)


def test_eigendecompose_matches_charpoly_roots():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.normal(size=(4, 4))
        got = eigendecompose(a).eigenvalues
        ref = charpoly_eigenvalues(a)
        assert np.allclose(got, ref, atol=1e-6)


def test_eigendecompose_residual_and_normalization():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 5))
    eig = eigendecompose(a)
    for lam, v in zip(eig.eigenvalues, eig.eigenvectors.T):
        assert np.linalg.norm(a @ v - lam * v) <= 1e-8
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_eigendecompose_ordering_descending_real_part():
    a = np.diag([-3.0, 2.0, 0.5])
    vals = eigendecompose(a).eigenvalues
    assert np.all(np.diff(vals.real) <= 1e-12)


def test_exp_norms_on_grid_matches_direct_exponentials():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 3)) - 2.0 * np.eye(3)
    ts = np.linspace(0.0, 4.0, 17)
    got = exp_norms_on_grid(a, ts)
    ref = np.array([np.linalg.norm(taylor_expm(a, t), 2) for t in ts])
    assert np.allclose(got, ref, rtol=1e-8, atol=1e-10)


JORDAN = 0.3 * np.eye(4) + np.eye(4, k=1)
# exp(A t) overflows past t = 7 and exp(A t) * V^-1 mixes inf with zeros.
OVERFLOW = np.diag([100.0, -1.0]) + np.eye(2, k=1)


def test_sup_cases_take_their_paths():
    # A Jordan block has no eigen-basis, so its norms come from expm.
    assert _record(JORDAN).basis is None
    # The batch overflows past t = 7, its SVD fails, and the expm fallback
    # meets the same overflow, which it reports instead of taking an SVD.
    with np.errstate(all="ignore"):
        with pytest.raises(NumericsError, match="overflows on the grid"):
            exp_norms_on_grid(OVERFLOW, np.linspace(0.0, 10.0, 50))


def test_expm_fallback_keeps_the_bits_of_one_expm_per_point(monkeypatch):
    # Without an eigen-basis a grid's norms come from one batched expm and one
    # batched SVD, with the bits of np.linalg.norm(mat_exp(m, t), 2) per point.
    ts = np.linspace(0.0, 60.0, 100)
    for a in HURWITZ.values():
        want = np.array([np.linalg.norm(mat_exp(a, float(t)), 2) for t in ts])
        assert numerics._all_norms(a, None, ts).tobytes() == want.tobytes()
    # A non-finite m t or exponential raises before any SVD runs.
    def fail(*_args, **_kwargs):
        raise AssertionError("SVD of a non-finite exponential")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with np.errstate(all="ignore"):
        for a, t in ((JORDAN, np.inf), (np.full((2, 2), 1e300), 1e300), (OVERFLOW, 10.0)):
            with pytest.raises(NumericsError, match="overflows on the grid"):
                numerics._all_norms(a, None, np.array([0.0, t]))


def test_decay_envelope_holds_on_fresh_grid():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rng.normal(size=(3, 3))
        a = a - (eigendecompose(a).eigenvalues.real.max() + 0.5) * np.eye(3)
        env = decay_envelope(a)
        assert env.c >= 1.0 and env.rate > 0.0
        ts = np.sort(np.random.default_rng(2).uniform(0.0, 30.0, 200))
        norms = exp_norms_on_grid(a, ts)
        assert np.all(norms <= env.c * np.exp(-env.rate * ts) + 1e-9)


def test_decay_envelope_rejects_non_hurwitz():
    with pytest.raises(NumericsError, match="not Hurwitz"):
        decay_envelope(np.diag([0.1, -1.0]))
    # a marginal spectrum (abscissa exactly 0) is rejected as well
    with pytest.raises(NumericsError, match="not Hurwitz"):
        decay_envelope(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_decay_envelope_rate_backs_off_the_spectral_abscissa():
    env = decay_envelope(np.diag([-2.0, -0.3]))
    assert env.rate == 0.99 * 0.3
    assert env.c == pytest.approx(1.05, rel=1e-12)


@pytest.mark.parametrize("a, calls, rate", [
    (np.array([[-2.0, 3.0], [0.0, -0.5]]), 1, 0.99 * 0.5),
    # a Jordan block has no usable eigen-basis: the abscissa comes from the
    # same eigendecomposition and the norms from expm
    (np.array([[-1.0, 1.0], [0.0, -1.0]]), 1, 0.99),
], ids=["diagonalizable", "jordan_block"])
def test_decay_envelope_eigendecomposes_once(a, calls, rate, monkeypatch):
    seen = []
    real = numerics.eigendecompose

    def counting(matrix):
        seen.append(matrix)
        return real(matrix)

    monkeypatch.setattr(numerics, "eigendecompose", counting)
    env = decay_envelope(a)
    assert len(seen) == calls
    assert env.rate == pytest.approx(rate, rel=1e-6)
    for t in np.linspace(0.0, 40.0, 101):
        assert np.linalg.norm(taylor_expm(a, t), 2) <= env.c * np.exp(-env.rate * t) + 1e-9


@pytest.mark.xfail(
    strict=True,
    raises=NumericsError,
    reason="ROADMAP item 3: at 0.99 of the spectral abscissa, the t^2 growth of a "
    "Jordan block peaks past the fit grid and the envelope fails validation",
)
@pytest.mark.parametrize("seed", range(4))
def test_decay_envelope_of_rotated_jordan_block(seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    a = q @ (-rng.uniform(0.2, 1.5) * np.eye(3) + 2.0 * np.eye(3, k=1)) @ q.T
    env = decay_envelope(a)
    for t in np.linspace(0.0, 40.0 / env.rate, 101):
        assert np.linalg.norm(taylor_expm(a, t), 2) <= env.c * np.exp(-env.rate * t) + 1e-9


def test_decay_envelope_raises_eigensolver_failure(monkeypatch):
    def fail(matrix):
        raise EigendecompositionError("synthetic failure")

    monkeypatch.setattr(numerics, "eigendecompose", fail)
    with pytest.raises(EigendecompositionError, match="synthetic"):
        decay_envelope(np.diag([-2.0, -0.3]))


def test_decay_envelope_is_value_type():
    env = DecayEnvelope(c=2.0, rate=0.5)
    assert env.c == 2.0 and env.rate == 0.5


def _oracle_peak(a: np.ndarray) -> float:
    """Max of ||taylor_expm(a s)||_2 on a dense grid, refined around its argmax.

    The grid runs to 40 e-folding times of the slowest mode, and its last
    tenth must already lie below 1.
    """
    norm = lambda s: np.linalg.norm(taylor_expm(a, s), 2)
    ts = np.linspace(0.0, 40.0 / -np.max(charpoly_eigenvalues(a).real), 300)
    norms = np.array([norm(s) for s in ts])
    assert np.all(norms[-30:] < 1.0)
    k = int(np.argmax(norms))
    fine = np.linspace(ts[max(k - 1, 0)], ts[min(k + 1, ts.size - 1)], 41)
    return max(float(norms.max()), max(norm(s) for s in fine))


# One kind per size, each kind twice, keeps the oracle to about 2,700 series.
@pytest.mark.parametrize("name", [f"{HURWITZ_KINDS[(n - 2) % 4]}_{n}" for n in range(2, 10)])
def test_norm_ceiling_covers_the_dense_oracle(name):
    a = HURWITZ[name]
    ceiling = norm_ceiling(a)
    peak = _oracle_peak(a)
    assert ceiling is not None
    assert peak <= ceiling <= (1.0 + CEILING_SLACK) * peak


def test_norm_ceiling_of_the_vehicle(vehicle7):
    # ||exp(S s)|| peaks near 9.896 at s = 0.93 and falls below 1 by s = 6.1.
    s_mat = closed_loop(vehicle7.model, vehicle7.gain)
    ceiling = norm_ceiling(s_mat)
    peak = _oracle_peak(s_mat)
    assert 9.89 < peak <= ceiling <= (1.0 + CEILING_SLACK) * peak


def test_norm_ceiling_of_the_shifted_vehicle(vehicle7):
    # The one sampled quantity of the model-based Delta: c_alpha of S + alpha I
    # against series exponentials every 0.01 on [0, 40].
    shifted = closed_loop(vehicle7.model, vehicle7.gain) + vehicle7.trigger.alpha * np.eye(4)
    ceiling = norm_ceiling(shifted)
    dense = np.array([
        np.linalg.norm(taylor_expm(shifted, s), 2) for s in np.linspace(0.0, 40.0, 4001)
    ])
    assert dense.max() == pytest.approx(12.6226, abs=1e-4)
    assert np.all(dense <= ceiling) and ceiling <= (1.0 + CEILING_SLACK) * dense.max()


@pytest.mark.parametrize("a", [
    np.array([[0.5]]),
    np.diag([0.1, -1.0]),
    np.array([[0.0, 1.0], [-1.0, 0.0]]),
    np.full((2, 2), np.inf),
    np.full((2, 2), np.nan),
    np.ones((2, 3)),
], ids=["growing", "one_growing_mode", "marginal", "inf", "nan", "not_square"])
def test_norm_ceiling_refuses(a):
    assert norm_ceiling(a) is None


@pytest.mark.parametrize("shift", [0.9, 0.99])
def test_norm_ceiling_of_shifted_matrices_raises_nothing(shift):
    # Moving the spectral abscissa to (1 - shift) of itself leaves slow,
    # strongly growing Jordan transients, on which expm can overflow; such a
    # sample gives None, as every other sampling failure does.
    for name, a in HURWITZ.items():
        sa = float(np.max(np.linalg.eigvals(a).real))
        with np.errstate(all="ignore"):
            ceiling = norm_ceiling(a - shift * sa * np.eye(a.shape[0]))
        assert ceiling is None or ceiling >= 1.0, name


def test_norm_ceiling_stops_at_its_sample_budget(monkeypatch):
    a = HURWITZ["nonnormal_8"]
    monkeypatch.setattr(numerics, "CEILING_MAX_SAMPLES", 100)
    assert norm_ceiling(a) is None
    numerics._cached_record.cache_clear()
    monkeypatch.undo()
    assert norm_ceiling(a) is not None


def test_failed_ceiling_is_kept(monkeypatch):
    # A ceiling whose sampling fails (an overflowing expm) is None, and the
    # record keeps it, so the samples are not taken again.
    calls = []

    def failing(rec):
        calls.append(rec)
        raise NumericsError("matrix * t overflows")

    monkeypatch.setattr(numerics, "_sampled_ceiling", failing)
    a = np.array([[-1.0, 4.0], [0.0, -2.0]])
    assert norm_ceiling(a) is None and norm_ceiling(a) is None
    assert len(calls) == 1


def test_failed_eigendecomposition_raises_afresh(monkeypatch):
    # The record keeps only the failure's message: each call raises a new
    # error, whose traceback holds no earlier caller.
    def failing(matrix):
        raise EigendecompositionError("eigensolver did not converge")

    monkeypatch.setattr(numerics, "eigendecompose", failing)
    a = np.array([[-1.0, 4.0], [0.0, -2.0]])
    raised = []
    for _ in range(2):
        with pytest.raises(EigendecompositionError, match="did not converge") as info:
            decay_envelope(a)
        raised.append(info.value)
    assert raised[0] is not raised[1]
    assert _record(a).error == "eigensolver did not converge"


def _each(fs):
    """f(points, rows) for bisect_root from one scalar function per bracket."""
    return lambda points, rows: np.array([fs[r](p) for p, r in zip(points.tolist(), rows.tolist())])


# (f, lo, hi, tol): zeros at lo, at hi and at the first midpoint; the
# 200-halving budget binding; the float grid stopping the halving; a falling
# and a rising function stopped by tol.
BISECT_CASES = [
    (lambda d: d, 0.0, 1.0, 1e-12),
    (lambda d: d - 1.0, 0.0, 1.0, 1e-12),
    (lambda d: d - 0.5, 0.0, 1.0, 1e-12),
    (lambda d: d - 1.0, 0.0, 1e60, 1e-12),
    (lambda d: d * d - 2.0, 1.0, 2.0, 1e-300),
    (lambda d: 0.123456789 - d, 0.0, 1.0, 1e-6),
    (math.cos, 0.0, 3.0, 1e-12),
]


def test_bisect_root_cosine():
    (root,) = bisect_root(lambda d, rows: np.cos(d), 0.0, 3.0, tol=1e-12)
    assert root == pytest.approx(np.pi / 2.0, abs=1e-11)


def test_bisect_root_rejects_bad_bracket():
    with pytest.raises(NumericsError, match=r"no sign change on bracket 1: \[0.0, 1.0\]"):
        bisect_root(lambda d, rows: np.cos(d), 0.0, [3.0, 1.0], tol=1e-12)


def test_bisect_root_respects_tolerance():
    f = lambda x, rows: x - 0.123456789
    for tol in (1e-3, 1e-6, 1e-12):
        assert abs(bisect_root(f, 0.0, 1.0, tol=tol)[0] - 0.123456789) <= tol


@pytest.mark.parametrize("case", range(len(BISECT_CASES)))
def test_bisect_root_matches_scalar_bisection(case):
    f, lo, hi, tol = BISECT_CASES[case]
    points, scalar_points = [], []

    def counted(d, rows):
        points.extend(d.tolist())
        return _each([f])(d, rows)

    got = bisect_root(counted, lo, hi, tol)
    want = scalar_bisect_root(lambda d: f(scalar_points.append(d) or d), lo, hi, tol)
    assert got.tobytes() == np.array([want]).tobytes()
    # the same points, in order: the two ends, then one midpoint per halving
    assert points == scalar_points
    if case < 5:
        assert len(points) == 2 + [0, 0, 1, 200, 52][case]


def test_bisect_root_brackets_at_once_match_one_at_a_time():
    # every case above and 60 cubics, each twice, in one call
    rng = np.random.default_rng(11)
    cubics = [(lambda d, c=c: d**3 - c, -2.0, 2.0) for c in rng.uniform(-1.0, 2.0, 60).tolist()]
    fs, lo, hi = map(list, zip(*([case[:3] for case in BISECT_CASES] + cubics) * 2))
    for tol in (1e-12, 1e-9, 1e-300):
        got = bisect_root(_each(fs), lo, hi, tol)
        one = [bisect_root(_each([f]), l, h, tol)[0] for f, l, h in zip(fs, lo, hi)]
        want = [scalar_bisect_root(f, l, h, tol) for f, l, h in zip(fs, lo, hi)]
        assert got.tobytes() == np.array(one).tobytes() == np.array(want).tobytes()


def test_bisect_root_errors_name_the_first_bad_bracket():
    f = lambda points, rows: points - 0.5
    with pytest.raises(NumericsError, match="tol must be positive"):
        bisect_root(f, 0.0, 1.0, tol=0.0)
    with pytest.raises(NumericsError, match=r"need hi > lo, bracket 1: \[1.0, 1.0\]"):
        bisect_root(f, [0.0, 1.0, 2.0], [1.0, 1.0, 1.0], tol=1e-12)
    with pytest.raises(NumericsError, match=r"no sign change on bracket 2: \[0.6, 1.0\]"):
        bisect_root(f, [0.0, 0.5, 0.6, 0.7], 1.0, tol=1e-12)
    # the scalar bisection rejects each of those brackets too
    for lo, hi, tol in ((0.0, 1.0, 0.0), (1.0, 1.0, 1e-12), (0.6, 1.0, 1e-12)):
        with pytest.raises(NumericsError):
            scalar_bisect_root(lambda d: d - 0.5, lo, hi, tol)
