import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    grid_norm_maxes,
    mat_exp,
    norm_ceiling,
)
from lossyetc.system_model import closed_loop
from oracles import HURWITZ, HURWITZ_KINDS, charpoly_eigenvalues, taylor_expm


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
# One fast real mode over slow ones: exp(A t) tends to rank 1, where the
# Frobenius norm meets the 2-norm to within ulps.
RANK_ONE = np.triu(np.full((3, 3), 0.7)) + np.diag([3.0, -2.0, -3.0])
# exp(A t) = [[cos t, b sin t], [-sin(t) / b, cos t]]: equal, nearly rank-1
# peaks at t = pi/2 + k pi, where the computed Frobenius norm falls a few
# ulps below the computed 2-norm and a screen without slack picks a wrong max.
RIDGE = np.array([[0.0, 1e6], [-1e-6, 0.0]])
# exp(A t) overflows past t = 7 and exp(A t) * V^-1 mixes inf with zeros.
OVERFLOW = np.diag([100.0, -1.0]) + np.eye(2, k=1)


@st.composite
def _sup_cases(draw):
    """A matrix of one kind and one to three grids, some with repeated points."""
    n = draw(st.integers(min_value=1, max_value=8))
    kind = draw(st.sampled_from(
        ["general", "rank_one", "rotation", "ridge", "jordan", "overflow"]
    ))
    a = draw(hnp.arrays(float, (n, n), elements=st.floats(-2.0, 2.0)))
    horizon = 8.0
    if kind == "general":
        a = a - draw(st.floats(-1.0, 3.0)) * np.eye(n)
    elif kind == "rank_one":
        a = np.triu(a) + np.diag(np.linspace(3.0, -3.0, n))
    elif kind == "rotation":
        a = a - a.T
    elif kind == "ridge":
        n = max(n, 2)
        b = draw(st.floats(1e2, 1e7))
        a = -3.0 * np.eye(n)
        a[:2, :2] = [[0.0, b], [-1.0 / b, 0.0]]
    elif kind == "jordan":
        n = max(n, 2)
        a = draw(st.floats(-1.0, 1.0)) * np.eye(n) + np.eye(n, k=1)
    else:
        a = a + 100.0 * np.eye(n)
    grids = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if kind == "ridge":
            peaks = draw(st.lists(st.integers(0, 20), min_size=1, max_size=60))
            offsets = draw(hnp.arrays(float, len(peaks), elements=st.floats(-1.0, 1.0)))
            grids.append(np.pi / 2 + np.pi * np.array(peaks) + 1e-9 * offsets)
        elif draw(st.booleans()):
            points = draw(st.integers(min_value=1, max_value=40))
            grids.append(np.linspace(0.0, draw(st.floats(0.0, horizon)), points))
        else:
            pool = draw(st.lists(st.floats(0.0, horizon), min_size=1, max_size=6))
            grids.append(np.array(draw(
                st.lists(st.sampled_from(pool), min_size=1, max_size=40)
            )))
    return a, grids


def _bits_or_error(fn):
    """Bit pattern of fn()'s float result(s), or the type of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return np.asarray(fn(), dtype=float).tobytes()
    except Exception as exc:  # the reference's failure is part of its result
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(case=_sup_cases())
@example(case=(JORDAN, [np.linspace(0.0, 3.0, 40)]))
@example(case=(RANK_ONE, [np.linspace(0.0, 6.0, 400), np.array([5.0])]))
@example(case=(RIDGE, [np.pi / 2 + np.pi * np.arange(20) + 1e-9 * np.sin(np.arange(20))]))
@example(case=(OVERFLOW, [np.linspace(0.0, 2.0, 50), np.linspace(0.0, 10.0, 50)]))
@example(case=(np.diag([0.5, -1.0]), [np.array([1.0, 1.0, 1.0]), np.array([0.0])]))
def test_grid_norm_maxes_bitwise_matches_full_grid(case):
    a, grids = case
    refs = [
        _bits_or_error(lambda ts=ts: float(np.max(exp_norms_on_grid(a, ts))))
        for ts in grids
    ]
    first_error = next((r for r in refs if isinstance(r, type)), None)
    got = _bits_or_error(lambda: grid_norm_maxes(a, grids))
    if first_error is not None:
        assert got is first_error
    else:
        assert got == b"".join(refs)


def test_sup_cases_take_their_paths():
    assert _record(JORDAN).basis is None
    far = mat_exp(RANK_ONE, 6.0)
    assert np.linalg.norm(far) == pytest.approx(np.linalg.norm(far, 2), rel=1e-14)
    # The batch overflows past t = 7, its SVD fails, and the expm fallback
    # meets the same overflow, which it reports instead of taking an SVD.
    with np.errstate(all="ignore"):
        with pytest.raises(NumericsError, match="overflows on the grid"):
            exp_norms_on_grid(OVERFLOW, np.linspace(0.0, 10.0, 50))
        with pytest.raises(NumericsError, match="overflows on the grid"):
            grid_norm_maxes(OVERFLOW, [np.linspace(0.0, 10.0, 50)])


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


def test_bisect_root_cosine():
    root = bisect_root(np.cos, 0.0, 3.0, tol=1e-12)
    assert root == pytest.approx(np.pi / 2.0, abs=1e-11)


def test_bisect_root_rejects_bad_bracket():
    with pytest.raises(NumericsError):
        bisect_root(np.cos, 0.0, 1.0, tol=1e-12)


def test_bisect_root_respects_tolerance():
    f = lambda x: x - 0.123456789
    for tol in (1e-3, 1e-6, 1e-12):
        assert abs(bisect_root(f, 0.0, 1.0, tol=tol) - 0.123456789) <= tol
