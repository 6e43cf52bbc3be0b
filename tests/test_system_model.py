import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lossyetc.numerics import eigendecompose, mat_exp
from lossyetc.system_model import (
    Gain,
    ModelError,
    NominalModel,
    Plant,
    closed_loop,
    gamma_matrix,
    gamma_zoh,
)


def _random_instance(rng, n=3, m=2):
    plant = Plant(A=rng.normal(size=(n, n)), B=rng.normal(size=(n, m)))
    model = NominalModel(
        A_hat=plant.A + 0.05 * rng.normal(size=(n, n)),
        B_hat=plant.B + 0.05 * rng.normal(size=(n, m)),
    )
    gain = Gain(K=rng.normal(size=(m, n)))
    return plant, model, gain


def test_plant_validation():
    with pytest.raises(Exception):
        Plant(A=np.eye(2), B=np.ones(2))  # B must be 2-d
    with pytest.raises(Exception):
        Plant(A=np.eye(2), B=np.ones((3, 1)))  # row count mismatch
    p = Plant(A=np.eye(2), B=np.ones((2, 1)))
    assert p.n == 2 and p.m == 1


def test_closed_loop_definition():
    rng = np.random.default_rng(0)
    _, model, gain = _random_instance(rng)
    assert np.array_equal(closed_loop(model, gain), model.A_hat + model.B_hat @ gain.K)


def test_gamma_matrix_blocks_and_spectrum():
    rng = np.random.default_rng(1)
    plant, model, gain = _random_instance(rng)
    n = plant.n
    g = gamma_matrix(plant, model, gain)
    assert np.array_equal(g[:n, :n], plant.A)
    assert np.array_equal(g[:n, n:], plant.B @ gain.K)
    assert np.array_equal(g[n:, :n], np.zeros((n, n)))
    assert np.array_equal(g[n:, n:], closed_loop(model, gain))
    spec = np.sort_complex(np.linalg.eigvals(g))
    union = np.sort_complex(
        np.concatenate(
            [np.linalg.eigvals(plant.A), np.linalg.eigvals(closed_loop(model, gain))]
        )
    )
    assert np.allclose(spec, union, atol=1e-8)


def test_gamma_zoh_blocks():
    rng = np.random.default_rng(2)
    plant, _, gain = _random_instance(rng)
    n = plant.n
    g = gamma_zoh(plant, gain)
    assert np.array_equal(g[:n, :n], plant.A)
    assert np.array_equal(g[:n, n:], plant.B @ gain.K)
    assert np.array_equal(g[n:, :], np.zeros((n, 2 * n)))


def test_flow_matches_adaptive_ode_oracle():
    rng = np.random.default_rng(5)
    for hold in (False, True):
        plant, model, gain = _random_instance(rng)
        g = gamma_zoh(plant, gain) if hold else gamma_matrix(plant, model, gain)
        y0 = rng.normal(size=2 * plant.n)
        dt = 0.8
        sol = solve_ivp(
            lambda _t, y: g @ y, (0.0, dt), y0, method="DOP853",
            rtol=1e-11, atol=1e-13,
        )
        got = mat_exp(g, dt) @ y0
        ref = sol.y[:, -1]
        assert np.linalg.norm(got - ref) <= 1e-7 * max(1.0, np.linalg.norm(ref))


def test_dimension_mismatch_rejected():
    # Each constructor names the argument at fault.
    with pytest.raises(ModelError, match="B_hat must be 3 x m") as err:
        NominalModel(A_hat=np.eye(3), B_hat=np.ones((2, 1)))
    assert err.value.field == "B_hat"
    with pytest.raises(ModelError) as err:
        NominalModel(A_hat=np.ones((3, 2)), B_hat=np.ones((3, 1)))
    assert err.value.field == "A_hat"
    with pytest.raises(ModelError) as err:
        Plant(A=np.eye(2), B=np.ones((3, 1)))
    assert err.value.field == "B"
    with pytest.raises(ModelError) as err:
        Gain(K=[[np.nan, 0.0]])
    assert err.value.field == "K"
    assert isinstance(err.value, ValueError)
