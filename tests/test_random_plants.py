"""Certificates and protocol invariants on random plants.

Each draw builds a model with one growing mode, an LQR gain on the model,
and a true plant that perturbs the model slightly, then checks the traces
of both estimators against the protocol and against the certificates.
Draws whose certificate preconditions fail are rejected, not counted.  The
membership residual is checked on such draws, on the vehicle family and on
rotated growing blocks.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_continuous_are

from lossyetc.bounds import (
    BoundsError,
    analyze_scenario,
    analyze_scenario_zoh,
    stable_subspace_residual,
    verify_ec_bound,
    worst_case_trace,
)
from lossyetc.numerics import NumericsError, eigendecompose
from lossyetc.scenarios import vehicle_preset
from lossyetc.simulator import Scenario, simulate, summarize
from lossyetc.system_model import EstimatorKind, Gain, NominalModel, Plant, gamma_matrix
from lossyetc.trigger_channel import ChannelMode, ChannelPolicy, TriggerConfig

from oracles import nongrowing_subspace_distance

T_MAX = 4.0
PERTURBATION = 0.05


def _scenario(n, m, M, estimator, seed):
    rng = np.random.default_rng(seed)
    # Orthogonal similarity keeps the model well conditioned.  Only mode 0
    # grows: several nearby growing modes behind one input need huge gains,
    # which the plant perturbation then destabilizes.
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    modes = np.concatenate([[rng.uniform(0.2, 1.0)], rng.uniform(-1.0, -0.2, n - 1)])
    a_hat = q @ np.diag(modes) @ q.T
    b_hat = rng.normal(size=(n, m))
    try:
        p = solve_continuous_are(a_hat, b_hat, np.eye(n), np.eye(m))
    except (np.linalg.LinAlgError, ValueError):
        return None
    k = -b_hat.T @ p
    a = a_hat + PERTURBATION * rng.normal(size=(n, n)) / np.sqrt(n)
    b = b_hat + PERTURBATION * rng.normal(size=(n, m)) / np.sqrt(n)
    loop_rate = -eigendecompose(a + b @ k).eigenvalues.real.max()
    if not (eigendecompose(a).eigenvalues.real.max() > 0.0 and loop_rate > 0.0):
        return None
    return Scenario(
        plant=Plant(A=a, B=b),
        model=NominalModel(A_hat=a_hat, B_hat=b_hat),
        gain=Gain(K=k),
        estimator=estimator,
        trigger=TriggerConfig(
            beta=rng.uniform(0.1, 1.0), alpha=rng.uniform(0.1, 0.6) * loop_rate
        ),
        channel=ChannelPolicy(M=M, mode=ChannelMode.WORST_CASE),
        x0=rng.normal(size=n),
        t_max=T_MAX,
    )


def _check_protocol(tr, M):
    assert np.all(np.isin(tr.deliveries, tr.triggers))
    run = longest = 0
    for delivered in tr.delivered[tr.triggered]:
        run = 0 if delivered else run + 1
        longest = max(longest, run)
    assert longest < M
    calm = ~tr.triggered
    assert np.all(tr.e_s_norm[calm] <= tr.threshold[calm])


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(
    n=st.integers(2, 5),
    m=st.integers(1, 2),
    M=st.integers(2, 5),
    estimator=st.sampled_from(list(EstimatorKind)),
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from([0.3, 0.7]),
)
def test_certificates_hold_on_random_plants(n, m, M, estimator, seed, p):
    scn = _scenario(n, m, M, estimator, seed)
    assume(scn is not None)
    worst = worst_case_trace(scn)
    bernoulli = simulate(
        dataclasses.replace(
            scn, channel=ChannelPolicy(M=M, mode=ChannelMode.BERNOULLI, p=p, seed=seed)
        )
    )
    try:
        if estimator is EstimatorKind.MODEL_BASED:
            rep = analyze_scenario(scn, worst)
            amplification, miet = rep.Delta, rep.miet
        else:
            amplification, miet = analyze_scenario_zoh(scn, worst).Delta_zoh, None
    except (BoundsError, NumericsError):
        assume(False)
    for tr in (worst, bernoulli):
        _check_protocol(tr, M)
        assert verify_ec_bound(tr, amplification, scn.trigger).ok
        gap = summarize(tr, scn.trigger).min_inter_event
        if miet is not None and gap is not None:
            assert gap >= miet


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: Delta_zoh takes eta from the worst-case trace; a "
    "dropped interval of the Bernoulli trace grows from a smaller eta and "
    "outlasts its bar",
)
@pytest.mark.parametrize("n, m, M, seed, p", [
    (3, 1, 2, 559551, 0.3),  # max ratio 1.0049
    (2, 1, 2, 1592285228, 0.3),  # max ratio 1.0032
    (5, 1, 2, 156, 0.7),  # max ratio 1.0405
])
def test_known_zoh_certificate_gaps(n, m, M, seed, p):
    scn = _scenario(n, m, M, EstimatorKind.ZERO_ORDER_HOLD, seed)
    bound = analyze_scenario_zoh(scn, worst_case_trace(scn)).Delta_zoh
    bernoulli = simulate(
        dataclasses.replace(
            scn, channel=ChannelPolicy(M=M, mode=ChannelMode.BERNOULLI, p=p, seed=seed)
        )
    )
    assert verify_ec_bound(bernoulli, bound, scn.trigger).ok


# Plant spectra of the membership cases beside the draws: a growing Jordan
# block (numpy's eigenvectors of it, once rotated, are two distinct, nearly
# parallel vectors), a complex growing pair, and two growing modes.
GROWING_BLOCKS = (
    [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]],
    [[0.5, 2.0, 0.0], [-2.0, 0.5, 0.0], [0.0, 0.0, -1.0]],
    np.diag([0.3, 1.2, -0.5, -1.0]),
)


def _growing_block_case(block, seed):
    """The block under a random rotation, a perturbed model, and its LQR gain."""
    rng = np.random.default_rng(seed)
    block = np.asarray(block)
    n = block.shape[0]
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = q @ block @ q.T
    b = rng.normal(size=(n, 2))
    a_hat = a + PERTURBATION * rng.normal(size=(n, n)) / np.sqrt(n)
    k = -b.T @ solve_continuous_are(a_hat, b, np.eye(n), np.eye(2))
    return Plant(A=a, B=b), NominalModel(A_hat=a_hat, B_hat=b), Gain(K=k), rng.normal(size=n)


def test_membership_residual_matches_sign_oracle(qualifying_seeds):
    """The residual and its span's dimension against the sign-function projector."""
    scenarios = [vehicle_preset(seed) for seed in qualifying_seeds]
    seed = 0
    while len(scenarios) < len(qualifying_seeds) + 100:
        n, m = np.random.default_rng(seed).integers([2, 1], [6, 3])
        scn = _scenario(int(n), int(m), 2, EstimatorKind.MODEL_BASED, seed)
        if scn is not None:
            scenarios.append(scn)
        seed += 1
    cases = [(scn.plant, scn.model, scn.gain, scn.x0) for scn in scenarios]
    cases += [_growing_block_case(block, seed) for block in GROWING_BLOCKS for seed in range(8)]
    for plant, model, gain, x0 in cases:
        rep = stable_subspace_residual(plant, model, gain, x0)
        ref, dim = nongrowing_subspace_distance(gamma_matrix(plant, model, gain), x0)
        assert rep.basis_dim == dim
        if ref < 1e-12:
            assert abs(rep.residual - ref) <= 1e-12
        else:
            assert rep.residual == pytest.approx(ref, rel=1e-8, abs=0.0)
