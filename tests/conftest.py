import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import lossyetc as le
from lossyetc import numerics, pool, simulator
from lossyetc.system_model import EstimatorKind
from lossyetc.trigger_channel import ChannelMode, ChannelPolicy


@pytest.fixture(autouse=True)
def fresh_numerics_records():
    """Each test starts without the per-matrix records an earlier test left."""
    numerics._cached_record.cache_clear()


@pytest.fixture
def cold_flows():
    """The test starts with no cached flow or grid, so its runs build their own.

    For tests that patch what a flow build reads (simulator.mat_exp,
    _Flow.__init__) or count builds.  Entries the test leaves stay: they hold
    the arrays an unpatched build makes.
    """
    simulator._cached_flow.cache_clear()
    simulator._grid.cache_clear()


@pytest.fixture(scope="session")
def vehicle0():
    return le.vehicle_preset()


@pytest.fixture(scope="session")
def vehicle7():
    return le.vehicle_preset(7)


@pytest.fixture(scope="session")
def trace7(vehicle7):
    return le.simulate(vehicle7)


@pytest.fixture(scope="session")
def report7(vehicle7, trace7):
    return le.analyze_scenario(vehicle7, trace7)


@pytest.fixture(scope="session")
def zoh7(vehicle7):
    return dataclasses.replace(vehicle7, estimator=EstimatorKind.ZERO_ORDER_HOLD)


@pytest.fixture(scope="session")
def trace_zoh7(zoh7):
    return le.simulate(zoh7)


@pytest.fixture(scope="session")
def golden_scn():
    return dataclasses.replace(
        le.vehicle_preset(1),
        channel=ChannelPolicy(M=5, mode=ChannelMode.BERNOULLI, p=0.7, seed=1),
    )


@pytest.fixture(scope="session")
def golden_trace(golden_scn):
    return le.simulate(golden_scn)


@pytest.fixture(scope="session")
def qualifying_seeds():
    """First 50 perturbation seeds whose drawn plant keeps a growing mode.

    Draws that stabilize the open loop fall outside the certificates'
    hypotheses (the growth machinery needs an unstable mode), so the
    randomized-scenario experiments quantify over the qualifying class.
    """
    from lossyetc.numerics import eigendecompose

    out, seed = [], 1
    while len(out) < 50:
        scn = le.vehicle_preset(seed)
        if np.any(eigendecompose(scn.plant.A).eigenvalues.real > 1e-6):
            out.append(seed)
        seed += 1
    return out


@pytest.fixture
def usable_cpus(monkeypatch):
    """Call with n to make `pool.fork_map` see n usable CPUs.

    The call returns a list that receives the worker count of each pool
    started from then on. The call and the teardown shut the process's pool
    down, so a pool the test starts has n workers, forked with the module
    state the test set, and no later test reuses them.
    """

    def set_cpus(n: int) -> list[int]:
        pool.shutdown()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        pools = []

        class Recording(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(pool, "ProcessPoolExecutor", Recording)
        return pools

    yield set_cpus
    pool.shutdown()
