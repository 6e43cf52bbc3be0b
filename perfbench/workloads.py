"""Inputs, units and per-unit correctness checks of the three workloads.

Every unit is split into a timed part (``run``), which only calls into
lossyetc, and an untimed part (``check``), which verifies the output and
returns its digest.  The benchmark calls lossyetc through module attributes
(``simulator.simulate``, ``cli.main``, ...) so that the outside-in tracer can
patch them.

Workloads:

* ``certify_family``: the paper's headline experiment, one perturbation draw
  of the vehicle preset per unit, as in the acceptance ``family`` fixture.
  Heavy in bounds/numerics sup evaluation and batched grid flow.
* ``zoh_sweep``: ``lossyetc sweep`` then ``lossyetc verify --estimator zoh``
  on one draw's scenario file.  Heavy in event location; no sup evaluation.
* ``trace_io``: ``lossyetc simulate --format csv`` then ``load_trace`` on one
  draw's Bernoulli scenario file.  Mostly CSV writing and reading.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from lossyetc import bounds, cli, numerics, scenarios, simulator
from lossyetc.system_model import EstimatorKind
from lossyetc.trigger_channel import ChannelMode, ChannelPolicy

# The 50 qualifying draws of the acceptance family; the workload seed orders
# them and sets every channel seed.
FAMILY_SIZE = 50
BERNOULLI_PS = (0.0, 0.5, 0.9)
SWEEP_VALUES = "0,0.5,0.9"
TRACE_IO_P = 0.5
# A third of the preset horizon: a 7 MB trace CSV, so that a run holds three
# times the units of the full 60 s horizon and its median settles.
TRACE_IO_TMAX = 20.0
# Certificate panel: the first draws of the acceptance family, preset 7 and
# draw 8 included.  Fixed across seeds so the certificate metrics compare
# one code version with another, not one sample of draws with another.
PANEL_SIZE = 8


def qualifying_draws(count: int, start: int = 1) -> list[int]:
    """Perturbation seeds whose plant keeps a growing mode (conftest's rule).

    Draws that stabilize the open loop fall outside the certificates'
    hypotheses; they are skipped here and never reach a unit.
    """
    out, seed = [], start
    while len(out) < count:
        scn = scenarios.vehicle_preset(seed)
        if np.any(numerics.eigendecompose(scn.plant.A).eigenvalues.real > 1e-6):
            out.append(seed)
        seed += 1
    return out


@dataclass(frozen=True)
class Input:
    """One unit's input: a scenario, its file, and the seeds it uses."""

    draw: int
    scenario: simulator.Scenario
    config: str | None
    seed: int
    out: str | None


def make_inputs(workload: str, seed: int, tmp: str, tmax: float | None) -> list[Input]:
    """Generate the run's inputs from the workload seed; writes scenario files."""
    rng = np.random.default_rng(seed)
    draws = qualifying_draws(FAMILY_SIZE)
    order = rng.permutation(len(draws))
    unit_seeds = rng.integers(0, 2**31 - 1, size=len(draws))
    inputs = []
    for i, (k, unit_seed) in enumerate(zip(order, unit_seeds)):
        draw = draws[k]
        scn = scenarios.vehicle_preset(draw)
        if workload == "trace_io":
            chan = ChannelPolicy(
                M=scn.channel.M, mode=ChannelMode.BERNOULLI, p=TRACE_IO_P, seed=int(unit_seed)
            )
            scn = dataclasses.replace(scn, t_max=TRACE_IO_TMAX, channel=chan)
        if tmax is not None:
            scn = dataclasses.replace(scn, t_max=tmax)
        config = out = None
        if workload != "certify_family":
            config = os.path.join(tmp, f"draw{draw}.json")
            scenarios.save_scenario(scn, config)
            out = os.path.join(tmp, f"unit{i}")
        inputs.append(Input(draw, scn, config, int(unit_seed), out))
    return inputs


# --- timed parts --------------------------------------------------------------

def _run_cli(argv: list[str]) -> tuple[int, str]:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    return code, sink.getvalue()


def run_certify_family(inp: Input):
    scn = inp.scenario
    tr = simulator.simulate(scn)
    rep = bounds.analyze_scenario(scn, tr)
    check = bounds.verify_ec_bound(tr, rep.Delta, scn.trigger)
    envelope = bounds.stability_envelope_bound(scn, rep)
    traces = [tr]
    for p in BERNOULLI_PS:
        chan = ChannelPolicy(M=scn.channel.M, mode=ChannelMode.BERNOULLI, p=p, seed=inp.seed)
        traces.append(simulator.simulate(dataclasses.replace(scn, channel=chan)))
    return rep, check, envelope, traces


def run_zoh_sweep(inp: Input):
    sweep = _run_cli([
        "sweep", "--config", inp.config, "--values", SWEEP_VALUES,
        "--seed", str(inp.seed), "--out", inp.out + ".sweep.csv",
    ])
    verify = _run_cli([
        "verify", "--config", inp.config, "--estimator", "zoh",
        "--out", inp.out + ".verify.json",
    ])
    return sweep, verify


def run_trace_io(inp: Input):
    path = inp.out + ".trace.csv"
    code = _run_cli(["simulate", "--format", "csv", "--config", inp.config, "--out", path])
    return code, scenarios.load_trace(path)


# --- untimed checks -----------------------------------------------------------

class UnitFailure(Exception):
    """A unit's output is wrong; the unit counts as failed."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise UnitFailure(what)


_TRACE_FIELDS = [f.name for f in dataclasses.fields(simulator.Trace)]


def _trace_digest(h, tr) -> None:
    for name in _TRACE_FIELDS:
        h.update(np.ascontiguousarray(getattr(tr, name)).tobytes())


def _check_protocol(tr, scn) -> None:
    """Invariants every trace must keep, whatever the channel did."""
    _require(bool(np.all(np.isin(tr.deliveries, tr.triggers))), "delivery without trigger")
    delivered = tr.delivered[tr.triggered]
    run = longest = 0
    for got in delivered:
        run = 0 if got else run + 1
        longest = max(longest, run)
    _require(longest < scn.channel.M, f"drop run {longest} reaches M={scn.channel.M}")
    calm = ~tr.triggered
    _require(bool(np.all(tr.e_s_norm[calm] <= tr.threshold[calm])), "e_s above threshold off-event")


def check_certify_family(inp: Input, out) -> str:
    rep, check, envelope, traces = out
    _require(check.ok, f"e_c bound violated (max ratio {check.max_ratio})")
    _require(rep.miet > 0.0, "MIET not positive")
    gaps = [float(np.min(np.diff(tr.triggers))) for tr in traces if tr.triggers.size >= 2]
    _require(not gaps or min(gaps) >= rep.miet, "observed gap below MIET")
    _require(math.isfinite(envelope) and envelope > 0.0, "stability envelope degenerate")
    h = hashlib.sha256()
    for tr in traces:
        _check_protocol(tr, inp.scenario)
        _trace_digest(h, tr)
    h.update(repr((rep.Delta, rep.miet, envelope, check.max_ratio)).encode())
    return h.hexdigest()


def check_zoh_sweep(inp: Input, out) -> str:
    (sweep_code, sweep_log), (verify_code, verify_log) = out
    _require(sweep_code == 0, f"sweep exited {sweep_code}: {sweep_log.strip()}")
    _require(verify_code == 0, f"verify exited {verify_code}: {verify_log.strip()}")
    with open(inp.out + ".sweep.csv", "rb") as fh:
        sweep_bytes = fh.read()
    rows = sweep_bytes.decode().splitlines()[1:]
    expected = 2 * len(SWEEP_VALUES.split(","))
    _require(len(rows) == expected, f"sweep wrote {len(rows)} rows, expected {expected}")
    with open(inp.out + ".verify.json", "rb") as fh:
        verify_bytes = fh.read()
    doc = json.loads(verify_bytes)
    _require(all(doc["checks"].values()), f"verify checks failed: {doc['checks']}")
    return hashlib.sha256(sweep_bytes + verify_bytes).hexdigest()


def check_trace_io(inp: Input, out) -> str:
    (code, log), loaded = out
    path = inp.out + ".trace.csv"
    try:
        _require(code == 0, f"simulate exited {code}: {log.strip()}")
        reference = simulator.simulate(inp.scenario)
        for name in _TRACE_FIELDS:
            a, b = getattr(loaded, name), getattr(reference, name)
            same = a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            _require(same, f"reloaded trace differs in {name}")
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        return h.hexdigest()
    finally:
        for suffix in (".trace.csv", ".trace.summary.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(inp.out + suffix)


RUN = {
    "certify_family": run_certify_family,
    "zoh_sweep": run_zoh_sweep,
    "trace_io": run_trace_io,
}
CHECK = {
    "certify_family": check_certify_family,
    "zoh_sweep": check_zoh_sweep,
    "trace_io": check_trace_io,
}


# --- certificate panel --------------------------------------------------------

def certificate_panel(workload: str, tmax: float | None) -> tuple[float, float]:
    """Median log10(certificate / empirical) and log10(event_tol / MIET).

    The certificate is Delta_zoh in zoh_sweep and Delta elsewhere; both are
    grounded, as the CLI grounds them, on a worst-case dropout trace.
    """
    slack, shortfall = [], []
    for draw in qualifying_draws(PANEL_SIZE):
        scn = scenarios.vehicle_preset(draw)
        if tmax is not None:
            scn = dataclasses.replace(scn, t_max=tmax)
        tr = simulator.simulate(scn)
        rep = bounds.analyze_scenario(scn, tr)
        shortfall.append(math.log10(scn.event_tol / rep.miet))
        if workload == "zoh_sweep":
            scn = dataclasses.replace(scn, estimator=EstimatorKind.ZERO_ORDER_HOLD)
            tr = simulator.simulate(scn)
            certificate = bounds.analyze_scenario_zoh(scn, tr).Delta_zoh
        else:
            certificate = rep.Delta
        empirical = simulator.summarize(tr, scn.trigger).empirical_amplification
        slack.append(math.log10(certificate / empirical))
    return float(np.median(slack)), float(np.median(shortfall))
