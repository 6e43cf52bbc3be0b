"""End-to-end acceptance experiments for the certificate and protocol claims.

Each test emits one [PASS]/[FAIL] verdict line through pytest's terminal
reporter so the lines survive output capture in a plain pytest run.
"""

import dataclasses
import hashlib
import json
import time

import numpy as np
import pytest

import lossyetc as le
from lossyetc.bounds import (
    TRIGGER_OVERSHOOT,
    analyze_scenario,
    analyze_scenario_zoh,
    stability_envelope_bound,
    stable_subspace_residual,
    verify_ec_bound,
)
from lossyetc.numerics import decay_envelope, mat_exp
from lossyetc.scenarios import save_trace
from lossyetc.simulator import simulate, summarize
from lossyetc.system_model import EstimatorKind
from lossyetc.trigger_channel import (
    ChannelMode,
    ChannelPolicy,
    ChannelState,
    Outcome,
    TriggerConfig,
    channel_offer,
    random_drop_script,
)

from oracles import taylor_expm, windowed_delta

BERNOULLI_PS = (0.0, 0.5, 0.9)


@pytest.fixture()
def verdict(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(num: int, ok: bool, text: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}"
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line, flush=True)

    return emit


@pytest.fixture(scope="module")
def family(qualifying_seeds):
    """Worst-case certificate plus three Bernoulli runs per perturbation draw."""
    t0 = time.perf_counter()
    out = []
    for seed in qualifying_seeds:
        scn = le.vehicle_preset(seed)
        tr_wc = simulate(scn)
        rep = analyze_scenario(scn, tr_wc)
        traces = [tr_wc]
        for p in BERNOULLI_PS:
            chan = ChannelPolicy(M=5, mode=ChannelMode.BERNOULLI, p=p, seed=seed)
            traces.append(simulate(dataclasses.replace(scn, channel=chan)))
        gaps = [
            float(np.min(np.diff(tr.triggers)))
            for tr in traces
            if tr.triggers.size >= 2
        ]
        out.append(
            {
                "scenario": scn,
                "report": rep,
                "traces": traces,
                "min_gap": min(gaps) if gaps else None,
                "envelope_bound": stability_envelope_bound(scn, rep),
            }
        )
    elapsed = time.perf_counter() - t0
    return {"rows": out, "elapsed": elapsed}


def test_family_reports_pinned(family):
    """Every field of the 50 model-based reports, in seed order, to the last bit."""
    digest = hashlib.sha256()
    for row in family["rows"]:
        digest.update(json.dumps(dataclasses.asdict(row["report"])).encode())
    assert digest.hexdigest() == (
        "299ae613fe4aa0214617c0ea770f4318475161267995a0800b426e84e66b4144"
    )


def test_delta_within_the_windowed_formula(family):
    """On every draw, Delta is at most the paper's windowed Delta on its
    worst-case trace (tests/oracles.py); it was 46 times below it or more."""
    for row in family["rows"]:
        windowed = windowed_delta(row["scenario"], row["traces"][0])
        assert row["report"].Delta <= windowed.Delta


def test_family_certificates_are_informative(family):
    """Delta is within 20 times the worst-case trace's amplification (14.0 at
    most), and MIET clears the simulator's event tolerance, on every draw."""
    for row in family["rows"]:
        scn, rep = row["scenario"], row["report"]
        empirical = summarize(row["traces"][0], scn.trigger).empirical_amplification
        assert rep.Delta <= 20.0 * empirical
        assert rep.miet > scn.event_tol


def test_located_triggers_overshoot_within_epsilon(family):
    """||e_s|| on each trigger's pre-jump row stays within (1 + eps / 2) of the
    threshold, as the model-based Delta assumes, over all 200 family traces
    (8,651 triggers, 4.3e-9 at most)."""
    overshoot = [
        tr.e_s_norm[tr.triggered] / tr.threshold[tr.triggered] - 1.0
        for row in family["rows"] for tr in row["traces"]
    ]
    assert float(np.max(np.concatenate(overshoot))) <= 0.5 * TRIGGER_OVERSHOOT


def test_criterion_1_worst_case_error_bound(verdict):
    t0 = time.perf_counter()
    scn = le.vehicle_preset()
    tr = simulate(scn)
    rep = analyze_scenario(scn, tr)
    check = verify_ec_bound(tr, rep.Delta, scn.trigger)
    elapsed = time.perf_counter() - t0
    ok = check.ok and elapsed < 10.0
    verdict(
        1,
        ok,
        "controller-side error within Delta*beta*exp(-alpha t)+1e-9 on the "
        f"worst-case preset (max ratio {check.max_ratio:.3e}, {elapsed:.2f} s)",
    )
    assert check.ok
    assert elapsed < 10.0


def test_criterion_2_inter_event_lower_bound(family, verdict):
    rows, elapsed = family["rows"], family["elapsed"]
    miet_ok = all(row["report"].miet > 0.0 for row in rows)
    gap_ok = all(
        row["min_gap"] is None or row["min_gap"] >= row["report"].miet
        for row in rows
    )
    ok = miet_ok and gap_ok and elapsed < 120.0
    worst_margin = min(
        row["min_gap"] / row["report"].miet
        for row in rows
        if row["min_gap"] is not None
    )
    verdict(
        2,
        ok,
        f"measured inter-event gaps >= positive lower bound on {len(rows)} "
        f"draws x {{0, 0.5, 0.9}} drop rates (worst margin {worst_margin:.3e}, "
        f"{elapsed:.1f} s)",
    )
    assert miet_ok
    assert gap_ok
    assert elapsed < 120.0


def test_criterion_3_asymptotic_stability(family, verdict):
    rows = family["rows"]
    final_ok = True
    envelope_ok = True
    worst_final = 0.0
    for row in rows:
        x0_norm = float(np.linalg.norm(row["scenario"].x0))
        alpha = row["scenario"].trigger.alpha
        for tr in row["traces"]:
            final = float(np.linalg.norm(tr.x[-1]))
            worst_final = max(worst_final, final / x0_norm)
            if final > 0.01 * x0_norm:
                final_ok = False
            weighted = np.linalg.norm(tr.x, axis=1) * np.exp(alpha * tr.t)
            if float(np.max(weighted)) > row["envelope_bound"]:
                envelope_ok = False
    ok = final_ok and envelope_ok
    verdict(
        3,
        ok,
        "every run contracts below 1% of the initial norm and stays inside "
        f"the exponential envelope (worst final ratio {worst_final:.3e})",
    )
    assert final_ok
    assert envelope_ok


def test_criterion_4_zoh_error_bound(verdict):
    scn = dataclasses.replace(
        le.vehicle_preset(), estimator=EstimatorKind.ZERO_ORDER_HOLD
    )
    tr = simulate(scn)
    rep = analyze_scenario_zoh(scn, tr)
    check = verify_ec_bound(tr, rep.Delta_zoh, scn.trigger)
    verdict(
        4,
        check.ok,
        "hold-estimator error within Delta_zoh*beta*exp(-alpha t)+1e-9 on the "
        f"worst-case preset (max ratio {check.max_ratio:.3e})",
    )
    assert check.ok


def test_criterion_5_paired_estimator_comparison(verdict):
    wins = 0
    for i in range(20):
        script = random_drop_script(5, 0.5, 20000, seed=i)
        policy = ChannelPolicy(M=5, mode=ChannelMode.SCRIPTED, script=script)
        scn = dataclasses.replace(le.vehicle_preset(i + 1), channel=policy)
        mb = simulate(scn)
        zoh = simulate(
            dataclasses.replace(scn, estimator=EstimatorKind.ZERO_ORDER_HOLD)
        )
        if zoh.triggers.size >= mb.triggers.size:
            wins += 1
    ok = wins >= 18
    verdict(
        5,
        ok,
        f"hold estimator retriggers at least as often in {wins}/20 paired "
        "identical-drop runs",
    )
    assert wins >= 18


def _offer_storm(total_target: int) -> tuple[int, bool]:
    """Randomized channel offers; returns (count, cap_never_violated)."""
    rng = np.random.default_rng(2024)
    count = 0
    ok = True
    while count < total_target:
        m = int(rng.integers(2, 9))
        mode = rng.choice(["bernoulli", "worst_case", "scripted"])
        length = int(rng.integers(50, 400))
        if mode == "bernoulli":
            policy = ChannelPolicy(
                M=m, mode=ChannelMode.BERNOULLI,
                p=float(rng.random()), seed=int(rng.integers(0, 2**31)),
            )
        elif mode == "worst_case":
            policy = ChannelPolicy(M=m, mode=ChannelMode.WORST_CASE)
        else:
            script = random_drop_script(
                m, float(rng.random()), length, seed=int(rng.integers(0, 2**31))
            )
            policy = ChannelPolicy(M=m, mode=ChannelMode.SCRIPTED, script=script)
        state = ChannelState()
        run = 0
        for _ in range(length):
            outcome, state = channel_offer(policy, state)
            run = run + 1 if outcome is Outcome.DROPPED else 0
            if run > m - 1:
                ok = False
            count += 1
    return count, ok


def _random_scenarios(n_sims: int):
    rng = np.random.default_rng(4096)
    for _ in range(n_sims):
        seed = int(rng.integers(1, 10_000))
        beta = float(rng.uniform(0.3, 1.0))
        alpha = float(rng.uniform(0.1, 0.4))
        m = int(rng.integers(2, 7))
        mode = rng.choice(["bernoulli", "worst_case", "scripted"])
        if mode == "bernoulli":
            chan = ChannelPolicy(
                M=m, mode=ChannelMode.BERNOULLI,
                p=float(rng.random()), seed=int(rng.integers(0, 2**31)),
            )
        elif mode == "worst_case":
            chan = ChannelPolicy(M=m, mode=ChannelMode.WORST_CASE)
        else:
            chan = ChannelPolicy(
                M=m, mode=ChannelMode.SCRIPTED,
                script=random_drop_script(
                    m, float(rng.random()), 5000, seed=int(rng.integers(0, 2**31))
                ),
            )
        kind = (
            EstimatorKind.MODEL_BASED
            if rng.random() < 0.5
            else EstimatorKind.ZERO_ORDER_HOLD
        )
        yield dataclasses.replace(
            le.vehicle_preset(seed),
            trigger=TriggerConfig(beta=beta, alpha=alpha),
            channel=chan,
            estimator=kind,
            t_max=10.0,
        )


def test_criterion_6_protocol_invariants(verdict):
    offers, cap_ok = _offer_storm(10_000)

    drops_ok = subset_ok = soundness_ok = reset_ok = sync_ok = True
    sims = 0
    for scn in _random_scenarios(50):
        tr = simulate(scn)
        sims += 1
        m = scn.channel.M
        flags = tr.delivered[tr.triggered]
        run = 0
        for got in flags:
            run = 0 if got else run + 1
            if run > m - 1:
                drops_ok = False
        if not set(tr.deliveries.tolist()) <= set(tr.triggers.tolist()):
            subset_ok = False
        quiet = ~tr.triggered
        if not np.all(tr.e_s_norm[quiet] <= tr.threshold[quiet] + 1e-9):
            soundness_ok = False
        for i in np.flatnonzero(tr.triggered):
            j = i + 1
            if tr.e_s_norm[j] != 0.0 or not np.array_equal(tr.x_s[j], tr.x[j]):
                reset_ok = False
            if tr.delivered[i] and not np.array_equal(tr.x_c[j], tr.x_s[j]):
                sync_ok = False
        for d in tr.deliveries:
            later = tr.triggers[tr.triggers > d]
            hi = later[0] if later.size else tr.t[-1]
            mask = (tr.t > d) & (tr.t <= hi) & ~tr.triggered
            if mask.any() and not np.array_equal(tr.x_c[mask], tr.x_s[mask]):
                sync_ok = False
    ok = cap_ok and drops_ok and subset_ok and soundness_ok and reset_ok and sync_ok
    verdict(
        6,
        ok,
        f"zero protocol violations over {offers} randomized offers and "
        f"{sims} randomized simulations",
    )
    assert cap_ok, "consecutive-drop cap violated"
    assert drops_ok, "drop run exceeded M-1 inside a trace"
    assert subset_ok, "delivery without a trigger"
    assert soundness_ok, "sensor error above threshold between events"
    assert reset_ok, "trigger reset not exact"
    assert sync_ok, "copies out of sync on a post-delivery window"


def test_criterion_7_numerics_oracles(verdict):
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    for _ in range(100):
        a = rng.normal(size=(4, 4))
        t = float(rng.uniform(0.1, 2.0))
        got = mat_exp(a, t)
        ref = taylor_expm(a, t)
        rel = float(
            np.linalg.norm(got - ref, np.inf) / max(1.0, np.linalg.norm(ref, np.inf))
        )
        worst_rel = max(worst_rel, rel)
    expm_ok = worst_rel <= 1e-8

    envelope_ok = True
    for k in range(10):
        a = rng.normal(size=(4, 4))
        a = a - (np.max(np.linalg.eigvals(a).real) + 0.2) * np.eye(4)
        env = decay_envelope(a)
        ts = np.sort(rng.uniform(0.0, 12.0, 200))
        for t, bound in zip(ts, env.c * np.exp(-env.rate * ts)):
            if np.linalg.norm(mat_exp(a, float(t)), 2) > bound + 1e-9:
                envelope_ok = False

    drawn = le.vehicle_preset(1)
    rep = stable_subspace_residual(drawn.plant, drawn.model, drawn.gain, drawn.x0)
    residual_ok = rep.residual > 1e-6
    covariance_ok = True
    for seed in (1, 2, 3):
        scn = le.vehicle_preset(seed)
        base = stable_subspace_residual(scn.plant, scn.model, scn.gain, scn.x0)
        for scale in (0.5, 2.0, 7.5):
            scaled = stable_subspace_residual(
                scn.plant, scn.model, scn.gain, scale * scn.x0
            )
            if abs(scaled.residual - scale * base.residual) > 1e-6 * scale * max(
                1e-12, base.residual
            ):
                covariance_ok = False

    ok = expm_ok and envelope_ok and residual_ok and covariance_ok
    verdict(
        7,
        ok,
        f"matrix exponential within {worst_rel:.2e} of the series oracle, "
        "envelopes hold on fresh grids, membership residual "
        f"{rep.residual:.3e} > 1e-6 and scales linearly",
    )
    assert expm_ok
    assert envelope_ok
    assert residual_ok
    assert covariance_ok


def test_criterion_8_byte_identical_traces(golden_scn, tmp_path, verdict):
    a = tmp_path / "first.trace.csv"
    b = tmp_path / "second.trace.csv"
    save_trace(simulate(golden_scn), str(a))
    save_trace(simulate(golden_scn), str(b))
    ok = a.read_bytes() == b.read_bytes()
    verdict(
        8,
        ok,
        f"two runs of the seeded scenario serialize to identical bytes "
        f"({a.stat().st_size} each)",
    )
    assert ok


def test_acceptance_summary_sanity(family):
    """The family underpinning criteria 2-3 actually exercised the channel."""
    rows = family["rows"]
    assert len(rows) == 50
    total_triggers = sum(
        tr.triggers.size for row in rows for tr in row["traces"]
    )
    assert total_triggers > 1000
    stats = summarize(rows[0]["traces"][0], rows[0]["scenario"].trigger)
    assert stats.trigger_count == rows[0]["traces"][0].triggers.size
