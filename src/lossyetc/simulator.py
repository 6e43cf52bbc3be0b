"""Hybrid closed-loop simulator with exact inter-event flow.

The integrator stacks the plant state x, the estimator discrepancy
w = x_s - x_c, and the controller copy x_c.  Tracking the discrepancy rather
than the sensor copy itself makes synchronization structurally exact: after a
delivery w is the zero vector and stays bit-for-bit zero until the next
trigger, so the two estimator copies compare equal on every synchronized
stretch.  Between events the stack evolves linearly; sample-to-sample
propagation is a cached matrix-vector product and threshold crossings are
localized by dyadic bisection on the same exact flow, so no integration error
enters the bound checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import mat_exp
from .system_model import (
    EstimatorKind,
    Gain,
    ModelError,
    NominalModel,
    Plant,
    closed_loop,  # unused here: perfbench/tracer.py counts generator builds through it
    gamma_matrix,
    gamma_zoh,
)
from .trigger_channel import (
    ChannelPolicy,
    ChannelState,
    Outcome,
    TriggerConfig,
    channel_offer,
    threshold_value,
)

# Abort threshold for event accumulation; a gap this small signals a
# numerically degenerate scenario rather than genuine dynamics.
ZENO_GAP = 1e-12

_BATCH = 256
_MAX_BISECT_LEVELS = 64


class SimulationError(RuntimeError):
    """Simulation cannot proceed (event accumulation or numerics failure)."""


@dataclass(frozen=True)
class Scenario:
    """Complete, immutable description of one closed-loop experiment.

    Validation happens at construction and raises ModelError naming the field
    at fault: dimensional consistency plus the sampling parameters ordered so
    the event bracketing resolution assumptions hold (sample_dt at most
    t_max/10, event_tol at most sample_dt/100).  Stability is deliberately not required here; the bounds
    layer imposes its own hypotheses where the certificates need them.
    """

    plant: Plant
    model: NominalModel
    gain: Gain
    estimator: EstimatorKind
    trigger: TriggerConfig
    channel: ChannelPolicy
    x0: np.ndarray
    t_max: float
    sample_dt: float = 1e-3
    event_tol: float = 1e-9

    def __post_init__(self):
        n, m = self.plant.n, self.plant.m
        if self.model.n != n:
            raise ModelError(
                "model",
                f"model dimension {self.model.n} does not match plant dimension {n}",
            )
        if self.model.B_hat.shape != self.plant.B.shape:
            raise ModelError(
                "model",
                f"model input shape {self.model.B_hat.shape} does not match "
                f"plant input shape {self.plant.B.shape}",
            )
        if self.gain.K.shape != (m, n):
            raise ModelError(
                "gain", f"gain shape {self.gain.K.shape} incompatible with ({m}, {n})"
            )
        if not isinstance(self.estimator, EstimatorKind):
            raise ModelError(
                "estimator", f"estimator must be an EstimatorKind, got {self.estimator!r}"
            )
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.size != n:
            raise ModelError("x0", f"x0 has size {x0.size}, expected {n}")
        if not np.all(np.isfinite(x0)):
            raise ModelError("x0", "x0 must be finite")
        x0 = x0.copy()
        x0.flags.writeable = False
        object.__setattr__(self, "x0", x0)
        if not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise ModelError(
                "t_max", f"t_max must be positive and finite, got {self.t_max!r}"
            )
        if not (0.0 < self.sample_dt <= self.t_max / 10.0):
            raise ModelError(
                "sample_dt", f"sample_dt must lie in (0, t_max/10], got {self.sample_dt!r}"
            )
        if not (0.0 < self.event_tol <= self.sample_dt / 100.0):
            raise ModelError(
                "event_tol",
                f"event_tol must lie in (0, sample_dt/100], got {self.event_tol!r}",
            )

    @property
    def n(self) -> int:
        return self.plant.n


@dataclass(frozen=True)
class Trace:
    """Dense record of one run: per-sample columns plus the event instants.

    Event instants appear twice in the sample rows: once just before the jump
    (flagged in `triggered` / `delivered`) and once just after, at the next
    representable time, so both one-sided values of every signal are recorded.
    """

    t: np.ndarray
    x: np.ndarray
    x_s: np.ndarray
    x_c: np.ndarray
    e_s_norm: np.ndarray
    e_c_norm: np.ndarray
    threshold: np.ndarray
    triggered: np.ndarray
    delivered: np.ndarray
    triggers: np.ndarray
    deliveries: np.ndarray

    @classmethod
    def from_table(
        cls, table: np.ndarray, triggered: np.ndarray, delivered: np.ndarray
    ) -> Trace:
        """Read-only trace over the rows [t, x, x_s, x_c, es, ec, threshold].

        The table is 3n + 4 columns wide, in the float-column order of the
        trace CSV; the two boolean row flags come separately.  Event instants
        are the times of the flagged rows.
        """
        n = (table.shape[1] - 4) // 3
        t = table[:, 0]
        arrays = dict(
            t=t,
            x=table[:, 1 : 1 + n],
            x_s=table[:, 1 + n : 1 + 2 * n],
            x_c=table[:, 1 + 2 * n : 1 + 3 * n],
            e_s_norm=table[:, 1 + 3 * n],
            e_c_norm=table[:, 2 + 3 * n],
            threshold=table[:, 3 + 3 * n],
            triggered=triggered,
            delivered=delivered,
            triggers=t[triggered],
            deliveries=t[delivered],
        )
        for arr in arrays.values():
            arr.flags.writeable = False
        return cls(**arrays)

    @property
    def num_samples(self) -> int:
        return self.t.shape[0]


@dataclass(frozen=True)
class SummaryStats:
    """Interval statistics and envelope figures computed from one trace."""

    trigger_count: int
    delivery_count: int
    min_inter_event: float | None
    mean_inter_event: float | None
    min_receive_interval: float | None
    mean_receive_interval: float | None
    final_state_norm: float
    empirical_amplification: float


class _Flow:
    """Exact propagators of one run's stacked flow, all from one generator.

    Built once per run: the generator, the cumulative powers of the grid
    step that the batches apply, and the grid step's bisection halvings.
    The held blocks of the hold estimator are exact identities and the
    discrepancy block never couples to the rest, so a drift-free stretch
    stays drift-free to the last bit.
    """

    def __init__(self, scn: Scenario):
        self.n = n = scn.n
        self.tol = scn.event_tol
        self.model_based = scn.estimator is EstimatorKind.MODEL_BASED
        # One stacked (x, x_c) generator per run; every propagator derives from it.
        if self.model_based:
            self.gen = gamma_matrix(scn.plant, scn.model, scn.gain)
        else:
            self.gen = gamma_zoh(scn.plant, scn.gain)
        # Every propagator starts as a copy of this: zeros, plus the hold
        # estimator's identity blocks for w and x_c.
        self.blank = np.zeros((3 * n, 3 * n))
        if not self.model_based:
            self.blank[n:, n:] = np.eye(2 * n)
        p_step = self.step(scn.sample_dt)
        self.grid_halvings = self.halvings(scn.sample_dt)
        # Cumulative powers: powers[k] advances the stack k+1 grid steps.
        self.powers = np.empty((_BATCH, 3 * n, 3 * n))
        self.powers[0] = p_step
        for k in range(1, _BATCH):
            self.powers[k] = p_step @ self.powers[k - 1]

    def step(self, dt: float) -> np.ndarray:
        """exp(dt * stacked generator), assembled block-wise."""
        n = self.n
        p = self.blank.copy()
        q = mat_exp(self.gen, dt)
        p[:n, :n] = q[:n, :n]
        p[:n, 2 * n :] = q[:n, n:]
        if self.model_based:
            # w and x_c share the nominal closed-loop block of the propagator.
            p[2 * n :, 2 * n :] = q[n:, n:]
            p[n : 2 * n, n : 2 * n] = q[n:, n:]
        return p

    def halvings(self, width: float) -> list[np.ndarray]:
        """Propagators over width/2, width/4, ... until a level reaches event_tol."""
        if width <= self.tol:
            return []
        levels = min(_MAX_BISECT_LEVELS, int(math.ceil(math.log2(width / self.tol))) + 1)
        return [self.step(width * 0.5 ** (i + 1)) for i in range(levels)]


def _errors(n: int, z: np.ndarray) -> tuple[float, float]:
    """(||e_s||, ||e_c||); sqrt(e.e) is np.linalg.norm's own formula for a vector."""
    e_c = z[2 * n :] - z[:n]
    e_s = z[n : 2 * n] + e_c
    return math.sqrt(e_s.dot(e_s)), math.sqrt(e_c.dot(e_c))


def _bisect_step(
    scn: Scenario,
    t_lo: float,
    z_lo: np.ndarray,
    width: float,
    z_hi: np.ndarray,
    halvings: list[np.ndarray],
    tol: float,
) -> tuple[float, np.ndarray]:
    """Localize the crossing inside one flow step.

    Invariant: margin <= 0 at the moving lower end, > 0 at the upper end.
    Each level halves the bracket with a single matrix-vector product and
    forms only the sensor error, with the same operations as _errors and
    threshold_value, so every comparison matches theirs bit for bit.
    Returns the upper end, where the threshold is strictly exceeded.
    """
    n = scn.n
    beta, alpha = scn.trigger.beta, scn.trigger.alpha
    lo_off = 0.0
    hi_off = width
    t_hi = t_lo + width
    for h in halvings:
        if hi_off - lo_off <= tol:
            break
        mid_off = lo_off + (hi_off - lo_off) * 0.5
        z_mid = h.dot(z_lo)
        t_mid = t_lo + mid_off
        e_s = z_mid[n : 2 * n] + (z_mid[2 * n :] - z_mid[:n])
        if math.sqrt(e_s.dot(e_s)) > beta * np.exp(-alpha * t_mid):
            hi_off = mid_off
            t_hi = t_mid
            z_hi = z_mid
        else:
            lo_off = mid_off
            z_lo = z_mid
    return t_hi, z_hi


def simulate(scn: Scenario) -> Trace:
    """Run one closed-loop experiment and return its dense trace.

    Between events the stacked state advances by exact propagators in blocks
    of up to _BATCH grid steps; the first sample violating the threshold
    yields a one-step bracket that dyadic bisection narrows to event_tol.
    At each localized trigger the sensor copy resets, one packet is offered
    to the channel, and a delivery additionally resets the controller copy at
    the same instant.  Sample rows are recorded on the sample_dt grid plus
    one row on each side of every event.  Deterministic for a fixed scenario,
    seed included.
    """
    n = scn.n
    dt = scn.sample_dt
    n_full = int(math.floor(scn.t_max / dt + 1e-9))
    grid = np.arange(n_full + 1, dtype=float) * dt
    if grid[-1] < scn.t_max - 1e-9 * max(1.0, scn.t_max):
        grid = np.append(grid, scn.t_max)
    flow = _Flow(scn)

    z = np.concatenate([scn.x0, np.zeros(n), scn.x0])
    ch_state = ChannelState()
    # Rows [t, x, x_s, x_c, es, ec, threshold]; the first `size` are filled.
    table = np.empty((grid.shape[0] + 256, 3 * n + 4))
    size = 0
    trigger_rows: list[int] = []
    delivery_rows: list[int] = []
    last_trigger = -math.inf
    head = _BATCH  # rows in the first einsum of the next batch

    def append(t, x, x_s, x_c, es, ec, thr):
        """Write one row (scalar t) or a block of rows, growing the table."""
        nonlocal table, size
        block = isinstance(t, np.ndarray)
        k = len(t) if block else 1
        if size + k > table.shape[0]:
            # Copy only the filled rows: spare capacity stays untouched.
            grown = np.empty((max(size + k, 2 * table.shape[0]), table.shape[1]))
            grown[:size] = table[:size]
            table = grown
        # Columns first: a block's rows transposed, or the one row itself.
        cols = table[size : size + k].T if block else table[size]
        cols[0] = t
        cols[1 : 1 + n] = x.T
        cols[1 + n : 1 + 2 * n] = x_s.T
        cols[1 + 2 * n : 1 + 3 * n] = x_c.T
        cols[1 + 3 * n] = es
        cols[2 + 3 * n] = ec
        cols[3 + 3 * n] = thr
        size += k

    # Row 0 at t = 0.
    es0, ec0 = _errors(n, z)
    append(
        0.0, z[:n], z[n : 2 * n] + z[2 * n :], z[2 * n :], es0, ec0,
        float(threshold_value(0.0, scn.trigger)),
    )

    next_idx = 1  # index into grid of the next row to produce
    t_cursor = 0.0
    last = grid.shape[0] - 1
    uniform_until = n_full  # grid[i+1]-grid[i] == dt exactly for i < n_full

    # Each pass writes rows up to a grid point, or brackets the next event
    # in one step (t_cursor, z) .. (t_cursor + width, z_hi) and handles it.
    while next_idx <= last:
        if t_cursor == grid[next_idx - 1] and next_idx <= uniform_until:
            # Rows lo..hi-1 of the batch from its start state z_base: all of
            # them at once, or after an event first only `head` rows, then
            # the rest if the event did not recur there.
            batch = min(_BATCH, uniform_until - next_idx + 1)
            lo, hi = 0, min(head, batch)
            head = _BATCH
            z_base = z
            while lo < hi:
                zb = np.einsum("kij,j->ki", flow.powers[lo:hi], z_base)
                tb = grid[next_idx : next_idx + hi - lo]
                xb = zb[:, :n]
                xcb = zb[:, 2 * n :]
                xsb = zb[:, n : 2 * n] + xcb
                esb = np.linalg.norm(xsb - xb, axis=1)
                ecb = np.linalg.norm(xcb - xb, axis=1)
                thrb = threshold_value(tb, scn.trigger)
                bad = np.flatnonzero(esb > thrb)
                if bad.size:
                    break
                append(tb, xb, xsb, xcb, esb, ecb, thrb)
                z = zb[-1]
                t_cursor = tb[-1]
                next_idx += hi - lo
                lo, hi = hi, batch
            else:  # no row of the batch crossed the threshold
                continue
            j = int(bad[0])
            append(tb[:j], xb[:j], xsb[:j], xcb[:j], esb[:j], ecb[:j], thrb[:j])
            if j:
                t_cursor, z = tb[j - 1], zb[j - 1]
            next_idx += j
            width, z_hi, halvings = dt, zb[j], flow.grid_halvings
        else:
            # Off the uniform grid: partial step to the next grid time.
            target = grid[next_idx]
            width = target - t_cursor
            z_hi = flow.step(width).dot(z)
            es_t, ec_t = _errors(n, z_hi)
            thr_t = float(threshold_value(target, scn.trigger))
            if not es_t > thr_t:
                append(
                    target, z_hi[:n], z_hi[n : 2 * n] + z_hi[2 * n :], z_hi[2 * n :],
                    es_t, ec_t, thr_t,
                )
                z = z_hi
                t_cursor = target
                next_idx += 1
                continue
            halvings = flow.halvings(width)
        t_star, z_pre = _bisect_step(scn, t_cursor, z, width, z_hi, halvings, scn.event_tol)
        if t_star >= grid[next_idx]:
            # The event rows cover that sample: the bisection ended on the
            # grid point, or one ulp past it.
            next_idx += 1
        gap = t_star - last_trigger
        if gap < ZENO_GAP:
            raise SimulationError(
                f"inter-event gap {gap:.3e} below {ZENO_GAP:.0e} "
                f"at t={t_star:.6f}: event accumulation, aborting"
            )
        # The next event tends to come about as many rows on as this one did:
        # the next batch looks twice that far before it evaluates the rest.
        head = max(1, int(min(2.0 * gap / dt, _BATCH)))
        last_trigger = t_cursor = t_star
        es_pre, ec_pre = _errors(n, z_pre)
        xc_pre = z_pre[2 * n :]
        thr = float(threshold_value(t_star, scn.trigger))
        outcome, ch_state = channel_offer(scn.channel, ch_state)
        got = outcome is Outcome.DELIVERED
        trigger_rows.append(size)
        if got:
            delivery_rows.append(size)
        append(t_star, z_pre[:n], z_pre[n : 2 * n] + xc_pre, xc_pre, es_pre, ec_pre, thr)
        # Jumps: the sensor copy resets at every trigger; the controller copy
        # resets only on delivery.  In discrepancy coordinates:
        #   trigger:  w := x - x_c, delivery on top of it: x_c := x, w := 0.
        z = z_pre.copy()
        if got:
            z[n : 2 * n] = 0.0
            z[2 * n :] = z_pre[:n]
        else:
            z[n : 2 * n] = z_pre[:n] - z_pre[2 * n :]
        t_plus = math.nextafter(t_star, math.inf)
        # Post-jump sensor copy equals the plant state by definition of the
        # reset; record that value, not a reconstruction.
        append(
            t_plus, z[:n], z[:n], z[2 * n :], 0.0, 0.0 if got else ec_pre,
            float(threshold_value(t_plus, scn.trigger)),
        )

    triggered = np.zeros(size, dtype=bool)
    triggered[trigger_rows] = True
    delivered = np.zeros(size, dtype=bool)
    delivered[delivery_rows] = True
    return Trace.from_table(table[:size], triggered, delivered)


def summarize(tr: Trace, cfg: TriggerConfig) -> SummaryStats:
    """Interval statistics and the empirical amplification of one trace."""
    if tr.num_samples == 0:
        raise ValueError("empty trace")
    trig = tr.triggers
    deliv = tr.deliveries
    inter = np.diff(trig) if trig.size >= 2 else None
    recv = np.diff(deliv) if deliv.size >= 2 else None
    amp = float(np.max(tr.e_c_norm * np.exp(cfg.alpha * tr.t) / cfg.beta))
    return SummaryStats(
        trigger_count=int(trig.size),
        delivery_count=int(deliv.size),
        min_inter_event=float(np.min(inter)) if inter is not None else None,
        mean_inter_event=float(np.mean(inter)) if inter is not None else None,
        min_receive_interval=float(np.min(recv)) if recv is not None else None,
        mean_receive_interval=float(np.mean(recv)) if recv is not None else None,
        final_state_norm=float(np.linalg.norm(tr.x[-1])),
        empirical_amplification=amp,
    )
