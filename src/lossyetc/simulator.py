"""Hybrid closed-loop simulator with exact inter-event flow.

The integrator stacks the plant state x, the estimator discrepancy
w = x_s - x_c, and the controller copy x_c.  Tracking the discrepancy rather
than the sensor copy itself makes synchronization structurally exact: after a
delivery w is the zero vector and stays bit-for-bit zero until the next
trigger, so the two estimator copies compare equal on every synchronized
stretch.  Between events the stack evolves linearly; sample-to-sample
propagation is a cached matrix-vector product, and threshold crossings are
located by a first-crossing scan on a fixed time lattice of the same exact
flow, so no integration error enters the bound checks.  A run's propagators
and its sample grid are kept for the next runs of the process, keyed on the
exact values they derive from, so runs that share plant, model, gain, steps
and trigger build them once.  A run writes its trace table into private
anonymous memory pages that an earlier run's dead trace gave back, when one
did, so a warm process does not fault in a fresh table for every run.
"""

from __future__ import annotations

import functools
import math
import mmap
import threading
import weakref
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
# Table columns beyond the grid's for the event rows of a hold-estimator run,
# two per event, so that a typical run never grows the table: those runs take
# 1,734 to 2,138 such rows on the 50 family draws.  Model-based runs trigger
# about a tenth as often (at most 230 event rows there, worst case and
# Bernoulli alike), which the _BATCH spare columns hold.  Room a run does not
# write is never touched, so it costs address space, not memory, until a
# later run that reuses the table writes there.
_EVENT_ROOM = 16 * _BATCH
# Sub-points per round of the event scan: each round narrows a bracket _SCAN-fold.
_SCAN = 32
# Flows and sample grids kept per process, each keyed on exact values: two, as
# a sweep worker alternates the two estimators of one scenario.
_CACHE_ENTRIES = 2
# Trace tables of dead traces kept for the next runs (see _table): four, as
# the acceptance family and the certify_family benchmark keep four traces
# alive per draw.
_SPARE_TABLES = 4
_spares: list[mmap.mmap] = []
# Guards taking a spare; a finalizer that offers one back never takes it.
_spares_lock = threading.Lock()


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
    The float columns are rows of one column-major table (see from_table):
    t, e_s_norm, e_c_norm and threshold are contiguous 1-D rows, and x, x_s
    and x_c are transposed (samples, n) views of row blocks.
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

        The table is column-major: 3n + 4 rows of one entry per sample, in
        the float-column order of the trace CSV, each row contiguous.  Each
        1-D column is one table row, and x, x_s and x_c are transposed n-row
        blocks; the two boolean flags come separately.  Event instants are the
        times of the flagged samples.
        """
        n = (table.shape[0] - 4) // 3
        t = table[0]
        arrays = dict(
            t=t,
            x=table[1 : 1 + n].T,
            x_s=table[1 + n : 1 + 2 * n].T,
            x_c=table[1 + 2 * n : 1 + 3 * n].T,
            e_s_norm=table[1 + 3 * n],
            e_c_norm=table[2 + 3 * n],
            threshold=table[3 + 3 * n],
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
    """Exact propagators of one stacked flow, all from one generator.

    Built once per process for each estimator, generator, sample_dt and
    event_tol (see _flow): the grid step's cumulative powers for the batches,
    and the scan stacks: scan[r][j] advances (j + 1) * spacing[r] lattice
    units of sample_dt / _SCAN**R each, R rounds making a unit at most
    event_tol.  Runs share the arrays, which are read-only.  The hold
    estimator's held blocks are exact identities and the discrepancy block
    never couples to the rest, so a drift-free stretch stays drift-free to the
    last bit.  Matrix-vector products use ndarray.dot: for a C-contiguous
    matrix it makes the same BLAS gemv call as @, at less cost per call.
    """

    def __init__(
        self, estimator: EstimatorKind, gen: np.ndarray, sample_dt: float, event_tol: float
    ):
        self.n = n = gen.shape[0] // 2
        self.model_based = estimator is EstimatorKind.MODEL_BASED
        self.gen = gen  # the stacked (x, x_c) generator; every propagator derives from it
        # Propagators start as copies: zeros, plus the hold estimator's w, x_c identities.
        self.blank = np.zeros((3 * n, 3 * n))
        if not self.model_based:
            self.blank[n:, n:] = np.eye(2 * n)
        self.powers = self.powers_of(sample_dt, _BATCH)
        rounds = 1
        while sample_dt / _SCAN**rounds > event_tol:
            rounds += 1
        self.lattice = _SCAN**rounds  # lattice points per grid step
        self.unit = sample_dt / self.lattice
        self.spacing = [_SCAN ** (rounds - 1 - r) for r in range(rounds)]
        self.scan = [self.powers_of(s * self.unit, _SCAN) for s in self.spacing]
        # Rows E @ scan[r][j], where E z = w + x_c - x is the sensor error.
        self.scan_es = [
            (p[:, n : 2 * n] + p[:, 2 * n :] - p[:, :n]).reshape(-1, 3 * n)
            for p in self.scan
        ]
        for arr in (self.blank, self.powers, *self.scan, *self.scan_es):
            arr.flags.writeable = False

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

    def powers_of(self, dt: float, count: int) -> np.ndarray:
        """Cumulative powers of one step: out[k] advances the stack (k + 1) * dt."""
        out = np.empty((count, 3 * self.n, 3 * self.n))
        out[0] = self.step(dt)
        for k in range(1, count):
            out[k] = out[0] @ out[k - 1]
        return out

    def grid_rows(self, lo: int, hi: int, z: np.ndarray) -> np.ndarray:
        """States lo + 1 .. hi grid steps on from z, from one matrix product.

        The rows depend on the split: when 3n is not a multiple of 4, rows
        lo..hi can differ in the last bit from the same rows of a product
        from 0 (seen from n = 3 on), so where `simulate` splits a batch is
        part of a trace's bits.
        """
        return self.powers[lo:hi].reshape(-1, 3 * self.n).dot(z).reshape(hi - lo, -1)

    def advance(self, z: np.ndarray, units: int) -> np.ndarray:
        """z carried 0 < units < lattice on, one product per base-_SCAN digit."""
        for stack in reversed(self.scan):
            units, digit = divmod(units, _SCAN)
            if digit:
                z = stack[digit - 1].dot(z)
        return z

    def locate(self, t_g, k_lo, z_lo, k_hi, z_hi, es_hi, cfg: TriggerConfig):
        """(offset, state, ||e_s||) of the first lattice point in (k_lo, k_hi] over
        the threshold, offsets counting units from the grid time t_g.

        k_hi (state z_hi, sensor error es_hi) always counts as crossing.  Round
        r takes the sub-points k_lo + (j + 1) * spacing[r] below k_hi in one
        product and narrows the bracket to the cell of the first that crosses;
        a round with no sub-point below k_hi is skipped.
        """
        n, unit, beta, alpha = self.n, self.unit, cfg.beta, cfg.alpha
        hi = None  # (propagator, state) whose product is z_hi, once the upper end moved
        for s, stack, e_stack in zip(self.spacing, self.scan, self.scan_es):
            m = -(-(k_hi - k_lo) // s) - 1  # sub-points below k_hi, at most _SCAN - 1
            if not m:
                continue
            e_s = e_stack[: m * n].dot(z_lo)
            e_s *= e_s
            # The threshold falls with t: only a sub-point whose squared error
            # beats the threshold at k_hi, less a margin far above rounding, can
            # cross, so the screen may use math.exp; the exact test is
            # threshold_value's formula, np.exp included.
            floor = (beta * math.exp(-alpha * (t_g + k_hi * unit)) * (1.0 - 1e-9)) ** 2
            j = m
            for c, sq in enumerate(np.add.reduce(e_s.reshape(m, n), 1).tolist()):
                if sq > floor and (es := math.sqrt(sq)) > beta * np.exp(
                    -alpha * (t_g + (k_lo + (c + 1) * s) * unit)
                ):
                    j = c
                    break
            if j < m:  # sub-point j crossed: the upper end moves to it
                k_hi, es_hi, hi = k_lo + (j + 1) * s, es, (stack[j], z_lo)
            if j and s > 1:  # the lower end moves to sub-point j - 1 for the next round
                k_lo, z_lo = k_lo + j * s, stack[j - 1].dot(z_lo)
        if hi is not None:
            z_hi = hi[0].dot(hi[1])
        return k_hi, z_hi, es_hi


def _table(rows: int, cols: int) -> np.ndarray:
    """An uninitialized rows x cols float table in pages reused across runs.

    The table is a prefix of the smallest spare that holds it.  When no spare
    does, fresh pages are mapped and every spare, all too small for this
    table, is unmapped.  One np.frombuffer array wraps the pages, and every
    view of the table, so every column of a Trace made from it, keeps that
    array alive; once the last view dies, a finalizer offers the pages back
    as a spare.  So a live trace's pages are never handed out again, and a
    run that reuses a spare writes pages that are resident already.  Fresh
    pages are private anonymous memory, outside the heap; private, not
    shared, so a forked child that writes to pages it inherited writes its
    own copy of them, never its parent's or another child's.
    """
    nbytes = rows * cols * 8
    with _spares_lock:
        spares = list(_spares)  # a finalizer may append to _spares meanwhile
        fits = [mm for mm in spares if len(mm) >= nbytes]
        pages = (min(fits, key=len) if fits else
                 mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS))
        for mm in [pages] if fits else spares:
            _spares.remove(mm)
    flat = np.frombuffer(pages, count=rows * cols)
    weakref.finalize(flat, _offer_spare, pages).atexit = False
    return flat.reshape(rows, cols)


def _offer_spare(pages: mmap.mmap) -> None:
    """Keep the pages of a dead table as a spare, up to _SPARE_TABLES of them.

    Runs wherever the table's last view dies, possibly while this thread
    holds _spares_lock, so it takes no lock: it only appends.  Pages it does
    not keep are unmapped with their last reference.
    """
    if len(_spares) < _SPARE_TABLES:
        _spares.append(pages)


def _flow(scn: Scenario) -> _Flow:
    """The flow of scn, shared by every run with the same key in the process.

    The stacked generator is built on every call; the key is its shape and
    exact bytes, the estimator, sample_dt and event_tol.
    """
    if scn.estimator is EstimatorKind.MODEL_BASED:
        gen = gamma_matrix(scn.plant, scn.model, scn.gain)
    else:
        gen = gamma_zoh(scn.plant, scn.gain)
    return _cached_flow(scn.estimator, gen.shape, gen.tobytes(), scn.sample_dt, scn.event_tol)


@functools.lru_cache(maxsize=_CACHE_ENTRIES)
def _cached_flow(
    estimator: EstimatorKind, shape: tuple[int, int], data: bytes,
    sample_dt: float, event_tol: float,
) -> _Flow:
    return _Flow(estimator, np.frombuffer(data).reshape(shape), sample_dt, event_tol)


@functools.lru_cache(maxsize=_CACHE_ENTRIES)
def _grid(
    t_max: float, sample_dt: float, cfg: TriggerConfig
) -> tuple[int, np.ndarray, np.ndarray]:
    """(n_full, grid, grid_thr): the sample times and their thresholds, read-only.

    grid[i + 1] - grid[i] == sample_dt exactly for i < n_full.  Every grid
    row's threshold comes from one call: np.exp works elementwise, so each
    entry has the bits of a call on its time alone.  Kept per process, keyed
    on t_max, sample_dt and the trigger's beta and alpha.
    """
    n_full = int(math.floor(t_max / sample_dt + 1e-9))
    grid = np.arange(n_full + 1, dtype=float) * sample_dt
    if grid[-1] < t_max - 1e-9 * max(1.0, t_max):
        grid = np.append(grid, t_max)
    grid_thr = threshold_value(grid, cfg)
    grid.flags.writeable = grid_thr.flags.writeable = False
    return n_full, grid, grid_thr


def _column_sums(sq: np.ndarray) -> np.ndarray:
    """Sums down the columns of sq, each in the order numpy sums a contiguous row.

    np.add.reduce(rows, 1) sums a row of fewer than 8 entries in order, as a
    sum down axis 0 does; from 8 entries on it sums pairwise, so wider states
    are summed as contiguous rows of a transposed copy.
    """
    if sq.shape[0] < 8:
        return np.add.reduce(sq, 0)
    return np.add.reduce(np.ascontiguousarray(np.moveaxis(sq, 0, -1)), -1)


def _errors(n: int, z: np.ndarray) -> tuple[float, float]:
    """(||e_s||, ||e_c||); sqrt(e.e) is np.linalg.norm's own formula for a vector."""
    e_c = z[2 * n :] - z[:n]
    e_s = z[n : 2 * n] + e_c
    return math.sqrt(e_s.dot(e_s)), math.sqrt(e_c.dot(e_c))


def simulate(scn: Scenario) -> Trace:
    """Run one closed-loop experiment and return its dense trace.

    Between events the stacked state advances by exact propagators in blocks
    of up to _BATCH grid steps.  The first sample over the threshold brackets
    the event in one grid step, which _Flow.locate scans for the first crossing
    on a lattice of spacing at most event_tol.  "First" holds to a resolution of
    sample_dt / _SCAN: an excursion over the threshold narrower than that, earlier
    in the same step, can be missed.  At each trigger the sensor copy resets and
    one packet is offered to the channel; a delivery also resets the controller
    copy.  Rows lie on the sample_dt grid plus one on each side of every event.
    Deterministic for a fixed scenario, seed included.
    """
    n = scn.n
    dt = scn.sample_dt
    cfg = scn.trigger
    n_full, grid, grid_thr = _grid(scn.t_max, dt, cfg)
    flow = _flow(scn)

    z = np.concatenate([scn.x0, np.zeros(n), scn.x0])
    ch_state = ChannelState()
    trigger_rows, delivery_rows = [], []
    last_trigger = -math.inf
    # Rows in the first product of the next batch.  The split rule fixes bits:
    # for 3n not a multiple of 4 a split batch's rows can differ in the last
    # bit from one product's (see _Flow.grid_rows).
    head = _BATCH

    def put(col, t, z, es, ec, thr):
        """Write the stacked state z at time t into the table column col."""
        col[1 : 1 + 3 * n] = z
        col[1 + n : 1 + 2 * n] += z[2 * n :]  # x_s = w + x_c
        col[0], col[1 + 3 * n], col[2 + 3 * n], col[3 + 3 * n] = t, es, ec, thr

    # Column-major rows [t, x, x_s, x_c, es, ec, threshold], one per float
    # column of the trace CSV; the first `size` columns are filled.
    room = 0 if flow.model_based else _EVENT_ROOM
    table = _table(3 * n + 4, grid.shape[0] + _BATCH + room)
    put(table[:, 0], 0.0, z, *_errors(n, z), grid_thr[0])
    size = 1

    def reserve(k):
        """Columns size .. size + k - 1 of the table, growing it if needed."""
        nonlocal table
        if size + k > table.shape[1]:
            # An eighth more, not double, from the heap: numpy advises huge
            # pages for a table this large, and where the kernel takes that
            # advice the unwritten tail of every row of a doubled table would
            # be resident.  The outgrown table goes back to the spares.
            grown = np.empty((table.shape[0], max(size + k, table.shape[1] * 9 // 8)))
            grown[:, :size] = table[:, :size]
            table = grown
        return table[:, size : size + k]

    next_idx = 1  # index into grid of the next row to produce
    k_cursor = 0  # lattice offset of the state z from grid[next_idx - 1]

    # Each pass writes rows up to a grid point, or brackets the next event
    # between lattice offsets (k_cursor, z) and (k_hi, z_hi) from
    # grid[next_idx - 1] and handles it.
    while next_idx < grid.shape[0]:
        if k_cursor == 0 and next_idx <= n_full:
            # Rows lo..hi-1 of the batch from its start state z_base: all of
            # them at once, or after an event first only `head` rows, then
            # the rest if the event did not recur there.
            batch = min(_BATCH, n_full - next_idx + 1)
            lo, hi = 0, min(head, batch)
            head = _BATCH
            z_base = z
            while lo < hi:
                zb = flow.grid_rows(lo, hi, z_base)
                cols = reserve(hi - lo)
                cols[0] = grid[next_idx : next_idx + hi - lo]
                cols[1 : 1 + 3 * n] = zb.T
                cols[1 + n : 1 + 2 * n] += cols[1 + 2 * n : 1 + 3 * n]  # x_s = w + x_c
                # e_s and e_c at once: rows (x_s, x_c) less x, as (n, 2, rows).
                d = cols[1 + n : 1 + 3 * n].reshape(2, n, -1) - cols[1 : 1 + n]
                d *= d
                es = np.sqrt(_column_sums(d.swapaxes(0, 1)), out=cols[1 + 3 * n : 3 + 3 * n])[0]
                thr = grid_thr[next_idx : next_idx + hi - lo]
                cols[3 + 3 * n] = thr
                bad = (es > thr).nonzero()[0]
                if bad.size:
                    break
                size += hi - lo
                z = zb[-1]
                next_idx += hi - lo
                lo, hi = hi, batch
            else:  # no row of the batch crossed the threshold
                continue
            # Keep the columns before the crossing; the rest get overwritten.
            j = int(bad[0])
            size += j
            if j:
                z = zb[j - 1]
            next_idx += j
            k_hi, z_hi, es_hi = flow.lattice, zb[j], es.item(j)
        else:
            # Off the uniform grid: partial step to the next grid time.
            if next_idx <= n_full:
                k_hi, z_hi = flow.lattice, flow.advance(z, flow.lattice - k_cursor)
            else:  # the last step, to a t_max off the grid
                step = grid[next_idx] - grid[next_idx - 1]
                k_hi = math.ceil(step / flow.unit)
                z_hi = flow.step(step - k_cursor * flow.unit) @ z
            es_hi, ec_hi = _errors(n, z_hi)
            if not es_hi > grid_thr[next_idx]:
                put(reserve(1)[:, 0], grid[next_idx], z_hi, es_hi, ec_hi, grid_thr[next_idx])
                size += 1
                z, k_cursor, next_idx = z_hi, 0, next_idx + 1
                continue
        t_g = grid.item(next_idx - 1)
        k_cursor, z_pre, es_pre = flow.locate(t_g, k_cursor, z, k_hi, z_hi, es_hi, cfg)
        if k_cursor == k_hi:
            # The event is the grid point itself; its rows replace that sample.
            t_star, k_cursor = grid.item(next_idx), 0
            next_idx += 1
        else:
            t_star = t_g + k_cursor * flow.unit
        gap = t_star - last_trigger
        if gap < ZENO_GAP:
            raise SimulationError(
                f"inter-event gap {gap:.3e} below {ZENO_GAP:.0e} "
                f"at t={t_star:.6f}: event accumulation, aborting"
            )
        # The next event tends to come about as many rows on as this one did:
        # the next batch looks twice that far before it evaluates the rest.
        head = max(1, int(min(2.0 * gap / dt, _BATCH)))
        last_trigger = t_star
        outcome, ch_state = channel_offer(scn.channel, ch_state)
        got = outcome is Outcome.DELIVERED
        trigger_rows.append(size)
        if got:
            delivery_rows.append(size)
        # The pre-jump row keeps the sensor error that the locator compared.
        e_c = z_pre[2 * n :] - z_pre[:n]
        ec_pre = math.sqrt(e_c.dot(e_c))
        cols = reserve(2)
        put(cols[:, 0], t_star, z_pre, es_pre, ec_pre, threshold_value(t_star, cfg))
        # Jumps: the sensor copy resets at every trigger; the controller copy
        # resets only on delivery.  In discrepancy coordinates:
        #   trigger:  w := x - x_c, delivery on top of it: x_c := x, w := 0.
        z = z_pre.copy()
        if got:
            z[n : 2 * n] = 0.0
            z[2 * n :] = z_pre[:n]
        else:
            np.subtract(z_pre[:n], z_pre[2 * n :], out=z[n : 2 * n])
        # The post-jump sensor copy equals the plant state by definition of
        # the reset; record that value, not a reconstruction.
        t_plus = math.nextafter(t_star, math.inf)
        post = cols[:, 1]
        post[1 : 1 + 3 * n] = z
        post[1 + n : 1 + 2 * n] = z_pre[:n]
        post[0], post[1 + 3 * n], post[2 + 3 * n], post[3 + 3 * n] = (
            t_plus, 0.0, 0.0 if got else ec_pre, threshold_value(t_plus, cfg))
        size += 2

    triggered, delivered = np.zeros((2, size), dtype=bool)
    triggered[trigger_rows] = True
    delivered[delivery_rows] = True
    return Trace.from_table(table[:, :size], triggered, delivered)


def summarize(tr: Trace, cfg: TriggerConfig) -> SummaryStats:
    """Interval statistics and the empirical amplification of one trace."""
    if tr.num_samples == 0:
        raise ValueError("empty trace")
    trig = tr.triggers
    deliv = tr.deliveries
    inter = np.diff(trig) if trig.size >= 2 else None
    recv = np.diff(deliv) if deliv.size >= 2 else None
    # One trace-length temporary, in place, with the operations of
    # e_c_norm * np.exp(alpha * t) / beta in their order.
    amp = np.multiply(cfg.alpha, tr.t)
    np.exp(amp, out=amp)
    np.multiply(tr.e_c_norm, amp, out=amp)
    amp /= cfg.beta
    return SummaryStats(
        trigger_count=int(trig.size),
        delivery_count=int(deliv.size),
        min_inter_event=float(np.min(inter)) if inter is not None else None,
        mean_inter_event=float(np.mean(inter)) if inter is not None else None,
        min_receive_interval=float(np.min(recv)) if recv is not None else None,
        mean_receive_interval=float(np.mean(recv)) if recv is not None else None,
        final_state_norm=float(np.linalg.norm(tr.x[-1])),
        empirical_amplification=float(np.max(amp)),
    )
