"""Outside-in layer trace for the lossyetc benchmark.

The package has no spans of its own, so this module records them from the
outside: it replaces the names each lossyetc module imports from its
neighbours with timing wrappers.  ``from .x import y`` copies the binding
into the importer, so every importer's copy is patched separately.  Spans
stay in memory (name, unit, parent, start, end) and are written out once,
when the run ends.  Counts that a span cannot show, such as grid points
evaluated or forced deliveries, are derived from the wrapped calls'
arguments and results.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import time
from collections import defaultdict

import numpy as np

import lossyetc.bounds
import lossyetc.cli
import lossyetc.numerics
import lossyetc.scenarios
import lossyetc.simulator
from lossyetc.trigger_channel import Outcome

SETUP_UNIT = -1


def _threshold_name(args, kwargs):
    scalar = np.ndim(args[0]) == 0
    return "trigger_channel.threshold." + ("scalar" if scalar else "array")


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return "cli." + (argv[0] if argv else "main")


def _on_threshold(count, args, kwargs, result):
    if np.ndim(args[0]) != 0:
        count("simulator.grid_points_evaluated", np.size(args[0]))


def _on_offer(count, args, kwargs, result):
    policy, state = args[0], args[1]
    if result[0] is Outcome.DELIVERED:
        count("trigger_channel.deliveries")
        if state.consecutive_drops >= policy.M - 1:
            count("trigger_channel.forced_deliveries")


def _on_simulate(count, args, kwargs, result):
    count("simulator.rows", result.num_samples)
    count("simulator.events", result.triggers.size)


def _on_worst_case(count, args, kwargs, result):
    count("bounds.worst_case_resimulations")
    _on_simulate(count, args, kwargs, result)


def _on_grid(count, args, kwargs, result):
    count("numerics.exp_norms_on_grid.points", np.size(args[1]))


def _on_save(count, args, kwargs, result):
    count("scenarios.save_trace.bytes", os.path.getsize(args[1]))


def _on_load(count, args, kwargs, result):
    count("scenarios.load_trace.bytes", os.path.getsize(args[0]))


# (module, attribute, span name or namer, hook).  One row per binding: the
# simulator, bounds and cli each hold their own copy of what they import.
_PATCHES = [
    (lossyetc.simulator, "mat_exp", "numerics.mat_exp.simulator", None),
    (lossyetc.bounds, "exp_norms_on_grid", "numerics.exp_norms_on_grid", _on_grid),
    (lossyetc.numerics, "exp_norms_on_grid", "numerics.exp_norms_on_grid", _on_grid),
    (lossyetc.bounds, "decay_envelope", "numerics.decay_envelope", None),
    (lossyetc.bounds, "eigendecompose", "numerics.eigendecompose", None),
    (lossyetc.numerics, "eigendecompose", "numerics.eigendecompose", None),
    (lossyetc.bounds, "bisect_root", "numerics.bisect_root", None),
    (lossyetc.simulator, "closed_loop", "system_model.generator_build", None),
    (lossyetc.simulator, "gamma_matrix", "system_model.generator_build", None),
    (lossyetc.simulator, "gamma_zoh", "system_model.generator_build", None),
    (lossyetc.bounds, "closed_loop", "system_model.generator_build", None),
    (lossyetc.bounds, "gamma_matrix", "system_model.generator_build", None),
    (lossyetc.bounds, "gamma_zoh", "system_model.generator_build", None),
    (lossyetc.simulator, "threshold_value", _threshold_name, _on_threshold),
    (lossyetc.simulator, "channel_offer", "trigger_channel.channel_offer", _on_offer),
    (lossyetc.cli, "random_drop_script", "trigger_channel.random_drop_script", None),
    (lossyetc.simulator, "simulate", "simulator.simulate", _on_simulate),
    (lossyetc.cli, "simulate", "simulator.simulate", _on_simulate),
    (lossyetc.bounds, "simulate", "simulator.simulate", _on_worst_case),
    (lossyetc.simulator, "summarize", "simulator.summarize", None),
    (lossyetc.cli, "summarize", "simulator.summarize", None),
    (lossyetc.bounds, "analyze_scenario", "bounds.analyze_scenario", None),
    (lossyetc.cli, "analyze_scenario", "bounds.analyze_scenario", None),
    (lossyetc.cli, "analyze_scenario_zoh", "bounds.analyze_scenario_zoh", None),
    (lossyetc.bounds, "verify_ec_bound", "bounds.verify_ec_bound", None),
    (lossyetc.cli, "verify_ec_bound", "bounds.verify_ec_bound", None),
    (lossyetc.cli, "save_trace", "scenarios.save_trace", _on_save),
    (lossyetc.scenarios, "load_trace", "scenarios.load_trace", _on_load),
    (lossyetc.cli, "load_scenario", "scenarios.load_scenario", None),
    (lossyetc.scenarios, "vehicle_preset", "scenarios.vehicle_preset", None),
    (lossyetc.cli, "main", _cli_name, None),
]


class Tracer:
    """Span recorder that patches the lossyetc bindings while installed."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.unit = SETUP_UNIT
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, hook):
        tracer = self

        def count(key, value=1):
            tracer.counts[tracer.unit][key] += value

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[idx] = (span_name, tracer.unit, parent, start, end)
            if hook is not None:
                hook(count, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            return
        for module, attr, name, hook in _PATCHES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    @contextlib.contextmanager
    def suspended(self):
        """Run the enclosed code on the original bindings, recording nothing."""
        active = bool(self._saved)
        self.uninstall()
        try:
            yield
        finally:
            if active:
                self.install()

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans if s is not None})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "unit", "parent", "start_ns", "end_ns"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans if s],
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))

    # --- derived metrics ------------------------------------------------------

    def _sums(self, units):
        """Per-name busy and self seconds, span counts, over the given units."""
        busy: dict[str, float] = defaultdict(float)
        self_ns: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[2] >= 0:
                child_ns[span[2]] += span[4] - span[3]
        for i, span in enumerate(self.spans):
            if span is None or span[1] not in units:
                continue
            name, _, parent, start, end = span
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            # Busy time skips a span nested directly in one of the same name.
            if parent < 0 or self.spans[parent][0] != name:
                busy[name] += end - start
        busy = {k: v * 1e-9 for k, v in busy.items()}
        selfs = {k: v * 1e-9 for k, v in self_ns.items()}
        counts: dict[str, float] = defaultdict(float)
        for unit in units:
            for key, value in self.counts.get(unit, {}).items():
                counts[key] += value
        return busy, selfs, calls, counts

    def layer_metrics(self, units: list[int]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the traced units, as {name: (value, unit)}.

        Counts and times are per unit (totals divided by the unit count);
        ratios and rates are taken over the totals.
        """
        n = max(1, len(units))
        busy, selfs, calls, counts = self._sums(set(units))
        setup_busy, _, _, _ = self._sums({SETUP_UNIT})

        def ratio(a, b):
            return a / b if b else 0.0

        def per_unit(value):
            return value / n

        cli_names = ("cli.simulate", "cli.sweep", "cli.verify")
        sim_busy = busy.get("simulator.simulate", 0.0)
        events = counts["simulator.events"]
        scalar = calls.get("trigger_channel.threshold.scalar", 0)
        array = calls.get("trigger_channel.threshold.array", 0)
        offers = calls.get("trigger_channel.channel_offer", 0)
        save_s = busy.get("scenarios.save_trace", 0.0)
        load_s = busy.get("scenarios.load_trace", 0.0)
        out = {
            "numerics.exp_norms_on_grid.calls": (per_unit(calls.get("numerics.exp_norms_on_grid", 0)), "calls/unit"),
            "numerics.exp_norms_on_grid.points": (per_unit(counts["numerics.exp_norms_on_grid.points"]), "points/unit"),
            "numerics.exp_norms_on_grid.busy_s": (per_unit(busy.get("numerics.exp_norms_on_grid", 0.0)), "s/unit"),
            "numerics.decay_envelope.calls": (per_unit(calls.get("numerics.decay_envelope", 0)), "calls/unit"),
            "numerics.decay_envelope.busy_s": (per_unit(busy.get("numerics.decay_envelope", 0.0)), "s/unit"),
            "numerics.eigendecompose.calls": (per_unit(calls.get("numerics.eigendecompose", 0)), "calls/unit"),
            "numerics.bisect_root.calls": (per_unit(calls.get("numerics.bisect_root", 0)), "calls/unit"),
            "numerics.bisect_root.busy_s": (per_unit(busy.get("numerics.bisect_root", 0.0)), "s/unit"),
            "numerics.mat_exp.simulator.calls": (per_unit(calls.get("numerics.mat_exp.simulator", 0)), "calls/unit"),
            "numerics.mat_exp.simulator.busy_s": (per_unit(busy.get("numerics.mat_exp.simulator", 0.0)), "s/unit"),
            "system_model.generator_builds": (per_unit(calls.get("system_model.generator_build", 0)), "calls/unit"),
            "trigger_channel.offers": (per_unit(offers), "count/unit"),
            "trigger_channel.deliveries": (per_unit(counts["trigger_channel.deliveries"]), "count/unit"),
            "trigger_channel.forced_deliveries": (per_unit(counts["trigger_channel.forced_deliveries"]), "count/unit"),
            "trigger_channel.delivery_ratio": (ratio(counts["trigger_channel.deliveries"], offers), "ratio"),
            "trigger_channel.channel_offer.busy_s": (per_unit(busy.get("trigger_channel.channel_offer", 0.0)), "s/unit"),
            "trigger_channel.threshold.scalar_calls": (per_unit(scalar), "calls/unit"),
            "trigger_channel.threshold.array_calls": (per_unit(array), "calls/unit"),
            "trigger_channel.threshold.busy_s": (per_unit(
                busy.get("trigger_channel.threshold.scalar", 0.0)
                + busy.get("trigger_channel.threshold.array", 0.0)), "s/unit"),
            "trigger_channel.random_drop_script.busy_s": (per_unit(busy.get("trigger_channel.random_drop_script", 0.0)), "s/unit"),
            "simulator.simulate.calls": (per_unit(calls.get("simulator.simulate", 0)), "calls/unit"),
            "simulator.simulate.busy_s": (per_unit(sim_busy), "s/unit"),
            "simulator.simulate.self_s": (per_unit(selfs.get("simulator.simulate", 0.0)), "s/unit"),
            "simulator.rows": (per_unit(counts["simulator.rows"]), "rows/unit"),
            "simulator.rows_per_s": (ratio(counts["simulator.rows"], sim_busy), "rows/s"),
            "simulator.events": (per_unit(events), "events/unit"),
            "simulator.grid_points_evaluated": (per_unit(counts["simulator.grid_points_evaluated"]), "points/unit"),
            "simulator.grid_useful_ratio": (ratio(counts["simulator.rows"], counts["simulator.grid_points_evaluated"]), "ratio"),
            "simulator.scalar_threshold_per_event": (ratio(scalar, events), "calls/event"),
            "simulator.summarize.busy_s": (per_unit(busy.get("simulator.summarize", 0.0)), "s/unit"),
            "bounds.analyze_scenario.busy_s": (per_unit(busy.get("bounds.analyze_scenario", 0.0)), "s/unit"),
            "bounds.analyze_scenario.self_s": (per_unit(selfs.get("bounds.analyze_scenario", 0.0)), "s/unit"),
            "bounds.analyze_scenario_zoh.busy_s": (per_unit(busy.get("bounds.analyze_scenario_zoh", 0.0)), "s/unit"),
            "bounds.analyze_scenario_zoh.self_s": (per_unit(selfs.get("bounds.analyze_scenario_zoh", 0.0)), "s/unit"),
            "bounds.worst_case_resimulations": (per_unit(counts["bounds.worst_case_resimulations"]), "count/unit"),
            "bounds.verify_ec_bound.busy_s": (per_unit(busy.get("bounds.verify_ec_bound", 0.0)), "s/unit"),
            "scenarios.save_trace.busy_s": (per_unit(save_s), "s/unit"),
            "scenarios.save_trace.bytes": (per_unit(counts["scenarios.save_trace.bytes"]), "B/unit"),
            "scenarios.save_trace.MB_per_s": (ratio(counts["scenarios.save_trace.bytes"] * 1e-6, save_s), "MB/s"),
            "scenarios.load_trace.busy_s": (per_unit(load_s), "s/unit"),
            "scenarios.load_trace.MB_per_s": (ratio(counts["scenarios.load_trace.bytes"] * 1e-6, load_s), "MB/s"),
            "scenarios.load_scenario.busy_s": (per_unit(busy.get("scenarios.load_scenario", 0.0)), "s/unit"),
            "scenarios.vehicle_preset.busy_s": (setup_busy.get("scenarios.vehicle_preset", 0.0), "s/setup"),
            "cli.simulate.busy_s": (per_unit(busy.get("cli.simulate", 0.0)), "s/unit"),
            "cli.sweep.busy_s": (per_unit(busy.get("cli.sweep", 0.0)), "s/unit"),
            "cli.verify.busy_s": (per_unit(busy.get("cli.verify", 0.0)), "s/unit"),
            "cli.self_s": (per_unit(sum(selfs.get(k, 0.0) for k in cli_names)), "s/unit"),
        }
        return out
