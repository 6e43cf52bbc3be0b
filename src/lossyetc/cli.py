"""Command-line entry points: simulate, bounds, verify, sweep.

Exit codes: 0 success, 1 validation or usage failure, 2 bound violation
(verify only), 3 runtime or numerics failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from .bounds import (
    analyze_scenario,
    analyze_scenario_zoh,
    verify_ec_bound,
    worst_case_trace,
)
from .numerics import NumericsError
from .pool import _one_blas_thread, fork_map
from .scenarios import load_scenario, save_trace, trace_to_dict
from .simulator import Scenario, SimulationError, simulate, summarize
from .system_model import EstimatorKind
from .trigger_channel import (
    ChannelMode,
    ChannelPolicy,
    random_drop_script,  # unused here: perfbench/tracer.py patches this binding
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for bound
    # violations, so usage problems must leave through code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lossyetc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    simulate = sub.add_parser("simulate", help="run one simulation")
    bounds = sub.add_parser("bounds", help="certify the worst case at the config's M")
    verify = sub.add_parser("verify", help="check the certificates on the worst case")
    sweep = sub.add_parser("sweep", help="paired estimator sweep over channel.p")
    for cmd in (simulate, bounds, verify, sweep):
        cmd.add_argument("--config", required=True, help="scenario JSON file")
        cmd.add_argument("--out", default=None, help="output file path")
        cmd.add_argument("--tmax", type=float, default=None, help="horizon override")
        # main reports leftover arguments through the subcommand's own usage
        cmd.set_defaults(usage_error=cmd.error)
    for cmd in (simulate, bounds, verify):
        cmd.add_argument("--estimator", choices=("mb", "zoh"), default=None)
    simulate.add_argument("--format", choices=("csv", "json"), default="csv")
    simulate.add_argument(
        "--policy",
        choices=(ChannelMode.ALWAYS_DELIVER.value, ChannelMode.WORST_CASE.value),
        default=None,
        help="channel mode override, keeping the config's M",
    )
    simulate.add_argument(
        "--seed", type=int, default=None, help="channel seed (bernoulli configs only)"
    )
    sweep.add_argument(
        "--seed", type=int, default=0, help="seeds the Bernoulli channels, N >= 0"
    )
    sweep.add_argument("--values", default="0,0.3,0.7,0.9", help="comma-separated")
    sweep.add_argument("--repeats", type=int, default=1)
    return parser


def _load(args) -> Scenario:
    scn = load_scenario(args.config)
    # sweep has no --estimator: it runs both estimators
    if getattr(args, "estimator", None) is not None:
        scn = dataclasses.replace(scn, estimator=EstimatorKind(args.estimator))
    if args.tmax is not None:
        scn = dataclasses.replace(scn, t_max=args.tmax)
    return scn


def _out_path(args, suffix: str) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(args.config).with_suffix(suffix)


def _write_json(path: Path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def cmd_simulate(args) -> int:
    scn = _load(args)
    if args.policy is not None:
        channel = ChannelPolicy(M=scn.channel.M, mode=ChannelMode(args.policy))
        scn = dataclasses.replace(scn, channel=channel)
    if args.seed is not None:
        scn = dataclasses.replace(
            scn, channel=dataclasses.replace(scn.channel, seed=args.seed)
        )
    tr = simulate(scn)
    stats = summarize(tr, scn.trigger)
    out = _out_path(args, ".trace.csv" if args.format == "csv" else ".trace.json")
    if args.format == "csv":
        save_trace(tr, str(out))
    else:
        _write_json(out, trace_to_dict(tr))
    summary_path = out.with_suffix(".summary.json")
    _write_json(summary_path, dataclasses.asdict(stats))
    print(
        f"simulate[{scn.estimator.value}]: {stats.trigger_count} triggers, "
        f"{stats.delivery_count} deliveries, final |x|={stats.final_state_norm:.3e}, "
        f"wrote {out} and {summary_path}"
    )
    return 0


def _certify(scn: Scenario, tr):
    """The report of the scenario's estimator on `tr` and its amplification factor."""
    if scn.estimator is EstimatorKind.MODEL_BASED:
        rep = analyze_scenario(scn, tr)
        return rep, rep.Delta
    rep = analyze_scenario_zoh(scn, tr)
    return rep, rep.Delta_zoh


def cmd_bounds(args) -> int:
    scn = _load(args)
    rep, amplification = _certify(scn, worst_case_trace(scn))
    out = _out_path(args, ".bounds.json")
    _write_json(out, dataclasses.asdict(rep))
    if scn.estimator is EstimatorKind.MODEL_BASED:
        figures = f"Delta={amplification:.6g}, miet={rep.miet:.6g}"
    else:
        figures = f"Delta_zoh={amplification:.6g}"
    print(f"bounds: {figures}, wrote {out}")
    return 0


def cmd_verify(args) -> int:
    scn = _load(args)
    tr = worst_case_trace(scn)
    stats = summarize(tr, scn.trigger)
    rep, amplification = _certify(scn, tr)
    check = verify_ec_bound(tr, amplification, scn.trigger)
    checks = {"ec_bound": check.ok}
    # Both reports prove at construction that their MIET and gaps are positive.
    if scn.estimator is EstimatorKind.MODEL_BASED:
        checks["min_gap_at_least_miet"] = (
            stats.min_inter_event is None or stats.min_inter_event >= rep.miet
        )
    doc = {
        "report": dataclasses.asdict(rep),
        "checks": checks,
        "max_ratio": check.max_ratio,
        "observed_min_gap": stats.min_inter_event,
    }
    ok = all(checks.values())
    if args.out is not None:
        _write_json(Path(args.out), doc)
    verdict = "PASS" if ok else "FAIL"
    detail = ", ".join(f"{k}={'ok' if v else 'VIOLATED'}" for k, v in checks.items())
    print(
        f"verify[{scn.estimator.value}]: {detail}, "
        f"max ratio {check.max_ratio:.4f} -> {verdict}"
    )
    return 0 if ok else 2


def cmd_sweep(args) -> int:
    # main prints each ValueError as a usage failure and exits 1.
    if args.repeats < 1:
        raise ValueError("--repeats must be positive")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        raise ValueError(f"bad --values {args.values!r}") from None
    if not values:
        raise ValueError("--values is empty")
    for value in values:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"--values must lie in [0, 1], got {value}")
    scn = _load(args)
    out = _out_path(args, ".sweep.csv")
    keys, runs, ranks = [], [], []
    for vi, value in enumerate(values):
        for repeat in range(args.repeats):
            # Both estimators face the identical drop sequence so the
            # trigger-count comparison is apples to apples.
            policy = ChannelPolicy(
                M=scn.channel.M,
                mode=ChannelMode.BERNOULLI,
                p=value,
                seed=1000 * vi + repeat + 7919 * args.seed,
            )
            for kind in (EstimatorKind.MODEL_BASED, EstimatorKind.ZERO_ORDER_HOLD):
                keys.append(["channel.p", _fmt(value), repeat, kind.value])
                runs.append(dataclasses.replace(scn, estimator=kind, channel=policy))
                ranks.append((kind is EstimatorKind.MODEL_BASED, -value))
    # Longest first: hold-estimator runs take longer than model-based ones,
    # most of all once packets drop (draws 7/45/56, sweep seed 1,
    # p = 0/0.5/0.9, best of 5 in-process runs: hold 17-26 ms at p = 0 and
    # 54-88 ms above, model-based 12-26 ms), so they go first, in descending
    # p, and the short runs fill in behind them. List-scheduling those run
    # times on 2 workers: 134/106/106 ms in this order, 145/123/121 ms in
    # input order.
    order = sorted(range(len(runs)), key=ranks.__getitem__)
    summaries = list(fork_map(_summary, runs, order))
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        # Every run's summary has the same keys; the last one names the columns.
        writer.writerow(["param", "value", "repeat", "estimator", *summaries[-1]])
        writer.writerows(
            key + [_fmt(v) for v in stats.values()]
            for key, stats in zip(keys, summaries)
        )
    print(f"sweep: {len(runs)} runs over channel.p={values}, wrote {out}")
    return 0


def _summary(run: Scenario) -> dict:
    return dataclasses.asdict(summarize(simulate(run), run.trigger))


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.17g}"


_HANDLERS = {
    "simulate": cmd_simulate,
    "bounds": cmd_bounds,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    # With OpenBLAS's default threads and the other core busy, the preset-7
    # hold-estimator simulate took 0.48 s against 0.19 s on one thread.
    _one_blas_thread()
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.usage_error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return _HANDLERS[args.command](args)
    except (OSError, ValueError) as exc:
        # Validation errors (scenario format, model, channel, bounds) are
        # all ValueError subclasses.
        print(f"lossyetc {args.command}: {exc}", file=sys.stderr)
        return 1
    except (SimulationError, NumericsError) as exc:
        print(f"lossyetc {args.command}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # last resort, e.g. a pool worker killed by the OS
        print(f"lossyetc {args.command}: unexpected failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
