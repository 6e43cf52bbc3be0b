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
from .pool import fork_map
from .scenarios import load_scenario, save_trace, trace_to_dict
from .simulator import Scenario, SimulationError, simulate, summarize
from .system_model import EstimatorKind
from .trigger_channel import ChannelMode, ChannelPolicy, random_drop_script

# Offers per run never approach this for the preset horizon.
_SWEEP_SCRIPT_LENGTH = 20000


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for bound
    # violations, so usage problems must leave through code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--out", default=None, help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default=default_format)
    parser.add_argument("--estimator", choices=("mb", "zoh"), default=None)
    parser.add_argument(
        "--policy",
        choices=[m.value for m in ChannelMode],
        default=None,
        help="override channel mode (p/seed/script kept only where valid)",
    )
    parser.add_argument("--seed", type=int, default=None, help="channel seed override")
    parser.add_argument("--tmax", type=float, default=None, help="horizon override")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lossyetc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    _add_common(sub.add_parser("simulate", help="run one simulation"), "csv")
    _add_common(sub.add_parser("bounds", help="compute analytical bounds"), "json")
    _add_common(sub.add_parser("verify", help="check bounds against a run"), "json")
    sweep = sub.add_parser("sweep", help="paired estimator sweep over a parameter")
    _add_common(sweep, "csv")
    sweep.add_argument("--param", default="channel.p", help="swept parameter")
    sweep.add_argument("--values", default="0,0.3,0.7,0.9", help="comma-separated")
    sweep.add_argument("--repeats", type=int, default=1)
    return parser


def _load(args) -> Scenario:
    scn = load_scenario(args.config)
    if args.estimator is not None:
        scn = dataclasses.replace(scn, estimator=EstimatorKind(args.estimator))
    if args.policy is not None:
        mode = ChannelMode(args.policy)
        old = scn.channel
        scn = dataclasses.replace(
            scn,
            channel=ChannelPolicy(
                M=old.M,
                mode=mode,
                p=old.p if mode is ChannelMode.BERNOULLI else None,
                seed=old.seed,
                script=old.script if mode is ChannelMode.SCRIPTED else None,
            ),
        )
    if args.seed is not None:
        scn = dataclasses.replace(
            scn, channel=dataclasses.replace(scn.channel, seed=args.seed)
        )
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


def cmd_bounds(args) -> int:
    if args.format != "json":
        print("lossyetc bounds: reports serialize as JSON only", file=sys.stderr)
        return 1
    scn = _load(args)
    tr = worst_case_trace(scn)
    rep = analyze_scenario(scn, tr)
    out = _out_path(args, ".bounds.json")
    _write_json(out, dataclasses.asdict(rep))
    line = f"bounds: Delta={rep.Delta:.6g}, miet={rep.miet:.6g}, wrote {out}"
    if scn.estimator is EstimatorKind.ZERO_ORDER_HOLD:
        zrep = analyze_scenario_zoh(scn, tr)
        zout = out.with_suffix(".zoh.json")
        _write_json(zout, dataclasses.asdict(zrep))
        line += f"; Delta_zoh={zrep.Delta_zoh:.6g}, wrote {zout}"
    print(line)
    return 0


def cmd_verify(args) -> int:
    if args.format != "json":
        print("lossyetc verify: reports serialize as JSON only", file=sys.stderr)
        return 1
    scn = _load(args)
    tr = worst_case_trace(scn)
    stats = summarize(tr, scn.trigger)
    if scn.estimator is EstimatorKind.MODEL_BASED:
        rep = analyze_scenario(scn, tr)
        amplification = rep.Delta
        gap_ok = stats.min_inter_event is None or stats.min_inter_event >= rep.miet
        own_checks = {"miet_positive": rep.miet > 0.0, "min_gap_at_least_miet": gap_ok}
    else:
        rep = analyze_scenario_zoh(scn, tr)
        amplification = rep.Delta_zoh
        own_checks = {"gaps_positive": min(rep.delta_bar_zoh) > 0.0}
    check = verify_ec_bound(tr, amplification, scn.trigger)
    checks = {"ec_bound": check.ok, **own_checks}
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
    if args.param != "channel.p":
        print(f"lossyetc sweep: unsupported --param {args.param!r}", file=sys.stderr)
        return 1
    if args.format != "csv":
        print("lossyetc sweep: summary table serializes as CSV only", file=sys.stderr)
        return 1
    if args.repeats < 1:
        print("lossyetc sweep: --repeats must be positive", file=sys.stderr)
        return 1
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        print(f"lossyetc sweep: bad --values {args.values!r}", file=sys.stderr)
        return 1
    if not values:
        print("lossyetc sweep: --values is empty", file=sys.stderr)
        return 1
    scn = _load(args)
    out = _out_path(args, ".sweep.csv")
    keys, runs = [], []
    for vi, value in enumerate(values):
        for repeat in range(args.repeats):
            # Both estimators face the identical drop sequence so the
            # trigger-count comparison is apples to apples.
            seed = args.seed if args.seed is not None else 0
            script = random_drop_script(
                scn.channel.M,
                value,
                _SWEEP_SCRIPT_LENGTH,
                seed=1000 * vi + repeat + 7919 * seed,
            )
            policy = ChannelPolicy(
                M=scn.channel.M, mode=ChannelMode.SCRIPTED, script=script
            )
            for kind in (EstimatorKind.MODEL_BASED, EstimatorKind.ZERO_ORDER_HOLD):
                keys.append([args.param, _fmt(value), repeat, kind.value])
                runs.append(dataclasses.replace(scn, estimator=kind, channel=policy))
    # Hold-estimator runs take 2.5-6x as long as model-based ones (preset 7,
    # p = 0/0.5/0.9: 60/122/191 ms against 24/27/33 ms), so they go first
    # and the short runs fill in behind them. On the preset-7 sweep, median
    # of 8: sequential 464 ms, input order 349-373 ms, hold first 327 ms.
    order = sorted(
        range(len(runs)),
        key=lambda i: runs[i].estimator is not EstimatorKind.ZERO_ORDER_HOLD,
    )
    summaries = list(fork_map(_summary, runs, order))
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        # Every run's summary has the same keys; the last one names the columns.
        writer.writerow(["param", "value", "repeat", "estimator", *summaries[-1]])
        writer.writerows(
            key + [_fmt(v) for v in stats.values()]
            for key, stats in zip(keys, summaries)
        )
    print(f"sweep: {len(runs)} runs over {args.param}={values}, wrote {out}")
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
    args = build_parser().parse_args(argv)
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
