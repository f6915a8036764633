"""Operator surface: validate bundles, run scenarios, sweep parameters,
generate kits.

    vanetkit validate <bundle-dir>
    vanetkit run <bundle-dir> [--seed N] [--out DIR] [--force]
    vanetkit sweep <bundle-dir> --param obu_fraction=0.1,0.5,1.0 [...]
    vanetkit kit <name> [--out DIR]

Exit codes: 0 ok, 2 validation failure, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import warnings

from . import kits, scenario
from .simnet import NetworkStats

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _summary(stats: NetworkStats) -> str:
    totals = stats.totals()
    lines = [
        f"generated    {totals.generated}",
        f"sent         {totals.sent}",
        f"broadcasted  {totals.broadcasted}",
        f"received     {totals.received}",
        f"lost         {totals.lost}",
        f"connections  {stats.connections}",
        f"events       accepted={stats.events_accepted} rejected={stats.events_rejected}",
    ]
    return "\n".join(lines)


def _load(directory: str) -> scenario.ScenarioBundle | None:
    """The loaded bundle, or None after printing each of its problems."""
    bundle, problems = scenario.load_bundle(directory)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return None if problems else bundle


def cmd_validate(args) -> int:
    if (bundle := _load(args.bundle)) is None:
        return EXIT_VALIDATION
    print(f"ok: scenario {bundle.config.name!r}, "
          f"{bundle.config.total_vehicles()} vehicles, "
          f"{bundle.config.duration} s")
    return EXIT_OK


def _output_paths(out_dir: str, name: str, seed: int) -> tuple[str, str]:
    base = os.path.join(out_dir, f"{name}_{seed}")
    return base + ".metrics.csv", base + ".trace"


def cmd_run(args) -> int:
    if (bundle := _load(args.bundle)) is None:
        return EXIT_VALIDATION
    config = bundle.config
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out_dir = args.out or args.bundle
    metrics_path, trace_path = _output_paths(out_dir, config.name, config.seed)
    for path in (metrics_path, trace_path):
        if os.path.exists(path) and not args.force:
            print(f"error: {path} exists (use --force to overwrite)", file=sys.stderr)
            return EXIT_RUNTIME
    try:
        sim = dataclasses.replace(bundle, config=config).build()
        stats = sim.run()
    except Exception as err:   # simulation failures are runtime errors
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    os.makedirs(out_dir, exist_ok=True)
    with open(metrics_path, "w") as fh:
        fh.write(stats.csv())
    with open(trace_path, "w") as fh:
        fh.write("\n".join(sim.trace) + ("\n" if sim.trace else ""))
    print(_summary(stats))
    print(f"wrote {metrics_path}")
    print(f"wrote {trace_path}")
    return EXIT_OK


def _parse_sweep_param(raw: str) -> tuple[str, list[float]]:
    if "=" not in raw:
        raise ValueError("expected --param <name>=<comma separated values>")
    name, values = raw.split("=", 1)
    if name not in ("obu_fraction", "vehicle_count"):
        raise ValueError(f"sweep supports obu_fraction and vehicle_count, not {name!r}")
    parsed = [float(v) for v in values.split(",") if v]
    if not parsed:
        raise ValueError(f"--param {name} names no values")
    fractional = [v for v in parsed if not v.is_integer()]
    if name == "vehicle_count" and fractional:
        raise ValueError(f"vehicle_count takes whole numbers, not {fractional[0]:g}")
    return name, parsed


def cmd_sweep(args) -> int:
    try:
        param, values = _parse_sweep_param(args.param)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    if (bundle := _load(args.bundle)) is None:
        return EXIT_VALIDATION
    configs, refused = [], False      # every value is checked before the first run
    for value in values:
        config = dataclasses.replace(bundle.config)
        if param == "obu_fraction":
            config.obu_fraction = value
        else:
            config.vehicle_count = int(value)
        if args.seed is not None:
            config.seed = args.seed
        for problem in config.validate(bundle.network, bundle.roster):
            print(f"error: {param}={value:g}: {problem}", file=sys.stderr)
            refused = True
        configs.append(config)
    if refused:
        return EXIT_VALIDATION
    out_dir = args.out or args.bundle
    os.makedirs(out_dir, exist_ok=True)
    sweep_path = os.path.join(out_dir, f"{bundle.config.name}_sweep_{param}.csv")
    rows = [f"{param},generated,sent,broadcasted,received,lost,connections"]
    status = EXIT_OK
    for value, config in zip(values, configs):
        try:
            stats = dataclasses.replace(bundle, config=config).build().run()
        except Exception as err:
            print(f"error: run at {param}={value:g} failed: {err}", file=sys.stderr)
            status = EXIT_RUNTIME
            break
        totals = stats.totals()
        rows.append(f"{value:g},{totals.generated},{totals.sent},{totals.broadcasted},"
                    f"{totals.received},{totals.lost},{stats.connections}")
    with open(sweep_path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {sweep_path}" + (" (partial)" if status else ""))
    return status


def cmd_kit(args) -> int:
    if args.name not in kits.KIT_NAMES:
        print(f"error: unknown kit {args.name!r}", file=sys.stderr)
        print("available kits: " + ", ".join(kits.KIT_NAMES), file=sys.stderr)
        return EXIT_VALIDATION
    directory = args.out or args.name
    for path in kits.generate_kit(args.name, directory):
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vanetkit",
                                     description="smartphone VANET scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario bundle")
    p_validate.add_argument("bundle")
    p_validate.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="run a scenario bundle")
    p_run.add_argument("bundle")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", help="output directory (default: the bundle)")
    p_run.add_argument("--force", action="store_true", help="overwrite outputs")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run once per parameter value")
    p_sweep.add_argument("bundle")
    p_sweep.add_argument("--param", required=True,
                         help="obu_fraction=<list> or vehicle_count=<list>")
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(func=cmd_sweep)

    p_kit = sub.add_parser("kit", help="generate a ready-made scenario bundle")
    p_kit.add_argument("name")
    p_kit.add_argument("--out")
    p_kit.set_defaults(func=cmd_kit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Surface library warnings (range envelopes etc.) once, without the
    # file/line noise.
    seen: set[str] = set()

    def show(message, category, filename, lineno, file=None, line=None):
        text = str(message)
        if text not in seen:
            seen.add(text)
            print(f"warning: {text}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
