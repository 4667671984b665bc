"""Command-line front end: generate instances, solve, validate, run sweeps.

Exit statuses: 0 success, 1 usage error (bad flags or spec), 2 parse error
(unreadable or malformed files), 3 constraint violation (an arrangement that
breaks the stacking rules). argparse's own exit-on-error behavior is
replaced so that usage problems report status 1 rather than 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .arrangement import validate
from .bay import BayDims
from .errors import BaystowError, InvalidArrangement, InvalidSpec, ShapeMismatch
from .experiments import SWEEP_KINDS, SweepSpec, run_sweep
from .ga import GaConfig, run
from .instances import GeneratorSpec, generate_instance
from .serialize import (
    read_arrangement,
    read_instance,
    write_arrangement,
    write_instance,
    write_stats,
    write_sweep_summary,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage errors instead of exiting."""

    def error(self, message: str) -> None:
        raise _UsageError(message)


def _dims_arg(text: str) -> BayDims:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected N1xN2xN3 (e.g. 4x4x4), got {text!r}")
    try:
        n1, n2, n3 = (int(part) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims components must be integers, got {text!r}")
    try:
        return BayDims(n1, n2, n3)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _date_range_arg(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO:HI (e.g. 1:100), got {text!r}")
    try:
        return float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"date range bounds must be numbers, got {text!r}")


def _values_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _add_ga_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--pop-size", type=int, default=50, help="population size (default 50)")
    sub.add_argument("--generations", type=int, default=100, help="generations to run (default 100)")
    sub.add_argument("--pc", type=float, default=0.8, help="crossover probability (default 0.8)")
    sub.add_argument("--pm", type=float, default=0.1, help="mutation probability (default 0.1)")


def _ga_config(args: argparse.Namespace, seed: int) -> GaConfig:
    return GaConfig(
        pop_size=args.pop_size,
        generations=args.generations,
        crossover_prob=args.pc,
        mutation_prob=args.pm,
        seed=seed,
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="baystow", description="Container bay stowage by evolutionary search.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    gen = commands.add_parser("generate", help="write a random instance file")
    gen.add_argument("--dims", type=_dims_arg, required=True, help="bay size as N1xN2xN3")
    gen.add_argument("--nc", type=int, required=True, help="number of containers")
    gen.add_argument(
        "--date-range",
        type=_date_range_arg,
        default=(1.0, 100.0),
        help="delivery date bounds LO:HI (default 1:100)",
    )
    gen.add_argument("--seed", type=int, default=0, help="generation seed (default 0)")
    gen.add_argument("--out", required=True, help="instance file to write")
    gen.set_defaults(handler=cmd_generate)

    solve = commands.add_parser("solve", help="evolve an arrangement for an instance file")
    solve.add_argument("instance", help="instance file")
    _add_ga_flags(solve)
    solve.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    solve.add_argument(
        "--out", required=True, help="output directory for stats.csv and best.json"
    )
    solve.set_defaults(handler=cmd_solve)

    check = commands.add_parser("validate", help="check an arrangement against an instance")
    check.add_argument("instance", help="instance file")
    check.add_argument("arrangement", help="arrangement file")
    check.set_defaults(handler=cmd_validate)

    sweep = commands.add_parser("sweep", help="run one experiment sweep and summarize it")
    sweep.add_argument("kind", choices=SWEEP_KINDS, help="which knob to sweep")
    sweep.add_argument(
        "--values", type=_values_arg, required=True, help="comma-separated swept values"
    )
    _add_ga_flags(sweep)
    sweep.add_argument("--dims", type=_dims_arg, help="bay size (generations/population sweeps)")
    sweep.add_argument("--nc", type=int, help="container count (generations/population sweeps)")
    sweep.add_argument(
        "--date-range",
        type=_date_range_arg,
        default=(1.0, 100.0),
        help="delivery date bounds LO:HI (default 1:100)",
    )
    sweep.add_argument("--reps", type=int, default=1, help="repetitions per value (default 1)")
    sweep.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    sweep.add_argument("--out", required=True, help="output directory for summary.csv")
    sweep.add_argument(
        "--keep-runs",
        action="store_true",
        help="also write per-run stats files under <out>/runs/",
    )
    sweep.set_defaults(handler=cmd_sweep)

    return parser


def cmd_generate(args: argparse.Namespace) -> int:
    lo, hi = args.date_range
    spec = GeneratorSpec(args.dims, args.nc, date_min=lo, date_max=hi, seed=args.seed)
    instance = generate_instance(spec)
    write_instance(instance, args.out)
    print(f"wrote {args.out}: {args.nc} containers in a {args.dims} bay")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    cfg = _ga_config(args, args.seed)
    stats = run(instance, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_stats(stats, out / "stats.csv")
    write_arrangement(stats.best, out / "best.json")
    print(f"F_i = {stats.initial_best:.6g}")
    print(f"F_f = {stats.final_best:.6g}")
    print(f"elapsed_ms = {stats.total_elapsed_ms:.6g}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    arr = read_arrangement(args.arrangement)
    try:
        violations = validate(arr, instance)
    except ShapeMismatch as exc:
        print(f"constraint violation: {exc}")
        return 3
    for violation in violations:
        print(str(violation))
    if violations:
        return 3
    print(f"ok: {arr.n_containers} containers satisfy all constraints")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    lo, hi = args.date_range
    spec = SweepSpec(
        kind=args.kind,
        values=args.values,
        config=_ga_config(args, args.seed),
        n_containers=args.nc,
        dims=args.dims,
        date_min=lo,
        date_max=hi,
        reps=args.reps,
        base_seed=args.seed,
    )
    result = run_sweep(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_summary(result.points, out / "summary.csv")
    if args.keep_runs:
        runs_dir = out / "runs"
        runs_dir.mkdir(exist_ok=True)
        for sweep_run in result.runs:
            name = f"{args.kind}_{sweep_run.swept_value}_rep{sweep_run.rep}.csv"
            write_stats(sweep_run.stats, runs_dir / name)
    for point in result.points:
        print(
            f"{point.swept_value}: F_i = {point.mean_initial_best:.6g}, "
            f"F_f = {point.mean_final_best:.6g}, elapsed_ms = {point.mean_elapsed_ms:.6g}"
        )
    print(f"wrote {out / 'summary.csv'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except (InvalidSpec, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InvalidArrangement as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return 3
    except (BaystowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
