"""Command-line front end: generate instances, solve, validate, run sweeps.

Exit statuses: 0 success; 1 usage error (a bad flag, a bay past `BayDims`'s
cell limit included, or a value rejected with InvalidSpec); 2 file error
(ParseError or OSError: an unreadable, undecodable or malformed file, or one
past the cell limit); 3 constraint violation (an arrangement that breaks the
stacking rules); 4 internal error (any other exception, a package error from
an engine bug included, on one line with its type). The parser raises
InvalidSpec instead of exiting, so usage problems report 1, not argparse's 2.
Flag defaults are read from the dataclasses that own them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .arrangement import validate
from .bay import BayDims
from .errors import InvalidSpec, ParseError, ShapeMismatch
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


class _Parser(argparse.ArgumentParser):
    """argparse parser that raises InvalidSpec instead of exiting."""

    def error(self, message: str) -> None:
        raise InvalidSpec(message)


def _dims_arg(text: str) -> BayDims:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected N1xN2xN3 (e.g. 4x4x4), got {text!r}")
    try:
        return BayDims(*(int(part) for part in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid dims {text!r}: {exc}")


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


def _add_flag(sub: argparse.ArgumentParser, flag: str, owner: type, field: str, text: str) -> None:
    """A flag whose default is `owner`'s class attribute `field`, typed like that default."""
    default = getattr(owner, field)
    sub.add_argument(flag, type=type(default), default=default, help=f"{text} (default %(default)s)")


def _add_ga_flags(sub: argparse.ArgumentParser) -> None:
    _add_flag(sub, "--pop-size", GaConfig, "pop_size", "population size")
    _add_flag(sub, "--generations", GaConfig, "generations", "generations to run")
    _add_flag(sub, "--pc", GaConfig, "crossover_prob", "crossover probability")
    _add_flag(sub, "--pm", GaConfig, "mutation_prob", "mutation probability")


def _add_date_range_flag(sub: argparse.ArgumentParser, owner: type) -> None:
    sub.add_argument(
        "--date-range",
        type=_date_range_arg,
        default=(owner.date_min, owner.date_max),
        help=f"delivery date bounds LO:HI (default {owner.date_min:g}:{owner.date_max:g})",
    )


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
    _add_date_range_flag(gen, GeneratorSpec)
    _add_flag(gen, "--seed", GeneratorSpec, "seed", "generation seed")
    gen.add_argument("--out", required=True, help="instance file to write")
    gen.set_defaults(handler=cmd_generate)

    solve = commands.add_parser("solve", help="evolve an arrangement for an instance file")
    solve.add_argument("instance", help="instance file")
    _add_ga_flags(solve)
    _add_flag(solve, "--seed", GaConfig, "seed", "run seed")
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
    _add_date_range_flag(sweep, SweepSpec)
    _add_flag(sweep, "--reps", SweepSpec, "reps", "repetitions per value")
    _add_flag(sweep, "--seed", SweepSpec, "base_seed", "base seed")
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
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except InvalidSpec as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
