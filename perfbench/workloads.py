"""The benchmark's workloads, their seeded inputs, requests and output checks.

Two workloads call the library's `run()` in-process; `cli-roundtrip` runs
the `baystow` command four times as subprocesses, one after another. Every
input is generated from the workload seed: a seed yields a fixed list of
(instance seed, run seed) pairs, and the timed loop cycles through that
list. Each request's output is checked; a request fails when any check
fails.
"""

from __future__ import annotations

import csv
import hashlib
import os
import shutil
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from baystow import (
    SWEEP_HEADER,
    Arrangement,
    BayDims,
    BaystowError,
    GaConfig,
    GeneratorSpec,
    Instance,
    RunStats,
    SweepSpec,
    fitness,
    generate_instance,
    read_arrangement,
    read_instance,
    read_stats,
    rearrangement_optimum,
    run,
    validate,
)

from tracing import Tracer

FITNESS_TOLERANCE = 1e-9
COMMAND_TIMEOUT_S = 150


@dataclass(frozen=True)
class Problem:
    """One engine run: the bay, the container count and the GA budget."""

    dims: BayDims
    n_containers: int
    pop_size: int
    generations: int

    def config(self, seed: int) -> GaConfig:
        return GaConfig(pop_size=self.pop_size, generations=self.generations, seed=seed)

    @property
    def merged_pool_bytes(self) -> int:
        """Size of the 2N x Nc int64 pool the engine sorts each generation."""
        return 2 * self.pop_size * self.n_containers * 8


@dataclass(frozen=True)
class Workload:
    name: str
    problem: Problem
    # best/optimum that every input reaches within the run; time_to_gap_s
    # sums generation times up to the first generation at or below it.
    target_gap: float
    # distinct seeded inputs; gap.p50 and the digest cover exactly these.
    distinct_inputs: int
    via_cli: bool
    # the sweep the CLI request runs (and the experiments probe times).
    sweep: SweepSpec


SWEEP = SweepSpec(
    kind="population",
    values=(10, 20, 40),
    config=GaConfig(generations=50),
    n_containers=125,
    dims=BayDims(5, 5, 5),
    reps=2,
)

WORKLOADS = {
    w.name: w
    for w in (
        # Init-heavy: population init is most of a request. In probes every
        # input reached gap 2.45 by generation 20; final gaps were 2.19-2.36.
        Workload("large-bay", Problem(BayDims(20, 20, 20), 8000, 50, 100), 2.45, 10, False, SWEEP),
        # Step-heavy: 1500 generations of crossover; gap 1.3 is reached near 900-1100.
        Workload("long-search", Problem(BayDims(10, 10, 10), 1000, 50, 1500), 1.3, 10, False, SWEEP),
        # Interpreter start-up and JSON I/O; the engine does little. The
        # pop-4 solve barely moves in 10 generations, so the target is met
        # by the initial population and time_to_gap_s is the solve's init.
        Workload("cli-roundtrip", Problem(BayDims(20, 20, 20), 8000, 4, 10), 3.0, 10, True, SWEEP),
    )
}


@dataclass(frozen=True)
class Input:
    instance_seed: int
    run_seed: int
    instance: Instance
    optimum: float


@dataclass
class Outcome:
    """What one request produced, as the checks and metrics need it."""

    wall_s: float
    problems: list[str]
    gap: float | None = None
    stats: RunStats | None = None
    # extra deterministic output folded into the trajectory digest
    digest_extra: tuple = ()

    def bests(self) -> list[float]:
        return [r.best_fitness for r in self.stats.records] if self.stats else []

    def time_to_gap_s(self, target: float, optimum: float) -> float | None:
        """Summed generation time until best/optimum first reaches `target`.

        A run that never reaches it counts its whole time (the value is censored).
        """
        if self.stats is None:
            return None
        elapsed = 0.0
        for record in self.stats.records:
            elapsed += record.elapsed_ms / 1e3
            if record.best_fitness / optimum <= target:
                break
        return elapsed


def make_inputs(workload: Workload, seed: int) -> list[Input]:
    """The workload's distinct inputs; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    p = workload.problem
    inputs = []
    for instance_seed, run_seed in rng.integers(0, 2**31, size=(workload.distinct_inputs, 2)):
        instance = generate_instance(GeneratorSpec(p.dims, p.n_containers, seed=int(instance_seed)))
        optimum = rearrangement_optimum(instance).optimal_fitness
        inputs.append(Input(int(instance_seed), int(run_seed), instance, optimum))
    return inputs


def check_best(best: Arrangement, records, inp: Input, tracer: Tracer, reported) -> tuple[list[str], float | None]:
    """The checks both request kinds share; returns the problems and fitness(best).

    `reported` is the best fitness the program reported: a float for the
    library, the six-digit string of `stats.csv` for the CLI.
    """
    with tracer.span("arrangement.validate"):
        violations = validate(best, inp.instance)
    if violations:
        return [f"best violates {len(violations)} constraints, first: {violations[0]}"], None
    with tracer.span("evaluation.fitness"):
        value = fitness(best, inp.instance).fitness
    problems = []
    if isinstance(reported, str):
        if format(value, ".6g") != reported:
            problems.append(f"fitness(best) = {value!r} but stats.csv reports {reported}")
    elif abs(value - reported) > FITNESS_TOLERANCE:
        problems.append(f"fitness(best) = {value!r} but run reported {reported!r}")
    if value < inp.optimum - FITNESS_TOLERANCE:
        problems.append(f"best F {value!r} is below the optimum {inp.optimum!r}")
    bests = [r.best_fitness for r in records]
    rises = [i + 2 for i, (a, b) in enumerate(zip(bests, bests[1:])) if b > a]
    if rises:
        problems.append(f"best fitness rose at generation {rises[0]}")
    return problems, value


def library_request(workload: Workload, inp: Input, tracer: Tracer) -> Outcome:
    cfg = workload.problem.config(inp.run_seed)
    started = time.perf_counter()
    with tracer.span("ga.run"):
        stats = run(inp.instance, cfg)
    wall = time.perf_counter() - started
    problems, _ = check_best(stats.best, stats.records, inp, tracer, stats.best_fitness)
    return Outcome(wall, problems, stats.best_fitness / inp.optimum, stats)


def cli_commands(workload: Workload, inp: Input) -> list[tuple[str, list[str]]]:
    """The four commands of one CLI request, with paths relative to its directory."""
    p, sweep = workload.problem, workload.sweep
    return [
        ("generate", ["generate", "--dims", str(p.dims), "--nc", str(p.n_containers),
                      "--seed", str(inp.instance_seed), "--out", "inst.json"]),
        ("solve", ["solve", "inst.json", "--pop-size", str(p.pop_size),
                   "--generations", str(p.generations), "--seed", str(inp.run_seed),
                   "--out", "run"]),
        ("validate", ["validate", "inst.json", "run/best.json"]),
        ("sweep", ["sweep", sweep.kind, "--values", ",".join(map(str, sweep.values)),
                   "--dims", str(sweep.dims), "--nc", str(sweep.n_containers),
                   "--reps", str(sweep.reps), "--generations", str(sweep.config.generations),
                   "--seed", str(inp.run_seed), "--out", "sweep", "--keep-runs"]),
    ]


def child_env(src: Path) -> dict:
    """Environment for `baystow` subprocesses: the checkout's source, nothing installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def cli_request(workload: Workload, inp: Input, tracer: Tracer, workdir: Path, src: Path) -> Outcome:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env(src)
    started = time.perf_counter()
    for name, argv in cli_commands(workload, inp):
        with tracer.span(f"cli.{name}"):
            proc = subprocess.run(
                [sys.executable, "-m", "baystow.cli", *argv],
                cwd=workdir, env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
            )
        if proc.returncode != 0:
            problem = f"baystow {name} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
            return Outcome(time.perf_counter() - started, [problem])
    wall = time.perf_counter() - started
    outcome = check_cli_outputs(workload, inp, tracer, workdir)
    outcome.wall_s = wall
    return outcome


def check_cli_outputs(workload: Workload, inp: Input, tracer: Tracer, workdir: Path) -> Outcome:
    """Read back every file a CLI request wrote and check it; wall time is left at 0."""
    sweep = workload.sweep
    try:
        with tracer.span("serialize.read_instance"):
            instance = read_instance(workdir / "inst.json")
        if instance != inp.instance:
            return Outcome(0.0, ["inst.json differs from the instance generated in-process"])
        with tracer.span("serialize.read_arrangement"):
            best = read_arrangement(workdir / "run" / "best.json")
        with tracer.span("serialize.read_stats"):
            records = read_stats(workdir / "run" / "stats.csv")
        summary = _read_summary(workdir / "sweep" / "summary.csv")
        for value in sweep.values:
            for rep in range(sweep.reps):
                with tracer.span("serialize.read_stats"):
                    kept = read_stats(workdir / "sweep" / "runs" / f"{sweep.kind}_{value}_rep{rep}.csv")
                if len(kept) != sweep.config.generations:
                    return Outcome(0.0, [f"sweep run {value}/{rep} has {len(kept)} generations"])
    except (BaystowError, OSError, ValueError) as exc:
        return Outcome(0.0, [f"output does not read back: {exc}"])
    if len(records) != workload.problem.generations:
        return Outcome(0.0, [f"stats.csv has {len(records)} generations"])
    if [row[0] for row in summary] != [str(v) for v in sweep.values]:
        return Outcome(0.0, [f"summary.csv rows {[row[0] for row in summary]} != {sweep.values}"])
    # stats.csv holds six significant digits, which `.6g` of the read value restores
    reported = format(records[-1].best_fitness, ".6g")
    problems, value = check_best(best, records, inp, tracer, reported)
    if value is None:
        return Outcome(0.0, problems)
    extra = tuple((row[0], row[1], row[2]) for row in summary)
    return Outcome(0.0, problems, value / inp.optimum, RunStats(records, best, value), extra)


def _read_summary(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or tuple(rows[0]) != SWEEP_HEADER:
        raise ValueError(f"{path}: expected header {','.join(SWEEP_HEADER)}")
    if any(len(row) != len(SWEEP_HEADER) for row in rows[1:]):
        raise ValueError(f"{path}: expected {len(SWEEP_HEADER)} columns")
    for row in rows[1:]:
        float(row[1]), float(row[2]), float(row[3])
    return rows[1:]


def trajectory_digest(outcomes: list[Outcome]) -> str:
    """SHA-256 over each input's per-generation best fitness, in input order."""
    h = hashlib.sha256()
    for index, outcome in enumerate(outcomes):
        h.update(f"{index}:{','.join(repr(b) for b in outcome.bests())};{outcome.digest_extra!r}\n".encode())
    return h.hexdigest()

