"""Timed calls into each module's public functions, at the workload's size.

Each call runs inside a span named after the function it times, so the
layer metrics are medians of span durations. The calls use the workload's
first input, so a probe on `large-bay` times the 8000-container case and a
probe on `long-search` the 1000-container one.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from baystow import (
    Arrangement,
    CrossoverPlanes,
    GeneratorSpec,
    canonical_above_counts,
    crossover,
    evolve_step,
    fitness,
    generate_instance,
    init_population,
    mutate,
    read_arrangement,
    read_instance,
    rearrangement_optimum,
    roulette_select,
    run_sweep,
    validate,
    write_arrangement,
    write_instance,
    write_stats,
)

from tracing import Tracer
from workloads import Input, Outcome, Workload, child_env

MIN_CALLS = 3
MIN_SECONDS = 0.05
MAX_CALLS = 200


def repeat(tracer: Tracer, name: str, call, before=None):
    """Time `call` at least MIN_CALLS times and for MIN_SECONDS; return its last result.

    `before`, if given, runs ahead of each call outside the span.
    """
    calls, spent, result = 0, 0.0, None
    while calls < MIN_CALLS or (spent < MIN_SECONDS and calls < MAX_CALLS):
        if before is not None:
            before()
        with tracer.span(name) as span:
            result = call()
        spent += span.duration
        calls += 1
    return result


def probe_library(workload: Workload, inp: Input, outcome: Outcome, tracer: Tracer, workdir: Path) -> int:
    """Time each module's public calls; returns the bytes one set of written files takes."""
    p = workload.problem
    inst = inp.instance
    cfg = p.config(inp.run_seed)
    rng = np.random.default_rng(inp.run_seed)

    repeat(tracer, "instances.generate",
           lambda: generate_instance(GeneratorSpec(p.dims, p.n_containers, seed=inp.instance_seed)))
    repeat(tracer, "instances.priority_vector", inst.priority_vector)
    repeat(tracer, "bay.canonical_above_counts",
           lambda: canonical_above_counts(p.dims, p.n_containers),
           before=canonical_above_counts.cache_clear)
    repeat(tracer, "oracle.rearrangement", lambda: rearrangement_optimum(inst))

    population = repeat(tracer, "ga.init_population", lambda: init_population(inst, cfg, rng))
    first = population[0]
    repeat(tracer, "arrangement.from_id_sequence",
           lambda: Arrangement.from_id_sequence(p.dims, first.id_sequence()))
    repeat(tracer, "arrangement.validate", lambda: validate(first, inst))
    repeat(tracer, "evaluation.fitness", lambda: fitness(first, inst))
    fits = [fitness(arr, inst).fitness for arr in population]
    repeat(tracer, "ga.roulette_select", lambda: roulette_select(fits, rng))
    planes = CrossoverPlanes(*(int(rng.integers(1, n + 1)) for n in (p.dims.n1, p.dims.n2, p.dims.n3)))
    second = population[1 % len(population)]
    repeat(tracer, "ga.crossover", lambda: crossover(first, second, planes))
    repeat(tracer, "ga.mutate", lambda: mutate(first, rng))
    repeat(tracer, "ga.evolve_step", lambda: evolve_step(population, inst, cfg, rng))

    workdir.mkdir(parents=True, exist_ok=True)
    files = (workdir / "instance.json", workdir / "best.json", workdir / "stats.csv")
    repeat(tracer, "serialize.write_instance", lambda: write_instance(inst, files[0]))
    repeat(tracer, "serialize.read_instance", lambda: read_instance(files[0]))
    repeat(tracer, "serialize.write_arrangement", lambda: write_arrangement(outcome.stats.best, files[1]))
    repeat(tracer, "serialize.read_arrangement", lambda: read_arrangement(files[1]))
    repeat(tracer, "serialize.write_stats", lambda: write_stats(outcome.stats, files[2]))

    repeat(tracer, "experiments.run_sweep",
           lambda: run_sweep(replace(workload.sweep, base_seed=inp.run_seed)))
    return sum(path.stat().st_size for path in files)


def probe_import(tracer: Tracer, src: Path) -> None:
    """Fresh-interpreter `import baystow`, timed from outside."""
    env = child_env(src)
    for _ in range(MIN_CALLS):
        with tracer.span("cli.import"):
            subprocess.run([sys.executable, "-c", "import baystow"], env=env, check=True, timeout=60)


def median_ms(tracer: Tracer, name: str, scale: float = 1e3) -> float | None:
    durations = tracer.durations(name)
    return float(np.median(durations)) * scale if durations else None
