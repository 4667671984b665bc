"""Benchmark of baystow: the engine through `run()` and the `baystow` CLI.

    python3 perfbench/run.py --workload large-bay --seed 1 --seconds 20 --trace 0

One client drives a closed loop: each request starts only after the
previous one finished, and at most one child process runs at a time. The
workloads are defined in `workloads.py`. Every request's output is checked.
With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it runs half its time untraced and half traced, times each module's public
calls from outside (`probes.py`) and reports the per-layer metrics. The
last line of standard output is one JSON object with the result; a copy
with the environment, the trajectory digest and (traced) every span is
written under `.bench_out/results/`.

The program is imported from `src/` of the checkout this file sits in;
without it the benchmark exits with status 2 before printing a result.
A smoke test at tiny sizes: `python3 -m pytest -q perfbench/test_smoke.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3

END_TO_END = (
    ("wall_ms.p50", "ms"),
    ("wall_ms.p90", "ms"),
    ("requests_per_s", "1/s"),
    ("gap.p50", "ratio"),
    ("time_to_gap_s.p50", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Per-layer metrics that are medians of one span name's durations.
SPAN_METRICS = (
    ("ga.evolve_step_ms", "ga.evolve_step"),
    ("ga.crossover_us", "ga.crossover"),
    ("ga.init_population_ms", "ga.init_population"),
    ("ga.roulette_select_us", "ga.roulette_select"),
    ("ga.mutate_us", "ga.mutate"),
    ("evaluation.fitness_ms", "evaluation.fitness"),
    ("oracle.rearrangement_ms", "oracle.rearrangement"),
    ("arrangement.validate_ms", "arrangement.validate"),
    ("arrangement.from_id_sequence_us", "arrangement.from_id_sequence"),
    ("bay.canonical_above_counts_us", "bay.canonical_above_counts"),
    ("instances.generate_ms", "instances.generate"),
    ("instances.priority_vector_ms", "instances.priority_vector"),
    ("serialize.write_instance_ms", "serialize.write_instance"),
    ("serialize.read_instance_ms", "serialize.read_instance"),
    ("serialize.write_arrangement_ms", "serialize.write_arrangement"),
    ("serialize.read_arrangement_ms", "serialize.read_arrangement"),
    ("serialize.write_stats_ms", "serialize.write_stats"),
    ("experiments.run_sweep_ms", "experiments.run_sweep"),
    ("cli.import_ms", "cli.import"),
    ("cli.generate_ms", "cli.generate"),
    ("cli.solve_ms", "cli.solve"),
    ("cli.validate_ms", "cli.validate"),
    ("cli.sweep_ms", "cli.sweep"),
)
LAYERS = ("bench", "ga", "evaluation", "oracle", "arrangement", "bay", "instances",
          "serialize", "experiments", "cli")
# What each layer metric should move:
# - ga.init_ms, ga.init_population_ms: wall_ms.p50 on large-bay, nothing on long-search.
# - ga.step_ms, ga.evolve_step_ms, ga.crossover_us, ga.roulette_select_us, ga.mutate_us:
#   wall_ms.p50 and time_to_gap_s.p50 on long-search.
# - ga.offspring_evaluated, ga.improving_gen_ratio: gap.p50 and time_to_gap_s.p50 on long-search.
# - evaluation.fitness_ms, oracle.rearrangement_ms, bay.canonical_above_counts_us: setup_s.
# - arrangement.from_id_sequence_us: ga.evolve_step_ms, which wraps the engine core.
# - instances.*: setup_s on the library workloads, wall_ms.p50 on cli-roundtrip.
# - arrangement.validate_ms, serialize.*, experiments.run_sweep_ms, cli.*: wall_ms.p50 on
#   cli-roundtrip; cli.import_ms also setup_s.
PER_LAYER = (
    ("ga.init_ms", "ms"),
    ("ga.step_ms", "ms"),
    ("ga.offspring_evaluated", "count"),
    ("ga.improving_gen_ratio", "ratio"),
    *((name, name.rsplit("_", 1)[1]) for name, _ in SPAN_METRICS),
    ("serialize.bytes_written", "bytes"),
    *((f"self_ms.{layer}", "ms") for layer in LAYERS),
    ("trace.overhead_ms", "ms"),
)


def use_checkout_source() -> bool:
    """Put the checkout's `src/` first on the import path; False if it is missing."""
    if not (SRC / "baystow" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def closed_loop(execute, inputs, seconds: float, tracer, first_request: int = 0) -> list:
    """Requests one after another, cycling over `inputs`, for `seconds` and at least one cycle."""
    from workloads import Outcome

    pairs = []
    deadline = time.perf_counter() + seconds
    while len(pairs) < len(inputs) or time.perf_counter() < deadline:
        inp = inputs[len(pairs) % len(inputs)]
        started = time.perf_counter()
        try:
            with tracer.span("bench.request", request=first_request + len(pairs)):
                outcome = execute(inp, tracer)
        except Exception as exc:  # a crash inside the program is a failed request
            outcome = Outcome(time.perf_counter() - started, [f"{type(exc).__name__}: {exc}"])
        pairs.append((inp, outcome))
    return pairs


def end_to_end_metrics(workload, pairs, setup_s: float) -> tuple[dict, dict]:
    """Values and sample counts of the end-to-end metrics."""
    walls = [o.wall_s for _, o in pairs]
    distinct = [o.gap for _, o in pairs[: workload.distinct_inputs] if o.gap is not None]
    to_gap = [t for inp, o in pairs if (t := o.time_to_gap_s(workload.target_gap, inp.optimum)) is not None]
    who = resource.RUSAGE_CHILDREN if workload.via_cli else resource.RUSAGE_SELF
    values = {
        "wall_ms.p50": statistics.median(walls) * 1e3,
        "wall_ms.p90": _p90(walls) * 1e3,
        "requests_per_s": len(walls) / sum(walls),
        "gap.p50": _median(distinct),
        "time_to_gap_s.p50": _median(to_gap),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    counts = {
        "wall_ms.p50": f"n={len(walls)} requests",
        "wall_ms.p90": f"n={len(walls)} requests",
        "requests_per_s": f"{len(walls)} requests in {sum(walls):.3f} busy s",
        "gap.p50": f"n={len(distinct)} distinct inputs",
        "time_to_gap_s.p50": f"n={len(to_gap)} requests, target gap {workload.target_gap}",
        "peak_rss_mb": "children" if workload.via_cli else "benchmark process",
        "setup_s": f"import + median of {SETUP_REPS} set-ups",
    }
    return values, counts


def layer_metrics(workload, traced, untraced, tracer, bytes_written) -> dict:
    from probes import median_ms

    records = [o.stats.records for _, o in traced if o.stats is not None]
    values = {
        "ga.init_ms": _median([r[0].elapsed_ms for r in records]),
        "ga.step_ms": _median([statistics.median(x.elapsed_ms for x in r[1:]) for r in records if len(r) > 1]),
        "ga.offspring_evaluated": _median([workload.problem.pop_size * (len(r) - 1) for r in records]),
        "ga.improving_gen_ratio": _median([_improving_ratio(r) for r in records if len(r) > 1]),
        "serialize.bytes_written": bytes_written,
        "trace.overhead_ms": (statistics.median(o.wall_s for _, o in traced)
                              - statistics.median(o.wall_s for _, o in untraced)) * 1e3,
    }
    for metric, span in SPAN_METRICS:
        values[metric] = median_ms(tracer, span, 1e6 if metric.endswith("_us") else 1e3)
    self_s = tracer.self_seconds()
    for layer in LAYERS:
        values[f"self_ms.{layer}"] = self_s.get(layer, 0.0) / len(traced) * 1e3
    return values


def _improving_ratio(records) -> float:
    """Share of generations after the first whose best fitness improved."""
    improved = sum(b.best_fitness < a.best_fitness for a, b in zip(records, records[1:]))
    return improved / (len(records) - 1)


def _median(values):
    return statistics.median(values) if values else None


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _read_first("/proc/cpuinfo", "model name"),
        "l3": _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "commit": _git_commit(),
    }


def _read_first(path: str, key: str | None = None) -> str:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError:
        return "unknown"
    for line in lines:
        if key is None:
            return line.strip()
        name, _, value = line.partition(":")
        if name.strip() == key:
            return value.strip()
    return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure(workload, seed: int, seconds: float, trace: bool, import_s: float, out: Path = OUT) -> dict:
    """Set up, run the closed loop, check every output, print and return the result."""
    from probes import probe_import, probe_library
    from tracing import Tracer
    from workloads import WORKLOADS, cli_request, library_request, make_inputs, trajectory_digest

    workdir = out / workload.name
    if workload.via_cli:
        def execute(inp, tracer):
            return cli_request(workload, inp, tracer, workdir / "request", SRC)
    else:
        def execute(inp, tracer):
            return library_request(workload, inp, tracer)

    # Set-up: inputs from the seed, oracle optima and one warm-up request,
    # repeated so that setup_s is a median.
    setup_times = []
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        inputs = make_inputs(workload, seed)
        _, warm = closed_loop(execute, inputs[:1], 0.0, Tracer(False))[0]
        setup_times.append(time.perf_counter() - started)
    setup_s = import_s + statistics.median(setup_times)

    env = environment()
    problems = [f"warm-up: {p}" for p in warm.problems]
    spans = []
    if not trace:
        pairs = closed_loop(execute, inputs, seconds, Tracer(False))
        values, counts = end_to_end_metrics(workload, pairs, setup_s)
        units = dict(END_TO_END)
    else:
        untraced = closed_loop(execute, inputs, seconds / 2, Tracer(False))
        tracer = Tracer(True)
        traced = closed_loop(execute, inputs, seconds / 2, tracer, first_request=len(untraced))
        pairs = untraced + traced
        bytes_written = None
        with_stats = [o for _, o in traced if o.stats is not None]
        if with_stats:
            bytes_written = probe_library(workload, inputs[0], with_stats[0], tracer, workdir / "probe")
        if not workload.via_cli:
            probe = cli_request(workload, inputs[0], tracer, workdir / "cli-probe", SRC)
            pairs.append((inputs[0], probe))
        probe_import(tracer, SRC)
        values = layer_metrics(workload, traced, untraced, tracer, bytes_written)
        counts = {}
        units = dict(PER_LAYER)
        spans = [s.as_dict() for s in tracer.spans]

    for index, (_, outcome) in enumerate(pairs):
        problems += [f"request {index}: {p}" for p in outcome.problems]
    failed = sum(1 for _, o in pairs if o.problems)
    digest = trajectory_digest([o for _, o in pairs[: workload.distinct_inputs]])
    result = {
        "correct": not problems,
        "attempted": len(pairs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }

    p = workload.problem
    largest = max(WORKLOADS.values(), key=lambda w: w.problem.merged_pool_bytes)
    print(f"baystow benchmark: workload={workload.name} seed={seed} seconds={seconds} "
          f"trace={int(trace)}; closed loop, 1 client, at most 1 child process")
    print("env: " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    print(f"working set: merged pool 2x{p.pop_size}x{p.n_containers} int64 = "
          f"{p.merged_pool_bytes / 1e6:.1f} MB against L3 {env['l3']}; the largest of any "
          f"workload is {largest.problem.merged_pool_bytes / 1e6:.1f} MB ({largest.name}), so "
          "every working set fits in cache and no memory-bandwidth claim can rest on these workloads")
    for name, unit in units.items():
        note = f"  ({counts[name]})" if name in counts else ""
        print(f"metric {name} = {values[name]} {unit}{note}")
    print(f"trajectory_digest = sha256:{digest}  ({workload.distinct_inputs} distinct inputs)")
    print(f"error_rate = {failed / len(pairs)}  ({failed} failed / {len(pairs)} attempted)")
    for problem in problems[:20]:
        print(f"FAILED {problem}")

    (out / "results").mkdir(parents=True, exist_ok=True)
    record = {**result, "workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": env, "trajectory_digest": digest,
              "walls_ms": [o.wall_s * 1e3 for _, o in pairs], "problems": problems, "spans": spans}
    path = out / "results" / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record) + "\n")
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout_source():
        print(f"error: no baystow source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    import baystow  # noqa: F401  -- the first part of setup_s
    import_s = time.perf_counter() - started

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
