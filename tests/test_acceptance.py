"""Acceptance suite: eight criteria, one printed verdict line each.

Verdict lines bypass output capture (capfd.disabled) so every criterion
reports PASS or FAIL on the terminal even when its test passes; each test
then asserts, so a FAIL line is always accompanied by a test failure.
Criteria 2 and 3 share their runs with criterion 4 through module-scoped
fixtures.
"""

import time

import numpy as np
import pytest

from baystow import (
    BayDims,
    CrossoverPlanes,
    GaConfig,
    GeneratorSpec,
    canonical_fill,
    crossover,
    exhaustive_optimum,
    fitness,
    generate_instance,
    Instance,
    read_arrangement,
    read_instance,
    read_stats,
    rearrangement_optimum,
    rehandles,
    run,
    run_sweep,
    shuffle_ids,
    SweepSpec,
    write_arrangement,
    write_instance,
    write_stats,
)


@pytest.fixture
def verdict(capfd):
    def emit(num, name, ok, detail):
        line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        print(line)
        return ok

    return emit


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


@pytest.fixture(scope="module")
def small_scale_runs():
    """100 seeded 2x2x2 instances with Nc=8: exhaustive optimum plus a 200-generation run."""
    started = time.perf_counter()
    out = []
    for i in range(100):
        inst = generate_instance(GeneratorSpec(BayDims(2, 2, 2), 8, seed=1000 + i))
        opt = exhaustive_optimum(inst).optimal_fitness
        stats = run(inst, GaConfig(pop_size=50, generations=200, seed=2000 + i))
        out.append((opt, stats))
    return out, time.perf_counter() - started


@pytest.fixture(scope="module")
def mid_scale_runs():
    """20 seeded 4x4x4 instances with Nc=64: sorting bound plus a 300-generation run."""
    started = time.perf_counter()
    out = []
    for i in range(20):
        inst = generate_instance(GeneratorSpec(BayDims(4, 4, 4), 64, seed=3000 + i))
        opt = rearrangement_optimum(inst).optimal_fitness
        stats = run(inst, GaConfig(pop_size=50, generations=300, seed=4000 + i))
        out.append((opt, stats))
    return out, time.perf_counter() - started


def test_criterion_1_oracle_agreement(verdict):
    """Exhaustive search and the sorting bound name the same optimum on 200 instances."""
    started = time.perf_counter()
    worst = 0.0
    agree = 0
    for k in range(200):
        nc = 1 + k % 8
        inst = generate_instance(GeneratorSpec(BayDims(2, 2, 2), nc, seed=100 + k))
        ex = exhaustive_optimum(inst).optimal_fitness
        re = rearrangement_optimum(inst).optimal_fitness
        agree += _close(ex, re)
        worst = max(worst, abs(ex - re))
    elapsed = time.perf_counter() - started
    ok = agree == 200 and elapsed < 10.0
    assert verdict(
        1,
        "oracle agreement",
        ok,
        f"{agree}/200 agree within 1e-12, worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_small_scale_optimality(small_scale_runs, verdict):
    """The engine finds the exact optimum on at least 95 of 100 small instances."""
    runs, elapsed = small_scale_runs
    hits = sum(_close(stats.best_fitness, opt) for opt, stats in runs)
    ok = hits >= 95 and elapsed < 60.0
    assert verdict(
        2,
        "small-scale optimality",
        ok,
        f"{hits}/100 runs end at the exhaustive optimum (need 95), {elapsed:.1f}s",
    )


def test_criterion_3_mid_scale_quality(mid_scale_runs, verdict):
    """At 64 containers the engine ends within 10% of the sorting bound in 16 of 20 runs."""
    runs, elapsed = mid_scale_runs
    ratios = [stats.best_fitness / opt for opt, stats in runs]
    hits = sum(r <= 1.10 + 1e-12 for r in ratios)
    ok = hits >= 16 and elapsed < 300.0
    assert verdict(
        3,
        "quality at 64 containers",
        ok,
        f"{hits}/20 runs within 10% of the bound (worst ratio {max(ratios):.3f}), {elapsed:.1f}s",
    )


def test_criterion_4_elitist_monotonicity(small_scale_runs, mid_scale_runs, verdict):
    """Best fitness never increases between generations in any criterion 2 or 3 run."""
    violations = 0
    checked = 0
    for _, stats in small_scale_runs[0] + mid_scale_runs[0]:
        bests = [r.best_fitness for r in stats.records]
        checked += 1
        if any(b > a for a, b in zip(bests, bests[1:])):
            violations += 1
    ok = violations == 0
    assert verdict(
        4,
        "elitist monotonicity",
        ok,
        f"{checked} runs, {violations} with a rising best-fitness step",
    )


def test_criterion_5_improvement_ratio_trend(verdict):
    """Mean final/initial fitness stays under 0.8 for each container-count class."""
    started = time.perf_counter()
    spec = SweepSpec(
        "containers",
        (64, 125, 343, 729, 1000),
        config=GaConfig(pop_size=50, generations=20),
        reps=5,
        base_seed=42,
    )
    result = run_sweep(spec)
    means = {}
    for value in spec.values:
        ratios = [
            r.stats.final_best / r.stats.initial_best
            for r in result.runs
            if r.swept_value == value
        ]
        means[value] = float(np.mean(ratios))
    elapsed = time.perf_counter() - started
    ok = all(m < 0.8 for m in means.values())
    detail = " ".join(f"Nc={v}:{m:.3f}" for v, m in means.items())
    assert verdict(5, "improvement ratio under 0.8", ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_6_generation_plateau(verdict):
    """At 64 containers the mean final fitness stops moving between 100 and 200 generations."""
    started = time.perf_counter()
    finals = {20: [], 100: [], 200: []}
    for i in range(10):
        inst = generate_instance(GeneratorSpec(BayDims(4, 4, 4), 64, seed=70000 + i))
        for gens in (20, 100, 200):
            stats = run(inst, GaConfig(pop_size=50, generations=gens, seed=80000 + i))
            finals[gens].append(stats.final_best)
    m20, m100, m200 = (float(np.mean(finals[g])) for g in (20, 100, 200))
    gap = abs(m200 - m100) / m100
    elapsed = time.perf_counter() - started
    ok = m100 <= m20 and gap <= 0.05
    assert verdict(
        6,
        "generation plateau",
        ok,
        f"mean final 20g={m20:.3f} 100g={m100:.3f} 200g={m200:.3f}, "
        f"100-to-200 gap {gap:.1%} (limit 5%), {elapsed:.1f}s",
    )


def test_criterion_7_population_size_trend(verdict):
    """Bigger populations end at least as fit and cost strictly more time."""
    started = time.perf_counter()
    spec = SweepSpec(
        "population",
        (20, 50, 125),
        config=GaConfig(generations=100),
        n_containers=125,
        dims=BayDims(5, 5, 5),
        reps=5,
        base_seed=99,
    )
    result = run_sweep(spec)
    finals = [p.mean_final_best for p in result.points]
    elapsed_means = [p.mean_elapsed_ms for p in result.points]
    fit_ok = all(b <= a for a, b in zip(finals, finals[1:]))
    time_ok = all(b > a for a, b in zip(elapsed_means, elapsed_means[1:]))
    elapsed = time.perf_counter() - started
    ok = fit_ok and time_ok
    detail = (
        "mean final " + "/".join(f"{f:.3f}" for f in finals)
        + ", mean ms " + "/".join(f"{t:.0f}" for t in elapsed_means)
        + f", {elapsed:.1f}s"
    )
    assert verdict(7, "population size trend", ok, detail)


def test_criterion_8_structural_suite(tmp_path, verdict):
    """Permutation closure, debug-validated run, rehandle identity, date scaling,
    serialization round-trips, and bitwise seed determinism."""
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    checks = {}

    # permutation closure: 10^4 crossover trials, each child holds each id once
    inst = generate_instance(GeneratorSpec(BayDims(3, 3, 3), 20, seed=55))
    base = canonical_fill(inst)
    want = np.arange(1, 21)
    closure = True
    for _ in range(10_000):
        p1 = shuffle_ids(base, rng, 20)
        p2 = shuffle_ids(base, rng, 20)
        planes = CrossoverPlanes(*(int(rng.integers(1, 4)) for _ in range(3)))
        for child in crossover(p1, p2, planes):
            if not np.array_equal(np.sort(child.id_sequence()), want):
                closure = False
    checks["crossover closure"] = closure

    # every individual created in a debug-mode run passes validation
    debug_inst = generate_instance(GeneratorSpec(BayDims(2, 2, 4), 16, seed=66))
    debug_cfg = GaConfig(pop_size=20, generations=60, seed=7, validate_every_individual=True)
    debug_stats = run(debug_inst, debug_cfg)  # raises on any invalid individual
    checks["debug-validated run"] = len(debug_stats.records) == 60

    # total rehandles depend only on the occupancy pattern
    identity = True
    for dims, nc in [((2, 2, 3), 11), ((3, 3, 3), 27), ((4, 4, 2), 21)]:
        d = BayDims(*dims)
        check_inst = generate_instance(GeneratorSpec(d, nc, seed=nc))
        full, rem = divmod(nc, d.floor_capacity)
        heights = [full + (1 if k < rem else 0) for k in range(d.floor_capacity)]
        expected = sum(h * (h - 1) // 2 for h in heights)
        for _ in range(30):
            arr = shuffle_ids(canonical_fill(check_inst), rng, nc)
            if sum(rehandles(arr, check_inst).values()) != expected:
                identity = False
    checks["rehandle-sum identity"] = identity

    # scaling every date by k divides fitness by exactly k
    scaling = True
    dims = BayDims(3, 2, 3)
    plain = generate_instance(GeneratorSpec(dims, 18, seed=1))
    for k in (2.0, 9.5):
        scaled = Instance(dims, k * plain.delivery_dates)
        for _ in range(20):
            arr = shuffle_ids(canonical_fill(plain), rng, 18)
            f = fitness(arr, plain).fitness
            g = fitness(arr, scaled).fitness
            if not _close(g, f / k):
                scaling = False
    checks["date-scaling law"] = scaling

    # serialization round-trips over random specs
    round_trips = True
    for t in range(20):
        dims = BayDims(*(int(rng.integers(1, 5)) for _ in range(3)))
        nc = int(rng.integers(1, dims.capacity + 1))
        spec = GeneratorSpec(dims, nc, seed=t)
        original = generate_instance(spec)
        ipath = tmp_path / f"inst_{t}.json"
        write_instance(original, ipath)
        if read_instance(ipath) != original:
            round_trips = False
        arr = shuffle_ids(canonical_fill(original), rng, nc)
        apath = tmp_path / f"arr_{t}.json"
        write_arrangement(arr, apath)
        if read_arrangement(apath) != arr:
            round_trips = False
    stats = run(plain, GaConfig(pop_size=10, generations=12, seed=3))
    spath = tmp_path / "stats.csv"
    write_stats(stats, spath)
    reread = read_stats(spath)
    if [r.generation for r in reread] != [r.generation for r in stats.records]:
        round_trips = False
    if any(
        float(format(a.best_fitness, ".6g")) != b.best_fitness
        for a, b in zip(stats.records, reread)
    ):
        round_trips = False
    checks["serialization round-trips"] = round_trips

    # bitwise determinism for a fixed seed, wall-clock fields excluded
    det_inst = generate_instance(GeneratorSpec(BayDims(3, 3, 3), 27, seed=77))
    det_cfg = GaConfig(pop_size=25, generations=50, seed=9)
    first, second = run(det_inst, det_cfg), run(det_inst, det_cfg)
    same_records = [
        (r.generation, r.best_fitness, r.mean_fitness) for r in first.records
    ] == [(r.generation, r.best_fitness, r.mean_fitness) for r in second.records]
    checks["seed determinism"] = (
        same_records
        and first.best == second.best
        and first.best_fitness == second.best_fitness
        and generate_instance(GeneratorSpec(BayDims(3, 3, 3), 27, seed=77)) == det_inst
    )

    elapsed = time.perf_counter() - started
    ok = all(checks.values())
    detail = ", ".join(f"{name} {'ok' if good else 'BROKEN'}" for name, good in checks.items())
    assert verdict(8, "structural suite", ok, f"{detail}, {elapsed:.1f}s")
