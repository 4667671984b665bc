"""Golden traces: seeded runs must reproduce recorded results exactly.

Each case fixes an instance seed and a run seed and pins the sha256 of the
best id sequence plus every per-generation best and mean fitness (relative
tolerance 1e-12). The initial population and the random stream after it are
pinned too, as is one `shuffle_ids` draw, so a change to how transpositions
are drawn or applied shows up here even if the final best happens to agree.
The public operators are pinned on their own: five `evolve_step`s from
`init_population`, 20 `roulette_select` draws, 10 chained `mutate`s and one
`crossover` pair, then the random stream after them, for several crossover
and mutation probabilities.

The recorded values live in `golden_traces.json`. Re-record them only for a
deliberate behaviour change:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from baystow import (
    BayDims,
    CrossoverPlanes,
    GaConfig,
    GeneratorSpec,
    canonical_fill,
    crossover,
    evolve_step,
    fitness,
    generate_instance,
    init_population,
    mutate,
    roulette_select,
    run,
    shuffle_ids,
)

GOLDEN_PATH = Path(__file__).with_name("golden_traces.json")

# name -> (dims, n_containers, instance seed, config)
CASES = {
    "nc8": ((2, 2, 2), 8, 11, GaConfig(pop_size=10, generations=30, seed=21)),
    "nc64": ((5, 5, 3), 64, 12, GaConfig(pop_size=20, generations=40, seed=22)),
    "nc1000": ((10, 10, 10), 1000, 13, GaConfig(pop_size=50, generations=20, seed=23)),
    "no-init-swaps": ((3, 3, 3), 20, 14, GaConfig(pop_size=8, generations=25, seed=24, init_swaps=0)),
    "singleton": ((3, 3, 3), 27, 15, GaConfig(pop_size=1, generations=25, seed=25)),
}

SHUFFLE_CASE = ((4, 3, 3), 30, 16, 45)  # dims, n_containers, seed, swaps

# name -> (crossover_prob, mutation_prob). Every case runs on the same
# instance: 30 containers in 36 cells, so scan vectors and id sequences
# differ, and an odd population, so the last crossover pair is cut in half.
OPERATOR_CASES = {"pc0.8-pm0.1": (0.8, 0.1), "pc1-pm1": (1.0, 1.0), "pc0-pm0": (0.0, 0.0)}
OPERATOR_INSTANCE = ((4, 3, 3), 30, 17)
OPERATOR_SEED = 31


def _digest(values) -> str:
    ints = ",".join(str(int(v)) for v in np.asarray(values).ravel())
    return hashlib.sha256(ints.encode()).hexdigest()


def _instance(dims, nc, seed):
    return generate_instance(GeneratorSpec(BayDims(*dims), nc, seed=seed))


def trace(name: str) -> dict:
    dims, nc, inst_seed, cfg = CASES[name]
    inst = _instance(dims, nc, inst_seed)
    rng = np.random.default_rng(cfg.seed)
    population = init_population(inst, cfg, rng)
    stats = run(inst, cfg)
    return {
        "init_sha256": _digest([arr.id_sequence() for arr in population]),
        "next_random": rng.random(),
        "best_sha256": _digest(stats.best.id_sequence()),
        "best_fitness": stats.best_fitness,
        "best": [r.best_fitness for r in stats.records],
        "mean": [r.mean_fitness for r in stats.records],
    }


def shuffle_trace() -> dict:
    dims, nc, seed, swaps = SHUFFLE_CASE
    rng = np.random.default_rng(seed)
    shuffled = shuffle_ids(canonical_fill(_instance(dims, nc, seed)), rng, swaps)
    return {"grid_sha256": _digest(shuffled.grid), "next_random": rng.random()}


def operator_trace(name: str) -> dict:
    pc, pm = OPERATOR_CASES[name]
    inst = _instance(*OPERATOR_INSTANCE)
    cfg = GaConfig(pop_size=9, crossover_prob=pc, mutation_prob=pm)
    rng = np.random.default_rng(OPERATOR_SEED)
    initial = init_population(inst, cfg, rng)
    population, steps = initial, []
    for _ in range(5):
        population = evolve_step(population, inst, cfg, rng)
        steps.append(_digest([arr.id_sequence() for arr in population]))
    fits = [fitness(arr, inst).fitness for arr in population]
    picks = [roulette_select(fits, rng) for _ in range(20)]
    arr, mutants = population[0], []
    for _ in range(10):
        arr = mutate(arr, rng)
        mutants.append(_digest(arr.grid))
    children = crossover(initial[0], initial[1], CrossoverPlanes(2, 2, 2))
    return {
        "evolve_step_sha256": steps,
        "roulette_select": picks,
        "mutate_sha256": mutants,
        "crossover_sha256": [_digest(child.grid) for child in children],
        "next_random": rng.random(),
    }


def record() -> dict:
    return {
        "runs": {name: trace(name) for name in CASES},
        "shuffle_ids": shuffle_trace(),
        "operators": {name: operator_trace(name) for name in OPERATOR_CASES},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_run_matches_golden_trace(golden, name):
    expected = golden["runs"][name]
    got = trace(name)
    assert got["init_sha256"] == expected["init_sha256"]
    assert got["next_random"] == expected["next_random"]
    assert got["best_sha256"] == expected["best_sha256"]
    assert got["best_fitness"] == pytest.approx(expected["best_fitness"], rel=1e-12)
    assert len(got["best"]) == len(expected["best"]) == CASES[name][3].generations
    assert got["best"] == pytest.approx(expected["best"], rel=1e-12)
    assert got["mean"] == pytest.approx(expected["mean"], rel=1e-12)


def test_shuffle_ids_matches_golden_trace(golden):
    assert shuffle_trace() == golden["shuffle_ids"]


@pytest.mark.parametrize("name", list(OPERATOR_CASES))
def test_operators_match_golden_trace(golden, name):
    assert operator_trace(name) == golden["operators"][name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
