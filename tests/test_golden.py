"""Golden traces: seeded runs must reproduce recorded results exactly.

Each case fixes an instance seed and a run seed and pins the sha256 of the
best id sequence plus every per-generation best and mean fitness (relative
tolerance 1e-12). The initial population and the random stream after it are
pinned too, as is one `shuffle_ids` draw, so a change to how transpositions
are drawn or applied shows up here even if the final best happens to agree.

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
    GaConfig,
    GeneratorSpec,
    canonical_fill,
    generate_instance,
    init_population,
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


def record() -> dict:
    return {
        "runs": {name: trace(name) for name in CASES},
        "shuffle_ids": shuffle_trace(),
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
