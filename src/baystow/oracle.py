"""Independent optimum finders used to cross-check the evolution engine.

Both oracles search the same space as the engine: permutations of the
container ids over the canonically occupied cells. `exhaustive_optimum`
enumerates every permutation and is limited to small instances;
`rearrangement_optimum` sorts priorities against stacking depths, which is
optimal because the cost is a sum of pairwise products between a fixed
multiset of priorities and a fixed multiset of above-counts: pairing the
largest priority with the smallest count minimizes the sum. The two agree
wherever both apply. Each scores its witness with the engine's fitness kernel,
so an optimum has the bits of an engine row holding the same id sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .arrangement import Arrangement
from .bay import canonical_above_counts
from .evaluation import _batch_fitness, fitness
from .instances import Instance

EXHAUSTIVE_LIMIT = 8


@dataclass(frozen=True)
class OracleResult:
    optimal_fitness: float
    witness: Arrangement


@lru_cache(maxsize=None)
def _all_permutations(n: int) -> np.ndarray:
    """All permutations of 1..n as an (n!, n) id matrix; n = 0 gives one empty row."""
    return np.array(list(permutations(range(1, n + 1))), dtype=np.int64)


def exhaustive_optimum(instance: Instance) -> OracleResult:
    """Minimum cost over every permutation of ids onto the occupied cells.

    Enumerates all Nc! candidates, so instances above EXHAUSTIVE_LIMIT
    containers are rejected. Ties resolve to the permutation that comes
    first in lexicographic id order.
    """
    nc = instance.n_containers
    if nc > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"{nc} containers means {nc}! permutations; "
            f"exhaustive search is capped at {EXHAUSTIVE_LIMIT}"
        )
    perms = _all_permutations(nc)
    costs = _batch_fitness(perms, instance)
    best = int(np.argmin(costs))
    return OracleResult(float(costs[best]), Arrangement(instance.dims, perms[best]))


def rearrangement_optimum(instance: Instance) -> OracleResult:
    """Optimal assignment by sorting: highest priority into the least-buried cell.

    Scales to any instance size. Ties in priority break by ascending id and
    ties in depth by scan order, both stable, so the witness is unique.
    """
    nc = instance.n_containers
    above = canonical_above_counts(instance.dims, nc)
    priorities = instance.priority_vector()
    id_order = np.argsort(-priorities, kind="stable")
    cell_order = np.argsort(above, kind="stable")
    seq = np.empty(nc, dtype=np.int64)
    seq[cell_order] = id_order + 1
    witness = Arrangement(instance.dims, seq)
    return OracleResult(fitness(witness, instance).fitness, witness)
