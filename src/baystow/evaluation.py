"""Fitness: priority-weighted rehandle counts over an arrangement.

Unloading a container requires moving every container stacked above it first,
so each container i contributes priority(i) * (containers above i) to the
objective. Lower is better; a fully ground-level arrangement scores zero.

`_batch_fitness` is the one fitness kernel, for the engine, `fitness()` and the
oracles alike, so one id sequence gets the same bits wherever it is scored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrangement import Arrangement, validate
from .bay import canonical_above_counts
from .errors import InvalidArrangement
from .instances import Instance

_BLOCK_BYTES = 1 << 18  # a fitness block's gathered priorities, or one chunk of init draws


@dataclass(frozen=True)
class EvalResult:
    """Objective value of an arrangement; `rehandles` gives the per-container counts."""

    fitness: float


def _require_valid(arr: Arrangement, instance: Instance) -> None:
    violations = validate(arr, instance)
    if violations:
        raise InvalidArrangement(violations)


def _batch_fitness(seqs: np.ndarray, instance: Instance) -> np.ndarray:
    """Fitness of each row of an id-sequence matrix, gathered and summed a block of rows at a time.

    A block's gathered priorities take about `_BLOCK_BYTES`, and at least one
    row. `einsum` sums each row on its own, without BLAS, so a row's bits do not
    depend on its neighbours, its place in the matrix or the block size. Over
    several rows it splits a row longer than its 8,192-element buffer, but not
    a row alone, so such rows go one at a time.
    """
    depth = canonical_above_counts(instance.dims, instance.n_containers).astype(np.float64)
    priority = instance.priority_by_id()
    block = 1 if depth.size > 8192 else max(1, _BLOCK_BYTES // (priority.itemsize * max(depth.size, 1)))
    fits = np.empty(len(seqs))
    for start in range(0, len(seqs), block):
        fits[start : start + block] = np.einsum("ij,j->i", priority.take(seqs[start : start + block]), depth)
    return fits


def rehandles(arr: Arrangement, instance: Instance) -> dict[int, int]:
    """Minimum moves needed to expose each container: the count stacked above it."""
    _require_valid(arr, instance)
    ids = arr.id_sequence()
    above = np.empty(ids.size, dtype=np.int64)
    above[ids - 1] = canonical_above_counts(arr.dims, ids.size)
    return {i + 1: int(m) for i, m in enumerate(above)}


def fitness(arr: Arrangement, instance: Instance) -> EvalResult:
    """Sum of priority * rehandles over all containers: `_batch_fitness` of the id sequence."""
    _require_valid(arr, instance)
    return EvalResult(float(_batch_fitness(arr.id_sequence()[None], instance)[0]))
