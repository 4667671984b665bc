"""Fitness: priority-weighted rehandle counts over an arrangement.

Unloading a container requires moving every container stacked above it first,
so each container i contributes priority(i) * (containers above i) to the
objective. Lower is better; a fully ground-level arrangement scores zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrangement import EMPTY, Arrangement, validate
from .errors import InvalidArrangement
from .instances import Instance


@dataclass(frozen=True)
class EvalResult:
    """Objective value of an arrangement; `rehandles` gives the per-container counts."""

    fitness: float


def _require_valid(arr: Arrangement, instance: Instance) -> None:
    violations = validate(arr, instance)
    if violations:
        raise InvalidArrangement(violations)


def _rehandle_vector(arr: Arrangement) -> np.ndarray:
    """Rehandle counts indexed by id - 1; assumes a valid arrangement."""
    heights = np.count_nonzero(arr.grid, axis=2)
    layers = np.arange(arr.dims.n3)
    above = heights[:, :, None] - 1 - layers[None, None, :]
    occupied = arr.grid != EMPTY
    out = np.zeros(arr.n_containers, dtype=np.int64)
    out[arr.grid[occupied] - 1] = above[occupied]
    return out


def rehandles(arr: Arrangement, instance: Instance) -> dict[int, int]:
    """Minimum moves needed to expose each container: the count stacked above it."""
    _require_valid(arr, instance)
    vector = _rehandle_vector(arr)
    return {i + 1: int(m) for i, m in enumerate(vector)}


def fitness(arr: Arrangement, instance: Instance) -> EvalResult:
    """Sum of priority * rehandles over all containers, accumulated in id order."""
    _require_valid(arr, instance)
    return EvalResult(float(np.dot(instance.priority_vector(), _rehandle_vector(arr))))
