"""Fitness: priority-weighted rehandle counts over an arrangement.

Unloading a container requires moving every container stacked above it first,
so each container i contributes priority(i) * (containers above i) to the
objective. Lower is better; a fully ground-level arrangement scores zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrangement import Arrangement, validate
from .bay import canonical_above_counts
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
    """Rehandle counts indexed by id - 1; a valid arrangement holds the canonical occupancy."""
    ids = arr.id_sequence()
    out = np.empty(ids.size, dtype=np.int64)
    out[ids - 1] = canonical_above_counts(arr.dims, ids.size)
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
