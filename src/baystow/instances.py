"""Problem instances: identical containers with delivery dates in a fixed bay.

A container's priority is the reciprocal of its delivery date, so weights on
rehandles grow as the delivery deadline approaches. Instances can be built
directly or drawn reproducibly from a seeded generator specification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import is_seed, mask_seed
from .bay import BayDims
from .errors import CapacityExceeded, InvalidSpec, NonPositiveDate


@dataclass(frozen=True)
class Container:
    """One container, identified by a 1-based id, due at `delivery_date`."""

    id: int
    delivery_date: float

    def __post_init__(self) -> None:
        if not isinstance(self.id, int) or isinstance(self.id, bool) or self.id < 1:
            raise ValueError(f"container id must be a positive integer, got {self.id!r}")
        if not math.isfinite(self.delivery_date):
            raise ValueError(f"delivery date must be finite, got {self.delivery_date!r}")
        if self.delivery_date <= 0:
            raise NonPositiveDate(f"delivery date must be > 0, got {self.delivery_date!r}")

    @property
    def priority(self) -> float:
        return 1.0 / self.delivery_date


@dataclass(frozen=True)
class Instance:
    """A bay plus the containers to stow in it; ids run 1..Nc exactly."""

    dims: BayDims
    containers: tuple[Container, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "containers", tuple(self.containers))
        nc = len(self.containers)
        if nc > self.dims.capacity:
            raise CapacityExceeded(
                f"{nc} containers exceed bay capacity {self.dims.capacity}"
            )
        ids = sorted(c.id for c in self.containers)
        if ids != list(range(1, nc + 1)):
            raise ValueError(f"container ids must be exactly 1..{nc}, got {ids}")
        # Built after the id check, so every id fits an int64 index.
        positions = np.fromiter((c.id - 1 for c in self.containers), np.int64, nc)
        dates = np.fromiter((c.delivery_date for c in self.containers), np.float64, nc)
        priorities = np.empty(nc)
        priorities[positions] = 1.0 / dates
        priorities.setflags(write=False)
        object.__setattr__(self, "_priorities", priorities)

    @property
    def n_containers(self) -> int:
        return len(self.containers)

    def priority_vector(self) -> np.ndarray:
        """Priorities indexed by id - 1: one read-only array, built at construction."""
        return self._priorities


@dataclass(frozen=True)
class GeneratorSpec:
    """Seeded recipe for a random instance with uniform delivery dates."""

    dims: BayDims
    n_containers: int
    date_min: float = 1.0
    date_max: float = 100.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not is_seed(self.seed):
            raise InvalidSpec(f"seed must be an integer, got {self.seed!r}")
        if self.n_containers < 1:
            raise InvalidSpec(f"n_containers must be >= 1, got {self.n_containers}")
        if self.n_containers > self.dims.capacity:
            raise InvalidSpec(
                f"n_containers {self.n_containers} exceeds bay capacity {self.dims.capacity}"
            )
        if not (math.isfinite(self.date_min) and math.isfinite(self.date_max)):
            raise InvalidSpec("date range bounds must be finite")
        if not 0 < self.date_min <= self.date_max:
            raise InvalidSpec(
                f"date range must satisfy 0 < min <= max, got [{self.date_min}, {self.date_max}]"
            )


def generate_instance(spec: GeneratorSpec) -> Instance:
    """Draw the instance described by `spec`; identical specs give identical output."""
    rng = np.random.default_rng(mask_seed(spec.seed))
    dates = rng.uniform(spec.date_min, spec.date_max, size=spec.n_containers)
    containers = tuple(
        Container(i + 1, float(d)) for i, d in enumerate(dates)
    )
    return Instance(spec.dims, containers)
