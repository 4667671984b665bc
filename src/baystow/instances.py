"""Problem instances: identical containers with delivery dates in a fixed bay.

A container's priority is the reciprocal of its delivery date, so weights on
rehandles grow as the delivery deadline approaches. Instances can be built
directly or drawn reproducibly from a seeded generator specification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import mask_seed, require_seed
from .bay import BayDims
from .errors import InvalidSpec, require_int


@dataclass(frozen=True)
class Container:
    """One container, identified by a 1-based id, due at `delivery_date`."""

    id: int
    delivery_date: float

    def __post_init__(self) -> None:
        require_int("container id", self.id, 1)
        if not math.isfinite(self.delivery_date):
            raise InvalidSpec(f"delivery date must be finite, got {self.delivery_date!r}")
        if self.delivery_date <= 0:
            raise InvalidSpec(f"delivery date must be > 0, got {self.delivery_date!r}")

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
            raise InvalidSpec(f"{nc} containers exceed bay capacity {self.dims.capacity}")
        ids = sorted(c.id for c in self.containers)
        if ids != list(range(1, nc + 1)):
            # Ids are >= 1, so below its 1-based rank an id repeats the one before it.
            rank, cid = next((k, i) for k, i in enumerate(ids, 1) if i != k)
            problem = f"duplicate container id {cid}" if cid < rank else f"id {rank} missing, got {cid}"
            raise InvalidSpec(f"container ids must be exactly 1..{nc}: {problem}")
        # Built after the id check, so every id fits an int64 index.
        index = np.fromiter((c.id for c in self.containers), np.int64, nc)
        dates = np.fromiter((c.delivery_date for c in self.containers), np.float64, nc)
        by_id = np.zeros(nc + 1)
        by_id[index] = 1.0 / dates
        by_id.setflags(write=False)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_priorities", by_id[1:])

    @property
    def n_containers(self) -> int:
        return len(self.containers)

    def priority_by_id(self) -> np.ndarray:
        """Priorities indexed by id, entry 0 unused (0.0): one read-only array, built at construction."""
        return self._by_id

    def priority_vector(self) -> np.ndarray:
        """Priorities indexed by id - 1: the view of `priority_by_id()` without entry 0."""
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
        require_seed("seed", self.seed)
        require_int("n_containers", self.n_containers, 1)
        if self.n_containers > self.dims.capacity:
            raise InvalidSpec(
                f"n_containers {self.n_containers} exceeds bay capacity {self.dims.capacity}"
            )
        if not 0 < self.date_min <= self.date_max < math.inf:
            raise InvalidSpec(
                f"date range must satisfy 0 < min <= max < inf, got [{self.date_min}, {self.date_max}]"
            )


def generate_instance(spec: GeneratorSpec) -> Instance:
    """Draw the instance described by `spec`; identical specs give identical output."""
    rng = np.random.default_rng(mask_seed(spec.seed))
    dates = rng.uniform(spec.date_min, spec.date_max, size=spec.n_containers)
    containers = tuple(
        Container(i + 1, float(d)) for i, d in enumerate(dates)
    )
    return Instance(spec.dims, containers)
