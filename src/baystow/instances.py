"""Problem instances: a fixed bay plus one delivery date per identical container.

Ids are implicit: entry i of the date vector belongs to container id i + 1.
A container's priority is the reciprocal of its delivery date, so weights on
rehandles grow as the delivery deadline approaches. Instances can be built
directly or drawn reproducibly from a seeded generator specification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._rng import mask_seed, require_seed
from .bay import BayDims
from .errors import InvalidSpec, require_int, require_real


def _check_dates(dates: np.ndarray, name: Callable[[int], str]) -> None:
    """Raise InvalidSpec naming `name(k)` at the first date k not finite, > 0 and of finite 1/date."""
    with np.errstate(divide="ignore", over="ignore"):
        bad = np.flatnonzero(~(np.isfinite(dates) & (dates > 0) & np.isfinite(1.0 / dates)))
    if bad.size:
        k, date = int(bad[0]), float(dates[bad[0]])
        rule = "be > 0" if date <= 0 else "have a finite priority 1/date"
        rule = rule if math.isfinite(date) else "be finite"
        raise InvalidSpec(f"{name(k)}: delivery date must {rule}, got {date!r}")


@dataclass(frozen=True, eq=False)
class Instance:
    """A bay plus the delivery date of each container; `delivery_dates[i]` belongs to id i + 1."""

    dims: BayDims
    delivery_dates: np.ndarray

    def __post_init__(self) -> None:
        dates = np.array(self.delivery_dates, dtype=np.float64)
        if dates.ndim != 1:
            raise InvalidSpec(f"delivery dates must be a vector, got shape {dates.shape}")
        nc = dates.size
        if nc > self.dims.capacity:
            raise InvalidSpec(f"{nc} containers exceed bay capacity {self.dims.capacity}")
        _check_dates(dates, lambda k: f"container {k + 1}")
        by_id = np.concatenate([[0.0], 1.0 / dates])
        # Every fitness is at most the sum of priorities times the deepest canonical above-count.
        depth = max(nc - 1, 0) // self.dims.floor_capacity
        with np.errstate(over="ignore"):
            worst = float(by_id.sum()) * depth
        if depth and not math.isfinite(worst):
            raise InvalidSpec(f"delivery dates give a worst-case fitness of {worst}, not finite")
        dates.setflags(write=False)
        by_id.setflags(write=False)
        object.__setattr__(self, "delivery_dates", dates)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_priorities", by_id[1:])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.delivery_dates, other.delivery_dates)

    @property
    def n_containers(self) -> int:
        return self.delivery_dates.size

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
        require_real("date_min", self.date_min)
        require_real("date_max", self.date_max)
        if not 0 < self.date_min <= self.date_max < math.inf:
            raise InvalidSpec(
                f"date range must satisfy 0 < min <= max < inf, got [{self.date_min}, {self.date_max}]"
            )


def generate_instance(spec: GeneratorSpec) -> Instance:
    """Draw the instance described by `spec`; identical specs give identical output."""
    rng = np.random.default_rng(mask_seed(spec.seed))
    return Instance(spec.dims, rng.uniform(spec.date_min, spec.date_max, size=spec.n_containers))
