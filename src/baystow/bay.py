"""Bay geometry: grid dimensions, cells, and the canonical scan order.

The bay is a rectangular block of stacking positions indexed by (x, y, z),
with z counting floors upward from the ground. All placement and genetic
operators traverse cells in one fixed scan order: floor by floor from the
ground up, then along x, then along y. Filling the first k cells of that
order always yields a physically feasible stack (no floating containers,
floor counts non-increasing with height).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CapacityExceeded


class Cell(NamedTuple):
    """A grid position; z counts floors upward, floor 0 is the ground."""

    x: int
    y: int
    z: int


@dataclass(frozen=True)
class BayDims:
    """Cell counts along X, Y, and Z (number of floors)."""

    n1: int
    n2: int
    n3: int

    def __post_init__(self) -> None:
        for name in ("n1", "n2", "n3"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")

    @property
    def floor_capacity(self) -> int:
        """Cells per floor."""
        return self.n1 * self.n2

    @property
    def capacity(self) -> int:
        """Total cell count of the bay."""
        return self.n1 * self.n2 * self.n3

    def contains(self, cell: Cell) -> bool:
        return 0 <= cell.x < self.n1 and 0 <= cell.y < self.n2 and 0 <= cell.z < self.n3

    def __str__(self) -> str:
        return f"{self.n1}x{self.n2}x{self.n3}"


@lru_cache(maxsize=None)
def scan_coords(dims: BayDims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinate vectors (x, y, z) of every cell, indexed by scan position."""
    positions = np.arange(dims.capacity)
    z, rest = np.divmod(positions, dims.floor_capacity)
    x, y = np.divmod(rest, dims.n2)
    for axis in (x, y, z):
        axis.setflags(write=False)
    return x, y, z


@lru_cache(maxsize=None)
def canonical_above_counts(dims: BayDims, count: int) -> np.ndarray:
    """Containers stacked above each occupied cell under canonical fill.

    When the first `count` scan cells are occupied, entry k gives the number
    of occupied cells directly above scan cell k in its column. Every column
    holds ``count // floor_capacity`` containers, plus one more for the first
    ``count % floor_capacity`` columns in within-floor scan order.
    """
    if count > dims.capacity:
        raise CapacityExceeded(f"{count} containers exceed bay capacity {dims.capacity}")
    full_floors, remainder = divmod(count, dims.floor_capacity)
    heights = full_floors + (np.arange(dims.floor_capacity) < remainder)
    positions = np.arange(count)
    z, column = np.divmod(positions, dims.floor_capacity)
    above = heights[column] - 1 - z
    above.setflags(write=False)
    return above
