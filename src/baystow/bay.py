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

from .errors import InvalidSpec, require_int

# The most cells a bay may have, on any host: an `Arrangement`'s dense int64 grid
# stays within 128 MiB, and the largest bay any test or workload uses has 4M cells.
_MAX_CELLS = 1 << 24


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
            require_int(name, getattr(self, name), 1)
        if self.capacity > _MAX_CELLS:
            raise InvalidSpec(f"cannot hold a {self} bay: its {self.capacity} cells exceed {_MAX_CELLS}")

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


def cell_coords(dims: BayDims, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinate vectors (x, y, z) of the cells at the given scan positions."""
    z, rest = np.divmod(positions, dims.floor_capacity)
    x, y = np.divmod(rest, dims.n2)
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
        raise ValueError(f"{count} containers exceed bay capacity {dims.capacity}")
    full_floors, remainder = divmod(count, dims.floor_capacity)
    z, column = np.divmod(np.arange(count), dims.floor_capacity)
    above = full_floors - 1 - z + (column < remainder)
    above.setflags(write=False)
    return above


@lru_cache(maxsize=None)
def canonical_plane_masks(dims: BayDims, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis plane tables (x, y, z) over the first `count` scan cells.

    Row p of the x table marks the cells whose x >= p, for p in 0..n1; the
    y and z tables do the same along their axes. So the cells outside the
    box {x < px, y < py, z < pz} are ``x[px] | y[py] | z[pz]``. The tables
    hold ``count * (n1 + n2 + n3 + 3)`` bools, built from the `cell_coords` of
    those cells alone, never from coordinates over the whole bay.
    """
    if count > dims.capacity:
        raise ValueError(f"{count} containers exceed bay capacity {dims.capacity}")
    coords = cell_coords(dims, np.arange(count))
    tables = tuple(
        coord >= np.arange(n + 1)[:, None] for coord, n in zip(coords, (dims.n1, dims.n2, dims.n3))
    )
    for table in tables:
        table.setflags(write=False)
    return tables
