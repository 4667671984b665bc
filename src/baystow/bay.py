"""Bay geometry: grid dimensions, cells, and the canonical scan order.

The bay is a rectangular block of stacking positions indexed by (x, y, z),
with z counting floors upward from the ground. All placement and genetic
operators traverse cells in one fixed scan order: floor by floor from the
ground up, then along x, then along y. Filling the first k cells of that
order always yields a physically feasible stack (no floating containers,
floor counts non-increasing with height). The engine reads that fill from two
small caches: each cell's above-count, and its (x, y, z) in narrow dtypes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidSpec, require_int

# The most cells a bay may have, on any host: an `Arrangement`'s on-demand dense grid, and a file's
# scan vector that fills the last cell, stay within 128 MiB; no test or workload uses over 4M cells.
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


# Bays whose tables stay cached: a run, a sweep point and the oracles each use one bay at a time.
_CACHED_BAYS = 1


@lru_cache(maxsize=_CACHED_BAYS)
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
    above = np.zeros(count, dtype=np.int64)  # the partial top floor has none above
    floors = above[: count - remainder].reshape(full_floors, dims.floor_capacity)
    floors[...] = np.arange(full_floors, dtype=np.min_scalar_type(full_floors))[::-1, None]
    floors[:, :remainder] += 1  # columns that reach the partial top floor
    above.setflags(write=False)
    return above


@lru_cache(maxsize=_CACHED_BAYS)
def canonical_coords(dims: BayDims, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only coordinates (x, y, z) of the first `count` scan cells.

    Each axis is in the narrowest unsigned dtype that holds its length n, as a
    box plane runs to n: the cells outside {x < px, y < py, z < pz} are
    ``(x >= px) | (y >= py) | (z >= pz)``, each plane cast to its axis's dtype.
    """
    if count > dims.capacity:
        raise ValueError(f"{count} containers exceed bay capacity {dims.capacity}")
    coords = []
    for n, step in ((dims.n1, dims.n2), (dims.n2, 1), (dims.n3, dims.floor_capacity)):
        # Scan cell k has coordinate (k // step) % n: runs of `step` cells take 0..n-1 in turn.
        coord = np.empty(count, dtype=np.min_scalar_type(n))
        runs, last = divmod(count, step)
        values = np.tile(np.arange(min(n, runs), dtype=coord.dtype), -(-runs // n))[:runs]
        coord[: count - last].reshape(runs, step)[...] = values[:, None]
        coord[count - last :] = runs % n
        coord.setflags(write=False)
        coords.append(coord)
    return tuple(coords)
