"""Arrangements: assignments of container ids to bay cells, plus their checks.

An arrangement is the chromosome of the search: the ids of the bay's cells in
scan order, 0 marking an empty cell, stored up to the last occupied cell, so
it costs O(Nc) in a bay of any size. The genetic operators all permute ids
over a fixed set of occupied cells (the canonical fill pattern, the first Nc
cells of scan order), which keeps the stacking constraints satisfied by
construction; `validate` checks them independently anyway and reports
violations as data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bay import BayDims, Cell, cell_coords
from .errors import ShapeMismatch
from .instances import Instance

EMPTY = 0  # scan value marking an unoccupied cell


@dataclass(frozen=True, eq=False)
class Arrangement:
    """Container ids of the bay's cells in scan order; ``scan[k] == 0`` marks an empty cell.

    `scan` is copied once, cut after its last occupied cell (every cell past it
    is empty) and frozen, so a valid arrangement's `scan` is its id sequence.
    """

    dims: BayDims
    scan: np.ndarray

    def __post_init__(self) -> None:
        vector = np.asarray(self.scan, dtype=np.int64)
        if vector.ndim != 1:
            raise ValueError(f"scan vector must be one-dimensional, got shape {vector.shape}")
        if vector.size > self.dims.capacity:
            raise ValueError(f"{vector.size} ids exceed bay capacity {self.dims.capacity}")
        scan = vector[: np.flatnonzero(vector)[-1] + 1 if vector.any() else 0].copy()
        scan.setflags(write=False)
        object.__setattr__(self, "scan", scan)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Arrangement):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.scan, other.scan)

    @property
    def n_containers(self) -> int:
        return int(np.count_nonzero(self.scan))

    @property
    def grid(self) -> np.ndarray:
        """A read-only dense view, ``grid[x, y, z]``, built on each access: O(capacity)."""
        grid = np.zeros((self.dims.n1, self.dims.n2, self.dims.n3), dtype=np.int64)
        grid[cell_coords(self.dims, np.arange(self.scan.size))] = self.scan
        grid.setflags(write=False)
        return grid

    def id_sequence(self) -> np.ndarray:
        """Ids of the occupied cells in scan order."""
        return self.scan[self.scan != EMPTY]

    @classmethod
    def from_id_sequence(cls, dims: BayDims, sequence: Sequence[int] | np.ndarray) -> Arrangement:
        """Place `sequence` into the first cells of scan order (canonical occupancy)."""
        return cls(dims, sequence)


@dataclass(frozen=True)
class Violation:
    """One broken constraint, naming the offending cell or floor."""

    constraint: str  # "permutation" | "support" | "floor-monotonicity" | "occupancy"
    where: str
    detail: str

    def __str__(self) -> str:
        return f"{self.constraint} violation at {self.where}: {self.detail}"


def canonical_fill(instance: Instance) -> Arrangement:
    """Place ids 1..Nc into the first Nc cells of scan order."""
    return Arrangement(instance.dims, np.arange(1, instance.n_containers + 1))


def shuffle_ids(arr: Arrangement, rng: np.random.Generator, swaps: int) -> Arrangement:
    """Apply `swaps` random transpositions of ids between occupied cells.

    The occupancy pattern is untouched; only which id sits where changes.
    Both cells of a transposition are drawn uniformly and independently, so a
    draw may hit the same cell twice and leave the arrangement unchanged.
    """
    if swaps < 0:
        raise ValueError(f"swaps must be >= 0, got {swaps}")
    occupied = np.flatnonzero(arr.scan)
    if swaps == 0 or occupied.size < 1:
        return arr
    pairs = occupied[rng.integers(0, occupied.size, size=(swaps, 2))].reshape(1, swaps, 2)
    return Arrangement(arr.dims, _transpose_rows(arr.scan[None].copy(), pairs)[0])


_SWAP_BLOCK = 256  # steps whose flat indices are built at once (0.4 MB at 50 rows)


def _transpose_rows(seqs: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Apply transpositions `pairs[r, t]` to row r of `seqs`, in step order t.

    `seqs` is (rows, n) and `pairs` is (rows, steps, 2) with positions in
    [0, n). Each step swaps in every row at once by one gather and one
    scatter over flat indices, ``flat[a…, b…] = flat[b…, a…]``, so the
    Python-level loop runs over steps only. Within a step no two rows share a
    flat index, and a self-swap (a == b) writes the same value twice, so the
    result equals applying each row's swaps one after another. The indices
    are built into two buffers of `_SWAP_BLOCK` steps, reused block after
    block, which bounds their memory whatever the step count. A C-contiguous
    `seqs` is updated in place; the result is returned either way.
    """
    rows, n = seqs.shape
    flat = seqs.reshape(-1)
    offsets = np.arange(rows) * n
    steps = pairs.shape[1]
    # (steps, 2, rows) flat positions: targets (a…, b…) and sources (b…, a…).
    dst = np.empty((min(steps, _SWAP_BLOCK), 2, rows), dtype=np.intp)
    src = np.empty_like(dst)
    for start in range(0, steps, _SWAP_BLOCK):
        k = min(_SWAP_BLOCK, steps - start)
        np.add(pairs[:, start : start + k].transpose(1, 2, 0), offsets, out=dst[:k])
        src[:k] = dst[:k, ::-1]
        for d, s in zip(dst[:k].reshape(k, 2 * rows), src[:k].reshape(k, 2 * rows)):
            flat[d] = flat[s]
    return flat.reshape(rows, n)


def above_count(arr: Arrangement, cell: Cell) -> int:
    """Number of occupied cells above `cell` in its column."""
    cell = Cell(*cell)
    if not arr.dims.contains(cell):
        raise ValueError(f"cell {tuple(cell)} outside bay {arr.dims}")
    fc = arr.dims.floor_capacity
    position = cell.z * fc + cell.x * arr.dims.n2 + cell.y
    if position >= arr.scan.size or arr.scan[position] == EMPTY:
        raise ValueError(f"cell {tuple(cell)} is empty")
    return int(np.count_nonzero(arr.scan[position + fc :: fc]))


def validate(arr: Arrangement, instance: Instance) -> list[Violation]:
    """Check every structural invariant; an empty report means the arrangement is valid.

    Violations are data, not errors: each entry names the broken constraint
    and the offending cell or floor. Checked independently of each other:
    the id permutation, support (no floating containers), floor counts
    non-increasing with height, and the canonical occupancy pattern. Each
    check finds its violations with array operations, and Python loops only
    over the violations found.
    """
    if arr.dims != instance.dims:
        raise ShapeMismatch(f"arrangement dims {arr.dims} != instance dims {instance.dims}")
    dims, scan = arr.dims, arr.scan
    nc, fc = instance.n_containers, dims.floor_capacity
    # Occupancy by scan position; every position past the mask is empty.
    occupied = np.zeros(max(scan.size, nc), dtype=bool)
    occupied[: scan.size] = scan != EMPTY
    violations: list[Violation] = []

    values, counts = np.unique(scan[occupied[: scan.size]], return_counts=True)
    foreign = (values < 1) | (values > nc)
    flagged = (counts > 1) | foreign
    for value, count, alien in zip(*(col[flagged].tolist() for col in (values, counts, foreign))):
        if count > 1:
            violations.append(Violation("permutation", f"id {value}", f"appears in {count} cells"))
        if alien:
            violations.append(Violation("permutation", f"id {value}", "not part of the instance"))
    placed = np.zeros(nc + 1, dtype=bool)
    placed[values[~foreign]] = True
    for missing in np.flatnonzero(~placed[1:]).tolist():
        violations.append(Violation("permutation", f"id {missing + 1}", "placed nowhere"))

    # The cell below scan position p is p - fc; report by (x, y, z), as a grid walk would.
    floating = cell_coords(dims, np.flatnonzero(occupied[fc:] & ~occupied[:-fc]) + fc)
    for x, y, z in sorted(zip(*(c.tolist() for c in floating))):
        violations.append(
            Violation("support", f"cell ({x}, {y}, {z})", "occupied cell with empty cell below")
        )

    floor_counts = np.bincount(np.flatnonzero(occupied) // fc).tolist()
    for j in np.flatnonzero(np.diff(floor_counts) > 0).tolist():
        violations.append(
            Violation(
                "floor-monotonicity",
                f"floor {j}",
                f"holds {floor_counts[j]} containers, floor {j + 1} holds {floor_counts[j + 1]}",
            )
        )

    for positions, detail in (
        (np.flatnonzero(occupied[nc:]) + nc, "occupied outside the canonical fill pattern"),
        (np.flatnonzero(~occupied[:nc]), "canonical fill cell left empty"),
    ):
        for x, y, z in zip(*(c.tolist() for c in cell_coords(dims, positions))):
            violations.append(Violation("occupancy", f"cell ({x}, {y}, {z})", detail))

    return violations
