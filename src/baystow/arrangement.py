"""Arrangements: assignments of container ids to bay cells, plus their checks.

An arrangement is the chromosome of the search: a 3D grid holding a container
id in each occupied cell and 0 elsewhere. The genetic operators all permute
ids over a fixed set of occupied cells (the canonical fill pattern), which
keeps the stacking constraints satisfied by construction; `validate` checks
them independently anyway and reports violations as data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bay import BayDims, Cell, cell_coords
from .errors import ShapeMismatch
from .instances import Instance

EMPTY = 0  # grid value marking an unoccupied cell


@dataclass(frozen=True, eq=False)
class Arrangement:
    """Container ids on the bay grid; ``grid[x, y, z] == 0`` marks an empty cell."""

    dims: BayDims
    grid: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.dims.n1, self.dims.n2, self.dims.n3)
        grid = np.ascontiguousarray(self.grid, dtype=np.int64)
        if grid.shape != expected:
            raise ValueError(f"grid shape {grid.shape} does not match dims {expected}")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Arrangement):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.grid, other.grid)

    @property
    def n_containers(self) -> int:
        return int(np.count_nonzero(self.grid))

    def scan_vector(self) -> np.ndarray:
        """Grid values in scan order; length equals the bay capacity."""
        return self.grid.transpose(2, 0, 1).ravel()

    def id_sequence(self) -> np.ndarray:
        """Ids of the occupied cells in scan order."""
        vector = self.scan_vector()
        return vector[vector != EMPTY]

    @classmethod
    def from_scan_vector(cls, dims: BayDims, vector: Sequence[int] | np.ndarray) -> Arrangement:
        """Build from a full-length scan-order vector (zeros where empty)."""
        flat = np.asarray(vector, dtype=np.int64)
        if flat.shape != (dims.capacity,):
            raise ValueError(f"scan vector must have length {dims.capacity}, got {flat.shape}")
        grid = flat.reshape(dims.n3, dims.n1, dims.n2).transpose(1, 2, 0)
        return cls(dims, grid)

    @classmethod
    def from_id_sequence(cls, dims: BayDims, sequence: Sequence[int] | np.ndarray) -> Arrangement:
        """Place `sequence` into the first cells of scan order (canonical occupancy)."""
        seq = np.asarray(sequence, dtype=np.int64)
        if seq.size > dims.capacity:
            raise ValueError(f"{seq.size} ids exceed bay capacity {dims.capacity}")
        full = np.zeros(dims.capacity, dtype=np.int64)
        full[: seq.size] = seq
        return cls.from_scan_vector(dims, full)


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
    return Arrangement.from_id_sequence(instance.dims, np.arange(1, instance.n_containers + 1))


def shuffle_ids(arr: Arrangement, rng: np.random.Generator, swaps: int) -> Arrangement:
    """Apply `swaps` random transpositions of ids between occupied cells.

    The occupancy pattern is untouched; only which id sits where changes.
    Both cells of a transposition are drawn uniformly and independently, so a
    draw may hit the same cell twice and leave the arrangement unchanged.
    """
    if swaps < 0:
        raise ValueError(f"swaps must be >= 0, got {swaps}")
    vector = arr.scan_vector().copy()
    occupied = np.flatnonzero(vector)
    if swaps == 0 or occupied.size < 1:
        return arr
    pairs = occupied[rng.integers(0, occupied.size, size=(swaps, 2))].reshape(1, swaps, 2)
    return Arrangement.from_scan_vector(arr.dims, _transpose_rows(vector[None], pairs)[0])


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
    x, y, z = cell
    if arr.grid[x, y, z] == EMPTY:
        raise ValueError(f"cell {tuple(cell)} is empty")
    return int(np.count_nonzero(arr.grid[x, y, z + 1 :]))


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
    dims = arr.dims
    nc = instance.n_containers
    occupied = arr.grid != EMPTY
    violations: list[Violation] = []

    values, counts = np.unique(arr.grid[occupied], return_counts=True)
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

    floating = occupied[:, :, 1:] & ~occupied[:, :, :-1]
    for x, y, z in np.argwhere(floating).tolist():
        violations.append(
            Violation("support", f"cell ({x}, {y}, {z + 1})", "occupied cell with empty cell below")
        )

    floor_counts = occupied.sum(axis=(0, 1)).tolist()
    for j in np.flatnonzero(np.diff(floor_counts) > 0).tolist():
        violations.append(
            Violation(
                "floor-monotonicity",
                f"floor {j}",
                f"holds {floor_counts[j]} containers, floor {j + 1} holds {floor_counts[j + 1]}",
            )
        )

    occupied_scan = arr.scan_vector() != EMPTY
    for positions, detail in (
        (np.flatnonzero(occupied_scan[nc:]) + nc, "occupied outside the canonical fill pattern"),
        (np.flatnonzero(~occupied_scan[:nc]), "canonical fill cell left empty"),
    ):
        for x, y, z in zip(*(c.tolist() for c in cell_coords(dims, positions))):
            violations.append(Violation("occupancy", f"cell ({x}, {y}, {z})", detail))

    return violations
