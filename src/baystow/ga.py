"""Evolution engine: roulette selection, box crossover, swap mutation, elitism.

Individuals are id sequences over the canonical scan order, the rows of one
(N, Nc) matrix that `run` keeps in place beside a list of its rows from
fittest to least fit. Each generation draws parents by roulette wheel over
weights 1 / (1 + F) and copies only the N children, each pair's parents
standing in as its children. Crossover refills the crossing pairs' children,
mutation swaps within them, and the best N of incumbents and children
survive, ties to the incumbents, so the best fitness never rises; surviving
children overwrite the rows of the incumbents that died. Crossover cuts an
axis-aligned box out of the bay: a child keeps one parent's ids inside it and
refills the other cells, in scan order, in the other parent's order.

Each operator exists once: `_roulette`; `arrangement._transpose_rows` for
every swap (init, mutation, `shuffle_ids`); `_order_fill`, with out-of-box
masks ``(x >= px) | (y >= py) | (z >= pz)`` over the cached narrow cell
coordinates of `bay.canonical_coords`. The public operators wrap that core, so
a run is reproducible whether `run` drives it or it is stepped manually.
Fitness is `evaluation._batch_fitness`, the kernel `fitness()` and the oracles
use too; a row's bits do not depend on its place, so a clone ties its parent.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from ._rng import mask_seed, require_seed
from .arrangement import Arrangement, _transpose_rows, shuffle_ids
from .bay import canonical_coords
from .errors import InvalidSpec, ShapeMismatch, require_int, require_real
from .evaluation import _BLOCK_BYTES, _batch_fitness, _require_valid
from .instances import Instance

_FLOAT_MAX = np.finfo(np.float64).max


@dataclass(frozen=True)
class GaConfig:
    """Engine parameters; `init_swaps=None` means one transposition per container."""

    pop_size: int = 50
    generations: int = 100
    crossover_prob: float = 0.8
    mutation_prob: float = 0.1
    seed: int = 0
    init_swaps: int | None = None
    validate_every_individual: bool = False

    def __post_init__(self) -> None:
        require_seed("seed", self.seed)
        require_int("pop_size", self.pop_size, 1)
        require_int("generations", self.generations, 1)
        if self.generations > _MAX_GENERATIONS:
            raise InvalidSpec(f"generations must be at most {_MAX_GENERATIONS}, got {self.generations}")
        if self.init_swaps is not None:
            require_int("init_swaps", self.init_swaps, 0)
        for name in ("crossover_prob", "mutation_prob"):
            p = getattr(self, name)
            require_real(name, p)
            if not 0.0 <= p <= 1.0:
                raise InvalidSpec(f"{name} must be in [0, 1], got {p}")


@dataclass(frozen=True)
class CrossoverPlanes:
    """Cut positions along each axis; the kept box is {x < px, y < py, z < pz}."""

    px: int
    py: int
    pz: int


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best_fitness: float
    mean_fitness: float
    elapsed_ms: float


# A run's history has one column per `GenerationRecord` field, of its type: 32 bytes a generation.
HISTORY_FIELDS = get_type_hints(GenerationRecord)
HISTORY_DTYPE = np.dtype(list(HISTORY_FIELDS.items()))
# The most generations a run may have: its history, allocated up front, stays within 512 MiB,
# and 2^24 generations take half an hour even on a one-cell bay at pop 1 (2-vCPU x86 host).
_MAX_GENERATIONS = 1 << 24


class GenerationHistory(Sequence):
    """A run's per-generation history as read-only `HISTORY_DTYPE` columns, from `run` or `read_stats`.

    Indexing builds a `GenerationRecord` on access; a slice is a history over a view of the same rows.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: np.ndarray) -> None:
        columns.setflags(write=False)
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return GenerationHistory(self.columns[index])
        return GenerationRecord(*self.columns[index].item())

    def __iter__(self):
        return (GenerationRecord(*row) for row in self.columns.tolist())


@dataclass(frozen=True)
class RunStats:
    """Per-generation history of a run plus the best arrangement found."""

    records: GenerationHistory
    best: Arrangement
    best_fitness: float

    @property
    def initial_best(self) -> float:
        """Best fitness in the first generation (the initial population)."""
        return float(self.records.columns["best_fitness"][0])

    @property
    def final_best(self) -> float:
        """Best fitness in the last generation."""
        return float(self.records.columns["best_fitness"][-1])

    @property
    def total_elapsed_ms(self) -> float:
        return float(self.records.columns["elapsed_ms"].sum())


def _mean(fits: np.ndarray) -> float:
    """Mean of finite values, scaled by 1/N first where their sum could overflow; never below the least."""
    mean = fits.mean() if fits.max() <= _FLOAT_MAX / fits.size else (fits / fits.size).sum()
    return max(mean, fits.min())


def _roulette(fits: np.ndarray, u: float | np.ndarray) -> np.ndarray:
    """Indices drawn by roulette wheel over weights 1 / (1 + F), at uniforms `u` in [0, 1)."""
    cumulative = np.cumsum(1.0 / (1.0 + fits))
    return np.minimum(np.searchsorted(cumulative, u * cumulative[-1], side="right"), fits.size - 1)


def _order_fill(child: np.ndarray, donor: np.ndarray, outside: np.ndarray, mark: np.ndarray) -> None:
    """Refill `child`'s ids outside the box in place, in `donor` order; both hold the same ids."""
    mark[child] = outside
    child[outside] = donor[mark[donor]]


def _check(seqs: np.ndarray, instance: Instance, cfg: GaConfig) -> None:
    """Validate every row as an arrangement if `cfg.validate_every_individual` is set."""
    if not cfg.validate_every_individual:
        return
    for seq in seqs:
        _require_valid(Arrangement.from_id_sequence(instance.dims, seq), instance)


def _init_seqs(instance: Instance, cfg: GaConfig, rng: np.random.Generator) -> np.ndarray:
    """Population matrix: canonical order per row, then `init_swaps` transpositions."""
    nc = instance.n_containers
    swaps = cfg.init_swaps if cfg.init_swaps is not None else nc
    seqs = np.tile(np.arange(1, nc + 1, dtype=np.int64), (cfg.pop_size, 1))
    if swaps and nc:
        # The int64 draws fill in row-major order, so drawing `_BLOCK_BYTES` of pairs at a time
        # gives the numbers of one (pop_size, swaps, 2) draw, kept in the narrowest dtype that
        # holds a position. A narrow `dtype=` in the draw itself would change the numbers.
        pairs = np.empty((cfg.pop_size, swaps, 2), dtype=np.min_scalar_type(nc - 1))
        flat, step = pairs.reshape(-1, 2), max(1, _BLOCK_BYTES // 16)  # a drawn pair is 16 bytes
        for start in range(0, len(flat), step):
            chunk = flat[start : start + step]
            chunk[...] = rng.integers(0, nc, size=chunk.shape)
        seqs = _transpose_rows(seqs, pairs)
    _check(seqs, instance, cfg)
    return seqs


def _step_seqs(
    seqs: np.ndarray,
    rows: np.ndarray,
    fits: np.ndarray,
    instance: Instance,
    cfg: GaConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One generation in place; `seqs[rows[k]]` has fitness `fits[k]`. Returns the next (rows, fits)."""
    dims, nc = instance.dims, instance.n_containers
    n = cfg.pop_size
    n_pairs = (n + 1) // 2
    parents = rows[_roulette(fits, rng.random((n_pairs, 2)))]
    do_crossover = rng.random(n_pairs) < cfg.crossover_prob
    planes = rng.integers(1, (dims.n1 + 1, dims.n2 + 1, dims.n3 + 1), size=(n_pairs, 3))

    # Each pair's parents stand in as its children; with odd N the last pair has one.
    children = seqs[parents.ravel()[:n]]
    # Every pair's out-of-box mask at once, planes cast to the narrow coordinate dtypes
    # (an int64 comparison is slower). Masking all pairs keeps the mask one size all
    # run; a size that changes each generation fragmented the heap and raised peak RSS.
    x, y, z = canonical_coords(dims, nc)
    px, py, pz = planes.T
    outside = x >= px.astype(x.dtype)[:, None]
    outside |= y >= py.astype(y.dtype)[:, None]
    outside |= z >= pz.astype(z.dtype)[:, None]
    mark = np.zeros(nc + 1, dtype=bool)
    crossing = np.flatnonzero(do_crossover)
    for p, (i, j) in zip(crossing.tolist(), parents[crossing].tolist()):
        for child, donor in zip(children[2 * p : 2 * p + 2], (j, i)):
            _order_fill(child, seqs[donor], outside[p], mark)

    mutate_flags = rng.random(n) < cfg.mutation_prob
    if nc:
        # A row that does not mutate swaps position 0 with itself.
        pairs = rng.integers(0, nc, size=(n, 2)) * mutate_flags[:, None]
        _transpose_rows(children, pairs[:, None])
    _check(children, instance, cfg)

    pool_fits = np.concatenate([fits, _batch_fitness(children, instance)])
    order = np.argsort(pool_fits, kind="stable")
    survivors, dropped = order[:n], order[n:]
    # Pool entry k < n lives in row rows[k]; each surviving child takes a dead incumbent's row.
    pool_rows = np.concatenate([rows, np.empty_like(rows)])
    born = survivors[survivors >= n]
    pool_rows[born] = rows[dropped[dropped < n]]
    # Row by row: a fancy-indexed copy of the surviving children would be a second child matrix.
    for row, child in zip(pool_rows[born].tolist(), (born - n).tolist()):
        seqs[row] = children[child]
    return pool_rows[survivors], pool_fits[survivors]


def init_population(instance: Instance, cfg: GaConfig, rng: np.random.Generator) -> list[Arrangement]:
    """N arrangements, each a shuffled canonical fill; all satisfy the constraints."""
    return [Arrangement.from_id_sequence(instance.dims, s) for s in _init_seqs(instance, cfg, rng)]


def roulette_select(fitnesses, rng: np.random.Generator) -> int:
    """Index drawn with probability proportional to 1 / (1 + fitness)."""
    fits = np.asarray(fitnesses, dtype=np.float64)
    if fits.size == 0:
        raise ValueError("cannot select from an empty population")
    if np.any(fits < 0) or not np.all(np.isfinite(fits)):
        raise ValueError("fitness values must be finite and non-negative")
    return int(_roulette(fits, rng.random()))


def crossover(
    p1: Arrangement, p2: Arrangement, planes: CrossoverPlanes
) -> tuple[Arrangement, Arrangement]:
    """Exchange the box {x < px, y < py, z < pz} between two parents.

    Both parents must hold the canonical occupancy, the first Nc cells of scan
    order, as every individual of the engine does; otherwise, or if their dims
    differ, this raises ShapeMismatch. Each child keeps one parent's ids at the
    occupied cells inside the box; the occupied cells outside are refilled, in
    scan order, with the ids missing from the box, taken in the order they
    appear in the other parent's scan traversal. The out-of-box mask compares
    the engine's cell coordinates, so a crossing pair of `run` gets these children.
    """
    if p1.dims != p2.dims:
        raise ShapeMismatch(f"parents differ in dims: {p1.dims} vs {p2.dims}")
    dims = p1.dims
    if not (0 <= planes.px <= dims.n1 and 0 <= planes.py <= dims.n2 and 0 <= planes.pz <= dims.n3):
        raise ValueError(f"planes {planes} outside axis bounds of {dims}")
    s1, s2 = p1.id_sequence(), p2.id_sequence()
    nc = s1.size
    if s2.size != nc or not (p1.scan_vector()[:nc].all() and p2.scan_vector()[:nc].all()):
        raise ShapeMismatch("parents do not both hold the canonical occupancy")
    x, y, z = canonical_coords(dims, nc)
    outside = (x >= planes.px) | (y >= planes.py) | (z >= planes.pz)
    c1, c2 = s1.copy(), s2.copy()
    mark = np.zeros(int(max(s1.max(initial=0), s2.max(initial=0))) + 1, dtype=bool)
    _order_fill(c1, s2, outside, mark)
    _order_fill(c2, s1, outside, mark)
    return Arrangement.from_id_sequence(dims, c1), Arrangement.from_id_sequence(dims, c2)


def mutate(arr: Arrangement, rng: np.random.Generator) -> Arrangement:
    """Swap the ids of two occupied cells drawn uniformly (possibly the same cell)."""
    return shuffle_ids(arr, rng, 1)


def evolve_step(
    population: list[Arrangement],
    instance: Instance,
    cfg: GaConfig,
    rng: np.random.Generator,
) -> list[Arrangement]:
    """Advance one generation: N offspring, merge with incumbents, keep the best N.

    The returned population is sorted by fitness ascending; at equal fitness
    incumbents precede offspring, so repeat runs are reproducible.
    """
    if len(population) != cfg.pop_size:
        raise ValueError(f"population size {len(population)} != cfg.pop_size {cfg.pop_size}")
    seqs = np.stack([arr.id_sequence() for arr in population])
    rows, _ = _step_seqs(seqs, np.arange(len(seqs)), _batch_fitness(seqs, instance), instance, cfg, rng)
    return [Arrangement.from_id_sequence(instance.dims, seqs[r]) for r in rows]


def run(instance: Instance, cfg: GaConfig) -> RunStats:
    """Evolve for `cfg.generations` generations and record per-generation stats.

    The initial population counts as generation 1; every further generation
    is one `evolve_step`. Results are deterministic for a fixed seed except
    for the wall-clock `elapsed_ms` fields. Each generation writes one row of
    a history array allocated once per run.
    """
    rng = np.random.default_rng(mask_seed(cfg.seed))
    history = np.empty(cfg.generations, dtype=HISTORY_DTYPE)
    for generation in range(1, cfg.generations + 1):
        started = time.perf_counter()
        if generation == 1:
            seqs = _init_seqs(instance, cfg, rng)
            rows = np.arange(cfg.pop_size)
            fits = _batch_fitness(seqs, instance)
        else:
            rows, fits = _step_seqs(seqs, rows, fits, instance, cfg, rng)
        elapsed_ms = (time.perf_counter() - started) * 1e3
        history[generation - 1] = (generation, fits.min(), _mean(fits), elapsed_ms)
    best_row = int(np.argmin(fits))
    best = Arrangement.from_id_sequence(instance.dims, seqs[rows[best_row]])
    return RunStats(GenerationHistory(history), best, float(fits[best_row]))
