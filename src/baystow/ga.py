"""Evolution engine: roulette selection, box crossover, swap mutation, elitism.

Each generation draws parents by roulette wheel over weights 1 / (1 + F)
(small F means fit, weights stay finite at F = 0) and gathers one pool: the
N incumbents, then each pair's two parents as its two children. Crossover
refills the children of crossing pairs in place inside that pool, mutation
swaps within it, and the best N of the incumbents and the first N children
survive. Keeping the incumbents makes the best fitness non-increasing from
one generation to the next.

The crossover operator cuts an axis-aligned box out of the bay: the child
keeps the first parent's ids inside the box and fills the remaining cells,
in scan order, with the absent ids in the order they appear in the second
parent. Internally individuals are stored as id sequences over the canonical
scan order, which turns all operators into flat array operations. Each
operator exists once: roulette selection is `_roulette`, every swap (init,
mutation, `shuffle_ids`) is `arrangement._transpose_rows`, and crossover is
`_order_fill`. The public operators accept and return `Arrangement` values
and call that core, so a run is reproducible whether it is driven by `run`
or stepped manually. The core reads each per-instance constant from its
one owner: priorities from `Instance.priority_vector()`, built once per
instance, and above-counts and scan coordinates from the cached `bay` ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ._rng import mask_seed, require_seed
from .arrangement import Arrangement, _transpose_rows, shuffle_ids, validate
from .bay import canonical_above_counts, scan_coords
from .errors import EmptyPopulation, InvalidArrangement, InvalidSpec, ShapeMismatch, require_int
from .instances import Instance


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
        if self.init_swaps is not None:
            require_int("init_swaps", self.init_swaps, 0)
        for name in ("crossover_prob", "mutation_prob"):
            p = getattr(self, name)
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


@dataclass(frozen=True)
class RunStats:
    """Per-generation history of a run plus the best arrangement found."""

    records: tuple[GenerationRecord, ...]
    best: Arrangement
    best_fitness: float

    @property
    def initial_best(self) -> float:
        """Best fitness in the first generation (the initial population)."""
        return self.records[0].best_fitness

    @property
    def final_best(self) -> float:
        """Best fitness in the last generation."""
        return self.records[-1].best_fitness

    @property
    def total_elapsed_ms(self) -> float:
        return sum(r.elapsed_ms for r in self.records)


def _batch_fitness(seqs: np.ndarray, instance: Instance) -> np.ndarray:
    """Fitness of each row of an id-sequence matrix."""
    above = canonical_above_counts(instance.dims, instance.n_containers)
    return instance.priority_vector()[seqs - 1] @ above


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
        violations = validate(Arrangement.from_id_sequence(instance.dims, seq), instance)
        if violations:
            raise InvalidArrangement(violations)


def _init_seqs(instance: Instance, cfg: GaConfig, rng: np.random.Generator) -> np.ndarray:
    """Population matrix: canonical order per row, then `init_swaps` transpositions."""
    nc = instance.n_containers
    swaps = cfg.init_swaps if cfg.init_swaps is not None else nc
    seqs = np.tile(np.arange(1, nc + 1, dtype=np.int64), (cfg.pop_size, 1))
    if swaps and nc:
        # One draw fills the rows in order, matching per-row draws number for number.
        seqs = _transpose_rows(seqs, rng.integers(0, nc, size=(cfg.pop_size, swaps, 2)))
    _check(seqs, instance, cfg)
    return seqs


def _step_seqs(
    seqs: np.ndarray,
    fits: np.ndarray,
    instance: Instance,
    cfg: GaConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One generation over the sequence matrix; returns (population, fitness) sorted ascending."""
    dims, nc = instance.dims, instance.n_containers
    xs, ys, zs = (axis[:nc] for axis in scan_coords(dims))
    n = cfg.pop_size
    n_pairs = (n + 1) // 2
    parents = _roulette(fits, rng.random((n_pairs, 2)))
    do_crossover = rng.random(n_pairs) < cfg.crossover_prob
    plane_highs = (dims.n1 + 1, dims.n2 + 1, dims.n3 + 1)
    planes = rng.integers(1, plane_highs, size=(n_pairs, 3))

    # Incumbents, then each pair's parents standing in as its two children.
    pool = seqs[np.concatenate([np.arange(n), parents.ravel()])]
    mark = np.zeros(nc + 1, dtype=bool)
    for p in np.flatnonzero(do_crossover):
        i, j = parents[p]
        outside = (xs >= planes[p, 0]) | (ys >= planes[p, 1]) | (zs >= planes[p, 2])
        _order_fill(pool[n + 2 * p], seqs[j], outside, mark)
        _order_fill(pool[n + 2 * p + 1], seqs[i], outside, mark)
    offspring = pool[n : 2 * n]

    mutate_flags = rng.random(n) < cfg.mutation_prob
    if nc:
        # A row that does not mutate swaps position 0 with itself.
        pairs = rng.integers(0, nc, size=(n, 2)) * mutate_flags[:, None]
        _transpose_rows(offspring, pairs[:, None])
    _check(offspring, instance, cfg)

    pool_fits = np.concatenate([fits, _batch_fitness(offspring, instance)])
    order = np.argsort(pool_fits, kind="stable")[:n]
    return pool[order], pool_fits[order]


def init_population(instance: Instance, cfg: GaConfig, rng: np.random.Generator) -> list[Arrangement]:
    """N arrangements, each a shuffled canonical fill; all satisfy the constraints."""
    return [Arrangement.from_id_sequence(instance.dims, s) for s in _init_seqs(instance, cfg, rng)]


def roulette_select(fitnesses, rng: np.random.Generator) -> int:
    """Index drawn with probability proportional to 1 / (1 + fitness)."""
    fits = np.asarray(fitnesses, dtype=np.float64)
    if fits.size == 0:
        raise EmptyPopulation("cannot select from an empty population")
    if np.any(fits < 0) or not np.all(np.isfinite(fits)):
        raise ValueError("fitness values must be finite and non-negative")
    return int(_roulette(fits, rng.random()))


def crossover(
    p1: Arrangement, p2: Arrangement, planes: CrossoverPlanes
) -> tuple[Arrangement, Arrangement]:
    """Exchange the box {x < px, y < py, z < pz} between two parents.

    Each child keeps one parent's ids at the occupied cells inside the box;
    the occupied cells outside are refilled, in scan order, with the ids
    missing from the box, taken in the order they appear in the other
    parent's scan traversal. Children occupy exactly the parents' cells.
    """
    if p1.dims != p2.dims:
        raise ShapeMismatch(f"parents differ in dims: {p1.dims} vs {p2.dims}")
    dims = p1.dims
    if not (0 <= planes.px <= dims.n1 and 0 <= planes.py <= dims.n2 and 0 <= planes.pz <= dims.n3):
        raise ValueError(f"planes {planes} outside axis bounds of {dims}")
    v1 = p1.scan_vector()
    v2 = p2.scan_vector()
    occupied = np.flatnonzero(v1)
    if not np.array_equal(occupied, np.flatnonzero(v2)):
        raise ShapeMismatch("parents do not share an occupancy pattern")
    xs, ys, zs = scan_coords(dims)
    outside = (xs[occupied] >= planes.px) | (ys[occupied] >= planes.py) | (zs[occupied] >= planes.pz)
    s1, s2 = v1[occupied], v2[occupied]
    c1, c2 = s1.copy(), s2.copy()
    mark = np.zeros(int(max(s1.max(initial=0), s2.max(initial=0))) + 1, dtype=bool)
    _order_fill(c1, s2, outside, mark)
    _order_fill(c2, s1, outside, mark)
    out1, out2 = v1.copy(), v2.copy()
    out1[occupied] = c1
    out2[occupied] = c2
    return (
        Arrangement.from_scan_vector(dims, out1),
        Arrangement.from_scan_vector(dims, out2),
    )


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
    new_seqs, _ = _step_seqs(seqs, _batch_fitness(seqs, instance), instance, cfg, rng)
    return [Arrangement.from_id_sequence(instance.dims, s) for s in new_seqs]


def run(instance: Instance, cfg: GaConfig) -> RunStats:
    """Evolve for `cfg.generations` generations and record per-generation stats.

    The initial population counts as generation 1; every further generation
    is one `evolve_step`. Results are deterministic for a fixed seed except
    for the wall-clock `elapsed_ms` fields.
    """
    rng = np.random.default_rng(mask_seed(cfg.seed))
    records = []
    for generation in range(1, cfg.generations + 1):
        started = time.perf_counter()
        if generation == 1:
            seqs = _init_seqs(instance, cfg, rng)
            fits = _batch_fitness(seqs, instance)
        else:
            seqs, fits = _step_seqs(seqs, fits, instance, cfg, rng)
        elapsed_ms = (time.perf_counter() - started) * 1e3
        records.append(GenerationRecord(generation, float(fits.min()), float(fits.mean()), elapsed_ms))
    best_row = int(np.argmin(fits))
    best = Arrangement.from_id_sequence(instance.dims, seqs[best_row])
    return RunStats(tuple(records), best, float(fits[best_row]))
