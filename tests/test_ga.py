import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import baystow.evaluation
import baystow.ga
from baystow import (
    EMPTY,
    Arrangement,
    BayDims,
    CrossoverPlanes,
    GaConfig,
    GeneratorSpec,
    Instance,
    InvalidArrangement,
    InvalidSpec,
    ShapeMismatch,
    above_count,
    canonical_fill,
    cell_coords,
    crossover,
    evolve_step,
    fitness,
    generate_instance,
    init_population,
    mutate,
    rearrangement_optimum,
    rehandles,
    roulette_select,
    run,
    shuffle_ids,
    validate,
)
from baystow.arrangement import _transpose_rows
from baystow.evaluation import _batch_fitness
from conftest import make_instance


class FixedDraw:
    """Random-stream stand-in whose integers() returns a preset array."""

    def __init__(self, values):
        self.values = np.asarray(values)

    def integers(self, low, high, size=None):
        return self.values


def small_instance(nc=8, seed=0):
    return generate_instance(GeneratorSpec(BayDims(2, 2, 2), nc, seed=seed))


def large_instance():
    """The `large-bay` size: 8000 containers filling a 20x20x20 bay."""
    return generate_instance(GeneratorSpec(BayDims(20, 20, 20), 8000, seed=1))


def long_row_instance():
    """100,000 containers filling a 50x50x40 bay: one id row is 800 KB, three `_BLOCK_BYTES`."""
    return generate_instance(GeneratorSpec(BayDims(50, 50, 40), 100_000, seed=1))


def traced_peak(call):
    """Peak bytes that `tracemalloc` sees allocated while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGaConfig:
    def test_defaults(self):
        cfg = GaConfig()
        assert cfg.pop_size == 50
        assert cfg.crossover_prob == 0.8
        assert cfg.mutation_prob == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pop_size": 0},
            {"generations": 0},
            {"crossover_prob": 1.5},
            {"mutation_prob": -0.1},
            {"crossover_prob": True},
            {"mutation_prob": False},
            {"mutation_prob": "0.5"},
            {"crossover_prob": None},
            {"init_swaps": -1},
            {"pop_size": True},
            {"pop_size": 2.5},
            {"pop_size": "50"},
            {"generations": False},
            {"generations": 10.0},
            {"generations": 2**24 + 1},
            {"init_swaps": True},
            {"init_swaps": 1.5},
            {"seed": 2.5},
            {"seed": True},
            {"seed": "7"},
        ],
    )
    def test_bounds(self, kwargs):
        with pytest.raises(ValueError):
            GaConfig(**kwargs)

    def test_generations_limit(self):
        """2^24 generations, a 512 MiB history, is the limit itself."""
        assert GaConfig(generations=2**24).generations == 2**24
        with pytest.raises(InvalidSpec, match="at most 16777216, got 16777217"):
            GaConfig(generations=2**24 + 1)


class TestInitPopulation:
    def test_unshuffled_singleton_is_canonical(self, rng):
        inst = small_instance()
        cfg = GaConfig(pop_size=1, init_swaps=0)
        assert init_population(inst, cfg, rng) == [canonical_fill(inst)]

    def test_all_individuals_valid(self, rng):
        inst = small_instance()
        pop = init_population(inst, GaConfig(pop_size=20), rng)
        assert len(pop) == 20
        assert all(validate(arr, inst) == [] for arr in pop)

    def test_seed_determinism(self):
        inst = small_instance()
        cfg = GaConfig(pop_size=12)
        a = init_population(inst, cfg, np.random.default_rng(5))
        b = init_population(inst, cfg, np.random.default_rng(5))
        assert a == b

    def test_init_memory_is_population_plus_narrow_draws(self):
        """Init at pop 50 x Nc 8000 holds the population and its swap positions in 16 bits.

        The positions are drawn a few rows at a time as int64 and kept as
        uint16, a quarter of the population's bytes. One int64 draw of every
        transposition, twice the population's bytes, breaks the bound.
        """
        inst, cfg = large_instance(), GaConfig(pop_size=50)
        seqs = baystow.ga._init_seqs(inst, cfg, np.random.default_rng(0))
        peak = traced_peak(lambda: baystow.ga._init_seqs(inst, cfg, np.random.default_rng(0)))
        assert peak < 1.8 * seqs.nbytes

    def test_init_memory_at_pop_2_on_a_long_row(self):
        """Init at pop 2 x Nc 100,000 peaks under 2.3 populations: it draws chunks, not whole rows, of int64."""
        inst, cfg = long_row_instance(), GaConfig(pop_size=2)
        seqs = baystow.ga._init_seqs(inst, cfg, np.random.default_rng(0))
        peak = traced_peak(lambda: baystow.ga._init_seqs(inst, cfg, np.random.default_rng(0)))
        assert peak < 2.3 * seqs.nbytes

    @pytest.mark.parametrize("budget", [1, 16 * 7, 16 * 999])
    def test_draw_chunks_do_not_change_the_population(self, budget):
        """Drawing the swap positions in chunks of 1, 7 or 999 pairs gives the population of the default chunks."""
        inst, cfg = generate_instance(GeneratorSpec(BayDims(10, 10, 10), 1000, seed=3)), GaConfig(pop_size=3)
        expected = baystow.ga._init_seqs(inst, cfg, np.random.default_rng(4))
        with mock.patch.object(baystow.ga, "_BLOCK_BYTES", budget):
            np.testing.assert_array_equal(baystow.ga._init_seqs(inst, cfg, np.random.default_rng(4)), expected)


class TestRouletteSelect:
    def test_singleton(self, rng):
        assert roulette_select([2.5], rng) == 0

    def test_empty_rejected(self, rng):
        with pytest.raises(ValueError, match="cannot select from an empty population"):
            roulette_select([], rng)

    def test_negative_rejected(self, rng):
        with pytest.raises(ValueError):
            roulette_select([1.0, -0.5], rng)

    @pytest.mark.parametrize(
        "fits, seed",
        [([2.5], 1), ([3.0, 3.0, 3.0, 3.0], 42), ([0.0, 3.0], 7), ([0.0, 0.0, 7.5, 1.0, 0.25], 3)],
    )
    def test_replays_vectorised_roulette(self, fits, seed):
        """Each call draws one uniform, so n calls equal one `_roulette` over n uniforms."""
        rng_calls, rng_batch = np.random.default_rng(seed), np.random.default_rng(seed)
        picks = [roulette_select(fits, rng_calls) for _ in range(1_000)]
        expected = baystow.ga._roulette(np.asarray(fits), rng_batch.random(1_000))
        np.testing.assert_array_equal(picks, expected)
        assert rng_calls.random() == rng_batch.random()

    # The distribution tests draw 100,000 picks in one `_roulette` call; by the
    # replay test above these are the picks of 100,000 `roulette_select` calls.
    def test_uniform_when_fitnesses_equal(self):
        rng = np.random.default_rng(42)
        draws = 100_000
        picks = baystow.ga._roulette(np.asarray([3.0, 3.0, 3.0, 3.0]), rng.random(draws))
        counts = np.bincount(picks, minlength=4)
        p = 0.25
        sigma = np.sqrt(p * (1 - p) * draws)
        assert np.all(np.abs(counts - p * draws) < 3 * sigma)

    def test_biased_toward_low_fitness(self):
        # weights 1/(1+F): F=(0,3) gives (1, 0.25), probabilities (0.8, 0.2)
        rng = np.random.default_rng(7)
        draws = 100_000
        hits = np.count_nonzero(baystow.ga._roulette(np.asarray([0.0, 3.0]), rng.random(draws)) == 0)
        sigma = np.sqrt(0.8 * 0.2 * draws)
        assert abs(hits - 0.8 * draws) < 3 * sigma


class TestCrossover:
    def test_identical_parents(self):
        inst = small_instance()
        arr = canonical_fill(inst)
        c1, c2 = crossover(arr, arr, CrossoverPlanes(1, 2, 1))
        assert c1 == arr and c2 == arr

    def test_full_region_copies_parents(self, rng):
        inst = small_instance()
        p1 = shuffle_ids(canonical_fill(inst), rng, 8)
        p2 = shuffle_ids(canonical_fill(inst), rng, 8)
        c1, c2 = crossover(p1, p2, CrossoverPlanes(2, 2, 2))
        assert c1 == p1 and c2 == p2

    def test_hand_traced_exchange(self):
        """Region {(0,0,0)}: child keeps one id, refills in the other parent's order."""
        inst = make_instance((2, 1, 2), [1.0, 2.0, 3.0, 4.0])
        p1 = Arrangement.from_id_sequence(inst.dims, np.array([1, 2, 3, 4]))
        p2 = Arrangement.from_id_sequence(inst.dims, np.array([4, 3, 2, 1]))
        c1, c2 = crossover(p1, p2, CrossoverPlanes(1, 1, 1))
        assert c1.id_sequence().tolist() == [1, 4, 3, 2]
        assert c2.id_sequence().tolist() == [4, 1, 2, 3]

    def test_children_are_permutations(self, rng):
        inst = make_instance((3, 2, 3), [float(d) for d in rng.uniform(1, 40, size=13)])
        base = canonical_fill(inst)
        for _ in range(300):
            p1 = shuffle_ids(base, rng, 13)
            p2 = shuffle_ids(base, rng, 13)
            planes = CrossoverPlanes(*(int(rng.integers(1, n + 1)) for n in (3, 2, 3)))
            for child in crossover(p1, p2, planes):
                assert validate(child, inst) == []

    def test_dims_mismatch_rejected(self):
        a = canonical_fill(make_instance((2, 2, 2), [1.0] * 4))
        b = canonical_fill(make_instance((2, 2, 1), [1.0] * 4))
        with pytest.raises(ShapeMismatch):
            crossover(a, b, CrossoverPlanes(1, 1, 1))

    def test_occupancy_mismatch_rejected(self):
        a = canonical_fill(make_instance((2, 2, 2), [1.0] * 4))
        b = canonical_fill(make_instance((2, 2, 2), [1.0] * 5))
        with pytest.raises(ShapeMismatch):
            crossover(a, b, CrossoverPlanes(1, 1, 1))

    def test_shared_non_canonical_occupancy_rejected(self):
        """Both parents fill scan cells 0, 1, 2 and 4, not the canonical 0-3: outside the engine's space."""
        dims = BayDims(2, 2, 2)
        a = Arrangement(dims, [1, 2, 3, 0, 4, 0, 0, 0])
        b = Arrangement(dims, [4, 3, 2, 0, 1, 0, 0, 0])
        with pytest.raises(ShapeMismatch, match="canonical occupancy"):
            crossover(a, b, CrossoverPlanes(1, 1, 1))

    def test_memory_on_a_sparse_bay(self, rng):
        """Eight containers in a 200,000-cell bay: the children cost their ids, not the bay's cells."""
        inst = make_instance((100, 100, 20), [1.0] * 8)
        base = canonical_fill(inst)
        p1, p2 = shuffle_ids(base, rng, 8), shuffle_ids(base, rng, 8)
        tracemalloc.start()
        try:
            children = crossover(p1, p2, CrossoverPlanes(1, 1, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(validate(child, inst) == [] for child in children)
        assert peak < 16 * 1024

    def test_plane_out_of_bounds_rejected(self):
        arr = canonical_fill(make_instance((2, 2, 2), [1.0] * 4))
        with pytest.raises(ValueError):
            crossover(arr, arr, CrossoverPlanes(3, 1, 1))


@st.composite
def crossover_cases(draw):
    """Random bay up to 5x5x5, two shuffled parents over its canonical occupancy, in-bounds planes."""
    dims = BayDims(*(draw(st.integers(1, 5)) for _ in range(3)))
    nc = draw(st.integers(0, dims.capacity))
    inst = Instance(dims, np.ones(nc))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p1, p2 = (shuffle_ids(canonical_fill(inst), rng, nc) for _ in range(2))
    planes = CrossoverPlanes(*(draw(st.integers(0, n)) for n in (dims.n1, dims.n2, dims.n3)))
    return inst, p1, p2, planes


@settings(max_examples=100, deadline=None)
@given(crossover_cases())
def test_crossover_keeps_box_and_fills_in_donor_order(case):
    """Davis-style order crossover: the box comes from the keeper, the rest in donor order."""
    inst, p1, p2, planes = case
    xs, ys, zs = cell_coords(inst.dims, np.arange(inst.dims.capacity))
    box = (xs < planes.px) & (ys < planes.py) & (zs < planes.pz)
    c1, c2 = crossover(p1, p2, planes)
    for keeper, donor, child in ((p1, p2, c1), (p2, p1, c2)):
        assert validate(child, inst) == []
        # Each parent's scan vector, full length, from its grid.
        keep_ids, donor_ids, child_ids = (a.grid.transpose(2, 0, 1).ravel() for a in (keeper, donor, child))
        np.testing.assert_array_equal(child_ids[box], keep_ids[box])
        in_box = set(keep_ids[box].tolist())
        rest = [i for i in donor_ids.tolist() if i != EMPTY and i not in in_box]
        assert [i for i in child_ids[~box].tolist() if i != EMPTY] == rest


@st.composite
def pair_cases(draw):
    """Random bay up to 4x4x4 with power-of-two dates, so every fitness sum is exact."""
    dims = BayDims(*(draw(st.integers(1, 4)) for _ in range(3)))
    nc = draw(st.integers(0, dims.capacity))
    dates = draw(st.lists(st.sampled_from([1.0, 2.0, 4.0, 8.0]), min_size=nc, max_size=nc))
    inst = Instance(dims, np.array(dates, dtype=float))
    return inst, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(pair_cases())
def test_engine_crossover_matches_crossover(case):
    """A crossing pair's children from `evolve_step` are `crossover()`'s under the same draws."""
    inst, seed = case
    cfg = GaConfig(pop_size=2, crossover_prob=1.0, mutation_prob=0.0)
    population = init_population(inst, cfg, np.random.default_rng(seed + 1))
    new = evolve_step(population, inst, cfg, np.random.default_rng(seed))

    fits = [fitness(arr, inst).fitness for arr in population]
    rng = np.random.default_rng(seed)
    i, j = roulette_select(fits, rng), roulette_select(fits, rng)
    rng.random()  # crossover draw, always below crossover_prob = 1
    dims = inst.dims
    planes = CrossoverPlanes(*rng.integers(1, (dims.n1 + 1, dims.n2 + 1, dims.n3 + 1), size=3))
    pool = [*population, *crossover(population[i], population[j], planes)]
    ranked = sorted(range(4), key=lambda k: fitness(pool[k], inst).fitness)  # stable: incumbents first
    assert new == [pool[k] for k in ranked[:2]]


class TestMutate:
    def test_single_container_unchanged(self, rng):
        inst = make_instance((2, 2, 2), [1.0])
        arr = canonical_fill(inst)
        assert mutate(arr, rng) == arr

    def test_same_cell_draw_unchanged(self):
        inst = small_instance()
        arr = canonical_fill(inst)
        assert mutate(arr, FixedDraw([3, 3])) == arr

    def test_forced_exchange(self):
        inst = make_instance((1, 1, 2), [1.0, 2.0])
        arr = canonical_fill(inst)
        swapped = mutate(arr, FixedDraw([0, 1]))
        assert swapped.id_sequence().tolist() == [2, 1]

    def test_validity_preserved(self, rng):
        inst = small_instance()
        arr = canonical_fill(inst)
        for _ in range(100):
            arr = mutate(arr, rng)
            assert validate(arr, inst) == []


class TestEvolveStep:
    def test_copy_only_keeps_identical_population(self, rng):
        inst = small_instance()
        cfg = GaConfig(pop_size=6, crossover_prob=0.0, mutation_prob=0.0)
        pop = [canonical_fill(inst)] * 6
        assert evolve_step(pop, inst, cfg, rng) == pop

    def test_output_size(self, rng):
        inst = small_instance()
        cfg = GaConfig(pop_size=9)
        pop = init_population(inst, cfg, rng)
        assert len(evolve_step(pop, inst, cfg, rng)) == 9

    def test_wrong_population_size_rejected(self, rng):
        inst = small_instance()
        cfg = GaConfig(pop_size=5)
        with pytest.raises(ValueError):
            evolve_step([canonical_fill(inst)], inst, cfg, rng)

    def test_elitism_over_many_steps(self):
        """Best fitness never rises across 1000 random evolution steps."""
        inst = small_instance(seed=3)
        cfg = GaConfig(pop_size=10)
        rng = np.random.default_rng(99)
        pop = init_population(inst, cfg, rng)
        best = min(fitness(a, inst).fitness for a in pop)
        for _ in range(1000):
            pop = evolve_step(pop, inst, cfg, rng)
            new_best = min(fitness(a, inst).fitness for a in pop)
            assert new_best <= best
            best = new_best

    def test_every_offspring_valid(self, rng):
        inst = small_instance(seed=5)
        cfg = GaConfig(pop_size=8, validate_every_individual=True)
        pop = init_population(inst, cfg, rng)
        for _ in range(50):
            pop = evolve_step(pop, inst, cfg, rng)
        assert all(validate(arr, inst) == [] for arr in pop)

    def test_step_memory_is_pool_plus_one_matrix(self):
        """One step at pop 50 x Nc 8000 allocates the N children and little else.

        The population stays in place: only the N children are gathered, the
        fitness gathers its priorities a block of rows at a time, and each
        surviving child is written over a dead incumbent's row. A 2N-row pool,
        a copy of the merged population or of the surviving children, or a
        whole N x Nc priority matrix breaks the bound.
        """
        inst, cfg = large_instance(), GaConfig(pop_size=50)
        seqs = baystow.ga._init_seqs(inst, cfg, np.random.default_rng(0))
        fits = _batch_fitness(seqs, inst)
        rows = np.arange(cfg.pop_size)
        rng = np.random.default_rng(1)
        peak = traced_peak(lambda: baystow.ga._step_seqs(seqs, rows, fits, inst, cfg, rng))
        assert peak < 1.35 * seqs.nbytes


def reference_step(seqs, fits, instance, cfg, rng):
    """The pool-and-gather generation the in-place step replaced; returns (population, fitness) sorted.

    It gathers the N incumbents and every pair's two parents into one 2N-row
    pool, refills and mutates the children there, and gathers the best N rows
    of the pool. With odd N it builds the last pair's second child and drops it.
    """
    dims, nc = instance.dims, instance.n_containers
    n = cfg.pop_size
    n_pairs = (n + 1) // 2
    parents = baystow.ga._roulette(fits, rng.random((n_pairs, 2)))
    do_crossover = rng.random(n_pairs) < cfg.crossover_prob
    planes = rng.integers(1, (dims.n1 + 1, dims.n2 + 1, dims.n3 + 1), size=(n_pairs, 3))

    pool = seqs[np.concatenate([np.arange(n), parents.ravel()])]
    x, y, z = cell_coords(dims, np.arange(nc))
    px, py, pz = planes.T
    outside = (x >= px[:, None]) | (y >= py[:, None]) | (z >= pz[:, None])
    mark = np.zeros(nc + 1, dtype=bool)
    crossing = np.flatnonzero(do_crossover)
    for p, (i, j) in zip(crossing.tolist(), parents[crossing].tolist()):
        baystow.ga._order_fill(pool[n + 2 * p], seqs[j], outside[p], mark)
        baystow.ga._order_fill(pool[n + 2 * p + 1], seqs[i], outside[p], mark)
    offspring = pool[n : 2 * n]

    mutate_flags = rng.random(n) < cfg.mutation_prob
    if nc:
        pairs = rng.integers(0, nc, size=(n, 2)) * mutate_flags[:, None]
        _transpose_rows(offspring, pairs[:, None])

    pool_fits = np.concatenate([fits, _batch_fitness(offspring, instance)])
    order = np.argsort(pool_fits, kind="stable")[:n]
    return pool[order], pool_fits[order]


@st.composite
def step_cases(draw):
    """Random bay up to 5x5x5 with any fill, pop 1-9, pc and pm in {0, 0.5, 1}, 1-10 generations."""
    dims = BayDims(*(draw(st.integers(1, 5)) for _ in range(3)))
    nc = draw(st.integers(0, dims.capacity))
    dates = draw(st.lists(st.floats(1.0, 100.0), min_size=nc, max_size=nc))
    cfg = GaConfig(
        pop_size=draw(st.integers(1, 9)),
        crossover_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
        mutation_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )
    generations, seed = draw(st.integers(1, 10)), draw(st.integers(0, 2**32 - 1))
    return Instance(dims, np.array(dates)), cfg, generations, seed


@settings(max_examples=150, deadline=None)
@given(step_cases())
def test_step_matches_reference_step(case):
    """Generation by generation, the in-place step gives the reference's population and fitness.

    Compared as the population in rank order; at the end the random streams agree too.
    """
    inst, cfg, generations, seed = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    seqs = baystow.ga._init_seqs(inst, cfg, rng)
    ref_seqs = baystow.ga._init_seqs(inst, cfg, ref_rng)
    rows = np.arange(cfg.pop_size)
    fits = ref_fits = _batch_fitness(seqs, inst)
    for _ in range(generations):
        rows, fits = baystow.ga._step_seqs(seqs, rows, fits, inst, cfg, rng)
        ref_seqs, ref_fits = reference_step(ref_seqs, ref_fits, inst, cfg, ref_rng)
        np.testing.assert_array_equal(seqs[rows], ref_seqs)
        np.testing.assert_array_equal(fits, ref_fits)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@st.composite
def fitness_batches(draw):
    """Random bay with 0-200 containers, or 8,100-10,000 (past einsum's buffer), 1-12 rows of ids, any budget.

    The long rows sit in a 20x20x25 bay, so the entries past 8,192 have nonzero depths.
    """
    if draw(st.integers(0, 4)):
        dims = BayDims(*(draw(st.integers(1, 6)) for _ in range(3)))
        nc = draw(st.integers(0, min(dims.capacity, 200)))
    else:
        dims, nc = BayDims(20, 20, 25), draw(st.integers(8100, 10_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seqs = rng.permuted(np.tile(np.arange(1, nc + 1), (draw(st.integers(1, 12)), 1)), axis=1)
    return Instance(dims, rng.uniform(1.0, 100.0, nc)), seqs, draw(st.integers(1, 1 << 20))


@settings(max_examples=200, deadline=None)
@given(fitness_batches())
def test_fitness_bits_do_not_depend_on_position(case):
    """Each row's fitness has the bits of the row scored alone, shifted 1-3 rows, and under any block budget."""
    inst, seqs, budget = case
    fits = _batch_fitness(seqs, inst)
    alone = [_batch_fitness(row[None], inst)[0] for row in seqs]
    np.testing.assert_array_equal(fits, alone)
    for shift in (1, 2, 3):
        filler = np.tile(np.arange(1, inst.n_containers + 1), (shift, 1))
        np.testing.assert_array_equal(_batch_fitness(np.vstack([filler, seqs]), inst)[shift:], fits)
    with mock.patch.object(baystow.evaluation, "_BLOCK_BYTES", budget):
        np.testing.assert_array_equal(_batch_fitness(seqs, inst), fits)


@st.composite
def run_cases(draw):
    """Random bay up to 4x4x4 with any fill, pop 1-12, any pc and pm, 1-15 generations."""
    dims = BayDims(*(draw(st.integers(1, 4)) for _ in range(3)))
    nc = draw(st.integers(0, dims.capacity))
    dates = draw(st.lists(st.floats(1.0, 100.0), min_size=nc, max_size=nc))
    cfg = GaConfig(
        pop_size=draw(st.integers(1, 12)),
        generations=draw(st.integers(1, 15)),
        crossover_prob=draw(st.floats(0.0, 1.0)),
        mutation_prob=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
        validate_every_individual=True,
    )
    return Instance(dims, np.array(dates)), cfg


@settings(max_examples=60, deadline=None)
@given(run_cases())
def test_run_invariants(case):
    """Every individual valid; the best never rises, stays at or above the optimum and is `fitness(best)`."""
    inst, cfg = case
    stats = run(inst, cfg)  # validates every individual of every generation
    bests, means = stats.records.columns["best_fitness"], stats.records.columns["mean_fitness"]
    assert len(bests) == cfg.generations
    assert np.all(np.diff(bests) <= 0)
    optimum = rearrangement_optimum(inst).optimal_fitness
    assert np.all(bests >= optimum * (1 - 1e-12))
    assert math.isclose(fitness(stats.best, inst).fitness, stats.best_fitness, rel_tol=1e-12)
    # The depths `fitness` reads from the canonical table equal the cells stacked in the best's grid.
    grid = stats.best.grid  # built on each access
    cells = map(tuple, np.argwhere(grid))
    assert rehandles(stats.best, inst) == {int(grid[c]): above_count(stats.best, c) for c in cells}
    assert stats.best_fitness == bests[-1]
    assert np.all(means >= bests)


def test_fitness_memory_is_two_rows_on_a_long_row():
    """Fitness of 8 rows at Nc 100,000 peaks at two rows' bytes: one gathered row and the float depths."""
    inst = long_row_instance()
    seqs = np.tile(np.arange(1, inst.n_containers + 1), (8, 1))
    fits = _batch_fitness(seqs, inst)  # builds the instance's cached table
    peak = traced_peak(lambda: _batch_fitness(seqs, inst))
    assert np.all(fits == fits[0])
    assert peak < 2.2 * seqs[0].nbytes


@pytest.mark.parametrize("dims, nc", [((4, 4, 4), 64), ((10, 10, 10), 1000)])
def test_clone_only_run_keeps_its_best_bits(dims, nc):
    """With pc = pm = 0 every child is a clone, so each run records one best fitness, bit for bit, throughout."""
    inst = generate_instance(GeneratorSpec(BayDims(*dims), nc, seed=2))
    for seed in range(10):
        stats = run(inst, GaConfig(pop_size=50, generations=30, crossover_prob=0, mutation_prob=0, seed=seed))
        bests = stats.records.columns["best_fitness"]
        assert np.all(bests == bests[0]), seed


def test_mean_of_equal_values_not_below_best():
    """Six equal fitness values average one rounding below their value; the recorded mean does not."""
    inst = Instance(BayDims(1, 3, 2), np.array([1.0, 3.0, 1.0, 1.0, 1.0, 1.0]))
    stats = run(inst, GaConfig(pop_size=6, generations=3, crossover_prob=0, mutation_prob=0, seed=0))
    bests, means = stats.records.columns["best_fitness"], stats.records.columns["mean_fitness"]
    assert means[-1] == bests[-1]
    assert np.all(means >= bests)


class TestRun:
    def test_single_generation(self):
        inst = small_instance()
        stats = run(inst, GaConfig(pop_size=10, generations=1, seed=4))
        assert len(stats.records) == 1
        assert stats.records[0].generation == 1
        assert stats.initial_best == stats.final_best

    def test_seed_determinism_modulo_clock(self):
        inst = small_instance(seed=2)
        cfg = GaConfig(pop_size=15, generations=40, seed=21)
        a = run(inst, cfg)
        b = run(inst, cfg)
        key = lambda s: [(r.generation, r.best_fitness, r.mean_fitness) for r in s.records]
        assert key(a) == key(b)
        assert a.best == b.best
        assert a.best_fitness == b.best_fitness

    def test_numpy_integer_seed_matches_int(self):
        inst = small_instance(seed=2)
        a = run(inst, GaConfig(pop_size=8, generations=10, seed=5))
        b = run(inst, GaConfig(pop_size=8, generations=10, seed=np.int64(5)))
        assert a.best == b.best
        assert [r.best_fitness for r in a.records] == [r.best_fitness for r in b.records]

    def test_float_seed_rejected(self):
        with pytest.raises(ValueError):
            run(small_instance(), GaConfig(pop_size=4, generations=2, seed=5.0))

    def test_best_sequence_non_increasing(self):
        inst = small_instance(seed=6)
        stats = run(inst, GaConfig(pop_size=12, generations=60, seed=1))
        bests = [r.best_fitness for r in stats.records]
        assert all(b <= a for a, b in zip(bests, bests[1:]))
        assert stats.best_fitness == bests[-1]
        assert fitness(stats.best, inst).fitness == stats.best_fitness

    def test_longer_run_never_worse_with_same_seed(self):
        inst = generate_instance(GeneratorSpec(BayDims(2, 2, 4), 16, seed=8))
        short = run(inst, GaConfig(pop_size=10, generations=20, seed=3))
        long = run(inst, GaConfig(pop_size=10, generations=100, seed=3))
        assert long.final_best <= short.final_best
        # identical prefix: the first 20 generations come from the same draws
        assert [r.best_fitness for r in long.records[:20]] == [
            r.best_fitness for r in short.records
        ]

    def test_debug_mode_catches_broken_operator(self, monkeypatch):
        inst = small_instance(seed=9)

        original = baystow.ga._order_fill

        def sabotage(child, donor, outside, mark):
            original(child, donor, outside, mark)
            if child.size > 1:
                child[0] = child[-1]  # duplicate an id

        monkeypatch.setattr(baystow.ga, "_order_fill", sabotage)
        cfg = GaConfig(pop_size=8, generations=5, crossover_prob=1.0, seed=2,
                       validate_every_individual=True)
        with pytest.raises(InvalidArrangement):
            run(inst, cfg)

    def test_records_are_the_recorded_values(self):
        """Each record is the step's best and mean fitness, as Python scalars, by index, slice or iteration."""
        inst = small_instance(seed=6)
        cfg = GaConfig(pop_size=9, generations=25, seed=3)
        stats = run(inst, cfg)
        rng = np.random.default_rng(cfg.seed)
        seqs = baystow.ga._init_seqs(inst, cfg, rng)
        rows, fits = np.arange(cfg.pop_size), _batch_fitness(seqs, inst)
        expected = []
        for generation in range(1, cfg.generations + 1):
            if generation > 1:
                rows, fits = baystow.ga._step_seqs(seqs, rows, fits, inst, cfg, rng)
            expected.append((generation, float(fits.min()), float(fits.mean())))
        records = stats.records
        assert [(r.generation, r.best_fitness, r.mean_fitness) for r in records] == expected
        assert [records[k] for k in range(-len(records), 0)] == list(records)
        assert list(records[1:]) == list(records)[1:]
        assert records.columns.tolist() == [
            (r.generation, r.best_fitness, r.mean_fitness, r.elapsed_ms) for r in records
        ]
        assert all(type(value) in (int, float) for value in vars(records[-1]).values())
        assert not records.columns.flags.writeable

    def test_run_memory_is_population_plus_one_child_matrix(self):
        """A run at pop 50 x Nc 8000 peaks at its population, one child matrix and small blocks."""
        inst = large_instance()
        run(inst, GaConfig(pop_size=4, generations=2))  # builds the instance's cached tables
        peak = traced_peak(lambda: run(inst, GaConfig(pop_size=50, generations=3, seed=7)))
        assert peak < 2.3 * 50 * inst.n_containers * np.dtype(np.int64).itemsize

    def test_best_shares_no_memory_with_the_population(self):
        """The best is a copy: no later write to the engine's matrix can reach it."""
        inst, init, matrices = small_instance(), baystow.ga._init_seqs, []

        def init_seqs(*args):
            matrices.append(init(*args))
            return matrices[-1]

        with mock.patch.object(baystow.ga, "_init_seqs", init_seqs):
            stats = run(inst, GaConfig(pop_size=6, generations=5, seed=3))
        assert len(matrices) == 1
        assert not np.shares_memory(stats.best.scan, matrices[0])

    def test_history_memory_is_columnar(self):
        """A 1,500-generation run keeps its history in 32 bytes per generation, not one object each."""
        inst = small_instance()
        run(inst, GaConfig(pop_size=4, generations=2))  # builds the instance's cached tables
        tracemalloc.start()
        try:
            stats = run(inst, GaConfig(pop_size=4, generations=1500))
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(stats.records) == 1500
        assert retained < 100_000

    def test_debug_mode_clean_on_real_operators(self):
        inst = small_instance(seed=9)
        cfg = GaConfig(pop_size=8, generations=20, seed=2, validate_every_individual=True)
        stats = run(inst, cfg)
        assert len(stats.records) == 20
