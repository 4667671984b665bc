import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import baystow.ga
from baystow import (
    EMPTY,
    Arrangement,
    BayDims,
    Container,
    CrossoverPlanes,
    EmptyPopulation,
    GaConfig,
    GeneratorSpec,
    Instance,
    InvalidArrangement,
    ShapeMismatch,
    canonical_fill,
    crossover,
    evolve_step,
    fitness,
    generate_instance,
    init_population,
    mutate,
    roulette_select,
    run,
    scan_coords,
    shuffle_ids,
    validate,
)
from conftest import make_instance


class FixedDraw:
    """Random-stream stand-in whose integers() returns a preset array."""

    def __init__(self, values):
        self.values = np.asarray(values)

    def integers(self, low, high, size=None):
        return self.values


def small_instance(nc=8, seed=0):
    return generate_instance(GeneratorSpec(BayDims(2, 2, 2), nc, seed=seed))


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
            {"init_swaps": -1},
            {"pop_size": True},
            {"pop_size": 2.5},
            {"pop_size": "50"},
            {"generations": False},
            {"generations": 10.0},
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


class TestRouletteSelect:
    def test_singleton(self, rng):
        assert roulette_select([2.5], rng) == 0

    def test_empty_rejected(self, rng):
        with pytest.raises(EmptyPopulation):
            roulette_select([], rng)

    def test_negative_rejected(self, rng):
        with pytest.raises(ValueError):
            roulette_select([1.0, -0.5], rng)

    def test_uniform_when_fitnesses_equal(self):
        rng = np.random.default_rng(42)
        draws = 100_000
        counts = np.bincount(
            [roulette_select([3.0, 3.0, 3.0, 3.0], rng) for _ in range(draws)], minlength=4
        )
        p = 0.25
        sigma = np.sqrt(p * (1 - p) * draws)
        assert np.all(np.abs(counts - p * draws) < 3 * sigma)

    def test_biased_toward_low_fitness(self):
        # weights 1/(1+F): F=(0,3) gives (1, 0.25), probabilities (0.8, 0.2)
        rng = np.random.default_rng(7)
        draws = 100_000
        hits = sum(roulette_select([0.0, 3.0], rng) == 0 for _ in range(draws))
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

    def test_plane_out_of_bounds_rejected(self):
        arr = canonical_fill(make_instance((2, 2, 2), [1.0] * 4))
        with pytest.raises(ValueError):
            crossover(arr, arr, CrossoverPlanes(3, 1, 1))


@st.composite
def crossover_cases(draw):
    """Random bay up to 5x5x5, two shuffled parents over its canonical occupancy, in-bounds planes."""
    dims = BayDims(*(draw(st.integers(1, 5)) for _ in range(3)))
    nc = draw(st.integers(0, dims.capacity))
    inst = Instance(dims, tuple(Container(i + 1, 1.0) for i in range(nc)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p1, p2 = (shuffle_ids(canonical_fill(inst), rng, nc) for _ in range(2))
    planes = CrossoverPlanes(*(draw(st.integers(0, n)) for n in (dims.n1, dims.n2, dims.n3)))
    return inst, p1, p2, planes


@settings(max_examples=100, deadline=None)
@given(crossover_cases())
def test_crossover_keeps_box_and_fills_in_donor_order(case):
    """Davis-style order crossover: the box comes from the keeper, the rest in donor order."""
    inst, p1, p2, planes = case
    xs, ys, zs = scan_coords(inst.dims)
    box = (xs < planes.px) & (ys < planes.py) & (zs < planes.pz)
    c1, c2 = crossover(p1, p2, planes)
    for keeper, donor, child in ((p1, p2, c1), (p2, p1, c2)):
        assert validate(child, inst) == []
        keep_ids, donor_ids, child_ids = keeper.scan_vector(), donor.scan_vector(), child.scan_vector()
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
    inst = Instance(dims, tuple(Container(i + 1, d) for i, d in enumerate(dates)))
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

    def test_debug_mode_clean_on_real_operators(self):
        inst = small_instance(seed=9)
        cfg = GaConfig(pop_size=8, generations=20, seed=2, validate_every_individual=True)
        stats = run(inst, cfg)
        assert len(stats.records) == 20
