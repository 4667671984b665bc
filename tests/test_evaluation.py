import numpy as np
import pytest

from baystow import (
    Arrangement,
    BayDims,
    GaConfig,
    GeneratorSpec,
    InvalidArrangement,
    canonical_fill,
    fitness,
    generate_instance,
    rehandles,
    shuffle_ids,
)
from baystow.evaluation import _batch_fitness
from baystow.ga import _init_seqs
from conftest import make_instance


class TestRehandles:
    def test_single_floor_all_zero(self):
        inst = make_instance((2, 2, 2), [3.0] * 4)
        assert rehandles(canonical_fill(inst), inst) == {1: 0, 2: 0, 3: 0, 4: 0}

    def test_two_high_column(self):
        inst = make_instance((1, 1, 2), [1.0, 2.0])
        assert rehandles(canonical_fill(inst), inst) == {1: 1, 2: 0}

    def test_full_column(self):
        inst = make_instance((1, 1, 3), [1.0, 1.0, 1.0])
        assert rehandles(canonical_fill(inst), inst) == {1: 2, 2: 1, 3: 0}


class TestFitness:
    def test_single_floor_is_zero(self):
        inst = make_instance((3, 3, 3), [2.0] * 9)
        assert fitness(canonical_fill(inst), inst).fitness == 0.0

    def test_hand_evaluated_column(self):
        # id 1 (P=1) buried under id 2 (P=0.5): F = 1*1 + 0.5*0
        inst = make_instance((1, 1, 2), [1.0, 2.0])
        assert fitness(canonical_fill(inst), inst).fitness == 1.0

    def test_hand_evaluated_column_swapped(self):
        inst = make_instance((1, 1, 2), [1.0, 2.0])
        arr = Arrangement.from_id_sequence(inst.dims, np.array([2, 1]))
        assert fitness(arr, inst).fitness == 0.5

    def test_matches_dot_product_of_parts(self, rng):
        inst = make_instance((3, 2, 3), list(rng.uniform(1, 50, size=14)))
        arr = shuffle_ids(canonical_fill(inst), rng, 30)
        recomputed = sum(m / inst.delivery_dates[i - 1] for i, m in rehandles(arr, inst).items())
        assert fitness(arr, inst).fitness == pytest.approx(recomputed, rel=1e-12)

    @pytest.mark.parametrize("dims, nc", [((4, 4, 4), 64), ((10, 10, 10), 1000)])
    def test_equals_the_engine_value_of_each_row(self, dims, nc):
        """`fitness()` of every row of a population has the bits the engine gives that row in the batch."""
        inst = generate_instance(GeneratorSpec(BayDims(*dims), nc, seed=1))
        seqs = _init_seqs(inst, GaConfig(pop_size=50), np.random.default_rng(1))
        got = [fitness(Arrangement.from_id_sequence(inst.dims, seq), inst).fitness for seq in seqs]
        np.testing.assert_array_equal(got, _batch_fitness(seqs, inst))

    def test_date_scaling_law(self, rng):
        """Scaling every date by k scales fitness by exactly 1/k."""
        dates = list(rng.uniform(1, 20, size=12))
        inst = make_instance((2, 2, 3), dates)
        scaled = make_instance((2, 2, 3), [5.0 * d for d in dates])
        arr = shuffle_ids(canonical_fill(inst), rng, 24)
        f = fitness(arr, inst).fitness
        g = fitness(arr, scaled).fitness
        assert g == pytest.approx(f / 5.0, rel=1e-12)

    def test_total_rehandles_independent_of_labels(self, rng):
        """Sum of m_i depends only on the occupancy pattern: sum of h(h-1)/2 per column."""
        inst = make_instance((2, 2, 3), [1.0] * 11)
        base = canonical_fill(inst)
        expected = sum(h * (h - 1) // 2 for h in [3, 3, 3, 2])
        for _ in range(20):
            arr = shuffle_ids(base, rng, 11)
            assert sum(rehandles(arr, inst).values()) == expected

    def test_invalid_arrangement_rejected(self):
        inst = make_instance((1, 1, 2), [1.0])
        grid = np.zeros((1, 1, 2), dtype=np.int64)
        grid[0, 0, 1] = 1
        floating = Arrangement(inst.dims, grid)
        with pytest.raises(InvalidArrangement) as exc_info:
            fitness(floating, inst)
        assert exc_info.value.violations

    def test_rejects_rehandles_on_invalid_too(self):
        inst = make_instance((2, 1, 1), [1.0, 2.0])
        grid = np.zeros((2, 1, 1), dtype=np.int64)
        grid[0, 0, 0] = 2
        grid[1, 0, 0] = 2
        with pytest.raises(InvalidArrangement):
            rehandles(Arrangement(inst.dims, grid), inst)
