from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baystow import (
    Arrangement,
    BayDims,
    GaConfig,
    GeneratorSpec,
    canonical_fill,
    exhaustive_optimum,
    fitness,
    generate_instance,
    rearrangement_optimum,
    shuffle_ids,
    validate,
)
from baystow.evaluation import _batch_fitness
from baystow.ga import _init_seqs
from conftest import make_instance

# Integer dates make priority ties likely; float dates make them rare.
DATES = st.one_of(st.integers(1, 4).map(float), st.floats(0.01, 1000.0))


@st.composite
def instances(draw, max_nc):
    """Random bay of up to 4x4x4 cells holding up to `max_nc` containers."""
    dims = tuple(draw(st.integers(1, 4)) for _ in range(3))
    nc = draw(st.integers(0, min(max_nc, int(np.prod(dims)))))
    return make_instance(dims, draw(st.lists(DATES, min_size=nc, max_size=nc)))


class TestExhaustive:
    def test_single_floor_optimum_is_zero(self):
        inst = make_instance((2, 2, 2), [3.0, 7.0, 2.0])
        result = exhaustive_optimum(inst)
        assert result.optimal_fitness == 0.0
        assert validate(result.witness, inst) == []

    def test_two_high_column(self):
        # cheapest choice buries the later delivery: 0.5*1 + 1*0
        inst = make_instance((1, 1, 2), [1.0, 2.0])
        result = exhaustive_optimum(inst)
        assert result.optimal_fitness == 0.5
        assert result.witness.id_sequence().tolist() == [2, 1]

    def test_equal_dates_make_all_permutations_tie(self):
        inst = make_instance((1, 1, 3), [4.0, 4.0, 4.0])
        result = exhaustive_optimum(inst)
        assert result.optimal_fitness == pytest.approx(3.0 / 4.0, rel=1e-15)

    def test_too_large_rejected(self):
        inst = make_instance((3, 3, 1), [1.0] * 9)
        with pytest.raises(ValueError, match="exhaustive search is capped at 8"):
            exhaustive_optimum(inst)

    def test_witness_fitness_matches_report(self):
        inst = generate_instance(GeneratorSpec(BayDims(2, 2, 2), 7, seed=3))
        result = exhaustive_optimum(inst)
        assert fitness(result.witness, inst).fitness == result.optimal_fitness


class TestRearrangement:
    def test_single_floor_optimum_is_zero(self):
        inst = make_instance((3, 3, 1), [float(d) for d in range(1, 10)])
        assert rearrangement_optimum(inst).optimal_fitness == 0.0

    def test_two_high_column_matches_exhaustive(self):
        inst = make_instance((1, 1, 2), [1.0, 2.0])
        assert rearrangement_optimum(inst).optimal_fitness == 0.5

    def test_agrees_with_exhaustive_on_seeded_instances(self):
        for seed in range(30):
            nc = 1 + seed % 8
            inst = generate_instance(GeneratorSpec(BayDims(2, 2, 2), nc, seed=seed))
            ex = exhaustive_optimum(inst)
            re = rearrangement_optimum(inst)
            assert re.optimal_fitness == pytest.approx(ex.optimal_fitness, rel=1e-12, abs=1e-15)

    def test_lower_bounds_random_arrangements(self, rng):
        """No shuffled arrangement beats the sorted assignment."""
        inst = generate_instance(GeneratorSpec(BayDims(3, 3, 3), 22, seed=11))
        bound = rearrangement_optimum(inst).optimal_fitness
        base = canonical_fill(inst)
        for _ in range(500):
            arr = shuffle_ids(base, rng, 22)
            assert fitness(arr, inst).fitness >= bound - 1e-12

    def test_scales_to_large_instances(self):
        inst = generate_instance(GeneratorSpec(BayDims(10, 10, 10), 1000, seed=1))
        result = rearrangement_optimum(inst)
        assert result.optimal_fitness > 0
        assert validate(result.witness, inst) == []

    def test_deterministic(self):
        inst = generate_instance(GeneratorSpec(BayDims(4, 4, 4), 64, seed=13))
        assert rearrangement_optimum(inst) == rearrangement_optimum(inst)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(instances(max_nc=64), st.integers(0, 2**32 - 1))
    def test_batch_fitness_matches_fitness_and_bounds_optimum(self, inst, seed):
        seqs = _init_seqs(inst, GaConfig(pop_size=4), np.random.default_rng(seed))
        optimum = rearrangement_optimum(inst).optimal_fitness
        for seq, batch in zip(seqs, _batch_fitness(seqs, inst)):
            expected = fitness(Arrangement.from_id_sequence(inst.dims, seq), inst).fitness
            assert batch == expected
            # An optimal row in another order than the oracle's witness sums
            # its products in another order, so it may round below the optimum.
            assert batch >= optimum * (1 - 1e-12)

    @settings(max_examples=50, deadline=None)
    @given(instances(max_nc=6))
    def test_exhaustive_is_the_least_kernel_value(self, inst):
        """The exhaustive optimum is the least fitness of any permutation scored alone, bit for bit."""
        perms = np.array(list(permutations(range(1, inst.n_containers + 1))), dtype=np.int64)
        least = min(_batch_fitness(perm[None], inst)[0] for perm in perms)
        result = exhaustive_optimum(inst)
        assert result.optimal_fitness == least
        assert fitness(result.witness, inst).fitness == least

    @settings(max_examples=100, deadline=None)
    @given(instances(max_nc=8))
    def test_rearrangement_equals_exhaustive(self, inst):
        re = rearrangement_optimum(inst).optimal_fitness
        assert re == pytest.approx(exhaustive_optimum(inst).optimal_fitness, rel=1e-12)
