import numpy as np
import pytest

from baystow import (
    BayDims,
    GaConfig,
    InvalidSpec,
    SweepSpec,
    cube_dims,
    run_sweep,
    sweep_instance,
)


def tiny_config(**kwargs):
    return GaConfig(pop_size=6, generations=4, **kwargs)


class TestCubeDims:
    @pytest.mark.parametrize(
        "nc,side", [(1, 1), (8, 2), (9, 3), (64, 4), (125, 5), (343, 7), (729, 9), (1000, 10)]
    )
    def test_smallest_enclosing_cube(self, nc, side):
        assert cube_dims(nc) == BayDims(side, side, side)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cube_dims(0)


class TestSweepSpec:
    def test_containers_sweep_forbids_fixed_shape(self):
        with pytest.raises(InvalidSpec):
            SweepSpec("containers", (8, 27), config=tiny_config(), dims=BayDims(3, 3, 3))

    def test_other_sweeps_require_fixed_shape(self):
        with pytest.raises(InvalidSpec):
            SweepSpec("generations", (5, 10), config=tiny_config())

    @pytest.mark.parametrize(
        "values", [(), (0, 5), (5, 5), (10, 5), (True,), (4.0, 5.0), tuple(np.arange(4, 6))]
    )
    def test_value_list_rules(self, values):
        with pytest.raises(InvalidSpec):
            SweepSpec("containers", values, config=tiny_config())

    @pytest.mark.parametrize("reps", [0, 2.0, True])
    def test_reps_rules(self, reps):
        with pytest.raises(InvalidSpec):
            SweepSpec("containers", (4, 8), config=tiny_config(), reps=reps)

    @pytest.mark.parametrize("base_seed", [1.5, True, "3"])
    def test_base_seed_rules(self, base_seed):
        with pytest.raises(InvalidSpec):
            SweepSpec("containers", (4, 8), config=tiny_config(), base_seed=base_seed)

    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            SweepSpec("elitism", (1, 2), config=tiny_config())

    def test_overfull_fixed_shape(self):
        with pytest.raises(InvalidSpec):
            SweepSpec(
                "generations",
                (5, 10),
                config=tiny_config(),
                n_containers=9,
                dims=BayDims(2, 2, 2),
            )


class TestSweepInstances:
    def test_containers_sweep_scales_bay_per_value(self):
        spec = SweepSpec("containers", (8, 27), config=tiny_config(), reps=2, base_seed=4)
        inst = sweep_instance(spec, 27, 0)
        assert inst.dims == BayDims(3, 3, 3)
        assert inst.n_containers == 27

    def test_fixed_kind_shares_instance_across_values(self):
        spec = SweepSpec(
            "generations",
            (2, 6),
            config=tiny_config(),
            n_containers=8,
            dims=BayDims(2, 2, 2),
            reps=2,
            base_seed=4,
        )
        assert sweep_instance(spec, 2, 0) == sweep_instance(spec, 6, 0)
        assert sweep_instance(spec, 2, 0) != sweep_instance(spec, 2, 1)

    def test_containers_sweep_differs_across_values(self):
        spec = SweepSpec("containers", (8, 27), config=tiny_config(), base_seed=4)
        assert sweep_instance(spec, 8, 0).n_containers != sweep_instance(spec, 27, 0).n_containers


class TestRunSweep:
    def test_point_and_run_bookkeeping(self):
        spec = SweepSpec("containers", (4, 8), config=tiny_config(), reps=3, base_seed=1)
        result = run_sweep(spec)
        assert [p.swept_value for p in result.points] == [4, 8]
        assert len(result.runs) == 6
        assert {(r.swept_value, r.rep) for r in result.runs} == {
            (v, r) for v in (4, 8) for r in range(3)
        }

    def test_generations_sweep_sets_run_length(self):
        spec = SweepSpec(
            "generations",
            (2, 5),
            config=tiny_config(),
            n_containers=8,
            dims=BayDims(2, 2, 2),
            base_seed=2,
        )
        result = run_sweep(spec)
        by_value = {r.swept_value: r.stats for r in result.runs}
        assert len(by_value[2].records) == 2
        assert len(by_value[5].records) == 5

    def test_population_sweep_sets_pop_size(self):
        spec = SweepSpec(
            "population",
            (3, 7),
            config=tiny_config(),
            n_containers=8,
            dims=BayDims(2, 2, 2),
            base_seed=2,
        )
        result = run_sweep(spec)
        assert all(r.stats.best_fitness >= 0 for r in result.runs)

    def test_summary_means_match_runs(self):
        spec = SweepSpec("containers", (4, 8), config=tiny_config(), reps=2, base_seed=7)
        result = run_sweep(spec)
        for point in result.points:
            finals = [r.stats.final_best for r in result.runs if r.swept_value == point.swept_value]
            assert point.mean_final_best == pytest.approx(sum(finals) / len(finals), rel=1e-12)

    def test_numpy_integer_base_seed_matches_int(self):
        spec = SweepSpec("containers", (4, 8), config=tiny_config(), base_seed=7)
        a = run_sweep(spec)
        b = run_sweep(SweepSpec("containers", (4, 8), config=tiny_config(), base_seed=np.int64(7)))
        assert [r.stats.best for r in a.runs] == [r.stats.best for r in b.runs]

    def test_deterministic_modulo_clock(self):
        spec = SweepSpec("containers", (4, 8), config=tiny_config(), reps=2, base_seed=7)
        a = run_sweep(spec)
        b = run_sweep(spec)
        for pa, pb in zip(a.points, b.points):
            assert pa.mean_initial_best == pb.mean_initial_best
            assert pa.mean_final_best == pb.mean_final_best
