import time
import tracemalloc

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
from baystow.bay import _CACHED_BAYS, _MAX_CELLS, canonical_above_counts, canonical_coords


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

    def test_cell_limit(self):
        """256**3 is the cell limit itself; one container more has no cubic bay."""
        assert cube_dims(_MAX_CELLS) == BayDims(256, 256, 256)
        with pytest.raises(InvalidSpec, match=f"{_MAX_CELLS + 1} containers exceed"):
            cube_dims(_MAX_CELLS + 1)

    def test_cell_limit_checked_before_the_search(self):
        started = time.perf_counter()
        with pytest.raises(InvalidSpec):
            cube_dims(10**30)
        assert time.perf_counter() - started < 1.0


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

    @pytest.mark.parametrize(
        "kind, kwargs",
        [
            ("generations", {"n_containers": 2.5, "dims": BayDims(2, 2, 2)}),
            ("containers", {"date_max": float("inf")}),
            ("containers", {"date_min": True}),
            ("containers", {"date_max": "50"}),
        ],
    )
    def test_generator_bounds_checked_at_construction(self, kind, kwargs):
        with pytest.raises(InvalidSpec):
            SweepSpec(kind, (4, 8), config=tiny_config(), **kwargs)

    @pytest.mark.parametrize(
        "kind, values, problem",
        [
            ("generations", (2, 10**12), "generations must be at most"),
            ("containers", (8, _MAX_CELLS + 1), "containers exceed"),
        ],
    )
    def test_every_point_checked_at_construction(self, kind, values, problem):
        """A value past `GaConfig`'s or the generator's bounds is rejected before any point runs."""
        fixed = {"n_containers": 8, "dims": BayDims(2, 2, 2)} if kind == "generations" else {}
        with pytest.raises(InvalidSpec, match=problem):
            SweepSpec(kind, values, config=tiny_config(), **fixed)

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
    def test_result_retains_histories_and_bests_only(self):
        """A sweep's result holds each run's best grid and history, not its instance."""
        spec = SweepSpec("containers", (1000, 8000), config=GaConfig(pop_size=4, generations=2), reps=3)
        run_sweep(spec)  # builds the bays' cached tables
        tracemalloc.start()
        try:
            result = run_sweep(spec)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grids = sum(r.stats.best.grid.nbytes for r in result.runs)
        assert len(result.runs) == 6
        assert retained < 1.5 * grids

    def test_tables_of_the_last_bays_only_outlive_a_sweep(self):
        """A sweep over more 20x20x20 bays than the table cache holds leaves only the last ones' tables."""
        values = tuple(range(7999 - _CACHED_BAYS, 8001))
        config = GaConfig(pop_size=2, generations=2)
        run_sweep(SweepSpec("containers", (8,), config=config))  # imports what a run imports lazily
        tracemalloc.start()
        try:
            run_sweep(SweepSpec("containers", values, config=config))
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dims = cube_dims(8000)
        assert {cube_dims(v) for v in values} == {dims}
        tables = sum(c.nbytes for c in (canonical_above_counts(dims, 8000), *canonical_coords(dims, 8000)))
        assert retained < (_CACHED_BAYS + 0.5) * tables

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
