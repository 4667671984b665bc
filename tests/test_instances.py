from dataclasses import replace

import numpy as np
import pytest

from baystow import (
    BayDims,
    CapacityExceeded,
    Container,
    GeneratorSpec,
    Instance,
    InvalidSpec,
    NonPositiveDate,
    generate_instance,
)
from conftest import make_instance


class TestContainer:
    def test_priority_is_reciprocal_date(self):
        assert Container(1, 4.0).priority == 0.25

    @pytest.mark.parametrize("bad_id", [0, -3, 1.5, True])
    def test_rejects_bad_id(self, bad_id):
        with pytest.raises(ValueError):
            Container(bad_id, 1.0)

    @pytest.mark.parametrize("bad_date", [0.0, -1.0])
    def test_rejects_non_positive_date(self, bad_date):
        with pytest.raises(NonPositiveDate):
            Container(1, bad_date)

    def test_rejects_non_finite_date(self):
        with pytest.raises(ValueError):
            Container(1, float("nan"))


class TestInstance:
    def test_priority_vector_indexed_by_id(self):
        inst = make_instance((2, 2, 1), [1.0, 2.0, 4.0])
        assert inst.priority_vector().tolist() == [1.0, 0.5, 0.25]
        assert inst.priority_vector() is inst.priority_vector()
        with pytest.raises(ValueError):
            inst.priority_vector()[0] = 2.0

    def test_ids_must_be_consecutive_from_one(self):
        containers = (Container(1, 1.0), Container(3, 1.0))
        with pytest.raises(ValueError):
            Instance(BayDims(2, 2, 1), containers)

    def test_duplicate_ids_rejected(self):
        containers = (Container(1, 1.0), Container(1, 2.0))
        with pytest.raises(ValueError):
            Instance(BayDims(2, 2, 1), containers)

    def test_capacity_guard(self):
        with pytest.raises(CapacityExceeded):
            make_instance((1, 1, 2), [1.0, 2.0, 3.0])


class TestGenerator:
    def test_same_spec_is_bitwise_identical(self):
        spec = GeneratorSpec(BayDims(4, 4, 4), 64, seed=99)
        a = generate_instance(spec)
        b = generate_instance(spec)
        assert a == b

    def test_degenerate_range_pins_all_dates(self):
        spec = GeneratorSpec(BayDims(2, 2, 2), 8, date_min=1.0, date_max=1.0, seed=0)
        inst = generate_instance(spec)
        assert all(c.delivery_date == 1.0 for c in inst.containers)
        assert all(c.priority == 1.0 for c in inst.containers)

    def test_dates_land_in_range(self):
        spec = GeneratorSpec(BayDims(4, 4, 4), 64, date_min=1.0, date_max=100.0, seed=7)
        inst = generate_instance(spec)
        assert inst.n_containers == 64
        dates = np.array([c.delivery_date for c in inst.containers])
        assert np.all(dates >= 1.0) and np.all(dates <= 100.0)

    def test_numpy_integer_seed_matches_int(self):
        spec = GeneratorSpec(BayDims(2, 2, 2), 8, seed=1)
        assert generate_instance(spec) == generate_instance(replace(spec, seed=np.int64(1)))

    def test_different_seeds_differ(self):
        a = generate_instance(GeneratorSpec(BayDims(2, 2, 2), 8, seed=1))
        b = generate_instance(GeneratorSpec(BayDims(2, 2, 2), 8, seed=2))
        assert a != b

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_containers": 0},
            {"n_containers": 9},
            {"date_min": 0.0},
            {"date_min": 5.0, "date_max": 2.0},
            {"seed": 1.5},
            {"seed": True},
        ],
    )
    def test_invalid_spec(self, kwargs):
        base = {"dims": BayDims(2, 2, 2), "n_containers": 8}
        with pytest.raises(InvalidSpec):
            GeneratorSpec(**{**base, **kwargs})
