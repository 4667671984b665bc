import json
from dataclasses import replace

import numpy as np
import pytest

from baystow import (
    BayDims,
    GeneratorSpec,
    Instance,
    InvalidSpec,
    ParseError,
    generate_instance,
    read_instance,
)
from conftest import make_instance


def write_containers(path, dims, containers):
    """An instance file holding `containers`, a list of (id, delivery date) pairs."""
    path.write_text(json.dumps({
        "dims": dict(zip(("n1", "n2", "n3"), dims)),
        "containers": [{"id": cid, "delivery_date": date} for cid, date in containers],
    }))
    return path


class TestContainer:
    """Per-container rules: dates hold on the date vector, ids where files supply them."""

    def test_priority_is_reciprocal_date(self):
        assert make_instance((1, 1, 1), [4.0]).priority_vector().tolist() == [0.25]

    @pytest.mark.parametrize("bad_id", [0, -3, 1.5, True])
    def test_rejects_bad_id(self, tmp_path, bad_id):
        path = write_containers(tmp_path / "ids.json", (2, 1, 1), [(bad_id, 1.0)])
        with pytest.raises(ParseError, match=r"containers\[0\]: container id must be an integer >= 1"):
            read_instance(path)

    @pytest.mark.parametrize("bad_date", [0.0, -1.0])
    def test_rejects_non_positive_date(self, bad_date):
        with pytest.raises(InvalidSpec, match="container 2: delivery date must be > 0"):
            make_instance((2, 1, 1), [1.0, bad_date])

    def test_rejects_non_finite_date(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(InvalidSpec, match="delivery date must be finite"):
                make_instance((2, 1, 1), [bad, 1.0])

    def test_rejects_date_whose_priority_overflows(self):
        """1/date is inf below 1/DBL_MAX (about 5.6e-309), though the date is finite and > 0."""
        with pytest.raises(InvalidSpec, match="container 1: delivery date must have a finite priority"):
            make_instance((2, 2, 2), [1e-320, 1.0])
        assert make_instance((2, 2, 2), [1e-308]).priority_vector()[0] == 1e308

    def test_rejects_infinite_worst_case_fitness(self):
        """Finite priorities whose sum times the deepest above-count overflows."""
        with pytest.raises(InvalidSpec, match="worst-case fitness of inf, not finite"):
            make_instance((1, 1, 3), [1e-308, 1e-308, 1e-308])
        # On one floor every above-count is 0, so the same dates are fine.
        assert make_instance((3, 1, 1), [1e-308] * 3).n_containers == 3


class TestInstance:
    def test_priority_vector_indexed_by_id(self):
        inst = make_instance((2, 2, 1), [1.0, 2.0, 4.0])
        assert inst.priority_vector().tolist() == [1.0, 0.5, 0.25]
        assert inst.priority_vector() is inst.priority_vector()
        with pytest.raises(ValueError):
            inst.priority_vector()[0] = 2.0

    def test_dates_are_a_read_only_copy(self):
        dates = np.array([1.0, 2.0])
        inst = Instance(BayDims(2, 1, 1), dates)
        dates[0] = 5.0
        assert inst.delivery_dates.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            inst.delivery_dates[0] = 3.0

    def test_dates_must_be_a_vector(self):
        with pytest.raises(InvalidSpec, match="must be a vector"):
            Instance(BayDims(2, 2, 1), np.ones((2, 2)))

    def test_equality_compares_dims_and_dates(self):
        inst = make_instance((2, 2, 1), [1.0, 2.0])
        assert inst == make_instance((2, 2, 1), [1.0, 2.0])
        assert inst != make_instance((2, 2, 1), [1.0, 3.0])
        assert inst != make_instance((2, 2, 2), [1.0, 2.0])
        assert inst != make_instance((2, 2, 1), [1.0])

    # Ids are implicit in an instance; a file supplies them, so the reader checks them.
    def test_ids_must_be_consecutive_from_one(self, tmp_path):
        path = write_containers(tmp_path / "gap.json", (2, 2, 1), [(1, 1.0), (3, 1.0)])
        with pytest.raises(ParseError, match="ids must be exactly 1..2: id 2 missing, got 3"):
            read_instance(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = write_containers(tmp_path / "dup.json", (2, 2, 1), [(1, 1.0), (1, 2.0)])
        with pytest.raises(ParseError, match="ids must be exactly 1..2: duplicate container id 1"):
            read_instance(path)

    def test_bad_id_message_names_it(self, tmp_path):
        ids = [*range(1, 8000), 10**29]
        path = write_containers(tmp_path / "huge.json", (20, 20, 20), [(cid, 1.0) for cid in ids])
        with pytest.raises(ParseError) as info:
            read_instance(path)
        message = str(info.value)
        assert len(message) - len(str(path)) < 200
        assert str(10**29) in message and "8000" in message

    def test_capacity_guard(self):
        with pytest.raises(InvalidSpec, match="3 containers exceed bay capacity 2"):
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
        assert inst.delivery_dates.tolist() == [1.0] * 8
        assert inst.priority_vector().tolist() == [1.0] * 8

    def test_dates_land_in_range(self):
        spec = GeneratorSpec(BayDims(4, 4, 4), 64, date_min=1.0, date_max=100.0, seed=7)
        inst = generate_instance(spec)
        assert inst.n_containers == 64
        dates = inst.delivery_dates
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
            {"n_containers": 2.5},
            {"n_containers": True},
            {"date_min": True},
            {"date_max": True},
            {"date_min": "5"},
            {"date_max": None},
        ],
    )
    def test_invalid_spec(self, kwargs):
        base = {"dims": BayDims(2, 2, 2), "n_containers": 8}
        with pytest.raises(InvalidSpec):
            GeneratorSpec(**{**base, **kwargs})
