import numpy as np
import pytest

from baystow import (
    Arrangement,
    BayDims,
    Cell,
    InvalidSpec,
    ShapeMismatch,
    above_count,
    canonical_fill,
    shuffle_ids,
    validate,
)
from conftest import make_instance


class FixedPairs:
    """Stand-in random stream that returns a preset array of index pairs."""

    def __init__(self, pairs):
        self.pairs = np.asarray(pairs)

    def integers(self, low, high, size=None):
        assert size == self.pairs.shape
        return self.pairs


def corrupt(dims, assignments):
    grid = np.zeros(dims, dtype=np.int64)
    for (x, y, z), cid in assignments.items():
        grid[x, y, z] = cid
    return Arrangement(BayDims(*dims), grid)


class TestCanonicalFill:
    def test_full_grid(self):
        inst = make_instance((2, 2, 2), [1.0] * 8)
        arr = canonical_fill(inst)
        assert np.all(arr.grid != 0)
        assert sorted(arr.grid.ravel().tolist()) == list(range(1, 9))

    def test_single_container(self):
        inst = make_instance((2, 2, 2), [1.0])
        arr = canonical_fill(inst)
        assert arr.occupant(Cell(0, 0, 0)) == 1
        assert arr.n_containers == 1

    def test_five_of_eight(self):
        # ids 1..4 cover floor 0 in scan order, id 5 starts floor 1
        inst = make_instance((2, 2, 2), [1.0] * 5)
        arr = canonical_fill(inst)
        assert arr.occupant(Cell(0, 0, 0)) == 1
        assert arr.occupant(Cell(0, 1, 0)) == 2
        assert arr.occupant(Cell(1, 0, 0)) == 3
        assert arr.occupant(Cell(1, 1, 0)) == 4
        assert arr.occupant(Cell(0, 0, 1)) == 5
        assert arr.occupant(Cell(0, 1, 1)) is None

    @pytest.mark.parametrize("dims,nc", [((1, 1, 1), 1), ((3, 2, 4), 17), ((2, 2, 2), 8)])
    def test_always_valid(self, dims, nc):
        inst = make_instance(dims, [2.0] * nc)
        assert validate(canonical_fill(inst), inst) == []

    def test_overfull_rejected(self):
        with pytest.raises(InvalidSpec, match="3 containers exceed bay capacity 2"):
            make_instance((1, 1, 2), [1.0, 1.0, 1.0])


class TestShuffleIds:
    def test_zero_swaps_is_identity(self, rng):
        inst = make_instance((2, 2, 2), [1.0] * 6)
        arr = canonical_fill(inst)
        assert shuffle_ids(arr, rng, 0) == arr

    def test_single_container_unchanged(self, rng):
        inst = make_instance((2, 2, 2), [1.0])
        arr = canonical_fill(inst)
        assert shuffle_ids(arr, rng, 25) == arr

    def test_forced_transposition(self):
        inst = make_instance((1, 1, 2), [1.0, 2.0])
        arr = canonical_fill(inst)
        swapped = shuffle_ids(arr, FixedPairs([[0, 1]]), 1)
        assert swapped.occupant(Cell(0, 0, 0)) == 2
        assert swapped.occupant(Cell(0, 0, 1)) == 1

    def test_preserves_ids_and_occupancy(self, rng):
        inst = make_instance((3, 2, 3), [1.0] * 13)
        arr = canonical_fill(inst)
        for _ in range(50):
            shuffled = shuffle_ids(arr, rng, 13)
            assert validate(shuffled, inst) == []


class TestAboveCount:
    def test_three_high_stack(self):
        inst = make_instance((1, 1, 3), [1.0] * 3)
        arr = canonical_fill(inst)
        assert above_count(arr, Cell(0, 0, 0)) == 2
        assert above_count(arr, Cell(0, 0, 1)) == 1
        assert above_count(arr, Cell(0, 0, 2)) == 0

    def test_single_floor_is_zero(self):
        inst = make_instance((2, 2, 2), [1.0] * 4)
        arr = canonical_fill(inst)
        for cell in [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]:
            assert above_count(arr, Cell(*cell)) == 0

    def test_empty_cell_rejected(self):
        inst = make_instance((2, 2, 2), [1.0] * 4)
        arr = canonical_fill(inst)
        with pytest.raises(ValueError, match=r"cell \(0, 0, 1\) is empty"):
            above_count(arr, Cell(0, 0, 1))

    def test_out_of_bay_rejected(self):
        inst = make_instance((2, 2, 2), [1.0] * 4)
        with pytest.raises(ValueError):
            above_count(canonical_fill(inst), Cell(5, 0, 0))


class TestValidate:
    def test_floating_container(self):
        inst = make_instance((1, 1, 2), [1.0])
        arr = corrupt((1, 1, 2), {(0, 0, 1): 1})
        violations = validate(arr, inst)
        support = [v for v in violations if v.constraint == "support"]
        assert len(support) == 1
        assert "(0, 0, 1)" in support[0].where

    def test_top_heavy_floors(self):
        # three on the ground, four above: floor counts [3, 4]
        inst = make_instance((2, 2, 2), [1.0] * 7)
        assignments = {
            (0, 0, 0): 1,
            (0, 1, 0): 2,
            (1, 0, 0): 3,
            (0, 0, 1): 4,
            (0, 1, 1): 5,
            (1, 0, 1): 6,
            (1, 1, 1): 7,
        }
        violations = validate(corrupt((2, 2, 2), assignments), inst)
        monotonic = [v for v in violations if v.constraint == "floor-monotonicity"]
        assert len(monotonic) == 1
        assert "floor 0" in monotonic[0].where

    def test_duplicate_id(self):
        inst = make_instance((2, 1, 1), [1.0, 2.0])
        arr = corrupt((2, 1, 1), {(0, 0, 0): 1, (1, 0, 0): 1})
        constraints = {v.constraint for v in validate(arr, inst)}
        assert "permutation" in constraints

    def test_unknown_id(self):
        inst = make_instance((2, 1, 1), [1.0, 2.0])
        arr = corrupt((2, 1, 1), {(0, 0, 0): 1, (1, 0, 0): 9})
        details = [str(v) for v in validate(arr, inst) if v.constraint == "permutation"]
        assert any("id 9" in d for d in details)

    def test_non_canonical_occupancy(self):
        # both containers legally stacked but in the wrong column
        inst = make_instance((2, 1, 2), [1.0, 2.0])
        arr = corrupt((2, 1, 2), {(1, 0, 0): 1, (1, 0, 1): 2})
        constraints = {v.constraint for v in validate(arr, inst)}
        assert "occupancy" in constraints

    def test_dims_mismatch_is_an_error(self):
        inst = make_instance((2, 2, 2), [1.0] * 4)
        other = make_instance((3, 3, 1), [1.0] * 4)
        with pytest.raises(ShapeMismatch):
            validate(canonical_fill(other), inst)


class TestArrangementValue:
    def test_scan_vector_round_trip(self):
        inst = make_instance((3, 2, 2), [1.0] * 9)
        arr = canonical_fill(inst)
        again = Arrangement.from_scan_vector(arr.dims, arr.scan_vector())
        assert again == arr

    def test_id_sequence_round_trip(self):
        inst = make_instance((3, 2, 2), [1.0] * 9)
        arr = canonical_fill(inst)
        assert arr.id_sequence().tolist() == list(range(1, 10))
        assert Arrangement.from_id_sequence(arr.dims, arr.id_sequence()) == arr

    def test_grid_is_frozen(self):
        inst = make_instance((2, 2, 2), [1.0] * 4)
        arr = canonical_fill(inst)
        with pytest.raises(ValueError):
            arr.grid[0, 0, 0] = 7

    def test_occupied_cells_in_scan_order(self):
        inst = make_instance((2, 2, 2), [1.0] * 5)
        arr = canonical_fill(inst)
        listed = list(arr.occupied_cells())
        assert [cid for _, cid in listed] == [1, 2, 3, 4, 5]
        assert listed[-1][0] == Cell(0, 0, 1)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda d: Arrangement(d, np.zeros((2, 2, 1))), r"grid shape \(2, 2, 1\) does not match"),
            (lambda d: Arrangement.from_scan_vector(d, [1] * 7), "scan vector must have length 8"),
            (lambda d: Arrangement.from_id_sequence(d, range(1, 10)), "9 ids exceed bay capacity 8"),
            (lambda d: shuffle_ids(Arrangement.from_id_sequence(d, [1]), None, -1),
             "swaps must be >= 0"),
        ],
        ids=["grid-shape", "scan-vector-length", "too-many-ids", "negative-swaps"],
    )
    def test_broken_precondition_is_value_error(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(BayDims(2, 2, 2))
