import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baystow import (
    EMPTY,
    Arrangement,
    BayDims,
    Cell,
    InvalidSpec,
    ShapeMismatch,
    Violation,
    above_count,
    canonical_fill,
    cell_coords,
    shuffle_ids,
    validate,
)
from conftest import from_grid, make_instance


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
    return from_grid(grid)


class TestCanonicalFill:
    def test_full_grid(self):
        inst = make_instance((2, 2, 2), [1.0] * 8)
        arr = canonical_fill(inst)
        assert np.all(arr.grid != 0)
        assert sorted(arr.grid.ravel().tolist()) == list(range(1, 9))

    def test_single_container(self):
        inst = make_instance((2, 2, 2), [1.0])
        arr = canonical_fill(inst)
        assert int(arr.grid[Cell(0, 0, 0)]) == 1
        assert arr.n_containers == 1

    def test_five_of_eight(self):
        # ids 1..4 cover floor 0 in scan order, id 5 starts floor 1
        inst = make_instance((2, 2, 2), [1.0] * 5)
        arr = canonical_fill(inst)
        assert int(arr.grid[Cell(0, 0, 0)]) == 1
        assert int(arr.grid[Cell(0, 1, 0)]) == 2
        assert int(arr.grid[Cell(1, 0, 0)]) == 3
        assert int(arr.grid[Cell(1, 1, 0)]) == 4
        assert int(arr.grid[Cell(0, 0, 1)]) == 5
        assert arr.grid[Cell(0, 1, 1)] == EMPTY

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
        assert int(swapped.grid[Cell(0, 0, 0)]) == 2
        assert int(swapped.grid[Cell(0, 0, 1)]) == 1

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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_matches_column_count_on_the_grid(self, n1, n2, n3, seed):
        """Any occupancy, valid or not: every cell's count or error, cells past the scan's end included."""
        rng = np.random.default_rng(seed)
        length = int(rng.integers(0, n1 * n2 * n3 + 1))
        arr = Arrangement(BayDims(n1, n2, n3), rng.integers(1, 9, size=length) * (rng.random(length) < 0.6))
        grid = arr.grid
        for x, y, z in itertools.product(range(n1), range(n2), range(n3)):
            if grid[x, y, z] == EMPTY:
                with pytest.raises(ValueError, match="is empty"):
                    above_count(arr, Cell(x, y, z))
            else:
                assert above_count(arr, Cell(x, y, z)) == np.count_nonzero(grid[x, y, z + 1 :])


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


def reference_validate(arr, instance):
    """`validate` as a loop over every id, floor and cell; the vectorised form must match it."""
    dims, nc, grid = arr.dims, instance.n_containers, arr.grid
    occupied = grid != 0
    violations = []
    values, counts = np.unique(grid[occupied], return_counts=True)
    for value, count in zip(values, counts):
        if count > 1:
            violations.append(Violation("permutation", f"id {value}", f"appears in {count} cells"))
        if not 1 <= value <= nc:
            violations.append(Violation("permutation", f"id {value}", "not part of the instance"))
    for missing in sorted(set(range(1, nc + 1)) - set(values.tolist())):
        violations.append(Violation("permutation", f"id {missing}", "placed nowhere"))
    for x, y, z in np.argwhere(occupied[:, :, 1:] & ~occupied[:, :, :-1]):
        violations.append(
            Violation("support", f"cell ({x}, {y}, {z + 1})", "occupied cell with empty cell below")
        )
    floor_counts = occupied.sum(axis=(0, 1))
    for j in range(dims.n3 - 1):
        if floor_counts[j] < floor_counts[j + 1]:
            violations.append(
                Violation(
                    "floor-monotonicity",
                    f"floor {j}",
                    f"holds {floor_counts[j]} containers, floor {j + 1} holds {floor_counts[j + 1]}",
                )
            )
    occupied_scan = grid.transpose(2, 0, 1).ravel() != 0
    canonical = np.arange(dims.capacity) < nc
    xs, ys, zs = cell_coords(dims, np.arange(dims.capacity))
    for k in np.flatnonzero(occupied_scan & ~canonical):
        violations.append(
            Violation("occupancy", f"cell ({xs[k]}, {ys[k]}, {zs[k]})", "occupied outside the canonical fill pattern")
        )
    for k in np.flatnonzero(canonical & ~occupied_scan):
        violations.append(Violation("occupancy", f"cell ({xs[k]}, {ys[k]}, {zs[k]})", "canonical fill cell left empty"))
    return violations


DEFECTS = ("duplicate", "foreign", "emptied", "floating")


@st.composite
def defective_arrangements(draw):
    """A shuffled canonical fill with one injected defect, and the violation that names it.

    Returns (instance, arrangement, expected): `expected` maps each violation
    the defect must cause to 1, its number of occurrences in the report.
    """
    kind = draw(st.sampled_from(DEFECTS))
    # a duplicate needs two containers; a floating cell needs a free cell above a free cell
    n1 = draw(st.integers(2 if kind == "duplicate" else 1, 4))
    n3 = draw(st.integers(3 if kind == "floating" else 1, 4))
    dims = BayDims(n1, draw(st.integers(1, 4)), n3)
    high = dims.capacity - dims.floor_capacity - 1 if kind == "floating" else dims.capacity
    nc = draw(st.integers(2 if kind == "duplicate" else 1, high))
    inst = make_instance((dims.n1, dims.n2, dims.n3), [1.0] * nc)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vector = np.zeros(dims.capacity, dtype=np.int64)
    vector[:nc] = shuffle_ids(canonical_fill(inst), rng, nc).scan
    xs, ys, zs = cell_coords(dims, np.arange(dims.capacity))

    def where(position):
        return f"cell ({xs[position]}, {ys[position]}, {zs[position]})"

    k = draw(st.integers(0, nc - 1))
    lost = int(vector[k])
    if kind == "duplicate":
        other = draw(st.integers(0, nc - 2))
        other += other >= k
        vector[k] = vector[other]
        expected = [("permutation", f"id {vector[k]}", "appears in 2 cells")]
    elif kind == "foreign":
        vector[k] = draw(st.sampled_from([nc + 1, nc + 7, -3]))
        expected = [("permutation", f"id {vector[k]}", "not part of the instance")]
    elif kind == "emptied":
        vector[k] = 0
        expected = [("occupancy", where(k), "canonical fill cell left empty")]
    else:
        # the last canonical cell has nothing above it; its id moves to a cell above a gap
        k = nc - 1
        lost = None
        target = draw(st.integers(nc + dims.floor_capacity, dims.capacity - 1))
        vector[target], vector[k] = vector[k], 0
        expected = [("support", where(target), "occupied cell with empty cell below")]
    if lost is not None:
        expected.append(("permutation", f"id {lost}", "placed nowhere"))
    return inst, Arrangement(dims, vector), {Violation(*v): 1 for v in expected}


class TestValidateProperties:
    @settings(max_examples=150, deadline=None)
    @given(defective_arrangements())
    def test_each_injected_defect_reported_once(self, case):
        inst, arr, expected = case
        report = validate(arr, inst)
        assert {v: report.count(v) for v in expected} == expected
        assert report == reference_validate(arr, inst)

    @settings(max_examples=90, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 4),
        st.sampled_from(["any", "short", "gapped"]),
        st.integers(0, 2**32 - 1),
    )
    def test_random_grids_match_reference(self, n1, n2, n3, kind, seed):
        """Arbitrary grids, valid or not, get the reference report, in the same order.

        "short" grids end before the Nc-th scan cell; "gapped" ones hold an
        occupied cell past a run of empty floors.
        """
        rng = np.random.default_rng(seed)
        capacity, floor = n1 * n2 * n3, n1 * n2
        nc = int(rng.integers(0, capacity + 1))
        inst = make_instance((n1, n2, n3), [1.0] * nc)
        scan = rng.integers(-1, nc + 3, size=capacity) * (rng.random(capacity) < 0.7)
        if kind == "short":
            scan[int(rng.integers(0, nc)) if nc else 0 :] = 0
        elif kind == "gapped" and n3 > 1:
            first = int(rng.integers(0, n3 - 1))
            last = int(rng.integers(first + 1, n3))
            scan[first * floor : last * floor] = 0
            scan[int(rng.integers(last * floor, capacity))] = int(rng.integers(1, nc + 3))
        arr = from_grid(scan.reshape(n3, n1, n2).transpose(1, 2, 0))
        assert validate(arr, inst) == reference_validate(arr, inst)


class TestArrangementValue:
    def test_scan_round_trip(self):
        """An arrangement rebuilt from its scan, or from its dense grid, equals it."""
        inst = make_instance((3, 2, 2), [1.0] * 9)
        arr = shuffle_ids(canonical_fill(inst), np.random.default_rng(3), 9)
        assert Arrangement(arr.dims, arr.scan) == arr
        assert from_grid(arr.grid) == arr

    def test_scan_is_cut_after_the_last_occupied_cell(self):
        dims = BayDims(2, 2, 2)
        assert Arrangement(dims, [0, 4, 0, 2, 0, 0, 0, 0]).scan.tolist() == [0, 4, 0, 2]
        assert Arrangement(dims, [0, 0]).scan.size == 0
        assert Arrangement(dims, [0, 4, 0, 2]) == Arrangement(dims, [0, 4, 0, 2, 0, 0])

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
        with pytest.raises(ValueError):
            arr.scan[0] = 7

    def test_callers_vector_is_copied_not_frozen(self):
        """The constructor copies: the caller's array stays writable, and a later write leaves the value alone."""
        vector = np.array([3, 1, 2, 4, 0], dtype=np.int64)
        arr = Arrangement(BayDims(2, 2, 2), vector)
        vector[0] = 5
        assert arr.scan.tolist() == [3, 1, 2, 4]
        assert not np.shares_memory(arr.scan, vector)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda d: Arrangement(d, np.zeros((2, 2, 1))), r"scan vector must be one-dimensional, got shape \(2, 2, 1\)"),
            (lambda d: Arrangement.from_id_sequence(d, range(1, 10)), "9 ids exceed bay capacity 8"),
            (lambda d: shuffle_ids(Arrangement.from_id_sequence(d, [1]), None, -1),
             "swaps must be >= 0"),
        ],
        ids=["grid-shape", "too-many-ids", "negative-swaps"],
    )
    def test_broken_precondition_is_value_error(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(BayDims(2, 2, 2))
