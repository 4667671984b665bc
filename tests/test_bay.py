import numpy as np
import pytest

from baystow import BayDims, CapacityExceeded, Cell, canonical_above_counts, scan_coords


def cells(pairs):
    return [Cell(*p) for p in pairs]


def scan_order(dims):
    """Reference enumeration of the canonical scan order: z outermost, then x, then y."""
    return [
        Cell(x, y, z)
        for z in range(dims.n3)
        for x in range(dims.n1)
        for y in range(dims.n2)
    ]


def scan_cells(dims):
    """The scan order as `scan_coords` gives it, one cell per scan position."""
    return [Cell(*xyz) for xyz in zip(*(axis.tolist() for axis in scan_coords(dims)))]


class TestBayDims:
    def test_capacity_products(self):
        dims = BayDims(4, 5, 6)
        assert dims.floor_capacity == 20
        assert dims.capacity == 120

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -1, 1), (1, 1, 0)])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            BayDims(*bad)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            BayDims(2.0, 2, 2)

    def test_contains(self):
        dims = BayDims(2, 3, 4)
        assert dims.contains(Cell(1, 2, 3))
        assert not dims.contains(Cell(2, 0, 0))
        assert not dims.contains(Cell(0, 0, -1))

    def test_str(self):
        assert str(BayDims(4, 4, 4)) == "4x4x4"


class TestScanOrder:
    def test_single_column(self):
        assert scan_cells(BayDims(1, 1, 2)) == cells([(0, 0, 0), (0, 0, 1)])

    def test_single_floor_row(self):
        assert scan_cells(BayDims(2, 1, 1)) == cells([(0, 0, 0), (1, 0, 0)])

    def test_2x2x2_enumeration(self):
        # floor z=0 fully before floor z=1; within a floor x before y
        expected = cells(
            [
                (0, 0, 0),
                (0, 1, 0),
                (1, 0, 0),
                (1, 1, 0),
                (0, 0, 1),
                (0, 1, 1),
                (1, 0, 1),
                (1, 1, 1),
            ]
        )
        assert scan_cells(BayDims(2, 2, 2)) == expected == scan_order(BayDims(2, 2, 2))

    @pytest.mark.parametrize("dims", [(1, 1, 1), (3, 2, 4), (5, 5, 5), (7, 3, 2)])
    def test_covers_every_cell_once(self, dims):
        d = BayDims(*dims)
        order = scan_cells(d)
        assert len(order) == d.capacity
        assert len(set(order)) == d.capacity
        assert all(d.contains(c) for c in order)

    def test_scan_coords_match_scan_order(self):
        for d in (BayDims(3, 4, 2), BayDims(1, 5, 3), BayDims(4, 1, 1)):
            assert scan_cells(d) == scan_order(d)

    def test_scan_coords_read_only(self):
        xs, _, _ = scan_coords(BayDims(2, 2, 2))
        with pytest.raises(ValueError):
            xs[0] = 9


class TestCanonicalAboveCounts:
    def test_partial_second_floor(self):
        # 5 containers in a 2x2x2 bay: four on the ground, one above the first
        above = canonical_above_counts(BayDims(2, 2, 2), 5)
        assert above.tolist() == [1, 0, 0, 0, 0]

    def test_full_column(self):
        above = canonical_above_counts(BayDims(1, 1, 3), 3)
        assert above.tolist() == [2, 1, 0]

    def test_single_floor_all_zero(self):
        above = canonical_above_counts(BayDims(3, 3, 2), 9)
        assert above.tolist() == [0] * 9

    def test_matches_column_height_identity(self):
        # sum of above-counts equals sum over columns of h(h-1)/2
        dims = BayDims(3, 2, 4)
        for nc in range(dims.capacity + 1):
            above = canonical_above_counts(dims, nc)
            full, rem = divmod(nc, dims.floor_capacity)
            heights = [full + (1 if k < rem else 0) for k in range(dims.floor_capacity)]
            assert above.sum() == sum(h * (h - 1) // 2 for h in heights)

    def test_capacity_guard(self):
        with pytest.raises(CapacityExceeded):
            canonical_above_counts(BayDims(2, 2, 2), 9)
