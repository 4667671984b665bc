import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baystow import BayDims, Cell, InvalidSpec, canonical_above_counts, cell_coords
from baystow.bay import _MAX_CELLS, canonical_coords


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
    """The scan order as `cell_coords` gives it, one cell per scan position."""
    coords = cell_coords(dims, np.arange(dims.capacity))
    return [Cell(*xyz) for xyz in zip(*(axis.tolist() for axis in coords))]


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

    def test_capacity_bounded_by_cell_limit(self):
        assert _MAX_CELLS == 2**24
        assert BayDims(1 << 12, 1 << 8, 1 << 4).capacity == _MAX_CELLS
        with pytest.raises(InvalidSpec, match=f"its {_MAX_CELLS + 1} cells exceed {_MAX_CELLS}"):
            BayDims(_MAX_CELLS + 1, 1, 1)
        with pytest.raises(InvalidSpec, match="cannot hold a 100000x100000x100000 bay"):
            BayDims(100_000, 100_000, 100_000)

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
        with pytest.raises(ValueError, match="9 containers exceed bay capacity 8"):
            canonical_above_counts(BayDims(2, 2, 2), 9)

    @settings(max_examples=60, deadline=None)
    @given(st.builds(BayDims, *(st.integers(1, 5) for _ in range(3))), st.data())
    def test_matches_stacked_cells(self, dims, data):
        """Entry k counts the occupied cells above scan cell k in its column."""
        nc = data.draw(st.integers(0, dims.capacity))
        occupied = scan_order(dims)[:nc]
        expected = [sum((o.x, o.y) == (c.x, c.y) and o.z > c.z for o in occupied) for c in occupied]
        assert canonical_above_counts(dims, nc).tolist() == expected

    def test_memory_on_a_wide_floor(self):
        """Eight containers on a 4,000,000-cell floor: arrays of Nc entries, none of the floor's size."""
        tracemalloc.start()
        try:
            above = canonical_above_counts.__wrapped__(BayDims(2000, 2000, 1), 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert above.tolist() == [0] * 8
        assert peak < 1_000_000

    def test_memory_on_a_cube(self):
        """A 64x64x64 bay's above-counts peak under 16 bytes a cell: the 8-byte table, from per-floor depths."""
        dims = BayDims(64, 64, 64)
        tracemalloc.start()
        try:
            above = canonical_above_counts.__wrapped__(dims, dims.capacity - 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (above[0], above[4095], above[-1]) == (63, 62, 0)
        assert peak < 16 * dims.capacity


@st.composite
def bays_and_counts(draw):
    dims = BayDims(*(draw(st.integers(1, 5)) for _ in range(3)))
    return dims, draw(st.integers(0, dims.capacity))


class TestCanonicalCoords:
    @settings(max_examples=60, deadline=None)
    @given(bays_and_counts())
    def test_masks_match_coordinate_comparison(self, case):
        """Every box {x < px, y < py, z < pz}, planes in 0..n cast as the engine casts them, matches."""
        dims, nc = case
        x, y, z = canonical_coords(dims, nc)
        assert (x.shape, y.shape, z.shape) == ((nc,), (nc,), (nc,))
        xs, ys, zs = np.array(scan_order(dims)[:nc], dtype=int).reshape(nc, 3).T
        planes = np.array(list(product(range(dims.n1 + 1), range(dims.n2 + 1), range(dims.n3 + 1))))
        px, py, pz = planes.T
        masks = x >= px.astype(x.dtype)[:, None]
        masks |= y >= py.astype(y.dtype)[:, None]
        masks |= z >= pz.astype(z.dtype)[:, None]
        for (px, py, pz), mask in zip(planes.tolist(), masks):
            np.testing.assert_array_equal(mask, (xs >= px) | (ys >= py) | (zs >= pz))

    @pytest.mark.parametrize("n", [255, 256, 257])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_plane_at_axis_length(self, axis, n):
        """Plane n keeps every cell in the box and plane n - 1 cuts off the last layer, past uint8 too."""
        lengths = [1, 1, 1]
        lengths[axis] = n
        coord = canonical_coords(BayDims(*lengths), n)[axis]
        assert coord.dtype.kind == "u"
        planes = np.array([n, n - 1])
        masks = coord >= planes.astype(coord.dtype)[:, None]
        assert not masks[0].any()
        np.testing.assert_array_equal(np.flatnonzero(masks[1]), [n - 1])

    def test_coords_read_only_and_cached(self):
        coords = canonical_coords(BayDims(2, 3, 2), 7)
        assert canonical_coords(BayDims(2, 3, 2), 7) is coords
        with pytest.raises(ValueError):
            coords[0][0] = 1

    def test_capacity_guard(self):
        with pytest.raises(ValueError, match="9 containers exceed bay capacity 8"):
            canonical_coords(BayDims(2, 2, 2), 9)

    def test_memory_on_a_cube(self):
        """A 64x64x64 bay's coordinates retain under 4 bytes a cell: one byte per axis."""
        dims = BayDims(64, 64, 64)
        tracemalloc.start()
        try:
            coords = canonical_coords.__wrapped__(dims, dims.capacity)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [c.dtype for c in coords] == [np.uint8] * 3
        assert retained < 4 * dims.capacity
        # Each axis is built in its own dtype, with no int64 index vector.
        assert peak < 8 * dims.capacity
