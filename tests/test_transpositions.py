"""Property tests: row-parallel transpositions equal the per-row swap loop.

Population init, mutation and `shuffle_ids` share one routine that applies
each transposition step to all rows at once, building its indices in blocks
of `_SWAP_BLOCK` steps. The references below are the per-row, per-swap loops
it replaced; under the same seed both must give the same matrix and leave
the random stream in the same state.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from baystow import BayDims, GaConfig, Instance, canonical_fill, shuffle_ids
from baystow.arrangement import _SWAP_BLOCK, Arrangement, _transpose_rows
from baystow.ga import _init_seqs

SEEDS = st.integers(0, 2**32 - 1)


def reference_init(nc: int, pop: int, swaps: int, rng: np.random.Generator) -> np.ndarray:
    """Per-row init: one draw per row, then that row's swaps one by one."""
    seqs = np.tile(np.arange(1, nc + 1, dtype=np.int64), (pop, 1))
    if swaps and nc:
        for row in seqs:
            pairs = rng.integers(0, nc, size=(swaps, 2))
            for a, b in pairs:
                row[a], row[b] = row[b], row[a]
    return seqs


def reference_shuffle(arr: Arrangement, rng: np.random.Generator, swaps: int) -> Arrangement:
    """Per-swap `shuffle_ids` over the occupied cells of the scan vector."""
    vector = arr.scan.copy()
    occupied = np.flatnonzero(vector)
    if swaps == 0 or occupied.size < 1:
        return arr
    for a, b in rng.integers(0, occupied.size, size=(swaps, 2)):
        ia, ib = occupied[a], occupied[b]
        vector[ia], vector[ib] = vector[ib], vector[ia]
    return Arrangement(arr.dims, vector)


def line_instance(nc: int, height: int = 1) -> Instance:
    """Nc containers in a bay of `height` floors with room for all of them."""
    width = max(1, -(-nc // height))
    return Instance(BayDims(width, 1, height), np.ones(nc))


@st.composite
def init_cases(draw):
    nc = draw(st.integers(0, 40))
    return draw(st.integers(1, 8)), nc, draw(st.integers(0, 2 * nc)), draw(SEEDS)


@settings(max_examples=150, deadline=None)
@given(init_cases())
def test_init_matches_per_row_reference(case):
    pop, nc, swaps, seed = case
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _init_seqs(line_instance(nc), GaConfig(pop_size=pop, init_swaps=swaps), rng_new)
    expected = reference_init(nc, pop, swaps, rng_ref)
    assert got.shape == (pop, nc)
    np.testing.assert_array_equal(got, expected)
    assert rng_new.random() == rng_ref.random()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(1, 3), st.integers(0, 80), SEEDS)
def test_shuffle_ids_matches_per_swap_reference(nc, height, swaps, seed):
    arr = canonical_fill(line_instance(nc, height))
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert shuffle_ids(arr, rng_new, swaps) == reference_shuffle(arr, rng_ref, swaps)
    assert rng_new.random() == rng_ref.random()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(_SWAP_BLOCK - 2, 2 * _SWAP_BLOCK + 3),
    SEEDS,
)
def test_init_across_swap_blocks_matches_per_row_reference(pop, nc, swaps, seed):
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _init_seqs(line_instance(nc), GaConfig(pop_size=pop, init_swaps=swaps), rng_new)
    np.testing.assert_array_equal(got, reference_init(nc, pop, swaps, rng_ref))
    assert rng_new.random() == rng_ref.random()


def test_zero_steps_leave_rows_unchanged():
    seqs = np.arange(12, dtype=np.int64).reshape(3, 4)
    got = _transpose_rows(seqs.copy(), np.zeros((3, 0, 2), dtype=np.int64))
    np.testing.assert_array_equal(got, seqs)


def test_one_cell_rows_swap_with_themselves():
    seqs = np.array([[5], [7]], dtype=np.int64)
    got = _transpose_rows(seqs.copy(), np.zeros((2, 3, 2), dtype=np.int64))
    np.testing.assert_array_equal(got, seqs)


def test_swap_index_memory_is_bounded_by_blocks():
    """The flat indices live one block at a time: all steps at once would take pairs.nbytes."""
    rows, n, steps = 50, 2_000, 8_000
    rng = np.random.default_rng(0)
    seqs = np.tile(np.arange(1, n + 1, dtype=np.int64), (rows, 1))
    pairs = rng.integers(0, n, size=(rows, steps, 2))
    tracemalloc.start()
    try:
        _transpose_rows(seqs, pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < pairs.nbytes / 2
