"""Property tests: row-parallel transpositions equal the per-row swap loop.

Population init and `shuffle_ids` share one routine that applies each
transposition step to all rows at once. The references below are the
per-row, per-swap loops it replaced; under the same seed both must give the
same matrix and leave the random stream in the same state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from baystow import BayDims, Container, GaConfig, Instance, canonical_fill, shuffle_ids
from baystow.arrangement import Arrangement
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
    vector = arr.scan_vector().copy()
    occupied = np.flatnonzero(vector)
    if swaps == 0 or occupied.size < 1:
        return arr
    for a, b in rng.integers(0, occupied.size, size=(swaps, 2)):
        ia, ib = occupied[a], occupied[b]
        vector[ia], vector[ib] = vector[ib], vector[ia]
    return Arrangement.from_scan_vector(arr.dims, vector)


def line_instance(nc: int, height: int = 1) -> Instance:
    """Nc containers in a bay of `height` floors with room for all of them."""
    width = max(1, -(-nc // height))
    return Instance(BayDims(width, 1, height), tuple(Container(i + 1, 1.0) for i in range(nc)))


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

