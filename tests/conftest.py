import numpy as np
import pytest

from baystow import Arrangement, BayDims, Instance


def make_instance(dims, dates):
    """Instance with ids 1..len(dates) and the given delivery dates."""
    return Instance(BayDims(*dims), np.asarray(dates, dtype=float))


def from_grid(grid) -> Arrangement:
    """The arrangement whose dense grid, indexed [x, y, z], is `grid`; the bay is its shape."""
    grid = np.asarray(grid)
    return Arrangement(BayDims(*grid.shape), grid.transpose(2, 0, 1).ravel())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
