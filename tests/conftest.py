import numpy as np
import pytest

from baystow import BayDims, Instance


def make_instance(dims, dates):
    """Instance with ids 1..len(dates) and the given delivery dates."""
    return Instance(BayDims(*dims), np.asarray(dates, dtype=float))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
