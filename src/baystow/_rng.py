"""Seed handling shared by the instance generator, the engine, and sweeps."""

from __future__ import annotations

import operator

import numpy as np

from .errors import InvalidSpec

_MASK64 = (1 << 64) - 1


def require_seed(name: str, value) -> None:
    """Raise InvalidSpec unless `value` is an integer seed; numpy integers pass, bools do not."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(type(value), "__index__"):
        raise InvalidSpec(f"{name} must be an integer, got {value!r}")


def mask_seed(seed: int) -> int:
    """Reduce any integer, numpy integers included, to the unsigned 64-bit seed space."""
    return operator.index(seed) & _MASK64


def derive_seed(*parts: int) -> int:
    """Deterministic 64-bit child seed from an ordered tuple of integers."""
    state = np.random.SeedSequence([mask_seed(p) for p in parts]).generate_state(2)
    return (int(state[0]) << 32) | int(state[1])
