"""Shared test inputs."""

import numpy as np
import pytest

from mubqkd.states import DensityOperator


@pytest.fixture
def random_state():
    """Seeded random full-rank two-qudit state, far from the isotropic family."""

    def make(d: int) -> DensityOperator:
        rng = np.random.default_rng([2024, d])
        g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        m = g @ g.conj().T
        return DensityOperator(m / np.trace(m).real, dim=d)

    return make
