"""Property-based invariants over randomly drawn inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubqkd.bases import mub_set
from mubqkd.security import (
    Distribution,
    isotropic_joint_distribution,
    key_rate,
    mutual_information,
    shannon_entropy,
)
from mubqkd.states import visibility_for_qber

DIMS = st.sampled_from((2, 3, 4, 5))


@given(d=DIMS, frac=st.floats(0.0, 0.999))
@settings(max_examples=60, deadline=None)
def test_visibility_qber_round_trip(d, frac):
    q = frac * (d - 1) / d
    v = visibility_for_qber(d, q)
    assert 0.0 <= v <= 1.0
    assert abs((1 - v) * (d - 1) / d - q) < 1e-12


# key_rate falls on the physical range [0, (d-1)/d] and rises past it.
@given(d=DIMS, f1=st.floats(0.0, 1.0), f2=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_key_rate_monotone_in_error(d, f1, f2):
    top = (d - 1) / d
    q1, q2 = sorted((f1 * top, f2 * top))
    if q2 - q1 < 1e-9:
        return
    assert key_rate(d, q1) > key_rate(d, q2)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_key_rate_minimum_sits_at_uniform_error(d):
    top = (d - 1) / d
    assert key_rate(d, top) == pytest.approx(-np.log2(d))
    assert key_rate(d, top) < key_rate(d, top - 1e-3)
    assert key_rate(d, top) < key_rate(d, top + 1e-3)


@given(d=DIMS, frac=st.floats(0.0, 0.999))
@settings(max_examples=60, deadline=None)
def test_mutual_information_bounded_by_log_d(d, frac):
    q = frac * (d - 1) / d
    mi = mutual_information(isotropic_joint_distribution(d, q))
    assert -1e-12 <= mi <= np.log2(d) + 1e-12


@given(
    weights=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_coarse_graining_never_increases_entropy(weights, seed):
    probs = np.array(weights) / sum(weights)
    labels = tuple(range(len(probs)))
    dist = Distribution(labels, probs)
    rng = np.random.default_rng(seed)
    groups = rng.integers(0, max(1, len(probs) // 2), size=len(probs))
    pushed = dist.pushforward(lambda lab: int(groups[lab]))
    assert shannon_entropy(pushed) <= shannon_entropy(dist) + 1e-9
    assert abs(pushed.probs.sum() - 1) < 1e-12


@given(d=st.sampled_from((2, 3, 4, 5, 7)), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_random_unit_vector_unbiased_overlap_sum(d, seed):
    # For any state, outcome probabilities in each basis of the set sum
    # to 1; across bases the overlaps with a fixed basis vector average
    # to 1/d (a resolution-of-identity consequence).
    mubs = mub_set(d)
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi = raw / np.linalg.norm(raw)
    for basis in mubs.bases:
        weights = np.abs(basis.matrix.conj().T @ psi) ** 2
        assert abs(weights.sum() - 1) < 1e-10
