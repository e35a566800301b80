"""Property-based invariants over randomly drawn inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubqkd.bases import mub_set
from mubqkd.security import (
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


# key_rate falls on the physical range [0, (d-1)/d] and rises past it.  At
# (d-1)/d it is flat, r(q) ~ r(top) + curv (q - top)^2 / 2, so a pair whose
# rate difference by that curvature is below 1e-14 (key_rate is good to
# about 1e-15 here) shows only rounding and is skipped.
@given(d=DIMS, f1=st.floats(0.0, 1.0), f2=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_key_rate_monotone_in_error(d, f1, f2):
    top = (d - 1) / d
    q1, q2 = sorted((f1 * top, f2 * top))
    curv = (d + 1) / (d * np.log(2)) * (d / (d - 1) + d * (d + 1))
    if curv * (q2 - q1) * (2 * top - q1 - q2) / 2 < 1e-14:
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
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_coarse_graining_never_increases_entropy(rows, cols, seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.01, 1.0, (rows, cols))
    joint = weights / weights.sum()
    pushed = joint.sum(axis=1)
    assert shannon_entropy(pushed) <= shannon_entropy(joint) + 1e-9
    assert abs(pushed.sum() - 1) < 1e-12


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
        mat = np.column_stack([k.amplitudes for k in basis.vectors])
        weights = np.abs(mat.conj().T @ psi) ** 2
        assert abs(weights.sum() - 1) < 1e-10
