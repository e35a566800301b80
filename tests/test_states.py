"""Tests for density operators, the symmetric-noise family, and joint probabilities."""

import numpy as np
import pytest

from mubqkd.bases import mub_set
from mubqkd.protocol import pm_effective_overlaps
from mubqkd.states import (
    DensityOperator,
    JointProbMatrix,
    isotropic_state,
    joint_prob_matrix,
    maximally_entangled,
    visibility_for_qber,
)


def _joint_prob(rho, a, b):
    """tr[(P_a x P_b) rho] for filter vectors a and b, one Kronecker product per cell."""
    ab = np.kron(a, b)
    return max(np.vdot(ab, rho.matrix @ ab).real, 0.0)


def _vector(mubs, basis, element):
    return mubs.bases[basis].vectors[element].amplitudes


def test_maximally_entangled_projector():
    for d in (2, 3, 5):
        rho = maximally_entangled(d)
        psi = np.zeros(d * d, dtype=complex)
        psi[:: d + 1] = 1 / np.sqrt(d)
        assert np.allclose(rho.matrix, np.outer(psi, psi.conj()))
        assert abs(np.trace(rho.matrix @ rho.matrix) - 1) < 1e-12  # pure


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(np.kron(np.array([[1.0, 0.5], [0.0, 0.0]]), np.eye(2) / 2), dim=2)
    with pytest.raises(ValueError):
        DensityOperator(np.eye(4) / 2, dim=2)  # trace 2
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5, 0.0, 0.0]), dim=2)  # negative eigenvalue


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cell", [(0, 0), (0, 3)])
def test_density_operator_rejects_non_finite_entries(bad, cell):
    # eigvalsh would raise LinAlgError, which is not a ValueError.
    m = np.eye(4, dtype=complex) / 4
    m[cell] = bad
    with pytest.raises(ValueError, match="not a finite Hermitian matrix"):
        DensityOperator(m, dim=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1])
def test_joint_prob_matrix_rejects_non_finite_probabilities(bad):
    probs = np.full((3, 2, 3, 2), 0.25)
    probs[1, 0, 2, 1] = bad
    with pytest.raises(ValueError, match="finite and nonnegative"):
        JointProbMatrix(dim=2, probs=probs, block_available=np.ones((3, 3), dtype=bool))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_isotropic_state_is_the_mixture_byte_for_byte(d):
    noise = np.eye(d * d, dtype=complex) / d**2
    for v in (0.0, 0.37, 0.83, 1.0):
        want = v * maximally_entangled(d).matrix + (1 - v) * noise
        assert isotropic_state(d, v).matrix.tobytes() == want.tobytes()


def test_isotropic_state_limits():
    d = 3
    pure = isotropic_state(d, 1.0)
    assert np.allclose(pure.matrix, maximally_entangled(d).matrix)
    flat = isotropic_state(d, 0.0)
    assert np.allclose(flat.matrix, np.eye(d * d) / d**2)
    with pytest.raises(ValueError):
        isotropic_state(d, 1.2)
    with pytest.raises(ValueError):
        isotropic_state(d, -0.1)


def test_same_basis_block_structure():
    # Filter on the conjugated vector on one side gives perfect correlation
    # at v=1 and the uniform error floor otherwise.
    for d, v in [(2, 0.9), (3, 0.7), (5, 1.0)]:
        mubs = mub_set(d)
        rho = isotropic_state(d, v)
        jm = joint_prob_matrix(rho, mubs)
        diag_expect = v / d + (1 - v) / d**2
        off_expect = (1 - v) / d**2
        for b in range(d + 1):
            block = jm.block(b, b)
            assert np.allclose(np.diag(block), diag_expect, atol=1e-12)
            off = block - np.diag(np.diag(block))
            assert np.allclose(
                off + np.diag(np.full(d, off_expect)),
                np.full((d, d), off_expect),
                atol=1e-12,
            )


def test_cross_basis_blocks_flat_for_any_visibility():
    for v in (0.0, 0.4, 1.0):
        d = 3
        mubs = mub_set(d)
        jm = joint_prob_matrix(isotropic_state(d, v), mubs)
        for ba in range(d + 1):
            for bb in range(d + 1):
                if ba == bb:
                    continue
                assert np.allclose(jm.block(ba, bb), 1 / d**2, atol=1e-12)


def test_blocks_sum_to_one():
    d = 2
    mubs = mub_set(d)
    jm = joint_prob_matrix(isotropic_state(d, 0.77), mubs)
    for ba in range(d + 1):
        for bb in range(d + 1):
            assert abs(jm.block(ba, bb).sum() - 1) < 1e-12


def test_joint_prob_single_cell_matches_matrix():
    d = 2
    mubs = mub_set(d)
    rho = isotropic_state(d, 0.6)
    jm = joint_prob_matrix(rho, mubs)
    a = np.conj(_vector(mubs, 1, 0))
    b = _vector(mubs, 1, 1)
    assert abs(_joint_prob(rho, a, b) - jm.probs[1, 0, 1, 1]) < 1e-14


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_joint_prob_matrix_matches_per_entry_oracle(d, random_state):
    mubs = mub_set(d)
    rho = random_state(d)
    jm = joint_prob_matrix(rho, mubs)
    n_b = d + 1
    want = np.empty((n_b, d, n_b, d))
    for i in range(n_b):
        for k in range(d):
            a = np.conj(_vector(mubs, i, k))
            for j in range(n_b):
                for m in range(d):
                    want[i, k, j, m] = _joint_prob(rho, a, _vector(mubs, j, m))
    assert np.max(np.abs(jm.probs - want)) < 1e-14


def test_pm_overlap_prob():
    ov = pm_effective_overlaps(mub_set(2))
    same, other, cross = ov[0, 0, 0, 0], ov[0, 0, 0, 1], ov[0, 0, 1, 0]
    assert abs(same - 1) < 1e-14
    assert abs(other) < 1e-14
    assert abs(cross - 0.5) < 1e-14


def test_visibility_for_qber_inverts_error_rate():
    from mubqkd.security import average_qber

    for d, q in [(2, 0.016), (3, 0.040), (5, 0.14)]:
        v = visibility_for_qber(d, q)
        mubs = mub_set(d)
        got = average_qber(isotropic_state(d, v), mubs)
        assert abs(got - q) < 1e-12


def test_visibility_for_qber_domain():
    with pytest.raises(ValueError):
        visibility_for_qber(2, 0.6)  # above the (d-1)/d ceiling
    with pytest.raises(ValueError):
        visibility_for_qber(2, -0.01)
    assert visibility_for_qber(3, 0.0) == 1.0
