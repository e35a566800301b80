"""Two-qudit state algebra and measurement probabilities.

The entanglement-based protocol lives on a d x d bipartite space: the
maximally entangled state mixed with white noise (an isotropic state with
visibility v).  Alice's filters are the conjugates of the basis vectors,
so her outcomes match Bob's in every basis of a complete unbiased set.

Every pair probability comes from one product: with P[a] = vec(v_a v_a^dagger)
and R the state regrouped from (xy, uv) to (xu, yv), Alice's conjugated filter
v_a* and Bob's filter v_b both pass with probability Re(P R P^dagger)[a, b].
For the isotropic state that is (v |<v_a|v_b>|^2 + (1 - v) / d) / d, which
sessions read off the Gram overlaps without a state (protocol._overlaps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import MubSet
from .errors import DimensionError, _unchecked, check_dimension, check_range

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A density matrix on a composite space of dimension dim**2, read-only complex128.

    ``DensityOperator(...)`` checks it is finite, Hermitian, of trace one and positive semidefinite.
    """

    matrix: np.ndarray
    dim: int

    def __post_init__(self):
        check_dimension(self.dim)
        m = np.array(self.matrix, dtype=np.complex128)
        n = self.dim * self.dim
        if m.shape != (n, n):
            raise DimensionError(
                f"density matrix shape {m.shape} does not match local dimension "
                f"{self.dim} (expected {(n, n)})"
            )
        if not (np.isfinite(m).all() and np.max(np.abs(m - m.conj().T)) <= HERMITICITY_TOL):
            raise ValueError("density matrix is not a finite Hermitian matrix")
        tr = np.trace(m).real
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"density matrix trace is {tr!r}, not 1")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -POSITIVITY_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class JointProbMatrix:
    """Joint outcome probabilities indexed by (basis_a, elem_a, basis_b, elem_b).

    ``block_available[i, j]`` is False when block (i, j) could not be
    normalized from data (zero total); analytic constructions leave every
    block available.  ``JointProbMatrix(...)`` rejects a probability that is
    not finite or below -1e-15 and clips the rest at 0.0; joint_prob_matrix's
    tables need neither and skip the checks.
    """

    dim: int
    probs: np.ndarray
    block_available: np.ndarray

    def __post_init__(self):
        check_dimension(self.dim)
        n_b = self.dim + 1
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (n_b, self.dim, n_b, self.dim):
            raise DimensionError(
                f"probability array shape {p.shape} does not match dimension {self.dim}"
            )
        avail = np.array(self.block_available, dtype=bool)
        if avail.shape != (n_b, n_b):
            raise DimensionError("block availability mask has wrong shape")
        if not (np.min(p) >= -1e-15 and np.max(p) < np.inf):  # also rejects NaN
            raise ValueError(f"probabilities must be finite and nonnegative, min {np.min(p):.3e}")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        avail.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "block_available", avail)

    def block(self, basis_a: int, basis_b: int) -> np.ndarray:
        return self.probs[basis_a, :, basis_b, :]


def isotropic_state(d: int, v: float) -> DensityOperator:
    """v |Psi><Psi| + (1 - v) I / d^2: the maximally entangled state mixed with white noise.

    It skips DensityOperator's checks: for v in [0, 1] it is exactly real symmetric,
    of trace one to rounding, with eigenvalues (1 - v) / d^2 and v + (1 - v) / d^2.
    """
    check_range("visibility", v, 0, 1, error=ValueError)
    d = check_dimension(d)
    psi = np.zeros(d * d, dtype=np.complex128)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    noise = np.eye(d * d, dtype=np.complex128) / (d * d)
    m = v * np.outer(psi, psi.conj()) + (1.0 - v) * noise
    m.setflags(write=False)
    return _unchecked(DensityOperator, matrix=m, dim=d)


def joint_prob_matrix(rho: DensityOperator, mubs: MubSet) -> JointProbMatrix:
    """All joint probabilities with Alice conjugated, over every setting pair.

    probs[i, k, j, m] = tr[(P_ik* x P_jm) rho]: Alice's filter is the
    conjugate of vector k of basis i, Bob's is vector m of basis j.  The state
    and unit vectors are finite, and so the products are; clipped at 0.0 as
    JointProbMatrix would clip them, the table skips its checks.
    """
    d, n_b = mubs.dim, mubs.n_bases
    if rho.dim != d:
        raise DimensionError(f"filter dimension {d} does not match state dimension {rho.dim}")
    vectors = mubs._stack.reshape(n_b * d, d)
    p = np.einsum("ax,au->axu", vectors, vectors.conj()).reshape(n_b * d, d * d)
    r = rho.matrix.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    # Real products only: at this size a complex @ takes a threaded BLAS path (ms, not us).
    a, b, c, e = p.real, p.imag, r.real, r.imag
    val = (a @ c - b @ e) @ a.T + (a @ e + b @ c) @ b.T
    probs = np.clip(val.reshape(n_b, d, n_b, d), 0.0, None)
    avail = np.ones((n_b, n_b), dtype=bool)
    probs.setflags(write=False)
    avail.setflags(write=False)
    return _unchecked(JointProbMatrix, dim=d, probs=probs, block_available=avail)


def visibility_for_qber(d: int, q: float) -> float:
    """Visibility whose isotropic state shows average error rate q.

    Inverts q = (1 - v)(d - 1)/d; q must not exceed the fully mixed
    ceiling (d - 1)/d.
    """
    check_dimension(d)
    check_range(f"error rate for d={d}", q, 0, (d - 1) / d, error=ValueError)
    return 1.0 - q * d / (d - 1)
