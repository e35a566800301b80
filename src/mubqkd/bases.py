"""Construction and validation of mutually unbiased measurement bases.

A complete set for dimension d holds d+1 bases: the standard basis plus,
for prime d, the eigenbases of the unitaries X Z^l for l = 0 .. d-1, where
Z and X are the generalized phase and shift operators.  Dimension 4 is not
prime; its four other bases are the closed-form quadratic-phase bases of
two qubits, each the joint eigenbasis of the Pauli class its label names.
Each basis is built as one read-only complex array from a closed formula,
its rows wrapped as Kets without a check of their own; the finished set
is validated once, by the MubSet that holds it.

A MubSet stacks its vectors once into the read-only (n_b, d, d) array
``_stack``, indexed [basis, element, amplitude].  Every overlap in the package derives from
its Gram tensor G[i, k, j, m] = <e_ik|e_jm>: the set is orthonormal when
each diagonal block G[i, :, i, :] is the identity, and mutually unbiased
when every off-diagonal block satisfies |G|^2 = 1/d.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import ConstructionError, DimensionError, ParseError, check_range
from .errors import _dim_line, _text_lines

ORTHONORMALITY_TOL = 1e-12
UNBIASEDNESS_TOL = 1e-10

SUPPORTED_DIMENSIONS = (2, 3, 4, 5, 7)


@dataclass(frozen=True, eq=False)
class Ket:
    """A unit-norm state vector; ``Ket(amplitudes)`` copies it and checks its norm.

    Built basis rows skip both (``_unchecked``): the MubSet that holds them checks them.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amplitudes, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError(f"ket amplitudes must be one-dimensional, got shape {arr.shape}")
        if arr.size < 2:
            raise DimensionError(f"ket dimension must be at least 2, got {arr.size}")
        defect = abs(np.linalg.norm(arr) - 1.0)
        check_range("|ket norm - 1|", defect, 0, ORTHONORMALITY_TOL, error=ValueError)
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @classmethod
    def _unchecked(cls, amplitudes: np.ndarray) -> Ket:
        """Skip the copy and the norm check: for read-only rows a MubSet will check."""
        ket = object.__new__(cls)
        ket.__dict__["amplitudes"] = amplitudes
        return ket

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class Basis:
    """An ordered basis of d unit vectors in a d-dimensional space.

    Orthonormality is checked by the MubSet that holds the basis.
    """

    label: str
    vectors: tuple[Ket, ...]

    def __post_init__(self):
        vectors = tuple(self.vectors)
        object.__setattr__(self, "vectors", vectors)
        if not vectors:
            raise DimensionError("basis needs at least one vector")
        d = vectors[0].dim
        if any(v.dim != d for v in vectors):
            raise DimensionError(f"basis {self.label!r} mixes vector dimensions")
        if len(vectors) != d:
            raise DimensionError(
                f"basis {self.label!r} has {len(vectors)} vectors for dimension {d}"
            )

    @property
    def dim(self) -> int:
        return self.vectors[0].dim


@dataclass(frozen=True, eq=False)
class MubSet:
    """A complete family of d+1 pairwise mutually unbiased bases.

    ``check=False`` skips the orthonormality and unbiasedness tests, the one
    check of a built vector (see Ket), so that deliberately broken sets can be
    assembled for diagnostics; every construction path in the package keeps them.
    """

    dim: int
    bases: tuple[Basis, ...]
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        bases = tuple(self.bases)
        object.__setattr__(self, "bases", bases)
        if len(bases) != self.dim + 1:
            raise DimensionError(
                f"complete set for dimension {self.dim} needs {self.dim + 1} bases, "
                f"got {len(bases)}"
            )
        if any(b.dim != self.dim for b in bases):
            raise DimensionError("basis dimension does not match set dimension")
        stack = np.array([[v.amplitudes for v in b.vectors] for b in bases])
        stack.setflags(write=False)
        object.__setattr__(self, "_stack", stack)
        if check:
            report = unbiasedness_report(self)
            if not report.max_orthonormality_defect <= ORTHONORMALITY_TOL:
                raise ValueError(
                    "bases are not orthonormal: max defect "
                    f"{report.max_orthonormality_defect:.3e}"
                )
            if not report.max_unbiased_deviation <= UNBIASEDNESS_TOL:
                raise ValueError(
                    "bases are not mutually unbiased: max overlap deviation "
                    f"{report.max_unbiased_deviation:.3e}"
                )

    @property
    def n_bases(self) -> int:
        return len(self.bases)


@dataclass(frozen=True)
class UnbiasednessReport:
    """Worst-case deviations of a basis family from the MUB conditions."""

    max_unbiased_deviation: float
    max_orthonormality_defect: float


def _gram(mubs: MubSet) -> np.ndarray:
    """Gram tensor G[i, k, j, m] = <e_ik|e_jm> of every vector pair in the set."""
    return np.einsum("ikx,jmx->ikjm", mubs._stack.conj(), mubs._stack)


def unbiasedness_report(mubs: MubSet) -> UnbiasednessReport:
    """Measure how far a set is from being mutually unbiased.

    Returns the maximum of | |<e|f>|^2 - 1/d | over all cross-basis vector
    pairs together with the maximum orthonormality defect of the individual
    bases.  A well-formed complete set keeps both below the module
    tolerances.
    """
    g = _gram(mubs)
    n_b, d = g.shape[:2]
    same = np.eye(n_b, dtype=bool)[:, None, :, None]
    eye = np.eye(n_b * d).reshape(g.shape)
    max_dev = np.max(np.abs(np.abs(g) ** 2 - 1.0 / d), where=~same, initial=0.0)
    max_defect = np.max(np.abs(g - eye), where=same, initial=0.0)
    return UnbiasednessReport(float(max_dev), float(max_defect))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, int(math.isqrt(n)) + 1))


def _kets(rows: np.ndarray) -> tuple[Ket, ...]:
    """The rows of a built complex array, frozen, as unchecked Kets."""
    rows.setflags(write=False)
    return tuple(Ket._unchecked(row) for row in rows)


def eigenbasis_xzl(d: int, l: int) -> Basis:
    """Eigenbasis of X Z^l for prime d, ordered by eigenvalue phase.

    The eigenvector recursion v_{j+1} = lambda^{-1} w^{l j} v_j with
    v_0 = 1/sqrt(d) closes only when lambda^d = w^{l d(d-1)/2}; the d
    solutions enumerate the basis.  Vectors are ordered by ascending
    eigenvalue phase, and the leading amplitude 1/sqrt(d) already fixes
    each global phase real-positive.
    """
    if not _is_prime(d):
        raise DimensionError(f"eigenbasis construction requires prime dimension, got {d}")
    check_range("operator exponent l", l, 0, d, "[)", error=ValueError)

    # Eigenvalue phases are integer multiples of pi/d; keeping the exponents
    # as integers mod 2d makes the phase-ascending order exact.
    numerators = sorted((l * (d - 1) + 2 * m) % (2 * d) for m in range(d))
    j = np.arange(d)
    exponents = (l * j * (j - 1) - np.array(numerators)[:, None] * j) % (2 * d)
    phases = np.array([1.0 / math.sqrt(d) * cmath.exp(1j * cmath.pi * e / d) for e in range(2 * d)])
    return Basis(label=f"XZ^{l}", vectors=_kets(phases[exponents]))


def standard_basis(d: int) -> Basis:
    """The computational basis, which is also the eigenbasis of Z."""
    return Basis(label="Z", vectors=_kets(np.eye(d, dtype=np.complex128)))


# Dimension 4: the quadratic-phase bases of two qubits (Wootters and Fields,
# Ann. Phys. 191:363, 1989).  Vector b = 2 b1 + b2 of a row has amplitude
# i^(x.A x) (-1)^(b.x) / 2 at x = 2 x1 + x2, with A the row's symmetric
# binary matrix.  Each basis is the joint eigenbasis of the Pauli class its
# label names, and the row's order of b lists its vectors by the signs
# (+,+), (+,-), (-,+), (-,-) on those two Paulis.
_TWO_QUBIT_BASES: tuple[tuple[str, tuple, tuple[int, ...]], ...] = (
    ("XI,IX", ((0, 0), (0, 0)), (0, 1, 2, 3)),
    ("YI,IY", ((1, 0), (0, 1)), (0, 1, 2, 3)),
    ("XY,YZ", ((1, 1), (1, 0)), (1, 2, 0, 3)),
    ("YX,ZY", ((0, 1), (1, 1)), (2, 1, 0, 3)),
)

# i^k / 2 by k mod 4, spelled so that no real part is -0.0 (which would be
# saved as "-0"), and the bits (x1, x2) of x = 0 .. 3.
_HALF_I_POWERS = np.array([0.5, 0.5j, -0.5, complex(0.0, -0.5)])
_TWO_BITS = np.array([divmod(x, 2) for x in range(4)])


def _quadratic_phase_basis(label: str, a: tuple, order: tuple[int, ...]) -> Basis:
    quad = np.einsum("xi,ij,xj->x", _TWO_BITS, np.array(a), _TWO_BITS)
    powers = quad + 2 * (_TWO_BITS[list(order)] @ _TWO_BITS.T)  # [vector, x]
    amps = _HALF_I_POWERS[powers % 4]
    return Basis(label=label, vectors=_kets(amps))


def mub_set(d: int) -> MubSet:
    """Build the complete set of d+1 mutually unbiased bases.

    Prime dimensions use the standard basis plus the eigenbases of X Z^l;
    dimension 4 uses the standard basis plus four quadratic-phase bases.
    Other dimensions are rejected: no complete construction is wired up
    for them.
    """
    if d not in SUPPORTED_DIMENSIONS:
        raise DimensionError(
            f"unsupported dimension {d}; supported dimensions are {SUPPORTED_DIMENSIONS}"
        )
    if d == 4:
        bases = [Basis(label="ZI,IZ", vectors=standard_basis(4).vectors)]
        bases.extend(_quadratic_phase_basis(*row) for row in _TWO_QUBIT_BASES)
    else:
        bases = [standard_basis(d)]
        bases.extend(eigenbasis_xzl(d, l) for l in range(d))
    try:
        return MubSet(dim=d, bases=tuple(bases))
    except ValueError as exc:
        raise ConstructionError(f"built bases for d={d} failed validation: {exc}") from exc


# Text serialization: a "dim" line, then one record per basis holding its
# label and d rows of d "re,im" amplitude pairs at 17 significant digits.

def _format_amplitude(z: complex) -> str:
    return f"{z.real:.17g},{z.imag:.17g}"


def save_bases(mubs: MubSet, path) -> None:
    lines = [f"dim {mubs.dim}"]
    for basis in mubs.bases:
        lines.append(f"basis {basis.label}")
        for vec in basis.vectors:
            lines.append(" ".join(_format_amplitude(z) for z in vec.amplitudes))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_bases(path) -> MubSet:
    """Parse a basis file and validate the result as a complete set."""
    lines = list(_text_lines(path))
    if not lines:
        raise ParseError("unexpected end of basis file")
    d = _dim_line(*lines[0])
    if d < 2:
        raise ParseError(f"dimension {d} must be at least 2", lines[0][0])

    size = 1 + (d + 1) ** 2  # the dim line, then per basis a label line and d amplitude rows
    bases = []
    for k, (n, text) in enumerate(lines[1:size]):
        if k % (d + 1) == 0:
            if not text.startswith("basis "):
                raise ParseError(f"expected 'basis <label>', got {text!r}", n)
            bases.append((text[len("basis "):].strip(), []))
            continue
        tokens = text.split()
        if len(tokens) != d:
            raise ParseError(f"expected {d} amplitudes, got {len(tokens)}", n)
        amps = []
        for tok in tokens:
            try:
                re_s, im_s = tok.split(",")
                amps.append(complex(float(re_s), float(im_s)))
            except ValueError:
                raise ParseError(f"bad amplitude token {tok!r}", n) from None
        bases[-1][1].append(Ket(np.array(amps)))
    if len(lines) < size:
        raise ParseError("unexpected end of basis file")
    if len(lines) > size:
        raise ParseError("trailing content after final basis", lines[size][0])
    return MubSet(dim=d, bases=tuple(Basis(label=label, vectors=vecs) for label, vecs in bases))
