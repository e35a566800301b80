"""Tests for basis construction, unbiasedness checks, and file round-trips."""

import cmath
import math

import numpy as np
import pytest

from mubqkd.bases import (
    _TWO_QUBIT_BASES,
    Basis,
    Ket,
    MubSet,
    SUPPORTED_DIMENSIONS,
    eigenbasis_xzl,
    mub_set,
    load_bases,
    save_bases,
    standard_basis,
    unbiasedness_report,
)
from mubqkd.errors import ConstructionError, DimensionError, ParseError

OMEGA3 = np.exp(2j * np.pi / 3)

# Published reference matrices for d=3, columns as basis vectors.
D3_REFERENCE = [
    np.array(
        [[1, 1, 1], [1, OMEGA3, OMEGA3**2], [1, OMEGA3**2, OMEGA3]]
    )
    / np.sqrt(3),
    np.array([[1, 1, OMEGA3], [1, OMEGA3, 1], [OMEGA3, 1, 1]]) / np.sqrt(3),
    np.array(
        [[1, 1, OMEGA3**2], [1, OMEGA3**2, 1], [OMEGA3**2, 1, 1]]
    )
    / np.sqrt(3),
]


def weyl_z(d):
    """Generalized phase operator: Z|i> = w^i |i> with w = exp(2 pi i / d)."""
    return np.diag(np.exp(2j * np.pi * np.arange(d) / d))


def weyl_x(d):
    """Generalized shift operator: X|i> = |i+1 mod d>."""
    return np.roll(np.eye(d), 1, axis=0)


PAULI = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}


def test_weyl_operators_small():
    z = weyl_z(2)
    x = weyl_x(2)
    assert np.allclose(z, np.diag([1, -1]))
    assert np.allclose(x, np.array([[0, 1], [1, 0]]))
    z3 = weyl_z(3)
    assert np.allclose(np.diag(z3), [1, OMEGA3, OMEGA3**2])
    x3 = weyl_x(3)
    e0 = np.zeros(3)
    e0[0] = 1
    assert np.allclose(x3 @ e0, [0, 1, 0])


def test_weyl_commutation_relation():
    for d in (2, 3, 5):
        x, z = weyl_x(d), weyl_z(d)
        omega = np.exp(2j * np.pi / d)
        assert np.allclose(z @ x, omega * (x @ z))


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_complete_set_is_unbiased(d):
    mubs = mub_set(d)
    assert len(mubs.bases) == d + 1
    report = unbiasedness_report(mubs)
    assert report.max_unbiased_deviation < 1e-10
    assert report.max_orthonormality_defect < 1e-12


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_every_vector_normalized(d):
    mubs = mub_set(d)
    for basis in mubs.bases:
        for ket in basis.vectors:
            assert abs(np.linalg.norm(ket.amplitudes) - 1) < 1e-13


def test_standard_basis_is_identity_columns():
    basis = standard_basis(4)
    assert basis.label == "Z"
    mat = np.column_stack([k.amplitudes for k in basis.vectors])
    assert np.allclose(mat, np.eye(4))


def test_d2_first_shift_eigenbasis_matches_reference():
    # X eigenvectors: (1, 1)/sqrt(2) and (1, -1)/sqrt(2).
    basis = eigenbasis_xzl(2, 0)
    mat = np.abs(np.column_stack([k.amplitudes for k in basis.vectors]))
    assert np.allclose(mat, np.full((2, 2), 1 / np.sqrt(2)), atol=1e-12)


def test_d2_xz_eigenbasis_matches_reference():
    # XZ (= -i sigma_y) eigenvectors: (1, -i)/sqrt(2), (1, i)/sqrt(2).
    basis = eigenbasis_xzl(2, 1)
    got = np.column_stack([k.amplitudes for k in basis.vectors])
    want = np.array([[1, 1], [-1j, 1j]]) / np.sqrt(2)
    assert np.allclose(got, want, atol=1e-12)


def test_d3_matches_published_matrices():
    mubs = mub_set(3)
    generated = [
        np.column_stack([k.amplitudes for k in basis.vectors])
        for basis in mubs.bases[1:]
    ]
    matched = set()
    for ref in D3_REFERENCE:
        hit = None
        for gi, gen in enumerate(generated):
            if gi in matched:
                continue
            gram = np.abs(ref.conj().T @ gen)
            # Permutation-with-phase equivalence: the modulus Gram matrix
            # must be a permutation matrix.
            ok = (
                np.allclose(np.sort(gram, axis=0)[-1], 1, atol=1e-10)
                and np.allclose(gram.sum(axis=0), 1, atol=1e-9)
                and np.allclose(gram.sum(axis=1), 1, atol=1e-9)
            )
            if ok:
                hit = gi
                break
        assert hit is not None, "published matrix has no generated partner"
        matched.add(hit)
    assert len(matched) == 3


def test_eigenbasis_actually_diagonalizes_operator():
    for d in (2, 3, 5, 7):
        x, z = weyl_x(d), weyl_z(d)
        for l in range(d):
            op = x @ np.linalg.matrix_power(z, l)
            basis = eigenbasis_xzl(d, l)
            for ket in basis.vectors:
                v = ket.amplitudes
                image = op @ v
                lam = np.vdot(v, image)
                assert abs(np.linalg.norm(image - lam * v)) < 1e-10
                assert abs(abs(lam) - 1) < 1e-12


def test_construction_deterministic():
    a = mub_set(5)
    b = mub_set(5)
    for ba, bb in zip(a.bases, b.bases):
        for ka, kb in zip(ba.vectors, bb.vectors):
            assert np.array_equal(ka.amplitudes, kb.amplitudes)


def test_d4_uses_two_qubit_structure():
    mubs = mub_set(4)
    assert len(mubs.bases) == 5
    report = unbiasedness_report(mubs)
    assert report.max_unbiased_deviation < 1e-10
    # First basis is the standard basis.
    mat = np.column_stack([k.amplitudes for k in mubs.bases[0].vectors])
    assert np.allclose(mat, np.eye(4))
    # Vector k of basis "g1,g2" is the joint eigenvector of the two Paulis
    # at the k-th sign pair, with its first nonzero amplitude real-positive.
    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    for basis in mubs.bases:
        ops = [np.kron(PAULI[g[0]], PAULI[g[1]]) for g in basis.label.split(",")]
        for ket, pair in zip(basis.vectors, signs):
            v = ket.amplitudes
            for op, sign in zip(ops, pair):
                assert np.linalg.norm(op @ v - sign * v) < 1e-12
            lead = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
            assert lead.imag == 0 and lead.real > 0


@pytest.mark.parametrize("d", [1, 6, 8, 9, 10, 12])
def test_unsupported_dimension_rejected(d):
    with pytest.raises(DimensionError):
        mub_set(d)


def test_ket_validation():
    with pytest.raises(ValueError):
        Ket(np.array([1.0, 1.0]))  # not normalized
    k = Ket(np.array([1.0, 0.0]))
    assert k.dim == 2
    with pytest.raises(ValueError):
        k.amplitudes[0] = 5  # frozen buffer


def _xzl_per_vector(d, l):
    """Eigenbasis of X Z^l, one vector and one cmath amplitude at a time."""
    numerators = sorted((l * (d - 1) + 2 * m) % (2 * d) for m in range(d))
    scale = 1.0 / math.sqrt(d)
    return [
        [scale * cmath.exp(1j * cmath.pi * ((l * j * (j - 1) - numer * j) % (2 * d)) / d)
         for j in range(d)]
        for numer in numerators
    ]


# i^k / 2 by k mod 4; complex(0.0, -0.5), not -0.5j, whose real part is -0.0.
_HALF_I = (complex(0.5, 0.0), complex(0.0, 0.5), complex(-0.5, 0.0), complex(0.0, -0.5))


def _quadratic_phase_table(a, order):
    """Vector b = 2 b1 + b2 has i^(x.A x) (-1)^(b.x) / 2 at x = 2 x1 + x2, one amplitude at a time."""
    rows = []
    for b in order:
        b1, b2 = divmod(b, 2)
        row = []
        for x in range(4):
            bits = divmod(x, 2)
            quad = sum(a[i][j] * bits[i] * bits[j] for i in range(2) for j in range(2))
            row.append(_HALF_I[(quad + 2 * (b1 * bits[0] + b2 * bits[1])) % 4])
        rows.append(row)
    return rows


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_stack_matches_per_vector_formulas_byte_for_byte(d):
    # Each basis is built as one array; every amplitude keeps the bytes of
    # its closed formula evaluated on its own.
    if d == 4:
        bases = [_quadratic_phase_table(a, order) for _, a, order in _TWO_QUBIT_BASES]
    else:
        bases = [_xzl_per_vector(d, l) for l in range(d)]
    want = np.array([np.eye(d).tolist()] + bases, dtype=np.complex128)
    assert mub_set(d)._stack.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_package_built_kets_are_read_only(d):
    built = [standard_basis(d)] + ([eigenbasis_xzl(d, 1)] if d != 4 else [])
    for basis in list(mub_set(d).bases) + built:
        for ket in basis.vectors:
            assert not ket.amplitudes.flags.writeable
            with pytest.raises(ValueError):
                ket.amplitudes[0] = 0.0


def test_basis_orthonormality_enforced(tmp_path):
    # A repeated vector still overlaps the other two bases by 1/2 each, so
    # only the set's orthonormality check can catch it.
    v = np.array([1.0, 0.0])
    b = mub_set(2).bases
    bases = (Basis(label="bad", vectors=(Ket(v), Ket(v))), b[1], b[2])
    with pytest.raises(ValueError, match="not orthonormal"):
        MubSet(dim=2, bases=bases)
    path = tmp_path / "bases.txt"
    save_bases(MubSet(dim=2, bases=bases, check=False), path)
    with pytest.raises(ValueError, match="not orthonormal"):
        load_bases(path)


def test_mubset_unbiasedness_enforced():
    # Two copies of the standard basis are maximally biased.
    b = standard_basis(2)
    with pytest.raises(ValueError):
        MubSet(dim=2, bases=(b, b, b))


def test_unbiasedness_report_matches_pairwise_loop_on_repeated_basis():
    b = mub_set(3).bases
    eye = np.eye(3)
    skew = Basis(
        label="skew",
        vectors=(Ket(eye[0]), Ket((eye[0] + eye[1]) / np.sqrt(2)), Ket(eye[2])),
    )
    mubs = MubSet(dim=3, bases=(b[0], b[1], b[1], skew), check=False)
    mats = [np.column_stack([k.amplitudes for k in basis.vectors]) for basis in mubs.bases]
    max_dev = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            overlaps = np.abs(mats[i].conj().T @ mats[j]) ** 2
            max_dev = max(max_dev, float(np.max(np.abs(overlaps - 1 / 3))))
    max_defect = max(float(np.max(np.abs(m.conj().T @ m - np.eye(3)))) for m in mats)
    report = unbiasedness_report(mubs)
    assert max_dev == pytest.approx(2 / 3, abs=1e-12)
    assert max_defect == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert abs(report.max_unbiased_deviation - max_dev) < 1e-15
    assert abs(report.max_orthonormality_defect - max_defect) < 1e-15


def test_orthonormality_defect_zero_for_good_basis():
    mubs = MubSet(dim=3, bases=(standard_basis(3),) * 4, check=False)
    assert unbiasedness_report(mubs).max_orthonormality_defect < 1e-15


def test_save_load_roundtrip(tmp_path):
    for d in (2, 3, 4):
        mubs = mub_set(d)
        path = tmp_path / f"bases{d}.txt"
        save_bases(mubs, path)
        loaded = load_bases(path)
        assert loaded.dim == d
        for ba, bb in zip(mubs.bases, loaded.bases):
            assert ba.label == bb.label
            for ka, kb in zip(ba.vectors, bb.vectors):
                assert np.allclose(ka.amplitudes, kb.amplitudes, atol=0)


def test_load_rejects_garbage_with_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("dim 2\nbasis Z\n1,0 0,0\nnot-a-row\n")
    with pytest.raises(ParseError) as err:
        load_bases(path)
    assert "line" in str(err.value)


@pytest.mark.parametrize("dim", ["-1", "0", "1"])
def test_load_rejects_dimension_below_two(tmp_path, dim):
    path = tmp_path / "bad.txt"
    path.write_text(f"\ndim {dim}\n")
    with pytest.raises(ParseError, match=f"^line 2: dimension {dim} must be at least 2$"):
        load_bases(path)


@pytest.mark.parametrize("sep", ["\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"])
def test_load_line_numbers_count_physical_lines(tmp_path, sep):
    # Only \n, \r and \r\n end a line; other Unicode separators are whitespace.
    path = tmp_path / "bad.txt"
    path.write_text(f"{sep}dim 1\n", encoding="utf-8")
    with pytest.raises(ParseError, match="^line 1: dimension 1 must be at least 2$"):
        load_bases(path)


@pytest.mark.parametrize("text", ["", "# no data\n\n", "dim 2\nbasis Z\n1,0 0,0\n"])
def test_load_reports_end_of_file_without_a_line(tmp_path, text):
    path = tmp_path / "short.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match="^unexpected end of basis file$") as err:
        load_bases(path)
    assert err.value.line is None


def test_load_rejects_trailing_content(tmp_path):
    mubs = mub_set(2)
    path = tmp_path / "bases.txt"
    save_bases(mubs, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("extra junk\n")
    with pytest.raises(ParseError):
        load_bases(path)


def test_construction_speed():
    import time

    start = time.perf_counter()
    for d in SUPPORTED_DIMENSIONS:
        mub_set(d)
    assert time.perf_counter() - start < 1.0
