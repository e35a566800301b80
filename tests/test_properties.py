"""Property-based invariants over randomly drawn inputs, and the range rule of every bound."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubqkd.bases import Ket, eigenbasis_xzl, load_bases, mub_set, save_bases
from mubqkd.errors import ConfigError, check_range
from mubqkd.photonics import SourceParams
from mubqkd.protocol import (
    SIFT_DTYPE,
    ProtocolConfig,
    SiftedData,
    _RoundKernel,
    _run_chunked,
    default_basis_bias,
    estimate_parameters,
)
from mubqkd.security import (
    isotropic_joint_distribution,
    key_rate,
    mutual_information,
    q_max,
    shannon_entropy,
)
from mubqkd.states import (
    DensityOperator,
    JointProbMatrix,
    isotropic_state,
    visibility_for_qber,
)

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


NAN = float("nan")
_PM = {"dim": 2, "mode": "pm", "rounds": 10, "seed": 1}


def _config(**changes):
    return ProtocolConfig(**{**_PM, **changes})


def _bases_file_with_nan(tmp_path):
    """A saved d = 2 set with the first amplitude of its first vector set to nan."""
    path = tmp_path / "bases.txt"
    save_bases(mub_set(2), path)
    lines = path.read_text().splitlines()
    lines[2] = "nan,0" + lines[2][lines[2].index(" "):]
    path.write_text("\n".join(lines) + "\n")
    return path


def _state_with_nan():
    """The maximally mixed d = 2 state with one NaN above the diagonal.

    eigvalsh reads the lower triangle only, so no eigenvalue shows it.
    """
    m = np.eye(4, dtype=complex) / 4
    m[0, 3] = NAN
    return m


# One NaN per range-checked input: each must raise a ValueError subclass,
# not pass through to a number, an eigensolver error or a session.
_NAN_CASES = {
    "default_basis_bias": lambda tmp: default_basis_bias(3, NAN),
    "ProtocolConfig.dim": lambda tmp: _config(dim=NAN),
    "ProtocolConfig.rounds": lambda tmp: _config(rounds=NAN),
    "ProtocolConfig.seed": lambda tmp: _config(seed=NAN),
    "ProtocolConfig.visibility": lambda tmp: _config(visibility=NAN),
    "ProtocolConfig.flip_prob": lambda tmp: _config(flip_prob=NAN),
    "estimate_parameters.fraction": lambda tmp: estimate_parameters(
        SiftedData(2, np.zeros(4, dtype=SIFT_DTYPE)), NAN, np.random.default_rng(0)
    ),
    "_run_chunked.workers": lambda tmp: _run_chunked(
        _config(), _RoundKernel(_config(), mub_set(2)), NAN, False, lambda chunk, rounds, cat: None
    ),
    "SourceParams.pulses": lambda tmp: SourceParams(pulses=NAN, alpha_sq=0.1, chi=0.5),
    "SourceParams.alpha_sq": lambda tmp: SourceParams(pulses=10, alpha_sq=NAN, chi=0.5),
    "SourceParams.chi": lambda tmp: SourceParams(pulses=10, alpha_sq=0.1, chi=NAN),
    "isotropic_joint_distribution.d": lambda tmp: isotropic_joint_distribution(NAN, 0.1),
    "isotropic_joint_distribution.q": lambda tmp: isotropic_joint_distribution(3, NAN),
    "key_rate.d": lambda tmp: key_rate(NAN, 0.1),
    "key_rate.q": lambda tmp: key_rate(3, NAN),
    "q_max.d": lambda tmp: q_max(NAN),
    "q_max.tol": lambda tmp: q_max(3, NAN),
    "isotropic_state.d": lambda tmp: isotropic_state(NAN, 1.0),
    "isotropic_state": lambda tmp: isotropic_state(3, NAN),
    "visibility_for_qber.d": lambda tmp: visibility_for_qber(NAN, 0.1),
    "visibility_for_qber.q": lambda tmp: visibility_for_qber(3, NAN),
    "eigenbasis_xzl.l": lambda tmp: eigenbasis_xzl(3, NAN),
    "Ket": lambda tmp: Ket(np.array([NAN, 1.0])),
    "DensityOperator": lambda tmp: DensityOperator(_state_with_nan(), dim=2),
    "JointProbMatrix": lambda tmp: JointProbMatrix(
        dim=2, probs=np.full((3, 2, 3, 2), NAN), block_available=np.ones((3, 3), dtype=bool)
    ),
    "load_bases": lambda tmp: load_bases(_bases_file_with_nan(tmp)),
}


@pytest.mark.parametrize("call", _NAN_CASES.values(), ids=_NAN_CASES.keys())
def test_nan_inputs_fail_closed(tmp_path, call):
    with pytest.raises(ValueError):
        call(tmp_path)


_ENDPOINTS = [-math.inf, -1, 0, 0.5, 1, 2**64, math.inf]
_VALUES = _ENDPOINTS + [-2, 0.25, 1.5, 2**64 - 1, 10**400, -(10**400), math.nan]


@pytest.mark.parametrize("ends", ["[]", "[)", "(]", "()"])
def test_check_range_matches_interval_oracle(ends):
    # Only finite values inside the bracketed interval pass; NaN and +-inf never do.
    for lo, hi, value in itertools.product(_ENDPOINTS, _ENDPOINTS, _VALUES):
        above = lo < value if ends[0] == "(" else lo <= value
        below = value < hi if ends[1] == ")" else value <= hi
        if above and below and -math.inf < value < math.inf:
            assert check_range("x", value, lo, hi, ends) is value
        else:
            with pytest.raises(ConfigError, match=r"^x must lie in [\[(].*, got "):
                check_range("x", value, lo, hi, ends)


def test_check_range_prints_a_narrow_interval_in_full():
    # Bounds that look alike at six digits are printed at 17, so the
    # interval does not read as the single point 1.
    with pytest.raises(ConfigError) as err:
        check_range("sum", 1.2, 1 - 1e-12, 1 + 1e-12)
    assert str(err.value) == "sum must lie in [0.99999999999900002, 1.0000000000010001], got 1.2"
    with pytest.raises(ConfigError) as err:
        check_range("round count", -5, 1)
    assert str(err.value) == "round count must lie in [1, inf), got -5"
