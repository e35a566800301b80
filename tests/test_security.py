"""Tests for entropies, key rates, error-rate ceilings, and the report chain."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mubqkd.bases import mub_set
from mubqkd.counts import CountMatrix
from mubqkd.errors import CountDataError, DimensionError, NumericError
from mubqkd.photonics import SourceParams
from mubqkd.protocol import ProtocolConfig, _RoundKernel, _run_chunked, expected_count_matrix
from mubqkd.security import (
    analyze_counts,
    average_qber,
    empirical_qber,
    isotropic_joint_distribution,
    joint_distribution_from_counts,
    key_rate,
    mutual_information,
    q_max,
    report_csv_rows,
    shannon_entropy,
)
from mubqkd.states import isotropic_state, joint_prob_matrix

# Frozen reference values, computed independently from the closed forms
# r(d, Q) = log2 d + t log2(Q / (d (d-1))) + (1 - t) log2(1 - t) with
# t = (d+1) Q / d, and I(A:B) of the matching diagonal-plus-floor joint
# distribution via direct entropy sums.
KEY_RATE_REFERENCE = {
    (2, 0.016): 0.79861535679929,
    (3, 0.040): 1.1245710833563745,
    (4, 0.088): 1.0703260763185352,
    (5, 0.140): 0.8985452826243413,
}
MUTUAL_INFO_REFERENCE = {
    (2, 0.016): 0.881649988591725,
    (3, 0.040): 1.3026703116387415,
    (4, 0.088): 1.430764690632778,
    (5, 0.140): 1.4576892832445063,
}
def _qber_per_basis(rho, basis):
    """Error rate of one basis: tr[(P_k* x P_m) rho] summed over k != m, cell by cell."""
    want = 0.0
    for k, a in enumerate(basis.vectors):
        for m, b in enumerate(basis.vectors):
            if m != k:
                ab = np.kron(np.conj(a.amplitudes), b.amplitudes)
                want += max(np.vdot(ab, rho.matrix @ ab).real, 0.0)
    return want


def _block_qber(jm, basis):
    """Off-diagonal sum of one same-basis block of a JointProbMatrix."""
    return float(np.sum(jm.block(basis, basis), where=~np.eye(jm.dim, dtype=bool)))


Q_MAX_REFERENCE = {
    2: 0.126193,
    3: 0.191391,
    4: 0.231735,
    5: 0.259411,
    7: 0.295316,
}


def _dict_entropies(joint):
    """H(A), H(B), H(A,B) with the marginals summed cell by cell into dicts."""
    marginals = ({}, {})
    for (a, b), p in np.ndenumerate(joint):
        for acc, key in zip(marginals, (a, b)):
            acc[key] = acc.get(key, 0.0) + float(p)

    def entropy(values):
        return -sum(p * math.log2(p) for p in values if p > 0)

    return (*(entropy(m.values()) for m in marginals), entropy(np.ravel(joint)))


def test_distribution_validation():
    with pytest.raises(ValueError):
        shannon_entropy(np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        shannon_entropy(np.array([1.2, -0.2]))
    with pytest.raises(ValueError):
        shannon_entropy(np.array([]))
    with pytest.raises(ValueError):
        mutual_information(np.full((2, 2, 2), 0.125))


def test_shannon_entropy_known_values():
    assert shannon_entropy(np.full(4, 0.25)) == pytest.approx(2.0)
    assert shannon_entropy(np.array([1.0, 0.0])) == 0.0
    want = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert shannon_entropy(np.array([0.25, 0.75])) == pytest.approx(want, abs=1e-15)
    assert shannon_entropy(np.full((2, 2), 0.25)) == pytest.approx(2.0)


def test_mutual_information_independent_and_perfect():
    assert mutual_information(np.full((2, 2), 0.25)) == pytest.approx(0.0, abs=1e-12)
    assert mutual_information(np.eye(2) / 2) == pytest.approx(1.0)
    assert mutual_information(np.eye(4) / 4) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        mutual_information(np.array([0.5, 0.5]))


def test_isotropic_joint_distribution_structure():
    d, q = 3, 0.06
    joint = isotropic_joint_distribution(d, q)
    assert joint.shape == (d, d)
    for a in range(d):
        for b in range(d):
            want = (1 - q) / d if a == b else q / (d * (d - 1))
            assert joint[a, b] == pytest.approx(want, abs=1e-15)
    with pytest.raises(ValueError):
        isotropic_joint_distribution(2, 0.6)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 10])
def test_entropies_match_dict_marginal_loop(d):
    rng = np.random.default_rng(d)
    for joint in (isotropic_joint_distribution(d, 0.3 * (d - 1) / d),
                  rng.dirichlet(np.ones(d * d)).reshape(d, d)):  # fmt: skip
        h_a, h_b, h_ab = _dict_entropies(joint)
        assert shannon_entropy(joint.sum(axis=1)) == pytest.approx(h_a, abs=1e-12)
        assert shannon_entropy(joint.sum(axis=0)) == pytest.approx(h_b, abs=1e-12)
        assert shannon_entropy(joint) == pytest.approx(h_ab, abs=1e-12)
        assert mutual_information(joint) == pytest.approx(h_a + h_b - h_ab, abs=1e-12)


@pytest.mark.parametrize("d_q", sorted(MUTUAL_INFO_REFERENCE))
def test_mutual_information_reference_values(d_q):
    d, q = d_q
    mi = mutual_information(isotropic_joint_distribution(d, q))
    assert mi == pytest.approx(MUTUAL_INFO_REFERENCE[d_q], abs=1e-12)


def test_qber_of_isotropic_state_matches_closed_form():
    for d, v in [(2, 0.9), (3, 0.7)]:
        mubs = mub_set(d)
        rho = isotropic_state(d, v)
        want = (1 - v) * (d - 1) / d
        jm = joint_prob_matrix(rho, mubs)
        for i in range(mubs.n_bases):
            assert _block_qber(jm, i) == pytest.approx(want, abs=1e-12)
        assert average_qber(rho, mubs) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_qber_per_basis_matches_kron_loop(d, random_state):
    rho = random_state(d)
    mubs = mub_set(d)
    jm = joint_prob_matrix(rho, mubs)
    for i, basis in enumerate(mubs.bases):
        assert abs(_block_qber(jm, i) - _qber_per_basis(rho, basis)) < 1e-14


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_average_qber_matches_per_basis_mean(d, random_state):
    rho = random_state(d)
    mubs = mub_set(d)
    want = np.mean([_qber_per_basis(rho, basis) for basis in mubs.bases])
    assert abs(average_qber(rho, mubs) - want) < 1e-15


def test_qber_per_basis_rejects_dimension_mismatch():
    with pytest.raises(DimensionError):
        joint_prob_matrix(isotropic_state(3, 0.9), mub_set(2))


def test_key_rate_zero_error_is_log2_d():
    for d in (2, 3, 4, 5, 7):
        assert abs(key_rate(d, 0.0) - math.log2(d)) < 1e-12


@pytest.mark.parametrize("d_q", sorted(KEY_RATE_REFERENCE))
def test_key_rate_reference_values(d_q):
    d, q = d_q
    assert key_rate(d, q) == pytest.approx(KEY_RATE_REFERENCE[d_q], abs=1e-12)


def test_key_rate_domain():
    with pytest.raises(ValueError):
        key_rate(2, -0.01)
    with pytest.raises(ValueError):
        key_rate(2, 0.7)  # t >= 1
    with pytest.raises(Exception):
        key_rate(1, 0.0)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_key_rate_of_numpy_scalar_is_the_float_bit_for_bit(d):
    for q in np.linspace(0.0, q_max(d), 200):
        got, want = key_rate(d, q), key_rate(d, float(q))
        assert type(got) is float and type(want) is float
        assert got.hex() == want.hex()


def test_key_rate_of_float32_is_double_precision():
    q = np.float32(0.05)
    got = key_rate(3, q)
    assert type(got) is float
    assert got.hex() == key_rate(3, float(q)).hex()
    assert got != float(np.float32(got))  # not rounded to single precision


@pytest.mark.parametrize(
    "call",
    [
        lambda: key_rate(2.5, 0.1),
        lambda: key_rate(3.0, 0.1),
        lambda: q_max(2.5),
        lambda: isotropic_joint_distribution(2.5, 0.1),
    ],
    ids=["key_rate", "key_rate.float", "q_max", "isotropic_joint_distribution"],
)
def test_analytic_calls_reject_non_integer_dimension(call):
    with pytest.raises(DimensionError, match="^dimension must be an integer, got "):
        call()


def test_analytic_calls_take_numpy_integers_and_keep_range_messages():
    d = np.int64(3)
    assert key_rate(d, 0.05).hex() == key_rate(3, 0.05).hex()
    assert q_max(d) == q_max(3)
    assert np.array_equal(isotropic_joint_distribution(d, 0.1), isotropic_joint_distribution(3, 0.1))
    for call in (lambda: key_rate(1, 0.1), lambda: q_max(1), lambda: isotropic_joint_distribution(1, 0.1)):
        with pytest.raises(DimensionError, match=r"^dimension must lie in \[2, inf\), got 1$"):
            call()


def test_key_rate_monotone_decreasing_in_q():
    qs = np.linspace(0, 0.12, 40)
    rates = [key_rate(2, q) for q in qs]
    assert all(a > b for a, b in zip(rates, rates[1:]))


@pytest.mark.parametrize("d", sorted(Q_MAX_REFERENCE))
def test_q_max_reference_and_root_property(d):
    root = q_max(d, 1e-10)
    assert root == pytest.approx(Q_MAX_REFERENCE[d], abs=2e-6)
    assert abs(key_rate(d, root)) < 1e-9


def test_q_max_strictly_increasing():
    values = [q_max(d) for d in (2, 3, 4, 5)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_q_max_matches_fine_grid_scan():
    # Independent bracket: the coarsest q with positive rate and the next
    # grid point with negative rate at step 1e-5.
    step = 1e-5
    q = 0.126
    while key_rate(2, q) > 0:
        q += step
    assert q - step <= q_max(2, 1e-10) <= q
    assert 0.125 < q_max(2) < 0.127


@pytest.mark.parametrize("d", range(2, 11))
def test_q_max_equals_bisection_over_public_key_rate(d):
    # The same bisection over the public, range-checked key_rate.
    lo, hi = 0.0, (d - 1) / d
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = key_rate(d, mid)
        if abs(f_mid) < 1e-10:
            break
        lo, hi = (mid, hi) if f_mid > 0 else (lo, mid)
    assert q_max(d) == mid


def test_q_max_tolerance_validation():
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError):
            q_max(2, tol=tol)


def _holevo_gap(i_ab, r_min):
    return i_ab - r_min


def test_holevo_gap_not_clipped():
    assert _holevo_gap(0.8, 1.0) == pytest.approx(-0.2)
    assert _holevo_gap(1.5, 1.0) == pytest.approx(0.5)
    # The report keeps a negative gap: at zero error the rate is log2 d, but a
    # lopsided marginal holds I(A:B) far below it.
    counts = _counts_from_blocks(2, diag=950.0, off=0.0)
    cc = counts.coincidences.copy()
    for basis in range(3):
        cc[basis, 1, basis, 1] = 10.0
    lopsided = analyze_counts(replace(counts, coincidences=cc))
    assert lopsided.qber == 0.0 and lopsided.rate == 1.0
    assert lopsided.gap == _holevo_gap(lopsided.i_ab, lopsided.rate) < -0.5
    noisy = analyze_counts(_counts_from_blocks(2, diag=950.0, off=50.0))
    assert noisy.gap == _holevo_gap(noisy.i_ab, noisy.rate) > 0


def _counts_from_blocks(d, diag, off):
    n = d + 1
    sa = np.full((n, d, n, d), 1000.0)
    sb = np.full((n, d, n, d), 1000.0)
    cc = np.zeros((n, d, n, d))
    for basis in range(n):
        for a in range(d):
            for b in range(d):
                cc[basis, a, basis, b] = diag if a == b else off
    cc[0, :, 1, :] = 50.0  # some cross-basis data too
    return CountMatrix(dim=d, singles_a=sa, singles_b=sb, coincidences=cc)


def test_empirical_qber_from_counts():
    counts = _counts_from_blocks(2, diag=950.0, off=50.0)
    per_basis, avg = empirical_qber(counts)
    want = 100.0 / 2000.0
    assert per_basis == [pytest.approx(want)] * 3
    assert avg == pytest.approx(want)


def test_empirical_qber_warns_on_empty_basis():
    counts = _counts_from_blocks(2, diag=950.0, off=50.0)
    cc = counts.coincidences.copy()
    cc[2, :, 2, :] = 0.0
    counts = CountMatrix(
        dim=2, singles_a=counts.singles_a, singles_b=counts.singles_b, coincidences=cc
    )
    with pytest.warns(UserWarning):
        per_basis, avg = empirical_qber(counts)
    assert per_basis[2] is None
    assert avg == pytest.approx(0.05)


def test_empirical_qber_requires_data():
    n, d = 3, 2
    zeros = np.zeros((n, d, n, d))
    counts = CountMatrix(
        dim=d, singles_a=zeros, singles_b=zeros, coincidences=zeros
    )
    with pytest.raises(CountDataError):
        empirical_qber(counts)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_noiseless_exact_counts_analyze_at_zero_error(d):
    # The trace of an expectation-valued block can round above its total.
    cfg = ProtocolConfig(dim=d, mode="pm", rounds=200_000, seed=3)
    counts = expected_count_matrix(cfg, mub_set(d))
    per_basis, avg = empirical_qber(counts)
    assert min(per_basis) >= 0.0 and avg < 1e-12
    assert analyze_counts(counts).qber == avg


def test_joint_distribution_from_counts_pools_bases():
    counts = _counts_from_blocks(2, diag=950.0, off=50.0)
    joint = joint_distribution_from_counts(counts)
    assert joint.shape == (2, 2)
    assert joint[0, 0] == pytest.approx(950 * 3 / 6000)
    assert joint[0, 1] == pytest.approx(50 * 3 / 6000)


def test_analyze_counts_end_to_end():
    counts = _counts_from_blocks(2, diag=950.0, off=50.0)
    report = analyze_counts(counts)
    assert report.dim == 2
    assert report.qber == pytest.approx(0.05)
    assert report.rate == pytest.approx(key_rate(2, 0.05))
    assert report.qber_ceiling == pytest.approx(q_max(2), abs=1e-9)
    assert report.i_ab == pytest.approx(
        mutual_information(joint_distribution_from_counts(counts))
    )
    assert report.gap == pytest.approx(report.i_ab - report.rate)
    assert not report.gap_suspect
    text = report.to_text()
    assert "0.050000" in text
    assert "warning" not in text


def test_report_text_flags_inconsistency():
    # High error rate but artificially perfect joint correlations cannot
    # happen physically; the report should call it out.
    counts = _counts_from_blocks(2, diag=500.0, off=0.0)
    report = analyze_counts(counts)
    assert report.qber == 0.0
    assert report.gap >= 0.0
    # Force the suspect branch directly.
    from dataclasses import replace

    bad = replace(report, gap=-0.1)
    assert bad.gap_suspect
    assert "warning" in bad.to_text()


@pytest.mark.filterwarnings("ignore:bases .* have no same-basis coincidences")
@pytest.mark.parametrize("mode, rounds", [("pm", 20_000), ("eb", 400_000)])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_noiseless_sampled_runs_raise_no_gap_warning(mode, rounds, d):
    # At Q = 0 the plug-in H(A) of a finite sample sits below log2 d, so the
    # bound is slightly negative; that alone must not read as inconsistent.
    mubs = mub_set(d)
    source = SourceParams(pulses=rounds, alpha_sq=0.1, chi=0.5) if mode == "eb" else None
    for seed in range(20):
        cfg = ProtocolConfig(dim=d, mode=mode, rounds=rounds, seed=seed, source=source)
        report = analyze_counts(_run_chunked(cfg, _RoundKernel(cfg, mubs), 1, False, None))
        assert report.qber == 0.0
        assert not report.gap_suspect
        assert "warning" not in report.to_text()


def test_report_text_flags_uncorrelated_outcomes():
    # Every coincidence on element 0: Q = 0, so the rate is log2 d, but I = 0.
    co = np.zeros((4, 3, 4, 3))
    co[:, 0, :, 0] = 1000.0
    counts = CountMatrix(dim=3, singles_a=co, singles_b=co, coincidences=co)
    report = analyze_counts(counts)
    assert report.qber == 0.0
    assert report.i_ab == 0.0
    assert report.gap_suspect
    assert "warning: negative eavesdropper bound" in report.to_text()


def test_report_csv_rows_format():
    counts = _counts_from_blocks(2, diag=950.0, off=50.0)
    report = analyze_counts(counts)
    text = report_csv_rows([report])
    lines = text.strip().split("\n")
    assert lines[0] == "d,Q,Q_max,r_min,I_AB,holevo_gap"
    fields = lines[1].split(",")
    assert int(fields[0]) == 2
    assert float(fields[1]) == pytest.approx(0.05)


def test_q_max_single_crossing_guard():
    # The guard trips only on pathological rate functions; the supported
    # dimensions all have exactly one crossing, so this exercises the
    # normal path and the error type's availability.
    for d in (2, 3, 4, 5):
        q_max(d)
    assert issubclass(NumericError, ArithmeticError)
