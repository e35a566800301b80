"""Tests for the down-conversion source model and efficiency estimation."""

import re

import numpy as np
import pytest

from mubqkd.counts import CountMatrix
from mubqkd.errors import ConfigError, CountDataError, DimensionError, ParseError
from mubqkd.photonics import (
    EfficiencyTable,
    SourceParams,
    _partners,
    efficiency_uniformity,
    estimate_efficiency,
    expected_coincidences,
    expected_singles,
    load_efficiency_table,
    pair_routing_probs,
    save_efficiency_table,
    synthesize_conjugate_records,
)

# Measured per-vector efficiencies for a d=2 run, arm A and arm B,
# rows ordered standard basis, first superposition basis, second.
ETA_A = np.array([[0.01504, 0.01517], [0.00536, 0.00503], [0.00508, 0.00556]])
ETA_B = np.array([[0.02145, 0.02106], [0.00886, 0.00727], [0.00787, 0.00874]])


def reference_table():
    return EfficiencyTable(dim=2, eta_a=ETA_A.copy(), eta_b=ETA_B.copy())


def counts_with(cells, dim=2, fill=0.0, exact=False):
    """A CountMatrix holding {(basis_a, elem_a, basis_b, elem_b): (s_a, s_b, c)}, else fill."""
    n_b = dim + 1
    grids = np.full((3, n_b, dim, n_b, dim), fill)
    for cell, tally in cells.items():
        grids[(slice(None), *cell)] = tally
    return CountMatrix(dim, *grids, exact=exact)


def test_source_params_validation():
    SourceParams(pulses=10, alpha_sq=0.1, chi=0.5)
    with pytest.raises(ConfigError):
        SourceParams(pulses=-1, alpha_sq=0.1, chi=0.5)
    with pytest.raises(ConfigError):
        SourceParams(pulses=10, alpha_sq=0.0, chi=0.5)
    with pytest.raises(ConfigError):
        SourceParams(pulses=10, alpha_sq=1.0, chi=0.2)  # leaves perturbative regime
    for alpha_sq, chi in [(np.nan, 0.5), (0.1, np.nan), (np.inf, 0.5), (-np.inf, 0.5)]:
        with pytest.raises(ConfigError):
            SourceParams(pulses=10, alpha_sq=alpha_sq, chi=chi)


def test_pair_prob():
    p = SourceParams(pulses=10, alpha_sq=0.1, chi=0.5)
    assert p.pair_prob == 0.05


def test_routing_probabilities():
    r = pair_routing_probs()
    assert (r.ab, r.aa, r.bb) == (0.5, 0.25, 0.25)
    assert r.ab + r.aa + r.bb == 1.0


def test_expected_rates_formulas():
    params = SourceParams(pulses=1e6, alpha_sq=0.1, chi=0.5)
    assert expected_singles(params, 0.02) == pytest.approx(1e6 * 0.02 * 0.05 / 2)
    assert expected_coincidences(params, 0.02, 0.01) == pytest.approx(
        1e6 * 0.02 * 0.01 * 0.05 / 4
    )


def test_coincidence_singles_ratio_is_half_partner_efficiency():
    params = SourceParams(pulses=1e7, alpha_sq=0.1, chi=0.5)
    for ea, eb in [(0.015, 0.021), (0.005, 0.009), (1.0, 1.0)]:
        c = expected_coincidences(params, ea, eb)
        assert c / expected_singles(params, ea) == pytest.approx(eb / 2, rel=1e-12)
        assert c / expected_singles(params, eb) == pytest.approx(ea / 2, rel=1e-12)


def test_efficiency_table_validation():
    with pytest.raises(ValueError):
        EfficiencyTable(dim=2, eta_a=np.full((3, 2), 1.5), eta_b=np.full((3, 2), 0.5))
    with pytest.raises(Exception):
        EfficiencyTable(dim=2, eta_a=np.full((2, 2), 0.5), eta_b=np.full((3, 2), 0.5))
    t = EfficiencyTable.uniform(3)
    assert t.complete
    assert np.all(t.eta_a == 1.0)
    partial = EfficiencyTable(
        dim=2,
        eta_a=np.where(np.eye(3, 2) > 0, 0.5, np.nan),
        eta_b=np.full((3, 2), 0.5),
    )
    assert not partial.complete


def test_exact_synthesis_roundtrip():
    params = SourceParams(pulses=1e8, alpha_sq=0.1, chi=0.5)
    table = reference_table()
    counts = synthesize_conjugate_records(params, table)
    assert counts.exact and np.count_nonzero(counts.singles_a) == 6
    est = estimate_efficiency(counts, 2)
    assert np.allclose(est.eta_a, ETA_A, atol=1e-12)
    assert np.allclose(est.eta_b, ETA_B, atol=1e-12)


def test_poisson_synthesis_within_three_se():
    params = SourceParams(pulses=1e8, alpha_sq=0.1, chi=0.5)
    table = reference_table()
    rng = np.random.default_rng(20240817)
    counts = synthesize_conjugate_records(params, table, rng=rng)
    assert not counts.exact
    est = estimate_efficiency(counts, 2)
    for basis in range(3):
        for elem in range(2):
            mu_c = expected_coincidences(
                params, ETA_A[basis, elem], ETA_B[basis, elem]
            )
            mu_sa = expected_singles(params, ETA_A[basis, elem])
            mu_sb = expected_singles(params, ETA_B[basis, elem])
            # eta_b = 2C/S_A: independent Poisson numerator and denominator.
            se_b = ETA_B[basis, elem] * np.sqrt(1 / mu_c + 1 / mu_sa)
            se_a = ETA_A[basis, elem] * np.sqrt(1 / mu_c + 1 / mu_sb)
            assert abs(est.eta_a[basis, elem] - ETA_A[basis, elem]) < 3 * se_a
            assert abs(est.eta_b[basis, elem] - ETA_B[basis, elem]) < 3 * se_b


def test_estimator_reads_only_paired_cells():
    # Off the identity pairing every cell would imply an efficiency of two.
    cells = {(b, e, b, e): (10, 10, 0) for b, e in np.ndindex(3, 2)}
    counts = counts_with({**cells, (0, 0, 0, 0): (1000, 500, 5)}, fill=1.0)
    est = estimate_efficiency(counts, 2)
    assert est.eta_b[0, 0] == pytest.approx(0.01)
    assert est.eta_a[0, 0] == pytest.approx(0.02)
    assert np.isnan(est.eta_a).sum() == np.isnan(est.eta_b).sum() == 5


def test_estimator_rejects_dimension_mismatch():
    counts = counts_with({(0, 0, 0, 0): (1000, 500, 5)})
    with pytest.raises(DimensionError):
        estimate_efficiency(counts, 3)


def test_estimator_rejects_unphysical_ratio():
    counts = counts_with({(0, 0, 0, 0): (10, 10, 9)})
    with pytest.raises(CountDataError) as err:
        estimate_efficiency(counts, 2)
    assert "above one" in str(err.value)


def test_estimator_skips_cells_without_coincidences():
    counts = counts_with({(0, 0, 0, 0): (1000, 500, 5), (0, 1, 0, 1): (1000, 500, 0)})
    est = estimate_efficiency(counts, 2)
    assert np.isfinite(est.eta_a[0, 0])
    assert np.isnan(est.eta_a[0, 1])


def test_estimator_requires_some_coincidences():
    with pytest.raises(CountDataError):
        estimate_efficiency(counts_with({(0, 0, 0, 0): (10, 10, 0)}), 2)


def test_uniformity_spreads_on_reference_values():
    report = efficiency_uniformity(reference_table())
    want_a = [0.008606, 0.063523, 0.090226]
    want_b = [0.018349, 0.197148, 0.104756]
    assert np.allclose(report.spread_a, want_a, atol=1e-5)
    assert np.allclose(report.spread_b, want_b, atol=1e-5)
    assert report.max_spread() == pytest.approx(max(want_b), abs=1e-5)


def test_uniformity_ignores_incomplete_rows():
    eta = np.full((3, 2), np.nan)
    eta[0] = [0.5, 0.5]
    table = EfficiencyTable(dim=2, eta_a=eta, eta_b=eta.copy())
    report = efficiency_uniformity(table)
    assert report.spread_a[0] == 0.0
    assert np.isnan(report.spread_a[1])


def test_table_save_load_roundtrip(tmp_path):
    table = reference_table()
    path = tmp_path / "eta.txt"
    save_efficiency_table(table, path)
    loaded = load_efficiency_table(path)
    assert loaded.dim == 2
    assert np.allclose(loaded.eta_a, ETA_A, atol=1e-5)
    assert np.allclose(loaded.eta_b, ETA_B, atol=1e-5)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "efficiency table must start with 'dim <d>'"),
        ("# eta\n\n", "efficiency table must start with 'dim <d>'"),
        ("# eta\n\ndims 2\n", "line 3: expected 'dim <d>', got 'dims 2'"),
        ("dim 2 junk\n", "line 1: expected 'dim <d>', got 'dim 2 junk'"),
        ("dim 2\nindexes 0.5 0.5\n", "line 2: bad efficiency row 'indexes 0.5 0.5'"),
        ("dim 2\nindex eta_a eta_b\nindex 9 9\n", "line 3: bad efficiency row 'index 9 9'"),
    ],
)
def test_table_load_errors_name_the_physical_line(tmp_path, text, message):
    # Only the exact column line is skipped, and an empty table has no line to name.
    path = tmp_path / "eta.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_efficiency_table(path)
    assert str(err.value) == message


def _identity_pairing(setting):
    return setting


def test_identity_pairing():
    # No pairing pairs each setting with itself.
    assert _identity_pairing((2, 1)) == (2, 1)
    for d in (2, 3):
        assert np.array_equal(_partners(None, d), _partners(_identity_pairing, d))
        assert np.array_equal(_partners(None, d), np.arange((d + 1) * d))


def _tallies(counts):
    return np.stack([counts.singles_a, counts.singles_b, counts.coincidences]).tobytes()


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_no_pairing_matches_explicit_identity_byte_for_byte(d):
    # Without a pairing each setting pairs with itself: the same arrays as
    # an explicit identity, exact and Poisson-sampled.
    rng = np.random.default_rng(d)
    table = EfficiencyTable(
        dim=d, eta_a=rng.uniform(0.05, 0.5, (d + 1, d)), eta_b=rng.uniform(0.05, 0.5, (d + 1, d))
    )
    params = SourceParams(pulses=10**8, alpha_sq=0.1, chi=0.5)
    for seed in (None, 3):
        draw = [None if seed is None else np.random.default_rng(seed) for _ in range(2)]
        plain = synthesize_conjugate_records(params, table, rng=draw[0])
        paired = synthesize_conjugate_records(params, table, lambda s: s, rng=draw[1])
        assert _tallies(plain) == _tallies(paired)
        est, est_paired = estimate_efficiency(plain, d), estimate_efficiency(plain, d, lambda s: s)
        assert est.eta_a.tobytes() == est_paired.eta_a.tobytes()
        assert est.eta_b.tobytes() == est_paired.eta_b.tobytes()


def test_estimator_rejects_negative_setting_indices():
    counts = counts_with({(0, 0, 0, 0): (10, 10, 1)})
    for pairing in (lambda s: (-1, s[1]), lambda s: (s[0], -1)):
        with pytest.raises(CountDataError, match="out of range"):
            estimate_efficiency(counts, 2, pairing)


# Per-setting and per-record reference loops; the array code must match
# them bit for bit, since the arithmetic and the draw order are the same.
# A record is ((setting_a, setting_b), singles_a, singles_b, coincidences).
def loop_synthesize(params, table, pairing, rng):
    records = []
    for basis in range(table.dim + 1):
        for elem in range(table.dim):
            pb, pe = pairing((basis, elem))
            ea = float(table.eta_a[basis, elem])
            eb = float(table.eta_b[pb, pe])
            mu_sa = expected_singles(params, ea)
            mu_sb = expected_singles(params, eb)
            mu_cc = expected_coincidences(params, ea, eb)
            if rng is None:
                sa, sb, cc = mu_sa, mu_sb, mu_cc
            else:
                sa = float(rng.poisson(mu_sa))
                sb = float(rng.poisson(mu_sb))
                cc = min(float(rng.poisson(mu_cc)), sa, sb)
            records.append((((basis, elem), (pb, pe)), sa, sb, cc))
    return records


def loop_estimate(records, dim):
    pooled = {}
    for pair, *tally in records:
        acc = pooled.setdefault(pair, [0.0, 0.0, 0.0])
        for i, value in enumerate(tally):
            acc[i] += value
    eta_a = np.full((dim + 1, dim), np.nan)
    eta_b = np.full((dim + 1, dim), np.nan)
    for ((ba, ea), (bb, eb)), (sa, sb, cc) in pooled.items():
        if cc > 0:
            eta_a[ba, ea] = 2.0 * cc / sb
            eta_b[bb, eb] = 2.0 * cc / sa
    return eta_a, eta_b


def records_counts(records, dim, exact, fill=0.0):
    return counts_with({(*a, *b): tally for (a, b), *tally in records}, dim, fill, exact)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("sampled", [False, True])
@pytest.mark.parametrize("shifted", [False, True])
def test_array_path_matches_loops_bitwise(dim, sampled, shifted):
    rng = np.random.default_rng([dim, sampled, shifted])
    table = EfficiencyTable(
        dim=dim,
        eta_a=rng.uniform(0.05, 0.5, (dim + 1, dim)),
        eta_b=rng.uniform(0.05, 0.5, (dim + 1, dim)),
    )
    # A bijection that moves both the basis and the element.
    pairing = (lambda s: ((s[0] + 1) % (dim + 1), (s[1] + 1) % dim)) if shifted else None
    params = SourceParams(pulses=3 * 10**6, alpha_sq=0.1, chi=0.5)
    seed = 100 + dim
    rng_a = np.random.default_rng(seed) if sampled else None
    rng_b = np.random.default_rng(seed) if sampled else None
    counts = synthesize_conjugate_records(params, table, pairing, rng_a)
    records = loop_synthesize(params, table, pairing or _identity_pairing, rng_b)
    want = records_counts(records, dim, exact=not sampled)
    assert counts.exact == want.exact
    for name in ("singles_a", "singles_b", "coincidences"):
        assert getattr(counts, name).tobytes() == getattr(want, name).tobytes()
    # Cells whose coincidences are zero stay missing; cells off the pairing,
    # here each implying an efficiency of two, are not read.
    zeroed = [(pair, sa, sb, 0.0) if i % 3 == 0 else (pair, sa, sb, cc)
              for i, (pair, sa, sb, cc) in enumerate(records)]  # fmt: skip
    for batch, fill in ((records, 0.0), (zeroed, 0.0), (records, 1.0)):
        est = estimate_efficiency(records_counts(batch, dim, not sampled, fill), dim, pairing)
        want_a, want_b = loop_estimate(batch, dim)
        assert est.eta_a.tobytes() == want_a.tobytes()
        assert est.eta_b.tobytes() == want_b.tobytes()
        report = efficiency_uniformity(est)
        for got, eta in ((report.spread_a, want_a), (report.spread_b, want_b)):
            want = [
                (float(np.max(row)) - float(np.min(row))) / float(np.mean(row))
                if np.all(np.isfinite(row)) else np.nan
                for row in eta
            ]
            assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize(
    "pairing, partner",
    [
        (lambda s: (-1, s[1]), "(-1, 0)"),
        (lambda s: (s[0], 2), "(0, 2)"),
        (lambda s: (3, s[1]), "(3, 0)"),
    ],
    ids=["negative-basis", "element-past-end", "basis-past-end"],
)
def test_synthesis_rejects_out_of_range_partner(pairing, partner):
    params = SourceParams(pulses=10**6, alpha_sq=0.1, chi=0.5)
    with pytest.raises(CountDataError, match=re.escape(f"setting (0,0) has partner {partner} out")):
        synthesize_conjugate_records(params, reference_table(), pairing)
