"""Acceptance checks, one per numbered criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see every verdict as it
happens; without ``-s`` the lines still appear in the captured output of
failing criteria.  Two criteria are expected to fail against the published
reference numbers; the analysis lives in the project notes.
"""

import math
import time

import numpy as np
import pytest

from mubqkd.bases import mub_set, unbiasedness_report
from mubqkd.counts import load_counts, normalize_blocks
from mubqkd.photonics import (
    EfficiencyTable,
    SourceParams,
    efficiency_uniformity,
    estimate_efficiency,
    expected_coincidences,
    expected_singles,
    pair_routing_probs,
    synthesize_conjugate_records,
)
from mubqkd.protocol import (
    CHUNK_ROUNDS,
    ProtocolConfig,
    _RoundKernel,
    expected_count_matrix,
    run_eb_session,
    run_pm_session,
    sift,
)
from mubqkd.security import (
    empirical_qber,
    isotropic_joint_distribution,
    key_rate,
    mutual_information,
    q_max,
)
from mubqkd.states import isotropic_state, joint_prob_matrix

# Published reference numbers the computed values are held against.
PUBLISHED_Q = {2: 0.016, 3: 0.040, 4: 0.088, 5: 0.14}
PUBLISHED_RATE = {2: 0.7590, 3: 1.123, 4: 1.139, 5: 0.8606}
PUBLISHED_MI = {2: 0.9999, 3: 1.313, 4: 1.478, 5: 1.487}
PUBLISHED_ETA_A = np.array(
    [[0.01504, 0.01517], [0.00536, 0.00503], [0.00508, 0.00556]]
)
PUBLISHED_ETA_B = np.array(
    [[0.02145, 0.02106], [0.00886, 0.00727], [0.00787, 0.00874]]
)

OMEGA3 = np.exp(2j * np.pi / 3)
D3_PUBLISHED = [
    np.array([[1, 1, 1], [1, OMEGA3, OMEGA3**2], [1, OMEGA3**2, OMEGA3]])
    / np.sqrt(3),
    np.array([[1, 1, OMEGA3], [1, OMEGA3, 1], [OMEGA3, 1, 1]]) / np.sqrt(3),
    np.array([[1, 1, OMEGA3**2], [1, OMEGA3**2, 1], [OMEGA3**2, 1, 1]])
    / np.sqrt(3),
]


def check(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def _phase_permutation_match(ref: np.ndarray, candidates: list[np.ndarray]) -> bool:
    """True when ref equals some candidate up to column phases and order."""
    for gen in candidates:
        gram = np.abs(ref.conj().T @ gen)
        if (
            np.allclose(np.max(gram, axis=0), 1, atol=1e-10)
            and np.allclose(gram.sum(axis=0), 1, atol=1e-9)
            and np.allclose(gram.sum(axis=1), 1, atol=1e-9)
        ):
            return True
    return False


def test_criterion_1_basis_construction():
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 4, 5, 7):
        report = unbiasedness_report(mub_set(d))
        worst = max(worst, report.max_unbiased_deviation)
    elapsed = time.perf_counter() - start

    generated = [
        np.column_stack([k.amplitudes for k in b.vectors])
        for b in mub_set(3).bases[1:]
    ]
    published_ok = all(
        _phase_permutation_match(ref, generated) for ref in D3_PUBLISHED
    )
    ok = worst < 1e-10 and published_ok and elapsed < 1.0
    check(
        1,
        ok,
        f"max unbiasedness deviation {worst:.2e}, published d=3 matrices "
        f"matched: {published_ok}, runtime {elapsed:.3f}s",
    )


def test_criterion_2_key_rate_values():
    zero_ok = all(
        abs(key_rate(d, 0.0) - math.log2(d)) < 1e-12 for d in (2, 3, 4, 5)
    )
    r3 = key_rate(3, 0.040)
    window_ok = 1.118 <= r3 <= 1.130
    deltas = {
        d: abs(key_rate(d, PUBLISHED_Q[d]) - PUBLISHED_RATE[d]) for d in (2, 4, 5)
    }
    loose_ok = all(delta <= 0.08 for delta in deltas.values())
    detail = (
        f"zero-error rates exact: {zero_ok}; r(3, 0.040) = {r3:.4f}; "
        + "; ".join(f"d={d} |delta| = {v:.4f}" for d, v in deltas.items())
    )
    check(2, zero_ok and window_ok and loose_ok, detail)


def test_criterion_3_error_rate_ceiling():
    roots = {d: q_max(d, 1e-10) for d in (2, 3, 4, 5)}
    root_ok = all(abs(key_rate(d, q)) < 1e-9 for d, q in roots.items())

    # Independent oracle: fine-grid scan at step 1e-5 brackets the root.
    step = 1e-5
    q = 0.125
    while key_rate(2, q) > 0:
        q += step
    bracket_ok = (q - step) <= roots[2] <= q and 0.125 <= roots[2] <= 0.127

    increasing = all(
        roots[a] < roots[b] for a, b in zip((2, 3, 4), (3, 4, 5))
    )
    detail = (
        f"q_max(2) = {roots[2]:.6f} in scan bracket [{q - step:.6f}, {q:.6f}]; "
        f"roots {', '.join(f'{d}: {v:.4f}' for d, v in roots.items())}; "
        f"strictly increasing: {increasing}"
    )
    check(3, root_ok and bracket_ok and increasing, detail)


def test_criterion_4_mutual_information_calibration():
    computed = {
        d: mutual_information(isotropic_joint_distribution(d, PUBLISHED_Q[d]))
        for d in (2, 3, 4, 5)
    }
    deltas = {d: abs(computed[d] - PUBLISHED_MI[d]) for d in computed}
    gated_ok = deltas[2] <= 0.05 and deltas[3] <= 0.05
    detail = (
        f"d=2: {computed[2]:.4f} vs {PUBLISHED_MI[2]} (delta {deltas[2]:.4f}, "
        f"gate 0.05); d=3: {computed[3]:.4f} vs {PUBLISHED_MI[3]} (delta "
        f"{deltas[3]:.4f}); logged d=4 delta {deltas[4]:.4f}, d=5 delta "
        f"{deltas[5]:.4f}"
    )
    check(4, gated_ok, detail)


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("v", (1.0, 0.9, 0.7))
def test_criterion_5_monte_carlo_matches_analytics(d, v):
    start = time.perf_counter()
    rounds = 1_000_000
    cfg = ProtocolConfig(
        dim=d,
        mode="eb",
        rounds=rounds,
        seed=20240093 + d * 10 + int(v * 10),
        visibility=v,
        basis_bias=(1.0 / (d + 1),) * (d + 1),
        source=SourceParams(pulses=rounds, alpha_sq=0.18, chi=0.5),
    )
    mubs = mub_set(d)
    session = run_eb_session(cfg, mubs, workers=4)

    analytic = joint_prob_matrix(isotropic_state(d, v), mubs).probs
    freq = normalize_blocks(session.counts)
    worst_pull = 0.0
    for i in range(d + 1):
        for j in range(d + 1):
            block = session.counts.coincidence_block(i, j)
            total = block.sum()
            if total == 0:
                continue
            p = analytic[i, :, j, :]
            se = np.sqrt(np.maximum(p * (1 - p) / total, 1e-30))
            pulls = np.abs(freq.block(i, j) - p) / se
            worst_pull = max(worst_pull, float(pulls.max()))
    cells_ok = worst_pull < 5.0

    per_basis, q_emp = empirical_qber(session.counts)
    q_true = (1 - v) * (d - 1) / d
    sigma_sq = 0.0
    n_avail = 0
    for basis, qb in enumerate(per_basis):
        if qb is None:
            continue
        total = session.counts.coincidence_block(basis, basis).sum()
        sigma_sq += max(q_true * (1 - q_true), 1e-12) / total
        n_avail += 1
    sigma = math.sqrt(sigma_sq) / n_avail
    qber_ok = abs(q_emp - q_true) <= 3 * sigma or abs(q_emp - q_true) < 1e-9

    elapsed = time.perf_counter() - start
    ok = cells_ok and qber_ok and elapsed < 60.0
    check(
        5,
        ok,
        f"d={d} v={v}: worst cell pull {worst_pull:.2f} SE, QBER "
        f"{q_emp:.5f} vs {q_true:.5f} (3 sigma = {3 * sigma:.5f}), "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_efficiency_pipeline():
    table = EfficiencyTable(dim=2, eta_a=PUBLISHED_ETA_A, eta_b=PUBLISHED_ETA_B)
    params = SourceParams(pulses=1e8, alpha_sq=0.1, chi=0.5)

    exact = estimate_efficiency(synthesize_conjugate_records(params, table), 2)
    exact_ok = np.allclose(exact.eta_a, PUBLISHED_ETA_A, atol=1e-12) and np.allclose(
        exact.eta_b, PUBLISHED_ETA_B, atol=1e-12
    )

    rng = np.random.default_rng(20240817)
    sampled = estimate_efficiency(
        synthesize_conjugate_records(params, table, rng=rng), 2
    )
    mu_c = expected_coincidences(params, PUBLISHED_ETA_A, PUBLISHED_ETA_B)
    mu_sa = expected_singles(params, PUBLISHED_ETA_A)
    mu_sb = expected_singles(params, PUBLISHED_ETA_B)
    se_a = PUBLISHED_ETA_A * np.sqrt(1 / mu_c + 1 / mu_sb)
    se_b = PUBLISHED_ETA_B * np.sqrt(1 / mu_c + 1 / mu_sa)
    poisson_ok = np.all(
        np.abs(sampled.eta_a - PUBLISHED_ETA_A) < 3 * se_a
    ) and np.all(np.abs(sampled.eta_b - PUBLISHED_ETA_B) < 3 * se_b)

    spreads = efficiency_uniformity(table)
    spread_max = spreads.max_spread()
    spread_ok = spread_max < 0.10
    detail = (
        f"exact round-trip: {exact_ok}; Poisson within 3 SE: {poisson_ok}; "
        f"spreads A = {np.round(spreads.spread_a, 4).tolist()}, "
        f"B = {np.round(spreads.spread_b, 4).tolist()}, gate < 0.10"
    )
    check(6, exact_ok and poisson_ok and spread_ok, detail)


def test_criterion_7_source_model_identities():
    params = SourceParams(pulses=10**7, alpha_sq=0.1, chi=0.5)
    ratio_ok = True
    for ea in (0.01504, 0.5, 1.0):
        for eb in (0.02145, 0.3, 1.0):
            c = expected_coincidences(params, ea, eb)
            ratio_ok &= math.isclose(
                c / expected_singles(params, ea), eb / 2, rel_tol=1e-12
            )
            ratio_ok &= math.isclose(
                c / expected_singles(params, eb), ea / 2, rel_tol=1e-12
            )
    routing = pair_routing_probs()
    routing_ok = (routing.ab, routing.aa, routing.bb) == (0.5, 0.25, 0.25)

    rounds = 1_000_000
    cfg = ProtocolConfig(
        dim=2,
        mode="eb",
        rounds=rounds,
        seed=424242,
        visibility=0.9,
        source=SourceParams(pulses=rounds, alpha_sq=0.18, chi=0.5),
    )
    session = run_eb_session(cfg, mub_set(2), workers=4, keep_full_log=True)

    # Reconstruct each round's routing from the counter-based streams.
    ab_mask = np.zeros(rounds, dtype=bool)
    created_total = 0
    aa_bb_total = 0
    kernel = _RoundKernel(cfg, mub_set(2))
    buf = kernel.buffer()
    n_chunks = (rounds + CHUNK_ROUNDS - 1) // CHUNK_ROUNDS
    for chunk in range(n_chunks):
        n = min(CHUNK_ROUNDS, rounds - chunk * CHUNK_ROUNDS)
        created, v = kernel.draw(chunk, n, buf)
        arm = kernel.route(v)  # 0: one photon in each arm
        lo = chunk * CHUNK_ROUNDS
        ab_mask[lo + created[arm == 0]] = True
        created_total += len(created)
        aa_bb_total += int((arm != 0).sum())

    frac_ab = (created_total - aa_bb_total) / created_total
    se = math.sqrt(0.5 * 0.5 / created_total)
    routing_mc_ok = abs(frac_ab - 0.5) < 5 * se

    log = session.log
    coinc_rounds = log["round"][log["coincidence"]]
    coinc_in_ab = bool(np.all(ab_mask[coinc_rounds]))
    sifted = sift(session)
    sift_in_ab = bool(np.all(ab_mask[sifted.entries["round"]]))

    ok = ratio_ok and routing_ok and routing_mc_ok and coinc_in_ab and sift_in_ab
    check(
        7,
        ok,
        f"ratio identity exact: {ratio_ok}; routing (1/2,1/4,1/4): "
        f"{routing_ok}, sampled AB fraction {frac_ab:.4f}; coincidences "
        f"confined to two-arm rounds: {coinc_in_ab}; sifted data confined: "
        f"{sift_in_ab} ({len(sifted)} sifted rounds)",
    )


def test_criterion_8_pm_exact_blocks():
    cfg = ProtocolConfig(dim=3, mode="pm", rounds=10**6, seed=0)
    mubs = mub_set(3)
    session = run_pm_session(cfg, mubs, exact=True)
    jm = normalize_blocks(session.counts)
    worst = 0.0
    for i in range(4):
        for j in range(4):
            block = jm.block(i, j)
            target = np.eye(3) / 3 if i == j else np.full((3, 3), 1 / 9)
            worst = max(worst, float(np.max(np.abs(block - target))))
    check(8, worst < 1e-12, f"max block deviation {worst:.2e} (gate 1e-12)")


def test_criterion_9_cli_determinism(tmp_path):
    from mubqkd.cli import cli_dispatch

    base = [
        "simulate",
        "--mode",
        "eb",
        "--dim",
        "2",
        "--rounds",
        "200000",
        "--seed",
        "11",
        "--visibility",
        "0.9",
    ]
    paths = [tmp_path / name for name in ("w1.csv", "w8.csv", "again.csv")]
    assert cli_dispatch(base + ["--workers", "1", "--out", str(paths[0])]) == 0
    assert cli_dispatch(base + ["--workers", "8", "--out", str(paths[1])]) == 0
    assert cli_dispatch(base + ["--workers", "1", "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    identical = blobs[0] == blobs[1] == blobs[2]
    parsed = load_counts(paths[0])
    check(
        9,
        identical and parsed.dim == 2,
        f"three runs produced {len({b for b in blobs})} distinct outputs "
        f"({len(blobs[0])} bytes each)",
    )
