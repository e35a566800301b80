"""Tests for the round-by-round session simulators and sifting chain."""

import numpy as np
import pytest

from mubqkd.bases import mub_set
from mubqkd.counts import normalize_blocks
from mubqkd.errors import ConfigError, DimensionError
from mubqkd.photonics import EfficiencyTable, SourceParams
from mubqkd.protocol import (
    CHUNK_ROUNDS,
    LOG_DTYPE,
    ProtocolConfig,
    SessionRecord,
    _RoundKernel,
    _draw_setting,
    _setting_table,
    default_basis_bias,
    estimate_parameters,
    expected_count_matrix,
    pm_effective_overlaps,
    run_eb_session,
    run_pm_session,
    sample_setting,
    sift,
)

SOURCE = SourceParams(pulses=0, alpha_sq=0.18, chi=0.5)


def eb_config(**kw):
    defaults = dict(
        dim=2,
        mode="eb",
        rounds=100_000,
        seed=123,
        source=SOURCE,
        visibility=1.0,
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def test_default_basis_bias():
    bias = default_basis_bias(3)
    assert bias == (0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3)
    assert sum(bias) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        default_basis_bias(3, epsilon=0.0)
    with pytest.raises(ConfigError):
        default_basis_bias(3, epsilon=1.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        eb_config(dim=1)
    with pytest.raises(ConfigError):
        eb_config(mode="xx")
    with pytest.raises(ConfigError):
        eb_config(rounds=0)
    with pytest.raises(ConfigError):
        eb_config(seed=-1)
    with pytest.raises(ConfigError):
        eb_config(visibility=1.5)
    with pytest.raises(ConfigError):
        eb_config(flip_prob=1.0)
    with pytest.raises(ConfigError):
        eb_config(basis_bias=(0.5, 0.5))  # needs d + 1 weights
    with pytest.raises(ConfigError):
        eb_config(basis_bias=(0.5, 0.6, -0.1))
    with pytest.raises(ConfigError):
        eb_config(source=None)  # entanglement-based needs a source
    with pytest.raises(ConfigError):
        eb_config(sample_fraction=0.0)
    # Prepare-and-measure works without a source.
    ProtocolConfig(dim=2, mode="pm", rounds=10, seed=0)


def test_config_rejects_incomplete_efficiencies():
    eta = np.full((3, 2), np.nan)
    eta[0] = 0.5
    table = EfficiencyTable(dim=2, eta_a=eta, eta_b=np.full((3, 2), 0.5))
    with pytest.raises(ConfigError):
        eb_config(efficiencies=table)


def test_sample_setting_respects_bias():
    mubs = mub_set(2)
    rng = np.random.default_rng(1)
    bias = (0.8, 0.1, 0.1)
    draws = [sample_setting(bias, mubs, rng) for _ in range(4000)]
    bases = np.array([b for b, _ in draws])
    elems = np.array([e for _, e in draws])
    assert abs(np.mean(bases == 0) - 0.8) < 0.03
    assert abs(np.mean(elems) - 0.5) < 0.03
    with pytest.raises(ConfigError):
        sample_setting((1.0,), mubs, rng)


def test_setting_draw_matches_searchsorted():
    # Basis 1 has zero weight: its settings 3..5 must never be drawn.
    table = _setting_table((0.5, 0.0, 0.3, 0.2), 3)
    u = np.concatenate(
        [np.random.default_rng(2).random(20_000), table[:-1], [0.0, np.nextafter(1.0, 0.0)]]
    )
    got = _draw_setting(table, u)
    assert np.array_equal(got, np.searchsorted(table, u, side="right"))
    assert got.max() == 11 and not np.isin(got, [3, 4, 5]).any()
    stride = np.stack([u, u], axis=1)[:, 1]  # a column of a round-major block
    assert np.array_equal(_draw_setting(table, stride), got)


def test_pm_effective_overlaps_ideal():
    mubs = mub_set(3)
    ov = pm_effective_overlaps(mubs)
    for i in range(4):
        assert np.allclose(ov[i, :, i, :], np.eye(3), atol=1e-12)
        for j in range(4):
            if i != j:
                assert np.allclose(ov[i, :, j, :], 1 / 3, atol=1e-12)


def test_pm_effective_overlaps_flip_channel():
    mubs = mub_set(2)
    p = 0.3
    ov = pm_effective_overlaps(mubs, flip_prob=p)
    # Same basis: diagonal keeps 1 - p, the flip lands on the other element.
    for i in range(3):
        assert np.allclose(np.diag(ov[i, :, i, :]), 1 - p, atol=1e-12)
        off = ov[i, 0, i, 1]
        assert off == pytest.approx(p, abs=1e-12)
    # Cross-basis overlaps are flip-invariant at 1/d.
    assert np.allclose(ov[0, :, 1, :], 0.5, atol=1e-12)


def test_eb_counts_match_expectation_within_binomial_error():
    cfg = eb_config(
        rounds=400_000,
        visibility=0.9,
        basis_bias=(1 / 3, 1 / 3, 1 / 3),
        seed=99,
    )
    mubs = mub_set(2)
    session = run_eb_session(cfg, mubs)
    expect = expected_count_matrix(cfg, mubs)
    n = cfg.rounds
    for name in ("singles_a", "singles_b", "coincidences"):
        got = getattr(session.counts, name)
        mu = getattr(expect, name)
        p = mu / n
        se = np.sqrt(np.maximum(n * p * (1 - p), 1.0))
        assert np.all(np.abs(got - mu) < 5 * se), name


def test_eb_empirical_qber_near_analytic():
    from mubqkd.security import empirical_qber

    cfg = eb_config(
        rounds=600_000,
        visibility=0.8,
        basis_bias=(1 / 3, 1 / 3, 1 / 3),
        seed=7,
    )
    session = run_eb_session(cfg, mub_set(2))
    per_basis, avg = empirical_qber(session.counts)
    want = (1 - 0.8) * (2 - 1) / 2
    total_cc = session.counts.total_coincidences()
    sigma = np.sqrt(want * (1 - want) / total_cc)
    assert abs(avg - want) < 4 * sigma


def test_eb_session_with_per_setting_efficiencies():
    eta_a = np.array([[0.8, 0.7], [0.6, 0.5], [0.4, 0.3]])
    eta_b = np.array([[0.75, 0.65], [0.55, 0.45], [0.35, 0.25]])
    table = EfficiencyTable(dim=2, eta_a=eta_a, eta_b=eta_b)
    cfg = eb_config(rounds=300_000, efficiencies=table, seed=21,
                    basis_bias=(1 / 3, 1 / 3, 1 / 3))
    mubs = mub_set(2)
    session = run_eb_session(cfg, mubs)
    expect = expected_count_matrix(cfg, mubs)
    got = session.counts.singles_a.sum(axis=(2, 3))
    mu = expect.singles_a.sum(axis=(2, 3))
    se = np.sqrt(mu)
    assert np.all(np.abs(got - mu) < 5 * se)


def test_worker_count_does_not_change_results():
    cfg = eb_config(rounds=3 * CHUNK_ROUNDS + 123, seed=50)
    mubs = mub_set(2)
    one = run_eb_session(cfg, mubs, workers=1, keep_full_log=False)
    four = run_eb_session(cfg, mubs, workers=4, keep_full_log=False)
    assert np.array_equal(one.counts.singles_a, four.counts.singles_a)
    assert np.array_equal(one.counts.singles_b, four.counts.singles_b)
    assert np.array_equal(one.counts.coincidences, four.counts.coincidences)
    assert np.array_equal(one.log, four.log)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", ["eb", "pm"])
def test_full_log_changes_neither_counts_nor_coincident_rows(mode, workers):
    rounds = 2 * CHUNK_ROUNDS + 1000  # the last chunk is partial
    if mode == "eb":
        cfg = eb_config(dim=3, rounds=rounds, seed=61, visibility=0.9)
        run = run_eb_session
    else:
        cfg = ProtocolConfig(dim=3, mode="pm", rounds=rounds, seed=61, flip_prob=0.05)
        run = run_pm_session
    mubs = mub_set(3)
    short = run(cfg, mubs, workers=workers)
    full = run(cfg, mubs, workers=workers, keep_full_log=True)
    for name in ("singles_a", "singles_b", "coincidences"):
        assert np.array_equal(getattr(short.counts, name), getattr(full.counts, name))
    assert short.log_scope == "coincident" and full.log_scope == "full"
    assert np.array_equal(full.log["round"], np.arange(rounds))
    assert short.log.tobytes() == full.log[full.log["coincidence"]].tobytes()
    # Every round of the full log, with or without a pair, follows the bias.
    for field in ("basis_a", "basis_b"):
        frac = np.mean(full.log[field] == 0)
        assert abs(frac - 0.9) < 5 * np.sqrt(0.9 * 0.1 / rounds)


@pytest.mark.parametrize("mode", ["eb", "pm"])
@pytest.mark.parametrize("d", [2, 5, 7])
def test_counts_fit_model_with_uneven_efficiencies_and_bias(d, mode):
    rng = np.random.default_rng(d)
    table = EfficiencyTable(
        dim=d,
        eta_a=rng.uniform(0.3, 0.9, (d + 1, d)),
        eta_b=rng.uniform(0.3, 0.9, (d + 1, d)),
    )
    weights = np.linspace(1.0, 3.0, d + 1)
    common = dict(dim=d, seed=17, efficiencies=table,
                  basis_bias=tuple(weights / weights.sum()))
    mubs = mub_set(d)
    if mode == "eb":
        cfg = eb_config(rounds=4_000_000, visibility=0.9, **common)
        got = run_eb_session(cfg, mubs).counts
    else:
        cfg = ProtocolConfig(mode="pm", rounds=1_000_000, flip_prob=0.1, **common)
        got = run_pm_session(cfg, mubs).counts
    want = expected_count_matrix(cfg, mubs)

    # Cells: singles per own setting, and coincidences per basis pair with
    # equal or unequal elements.  They keep every per-setting weight and the
    # element correlation.  Across all 3 (d(d+1))^2 setting-pair cells, a
    # 5-SE limit would trip on several percent of seeds at d = 7; on these
    # cells a correct sampler trips on under 0.2% (exact Poisson tails).
    same = np.eye(d)

    def cells(c):
        cc = c.coincidences
        return (
            c.singles_a.sum(axis=(2, 3)),
            c.singles_b.sum(axis=(0, 1)),
            np.einsum("iajb,ab->ij", cc, same),
            np.einsum("iajb,ab->ij", cc, 1.0 - same),
        )

    for obs, mu in zip(cells(got), cells(want)):
        pull = np.abs(obs - mu) / np.sqrt(np.maximum(mu, 1.0))
        assert pull.max() < 5.0


def test_same_seed_reproduces_different_seed_differs():
    cfg = eb_config(rounds=80_000, seed=4, visibility=0.9)
    mubs = mub_set(2)
    a = run_eb_session(cfg, mubs)
    b = run_eb_session(cfg, mubs)
    assert np.array_equal(a.counts.coincidences, b.counts.coincidences)
    other = run_eb_session(eb_config(rounds=80_000, seed=5, visibility=0.9), mubs)
    assert not np.array_equal(a.counts.coincidences, other.counts.coincidences)


def test_partial_chunk_boundary():
    mubs = mub_set(2)
    for rounds in (1, CHUNK_ROUNDS - 1, CHUNK_ROUNDS, CHUNK_ROUNDS + 1):
        cfg = eb_config(rounds=rounds, seed=9)
        session = run_eb_session(cfg, mubs)
        total_a = session.counts.singles_a.sum()
        assert total_a <= rounds
    # The first `rounds` draws agree regardless of where the chunk ends.
    small = run_eb_session(eb_config(rounds=100, seed=9), mubs, keep_full_log=True)
    big = run_eb_session(eb_config(rounds=CHUNK_ROUNDS + 100, seed=9), mubs,
                         keep_full_log=True)
    assert np.array_equal(small.log, big.log[:100])


def test_one_arm_routing_never_produces_coincidences():
    # White-box kernel check: force one-arm routing on created pairs, then
    # hand the click variates certain hits; the other arm must stay silent.
    cfg = eb_config(rounds=10, seed=0)
    kernel = _RoundKernel(cfg, mub_set(2))
    n = 64
    v = np.zeros((n, 5))  # route, setting_a, setting_b, click_a, click_b
    v[: n // 2, 0] = 0.6  # both photons to arm A
    v[n // 2 :, 0] = 0.9  # both photons to arm B
    _, _, click_a, click_b = kernel.clicks(v)  # click variates 0: fire if allowed
    coinc = click_a & click_b
    assert coinc.sum() == 0
    assert click_a[: n // 2].all() and not click_b[: n // 2].any()
    assert click_b[n // 2 :].all() and not click_a[n // 2 :].any()


def test_pm_exact_mode_blocks():
    cfg = ProtocolConfig(dim=3, mode="pm", rounds=90_000, seed=0)
    mubs = mub_set(3)
    session = run_pm_session(cfg, mubs, exact=True)
    assert session.counts.exact
    assert len(session.log) == 0
    jm = normalize_blocks(session.counts)
    for i in range(4):
        for j in range(4):
            block = jm.block(i, j)
            if i == j:
                assert np.allclose(np.diag(block), 1 / 3, atol=1e-12)
                assert np.allclose(block - np.diag(np.diag(block)), 0, atol=1e-12)
            else:
                assert np.allclose(block, 1 / 9, atol=1e-12)


def test_pm_sampled_singles_cover_every_round():
    cfg = ProtocolConfig(dim=2, mode="pm", rounds=50_000, seed=31)
    session = run_pm_session(cfg, mub_set(2))
    assert session.counts.singles_a.sum() == cfg.rounds
    assert np.array_equal(session.counts.singles_b, session.counts.coincidences)


def test_pm_sampled_matches_exact_in_expectation():
    cfg = ProtocolConfig(
        dim=2, mode="pm", rounds=200_000, seed=13, basis_bias=(1 / 3, 1 / 3, 1 / 3)
    )
    mubs = mub_set(2)
    sampled = run_pm_session(cfg, mubs)
    exact = run_pm_session(cfg, mubs, exact=True)
    mu = exact.counts.coincidences
    se = np.sqrt(np.maximum(mu, 1.0))
    assert np.all(np.abs(sampled.counts.coincidences - mu) < 5 * se)


def test_mode_crosscheck():
    cfg = eb_config()
    with pytest.raises(ConfigError):
        run_pm_session(cfg, mub_set(2))
    pm_cfg = ProtocolConfig(dim=2, mode="pm", rounds=10, seed=0)
    with pytest.raises(ConfigError):
        run_eb_session(pm_cfg, mub_set(2))


def test_sift_keeps_only_same_basis_coincidences():
    cfg = eb_config(rounds=200_000, seed=77, visibility=1.0)
    mubs = mub_set(2)
    session = run_eb_session(cfg, mubs, keep_full_log=True)
    sifted = sift(session)
    assert len(sifted) > 0
    assert np.all(sifted.entries["basis"] <= 2)
    # Every sifted entry must be a coincident same-basis log row.
    log = session.log
    mask = log["coincidence"] & (log["basis_a"] == log["basis_b"])
    assert len(sifted) == int(mask.sum())
    # Perfect visibility and ideal detectors: keys agree exactly.
    assert sifted.alice_key == sifted.bob_key
    assert len(sifted.alice_key) == len(sifted)


def test_sift_key_alphabet_matches_dimension():
    cfg = ProtocolConfig(dim=3, mode="pm", rounds=60_000, seed=3)
    session = run_pm_session(cfg, mub_set(3), keep_full_log=True)
    sifted = sift(session)
    assert set(sifted.alice_key) <= {"0", "1", "2"}


def _oracle_key(elems):
    """The per-symbol key builder the vectorised one must match."""
    return "".join(str(int(e)) for e in elems)


@pytest.mark.parametrize("d", [2, 7])
def test_keys_match_per_symbol_oracle(d):
    cfg = ProtocolConfig(dim=d, mode="pm", rounds=80_000, seed=21, flip_prob=0.1)
    sifted = sift(run_pm_session(cfg, mub_set(d)))
    assert len(sifted) > 0
    assert sifted.alice_key == _oracle_key(sifted.entries["elem_a"])
    assert sifted.bob_key == _oracle_key(sifted.entries["elem_b"])
    assert sifted.alice_key != sifted.bob_key

    n = len(sifted)
    k = max(1, int(0.1 * n))
    chosen = np.sort(np.random.default_rng(4).choice(n, size=k, replace=False))
    est = estimate_parameters(sifted, 0.1, np.random.default_rng(4))
    kept = np.delete(sifted.entries, chosen)
    assert est.remaining.entries.tobytes() == kept.tobytes()
    assert est.remaining.alice_key == _oracle_key(kept["elem_a"])
    assert est.remaining.bob_key == _oracle_key(kept["elem_b"])


def test_sift_rejects_multi_digit_symbols():
    cfg = ProtocolConfig(dim=11, mode="pm", rounds=10, seed=0)
    session = SessionRecord(
        config=cfg, counts=None, log=np.empty(0, dtype=LOG_DTYPE), log_scope="coincident"
    )
    with pytest.raises(DimensionError):
        sift(session)


def test_estimate_parameters_splits_sample():
    cfg = eb_config(rounds=300_000, seed=15, visibility=0.8,
                    basis_bias=(1 / 3, 1 / 3, 1 / 3))
    session = run_eb_session(cfg, mub_set(2), keep_full_log=True)
    sifted = sift(session)
    rng = np.random.default_rng(0)
    est = estimate_parameters(sifted, 0.25, rng)
    assert est.sampled_rounds == max(1, int(0.25 * len(sifted)))
    assert len(est.remaining) == len(sifted) - est.sampled_rounds
    available = [q for q in est.q_by_basis if q is not None]
    assert available
    want = (1 - 0.8) / 2
    assert abs(est.q_average - want) < 0.05
    with pytest.raises(ConfigError):
        estimate_parameters(sifted, 1.5, rng)


def test_estimate_parameters_empty_sifted():
    cfg = eb_config(rounds=10, seed=1)
    session = run_eb_session(cfg, mub_set(2), keep_full_log=True)
    sifted = sift(session)
    if len(sifted) == 0:
        with pytest.raises(ConfigError):
            estimate_parameters(sifted, 0.5, np.random.default_rng(0))


def test_counts_metadata_records_session():
    cfg = eb_config(rounds=1000, seed=8)
    session = run_eb_session(cfg, mub_set(2))
    md = session.counts.metadata
    assert md["mode"] == "eb"
    assert md["rounds"] == 1000
    assert md["seed"] == 8
