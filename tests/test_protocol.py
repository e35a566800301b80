"""Tests for the round-by-round session simulators and sifting chain."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from mubqkd import protocol
from mubqkd.bases import load_bases, mub_set, save_bases, unbiasedness_report
from mubqkd.cli import cli_dispatch
from mubqkd.counts import _MAX_DIM, normalize_blocks
from mubqkd.errors import ConfigError, DimensionError
from mubqkd.photonics import EfficiencyTable, SourceParams
from mubqkd.protocol import (
    CHUNK_ROUNDS,
    EB_CHUNK_ROUNDS,
    LOG_DTYPE,
    SIFT_DTYPE,
    ProtocolConfig,
    SiftedData,
    _Alias,
    _RoundKernel,
    _chunk_rng,
    _click_table,
    _idle_scratch,
    _mark,
    _run_chunked,
    default_basis_bias,
    estimate_parameters,
    expected_count_matrix,
    pm_effective_overlaps,
    run_eb_session,
    run_pm_session,
    sift,
)
from mubqkd.states import isotropic_state, joint_prob_matrix

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
    for bad in [(np.nan, 0.5, 0.5), (0.5, np.nan, 0.5), (np.inf, 0.5, 0.5), (0.5, 0.5, -np.inf)]:
        with pytest.raises(ConfigError):
            eb_config(basis_bias=bad)
    with pytest.raises(ConfigError):
        eb_config(source=None)  # entanglement-based needs a source
    # Prepare-and-measure works without a source.
    ProtocolConfig(dim=2, mode="pm", rounds=10, seed=0)


@pytest.mark.parametrize(
    "field, name", [("seed", "seed"), ("rounds", "round count"), ("dim", "dimension")]
)
@pytest.mark.parametrize("bad", [2.0, 1.5, "2", None])
def test_config_rejects_non_integer_counts(field, name, bad):
    # seed=1.5 would draw seed 1's stream; rounds=1000.0 and dim=2.0 would
    # fail inside the session with a bare TypeError.
    with pytest.raises(ConfigError, match=f"^{name} must be an integer, got "):
        ProtocolConfig(**{"dim": 2, "mode": "pm", "rounds": 10, "seed": 1, field: bad})


def test_config_accepts_numpy_integers_and_keeps_range_messages():
    cfg = ProtocolConfig(dim=np.int64(2), mode="pm", rounds=np.uint32(10), seed=np.uint64(2**64 - 1))
    assert run_pm_session(cfg, mub_set(2)).counts.coincidences.sum() <= 10
    with pytest.raises(ConfigError, match=r"^round count must lie in \[1, inf\), got 0$"):
        ProtocolConfig(dim=2, mode="pm", rounds=np.int64(0), seed=1)
    with pytest.raises(ConfigError, match=r"^seed must lie in \[0, 1.84467e\+19\), got -1$"):
        ProtocolConfig(dim=2, mode="pm", rounds=10, seed=-1)


def test_config_rejects_incomplete_efficiencies():
    eta = np.full((3, 2), np.nan)
    eta[0] = 0.5
    table = EfficiencyTable(dim=2, eta_a=eta, eta_b=np.full((3, 2), 0.5))
    with pytest.raises(ConfigError):
        eb_config(efficiencies=table)


def _setting_draws(bias, d, n, seed):
    """Flat setting indices drawn through an alias table over the settings."""
    table = _Alias(np.repeat(np.asarray(bias) / d, d))
    return table.index[table.draw(np.random.Philox(seed).random_raw(n))]


def test_alias_draw_scratch_matches_new_arrays_and_stays_in_its_thread():
    table = _Alias(np.repeat(np.array([0.5, 0.0, 0.3, 0.2]) / 3, 3))
    words = np.random.Philox(3).random_raw(1000)
    scratch = _idle_scratch(len(words))
    got = table.draw(words.copy(), scratch)
    assert np.array_equal(got, table.draw(words.copy()))
    assert not any(np.shares_memory(got, a) for a in scratch)
    other = []
    worker = threading.Thread(target=lambda: other.append(_idle_scratch(1)))
    worker.start()
    worker.join(timeout=60)
    assert len(other) == 1 and not np.shares_memory(other[0][0], scratch[0])
    assert np.shares_memory(_idle_scratch(1)[0], scratch[0])  # one per thread, reused


def test_sample_setting_respects_bias():
    bases, elems = np.divmod(_setting_draws((0.8, 0.1, 0.1), 2, 4000, seed=1), 2)
    assert abs(np.mean(bases == 0) - 0.8) < 0.03
    assert abs(np.mean(elems) - 0.5) < 0.03
    with pytest.raises(ConfigError):
        eb_config(basis_bias=(1.0,))


def test_alias_draw_follows_thresholds_and_skips_zero_weights():
    # Basis 1 has zero weight: its settings 3..5 must never be drawn.
    got = _setting_draws((0.5, 0.0, 0.3, 0.2), 3, 20_000, seed=2)
    assert got.max() == 11 and not np.isin(got, [3, 4, 5]).any()
    # At each slot's edge: the word just under the threshold gives the slot's
    # own position, the word at it gives the alias.
    table = _Alias(np.repeat(np.array([0.5, 0.0, 0.3, 0.2]) / 3, 3))
    slots = np.arange(len(table.thr))
    base = slots.astype(np.uint64) << np.uint64(table.shift)
    low = table.thr.astype(np.uint64) << np.uint64(2)  # thresholds in low-bit units
    part = (table.thr > 0) & (table.thr < table.unit)
    assert part.any() and (table.thr[len(table.index):] == 0).all()
    assert np.array_equal(table.draw(base[part] + low[part] - np.uint64(1)), slots[part])
    assert np.array_equal(table.draw(base[part] + low[part]), table.alias[part])
    full = table.thr == table.unit
    top = np.uint64((1 << table.shift) - 1)
    assert np.array_equal(table.draw(base[full] + top), slots[full])
    empty = table.thr == 0
    assert np.array_equal(table.draw(base[empty]), table.alias[empty])


def _vose_loop(q, unit):
    """Vose's sweep one small at a time: the oracle for _Alias's cumsum form."""
    q = [int(x) for x in q]
    thr, alias = q[:], list(range(len(q)))
    smalls = [i for i in range(len(q)) if q[i] < unit]
    larges = [i for i in range(len(q)) if q[i] >= unit]
    si = li = 0
    pending = None  # a large that fell below one slot, lent to by the next large
    while li < len(larges):
        lender = larges[li]
        if pending is not None:
            s, pending = pending, None
        elif si < len(smalls):
            s, si = smalls[si], si + 1
        else:
            break
        thr[s], alias[s] = q[s], lender
        q[lender] -= unit - q[s]
        if q[lender] < unit:
            pending, li = lender, li + 1
    if pending is None:
        thr[lender] = q[lender]
    return thr, alias


@pytest.mark.parametrize("kind", ["uniform", "heavy", "equal", "sparse", "single"])
def test_alias_sweep_matches_one_at_a_time_loop(kind):
    rng = np.random.default_rng(len(kind))
    for n in (1, 2, 3, 5, 64, 100, 777):
        w = {
            "uniform": rng.random(n),
            "heavy": rng.exponential(size=n) ** 6,
            "equal": np.ones(n),
            "sparse": np.where(rng.random(n) < 0.7, 0.0, rng.random(n)),
            "single": np.eye(n)[n // 2],
        }[kind]
        if not w.any():
            w[0] = 1.0
        table = _Alias(w)
        units = np.rint(w[table.index] / w[table.index].sum() * 2.0**62).astype(np.int64)
        units[np.argmax(units)] += 2**62 - units.sum()
        padded = np.zeros(len(table.thr), dtype=np.int64)
        padded[: len(units)] = units
        thr, alias = _vose_loop(padded, table.unit)
        assert table.thr.tolist() == thr and table.alias.tolist() == alias


def _category_probs(cfg, mubs):
    """p(s_a) p(s_b) x pattern probability of the routing-weighted click table over (cell, pattern), normalized."""
    weights, table = _click_table(cfg, mubs)
    p_a, p_b, p_ab = (weights / weights.sum()) @ table
    p_s = np.repeat(np.asarray(cfg.basis_bias) / cfg.dim, cfg.dim)
    p_cell = np.outer(p_s, p_s).ravel()
    patterns = [1.0 - p_a - p_b + p_ab, p_a - p_ab, p_b - p_ab, p_ab]
    w = np.stack(patterns, axis=-1) * p_cell[:, None]
    return w / w[w > 0].sum()


@pytest.mark.parametrize("mode", ["eb", "pm"])
@pytest.mark.parametrize("d", [2, 3, 7])
def test_alias_table_reproduces_category_probabilities(d, mode):
    rng = np.random.default_rng(40 + d)
    table = EfficiencyTable(
        dim=d, eta_a=rng.uniform(0.3, 1.0, (d + 1, d)), eta_b=rng.uniform(0.3, 1.0, (d + 1, d))
    )
    common = dict(dim=d, seed=1, rounds=10, efficiencies=table)
    if mode == "eb":
        cfg = eb_config(visibility=0.9, **common)
    else:
        cfg = ProtocolConfig(mode="pm", flip_prob=0.1, **common)
    mubs = mub_set(d)
    cats = _RoundKernel(cfg, mubs).cats
    # Each slot gives thr units to its own position and the rest to its alias.
    implied = cats.thr.copy()
    np.add.at(implied, cats.alias, cats.unit - cats.thr)
    assert implied.sum() == 2**62
    assert not implied[len(cats.index) :].any()  # padding slots are never drawn
    want = _category_probs(cfg, mubs).ravel()
    assert np.array_equal(cats.index, np.flatnonzero(want > 0))
    np.testing.assert_allclose(implied[: len(cats.index)] / 2.0**62, want[cats.index],
                               rtol=0, atol=1e-15)


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


def test_pm_effective_overlaps_flip_matches_per_element_loop():
    d, p = 5, 0.3
    mubs = mub_set(d)
    mats = [np.column_stack([k.amplitudes for k in b.vectors]) for b in mubs.bases]
    ov = np.empty((d + 1, d, d + 1, d))
    for i in range(d + 1):
        for j in range(d + 1):
            ov[i, :, j, :] = np.abs(mats[i].conj().T @ mats[j]) ** 2
    flipped = np.empty_like(ov)
    for k in range(d):
        others = [k2 for k2 in range(d) if k2 != k]
        flipped[:, k] = np.mean(ov[:, others], axis=1)
    want = (1.0 - p) * ov + p * flipped
    assert np.max(np.abs(pm_effective_overlaps(mubs, flip_prob=p) - want)) < 1e-15


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
    cfg = eb_config(rounds=3 * EB_CHUNK_ROUNDS + 123, seed=50)
    mubs = mub_set(2)
    one = run_eb_session(cfg, mubs, workers=1, keep_full_log=False)
    four = run_eb_session(cfg, mubs, workers=4, keep_full_log=False)
    assert np.array_equal(one.counts.singles_a, four.counts.singles_a)
    assert np.array_equal(one.counts.singles_b, four.counts.singles_b)
    assert np.array_equal(one.counts.coincidences, four.counts.coincidences)
    assert np.array_equal(one.log, four.log)


def test_no_worker_count_starts_a_thread(monkeypatch, tmp_path):
    # Every chunk runs in the calling thread, at any worker count.
    def refuse(thread):
        raise AssertionError(f"{thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    rounds = 3 * CHUNK_ROUNDS + 5
    cfg = ProtocolConfig(dim=3, mode="pm", rounds=rounds, seed=71)
    mubs = mub_set(3)
    four = run_pm_session(cfg, mubs, workers=4, keep_full_log=True)
    assert four.log.tobytes() == run_pm_session(cfg, mubs, workers=1, keep_full_log=True).log.tobytes()
    assert cli_dispatch([
        "simulate", "--mode", "pm", "--dim", "3", "--rounds", str(rounds), "--seed", "71",
        "--workers", "4", "--out", str(tmp_path / "c.csv"), "--log", str(tmp_path / "rounds.csv"),
    ]) == 0


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_below_one_is_rejected(workers):
    cfg = eb_config(rounds=1000, seed=50)
    with pytest.raises(ConfigError, match="worker"):
        run_eb_session(cfg, mub_set(2), workers=workers)


def test_threaded_stream_under_frequent_thread_switches():
    # A session on a thread of its own under a tiny switch interval: a
    # generator or scratch shared between threads, or chunks out of order,
    # would change the log.
    cfg = ProtocolConfig(dim=3, mode="pm", rounds=9 * CHUNK_ROUNDS + 5, seed=70)
    mubs = mub_set(3)
    want = run_pm_session(cfg, mubs, keep_full_log=True)
    got = []
    worker = threading.Thread(
        target=lambda: got.append(run_pm_session(cfg, mubs, workers=5, keep_full_log=True)),
        daemon=True,
    )
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not worker.is_alive()
    assert got[0].log.tobytes() == want.log.tobytes()
    assert np.array_equal(got[0].counts.coincidences, want.counts.coincidences)


def _every_draw(rng):
    """Each kind of draw the round kernel and the estimate make, in one sequence."""
    return [
        rng.binomial(CHUNK_ROUNDS, 0.05),
        rng.multinomial(3000, [0.2, 0.3, 0.5]),
        rng.bit_generator.random_raw(5),
        rng.choice(CHUNK_ROUNDS, 1000, replace=False),  # Floyd's: k <= N / 50
        rng.choice(CHUNK_ROUNDS, 3000, replace=False),  # a tail shuffle of arange(N)
        rng.choice(EB_CHUNK_ROUNDS, 5242, replace=False),  # Floyd's, at an EB chunk's N
        rng.choice(EB_CHUNK_ROUNDS, 5243, replace=False),  # a tail shuffle of arange(N)
        rng.integers(CHUNK_ROUNDS, size=7),
        rng.integers(CHUNK_ROUNDS, size=5, dtype=np.uint16),
        rng.integers(CHUNK_ROUNDS, size=5, dtype=np.uint32),
    ]


def _reused_streams_match_fresh_ones():
    for seed, chunk in ((0, 0), (7, 3), (2**64 - 1, 122)):
        left = _chunk_rng(1, 1)
        left.integers(10, size=3, dtype=np.uint32)  # an odd number of 32-bit words
        assert left.bit_generator.state["has_uint32"] == 1
        assert left.bit_generator.state["buffer_pos"] < 4
        fresh = np.random.Generator(np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64)))
        want = _every_draw(fresh)
        got = _every_draw(_chunk_rng(seed, chunk))
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
    return _chunk_rng(0, 0)


def test_chunk_rng_reuse_matches_a_fresh_philox():
    # The thread's generator is reset on every call, so a buffered word or
    # half-word from the last chunk must not leak into the next.
    mine = _reused_streams_match_fresh_ones()
    other = []
    worker = threading.Thread(target=lambda: other.append(_reused_streams_match_fresh_ones()))
    worker.start()
    worker.join(timeout=60)
    assert len(other) == 1 and other[0] is not mine  # one generator per thread
    assert _chunk_rng(0, 0) is mine


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("keep_full", [False, True])
@pytest.mark.parametrize("mode", ["eb", "pm"])
def test_chunk_rows_may_be_kept_without_a_copy(mode, keep_full, workers):
    # Seven chunks and a partial one: no chunk may write over rows handed on earlier.
    rounds = 7 * (EB_CHUNK_ROUNDS if mode == "eb" else CHUNK_ROUNDS) + 11
    if mode == "eb":
        cfg = eb_config(dim=3, rounds=rounds, seed=62, visibility=0.9)
        run = run_eb_session
    else:
        cfg = ProtocolConfig(dim=3, mode="pm", rounds=rounds, seed=62, flip_prob=0.05)
        run = run_pm_session
    mubs = mub_set(3)
    kernel, kept = _RoundKernel(cfg, mubs), []
    _run_chunked(cfg, kernel, workers, keep_full, lambda c, at, cat: kept.append(kernel.place(c, at, cat)))
    joined = np.concatenate([rows.view(np.uint8) for rows in kept])
    assert joined.tobytes() == run(cfg, mubs, keep_full_log=keep_full).log.tobytes()


class _StarvedKernel(_RoundKernel):
    """Expects no coincidences: the coincident log starts with room for one row."""

    def __init__(self, cfg, mubs):
        super().__init__(cfg, mubs)
        self.coinc_rate = 0.0


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("mode", ["eb", "pm"])
def test_coincident_log_that_outgrows_its_room_keeps_every_row(monkeypatch, mode, workers):
    rounds = 5 * CHUNK_ROUNDS + 123  # the last chunk is partial
    if mode == "eb":
        cfg, run = eb_config(dim=3, rounds=rounds, seed=64, visibility=0.9), run_eb_session
    else:
        cfg = ProtocolConfig(dim=3, mode="pm", rounds=rounds, seed=64, flip_prob=0.05)
        run = run_pm_session
    mubs = mub_set(3)
    roomy = run(cfg, mubs, workers=workers)
    # Room for the expected rows plus 8 standard deviations: no growth here.
    m = rounds * _RoundKernel(cfg, mubs).coinc_rate
    assert len(roomy.log.base) == int(m + 8 * np.sqrt(m)) + 1 > len(roomy.log)
    monkeypatch.setattr(protocol, "_RoundKernel", _StarvedKernel)
    grown = run(cfg, mubs, workers=workers)
    assert len(grown.log) > 1  # from room for one row, it grew
    assert grown.log.tobytes() == roomy.log.tobytes()
    for name in ("singles_a", "singles_b", "coincidences"):
        assert np.array_equal(getattr(grown.counts, name), getattr(roomy.counts, name))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", ["eb", "pm"])
def test_full_log_changes_neither_counts_nor_coincident_rows(mode, workers):
    rounds = 2 * (EB_CHUNK_ROUNDS if mode == "eb" else CHUNK_ROUNDS) + 1000  # the last chunk is partial
    if mode == "eb":
        cfg = eb_config(dim=3, rounds=rounds, seed=61, visibility=0.9)
        run = run_eb_session
    else:
        cfg = ProtocolConfig(dim=3, mode="pm", rounds=rounds, seed=61, flip_prob=0.05)
        run = run_pm_session
    mubs = mub_set(3)
    short = run(cfg, mubs, workers=workers)
    full = run(cfg, mubs, workers=workers, keep_full_log=True)
    bare = _run_chunked(cfg, _RoundKernel(cfg, mubs), workers, False, None)  # no rows at all
    for name in ("singles_a", "singles_b", "coincidences"):
        assert np.array_equal(getattr(short.counts, name), getattr(full.counts, name))
        assert np.array_equal(getattr(bare, name), getattr(full.counts, name))
    assert short.log_scope == "coincident" and full.log_scope == "full"
    assert np.array_equal(full.log["round"], np.arange(rounds))
    assert short.log.tobytes() == full.log[full.log["coincidence"]].tobytes()
    # Every round of the full log, with or without a pair, follows the bias.
    for field in ("basis_a", "basis_b"):
        frac = np.mean(full.log[field] == 0)
        assert abs(frac - 0.9) < 5 * np.sqrt(0.9 * 0.1 / rounds)


def _uneven_config(d, mode):
    rng = np.random.default_rng(d)
    table = EfficiencyTable(
        dim=d,
        eta_a=rng.uniform(0.3, 0.9, (d + 1, d)),
        eta_b=rng.uniform(0.3, 0.9, (d + 1, d)),
    )
    weights = np.linspace(1.0, 3.0, d + 1)
    common = dict(dim=d, seed=17, efficiencies=table,
                  basis_bias=tuple(weights / weights.sum()))
    if mode == "eb":
        return eb_config(rounds=4_000_000, visibility=0.9, **common)
    return ProtocolConfig(mode="pm", rounds=1_000_000, flip_prob=0.1, **common)


@pytest.mark.parametrize("mode", ["eb", "pm"])
@pytest.mark.parametrize("d", [2, 5, 7])
def test_counts_fit_model_with_uneven_efficiencies_and_bias(d, mode):
    cfg, mubs = _uneven_config(d, mode), mub_set(d)
    got = (run_eb_session if mode == "eb" else run_pm_session)(cfg, mubs).counts
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


def _per_mode_expectations(cfg, mubs):
    """The per-mode closed forms of the expected singles and coincidences."""
    d, n_b = cfg.dim, cfg.dim + 1
    bias = np.asarray(cfg.basis_bias)
    p_setting = np.einsum(
        "i,j->ij", np.repeat(bias / d, d), np.repeat(bias / d, d)
    ).reshape(n_b, d, n_b, d)
    eta_a = np.asarray(cfg.efficiencies.eta_a)[:, :, None, None]
    eta_b = np.asarray(cfg.efficiencies.eta_b)[None, None, :, :]
    if cfg.mode == "eb":
        # The flip channel acts on the pair as white noise: v_eff = v (1 - f d / (d - 1)).
        v_eff = cfg.visibility * (1.0 - cfg.flip_prob * d / (d - 1))
        cells = d * joint_prob_matrix(isotropic_state(d, v_eff), mubs).probs
        pair = cfg.source.pair_prob
        singles_a = cfg.rounds * p_setting * pair * eta_a / 2.0
        singles_b = cfg.rounds * p_setting * pair * eta_b / 2.0
        coinc = cfg.rounds * p_setting * pair * eta_a * eta_b * cells / 4.0
    else:
        # White noise at the visibility after the flip channel.
        v = cfg.visibility
        cells = v * pm_effective_overlaps(mubs, cfg.flip_prob) + (1.0 - v) / d
        singles_a = cfg.rounds * p_setting
        coinc = singles_a * eta_b * cells
        singles_b = coinc.copy()
    return singles_a, singles_b, coinc


@pytest.mark.parametrize("mode", ["eb", "pm"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_expected_counts_match_per_mode_closed_forms(d, mode):
    # The kernel and expected_count_matrix read one click table, so the fit
    # test above cannot see an error in the table itself; this oracle can.
    rng = np.random.default_rng(100 + d)
    table = EfficiencyTable(
        dim=d,
        eta_a=rng.uniform(0.3, 1.0, (d + 1, d)),
        eta_b=rng.uniform(0.3, 1.0, (d + 1, d)),
    )
    weights = np.linspace(1.0, 3.0, d + 1)
    common = dict(dim=d, seed=3, rounds=1_000_000, efficiencies=table,
                  basis_bias=tuple(weights / weights.sum()))
    # Each mode also sets the other mode's noise field: both act in both.
    if mode == "eb":
        cfg = eb_config(visibility=0.9, flip_prob=0.05, **common)
    else:
        cfg = ProtocolConfig(mode="pm", flip_prob=0.1, visibility=0.95, **common)
    mubs = mub_set(d)
    got = expected_count_matrix(cfg, mubs)
    for obs, want in zip((got.singles_a, got.singles_b, got.coincidences),
                         _per_mode_expectations(cfg, mubs)):
        np.testing.assert_allclose(obs, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("mode", ["eb", "pm"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_noiseless_tables_have_no_same_basis_mismatch_coincidence(d, mode):
    # Exact zeros stay zeros: no rounding noise may become a drawable category.
    cfg = eb_config(dim=d) if mode == "eb" else ProtocolConfig(dim=d, mode="pm", rounds=10, seed=0)
    kernel = _RoundKernel(cfg, mub_set(d))
    cell, pat = np.unravel_index(kernel.cats.index, kernel.table.shape)
    n_s = (d + 1) * d
    (basis_a, elem_a), (basis_b, elem_b) = np.divmod(cell // n_s, d), np.divmod(cell % n_s, d)
    assert (pat == 3).any()
    assert not ((pat == 3) & (basis_a == basis_b) & (elem_a != elem_b)).any()


@pytest.mark.parametrize("mode", ["eb", "pm"])
def test_basis_set_of_wrong_dimension_is_rejected(mode):
    cfg = eb_config(dim=3) if mode == "eb" else ProtocolConfig(dim=3, mode="pm", rounds=10, seed=0)
    run = run_eb_session if mode == "eb" else run_pm_session
    with pytest.raises(DimensionError):
        expected_count_matrix(cfg, mub_set(2))
    with pytest.raises(DimensionError):
        run(cfg, mub_set(2))


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
    size = _RoundKernel(eb_config(seed=9), mubs).chunk_rounds
    assert size == EB_CHUNK_ROUNDS
    for rounds in (1, CHUNK_ROUNDS - 1, CHUNK_ROUNDS, CHUNK_ROUNDS + 1, size - 1, size, size + 1):
        cfg = eb_config(rounds=rounds, seed=9)
        session = run_eb_session(cfg, mubs)
        total_a = session.counts.singles_a.sum()
        assert total_a <= rounds
    # The first `rounds` draws agree regardless of where the chunk ends.
    small = run_eb_session(eb_config(rounds=100, seed=9), mubs, keep_full_log=True)
    big = run_eb_session(eb_config(rounds=size + 100, seed=9), mubs,
                         keep_full_log=True)
    assert np.array_equal(small.log, big.log[:100])


def _gap_kernel(pair_prob, seed=31):
    source = SourceParams(pulses=0, alpha_sq=2 * pair_prob, chi=0.5)
    return _RoundKernel(eb_config(seed=seed, source=source), mub_set(2))


@pytest.mark.parametrize("seed", [None, 1])  # None: the helper's default seed
@pytest.mark.parametrize("pair_prob", [1e-6, 0.05, 0.0999])
def test_eb_draw_is_a_prefix_of_the_whole_chunk(pair_prob, seed):
    kernel = _gap_kernel(pair_prob, seed=31 if seed is None else seed)
    buf = kernel.buffer()
    assert buf.size == 0  # EB needs no draw buffer
    size, empty_chunks = kernel.chunk_rounds, 0
    for chunk in range(20):
        full_rows, full_v = kernel.draw(chunk, size, buf)
        assert full_v.shape == (len(full_rows),)
        assert np.all(np.diff(full_rows) > 0)
        assert len(full_rows) == 0 or 0 <= full_rows[0] <= full_rows[-1] < size
        empty_chunks += len(full_rows) == 0
        for n in (1, 1000, CHUNK_ROUNDS - 1, size - 1):
            rows, v = kernel.draw(chunk, n, buf)
            k = np.searchsorted(full_rows, n)
            assert np.array_equal(rows, full_rows[:k])
            assert np.array_equal(v, full_v[:k]) and v.shape == (k,)
    if pair_prob < 1e-3:
        assert empty_chunks > 0


def test_eb_created_rounds_are_binomial_and_evenly_spread():
    p, n_chunks, bins = 0.05, 200, 16
    kernel = _gap_kernel(p, seed=77)
    buf, size = kernel.buffer(), kernel.chunk_rounds
    per_bin = np.zeros(bins, dtype=np.int64)
    for c in range(n_chunks):
        rows, _ = kernel.draw(c, size, buf)
        per_bin += np.bincount(rows // (size // bins), minlength=bins)
    total = per_bin.sum()
    mean = n_chunks * size * p
    assert abs(total - mean) < 5 * np.sqrt(mean * (1 - p))
    chi2 = ((per_bin - total / bins) ** 2 / (total / bins)).sum()
    assert chi2 < 50  # 15 degrees of freedom: exceeded with probability 1.2e-5


@pytest.mark.parametrize("mode", ["eb", "pm"])
def test_full_log_rows_are_evenly_spread(mode):
    # The rows arrange a drawn tally: coincidences must spread evenly over the
    # chunk, and no category may depend on the round, coincident or not.
    if mode == "eb":  # d = 2: a multinomial tally and few coincidences per chunk
        cfg, n_chunks = eb_config(dim=2, seed=78, visibility=0.9), 40
    else:  # a third of the rounds coincide
        cfg, n_chunks = ProtocolConfig(dim=3, mode="pm", rounds=10, seed=78, flip_prob=0.3), 6
    kernel, bins = _RoundKernel(cfg, mub_set(cfg.dim)), 16
    assert kernel.probs is not None
    size = kernel.chunk_rounds
    at = np.arange(size) // (size // bins)
    coinc, errors, basis0 = np.zeros(bins), np.zeros(bins), np.zeros(bins)
    for c in range(n_chunks):
        log = kernel.place(c, *kernel._draw(c, size, "full")[1:])
        hit = log["coincidence"]
        wrong = hit & (log["basis_a"] == log["basis_b"]) & (log["elem_a"] != log["elem_b"])
        coinc += np.bincount(at, weights=hit, minlength=bins)
        errors += np.bincount(at, weights=wrong, minlength=bins)
        basis0 += np.bincount(at, weights=log["basis_a"] == 0, minlength=bins)

    def chi2(got, trials):
        # Binomial counts per bin against their pooled rate.
        p = got.sum() / trials.sum()
        want = trials * p
        return ((got - want) ** 2 / (want * (1 - p))).sum()

    # 15 degrees of freedom each: a limit of 50 is exceeded with probability 1.2e-5.
    rows = np.full(bins, n_chunks * size / bins)
    assert chi2(coinc, rows) < 50
    assert chi2(errors, coinc) < 50
    assert chi2(basis0, rows) < 50


@pytest.mark.parametrize("mode", ["eb", "pm"])
def test_sift_reads_the_same_entries_from_either_log(mode):
    rounds = 3 * CHUNK_ROUNDS + 7
    if mode == "eb":
        cfg, run = eb_config(dim=3, rounds=rounds, seed=63, visibility=0.9), run_eb_session
    else:
        cfg = ProtocolConfig(dim=3, mode="pm", rounds=rounds, seed=63, flip_prob=0.05)
        run = run_pm_session
    mubs = mub_set(3)
    short = sift(run(cfg, mubs))
    full = sift(run(cfg, mubs, keep_full_log=True))
    assert len(short) > 0
    assert short.entries.tobytes() == full.entries.tobytes()


@pytest.mark.parametrize("mode, d, multinomial", [
    ("eb", 2, True), ("eb", 5, False), ("eb", 7, False), ("pm", 2, True), ("pm", 7, True)])
def test_fit_test_covers_both_tally_methods(mode, d, multinomial):
    # A multinomial tally when the table has fewer than an eighth as many
    # categories as a chunk's expected candidates, else alias words.
    kernel = _RoundKernel(_uneven_config(d, mode), mub_set(d))
    assert (kernel.probs is not None) == multinomial


def test_one_arm_routing_never_produces_coincidences():
    # White-box kernel check: with perfect detectors, both photons in one arm
    # always click there; the other arm must stay silent.
    kernel = _RoundKernel(eb_config(rounds=10, seed=0), mub_set(2))
    n_cats = len(kernel.cats.index)
    drawn = np.zeros(3, dtype=np.int64)
    for chunk in range(100):
        _, v = kernel.draw(chunk, CHUNK_ROUNDS)
        arm, rows = kernel.route(v), kernel.rows[v % n_cats]
        assert not (kernel.coinc[v % n_cats] & (arm != 0)).any()  # no AA/BB coincidence
        assert rows["click_a"][arm == 1].all() and not rows["click_b"][arm == 1].any()
        assert rows["click_b"][arm == 2].all() and not rows["click_a"][arm == 2].any()
        drawn += np.bincount(arm, minlength=3)
    assert drawn.min() > 0


@pytest.mark.parametrize("mode", ["eb", "pm"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_kernel_table_gives_the_expected_counts(d, mode):
    # The tally draws from the arm-summed (cell, pattern) table that
    # expected_count_matrix reads: per candidate, times the pair probability
    # and the rounds, it is the expected singles and coincidences.
    noiseless = eb_config(dim=d) if mode == "eb" else ProtocolConfig(dim=d, mode="pm", rounds=10, seed=0)
    for cfg in (_uneven_config(d, mode), noiseless):
        mubs = mub_set(d)
        kernel = _RoundKernel(cfg, mubs)
        per = kernel.table * (kernel.pair * cfg.rounds)
        want = expected_count_matrix(cfg, mubs)
        atol = 4 * np.finfo(float).eps * kernel.pair * cfg.rounds  # cells that are 0 in theory
        for got, name in ((per[:, 1] + per[:, 3], "singles_a"), (per[:, 2] + per[:, 3], "singles_b"),
                          (per[:, 3], "coincidences")):
            np.testing.assert_allclose(got, getattr(want, name).ravel(), rtol=1e-14, atol=atol, err_msg=name)


def _arm_probs(cfg, mubs, index):
    """P(arm | cell, pattern) at each flat (cell, pattern) of index, from each arm's own click table."""
    weights, (p_a, p_b, p_ab) = _click_table(cfg, mubs)
    joint = weights[:, None, None] * np.stack([1.0 - p_a - p_b + p_ab, p_a - p_ab, p_b - p_ab, p_ab], axis=-1)
    joint = joint.reshape(len(weights), -1)[:, index]
    return joint / joint.sum(axis=0)


@pytest.mark.parametrize("mode", ["eb", "pm"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_draw_gives_each_candidate_an_arm_of_its_category(d, mode):
    # draw() picks a candidate's arm from P(arm | cell, pattern): a
    # coincidence only on AB, AA never clicks B, BB never clicks A, and over
    # 200 EB chunks the arms of each (cell, pattern) follow those
    # probabilities.  PM has one arm, so its chi2 has no degree of freedom
    # at any chunk count: 20 chunks check that every arm is 0.
    cfg = _uneven_config(d, mode)
    mubs = mub_set(d)
    kernel = _RoundKernel(cfg, mubs)
    n_cats, size = len(kernel.cats.index), kernel.chunk_rounds
    assert np.isfinite(kernel.arm_cut).all()
    arms = 3 if mode == "eb" else 1
    seen = np.zeros(arms * n_cats, dtype=np.int64)
    for chunk in range(200 if mode == "eb" else 20):
        _, v = kernel.draw(chunk, size)
        arm, rows = kernel.route(v), kernel.rows[v % n_cats]
        assert arm.max(initial=0) < arms
        assert (arm[rows["coincidence"]] == 0).all()
        assert not rows["click_b"][arm == 1].any() and not rows["click_a"][arm == 2].any()
        seen += np.bincount(v, minlength=arms * n_cats)
    seen = seen.reshape(arms, n_cats)
    p = _arm_probs(cfg, mubs, kernel.cats.index)
    assert not seen[p == 0].any()
    want = seen.sum(axis=0) * p
    free = (p > 0) & (want > 0)
    chi2 = ((seen[free] - want[free]) ** 2 / want[free]).sum()
    dof = free.sum() - np.count_nonzero(want.sum(axis=0))
    if mode == "pm":
        assert dof == 0 and chi2 == 0
        return
    assert (p[0, kernel.coinc] == 1).all() and dof > 0
    # Wilson-Hilferty: chi2 with dof degrees of freedom exceeds this with probability about 3e-7.
    assert chi2 < dof * (1 - 2 / (9 * dof) + 5 * np.sqrt(2 / (9 * dof))) ** 3


@pytest.mark.parametrize("mode", ["eb", "pm"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_draw_of_fewer_rounds_is_a_prefix(d, mode):
    # Each candidate's arm comes from its own uniform in round order, so a
    # shorter draw keeps the rounds, categories and arms of the whole chunk's.
    kernel = _RoundKernel(_uneven_config(d, mode), mub_set(d))
    size = kernel.chunk_rounds
    for chunk in (0, 9):
        full_rows, full_v = kernel.draw(chunk, size)
        for n in (1, 1000, size - 1):
            rows, v = kernel.draw(chunk, n)
            k = np.searchsorted(full_rows, n)
            assert np.array_equal(rows, full_rows[:k]) and np.array_equal(v, full_v[:k])


@pytest.mark.parametrize("mode", ["eb", "pm"])
def test_draw_hooks_take_at_most_one_chunk(mode):
    # A round past the chunk would read a category index that no draw wrote.
    kernel = _RoundKernel(_uneven_config(3, mode), mub_set(3))
    size = kernel.chunk_rounds
    hooks = [lambda n: kernel.draw(2, n)]
    hooks += [lambda n, rows=rows: kernel._draw(2, n, rows) for rows in (None, "coincident", "full")]
    for hook in hooks:
        hook(size)
        for n in (0, size + 1):
            with pytest.raises(ConfigError, match=f"rounds drawn from a chunk .*, got {n}"):
                hook(n)


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


@pytest.mark.parametrize("d", [2, 3, 7])
@pytest.mark.parametrize("mode", ["eb", "pm"])
def test_place_matches_a_by_name_oracle(mode, d):
    # Each placed row is kernel.rows[cat] field by field, at the chunk's
    # first round plus its own.  Chunks 2**16 + 3 and 2**20 put rounds past
    # 2**32; 1000 rounds end inside a chunk; the empty draws place no row.
    if mode == "eb":
        cfg = eb_config(dim=d, seed=66, visibility=0.9)
    else:
        cfg = ProtocolConfig(dim=d, mode="pm", rounds=10, seed=66, flip_prob=0.05)
    kernel = _RoundKernel(cfg, mub_set(d))
    size = kernel.chunk_rounds
    assert size == (EB_CHUNK_ROUNDS if mode == "eb" else CHUNK_ROUNDS)
    cases = []
    for chunk in (0, 5, 2**16 + 3, 2**20):
        for n in sorted({size, CHUNK_ROUNDS, 1000, 1}, reverse=True):
            for scope in ("coincident", "full"):
                cases.append((chunk, *kernel._draw(chunk, n, scope)[1:]))
    _, rounds, cat = kernel._draw(2**16 + 9, size, "coincident")
    for width in (np.int64, np.uint32):  # the sort key's two widths
        cases.append((2**16 + 9, rounds.astype(width), cat.astype(width)))
    cases.append((2**16 + 3, rounds[:0], cat[:0]))
    assert any(len(cat) == 0 for _, _, cat in cases)
    # Into slices of one log, between sentinel bytes that must survive.
    total = sum(len(cat) for _, _, cat in cases)
    log = np.empty(total + 2, dtype=LOG_DTYPE)
    log.view(np.uint8)[:] = 0xAB
    used = 1
    for chunk, rounds, cat in cases:
        got = kernel.place(chunk, rounds, cat, log[used:used + len(cat)])
        used += len(cat)
        assert got.tobytes() == kernel.place(chunk, rounds, cat).tobytes()  # a new array
        at = np.arange(len(cat)) if rounds is None else rounds.astype(np.int64)
        assert np.array_equal(got["round"], chunk * size + at)
        for name in LOG_DTYPE.names[1:]:
            assert np.array_equal(got[name], kernel.rows[name][cat]), name
    assert log[-1].tobytes() == log[0].tobytes() == b"\xab" * LOG_DTYPE.itemsize
    assert log["round"][1:-1].max() > 2**36


def test_coincident_categories_fit_the_16_bit_sort_key(monkeypatch):
    # _draw packs each coincident category position beside its round in 16
    # bits.  The table is over (cell, pattern): at most 4 (d + 1)^2 d^2 positions.
    d = 7
    kernel = _RoundKernel(_uneven_config(d, "eb"), mub_set(d))
    pos = np.flatnonzero(kernel.coinc)
    assert len(pos) > 0 and kernel.table.shape == (((d + 1) * d) ** 2, 4)
    assert pos[-1] < 4 * ((d + 1) * d) ** 2 < 2**16
    assert 4 * ((_MAX_DIM + 1) * _MAX_DIM) ** 2 == 48400 < 2**16

    class Padded(_Alias):
        """2**16 more categories (of pattern 0) before the table's own."""

        def __init__(self, weights):
            super().__init__(weights)
            self.index = np.concatenate([np.zeros(1 << 16, dtype=self.index.dtype), self.index])

    monkeypatch.setattr(protocol, "_Alias", Padded)
    with pytest.raises(ConfigError, match="last coincident category"):
        _RoundKernel(_uneven_config(d, "eb"), mub_set(d))


_SIFT_SOURCES = (("round", "round"), ("basis", "basis_a"), ("elem_a", "elem_a"), ("elem_b", "elem_b"))


def test_sift_entry_is_the_head_of_a_log_row():
    # sift copies the first SIFT_DTYPE.itemsize bytes of each kept log row.
    assert SIFT_DTYPE.names == tuple(name for name, _ in _SIFT_SOURCES)
    for name, source in _SIFT_SOURCES:
        assert SIFT_DTYPE.fields[name] == LOG_DTYPE.fields[source]
    assert SIFT_DTYPE.itemsize == sum(SIFT_DTYPE[name].itemsize for name in SIFT_DTYPE.names)


@pytest.mark.parametrize("keep_full", [False, True])
@pytest.mark.parametrize("mode", ["eb", "pm"])
def test_sift_entries_match_a_by_name_oracle(mode, keep_full):
    rounds = 2 * CHUNK_ROUNDS + 4321  # the last chunk is partial
    if mode == "eb":
        cfg, run = eb_config(dim=3, rounds=rounds, seed=64, visibility=0.9), run_eb_session
    else:
        cfg = ProtocolConfig(dim=3, mode="pm", rounds=rounds, seed=64, flip_prob=0.05)
        run = run_pm_session
    session = run(cfg, mub_set(3), keep_full_log=keep_full)
    log = session.log
    assert log.dtype == LOG_DTYPE and log.flags.writeable
    rows = log[log["coincidence"] & (log["basis_a"] == log["basis_b"])]
    want = np.zeros(len(rows), dtype=SIFT_DTYPE)
    for name, source in _SIFT_SOURCES:
        want[name] = rows[source]
    got = sift(session).entries
    assert len(got) > 0 and got.dtype == SIFT_DTYPE
    assert got.tobytes() == want.tobytes()


def _traced_peak(fn):
    """fn's result and the most memory traced at once while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_key_material_chain_holds_little_beside_its_outputs():
    # Each step's peak over the size of what it returns.  A second copy of
    # the log at the end of the session, a copy of the kept log rows in
    # sift or an index of the remaining entries in the estimate each adds
    # at least 0.7 of the output and breaks its bound.
    cfg = ProtocolConfig(dim=3, mode="pm", rounds=1_000_000, seed=65, flip_prob=0.05)
    mubs = mub_set(3)
    session, peak = _traced_peak(lambda: run_pm_session(cfg, mubs))
    assert peak < 1.8 * session.log.nbytes
    sifted, peak = _traced_peak(lambda: sift(session))
    assert peak < 1.5 * sifted.entries.nbytes
    est, peak = _traced_peak(lambda: estimate_parameters(sifted, 0.1, np.random.default_rng(5)))
    assert peak < 1.75 * est.remaining.entries.nbytes


@pytest.mark.parametrize("fraction", [0.1, 0.3])
def test_estimate_drops_its_sample_before_copying_the_remaining_entries(fraction):
    # Peak over the remaining entries' bytes: about 1.10 with the sample and
    # its cell index freed before that copy, 1.40 (1.90 at fraction 0.3) with
    # them alive beside it.
    cfg = ProtocolConfig(dim=3, mode="pm", rounds=1_000_000, seed=65, flip_prob=0.05)
    sifted = sift(run_pm_session(cfg, mub_set(3)))
    est, peak = _traced_peak(lambda: estimate_parameters(sifted, fraction, np.random.default_rng(5)))
    assert peak < 1.25 * est.remaining.entries.nbytes


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

    chosen = _oracle_sacrificed(len(sifted), 0.1, np.random.default_rng(4))
    est = estimate_parameters(sifted, 0.1, np.random.default_rng(4))
    kept = np.delete(sifted.entries, np.flatnonzero(chosen))
    assert est.remaining.entries.tobytes() == kept.tobytes()
    assert est.remaining.alice_key == _oracle_key(kept["elem_a"])
    assert est.remaining.bob_key == _oracle_key(kept["elem_b"])


def test_key_strings_reject_multi_digit_symbols():
    # No config reaches d = 11, so hand-built sifted data reaches the key string check.
    with pytest.raises(ConfigError):
        ProtocolConfig(dim=11, mode="pm", rounds=10, seed=0)
    sifted = SiftedData(dim=11, entries=np.zeros(4, dtype=SIFT_DTYPE))
    with pytest.raises(DimensionError):
        estimate_parameters(sifted, 0.5, np.random.default_rng(0)).remaining.alice_key


def test_hand_built_sifted_data_reads_keys_from_entries():
    entries = np.zeros(3, dtype=SIFT_DTYPE)
    entries["elem_a"], entries["elem_b"] = [4, 0, 2], [4, 1, 3]
    sifted = SiftedData(dim=5, entries=entries)
    assert (sifted.alice_key, sifted.bob_key) == ("402", "413")
    assert sifted.alice_key == _oracle_key(entries["elem_a"])


@pytest.mark.parametrize("name, value", [("elem_a", 3), ("elem_b", 3), ("basis", 4)])
def test_sifted_data_rejects_out_of_range_entries(name, value):
    entries = np.zeros(4, dtype=SIFT_DTYPE)
    entries[name][2] = value
    with pytest.raises(DimensionError, match=f"sifted {name}"):
        SiftedData(dim=3, entries=entries)
    entries[name][2] = value - 1  # the largest value in range
    assert len(SiftedData(dim=3, entries=entries)) == 4


def test_estimate_parameters_samples_at_least_one_symbol():
    entries = np.zeros(1, dtype=SIFT_DTYPE)
    entries["basis"], entries["elem_a"], entries["elem_b"] = 2, 1, 0
    sifted = SiftedData(dim=3, entries=entries)
    est = estimate_parameters(sifted, 0.01, np.random.default_rng(0))
    assert est.sampled_rounds == 1 and len(est.remaining) == 0
    assert est.q_by_basis == (None, None, 1.0, None) and est.q_average == 1.0


def _oracle_sacrificed(n, fraction, rng):
    """Mask of the sacrificed entries, drawn one set of positions at a time.

    Uniform positions are drawn until the smaller side, the k sacrificed
    entries or the n - k kept ones, has that many distinct positions.
    """
    k = max(1, int(fraction * n))
    kept = 2 * k > n
    want = n - k if kept else k
    marked = set()
    while len(marked) < want:
        marked.update(rng.integers(n, size=want - len(marked)).tolist())
    mask = np.zeros(n, dtype=bool)
    mask[list(marked)] = True
    return ~mask if kept else mask


def _oracle_q_by_basis(sifted, fraction, rng):
    """The per-basis loop the one-bincount tally replaced."""
    sample = np.compress(_oracle_sacrificed(len(sifted), fraction, rng), sifted.entries)
    q_by_basis = []
    for basis in range(sifted.dim + 1):
        rows = sample[sample["basis"] == basis]
        if len(rows) == 0:
            q_by_basis.append(None)
        else:
            q_by_basis.append(float(np.mean(rows["elem_a"] != rows["elem_b"])))
    return tuple(q_by_basis)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_estimate_matches_per_basis_loop_oracle(d):
    # A strong basis-0 bias leaves few sampled rounds in the other bases,
    # and a tiny fraction leaves some of them without any.
    cfg = ProtocolConfig(dim=d, mode="pm", rounds=60_000, seed=d, flip_prob=0.2,
                         basis_bias=default_basis_bias(d, 0.05))
    sifted = sift(run_pm_session(cfg, mub_set(d)))
    for fraction in (0.002, 0.1, 0.5, 0.9):
        est = estimate_parameters(sifted, fraction, np.random.default_rng(9))
        want = _oracle_q_by_basis(sifted, fraction, np.random.default_rng(9))
        assert est.q_by_basis == want
        assert est.q_average == float(np.mean([q for q in want if q is not None]))
    assert None in _oracle_q_by_basis(sifted, 0.002, np.random.default_rng(9))


def _inclusion_chi2(counts, trials, k):
    """Pearson's statistic of per-position inclusion counts of uniform k-subsets."""
    p = k / len(counts)
    return (((counts - trials * p) ** 2) / (trials * p * (1 - p))).sum()


def test_mark_draws_uniform_subsets_of_the_unmarked():
    # 40 of 200 entries start marked; each draw marks 48 of the other 160.
    # The statistic is about 160/159 chi-square with 159 degrees of freedom,
    # which exceeds 249 with probability 1e-5.
    rng, trials, pre = np.random.default_rng(31), 3000, np.arange(0, 200, 5)
    counts = np.zeros(200, dtype=np.int64)
    for _ in range(trials):
        taken = np.zeros(200, dtype=bool)
        taken[pre] = True
        _mark(rng, taken, 48)
        assert np.count_nonzero(taken) == 88 and taken[pre].all()
        counts += taken
    assert (counts[pre] == trials).all()
    assert _inclusion_chi2(np.delete(counts, pre), trials, 48) < 249


@pytest.mark.parametrize("fraction", [0.3, 0.8])
def test_estimate_sample_is_a_uniform_subset(fraction):
    # 0.8 marks the 40 kept entries and samples the rest.  199 degrees of
    # freedom: the statistic exceeds 298 with probability 1e-5.
    n, trials = 200, 3000
    k = int(fraction * n)
    entries = np.zeros(n, dtype=SIFT_DTYPE)
    entries["round"] = np.arange(n)
    sifted = SiftedData(dim=2, entries=entries)
    rng = np.random.default_rng(32)
    counts = np.full(n, trials, dtype=np.int64)
    for _ in range(trials):
        est = estimate_parameters(sifted, fraction, rng)
        assert est.sampled_rounds == k and len(est.remaining) == n - k
        counts[est.remaining.entries["round"]] -= 1
    assert counts.sum() == trials * k
    assert _inclusion_chi2(counts, trials, k) < 298


def test_estimate_near_one_samples_exactly_k():
    n = 100_003
    entries = np.zeros(n, dtype=SIFT_DTYPE)
    entries["round"] = np.arange(n)
    est = estimate_parameters(SiftedData(dim=2, entries=entries), 0.99, np.random.default_rng(33))
    k = int(0.99 * n)
    assert est.sampled_rounds == k and len(est.remaining) == n - k


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


def _overlaps_oracle(mubs, v):
    """v |<e_ik|e_jm>|^2 + (1 - v) / d from a Gram tensor built anew on each call."""
    d, n_b = mubs.dim, mubs.n_bases
    ov = np.abs(np.einsum("ikx,jmx->ikjm", mubs._stack.conj(), mubs._stack)) ** 2
    ov[range(n_b), :, range(n_b), :] = np.eye(d)
    return v * ov + (1.0 - v) / d


def _count_bytes(counts):
    return b"".join(getattr(counts, k).tobytes() for k in ("singles_a", "singles_b", "coincidences"))


def _vectorless(mubs):
    """The set with only its dimension and what it built: a call that rebuilds the Gram finds no vectors."""
    bare = object.__new__(type(mubs))
    bare.__dict__.update(dim=mubs.dim, _overlap=mubs._overlap, _report=mubs._report)
    return bare


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_overlaps_and_expected_counts_read_the_stored_tensor(d, tmp_path, monkeypatch):
    path = tmp_path / "bases.txt"
    save_bases(mub_set(d), path)
    pm = ProtocolConfig(dim=d, mode="pm", rounds=100_000, seed=1, flip_prob=0.05, visibility=0.9)
    eb = eb_config(dim=d, visibility=0.9)
    for mubs in (mub_set(d), load_bases(path)):
        got = [pm_effective_overlaps(mubs, 0.05), pm_effective_overlaps(mubs)]
        got += [_count_bytes(expected_count_matrix(cfg, mubs)) for cfg in (pm, eb)]
        bare = _vectorless(mubs)
        assert unbiasedness_report(bare) is mubs._report
        assert pm_effective_overlaps(bare, 0.05).tobytes() == got[0].tobytes()
        assert [_count_bytes(expected_count_matrix(cfg, bare)) for cfg in (pm, eb)] == got[2:]
        for cfg in (pm, eb):
            assert _RoundKernel(cfg, bare).table.tobytes() == _RoundKernel(cfg, mubs).table.tobytes()
        # The same bytes as the overlaps evaluated from a new Gram tensor.
        assert got[0].tobytes() == _overlaps_oracle(mubs, 1.0 - 0.05 * d / (d - 1)).tobytes()
        assert got[1].tobytes() == _overlaps_oracle(mubs, 1.0).tobytes()
        with monkeypatch.context() as m:
            m.setattr(protocol, "_overlaps", _overlaps_oracle)
            assert [_count_bytes(expected_count_matrix(cfg, mubs)) for cfg in (pm, eb)] == got[2:]
