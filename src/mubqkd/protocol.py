"""Session simulation for the entanglement-based and prepare-and-measure modes.

Each pump pulse is one protocol round.  Randomness is counter-based: the
rounds of chunk c = r // CHUNK_ROUNDS draw from the Philox stream keyed by
(seed, c), so chunks run on any worker and are handed on in chunk order
(_run_chunked).  One round kernel serves both modes and draws only what a
round reads (see _RoundKernel):

* EB: the created rounds are the ends of geometric gaps, one uniform per
  gap by inversion, drawn in batches of a size fixed by the pair
  probability until they pass the end of the whole chunk; then five
  uniforms (route, setting_a, setting_b, click_a, click_b) for each round
  that created a pair, in round order.
* PM: three uniforms per round (setting_a, setting_b, click_b).

A setting is one categorical draw over the (d + 1) * d (basis, element)
pairs.  The settings of EB rounds without a pair are drawn only for the
full log, from a separate sub-stream of the chunk, so the counts are the
same with and without it.

Entanglement-based rounds: a photon pair appears with probability
alpha_sq * chi and splits AB/AA/BB with probabilities (1/2, 1/4, 1/4).
_click_table gives the click probabilities per arm and setting pair, so
expected singles are N eta alpha_sq chi / 2 and expected coincidences are
N eta_a eta_b alpha_sq chi / 4 scaled by d times the joint outcome
probability of the isotropic state.  Same-arm pairs can produce singles
but never a coincidence.
"""

from __future__ import annotations

import queue
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Literal

import numpy as np

from .bases import MubSet, _gram
from .counts import _MAX_DIM, CountMatrix, _from_flat
from .errors import ConfigError, DimensionError
from .photonics import EfficiencyTable, SourceParams, pair_routing_probs
from .states import isotropic_state, joint_prob_matrix

CHUNK_ROUNDS = 1 << 16
FULL_LOG_WARN_ROUNDS = 10**7

LOG_DTYPE = np.dtype(
    [
        ("round", np.int64),
        ("basis_a", np.uint8),
        ("elem_a", np.uint8),
        ("basis_b", np.uint8),
        ("elem_b", np.uint8),
        ("click_a", np.bool_),
        ("click_b", np.bool_),
        ("coincidence", np.bool_),
    ]
)

SIFT_DTYPE = np.dtype(
    [
        ("round", np.int64),
        ("basis", np.uint8),
        ("elem_a", np.uint8),
        ("elem_b", np.uint8),
    ]
)


def default_basis_bias(d: int, epsilon: float = 0.1) -> tuple[float, ...]:
    """Favor basis 0 with weight 1 - epsilon; split the rest evenly."""
    if not 0.0 < epsilon < 1.0:
        raise ConfigError(f"epsilon must lie in (0, 1), got {epsilon}")
    return (1.0 - epsilon,) + (epsilon / d,) * d


def _check_bias(bias, n_bases: int) -> None:
    if len(bias) != n_bases:
        raise ConfigError(f"basis bias needs {n_bases} weights, got {len(bias)}")
    if not (min(bias) >= 0 and abs(sum(bias) - 1.0) <= 1e-12):  # also rejects NaN
        raise ConfigError("basis bias weights must be nonnegative and sum to 1")


@dataclass(frozen=True)
class ProtocolConfig:
    """Static description of one simulated session."""

    dim: int
    mode: Literal["eb", "pm"]
    rounds: int
    seed: int
    basis_bias: tuple[float, ...] | None = None
    visibility: float = 1.0
    flip_prob: float = 0.0
    source: SourceParams | None = None
    efficiencies: EfficiencyTable | None = None

    def __post_init__(self):
        if self.dim < 2:
            raise ConfigError(f"dimension must be at least 2, got {self.dim}")
        if self.mode not in ("eb", "pm"):
            raise ConfigError(f"mode must be 'eb' or 'pm', got {self.mode!r}")
        if self.rounds < 1:
            raise ConfigError(f"round count must be positive, got {self.rounds}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        bias = self.basis_bias
        if bias is None:
            bias = default_basis_bias(self.dim)
        bias = tuple(float(b) for b in bias)
        _check_bias(bias, self.dim + 1)
        object.__setattr__(self, "basis_bias", bias)
        if not 0.0 <= self.visibility <= 1.0:
            raise ConfigError(f"visibility must lie in [0, 1], got {self.visibility}")
        if not 0.0 <= self.flip_prob < 1.0:
            raise ConfigError(f"flip probability must lie in [0, 1), got {self.flip_prob}")
        if self.mode == "eb" and self.source is None:
            raise ConfigError("entanglement-based sessions need source parameters")
        eff = self.efficiencies
        if eff is None:
            eff = EfficiencyTable.uniform(self.dim)
        if eff.dim != self.dim:
            raise ConfigError(
                f"efficiency table dimension {eff.dim} does not match {self.dim}"
            )
        if not eff.complete:
            raise ConfigError("efficiency table is missing settings")
        object.__setattr__(self, "efficiencies", eff)


@dataclass(frozen=True, eq=False)
class SessionRecord:
    """Output of one simulated session.

    ``log`` holds per-round entries: every round when log_scope is
    "full", otherwise only the coincident rounds (which is all that
    sifting needs).
    """

    config: ProtocolConfig
    counts: CountMatrix
    log: np.ndarray
    log_scope: Literal["full", "coincident"]

    @property
    def dim(self) -> int:
        return self.config.dim


@dataclass(frozen=True, eq=False)
class SiftedData:
    """Same-basis coincident rounds with both raw keys as digit strings."""

    dim: int
    entries: np.ndarray
    alice_key: str
    bob_key: str

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ParameterEstimate:
    """Error rates from a sacrificed subsample plus the surviving key material."""

    q_by_basis: tuple
    q_average: float
    sampled_rounds: int
    remaining: SiftedData


def _setting_table(bias, d: int) -> np.ndarray:
    """Cumulative weights of the n_b * d settings, flat index basis * d + elem.

    Dividing by the last entry makes it exactly 1.0, so a uniform in [0, 1)
    never falls past the table, nor onto a trailing zero-weight setting.
    """
    cum = np.cumsum(np.repeat(np.asarray(bias, dtype=np.float64) / d, d))
    return cum / cum[-1]


def _draw_setting(table: np.ndarray, u):
    """Flat setting index for each uniform: one categorical draw per setting.

    Equals np.searchsorted(table, u, side="right").  Counting the
    thresholds at or below u is several times faster for tables this small.
    """
    u = np.asarray(u, order="C")  # one strided read, not one per threshold
    idx = np.zeros(u.shape, dtype=np.min_scalar_type(len(table)))
    for edge in table[:-1]:
        idx += u >= edge
    return idx


def _chunk_rng(seed: int, chunk: int, stream: int = 0) -> np.random.Generator:
    """Philox stream of one chunk; stream 1 is a disjoint sub-stream (top counter word)."""
    key = np.array([seed, chunk], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, stream]))


class _RoundKernel:
    """Lookup tables and the per-chunk round kernel shared by both modes.

    Only the draw and the click step depend on the mode; the draw layout
    is described in the module docstring.  The EB gaps always cover the
    whole chunk, in batches whose size depends only on the pair
    probability, so a round's variates do not depend on where the session
    ends.
    """

    def __init__(self, cfg: ProtocolConfig, mubs: MubSet):
        d, n_s = cfg.dim, (cfg.dim + 1) * cfg.dim
        self.seed, self.d, self.n_s = cfg.seed, d, n_s
        self.table = _setting_table(cfg.basis_bias, d)
        weights, (p_a, p_b, p_ab) = _click_table(cfg, mubs)
        # B's threshold per (arm, click_a, cell): P(B | not A), then P(B | A).
        # P(A) is 0 on BB and can be 1 on AA; the entry no round reads is 0.
        with np.errstate(divide="ignore", invalid="ignore"):
            not_a = np.where(p_a < 1.0, (p_b - p_ab) / (1.0 - p_a), 0.0)
            self.thr_b = np.stack([not_a, np.where(p_a > 0.0, p_ab / p_a, 0.0)], axis=1)
        if cfg.mode == "pm":
            # Alice always sends, so B's threshold is one flat lookup per cell.
            self.width, self.draw, self.clicks = 3, self._draw_pm, self._pm_clicks
            self.thr_b = self.thr_b[0, 1]
            return
        self.width, self.draw, self.clicks = 0, self._draw_eb, self._eb_clicks
        self.pair_prob = weights.sum()
        self.log_miss = np.log1p(-self.pair_prob)
        mean = CHUNK_ROUNDS * self.pair_prob
        self.batch = int(mean + 6.0 * np.sqrt(mean)) + 16  # one batch almost always covers a chunk
        self.route_table = np.cumsum(weights[:-1] / self.pair_prob)
        self.thr_a = p_a  # A's threshold per (arm, cell)

    def buffer(self) -> np.ndarray:
        """Scratch for one chunk's PM draw (empty in EB); each thread needs its own."""
        return np.empty(CHUNK_ROUNDS * self.width)

    def _draw_eb(self, chunk: int, n: int, buf: np.ndarray):
        """Created rounds of the chunk's first n and their (k, 5) variates."""
        rng = _chunk_rng(self.seed, chunk)
        parts, last = [], -1.0  # a first gap of g creates a pair in round g - 1
        while last < CHUNK_ROUNDS:
            # P(gap = g) = (1 - p)^(g - 1) p for g >= 1, by inversion.
            gaps = np.floor(np.log1p(-rng.random(self.batch)) / self.log_miss) + 1.0
            parts.append(np.cumsum(gaps) + last)
            last = parts[-1][-1]
        created = np.concatenate(parts)
        rows = created[: np.searchsorted(created, n)].astype(np.intp)
        return rows, rng.random((len(rows), 5))

    def _draw_pm(self, chunk: int, n: int, buf: np.ndarray):
        v = buf[: 3 * n].reshape(n, 3)
        _chunk_rng(self.seed, chunk).random(out=v)
        return np.arange(n), v

    def route(self, v: np.ndarray) -> np.ndarray:
        """Arm of each created pair: 0 AB, 1 AA, 2 BB (pair_routing_probs order)."""
        return np.searchsorted(self.route_table, v[:, 0], side="right")

    def _eb_clicks(self, v: np.ndarray):
        arm = self.route(v)
        s_a = _draw_setting(self.table, v[:, 1])
        s_b = _draw_setting(self.table, v[:, 2])
        cell = self.cell(s_a, s_b)
        click_a = v[:, 3] < self.thr_a[arm, cell]
        click_b = v[:, 4] < self.thr_b[arm, click_a.view(np.uint8), cell]
        return s_a, s_b, click_a, click_b

    def _pm_clicks(self, v: np.ndarray):
        s_a = _draw_setting(self.table, v[:, 0])
        s_b = _draw_setting(self.table, v[:, 1])
        click_b = v[:, 2] < self.thr_b[self.cell(s_a, s_b)]
        return s_a, s_b, np.ones(len(v), dtype=bool), click_b

    def cell(self, s_a: np.ndarray, s_b: np.ndarray) -> np.ndarray:
        return s_a.astype(np.intp) * self.n_s + s_b

    def run(self, chunk: int, n: int, keep_full: bool, buf: np.ndarray, dest: np.ndarray):
        """Tally one chunk and write its logged rounds to the front of dest.

        dest is a LOG_DTYPE block of at least n rows.  Returns (singles_a,
        singles_b, coincidences) over the flat cells and the rows written.
        """
        rows, v = self.draw(chunk, n, buf)
        s_a, s_b, click_a, click_b = self.clicks(v)
        # One pass over (cell, click pattern); pattern 3 is a coincidence.
        pattern = click_a + 2 * click_b.view(np.uint8)
        per = np.bincount(self.cell(s_a, s_b) * 4 + pattern, minlength=4 * self.n_s**2)
        per = per.reshape(-1, 4)
        tallies = (per[:, 1] + per[:, 3], per[:, 2] + per[:, 3], per[:, 3])

        if not keep_full:
            # Gathering by index is several times faster than boolean masking here.
            hit = np.flatnonzero(click_a & click_b)
            rows, s_a, s_b = rows[hit], s_a[hit], s_b[hit]
            click_a = click_b = True  # every kept round is a coincidence
        elif len(rows) < n:
            # EB rounds without a pair: settings from sub-stream 1, no clicks.
            idle = np.ones(n, dtype=bool)
            idle[rows] = False
            u = _chunk_rng(self.seed, chunk, stream=1).random((n - len(rows), 2))

            def spread(got, rest):
                x = np.empty(n, dtype=got.dtype)
                x[idle] = rest
                x[rows] = got
                return x

            s_a = spread(s_a, _draw_setting(self.table, u[:, 0]))
            s_b = spread(s_b, _draw_setting(self.table, u[:, 1]))
            click_a, click_b = spread(click_a, False), spread(click_b, False)
            rows = np.arange(n)
        block = dest[: len(rows)]
        np.add(rows, chunk * CHUNK_ROUNDS, out=block["round"])
        block["basis_a"], block["elem_a"] = np.divmod(s_a, self.d)
        block["basis_b"], block["elem_b"] = np.divmod(s_b, self.d)
        block["click_a"], block["click_b"] = click_a, click_b
        block["coincidence"] = click_a & click_b
        return tallies, len(rows)


def pm_effective_overlaps(mubs: MubSet, flip_prob: float = 0.0) -> np.ndarray:
    """|<filter|prep>|^2 for every setting pair, after the flip channel.

    With probability flip_prob the prepared state is replaced by a uniformly
    random other element of the same basis before Bob's filter.
    """
    ov = np.abs(_gram(mubs)) ** 2
    if flip_prob > 0.0:
        flipped = (ov.sum(axis=1, keepdims=True) - ov) / (mubs.dim - 1)
        ov = (1.0 - flip_prob) * ov + flip_prob * flipped
    return ov


def _click_table(cfg: ProtocolConfig, mubs: MubSet):
    """The source and detector model as (weights, table).

    weights[arm] is each arm's probability per round.  table[k, arm, cell],
    cell = s_a * n_s + s_b, is the probability that A clicks (k = 0), that
    B clicks (k = 1) and that both click (k = 2) in a round of that arm.
    EB arms are AB, AA, BB (pair_routing_probs order): on AB each side
    clicks with eta / 2 and B passes given A with d p_joint of the isotropic
    state; on AA and BB both photons reach one side.  PM has one arm: Alice
    always sends, and Bob passes with the overlap after the flip channel.
    """
    if mubs.dim != cfg.dim:
        raise DimensionError(
            f"basis set dimension {mubs.dim} does not match config dimension {cfg.dim}"
        )
    n_s = (cfg.dim + 1) * cfg.dim
    eta_a = np.asarray(cfg.efficiencies.eta_a, dtype=np.float64).reshape(n_s, 1)
    eta_b = np.asarray(cfg.efficiencies.eta_b, dtype=np.float64).reshape(n_s)
    if cfg.mode == "pm":
        both = pm_effective_overlaps(mubs, cfg.flip_prob).reshape(n_s, n_s) * eta_b
        return np.ones(1), np.stack([np.ones_like(both), both, both]).reshape(3, 1, -1)
    rho = isotropic_state(cfg.dim, cfg.visibility)
    cells = cfg.dim * joint_prob_matrix(rho, mubs).probs.reshape(n_s, n_s)
    table = np.zeros((3, 3, n_s, n_s))
    table[0, 0], table[0, 1] = eta_a / 2.0, eta_a
    table[1, 0], table[1, 2] = eta_b / 2.0, eta_b
    table[2, 0] = eta_a / 2.0 * (eta_b * cells)
    routing = pair_routing_probs()
    weights = cfg.source.pair_prob * np.array([routing.ab, routing.aa, routing.bb])
    return weights, table.reshape(3, 3, -1)


def _run_chunked(cfg: ProtocolConfig, mubs: MubSet, workers: int, keep_full_log: bool, take_rows):
    """Run the session and return its counts; each chunk's logged rows go to take_rows.

    The rows arrive in chunk order as a LOG_DTYPE block that a later chunk
    overwrites, so take_rows copies what it keeps.  Worker threads run at
    most 2 * workers chunks ahead: memory is O(workers * chunk).
    """
    if workers < 1:
        raise ConfigError(f"worker count must be at least 1, got {workers}")
    kernel = _RoundKernel(cfg, mubs)
    n_chunks = (cfg.rounds + CHUNK_ROUNDS - 1) // CHUNK_ROUNDS
    workers = min(workers, n_chunks)
    # Scratch for each chunk in flight: a draw buffer and a block of rows.  It
    # goes back to the pool once take_rows has seen the rows, so no rows are
    # copied out, and there is one per window slot, so no chunk waits for one.
    pool = queue.LifoQueue()
    for _ in range(2 * workers):
        pool.put((kernel.buffer(), np.empty(CHUNK_ROUNDS, dtype=LOG_DTYPE)))

    def run(c: int):
        scratch = pool.get()
        n = min(CHUNK_ROUNDS, cfg.rounds - c * CHUNK_ROUNDS)
        tallies, k = kernel.run(c, n, keep_full_log, *scratch)
        return tallies, scratch, k

    def threaded():
        # A sliding window, not one map per batch: no batch waits on its slowest chunk.
        with ThreadPoolExecutor(max_workers=workers) as executor:
            futures = (executor.submit(run, c) for c in range(n_chunks))
            window = deque(islice(futures, 2 * workers))
            while window:
                yield window.popleft().result()
                window.extend(islice(futures, 1))

    totals = np.zeros((3, kernel.n_s**2), dtype=np.int64)
    for tallies, scratch, k in map(run, range(n_chunks)) if workers == 1 else threaded():
        totals += tallies
        take_rows(scratch[1][:k])
        pool.put(scratch)

    return _from_flat(
        cfg.dim, totals, metadata={"mode": cfg.mode, "rounds": cfg.rounds, "seed": cfg.seed}
    )


def _session(cfg: ProtocolConfig, mubs: MubSet, workers: int, keep_full_log: bool):
    """Counts plus the in-memory log, the library's consumer of _run_chunked.

    Rows move as uint8 views: a copy of the packed records goes field by field.
    """
    if keep_full_log:
        if cfg.rounds >= FULL_LOG_WARN_ROUNDS:
            warnings.warn(
                f"keeping a full per-round log for {cfg.rounds} rounds is large; "
                "consider the coincident-only default",
                stacklevel=3,
            )
        log = np.empty(cfg.rounds, dtype=LOG_DTYPE)  # one row per round, filled in place

        def take_rows(rows):
            first = rows["round"][0]
            log[first : first + len(rows)].view(np.uint8)[:] = rows.view(np.uint8)

    else:
        # Exact-size blocks joined once: numpy asks for huge pages on large
        # arrays, so a rounds-sized buffer would take more than the rows fill.
        blocks = []

        def take_rows(rows):
            blocks.append(rows.view(np.uint8).copy())

    counts = _run_chunked(cfg, mubs, workers, keep_full_log, take_rows)
    if not keep_full_log:
        log = np.concatenate(blocks).view(LOG_DTYPE)
    return SessionRecord(
        config=cfg,
        counts=counts,
        log=log,
        log_scope="full" if keep_full_log else "coincident",
    )


def run_eb_session(
    cfg: ProtocolConfig,
    mubs: MubSet,
    workers: int = 1,
    keep_full_log: bool = False,
) -> SessionRecord:
    """Simulate an entanglement-based session round by round."""
    if cfg.mode != "eb":
        raise ConfigError(f"config mode is {cfg.mode!r}, expected 'eb'")
    return _session(cfg, mubs, workers, keep_full_log)


def run_pm_session(
    cfg: ProtocolConfig,
    mubs: MubSet,
    workers: int = 1,
    keep_full_log: bool = False,
    exact: bool = False,
) -> SessionRecord:
    """Simulate (or, with exact=True, take expectations of) a P&M session.

    In exact mode every cell of the count matrix carries the expectation
    value of the sampled protocol instead of a random draw; the log is
    empty since no individual rounds exist.
    """
    if cfg.mode != "pm":
        raise ConfigError(f"config mode is {cfg.mode!r}, expected 'pm'")
    if not exact:
        return _session(cfg, mubs, workers, keep_full_log)

    counts = expected_count_matrix(cfg, mubs)
    return SessionRecord(
        config=cfg,
        counts=counts,
        log=np.empty(0, dtype=LOG_DTYPE),
        log_scope="coincident",
    )


def expected_count_matrix(cfg: ProtocolConfig, mubs: MubSet) -> CountMatrix:
    """Analytic per-cell expectations: rounds x P(setting pair) x the weighted click table."""
    weights, table = _click_table(cfg, mubs)
    p_setting = np.repeat(np.asarray(cfg.basis_bias) / cfg.dim, cfg.dim)
    per_cell = np.outer(p_setting, p_setting).ravel() * (weights @ table)
    meta = {"mode": cfg.mode, "rounds": cfg.rounds, "expectation": True}
    return _from_flat(cfg.dim, cfg.rounds * per_cell, exact=True, metadata=meta)


def _key_string(elems: np.ndarray, dim: int) -> str:
    """Key symbols as an ASCII digit string, one character per symbol."""
    if dim > _MAX_DIM:
        raise DimensionError(
            f"key strings hold one decimal digit per symbol; d={dim} needs more"
        )
    return (elems + ord("0")).astype(np.uint8).tobytes().decode("ascii")


def sift(session: SessionRecord) -> SiftedData:
    """Keep coincident rounds where both parties used the same basis."""
    log = session.log
    mask = log["coincidence"] & (log["basis_a"] == log["basis_b"])
    # np.compress copies packed records several times faster than log[mask].
    kept = np.compress(mask, log)
    entries = np.empty(len(kept), dtype=SIFT_DTYPE)
    entries["round"] = kept["round"]
    entries["basis"] = kept["basis_a"]
    entries["elem_a"] = kept["elem_a"]
    entries["elem_b"] = kept["elem_b"]
    return SiftedData(
        dim=session.dim,
        entries=entries,
        alice_key=_key_string(entries["elem_a"], session.dim),
        bob_key=_key_string(entries["elem_b"], session.dim),
    )


def estimate_parameters(
    sifted: SiftedData,
    fraction: float,
    rng: np.random.Generator,
) -> ParameterEstimate:
    """Sacrifice a random subsample of the sifted rounds to estimate errors.

    The subsample is drawn uniformly without replacement; per-basis error
    rates are disagreement fractions on it, bases without sampled rounds
    are reported as None, and the average runs over the available bases.
    The remaining rounds form the surviving key material.
    """
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"sample fraction must lie in (0, 1), got {fraction}")
    n = len(sifted)
    if n == 0:
        raise ConfigError("no sifted rounds to estimate from")
    k = max(1, int(fraction * n))
    chosen = np.sort(rng.choice(n, size=k, replace=False))
    mask = np.zeros(n, dtype=bool)
    mask[chosen] = True
    sample = np.compress(mask, sifted.entries)

    q_by_basis: list[float | None] = []
    for basis in range(sifted.dim + 1):
        rows = sample[sample["basis"] == basis]
        if len(rows) == 0:
            q_by_basis.append(None)
        else:
            q_by_basis.append(float(np.mean(rows["elem_a"] != rows["elem_b"])))
    available = [q for q in q_by_basis if q is not None]
    if not available:
        raise ConfigError("subsample hit no basis; increase the fraction")

    keep = np.compress(~mask, sifted.entries)
    remaining = SiftedData(
        dim=sifted.dim,
        entries=keep,
        alice_key=_key_string(keep["elem_a"], sifted.dim),
        bob_key=_key_string(keep["elem_b"], sifted.dim),
    )
    return ParameterEstimate(
        q_by_basis=tuple(q_by_basis),
        q_average=float(np.mean(available)),
        sampled_rounds=k,
        remaining=remaining,
    )
