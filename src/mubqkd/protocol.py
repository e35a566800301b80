"""Session simulation for the entanglement-based and prepare-and-measure modes.

Each pump pulse is one protocol round.  Randomness is counter-based: the
rounds of chunk c = r // CHUNK_ROUNDS draw from the Philox stream keyed by
(seed, c), so any shard of chunks can be computed on any worker and merged
by chunk index into a bit-identical session.  One round kernel serves both
modes and draws only what a round reads (see _RoundKernel):

* EB: one creation uniform per round for the whole chunk, then five
  uniforms (route, setting_a, setting_b, click_a, click_b) for each round
  that created a pair, in round order.
* PM: three uniforms per round (setting_a, setting_b, click_b).

A setting is one categorical draw over the (d + 1) * d (basis, element)
pairs.  The settings of EB rounds without a pair are drawn only for the
full log, from a separate sub-stream of the chunk, so the counts are the
same with and without it.

Entanglement-based rounds: a photon pair appears with probability
alpha_sq * chi, splits AB/AA/BB with probabilities (1/2, 1/4, 1/4), and
clicks fire so that, per setting pair, expected singles are
N eta alpha_sq chi / 2 and expected coincidences are
N eta_a eta_b alpha_sq chi / 4 scaled by d times the joint outcome
probability of the isotropic state.  Same-arm pairs can produce singles
but never a coincidence.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .bases import MubSet
from .counts import CountMatrix
from .errors import ConfigError, DimensionError
from .photonics import EfficiencyTable, SourceParams, pair_routing_probs
from .states import isotropic_state, joint_prob_matrix

CHUNK_ROUNDS = 1 << 16
FULL_LOG_WARN_ROUNDS = 10**7

# A logged round while the session runs: 6 bytes, the row within its
# chunk (CHUNK_ROUNDS fits uint16), both flat settings (under 56 for every
# supported d) and both clicks.
_PART_DTYPE = np.dtype(
    [
        ("row", np.uint16),
        ("s_a", np.uint8),
        ("s_b", np.uint8),
        ("click_a", np.bool_),
        ("click_b", np.bool_),
    ]
)

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
    if min(bias) < 0 or abs(sum(bias) - 1.0) > 1e-12:
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
    sample_fraction: float = 0.1

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
        if not 0.0 < self.sample_fraction < 1.0:
            raise ConfigError(
                f"sample fraction must lie in (0, 1), got {self.sample_fraction}"
            )


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


def sample_setting(
    bias: tuple[float, ...], mubs: MubSet, rng: np.random.Generator
) -> tuple[int, int]:
    """Draw (basis, element): basis by bias weights, element uniformly."""
    _check_bias(bias, mubs.n_bases)
    setting = int(_draw_setting(_setting_table(bias, mubs.dim), rng.random()))
    return divmod(setting, mubs.dim)


def _chunk_rng(seed: int, chunk: int, stream: int = 0) -> np.random.Generator:
    """Philox stream of one chunk; stream 1 is a disjoint sub-stream (top counter word)."""
    key = np.array([seed, chunk], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, stream]))


class _RoundKernel:
    """Lookup tables and the per-chunk round kernel shared by both modes.

    Only the draw and the click step depend on the mode; the draw layout
    is described in the module docstring.  The EB draw always fills the
    whole chunk's creation uniforms, so a round's variates do not depend
    on where the session ends.
    """

    def __init__(self, cfg: ProtocolConfig, mubs: MubSet):
        d, n_s = cfg.dim, (cfg.dim + 1) * cfg.dim
        self.seed, self.d, self.n_s = cfg.seed, d, n_s
        self.table = _setting_table(cfg.basis_bias, d)
        ea = np.asarray(cfg.efficiencies.eta_a, dtype=np.float64).reshape(n_s)
        eb = np.asarray(cfg.efficiencies.eta_b, dtype=np.float64).reshape(n_s)
        if cfg.mode == "pm":
            self.width, self.draw, self.clicks = 3, self._draw_pm, self._pm_clicks
            ov = pm_effective_overlaps(mubs, cfg.flip_prob).reshape(n_s, n_s)
            self.thr_b = (ov * eb).ravel()
            return
        self.width, self.draw, self.clicks = 1, self._draw_eb, self._eb_clicks
        self.pair_prob = cfg.source.pair_prob
        routing = pair_routing_probs()
        self.route_table = np.cumsum([routing.ab, routing.aa])
        # A's click threshold per (arm, setting_a): one photon on AB, two on AA.
        self.thr_a = np.stack([ea / 2.0, ea, np.zeros(n_s)])
        # B's threshold per (arm, click_a, cell).  On AB it is correlated
        # with A so the pairwise rate is eta_a eta_b d p_joint / 2; on AA
        # it never fires; on BB both photons reach B.  Efficiencies are
        # positive and at most about 1, so 1 - eta_a / 2 is never near zero.
        pj = joint_prob_matrix(isotropic_state(d, cfg.visibility), mubs).probs
        given_a = eb * d * pj.reshape(n_s, n_s)
        joint = ea[:, None] / 2.0 * given_a
        given_not_a = (eb / 2.0 - joint) / (1.0 - ea[:, None] / 2.0)
        self.thr_b = np.zeros((3, 2, n_s * n_s))
        self.thr_b[0, 0] = np.clip(given_not_a, 0.0, 1.0).ravel()
        self.thr_b[0, 1] = given_a.ravel()
        self.thr_b[2] = np.tile(eb, n_s)

    def buffer(self) -> np.ndarray:
        """Scratch for one chunk's bulk draw; each thread needs its own."""
        return np.empty(CHUNK_ROUNDS * self.width)

    def _draw_eb(self, chunk: int, n: int, buf: np.ndarray):
        """Created rounds of the chunk's first n and their (k, 5) variates."""
        rng = _chunk_rng(self.seed, chunk)
        rng.random(out=buf)
        rows = np.flatnonzero(buf[:n] < self.pair_prob)
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
        click_a = v[:, 3] < self.thr_a[arm, s_a]
        click_b = v[:, 4] < self.thr_b[arm, click_a.view(np.uint8), self.cell(s_a, s_b)]
        return s_a, s_b, click_a, click_b

    def _pm_clicks(self, v: np.ndarray):
        s_a = _draw_setting(self.table, v[:, 0])
        s_b = _draw_setting(self.table, v[:, 1])
        click_b = v[:, 2] < self.thr_b[self.cell(s_a, s_b)]
        return s_a, s_b, np.ones(len(v), dtype=bool), click_b

    def cell(self, s_a: np.ndarray, s_b: np.ndarray) -> np.ndarray:
        return s_a.astype(np.intp) * self.n_s + s_b

    def run(self, chunk: int, n: int, buf: np.ndarray, keep_full: bool, dest: np.ndarray):
        """Tally one chunk and write its logged rounds to the front of dest.

        dest has _PART_DTYPE.  Returns (singles_a, singles_b, coincidences)
        over the flat cells and the number of rows written.
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
            rows, s_a, s_b, click_a, click_b = (
                x[hit] for x in (rows, s_a, s_b, click_a, click_b)
            )
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
        part = dest[: len(rows)]
        part["row"], part["s_a"], part["s_b"] = rows, s_a, s_b
        part["click_a"], part["click_b"] = click_a, click_b
        return tallies, len(rows)


def pm_effective_overlaps(mubs: MubSet, flip_prob: float = 0.0) -> np.ndarray:
    """|<filter|prep>|^2 for every setting pair, after the flip channel.

    With probability flip_prob the prepared state is replaced by a uniformly
    random other element of the same basis before Bob's filter.
    """
    d, n_b = mubs.dim, mubs.n_bases
    ov = np.empty((n_b, d, n_b, d))
    mats = [b.matrix for b in mubs.bases]
    for i in range(n_b):
        for j in range(n_b):
            ov[i, :, j, :] = np.abs(mats[i].conj().T @ mats[j]) ** 2
    if flip_prob > 0.0:
        flipped = np.empty_like(ov)
        for k in range(d):
            others = [k2 for k2 in range(d) if k2 != k]
            flipped[:, k] = np.mean(ov[:, others], axis=1)
        ov = (1.0 - flip_prob) * ov + flip_prob * flipped
    return ov


def _run_chunked(
    cfg: ProtocolConfig,
    kernel: _RoundKernel,
    workers: int,
    keep_full_log: bool,
) -> SessionRecord:
    if keep_full_log and cfg.rounds >= FULL_LOG_WARN_ROUNDS:
        warnings.warn(
            f"keeping a full per-round log for {cfg.rounds} rounds is large; "
            "consider the coincident-only default",
            stacklevel=3,
        )
    n_chunks = (cfg.rounds + CHUNK_ROUNDS - 1) // CHUNK_ROUNDS
    workers = max(1, min(workers, n_chunks))

    def shard(first: int):
        # Each worker takes every workers-th chunk.  It owns its draw buffer
        # and a pool with room for all of its rounds, filled densely with the
        # logged ones: one allocation, handed back whole after the merge, and
        # its pages past the rows written are never touched.
        buf = kernel.buffer()
        mine = [(c, min(CHUNK_ROUNDS, cfg.rounds - c * CHUNK_ROUNDS))
                for c in range(first, n_chunks, workers)]
        pool = np.empty(sum(n for _, n in mine), dtype=_PART_DTYPE)
        out, at = [], 0
        for c, n in mine:
            tallies, k = kernel.run(c, n, buf, keep_full_log, pool[at:])
            out.append((c, tallies, pool[at : at + k]))
            at += k
        return out

    if workers == 1:
        shards = [shard(0)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as executor:
            shards = list(executor.map(shard, range(workers)))

    totals = np.zeros((3, kernel.n_s**2), dtype=np.int64)
    parts = [None] * n_chunks
    for results in shards:
        for c, tallies, part in results:
            totals += tallies
            parts[c] = part

    log = np.empty(sum(len(p) for p in parts), dtype=LOG_DTYPE)
    start = 0
    for c, part in enumerate(parts):
        block = log[start : start + len(part)]
        block["round"] = part["row"]
        block["round"] += c * CHUNK_ROUNDS
        block["basis_a"], block["elem_a"] = np.divmod(part["s_a"], cfg.dim)
        block["basis_b"], block["elem_b"] = np.divmod(part["s_b"], cfg.dim)
        block["click_a"] = part["click_a"]
        block["click_b"] = part["click_b"]
        block["coincidence"] = part["click_a"] & part["click_b"]
        start += len(part)

    n_b, d = cfg.dim + 1, cfg.dim
    singles_a, singles_b, coinc = totals.reshape(3, n_b, d, n_b, d).astype(np.float64)
    counts = CountMatrix(
        dim=cfg.dim,
        singles_a=singles_a,
        singles_b=singles_b,
        coincidences=coinc,
        metadata={"mode": cfg.mode, "rounds": cfg.rounds, "seed": cfg.seed},
    )
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
    if mubs.dim != cfg.dim:
        raise DimensionError(
            f"basis set dimension {mubs.dim} does not match config dimension {cfg.dim}"
        )
    return _run_chunked(cfg, _RoundKernel(cfg, mubs), workers, keep_full_log)


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
    if mubs.dim != cfg.dim:
        raise DimensionError(
            f"basis set dimension {mubs.dim} does not match config dimension {cfg.dim}"
        )
    if not exact:
        return _run_chunked(cfg, _RoundKernel(cfg, mubs), workers, keep_full_log)

    counts = expected_count_matrix(cfg, mubs)
    return SessionRecord(
        config=cfg,
        counts=counts,
        log=np.empty(0, dtype=LOG_DTYPE),
        log_scope="coincident",
    )


def expected_count_matrix(cfg: ProtocolConfig, mubs: MubSet) -> CountMatrix:
    """Analytic per-cell expectations of the session's count matrix."""
    if mubs.dim != cfg.dim:
        raise DimensionError(
            f"basis set dimension {mubs.dim} does not match config dimension {cfg.dim}"
        )
    d, n_b = cfg.dim, cfg.dim + 1
    bias = np.asarray(cfg.basis_bias)
    p_setting = np.einsum(
        "i,j->ij", np.repeat(bias / d, d), np.repeat(bias / d, d)
    ).reshape(n_b, d, n_b, d)
    eta_a = np.asarray(cfg.efficiencies.eta_a)[:, :, None, None]
    eta_b = np.asarray(cfg.efficiencies.eta_b)[None, None, :, :]

    if cfg.mode == "eb":
        pair = cfg.source.pair_prob
        rho = isotropic_state(d, cfg.visibility)
        pj = joint_prob_matrix(rho, mubs).probs
        singles_a = cfg.rounds * p_setting * pair * eta_a / 2.0
        singles_b = cfg.rounds * p_setting * pair * eta_b / 2.0
        coinc = cfg.rounds * p_setting * pair * eta_a * eta_b * d * pj / 4.0
    else:
        ov = pm_effective_overlaps(mubs, cfg.flip_prob)
        singles_a = cfg.rounds * p_setting
        coinc = singles_a * eta_b * ov
        singles_b = coinc.copy()

    return CountMatrix(
        dim=d,
        singles_a=singles_a,
        singles_b=singles_b,
        coincidences=coinc,
        exact=True,
        metadata={"mode": cfg.mode, "rounds": cfg.rounds, "expectation": True},
    )


def _key_string(elems: np.ndarray, dim: int) -> str:
    """Key symbols as an ASCII digit string, one character per symbol."""
    if dim > 10:
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
