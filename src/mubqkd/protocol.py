"""Session simulation for the entanglement-based and prepare-and-measure modes.

Each pump pulse is one protocol round.  Randomness is counter-based: round r
draws its variates from a fixed slot layout inside the stream keyed by
(seed, r // CHUNK_ROUNDS), so any shard of rounds can be computed on any
worker and merged by chunk index into a bit-identical session.

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
from .photonics import EfficiencyTable, SourceParams
from .states import isotropic_state, joint_prob_matrix

CHUNK_ROUNDS = 1 << 16
_SLOTS = 8  # per-round variate layout, see _simulate_chunk
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
        if len(bias) != self.dim + 1:
            raise ConfigError(
                f"basis bias needs {self.dim + 1} weights, got {len(bias)}"
            )
        if min(bias) < 0 or abs(sum(bias) - 1.0) > 1e-12:
            raise ConfigError("basis bias weights must be nonnegative and sum to 1")
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


def sample_setting(
    bias: tuple[float, ...], mubs: MubSet, rng: np.random.Generator
) -> tuple[int, int]:
    """Draw (basis, element): basis by bias weights, element uniformly."""
    if len(bias) != mubs.n_bases:
        raise ConfigError(
            f"bias length {len(bias)} does not match {mubs.n_bases} bases"
        )
    basis = int(rng.choice(mubs.n_bases, p=np.asarray(bias)))
    elem = int(rng.integers(mubs.dim))
    return basis, elem


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    key = np.array([seed, chunk], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_settings(u: np.ndarray, cum_bias: np.ndarray, d: int) -> np.ndarray:
    idx = np.searchsorted(cum_bias, u, side="right")
    return np.minimum(idx, len(cum_bias) - 1).astype(np.int64)


class _EbChunkModel:
    """Precomputed lookup tables for the entanglement-based round kernel."""

    def __init__(self, cfg: ProtocolConfig, mubs: MubSet):
        self.d = cfg.dim
        self.n_b = cfg.dim + 1
        self.pair_prob = cfg.source.pair_prob
        self.cum_bias = np.cumsum(np.asarray(cfg.basis_bias))
        self.eta_a = np.asarray(cfg.efficiencies.eta_a)
        self.eta_b = np.asarray(cfg.efficiencies.eta_b)
        rho = isotropic_state(cfg.dim, cfg.visibility)
        self.p_joint = joint_prob_matrix(rho, mubs).probs

    def run(self, u: np.ndarray, base_round: int, keep_full: bool):
        d, n_b = self.d, self.n_b
        n = u.shape[1]
        basis_a = _draw_settings(u[2], self.cum_bias, d)
        elem_a = np.minimum((u[3] * d).astype(np.int64), d - 1)
        basis_b = _draw_settings(u[4], self.cum_bias, d)
        elem_b = np.minimum((u[5] * d).astype(np.int64), d - 1)

        created = u[0] < self.pair_prob
        route = u[1]
        ab = created & (route < 0.5)
        aa = created & (route >= 0.5) & (route < 0.75)
        bb = created & (route >= 0.75)

        ea = self.eta_a[basis_a, elem_a]
        eb = self.eta_b[basis_b, elem_b]
        pj = self.p_joint[basis_a, elem_a, basis_b, elem_b]

        click_a = np.zeros(n, dtype=bool)
        click_b = np.zeros(n, dtype=bool)

        # One photon in each arm: A clicks with eta_a / 2; B's click is
        # correlated so the pairwise rate is eta_a eta_b d p_joint / 2.
        click_a[ab] = u[6][ab] < ea[ab] / 2.0
        joint_rate = ea * eb * d * pj / 2.0
        p_b_given_a = np.divide(
            joint_rate, ea / 2.0, out=np.zeros(n), where=ea > 0
        )
        p_b_given_not_a = np.divide(
            eb / 2.0 - joint_rate, 1.0 - ea / 2.0, out=np.zeros(n), where=ea < 2.0
        )
        p_b = np.where(click_a, p_b_given_a, np.clip(p_b_given_not_a, 0.0, 1.0))
        click_b[ab] = u[7][ab] < p_b[ab]

        # Both photons in one arm: only that arm can click, never both.
        click_a[aa] = u[6][aa] < ea[aa]
        click_b[bb] = u[7][bb] < eb[bb]

        coinc = click_a & click_b
        flat = (basis_a * d + elem_a) * (n_b * d) + (basis_b * d + elem_b)
        m = (n_b * d) ** 2
        singles_a = np.bincount(flat[click_a], minlength=m)
        singles_b = np.bincount(flat[click_b], minlength=m)
        coincidences = np.bincount(flat[coinc], minlength=m)

        rows = np.arange(n, dtype=np.int64) + base_round
        scope = slice(None) if keep_full else coinc
        log = np.empty(int(n if keep_full else np.sum(coinc)), dtype=LOG_DTYPE)
        log["round"] = rows[scope]
        log["basis_a"] = basis_a[scope]
        log["elem_a"] = elem_a[scope]
        log["basis_b"] = basis_b[scope]
        log["elem_b"] = elem_b[scope]
        log["click_a"] = click_a[scope]
        log["click_b"] = click_b[scope]
        log["coincidence"] = coinc[scope]
        return singles_a, singles_b, coincidences, log


class _PmChunkModel:
    """Lookup tables for the prepare-and-measure round kernel."""

    def __init__(self, cfg: ProtocolConfig, mubs: MubSet):
        self.d = cfg.dim
        self.n_b = cfg.dim + 1
        self.cum_bias = np.cumsum(np.asarray(cfg.basis_bias))
        self.eta_b = np.asarray(cfg.efficiencies.eta_b)
        self.overlap = pm_effective_overlaps(mubs, cfg.flip_prob)

    def run(self, u: np.ndarray, base_round: int, keep_full: bool):
        d, n_b = self.d, self.n_b
        n = u.shape[1]
        basis_a = _draw_settings(u[2], self.cum_bias, d)
        elem_a = np.minimum((u[3] * d).astype(np.int64), d - 1)
        basis_b = _draw_settings(u[4], self.cum_bias, d)
        elem_b = np.minimum((u[5] * d).astype(np.int64), d - 1)

        eb = self.eta_b[basis_b, elem_b]
        ov = self.overlap[basis_a, elem_a, basis_b, elem_b]
        click_b = u[7] < eb * ov
        click_a = np.ones(n, dtype=bool)
        coinc = click_b

        flat = (basis_a * d + elem_a) * (n_b * d) + (basis_b * d + elem_b)
        m = (n_b * d) ** 2
        singles_a = np.bincount(flat, minlength=m)
        singles_b = np.bincount(flat[click_b], minlength=m)
        coincidences = singles_b.copy()

        rows = np.arange(n, dtype=np.int64) + base_round
        scope = slice(None) if keep_full else coinc
        log = np.empty(int(n if keep_full else np.sum(coinc)), dtype=LOG_DTYPE)
        log["round"] = rows[scope]
        log["basis_a"] = basis_a[scope]
        log["elem_a"] = elem_a[scope]
        log["basis_b"] = basis_b[scope]
        log["elem_b"] = elem_b[scope]
        log["click_a"] = click_a[scope]
        log["click_b"] = click_b[scope]
        log["coincidence"] = coinc[scope]
        return singles_a, singles_b, coincidences, log


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
    model,
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
    m = ((cfg.dim + 1) * cfg.dim) ** 2

    def one_chunk(chunk: int):
        rng = _chunk_rng(cfg.seed, chunk)
        u = rng.random((_SLOTS, CHUNK_ROUNDS))
        n = min(CHUNK_ROUNDS, cfg.rounds - chunk * CHUNK_ROUNDS)
        return model.run(u[:, :n], chunk * CHUNK_ROUNDS, keep_full_log)

    if workers <= 1 or n_chunks == 1:
        results = [one_chunk(c) for c in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one_chunk, range(n_chunks)))

    singles_a = np.zeros(m, dtype=np.int64)
    singles_b = np.zeros(m, dtype=np.int64)
    coinc = np.zeros(m, dtype=np.int64)
    logs = []
    for sa, sb, cc, log in results:
        singles_a += sa
        singles_b += sb
        coinc += cc
        logs.append(log)

    n_b, d = cfg.dim + 1, cfg.dim
    shape = (n_b, d, n_b, d)
    counts = CountMatrix(
        dim=cfg.dim,
        singles_a=singles_a.reshape(shape).astype(np.float64),
        singles_b=singles_b.reshape(shape).astype(np.float64),
        coincidences=coinc.reshape(shape).astype(np.float64),
        metadata={"mode": cfg.mode, "rounds": cfg.rounds, "seed": cfg.seed},
    )
    log = np.concatenate(logs) if logs else np.empty(0, dtype=LOG_DTYPE)
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
    return _run_chunked(cfg, _EbChunkModel(cfg, mubs), workers, keep_full_log)


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
        return _run_chunked(cfg, _PmChunkModel(cfg, mubs), workers, keep_full_log)

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
