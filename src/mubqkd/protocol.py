"""Session simulation for the entanglement-based and prepare-and-measure modes.

Each pump pulse is one protocol round.  Randomness is counter-based: the
rounds of chunk c = r // _RoundKernel.chunk_rounds (2**16 in PM, 2**18
in EB) draw from the Philox stream keyed by (seed, c), and _run_chunked
runs the chunks one after another, in chunk order.  One round
kernel serves both modes (see _RoundKernel).  A chunk draws its counts
first: the number of candidate rounds (every PM round, the EB rounds
that create a pair), then how many of them fall in each category of
setting pair and click pattern.  Rows are built only for a consumer that
takes them, straight into the memory that keeps them, by placing that
tally on the chunk's rounds: the coincidences first, then, for the full
log, the other candidates and the settings of EB rounds without a pair.
The counts and the coincident rows are drawn before anything that only
the full log needs, so they are the same with and without it.  Neither
the counts nor a log row shows which arm an EB pair took: the tally runs
over setting pair and click pattern, summed over the arms, and only the
draw() hook gives a candidate an arm.  For a seed, EB counts and logs
differ from those of a tally over (arm, setting pair, click pattern),
with the same distribution; PM has one arm, and its bytes are unchanged.

Entanglement-based rounds: a photon pair appears with probability
alpha_sq * chi and splits AB/AA/BB with probabilities (1/2, 1/4, 1/4).
_click_table gives the click probabilities per arm and setting pair, so
expected singles are N eta alpha_sq chi / 2 and expected coincidences are
N eta_a eta_b alpha_sq chi / 4 scaled by d times the joint outcome
probability of the isotropic state.  Same-arm pairs can produce singles
but never a coincidence.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .bases import MubSet
from .counts import _MAX_DIM, CountMatrix, _from_flat
from .errors import ConfigError, DimensionError, _unchecked, check_index, check_range
from .photonics import EfficiencyTable, SourceParams, pair_routing_probs
from .security import _disagreement

CHUNK_ROUNDS = 1 << 16  # a PM chunk: a round's place in it fits a uint16 (see _RoundKernel._draw)
EB_CHUNK_ROUNDS = 1 << 18  # fewer than a tenth of EB rounds are candidates: longer chunks share fixed costs
_IDLE_BLOCK = 1 << 12  # EB full-log idle words are drawn this many at a time
FULL_LOG_WARN_ROUNDS = 10**7

# elem_b comes before basis_b: a row's first bytes are then a SIFT_DTYPE
# row, which sift copies whole.  The --log CSV names its columns, so the
# in-memory order does not reach the file.
LOG_DTYPE = np.dtype(
    [
        ("round", np.int64),
        ("basis_a", np.uint8),
        ("elem_a", np.uint8),
        ("elem_b", np.uint8),
        ("basis_b", np.uint8),
        ("click_a", np.bool_),
        ("click_b", np.bool_),
        ("coincidence", np.bool_),
    ]
)

# Bytes 7-14 of a row as one word: the round's top byte, 0 below 2**56, then the settings and clicks.
_ROW_TAIL = np.dtype({"names": ["tail"], "formats": [np.uint64], "offsets": [7], "itemsize": LOG_DTYPE.itemsize})

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
    check_range("epsilon", epsilon, 0, 1, "()")
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

    def __post_init__(self):
        check_range("dimension", check_index("dimension", self.dim), 2, _MAX_DIM)
        if self.mode not in ("eb", "pm"):
            raise ConfigError(f"mode must be 'eb' or 'pm', got {self.mode!r}")
        check_range("round count", check_index("round count", self.rounds), 1)
        check_range("seed", check_index("seed", self.seed), 0, 2**64, "[)")
        bias = self.basis_bias
        if bias is None:
            bias = default_basis_bias(self.dim)
        bias = tuple(float(b) for b in bias)
        if len(bias) != self.dim + 1:
            raise ConfigError(f"basis bias needs {self.dim + 1} weights, got {len(bias)}")
        check_range("smallest basis bias weight", min(bias), 0)  # skips a NaN after the first
        check_range("basis bias weight sum", sum(bias), 1 - 1e-12, 1 + 1e-12)  # catches it
        object.__setattr__(self, "basis_bias", bias)
        check_range("visibility", self.visibility, 0, 1)
        check_range("flip probability", self.flip_prob, 0, 1, "[)")
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

    ``log`` holds per-round LOG_DTYPE entries: every round when log_scope
    is "full", otherwise only the coincident rounds (which is all that
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
    """Same-basis coincident rounds, keys read from their entries; sift and estimate_parameters skip the check."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        for name, top in (("basis", self.dim), ("elem_a", self.dim - 1), ("elem_b", self.dim - 1)):
            check_range(f"sifted {name}", int(self.entries[name].max(initial=0)), hi=top, error=DimensionError)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def alice_key(self) -> str:
        return _key_string(self.entries["elem_a"], self.dim)

    @property
    def bob_key(self) -> str:
        return _key_string(self.entries["elem_b"], self.dim)


@dataclass(frozen=True)
class ParameterEstimate:
    """Error rates from a sacrificed subsample plus the surviving key material."""

    q_by_basis: tuple
    q_average: float
    sampled_rounds: int
    remaining: SiftedData


_thread = threading.local()


def _chunk_rng(seed: int, chunk: int, block: int = 0) -> np.random.Generator:
    """Philox stream of one chunk, on this thread's generator, valid until its next call.

    A Philox stream is its key: reset to key (seed, chunk), counter 0 and
    no buffered words, the generator draws what a new Philox(key=[seed,
    chunk]) would, without the unused SeedSequence a new one builds.  block
    sets the counter's top word: block 1 starts 2**192 blocks past where any
    draw from counter 0 reaches.
    """
    rng = getattr(_thread, "rng", None)
    if rng is None:
        rng = _thread.rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": (0, 0, 0, block), "key": (seed, chunk)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


def _idle_scratch(n: int):
    """This thread's _Alias.draw scratch for n <= _IDLE_BLOCK EB full-log idle words; it stays in the thread."""
    if not hasattr(_thread, "idle"):
        _thread.idle = [np.empty(_IDLE_BLOCK, t) for t in (np.uint64, np.uint64, bool)]
    return tuple(a[:n] for a in _thread.idle)


class _Alias:
    """Walker's alias table over the categories of positive weight.

    Draws return positions; ``index`` maps them to flat categories.  The
    weights are rounded to integers that sum to exactly 2**62 and padded to
    2**b slots of ``unit`` = 2**(62 - b).  Vose's sweep lets slot i keep
    ``thr[i]`` units for position i and lend the rest to ``alias[i]``.  A
    64-bit word picks the slot with its top b bits and compares its low
    64 - b bits with the threshold, so each position is drawn with exactly
    its rounded weight, and a category of zero weight never.
    """

    def __init__(self, weights):
        w = np.ravel(weights)
        self.index = np.flatnonzero(w > 0)
        q = np.rint(w[self.index] / w[self.index].sum() * 2.0**62).astype(np.int64)
        q[np.argmax(q)] += 2**62 - q.sum()
        b = max(1, (len(q) - 1).bit_length())
        self.unit = unit = 1 << (62 - b)
        q = np.concatenate([q, np.zeros((1 << b) - len(q), dtype=np.int64)])
        # Vose's sweep without a loop: large k takes the small deficits in
        # order until it holds less than a slot, then lends its own deficit
        # to large k + 1.  With S_k = sum_{t <= k} q_t - k * unit, large k
        # stops at the first small whose cumulative deficit passes S_k - unit
        # and keeps S_k minus the deficits taken so far.
        small, large = np.flatnonzero(q < unit), np.flatnonzero(q >= unit)
        owed = np.cumsum(np.append(unit - q[small], 0))  # last entry: all deficits
        held = np.cumsum(q[large]) - unit * np.arange(len(large))
        stop = np.searchsorted(owed, held - unit, side="right")
        slots = np.arange(len(q))
        self.thr, self.alias = q, slots.copy()
        self.alias[small] = large[np.searchsorted(stop, np.arange(len(small)))]
        rest = held - owed[np.minimum(stop, len(small))]
        q[large] = rest
        short = rest[:-1] < unit  # the last large always ends full
        self.alias[large[:-1][short]] = large[1:][short]
        self.shift = np.uint64(64 - b)
        # word < cut[slot] exactly when its low bits fall under the threshold;
        # a full slot's alias is itself, so its cut may stop one short.
        low = np.minimum(q.astype(np.uint64) << np.uint64(2), (np.uint64(1) << self.shift) - 1)
        self.cut = (slots.astype(np.uint64) << self.shift) + low
        self.pick = np.stack([self.alias, slots], axis=1).ravel()  # [2 slot + below cut]

    def draw(self, words: np.ndarray, scratch=(None, None, None)) -> np.ndarray:
        """One position per 64-bit word, written over the words, via scratch (slot, cut, below)."""
        slot, cut, below = scratch  # uint64, uint64, bool of len(words); None: new arrays
        slot = np.right_shift(words, self.shift, out=slot).view(np.int64)
        below = np.less(words, self.cut.take(slot, out=cut, mode="clip"), out=below)
        slot <<= 1
        slot += below
        return self.pick.take(slot, out=words.view(np.int64), mode="clip")  # "clip" skips the out= buffer


def _mark(rng: np.random.Generator, taken: np.ndarray, k: int) -> None:
    """Mark k more entries of a bool array, a uniform subset of the unmarked ones.

    Uniform positions are drawn until k new ones are marked.  The draw
    favors no unmarked entry over another, so every k-subset is equally
    likely.  Marking k of n takes about n ln(n / (n - k)) draws and no
    index array of n.
    """
    want = np.count_nonzero(taken) + k
    while (need := want - np.count_nonzero(taken)) > 0:
        taken[rng.integers(len(taken), size=need)] = True


def _patterns(p_a, p_b, p_ab):
    """Click-pattern probabilities (none, A only, B only, both) along a new last axis."""
    return np.stack([1.0 - p_a - p_b + p_ab, p_a - p_ab, p_b - p_ab, p_ab], axis=-1)


class _RoundKernel:
    """Lookup tables and the per-chunk round kernel shared by both modes.

    A candidate round falls in one category of ``cats``, the categories of
    positive weight in ``table``: (cell, click pattern), summed over the
    arms; pattern bit 0 is A's click and bit 1 B's.  _draw gives a chunk's
    tally and, on demand, its rows; neither needs the arm a pair took, so
    arms are drawn only by draw(), from P(arm | cell, pattern) and a stream
    of their own.  The EB counts and logs of a seed are not those of a
    tally over (arm, cell, pattern), but their distribution is; PM, with
    one arm, draws the same bytes.
    """

    def __init__(self, cfg: ProtocolConfig, mubs: MubSet):
        d, n_s = cfg.dim, (cfg.dim + 1) * cfg.dim
        self.seed = cfg.seed
        self.chunk_rounds = EB_CHUNK_ROUNDS if cfg.mode == "eb" else CHUNK_ROUNDS
        weights, table = _click_table(cfg, mubs)
        p_setting = np.repeat(np.asarray(cfg.basis_bias) / d, d)
        p_cell = np.outer(p_setting, p_setting).ravel()
        # Routing probabilities, not per-round weights: a tiny pair
        # probability must not underflow the table.
        self.pair = weights.sum()  # 1 in PM
        per_arm = (weights / self.pair)[:, None, None] * _patterns(*table)  # (arm, cell, pattern)
        w = self.table = p_cell[:, None] * per_arm.sum(axis=0)  # (cell, pattern)
        self.coinc_rate = self.pair * w[:, 3].sum()  # P(a round is a coincidence)
        self.cats = _Alias(w)
        cell, pat = np.divmod(self.cats.index, 4)
        # draw() picks a candidate's arm by one uniform against the cumulative
        # P(arm | cell, pattern), whose last sum is the table's own; an arm of
        # zero weight ends where the one before it does, so no uniform in
        # [0, 1) lands on it.
        joint = np.cumsum(per_arm.reshape(len(weights), -1)[:, self.cats.index], axis=0)
        self.arm_cut = joint[:-1] / joint[-1]
        self.coinc = pat == 3
        self.groups = [(mask, np.flatnonzero(mask)) for mask in (self.coinc, ~self.coinc)]
        # _draw packs a coincident position in 16 bits: at most 4 (d + 1)^2 d^2 = 48400 at d = 10.
        check_range("last coincident category", int(self.groups[0][1].max(initial=0)), hi=0xFFFF)
        # The tally: one category of rng.multinomial costs about as much as
        # 8 alias words, so it draws the tally when the table has fewer than
        # an eighth as many categories as a chunk's expected candidates.
        # probs is None for alias words.
        self.probs = None
        if 8 * len(self.cats.index) < self.chunk_rounds * self.pair:
            self.probs = w.ravel()[self.cats.index] / w.sum()
        if cfg.mode == "eb":
            # Full-log rounds without a pair: settings only, no clicks.  Their
            # rows follow the categories' rows.
            self.idle = _Alias(p_cell)
            self.idle.pick += len(self.cats.index)  # draws give the rows after the categories'
            cell = np.concatenate([cell, self.idle.index])
            pat = np.concatenate([pat, np.zeros_like(self.idle.index)])
        # The log row of each position, round 0.
        self.rows = np.zeros(len(cell), dtype=LOG_DTYPE)
        self.rows["basis_a"], self.rows["elem_a"] = np.divmod(cell // n_s, d)
        self.rows["basis_b"], self.rows["elem_b"] = np.divmod(cell % n_s, d)
        self.rows["click_a"], self.rows["click_b"] = pat & 1, pat >> 1
        self.rows["coincidence"] = pat == 3
        self.tails = self.rows.view(_ROW_TAIL)["tail"].copy()  # place writes a row as its tail, then its round

    def buffer(self) -> np.ndarray:
        """Scratch for draw; the draw needs none, so it is empty."""
        return np.empty(0)

    def _among(self, tally, cat, group):
        """The chunk's drawn categories in ``group``, a (mask, positions) pair of self.groups.

        Alias words keep their random draw order; a multinomial tally gives
        its categories in order.
        """
        which, pos = group
        if cat is not None:
            return cat[which[cat]]
        return np.repeat(pos, tally[pos])

    def _draw(self, chunk: int, n: int, rows):
        """(tally, rounds, categories) of the chunk's first n rounds (full log: None, all in order).

        rows is None (counts only), "coincident", "full" or "candidates" (the full
        log's categories, idle rounds past them, for draw()).  One stream
        draws, in this order: the tally, in which K ~ Binomial(chunk_rounds,
        pair probability) candidates (every PM round) fall in the categories
        by one multinomial or by one alias word each; the rounds of the
        coincident candidates, a uniform subset; those of the others, a
        uniform subset of the rest; and for an EB full log one word per
        round, which picks the settings of a round without a pair.  Each
        set of rounds takes its categories in random order, so in
        distribution every round draws its category independently.  Every
        draw covers the whole chunk; a partial chunk keeps the rounds below
        n and takes its tally from the candidates among them.
        """
        check_range("rounds drawn from a chunk", n, 1, self.chunk_rounds)
        rng = _chunk_rng(self.seed, chunk)
        size, n_cats = self.chunk_rounds, len(self.cats.index)
        candidates = rng.binomial(size, self.pair)
        if self.probs is None:
            cat = self.cats.draw(rng.bit_generator.random_raw(candidates))
            tally = np.bincount(cat, minlength=n_cats)
        else:
            cat, tally = None, rng.multinomial(candidates, self.probs)
        if rows is None and n == size:
            return tally, None, None
        # choice gives distinct rounds in random order, so the coincident
        # categories land on them in a random arrangement.  Each round carries
        # its category in its low 16 bits (see __init__): one sort puts both in
        # round order, in 32 bits (twice as fast) from about 1500 keys on when
        # the round fits 16 bits.
        hit_v = self._among(tally, cat, self.groups[0])
        key = rng.choice(size, len(hit_v), replace=False) << 16
        key |= hit_v
        key = key.astype(np.uint32 if len(key) > 1500 and size <= 1 << 16 else np.int64, copy=False)
        key.sort()
        hits = key >> 16
        hit_v = key  # in place: one array fewer
        hit_v &= 0xFFFF
        k = np.searchsorted(hits, n)
        if rows == "coincident" and n == size:
            return tally, hits, hit_v
        # The other candidates' categories, in random order, go to the free
        # rounds in round order: to all of them in PM, a uniform subset in EB.
        other_v = self._among(tally, cat, self.groups[1])
        if cat is None:
            rng.shuffle(other_v)
        others = np.zeros(size, dtype=bool)  # marks the coincident rounds, then the others' instead
        others[hits] = True
        idle_rounds = candidates < size  # EB: rounds without a pair
        if idle_rounds:
            _mark(rng, others, len(other_v))
            others[hits] = False
        else:
            others = ~others
        k_other = np.count_nonzero(others[:n])
        if n < size:
            tally = np.bincount(hit_v[:k], minlength=n_cats)
            tally += np.bincount(other_v[:k_other], minlength=n_cats)
        if rows is None or rows == "coincident":
            return tally, hits[:k], hit_v[:k]
        # EB: each round's word picks its settings and a candidate's row replaces
        # it; uint32 halves the chunk's categories.  place takes PM's intp uncast.
        every = np.empty(n, dtype=np.uint32 if idle_rounds else np.intp)
        if rows == "candidates":
            every.fill(n_cats)  # no such words: idle rounds just read past the categories
        for lo in range(0, n, _IDLE_BLOCK) if idle_rounds and rows == "full" else ():
            words = rng.bit_generator.random_raw(min(_IDLE_BLOCK, n - lo))
            every[lo : lo + len(words)] = self.idle.draw(words, _idle_scratch(len(words)))
        every[hits[:k]], every[np.flatnonzero(others[:n])] = hit_v[:k], other_v[:k_other]
        return tally, None, every

    def draw(self, chunk: int, n: int, buf: np.ndarray | None = None):
        """Candidate rounds of the chunk's first n and, for each, arm * len(cats.index) + its category position.

        The arm comes from P(arm | cell, pattern) by one uniform per candidate
        in round order, drawn at counter block 1 of the chunk's key, so a
        shorter draw is a prefix of a longer one and the chunk's other draws
        are those of _draw.
        """
        every = self._draw(chunk, n, "candidates")[2]
        rounds = np.flatnonzero(every < len(self.cats.index))  # idle rows follow the categories'
        v = every[rounds]
        u = _chunk_rng(self.seed, chunk, block=1).random(len(rounds))
        arm = (u >= self.arm_cut[:, v]).sum(axis=0)
        return rounds, arm * len(self.cats.index) + v

    def route(self, v: np.ndarray) -> np.ndarray:
        """Arm of each of draw's candidates: 0 AB, 1 AA, 2 BB (pair_routing_probs order).

        PM has one arm, 0.
        """
        return v // len(self.cats.index)

    def fold(self, tally: np.ndarray) -> np.ndarray:
        """(singles_a, singles_b, coincidences) over the flat cells from per-category counts."""
        per = np.zeros(self.table.size, dtype=np.int64)
        per[self.cats.index] = tally
        per = per.reshape(self.table.shape)
        return np.stack([per[:, 1] + per[:, 3], per[:, 2] + per[:, 3], per[:, 3]])

    def place(self, chunk: int, rounds: np.ndarray, cat: np.ndarray, dest=None) -> np.ndarray:
        """A chunk's draw (see _draw) as LOG_DTYPE rows, in dest or new: a tail word each, then the int64 round."""
        dest = np.empty(len(cat), dtype=LOG_DTYPE) if dest is None else dest
        dest.view(_ROW_TAIL)["tail"] = self.tails.take(cat)
        first = np.int64(chunk * self.chunk_rounds)
        np.add(np.arange(len(cat)) if rounds is None else rounds, first, out=dest["round"])
        return dest


def _overlaps(mubs: MubSet, v: float) -> np.ndarray:
    """v |<e_ik|e_jm>|^2 + (1 - v) / d per vector pair, each same-basis block exactly I.

    This is d times the isotropic state's joint probability at visibility v
    (Alice conjugated), and the PM flip channel f at v = 1 - f d / (d - 1),
    as sum_k |<e_ik|e_jm>|^2 = 1.  It reads the set's stored |<e_ik|e_jm>|^2 and
    assumes a checked set, as every MubSet from mub_set or load_bases is.
    """
    return v * mubs._overlap + (1.0 - v) / mubs.dim


def pm_effective_overlaps(mubs: MubSet, flip_prob: float = 0.0) -> np.ndarray:
    """|<filter|prep>|^2 for every setting pair, after the flip channel.

    With probability flip_prob the prepared state is replaced by a uniformly
    random other element of the same basis before Bob's filter.
    """
    return _overlaps(mubs, 1.0 - flip_prob * mubs.dim / (mubs.dim - 1))


def _click_table(cfg: ProtocolConfig, mubs: MubSet):
    """The source and detector model as (weights, table).

    weights[arm] is each arm's probability per round.  table[k, arm, cell],
    cell = s_a * n_s + s_b, is the probability that A clicks (k = 0), that
    B clicks (k = 1) and that both click (k = 2) in a round of that arm.
    Both modes read _overlaps at v (1 - f d / (d - 1)), visibility v and flip f.
    EB arms are AB, AA, BB (pair_routing_probs order): on AB each side clicks
    with eta / 2 and B passes given A with the overlap; on AA and BB both
    photons reach one side.  PM has one arm: Alice sends, Bob passes with it.
    """
    if mubs.dim != cfg.dim:
        raise DimensionError(
            f"basis set dimension {mubs.dim} does not match config dimension {cfg.dim}"
        )
    d, n_s = cfg.dim, (cfg.dim + 1) * cfg.dim
    eta_a = np.asarray(cfg.efficiencies.eta_a, dtype=np.float64).reshape(n_s, 1)
    eta_b = np.asarray(cfg.efficiencies.eta_b, dtype=np.float64).reshape(n_s)
    v = cfg.visibility * (1.0 - cfg.flip_prob * d / (d - 1))
    both = _overlaps(mubs, v).reshape(n_s, n_s) * eta_b
    if cfg.mode == "pm":
        return np.ones(1), np.stack([np.ones_like(both), both, both]).reshape(3, 1, -1)
    table = np.zeros((3, 3, n_s, n_s))
    table[0, 0], table[0, 1] = eta_a / 2.0, eta_a
    table[1, 0], table[1, 2] = eta_b / 2.0, eta_b
    table[2, 0] = eta_a / 2.0 * both
    routing = pair_routing_probs()
    weights = cfg.source.pair_prob * np.array([routing.ab, routing.aa, routing.bb])
    return weights, table.reshape(3, 3, -1)


def _run_chunked(cfg: ProtocolConfig, kernel: _RoundKernel, workers: int, keep_full_log: bool, take_rows):
    """Run the session and return its counts; each chunk's draw goes to take_rows.

    take_rows(chunk, rounds, cat) gets each chunk's draw (_RoundKernel._draw) in
    chunk order, in the calling thread, and places its rows where it keeps them
    (kernel.place); with take_rows=None no rows are built.  Beside what take_rows
    keeps, memory is O(chunk).  The counts skip CountMatrix's checks: they are
    int64 tallies of rounds, each coincidence also counted in both singles.
    """
    check_range("worker count", workers, 1)
    size = kernel.chunk_rounds
    rows = None if take_rows is None else "full" if keep_full_log else "coincident"
    totals = np.zeros(len(kernel.cats.index), dtype=np.int64)
    for c in range((cfg.rounds + size - 1) // size):
        tally, at, cat = kernel._draw(c, min(size, cfg.rounds - c * size), rows)
        totals += tally
        if take_rows is not None:
            take_rows(c, at, cat)

    return _from_flat(
        cfg.dim, kernel.fold(totals), False, {"mode": cfg.mode, "rounds": cfg.rounds, "seed": cfg.seed}
    )


def _session(cfg: ProtocolConfig, mubs: MubSet, workers: int, keep_full_log: bool):
    """Counts plus the in-memory log, the library's consumer of _run_chunked.

    The log is one array, a row per round or the expected coincident rows plus
    a margin that rarely runs out; each chunk's rows go straight into its next
    slice.  numpy asks for huge pages from 4 MiB on: a large log faults in 2 MiB at a time.
    """
    kernel = _RoundKernel(cfg, mubs)
    if keep_full_log and cfg.rounds >= FULL_LOG_WARN_ROUNDS:
        warnings.warn(
            f"keeping a full per-round log for {cfg.rounds} rounds is large; "
            "consider the coincident-only default",
            stacklevel=3,
        )
    m = cfg.rounds * kernel.coinc_rate  # coincident rows expected; 8 (binomial) SDs of room more
    log = np.empty(cfg.rounds if keep_full_log else int(m + 8 * np.sqrt(m)) + 1, dtype=LOG_DTYPE)
    used = 0

    def take_rows(chunk, rounds, cat):
        nonlocal used
        end = used + len(cat)
        if end > len(log):  # in place: no view of log outlives a call
            log.resize(max(end, 2 * len(log)), refcheck=False)
        kernel.place(chunk, rounds, cat, log[used:end])
        used = end

    counts = _run_chunked(cfg, kernel, workers, keep_full_log, take_rows)
    return SessionRecord(
        config=cfg,
        counts=counts,
        log=log[:used],
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
    """Analytic per-cell expectations: rounds x P(setting pair) x the weighted click table.

    The inputs are checked, so every factor is finite, and scaling by rounds
    keeps signs and order: the counts skip CountMatrix's checks unless a
    per-cell coincidence is negative or above its singles, as a PM one is where
    an efficiency above one (EfficiencyTable's slack) meets an overlap of one.
    """
    weights, table = _click_table(cfg, mubs)
    p_setting = np.repeat(np.asarray(cfg.basis_bias) / cfg.dim, cfg.dim)
    per_cell = np.outer(p_setting, p_setting).ravel() * (weights @ table)
    meta = {"mode": cfg.mode, "rounds": cfg.rounds, "expectation": True}
    ok = np.all((per_cell[2] >= 0) & (per_cell[2] <= per_cell[:2].min(axis=0)))
    return _from_flat(cfg.dim, cfg.rounds * per_cell, True, meta, check=not ok)


def _key_string(elems: np.ndarray, dim: int) -> str:
    """Key symbols as an ASCII digit string, one character per symbol."""
    if dim > _MAX_DIM:
        raise DimensionError(
            f"key strings hold one decimal digit per symbol; d={dim} needs more"
        )
    return str(elems + ord("0"), "ascii")  # uint8 + 48 stays uint8, decoded from its buffer


def sift(session: SessionRecord) -> SiftedData:
    """Keep coincident rounds where both parties used the same basis."""
    log = session.log
    mask = log["basis_a"] == log["basis_b"]
    if session.log_scope == "full":  # a coincident log holds coincidences only
        mask &= log["coincidence"]
    # A log row starts with its sift entry (round, basis_a, elem_a, elem_b).
    # A boolean index on those bytes as one opaque item copies each kept row
    # once; on structured rows it copies field by field, and np.compress
    # builds an index of the kept rows.
    head = np.dtype({"names": ["entry"], "formats": [f"V{SIFT_DTYPE.itemsize}"], "itemsize": log.itemsize})
    entries = log.view(head)["entry"][mask].view(SIFT_DTYPE)
    return _unchecked(SiftedData, dim=session.dim, entries=entries)


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
    check_range("sample fraction", fraction, 0, 1, "()")
    n = len(sifted)
    if n == 0:
        raise ConfigError("no sifted rounds to estimate from")
    k = max(1, int(fraction * n))
    mask = np.zeros(n, dtype=bool)
    kept = 2 * k > n  # mark the smaller side: the draw then stays short
    _mark(rng, mask, n - k if kept else k)
    if kept:
        np.logical_not(mask, out=mask)
    entries = sifted.entries
    raw = entries.view(f"V{entries.itemsize}")  # whole entries, one copy each (see sift)
    sample = raw[mask].view(entries.dtype)
    d = sifted.dim
    # The fields are uint8, so widen before the flat (basis, a, b) cell index.
    cells = (sample["basis"].astype(np.intp) * d + sample["elem_a"]) * d + sample["elem_b"]
    totals, errors = _disagreement(np.bincount(cells, minlength=(d + 1) * d * d).reshape(-1, d, d))
    del sample, cells  # freed before the remaining entries' copy, the call's peak
    remaining = raw[np.logical_not(mask, out=mask)].view(entries.dtype)
    q_by_basis = tuple(None if t == 0 else float(e / t) for t, e in zip(totals, errors))
    return ParameterEstimate(
        q_by_basis=q_by_basis,
        q_average=float(np.mean([q for q in q_by_basis if q is not None])),  # k >= 1: not empty
        sampled_rounds=k,
        remaining=_unchecked(SiftedData, dim=d, entries=remaining),
    )
