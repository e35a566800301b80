"""Photon-pair source and detector model at first order in the pump power.

A weakly pumped down-conversion source produces, per pump pulse, a photon
pair in the encoded subspace with probability alpha_sq * chi.  The pair
splits between the two arms with probabilities 1/2 (one photon each) and
1/4 each for both photons in the same arm.  With single-photon detector
efficiencies far below one, the measurable rates reduce to closed forms:

    singles per arm      N * eta * alpha_sq * chi / 2
    coincidences         N * eta_a * eta_b * alpha_sq * chi / 4

so the efficiency of one arm can be read off the other arm's data as
eta = 2 * coincidences / singles_partner, independent of the pump.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .counts import _MAX_DIM, CountMatrix, _from_flat
from .errors import ConfigError, CountDataError, DimensionError, ParseError, check_range
from .errors import _dim_line, _text_lines

Setting = tuple[int, int]
Pairing = Callable[[Setting], Setting]

EFFICIENCY_SLACK = 1e-9
PERTURBATIVE_CEILING = 0.1


@dataclass(frozen=True)
class SourceParams:
    """Pump and pair-creation parameters of one run."""

    pulses: int
    alpha_sq: float
    chi: float

    def __post_init__(self):
        check_range("pulse count", self.pulses, 0)
        check_range("alpha_sq", self.alpha_sq, 0, ends="(]")
        check_range("chi", self.chi, 0, ends="(]")
        if self.alpha_sq * self.chi == 0.0:
            raise ConfigError(f"alpha_sq * chi = {self.alpha_sq:g} * {self.chi:g} underflows to 0")
        check_range("alpha_sq * chi", self.pair_prob, 0, PERTURBATIVE_CEILING, "()")

    @property
    def pair_prob(self) -> float:
        return self.alpha_sq * self.chi


@dataclass(frozen=True)
class PairRouting:
    """Probabilities for how a created pair splits between the arms."""

    ab: float
    aa: float
    bb: float


def pair_routing_probs() -> PairRouting:
    """The four equal-amplitude emission terms give (1/2, 1/4, 1/4)."""
    return PairRouting(ab=0.5, aa=0.25, bb=0.25)


def expected_singles(params: SourceParams, eta1: float) -> float:
    """Expected singles at one arm for a filter with efficiency eta1."""
    return params.pulses * eta1 * params.alpha_sq * params.chi / 2.0


def expected_coincidences(params: SourceParams, eta_a: float, eta_b: float) -> float:
    """Expected coincidences for a conjugate-correlated filter pair."""
    return params.pulses * eta_a * eta_b * params.alpha_sq * params.chi / 4.0


@dataclass(frozen=True, eq=False)
class EfficiencyTable:
    """Per-setting single-photon efficiencies for both arms.

    Arrays are indexed [basis, element]; NaN marks settings without data.
    """

    dim: int
    eta_a: np.ndarray
    eta_b: np.ndarray

    def __post_init__(self):
        shape = (self.dim + 1, self.dim)
        for name in ("eta_a", "eta_b"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise DimensionError(
                    f"{name} has shape {arr.shape}, expected {shape} for dim {self.dim}"
                )
            data = arr[~np.isnan(arr)]  # NaN is "no data"; +-inf is out of range
            if data.size and not (np.min(data) > 0 and np.max(data) <= 1 + EFFICIENCY_SLACK):
                raise ValueError(f"{name} holds an efficiency outside (0, 1]")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def uniform(cls, dim: int, eta: float = 1.0) -> "EfficiencyTable":
        full = np.full((dim + 1, dim), float(eta))
        return cls(dim=dim, eta_a=full, eta_b=full.copy())

    @property
    def complete(self) -> bool:
        return bool(np.all(np.isfinite(self.eta_a)) and np.all(np.isfinite(self.eta_b)))


def _partners(pairing: Pairing | None, dim: int) -> np.ndarray:
    """Flat index basis * dim + elem of each setting's partner (itself by default), in C order."""
    if pairing is None:
        return np.arange((dim + 1) * dim)
    settings = list(np.ndindex(dim + 1, dim))
    partners = [pairing(s) for s in settings]
    index = np.array(partners)
    out = np.flatnonzero(np.any((index < 0) | (index >= (dim + 1, dim)), axis=1))
    if out.size:
        (basis, elem), partner = settings[out[0]], partners[out[0]]
        raise CountDataError(
            f"setting ({basis},{elem}) has partner {partner} out of range for dim {dim}"
        )
    return index[:, 0] * dim + index[:, 1]


def synthesize_conjugate_records(
    params: SourceParams,
    table: EfficiencyTable,
    pairing: Pairing | None = None,
    rng: np.random.Generator | None = None,
) -> CountMatrix:
    """Counts at each setting's conjugate partner; every other cell stays zero.

    Without an rng the cells carry exact expectations (``exact=True``); with
    one, counts are Poisson-sampled around them (coincidences clamped to the
    physical ceiling of the sampled singles, which never binds at realistic
    rates).
    """
    partner = _partners(pairing, table.dim)
    eta_a = table.eta_a.reshape(-1)
    eta_b = table.eta_b.reshape(-1)[partner]
    missing = np.flatnonzero(~(np.isfinite(eta_a) & np.isfinite(eta_b)))
    if missing.size:
        basis, elem = divmod(int(missing[0]), table.dim)
        raise CountDataError(f"efficiency table is missing setting ({basis},{elem}) or partner")
    # One row per setting: (singles_a, singles_b, coincidences).
    mu_sa, mu_sb = expected_singles(params, eta_a), expected_singles(params, eta_b)
    mu = np.stack([mu_sa, mu_sb, expected_coincidences(params, eta_a, eta_b)], axis=1)
    if rng is None:
        tallies = mu
    else:
        tallies = rng.poisson(mu).astype(np.float64)  # draws row by row, as scalar calls would
        tallies[:, 2] = tallies.min(axis=1)
    n_s = len(partner)
    grid = np.zeros((3, n_s * n_s))
    grid[:, np.arange(n_s) * n_s + partner] = tallies.T
    return _from_flat(table.dim, grid, exact=rng is None)


def estimate_efficiency(
    counts: CountMatrix,
    dim: int,
    pairing: Pairing | None = None,
) -> EfficiencyTable:
    """Recover per-setting efficiencies from each setting's conjugate cell.

    For each of A's settings the cell at its partner under ``pairing`` gives
    eta_b = 2 C / singles_a and eta_a = 2 C / singles_b; no other cell is
    read.  Settings with no coincidences carry no efficiency information and
    stay missing in the table.  Raises when ``dim`` is not the dimension of
    the counts, when a ratio exceeds one (a zero singles tally under
    coincidences gives an infinite ratio), or when no pair had coincidences
    at all.
    """
    if dim != counts.dim:
        raise DimensionError(f"counts have dimension {counts.dim}, expected {dim}")
    partner = _partners(pairing, dim)
    n_s = len(partner)
    singles_a, singles_b, coinc = (
        grid.reshape(n_s, n_s)[np.arange(n_s), partner]
        for grid in (counts.singles_a, counts.singles_b, counts.coincidences)
    )
    has = coinc > 0
    if not has.any():
        raise CountDataError("no setting pair had coincidences; nothing to estimate")
    with np.errstate(divide="ignore", invalid="ignore"):
        est_a, est_b = np.where(has, 2.0 * coinc / np.stack([singles_b, singles_a]), np.nan)
    above = np.flatnonzero((est_a > 1 + EFFICIENCY_SLACK) | (est_b > 1 + EFFICIENCY_SLACK))
    if above.size:
        i = above[0]
        (ba, ea), (bb, eb) = divmod(i, dim), divmod(partner[i], dim)
        raise CountDataError(
            f"counts for pair (({ba},{ea}),({bb},{eb})) imply an efficiency "
            f"above one (eta_a={est_a[i]:.4g}, eta_b={est_b[i]:.4g})"
        )
    eta_b = np.full(n_s, np.nan)
    eta_b[partner[has]] = est_b[has]
    shape = (dim + 1, dim)
    return EfficiencyTable(dim=dim, eta_a=est_a.reshape(shape), eta_b=eta_b.reshape(shape))


@dataclass(frozen=True)
class UniformityReport:
    """Within-basis relative spread (max - min) / mean for each arm."""

    spread_a: np.ndarray
    spread_b: np.ndarray

    def max_spread(self) -> float:
        both = np.concatenate([self.spread_a, self.spread_b])
        finite = both[np.isfinite(both)]
        return float(np.max(finite)) if finite.size else float("nan")


def efficiency_uniformity(table: EfficiencyTable) -> UniformityReport:
    """Quantify how flat the efficiencies are across each basis.

    A basis with a missing setting gets NaN, which the row reductions carry.
    """
    spread_a, spread_b = (
        (eta.max(axis=1) - eta.min(axis=1)) / eta.mean(axis=1)
        for eta in (table.eta_a, table.eta_b)
    )
    return UniformityReport(spread_a=spread_a, spread_b=spread_b)


def _table_rows(table: EfficiencyTable):
    """Yield (flat 1-based vector index, eta_a, eta_b) for each setting with data."""
    eta_a, eta_b = table.eta_a.reshape(-1), table.eta_b.reshape(-1)
    for i in np.flatnonzero(np.isfinite(eta_a) | np.isfinite(eta_b)):
        yield int(i) + 1, eta_a[i], eta_b[i]


def save_efficiency_table(table: EfficiencyTable, path) -> None:
    """Write rows (flat basis-vector index, eta_a, eta_b) at 5 decimals."""
    lines = [f"dim {table.dim}", "index eta_a eta_b"]
    lines += [f"{i} {ea:.5f} {eb:.5f}" for i, ea, eb in _table_rows(table)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_efficiency_table(path) -> EfficiencyTable:
    lines = list(_text_lines(path))
    if not lines:
        raise ParseError("efficiency table must start with 'dim <d>'")
    dim = _dim_line(*lines[0])
    if not 2 <= dim <= _MAX_DIM:
        raise ParseError(f"dimension {dim} outside the supported range 2..{_MAX_DIM}", lines[0][0])
    eta_a = np.full((dim + 1, dim), np.nan)
    eta_b = np.full((dim + 1, dim), np.nan)
    seen = set()
    for lineno, text in lines[1:]:
        parts = text.split()
        if parts == ["index", "eta_a", "eta_b"]:
            continue
        if len(parts) != 3:
            raise ParseError(f"expected 'index eta_a eta_b', got {text!r}", lineno)
        try:
            idx = int(parts[0])
            vals = [float(p) for p in parts[1:]]
        except ValueError:
            raise ParseError(f"bad efficiency row {text!r}", lineno) from None
        if not 1 <= idx <= (dim + 1) * dim:
            raise ParseError(f"vector index {idx} out of range for dim {dim}", lineno)
        if idx in seen:
            raise ParseError(f"duplicate vector index {idx}", lineno)
        seen.add(idx)
        basis, elem = divmod(idx - 1, dim)
        eta_a[basis, elem] = vals[0]
        eta_b[basis, elem] = vals[1]
    return EfficiencyTable(dim=dim, eta_a=eta_a, eta_b=eta_b)
