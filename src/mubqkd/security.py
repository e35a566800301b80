"""Error rates, entropies, and the asymptotic secret-key rate.

The protocol's error rate Q averages, over all d+1 bases, the probability
that both filters pass for different elements of the same basis.  Against
coherent attacks the asymptotic rate with one-way post-processing is

    r(d, Q) = log2(d) + (d+1)/d * Q * log2(Q / (d (d-1)))
              + (1 - (d+1)/d * Q) * log2(1 - (d+1)/d * Q)

which decreases from log2(d) at Q = 0 and crosses zero exactly once on
(0, d/(d+1)); the crossing is the tolerable error-rate ceiling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bases import MubSet
from .counts import CountMatrix
from .errors import CountDataError, NumericError, check_dimension, check_range
from .states import DensityOperator, joint_prob_matrix

PROBABILITY_TOL = 1e-12
DEFAULT_ROOT_TOL = 1e-10


def shannon_entropy(probs) -> float:
    """Entropy in bits of a probability array of any shape.

    The array is divided by its sum (within 1e-12 of one), and zero cells
    contribute nothing.
    """
    p = np.asarray(probs, dtype=np.float64)
    total = float(np.sum(p))
    if not (abs(total - 1.0) <= PROBABILITY_TOL and np.min(p) >= -PROBABILITY_TOL):
        raise ValueError(f"probabilities must be nonnegative and sum to 1 (sum {total!r})")
    p = p[p > 0] / total
    return float(-np.sum(p * np.log2(p)))


def mutual_information(joint) -> float:
    """I(A:B) = H(A) + H(B) - H(A,B) of a joint probability array indexed [a, b]."""
    p = np.asarray(joint, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError(f"joint distribution must be a 2-D array, got {p.ndim} dimensions")
    return shannon_entropy(p.sum(axis=1)) + shannon_entropy(p.sum(axis=0)) - shannon_entropy(p)


def isotropic_joint_distribution(d: int, q: float) -> np.ndarray:
    """Same-basis outcome pairs [a, b] under isotropic noise with error rate q.

    Diagonal cells carry (1 - q)/d each, off-diagonal cells q/(d (d-1));
    this is the distribution every basis of a complete unbiased set sees.
    """
    check_dimension(d)
    check_range(f"error rate for d={d}", q, 0, (d - 1) / d, error=ValueError)
    return np.where(np.eye(d, dtype=bool), (1.0 - q) / d, q / (d * (d - 1)))


def _same_basis(grid: np.ndarray) -> np.ndarray:
    """The same-basis blocks (basis, a, b) of a [basis_a, a, basis_b, b] grid."""
    n_b = grid.shape[0]
    return grid[range(n_b), :, range(n_b), :]


def _disagreement(tally: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each basis's total and off-diagonal (a != b) mass of a (basis, a, b) tally."""
    off = ~np.eye(tally.shape[1], dtype=bool)
    return tally.sum(axis=(1, 2)), np.sum(tally, axis=(1, 2), where=off)


def average_qber(rho: DensityOperator, mubs: MubSet) -> float:
    """Protocol-wide error rate: mean of the per-basis rates over all d+1 bases."""
    _, rates = _disagreement(_same_basis(joint_prob_matrix(rho, mubs).probs))
    return float(np.mean(rates))


def empirical_qber(counts: CountMatrix) -> tuple[list[float | None], float]:
    """Per-basis and average error rates from same-basis coincidence blocks.

    A basis without any same-basis coincidences yields None and is left out
    of the average (with a warning) rather than counted as zero.
    """
    totals, errors = _disagreement(_same_basis(counts.coincidences))
    per_basis = [None if t <= 0.0 else float(e / t) for t, e in zip(totals, errors)]
    missing = [i for i, q in enumerate(per_basis) if q is None]
    if len(missing) == len(per_basis):
        raise CountDataError("no same-basis coincidences in any basis")
    if missing:
        warnings.warn(
            f"bases {missing} have no same-basis coincidences; "
            "their error rates are unavailable and excluded from the average",
            stacklevel=2,
        )
    return per_basis, float(np.mean([q for q in per_basis if q is not None]))


def key_rate(d: int, q: float) -> float:
    """Asymptotic secret fraction of the d-dimensional protocol at error rate q.

    d must be an integer of at least 2.  The rate is computed in Python floats
    on float(q), so it is a float, and a numpy scalar q gives its value's rate.
    """
    d = check_dimension(d)
    check_range("error rate", q, 0, error=ValueError)
    return _rate(d, float(q))


def _rate(d: int, q: float) -> float:
    """key_rate without the range checks on d and q, which q_max makes once."""
    t = (d + 1) / d * q
    if t >= 1.0:
        raise ValueError(
            f"error rate {q} is out of range for d={d}: (d+1) q / d must stay below 1"
        )
    rate = math.log2(d)
    if q > 0.0:
        ratio = q / (d * (d - 1))
        if ratio > 0.0:
            rate += t * math.log2(ratio)
        else:
            # subnormal q: the quotient underflows to zero, so take the
            # logs separately (the term itself is ~t*1075, i.e. negligible)
            rate += t * (math.log2(q) - math.log2(d * (d - 1)))
        rate += (1.0 - t) * math.log2(1.0 - t)  # t > 0 here, and t < 1 from the check above
    return rate


def q_max(d: int, tol: float = DEFAULT_ROOT_TOL) -> float:
    """Tolerable error-rate ceiling: the root of key_rate(d, .) on (0, (d-1)/d).

    The rate is log2 d > 0 at q = 0, falls monotonically to its minimum
    -log2 d < 0 at the uniform error (d-1)/d, and so has exactly one root
    in that bracket, which is bisected until |key_rate| < tol.
    """
    d = check_dimension(d)
    check_range("tolerance", tol, 0, ends="(]", error=ValueError)
    lo, hi = 0.0, (d - 1) / d
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = _rate(d, mid)
        if abs(f_mid) < tol:
            return mid
        if f_mid > 0:
            lo = mid
        else:
            hi = mid
    raise NumericError(f"bisection for d={d} did not reach |rate| < {tol}")


def _gap_tolerance(d: int, n_same: float) -> float:
    """How far below zero sampling alone can push the eavesdropper bound.

    At Q = 0 the pooled joint is diagonal, so I(A:B) = H(A), and the plug-in
    shortfall log2 d - H(A) over n_same same-basis coincidences is about
    chi2(d-1) / (2 n_same ln 2) (Miller 1955).  The tolerance takes the
    Wilson-Hilferty quantile of chi2(d-1) at z = 6.
    """
    k = d - 1
    c = 2.0 / (9.0 * k)
    quantile = k * (1.0 - c + 6.0 * math.sqrt(c)) ** 3
    return quantile / (2.0 * n_same * math.log(2.0))


def joint_distribution_from_counts(counts: CountMatrix) -> np.ndarray:
    """Outcome-pair probabilities [a, b] pooled over all same-basis coincidences."""
    pooled = _same_basis(counts.coincidences).sum(axis=0)
    total = float(np.sum(pooled))
    if total <= 0.0:
        raise CountDataError("no same-basis coincidences to build a joint distribution")
    return pooled / total


@dataclass(frozen=True)
class SecurityReport:
    """Everything the analysis stage derives from one counts matrix."""

    dim: int
    qber_by_basis: tuple
    qber: float
    rate: float
    qber_ceiling: float
    h_a: float
    h_b: float
    h_ab: float
    i_ab: float
    gap: float  # I(A:B) minus the rate, never clipped: below -gap_tol the inputs are inconsistent
    gap_tol: float

    @property
    def gap_suspect(self) -> bool:
        """The bound is negative by more than sampling error explains."""
        return self.gap < -self.gap_tol

    def to_text(self) -> str:
        by_basis = ", ".join(
            f"{i}: {'n/a' if q is None else format(q, '.6f')}"
            for i, q in enumerate(self.qber_by_basis)
        )
        lines = [
            f"dimension            {self.dim}",
            f"average error rate   {self.qber:.6f}",
            f"error rate by basis  {by_basis}",
            f"error-rate ceiling   {self.qber_ceiling:.6f}",
            f"key rate             {self.rate:.6f} bits/symbol",
            f"H(A), H(B), H(A,B)   {self.h_a:.6f}, {self.h_b:.6f}, {self.h_ab:.6f}",
            f"mutual information   {self.i_ab:.6f} bits",
            f"eavesdropper bound   {self.gap:.6f} bits",
        ]
        if self.gap_suspect:
            lines.append(
                "warning: negative eavesdropper bound; inputs are inconsistent"
            )
        if self.rate <= 0:
            lines.append("warning: key rate is not positive at this error rate")
        return "\n".join(lines) + "\n"


REPORT_CSV_HEADER = "d,Q,Q_max,r_min,I_AB,holevo_gap"


def report_csv_rows(reports: Sequence[SecurityReport]) -> str:
    lines = [REPORT_CSV_HEADER]
    for rep in reports:
        lines.append(
            f"{rep.dim},{rep.qber:.10g},{rep.qber_ceiling:.10g},"
            f"{rep.rate:.10g},{rep.i_ab:.10g},{rep.gap:.10g}"
        )
    return "\n".join(lines) + "\n"


def analyze_counts(counts: CountMatrix, tol: float = DEFAULT_ROOT_TOL) -> SecurityReport:
    """Run the full post-processing chain on one counts matrix."""
    per_basis, q_avg = empirical_qber(counts)
    joint = joint_distribution_from_counts(counts)
    n_same = float(_same_basis(counts.coincidences).sum())
    h_a, h_b, h_ab = (shannon_entropy(p) for p in (joint.sum(axis=1), joint.sum(axis=0), joint))
    i_ab = h_a + h_b - h_ab
    rate = key_rate(counts.dim, q_avg)
    ceiling = q_max(counts.dim, tol)
    return SecurityReport(
        dim=counts.dim,
        qber_by_basis=tuple(per_basis),
        qber=q_avg,
        rate=rate,
        qber_ceiling=ceiling,
        h_a=h_a,
        h_b=h_b,
        h_ab=h_ab,
        i_ab=i_ab,
        gap=i_ab - rate,
        # Expectation-valued counts carry no sampling error.
        gap_tol=0.0 if counts.exact else _gap_tolerance(counts.dim, n_same),
    )
