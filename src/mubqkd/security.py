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
from .errors import CountDataError, DimensionError, NumericError
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
    if d < 2:
        raise DimensionError(f"dimension must be at least 2, got {d}")
    ceiling = (d - 1) / d
    if not 0.0 <= q <= ceiling:
        raise ValueError(f"error rate {q} outside [0, {ceiling:.6f}] for d={d}")
    return np.where(np.eye(d, dtype=bool), (1.0 - q) / d, q / (d * (d - 1)))


def average_qber(rho: DensityOperator, mubs: MubSet) -> float:
    """Protocol-wide error rate: mean of the per-basis rates over all d+1 bases."""
    probs = joint_prob_matrix(rho, mubs).probs
    same = probs[range(mubs.n_bases), :, range(mubs.n_bases), :]  # (basis, a, b)
    rates = np.sum(same, axis=(1, 2), where=~np.eye(mubs.dim, dtype=bool))
    return float(np.mean(rates))


def empirical_qber(counts: CountMatrix) -> tuple[list[float | None], float]:
    """Per-basis and average error rates from same-basis coincidence blocks.

    A basis without any same-basis coincidences yields None and is left out
    of the average (with a warning) rather than counted as zero.
    """
    n_b = counts.n_bases
    same = counts.coincidences[range(n_b), :, range(n_b), :]  # (basis, a, b)
    totals, agreed = same.sum(axis=(1, 2)), np.trace(same, axis1=1, axis2=2)
    # On expectation-valued blocks the trace can round a hair above the total.
    per_basis = [None if t <= 0.0 else float(max(t - a, 0.0) / t) for t, a in zip(totals, agreed)]
    available = [q for q in per_basis if q is not None]
    if not available:
        raise CountDataError("no same-basis coincidences in any basis")
    if len(available) < n_b:
        missing = [i for i, q in enumerate(per_basis) if q is None]
        warnings.warn(
            f"bases {missing} have no same-basis coincidences; "
            "their error rates are unavailable and excluded from the average",
            stacklevel=2,
        )
    return per_basis, float(np.mean(available))


def key_rate(d: int, q: float) -> float:
    """Asymptotic secret fraction of the d-dimensional protocol at error rate q."""
    if d < 2:
        raise DimensionError(f"dimension must be at least 2, got {d}")
    if not q >= 0:  # also rejects NaN
        raise ValueError(f"error rate must be a nonnegative number, got {q}")
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
    if t < 1.0 and t > 0.0:
        rate += (1.0 - t) * math.log2(1.0 - t)
    return rate


def q_max(d: int, tol: float = DEFAULT_ROOT_TOL) -> float:
    """Tolerable error-rate ceiling: the root of key_rate(d, .) on (0, (d-1)/d).

    The rate is log2 d > 0 at q = 0, falls monotonically to its minimum
    -log2 d < 0 at the uniform error (d-1)/d, and so has exactly one root
    in that bracket, which is bisected until |key_rate| < tol.
    """
    if d < 2:
        raise DimensionError(f"dimension must be at least 2, got {d}")
    if not tol > 0:  # also rejects NaN
        raise ValueError(f"tolerance must be positive, got {tol}")
    lo, hi = 0.0, (d - 1) / d
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = key_rate(d, mid)
        if abs(f_mid) < tol:
            return mid
        if f_mid > 0:
            lo = mid
        else:
            hi = mid
    raise NumericError(f"bisection for d={d} did not reach |rate| < {tol}")


def holevo_gap(i_ab: float, r_min: float) -> float:
    """Information ceded to the eavesdropper: I(A:B) minus the key rate.

    A negative value signals inconsistent inputs and is returned as-is so
    reports can flag it; it is never clipped to zero.
    """
    return i_ab - r_min


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
    n_b = counts.n_bases
    pooled = counts.coincidences[range(n_b), :, range(n_b), :].sum(axis=0)
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
    gap: float
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
    n_b = counts.n_bases
    n_same = float(counts.coincidences[range(n_b), :, range(n_b), :].sum())
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
        gap=holevo_gap(i_ab, rate),
        # Expectation-valued counts carry no sampling error.
        gap_tol=0.0 if counts.exact else _gap_tolerance(counts.dim, n_same),
    )
