"""Coincidence-count matrices and their flat CSV serialization.

One schema serves measured data, Monte Carlo output, and exact-expectation
synthesis: one row per setting pair with the singles seen at each arm and
the coincidences between them.  Basis index 0 is the standard basis.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import CountDataError, DimensionError, ParseError
from .states import JointProbMatrix

CSV_HEADER = (
    "basis_a",
    "elem_a",
    "basis_b",
    "elem_b",
    "singles_a",
    "singles_b",
    "coincidences",
)


@dataclass(frozen=True, eq=False)
class CountMatrix:
    """Singles and coincidence tallies for every setting pair.

    Arrays are indexed [basis_a, elem_a, basis_b, elem_b].  ``exact=True``
    marks expectation-valued (fractional) data; otherwise entries must be
    nonnegative integers.
    """

    dim: int
    singles_a: np.ndarray
    singles_b: np.ndarray
    coincidences: np.ndarray
    exact: bool = False
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n_b = self.dim + 1
        shape = (n_b, self.dim, n_b, self.dim)
        arrays = {}
        for name in ("singles_a", "singles_b", "coincidences"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise DimensionError(
                    f"{name} has shape {arr.shape}, expected {shape} for dim {self.dim}"
                )
            if np.min(arr) < 0:
                raise CountDataError(f"{name} contains a negative value")
            if not self.exact and not np.all(arr == np.floor(arr)):
                raise CountDataError(f"{name} contains non-integer counts without exact flag")
            arr.setflags(write=False)
            arrays[name] = arr
        over = arrays["coincidences"] > np.minimum(
            arrays["singles_a"], arrays["singles_b"]
        ) + 1e-9
        if np.any(over):
            idx = tuple(int(x) for x in np.argwhere(over)[0])
            raise CountDataError(
                f"coincidences exceed singles at setting pair {idx}"
            )
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    @property
    def n_bases(self) -> int:
        return self.dim + 1

    def total_coincidences(self) -> float:
        return float(np.sum(self.coincidences))

    def coincidence_block(self, basis_a: int, basis_b: int) -> np.ndarray:
        return self.coincidences[basis_a, :, basis_b, :]


def normalize_blocks(counts: CountMatrix) -> JointProbMatrix:
    """Normalize each (basis_a, basis_b) coincidence block to unit total.

    Blocks with no coincidences at all are marked unavailable rather than
    silently zeroed.
    """
    d = counts.dim
    n_b = counts.n_bases
    probs = np.zeros((n_b, d, n_b, d), dtype=np.float64)
    avail = np.ones((n_b, n_b), dtype=bool)
    for i in range(n_b):
        for j in range(n_b):
            block = counts.coincidence_block(i, j)
            total = float(np.sum(block))
            if total <= 0.0:
                avail[i, j] = False
            else:
                probs[i, :, j, :] = block / total
    return JointProbMatrix(dim=d, probs=probs, block_available=avail)


def _format_count(x: float, exact: bool) -> str:
    if not exact:
        return str(int(round(x)))
    return f"{x:.17g}"


def save_counts(counts: CountMatrix, path) -> None:
    """Write the full grid in canonical setting order with LF line endings."""
    d = counts.dim
    lines = []
    if counts.exact:
        lines.append("# exact")
    lines.append(",".join(CSV_HEADER))
    for ba in range(counts.n_bases):
        for ea in range(d):
            for bb in range(counts.n_bases):
                for eb in range(d):
                    lines.append(
                        f"{ba},{ea},{bb},{eb},"
                        f"{_format_count(counts.singles_a[ba, ea, bb, eb], counts.exact)},"
                        f"{_format_count(counts.singles_b[ba, ea, bb, eb], counts.exact)},"
                        f"{_format_count(counts.coincidences[ba, ea, bb, eb], counts.exact)}"
                    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def load_counts(
    path,
    dim: int | None = None,
    allow_float: bool = False,
    allow_partial: bool = False,
) -> CountMatrix:
    """Parse a counts CSV, validating schema, ranges, and completeness.

    ``dim`` may be omitted, in which case it is inferred from the largest
    element index and cross-checked against the number of bases seen.
    ``allow_float`` admits expectation-valued rows (the --prob path) and
    ``allow_partial`` skips the full-grid completeness check; missing
    setting pairs are stored as zeros.  A leading ``# exact`` comment,
    written by :func:`save_counts` for expectation-valued grids, turns on
    float parsing automatically.
    """
    rows = []
    seen_settings: set[tuple[int, ...]] = set()
    with open(path, encoding="utf-8", newline="") as fh:
        lineno = 0
        header = None
        for raw in fh:
            lineno += 1
            text = raw.strip()
            if not text or text.startswith("#"):
                if header is None and text.lstrip("#").strip() == "exact":
                    allow_float = True
                continue
            parts = next(csv.reader([text]))
            if header is None:
                header = tuple(p.strip() for p in parts)
                if header != CSV_HEADER:
                    raise ParseError(
                        f"bad header {','.join(header)!r}; expected {','.join(CSV_HEADER)!r}",
                        lineno,
                    )
                continue
            if len(parts) != len(CSV_HEADER):
                raise ParseError(f"expected {len(CSV_HEADER)} fields, got {len(parts)}", lineno)
            try:
                setting = tuple(int(p) for p in parts[:4])
            except ValueError:
                raise ParseError(f"non-integer setting index in {text!r}", lineno) from None
            try:
                if allow_float:
                    values = tuple(float(p) for p in parts[4:])
                else:
                    values = tuple(int(p) for p in parts[4:])
            except ValueError:
                kind = "numeric" if allow_float else "integer"
                raise ParseError(f"non-{kind} count in {text!r}", lineno) from None
            if any(v < 0 for v in values):
                raise ParseError(f"negative count in row {setting}", lineno)
            if any(s < 0 for s in setting):
                raise ParseError(f"negative setting index in row {setting}", lineno)
            if setting in seen_settings:
                raise ParseError(f"duplicate setting pair {setting}", lineno)
            seen_settings.add(setting)
            rows.append((lineno, setting, values))
    if header is None:
        raise ParseError("counts file holds no header row", 0)

    if dim is None:
        if not rows:
            raise CountDataError("cannot infer dimension from an empty counts file")
        max_elem = max(max(s[1], s[3]) for _, s, _ in rows)
        max_basis = max(max(s[0], s[2]) for _, s, _ in rows)
        dim = max_elem + 1
        if max_basis + 1 != dim + 1:
            raise CountDataError(
                f"inferred dimension {dim} inconsistent with {max_basis + 1} bases seen"
            )

    n_b = dim + 1
    shape = (n_b, dim, n_b, dim)
    singles_a = np.zeros(shape)
    singles_b = np.zeros(shape)
    coinc = np.zeros(shape)
    seen = np.zeros(shape, dtype=bool)
    for lineno, (ba, ea, bb, eb), (sa, sb, cc) in rows:
        if ba >= n_b or bb >= n_b or ea >= dim or eb >= dim:
            raise ParseError(
                f"setting ({ba},{ea},{bb},{eb}) out of range for dimension {dim}", lineno
            )
        seen[ba, ea, bb, eb] = True
        singles_a[ba, ea, bb, eb] = sa
        singles_b[ba, ea, bb, eb] = sb
        coinc[ba, ea, bb, eb] = cc

    if not allow_partial and not np.all(seen):
        missing = np.argwhere(~seen)
        first = tuple(int(x) for x in missing[0])
        raise CountDataError(
            f"counts file is missing {len(missing)} setting pairs, first {first}; "
            "pass the partial flag to accept incomplete grids"
        )

    return CountMatrix(
        dim=dim,
        singles_a=singles_a,
        singles_b=singles_b,
        coincidences=coinc,
        exact=allow_float,
        metadata={"source": str(path)},
    )
