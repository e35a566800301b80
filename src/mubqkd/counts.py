"""Coincidence-count matrices and their flat CSV serialization.

One schema serves measured data, Monte Carlo output, and exact-expectation
synthesis: one row per setting pair with the singles seen at each arm and
the coincidences between them.  Basis index 0 is the standard basis.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import CountDataError, DimensionError, ParseError, _text_lines, _unchecked, check_dimension
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

# The largest supported dimension: key strings hold one decimal digit per symbol.
_MAX_DIM = 10
_TALLIES = ("singles_a", "singles_b", "coincidences")


@dataclass(frozen=True, eq=False)
class CountMatrix:
    """Singles and coincidence tallies for every setting pair.

    Arrays are indexed [basis_a, elem_a, basis_b, elem_b].  ``exact=True``
    marks expectation-valued (fractional) data; otherwise entries must be
    nonnegative integers.  ``CountMatrix(...)`` and load_counts check this,
    the dimension, the shapes and that no coincidence exceeds its singles;
    counts the library computes from checked inputs skip it (see _from_flat).
    """

    dim: int
    singles_a: np.ndarray
    singles_b: np.ndarray
    coincidences: np.ndarray
    exact: bool = False
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        check_dimension(self.dim)
        n_b = self.dim + 1
        shape = (n_b, self.dim, n_b, self.dim)
        arrays = [np.asarray(getattr(self, name), dtype=np.float64) for name in _TALLIES]
        for name, arr in zip(_TALLIES, arrays):
            if arr.shape != shape:
                raise DimensionError(
                    f"{name} has shape {arr.shape}, expected {shape} for dim {self.dim}"
                )
        flat = np.array(arrays).reshape(3, -1)  # the three tallies, checked in one pass
        faults = {
            "a non-finite value": ~np.isfinite(flat).all(axis=1),
            "a negative value": (flat < 0).any(axis=1),
        }
        if not self.exact:
            faults["non-integer counts without exact flag"] = (flat != np.floor(flat)).any(axis=1)
        for name, bad in zip(_TALLIES, np.column_stack(list(faults.values()))):
            if bad.any():
                raise CountDataError(f"{name} contains {list(faults)[bad.argmax()]}")
        flat.setflags(write=False)
        stack = flat.reshape(3, *shape)
        over = stack[2] > np.minimum(stack[0], stack[1]) + 1e-9
        if np.any(over):
            idx = tuple(int(x) for x in np.argwhere(over)[0])
            raise CountDataError(f"coincidences exceed singles at setting pair {idx}")
        for name, arr in zip(_TALLIES, stack):
            object.__setattr__(self, name, arr)

    @property
    def n_bases(self) -> int:
        return self.dim + 1

    def total_coincidences(self) -> float:
        return float(np.sum(self.coincidences))

    def coincidence_block(self, basis_a: int, basis_b: int) -> np.ndarray:
        return self.coincidences[basis_a, :, basis_b, :]


def _from_flat(dim: int, tallies, exact: bool, metadata: dict, check: bool = False) -> CountMatrix:
    """CountMatrix from (singles_a, singles_b, coincidences) over the flat cells.

    Flat cell s_a * n_s + s_b, with setting s = basis * dim + elem, is the C
    order of [basis_a, elem_a, basis_b, elem_b]: the row order of the CSV.
    Without check the tallies become read-only rows of one float64 array and
    skip CountMatrix's checks; each caller says why they would pass them.
    """
    stack = np.reshape(tallies, (3, dim + 1, dim, dim + 1, dim)).astype(np.float64)
    stack.setflags(write=False)  # before the row views, which take their flag from it
    fields = dict(zip(_TALLIES, stack), exact=exact, metadata=metadata)
    return CountMatrix(dim, **fields) if check else _unchecked(CountMatrix, dim=dim, **fields)


def normalize_blocks(counts: CountMatrix) -> JointProbMatrix:
    """Normalize each (basis_a, basis_b) coincidence block to unit total.

    Blocks with no coincidences at all are marked unavailable rather than
    silently zeroed.  It keeps JointProbMatrix's check: its clip turns a -0.0 quotient into 0.0.
    """
    n_b = counts.n_bases
    coinc = counts.coincidences
    # Each block summed as one contiguous run, the order np.sum of a block uses.
    totals = coinc.transpose(0, 2, 1, 3).reshape(n_b, n_b, -1).sum(axis=-1)
    avail = totals > 0
    probs = np.divide(
        coinc, totals[:, None, :, None], out=np.zeros_like(coinc), where=avail[:, None, :, None]
    )
    return JointProbMatrix(dim=counts.dim, probs=probs, block_available=avail)


def save_counts(counts: CountMatrix, path) -> None:
    """Write the full grid in canonical setting order with LF line endings."""
    grid = np.stack([counts.singles_a, counts.singles_b, counts.coincidences])
    settings = np.indices(grid.shape[1:]).reshape(4, -1).T
    rows = np.column_stack([settings, grid.reshape(3, -1).T])
    # %d prints -0.0 as 0; %.17g is the text of f"{x:.17g}".
    fmt = ",".join(["%d"] * 4 + ["%.17g" if counts.exact else "%d"] * 3) + "\n"
    header = ("# exact\n" if counts.exact else "") + ",".join(CSV_HEADER) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "".join([fmt % tuple(row) for row in rows.tolist()]))


def load_counts(
    path,
    dim: int | None = None,
    allow_float: bool = False,
    allow_partial: bool = False,
) -> CountMatrix:
    """Parse a counts CSV, validating schema, ranges, and completeness.

    ``dim`` may be omitted, in which case it is inferred from the largest
    element index and cross-checked against the number of bases seen; it
    is bounded to 2..10 either way.
    ``allow_float`` admits expectation-valued rows (the --prob path) and
    ``allow_partial`` skips the full-grid completeness check; missing
    setting pairs are stored as zeros.  A leading ``# exact`` comment,
    written by :func:`save_counts` for expectation-valued grids, turns on
    float parsing automatically.
    """
    linenos, settings, values, comments = [], [], [], []
    seen_settings: set[tuple[int, ...]] = set()
    header = None
    for lineno, text in _text_lines(path, comments):
        parts = next(csv.reader([text]))
        if header is None:
            header = tuple(p.strip() for p in parts)
            if header != CSV_HEADER:
                raise ParseError(
                    f"bad header {','.join(header)!r}; expected {','.join(CSV_HEADER)!r}",
                    lineno,
                )
            allow_float = allow_float or any(c.lstrip("#").strip() == "exact" for c in comments)
            continue
        if len(parts) != len(CSV_HEADER):
            raise ParseError(f"expected {len(CSV_HEADER)} fields, got {len(parts)}", lineno)
        try:
            setting = tuple(int(p) for p in parts[:4])
        except ValueError:
            raise ParseError(f"non-integer setting index in {text!r}", lineno) from None
        try:
            row = tuple(float(p) if allow_float else float(int(p)) for p in parts[4:])
        except ValueError:
            kind = "numeric" if allow_float else "integer"
            raise ParseError(f"non-{kind} count in {text!r}", lineno) from None
        except OverflowError:
            raise ParseError(f"count too large for a float in {text!r}", lineno) from None
        if any(v < 0 for v in row):
            raise ParseError(f"negative count in row {setting}", lineno)
        if any(s < 0 for s in setting):
            raise ParseError(f"negative setting index in row {setting}", lineno)
        if setting in seen_settings:
            raise ParseError(f"duplicate setting pair {setting}", lineno)
        seen_settings.add(setting)
        linenos.append(lineno)
        settings.append(setting)
        values.append(row)
    if header is None:
        raise ParseError("counts file holds no header row")

    # int64, or float64/object when an index is too large for int64.
    index = np.array(settings).reshape(-1, 4)
    if dim is None:
        if not settings:
            raise CountDataError("cannot infer dimension from an empty counts file")
        dim = int(index[:, 1::2].max()) + 1
        n_bases = int(index[:, ::2].max()) + 1
        if n_bases != dim + 1:
            raise CountDataError(
                f"inferred dimension {dim} inconsistent with {n_bases} bases seen"
            )
    if not 2 <= dim <= _MAX_DIM:
        raise CountDataError(f"dimension {dim} outside the supported range 2..{_MAX_DIM}")

    shape = (dim + 1, dim, dim + 1, dim)
    out = np.flatnonzero(np.any(index >= np.array(shape), axis=1))
    if out.size:
        i = out[0]
        raise ParseError(
            "setting ({},{},{},{}) out of range for dimension {}".format(*settings[i], dim),
            linenos[i],
        )
    cells = np.ravel_multi_index(index.T.astype(np.intp), shape)
    tallies = np.zeros((3, np.prod(shape)))
    tallies[:, cells] = np.reshape(values, (-1, 3)).T
    missing = np.flatnonzero(np.bincount(cells, minlength=tallies.shape[1]) == 0)
    if not allow_partial and missing.size:
        first = tuple(int(x) for x in np.unravel_index(missing[0], shape))
        raise CountDataError(
            f"counts file is missing {missing.size} setting pairs, first {first}; "
            "pass the partial flag to accept incomplete grids"
        )
    return _from_flat(dim, tallies, allow_float, {"source": str(path)}, check=True)
