"""Tests for the counts container, CSV schema, and block normalization."""

import numpy as np
import pytest

from mubqkd.counts import (
    CSV_HEADER,
    CountMatrix,
    load_counts,
    normalize_blocks,
    save_counts,
)
from mubqkd.bases import Ket
from mubqkd.errors import CountDataError, DimensionError, ParseError
from mubqkd.photonics import EfficiencyTable
from mubqkd.states import DensityOperator, JointProbMatrix


def _grid(d, fill_s=100.0, fill_c=10.0):
    n = d + 1
    shape = (n, d, n, d)
    return (
        np.full(shape, fill_s),
        np.full(shape, fill_s),
        np.full(shape, fill_c),
    )


def make_counts(d=2, exact=False):
    sa, sb, cc = _grid(d)
    return CountMatrix(dim=d, singles_a=sa, singles_b=sb, coincidences=cc, exact=exact)


def test_basic_properties():
    counts = make_counts(2)
    assert counts.n_bases == 3
    assert counts.total_coincidences() == 10.0 * 3 * 2 * 3 * 2
    assert counts.coincidence_block(0, 1).shape == (2, 2)


def test_rejects_negative_counts():
    sa, sb, cc = _grid(2)
    sa[0, 0, 0, 0] = -1
    with pytest.raises(CountDataError):
        CountMatrix(dim=2, singles_a=sa, singles_b=sb, coincidences=cc)


def test_rejects_non_integer_without_exact():
    sa, sb, cc = _grid(2)
    cc[0, 0, 0, 0] = 1.5
    with pytest.raises(CountDataError):
        CountMatrix(dim=2, singles_a=sa, singles_b=sb, coincidences=cc)
    # exact flag admits the same data
    CountMatrix(dim=2, singles_a=sa, singles_b=sb, coincidences=cc, exact=True)


def test_rejects_coincidences_above_singles():
    sa, sb, cc = _grid(2)
    cc[1, 0, 1, 0] = 200.0
    with pytest.raises(CountDataError) as err:
        CountMatrix(dim=2, singles_a=sa, singles_b=sb, coincidences=cc)
    assert "(1,0)" in str(err.value) or "1, 0" in str(err.value)


def test_normalize_blocks_uniform():
    counts = make_counts(2)
    jm = normalize_blocks(counts)
    assert np.allclose(jm.probs, 1 / 4)
    assert jm.block_available.all()


def test_normalize_blocks_handles_empty_block():
    sa, sb, cc = _grid(2)
    cc[0, :, 1, :] = 0.0
    counts = CountMatrix(dim=2, singles_a=sa, singles_b=sb, coincidences=cc)
    jm = normalize_blocks(counts)
    assert not jm.block_available[0, 1]
    assert jm.block_available[0, 0]
    assert np.allclose(jm.block(0, 1), 0.0)


def test_save_load_roundtrip_integer(tmp_path):
    rng = np.random.default_rng(4)
    d = 3
    n = d + 1
    sa = rng.integers(50, 500, size=(n, d, n, d)).astype(float)
    sb = rng.integers(50, 500, size=(n, d, n, d)).astype(float)
    cc = np.minimum(sa, sb) * 0.1
    cc = np.floor(cc)
    counts = CountMatrix(dim=d, singles_a=sa, singles_b=sb, coincidences=cc)
    path = tmp_path / "counts.csv"
    save_counts(counts, path)
    loaded = load_counts(path)
    assert loaded.dim == d
    assert np.array_equal(loaded.singles_a, sa)
    assert np.array_equal(loaded.singles_b, sb)
    assert np.array_equal(loaded.coincidences, cc)
    assert not loaded.exact


def test_save_load_roundtrip_exact(tmp_path):
    d = 2
    n = d + 1
    sa = np.full((n, d, n, d), 123.456789012345)
    sb = np.full((n, d, n, d), 7.1)
    cc = np.full((n, d, n, d), 0.03)
    counts = CountMatrix(dim=d, singles_a=sa, singles_b=sb, coincidences=cc, exact=True)
    path = tmp_path / "exact.csv"
    save_counts(counts, path)
    text = path.read_text()
    assert text.startswith("# exact\n")
    # The marker switches float parsing on without the caller asking.
    loaded = load_counts(path)
    assert loaded.exact
    assert np.array_equal(loaded.singles_a, sa)
    assert np.array_equal(loaded.coincidences, cc)


def test_saved_file_uses_lf_only(tmp_path):
    counts = make_counts(2)
    path = tmp_path / "counts.csv"
    save_counts(counts, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ParseError) as err:
        load_counts(path)
    assert "header" in str(err.value)


@pytest.mark.parametrize("text", ["", "# exact\n\n"])
def test_load_reports_a_missing_header_without_a_line(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_counts(path)
    assert str(err.value) == "counts file holds no header row"
    assert err.value.line is None


def test_load_rejects_negative_with_line_number(tmp_path):
    path = tmp_path / "neg.csv"
    lines = [",".join(CSV_HEADER), "0,0,0,0,-5,10,1"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_counts(path, allow_partial=True)
    assert "line 2" in str(err.value)


def test_load_rejects_duplicate_setting(tmp_path):
    path = tmp_path / "dup.csv"
    lines = [",".join(CSV_HEADER), "0,0,0,0,5,5,1", "0,0,0,0,6,6,1"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_counts(path, allow_partial=True)
    assert "line 3" in str(err.value)


def test_load_rejects_out_of_range_index(tmp_path):
    path = tmp_path / "range.csv"
    lines = [",".join(CSV_HEADER), "0,0,0,9,5,5,1"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises((ParseError, CountDataError)):
        load_counts(path, dim=2, allow_partial=True)


def test_load_names_missing_pair(tmp_path):
    counts = make_counts(2)
    path = tmp_path / "full.csv"
    save_counts(counts, path)
    lines = path.read_text().splitlines()
    # Remove the row for setting pair ((0,1),(2,0)).
    trimmed = [ln for ln in lines if not ln.startswith("0,1,2,0,")]
    assert len(trimmed) == len(lines) - 1
    path.write_text("\n".join(trimmed) + "\n")
    with pytest.raises(CountDataError) as err:
        load_counts(path)
    assert "0" in str(err.value) and "2" in str(err.value)
    # Partial loading tolerates the hole and stores zeros there.
    loaded = load_counts(path, allow_partial=True)
    assert loaded.singles_a[0, 1, 2, 0] == 0.0


def test_load_rejects_float_without_permission(tmp_path):
    path = tmp_path / "float.csv"
    lines = [",".join(CSV_HEADER), "0,0,0,0,5.5,5,1"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError):
        load_counts(path, dim=2, allow_partial=True)
    loaded = load_counts(path, dim=2, allow_float=True, allow_partial=True)
    assert loaded.singles_a[0, 0, 0, 0] == 5.5


def test_load_dim_crosscheck(tmp_path):
    counts = make_counts(2)
    path = tmp_path / "counts.csv"
    save_counts(counts, path)
    with pytest.raises(CountDataError):
        load_counts(path, dim=3)


def test_load_skips_comments_and_blanks(tmp_path):
    counts = make_counts(2)
    path = tmp_path / "counts.csv"
    save_counts(counts, path)
    text = path.read_text()
    path.write_text("# a comment\n\n" + text)
    loaded = load_counts(path)
    assert loaded.dim == 2


def test_metadata_records_source(tmp_path):
    counts = make_counts(2)
    path = tmp_path / "counts.csv"
    save_counts(counts, path)
    loaded = load_counts(path)
    assert str(path) in loaded.metadata.get("source", "")


# Every frozen container copies its input, so the caller's array stays writable.
@pytest.mark.parametrize(
    "build, field, make",
    [
        (lambda a: CountMatrix(dim=2, singles_a=a, singles_b=a, coincidences=a),
         "singles_a", lambda: np.zeros((3, 2, 3, 2))),
        (lambda a: EfficiencyTable(dim=2, eta_a=a, eta_b=a), "eta_a", lambda: np.full((3, 2), 0.5)),
        (lambda a: DensityOperator(matrix=a, dim=2), "matrix", lambda: np.eye(4, dtype=complex) / 4),
        (lambda a: Ket(a), "amplitudes", lambda: np.array([1.0, 0.0], dtype=complex)),
        (lambda a: JointProbMatrix(dim=2, probs=np.zeros((3, 2, 3, 2)), block_available=a),
         "block_available", lambda: np.ones((3, 3), dtype=bool)),
    ],
    ids=["CountMatrix", "EfficiencyTable", "DensityOperator", "Ket", "JointProbMatrix"],
)
def test_constructors_copy_before_freezing(build, field, make):
    arr = make()
    stored = getattr(build(arr), field)
    assert arr.flags.writeable
    assert not stored.flags.writeable
    arr.flat[0] = arr.flat[0]


# The element-by-element save, row-by-row scatter and per-block normalization
# that the array paths replaced, kept as oracles for them.
def _oracle_save(counts, path):
    def fmt(x):
        return f"{x:.17g}" if counts.exact else str(int(round(x)))

    d, n = counts.dim, counts.n_bases
    lines = ["# exact"] if counts.exact else []
    lines.append(",".join(CSV_HEADER))
    for ba, ea, bb, eb in np.ndindex(n, d, n, d):
        cell = (ba, ea, bb, eb)
        lines.append(
            f"{ba},{ea},{bb},{eb},{fmt(counts.singles_a[cell])},"
            f"{fmt(counts.singles_b[cell])},{fmt(counts.coincidences[cell])}"
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _oracle_load(path, dim):
    n = dim + 1
    grids = np.zeros((3, n, dim, n, dim))
    for line in path.read_text().splitlines():
        if line.startswith("#") or line == ",".join(CSV_HEADER):
            continue
        parts = line.split(",")
        cell = tuple(int(p) for p in parts[:4])
        for grid, text in zip(grids, parts[4:]):
            grid[cell] = float(text)
    return grids


def _oracle_normalize(counts):
    d, n = counts.dim, counts.n_bases
    probs = np.zeros((n, d, n, d))
    avail = np.ones((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            block = counts.coincidence_block(i, j)
            total = float(np.sum(block))
            if total <= 0.0:
                avail[i, j] = False
            else:
                probs[i, :, j, :] = block / total
    return JointProbMatrix(dim=d, probs=probs, block_available=avail)


def _random_counts(d, exact, seed):
    rng = np.random.default_rng([seed, d, exact])
    shape = (d + 1, d, d + 1, d)
    sa = rng.integers(0, 5000, shape).astype(float)
    sb = rng.integers(0, 5000, shape).astype(float)
    cc = np.floor(np.minimum(sa, sb) * rng.random(shape))
    if exact:
        sa, sb = sa * rng.random(shape), sb * rng.random(shape)
        cc = np.minimum(np.minimum(sa, sb), cc * rng.random(shape))
    cc[1, :, 0, :] = 0.0  # an empty block
    cc[0, 0, 0, 0] = -0.0
    return CountMatrix(dim=d, singles_a=sa, singles_b=sb, coincidences=cc, exact=exact)


@pytest.mark.parametrize("exact", [False, True], ids=["integer", "exact"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_array_paths_match_the_oracles_bit_for_bit(tmp_path, d, exact):
    counts = _random_counts(d, exact, seed=11)
    path, want = tmp_path / "counts.csv", tmp_path / "oracle.csv"
    save_counts(counts, path)
    _oracle_save(counts, want)
    assert path.read_bytes() == want.read_bytes()

    loaded = load_counts(path)
    assert loaded.exact == exact
    got = np.stack([loaded.singles_a, loaded.singles_b, loaded.coincidences])
    assert got.tobytes() == _oracle_load(path, d).tobytes()

    want_jm, jm = _oracle_normalize(loaded), normalize_blocks(loaded)
    assert jm.probs.tobytes() == want_jm.probs.tobytes()
    assert np.array_equal(jm.block_available, want_jm.block_available)
    assert not jm.block_available[1, 0]

    # A partial file: every third row dropped, the holes loaded as zeros.
    lines = want.read_text().splitlines(keepends=True)
    head = 2 if exact else 1
    partial = tmp_path / "partial.csv"
    partial.write_text("".join(lines[:head] + lines[head::3]))
    loaded = load_counts(partial, dim=d, allow_partial=True)
    got = np.stack([loaded.singles_a, loaded.singles_b, loaded.coincidences])
    assert got.tobytes() == _oracle_load(partial, d).tobytes()


def test_negative_zero_is_written_as_zero(tmp_path):
    sa, sb, cc = _grid(2)
    cc[0, 0, 0, 0] = -0.0
    path = tmp_path / "counts.csv"
    save_counts(CountMatrix(dim=2, singles_a=sa, singles_b=sb, coincidences=cc), path)
    assert "0,0,0,0,100,100,0\n" in path.read_text()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_counts(value):
    sa, sb, cc = _grid(2)
    sb[1, 0, 2, 1] = value
    with pytest.raises(CountDataError, match="singles_b contains a non-finite value"):
        CountMatrix(dim=2, singles_a=sa, singles_b=sb, coincidences=cc, exact=True)


_TALLIES = ("singles_a", "singles_b", "coincidences")
_FAULTS = {
    "shape": (DimensionError, "has shape"),
    "non-finite": (CountDataError, "contains a non-finite value"),
    "negative": (CountDataError, "contains a negative value"),
    "non-integer": (CountDataError, "contains non-integer counts without exact flag"),
}


@pytest.mark.parametrize("fault", _FAULTS)
@pytest.mark.parametrize("name", _TALLIES)
def test_count_faults_name_their_field(name, fault):
    # The three tallies are checked together; the error names the bad one.
    fields = dict(zip(_TALLIES, _grid(2)))
    bad = fields[name]
    if fault == "shape":
        fields[name] = bad[:, :, :2]
    else:
        bad[2, 1, 0, 0] = {"non-finite": np.nan, "negative": -1.0, "non-integer": 0.5}[fault]
    error, text = _FAULTS[fault]
    with pytest.raises(error, match=f"^{name} {text}"):
        CountMatrix(dim=2, **fields)


@pytest.mark.parametrize("text", ["nan", "inf", "1e400"])
def test_load_rejects_non_finite_exact_counts(tmp_path, text):
    counts = make_counts(2, exact=True)
    path = tmp_path / "exact.csv"
    save_counts(counts, path)
    lines = path.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + "," + text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CountDataError, match="non-finite"):
        load_counts(path)


@pytest.mark.parametrize("dim", [1000, 11, 1, 0, -3])
def test_load_rejects_dimension_outside_range_before_allocating(tmp_path, dim):
    counts = make_counts(2)
    path = tmp_path / "counts.csv"
    save_counts(counts, path)
    with pytest.raises(CountDataError, match=f"dimension {dim} outside the supported range 2..10"):
        load_counts(path, dim=dim)


def test_load_rejects_inferred_dimension_outside_range(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(",".join(CSV_HEADER) + "\n1000,999,1000,999,4,4,1\n")
    with pytest.raises(CountDataError, match="dimension 1000 outside"):
        load_counts(path)


def test_load_out_of_range_reports_first_offending_line(tmp_path):
    path = tmp_path / "range.csv"
    rows = ["0,0,0,0,5,5,1", "0,0,0,1,5,5,1", "3,0,0,0,5,5,1", "0,5,0,0,5,5,1"]
    path.write_text("\n".join([",".join(CSV_HEADER), "# note", *rows]) + "\n")
    want = r"line 5: setting \(3,0,0,0\) out of range for dimension 2"
    with pytest.raises(ParseError, match=want):
        load_counts(path, dim=2, allow_partial=True)
    huge = "0,0,0," + "9" * 30 + ",5,5,1"
    path.write_text("\n".join([",".join(CSV_HEADER), "0,0,0,0,5,5,1", huge]) + "\n")
    with pytest.raises(ParseError, match="line 3: setting"):
        load_counts(path, dim=2, allow_partial=True)


def test_load_rejects_integer_count_too_large_for_a_float(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text(",".join(CSV_HEADER) + "\n0,0,0,0," + "9" * 400 + ",5,1\n")
    with pytest.raises(ParseError, match="line 2: count too large"):
        load_counts(path, dim=2, allow_partial=True)
