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
from mubqkd.errors import CountDataError, ParseError
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
