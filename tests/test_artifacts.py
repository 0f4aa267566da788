"""The table layout of ``artifacts``: bit-exact round trips, the checks
``read_table`` makes, and the reuse rule's extra header fields."""

import numpy as np
import pytest

from tricurves import artifacts
from tricurves.errors import ValidationError

EDGE_FLOATS = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308, 0.1, -2.5e-300]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_round_trip_is_bit_exact_for_every_column_kind(tmp_path):
    path = tmp_path / "table.csv"
    n = len(EDGE_FLOATS)
    ints = np.array([0, -1, 2**53, 7, -(2**40), 1, 2, 3])
    names = [f"s{i}" for i in range(n)]
    artifacts.write_table(path, {"config_hash": "abc", "seed": 3},
                          {"x": EDGE_FLOATS, "k": ints, "flag": np.arange(n) % 2 == 0, "name": names})
    lines = path.read_text().splitlines()
    assert lines[:3] == ["# config_hash=abc seed=3", "x,k,flag,name", "-0,0,1,s0"]
    header, table = artifacts.read_table(path, {"x": float, "k": int, "flag": int, "name": str})
    assert header == {"config_hash": "abc", "seed": "3"}
    assert table["x"].dtype == np.float64 and np.array_equal(_bits(table["x"]), _bits(EDGE_FLOATS))
    assert table["k"].dtype == np.int64 and np.array_equal(table["k"], ints)
    assert table["flag"].tolist() == [1, 0] * (n // 2)
    assert table["name"].tolist() == names


@pytest.mark.parametrize("rows", [0, 1])
def test_one_row_and_zero_rows(tmp_path, rows, recwarn):
    path = tmp_path / "table.csv"
    artifacts.write_table(path, {"config_hash": "abc"},
                          {"arc": np.zeros(rows, int), "x": np.full(rows, -0.0), "name": ["only"] * rows})
    assert len(path.read_text().splitlines()) == 2 + rows
    _, table = artifacts.read_table(path, {"arc": int, "x": float, "name": str})
    assert [a.shape for a in table.values()] == [(rows,)] * 3
    assert table["x"].dtype == np.float64 and np.array_equal(_bits(table["x"]), _bits([-0.0] * rows))
    assert table["name"].tolist() == ["only"] * rows
    assert len(recwarn) == 0


@pytest.mark.parametrize("lines, match", [
    (["re,im,extra", "1,2,3"], "column line 're,im,extra', expected 're,im'"),
    (["im,re", "1,2"], "column line"),
    (["re,im", "1,2", "3"], "malformed row"),
    (["re,im", "1,2", "3,4,5"], "malformed row"),
    (["re,im", "1,oops"], "malformed row"),
    (["re,im", "# 1,2"], "malformed row"),
])
def test_read_table_names_the_file_of_a_malformed_table(tmp_path, lines, match):
    path = tmp_path / "spectrum.csv"
    path.write_text("# config_hash=abc\n" + "\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=match) as info:
        artifacts.read_table(path, {"re": float, "im": float})
    assert str(path) in str(info.value)


def test_read_table_converts_the_header_fields_it_is_given(tmp_path):
    path = tmp_path / "model.csv"
    path.write_text("# config_hash=abc n=3 g=0.5 support=-1,2 sigma=0,1,2,3 points= name=x\nx\n1\n")
    header, _ = artifacts.read_table(path, {"x": float}, {
        "n": int, "g": float, "support": artifacts.pair, "sigma": artifacts.pairs,
        "points": artifacts.floats, "name": str})
    assert header == {"config_hash": "abc", "n": 3, "g": 0.5, "support": (-1.0, 2.0),
                      "sigma": ((0.0, 1.0), (2.0, 3.0)), "points": (), "name": "x"}


@pytest.mark.parametrize("head, fields, match", [
    ("n=3", {"g": float}, "header field g missing"),
    ("n=3.5", {"n": int}, "malformed header field n=3.5"),
    ("g=abc", {"g": float}, "malformed header field g=abc"),
    ("support=1.0", {"support": artifacts.pair}, "malformed header field support=1.0"),
    ("support=1,2,3,4", {"support": artifacts.pair}, "malformed header field support=1,2,3,4"),
    ("sigma=0,1,2", {"sigma": artifacts.pairs}, "malformed header field sigma=0,1,2"),
])
def test_read_table_names_the_file_and_the_field_of_a_bad_header(tmp_path, head, fields, match):
    path = tmp_path / "table.csv"
    path.write_text(f"# config_hash=abc {head}\nx\n1\n")
    with pytest.raises(ValidationError, match=match) as info:
        artifacts.read_table(path, {"x": float}, fields)
    assert str(path) in str(info.value)


def test_an_int_column_rejects_a_fraction(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("# config_hash=abc\narc,x\n0.5,1\n")
    with pytest.raises(ValidationError, match="malformed row"):
        artifacts.read_table(path, {"arc": int, "x": float})


def test_is_current_requires_every_expected_field(tmp_path):
    path = tmp_path / "curve.csv"
    assert not artifacts.is_current(path, "abc")
    artifacts.write_table(path, {"config_hash": "abc", "ids_hash": "f00"}, {"x": [1.0]})
    assert artifacts.is_current(path, "abc")
    assert artifacts.is_current(path, "abc", ids_hash="f00")
    assert not artifacts.is_current(path, "abc", ids_hash="bad")
    assert not artifacts.is_current(path, "abc", other="f00")  # a field the header lacks
    assert not artifacts.is_current(path, "xyz", ids_hash="f00")
