"""Differential fuzz of the samples CSV reader against the cell-by-cell reader
it replaced: same names and bit-identical X and y, or the same error.

load_csv reads clean files with numpy's text reader and every other file with
the csv module; the clean-file strategy and the named guard cases check which
of the two paths each file takes."""

import csv
import gzip
from typing import List

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from canonsr.cli import main
from canonsr.dataset import DataError, Dataset, _load_clean, load_csv


# ---------------------------------------------------------------------------
# reference: the row-list reader, one float() per cell
# ---------------------------------------------------------------------------

def _reference_parse_cell(cell: str, row: int, col_name: str, line: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"row {row}, column {col_name!r}: non-numeric cell {cell!r} "
                        f"(line {line})") from None
    if not np.isfinite(value):
        raise DataError(f"row {row}, column {col_name!r}: non-finite value {cell!r} "
                        f"(line {line})")
    return value


def reference_load_csv(path: str, target_column: str) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        # each row with the file line it ends on
        rows = [(row, reader.line_num) for row in reader
                if row and any(c.strip() for c in row)]
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in rows[0][0]]
    if any(not h for h in header):
        raise DataError(f"{path}: empty header name")
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise DataError(f"{path}: duplicate header name(s): {', '.join(dupes)}")
    if target_column not in header:
        raise DataError(f"{path}: target column {target_column!r} not in header")
    if len(rows) == 1:
        raise DataError(f"{path}: no data rows")

    t_idx = header.index(target_column)
    var_names = [h for i, h in enumerate(header) if i != t_idx]
    X_rows: List[List[float]] = []
    y_vals: List[float] = []
    for r, (row, line) in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r} has {len(row)} values, expected {len(header)} "
                            f"(line {line})")
        values = [_reference_parse_cell(cell.strip(), r, header[i], line)
                  for i, cell in enumerate(row)]
        y_vals.append(values[t_idx])
        X_rows.append([v for i, v in enumerate(values) if i != t_idx])

    return Dataset(var_names=tuple(var_names), X=X_rows, y=y_vals,
                   target_name=target_column)


# ---------------------------------------------------------------------------
# CSV texts
# ---------------------------------------------------------------------------

NAMES = ["x", "y", "t", "a b", " x1 "]
ODD_NAMES = ["", " ", "x", " y"]
GOOD = ["-0", "1_0", "1e-320", "1.", ".5", "\u0661\u0662", "\x1c3", "3\x1f", "1E5", "+7"]
BAD = ["1e400", "-1e400", "inf", "-Infinity", "nan", "NaN", "abc", "", " ",
       "0x10", "1__0", "1,5", "2\n3", 'q"q']
PADDING = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def cells(draw):
    kind = draw(st.integers(0, 19))
    if kind == 0:
        text = draw(st.sampled_from(BAD))
    elif kind < 5:
        text = draw(st.sampled_from(GOOD))
    else:
        text = repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
    text = draw(PADDING) + text + draw(PADDING)
    if draw(st.integers(0, 3)) == 0 or any(c in text for c in ',\n"'):
        text = '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def csv_texts(draw):
    n_cols = draw(st.integers(1, 4))
    header = draw(st.permutations(NAMES))[:n_cols]
    if draw(st.integers(0, 4)) == 0:                 # empty or duplicate names
        header[draw(st.integers(0, n_cols - 1))] = draw(st.sampled_from(ODD_NAMES))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "   ", ",,", " , ", "\t"])))
        else:
            width = n_cols if kind > 1 else draw(st.integers(1, n_cols + 2))
            lines.append(",".join(draw(cells()) for _ in range(width)))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["", "  ", ","])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    names = [h.strip() for h in header if h.strip()]
    target = draw(st.sampled_from(names)) if names and draw(st.integers(0, 9)) else "zz"
    return text, target


CLEAN_NUMBERS = ["-0", "+7", "1E5", ".5", "1.", "1e-320", "0", "-12"]


@st.composite
def clean_csv_texts(draw):
    """Unquoted, finite, rectangular files: what numpy's reader must take."""
    n_cols = draw(st.integers(1, 4))
    header = draw(st.permutations(NAMES))[:n_cols]
    finite = st.floats(allow_nan=False, allow_infinity=False)
    number = st.one_of(finite.map(repr), finite.map(lambda v: f"{v:.6e}"),
                       st.integers(-10 ** 20, 10 ** 20).map(str),
                       st.sampled_from(CLEAN_NUMBERS))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 6))):
        lines.append(",".join(draw(PADDING) + draw(number) + draw(PADDING)
                              for _ in range(n_cols)))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    return text, draw(st.sampled_from([h.strip() for h in header]))


def _outcome(loader, path, target):
    try:
        ds = loader(path, target)
    except DataError as exc:
        return ("error", str(exc))
    return ("ok", ds.var_names, ds.target_name, ds.X.shape,
            ds.X.tobytes(), ds.y.tobytes())


def _assert_same(path, text, target):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert _outcome(load_csv, path, target) == _outcome(reference_load_csv, path, target)
    return _load_clean(path) is not None


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=csv_texts())
def test_reader_matches_reference(tmp_path_factory, case):
    text, target = case
    _assert_same(str(tmp_path_factory.getbasetemp() / "fuzz.csv"), text, target)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=clean_csv_texts())
def test_clean_files_take_numpy_reader_and_match_reference(tmp_path_factory, case):
    text, target = case
    assert _assert_same(str(tmp_path_factory.getbasetemp() / "clean.csv"), text, target)


@pytest.mark.parametrize("text, bulk", [
    ("x,y\r1,2\r3,4\r", True),                      # CR-only line ends
    ("x,y\r" + "1.25,2.5\r" * 20000, True),         # ... and longer than the field limit
    ("\n  \n,\nx,y\n1,2\n", True),                  # blank rows before the header
    ('"x"," y"\n1,2\n3,4\n', True),                 # quoted header, clean body
    ("\ufeffx,y\n1,2\n", True),                     # UTF-8 BOM stays in the first name
    ("x,y\n1,2,3\n4,5,6\n", False),                 # one cell too many on every row
    ("x,y\n1\n2\n", False),                         # one cell too few on every row
    ("x,y\n1,2,3\n4,5\n", False),                   # one row too wide
    ("x,y\n1,2\n4\n", False),                       # one row too narrow
    ("x,y\n1,2#3\n", False),                        # '#' inside a cell
    ("x,y\n1,2\n#4,5\n", False),                    # '#' starting a row
    ("x,y\n1,2\n\n3,4\n", True),                    # empty line in the body
    ("x,y\n1,2\n  \n3,4\n", False),                 # spaces-only row
    ("x,y\n1,2\n,\n3,4\n", False),                  # ',,'-style blank row
    ("x,y\n\n\n", False),                           # only blank rows after the header
    ("x,y\n1,inf\n", False),                        # non-finite value
    ("x,x\n1,2\n", False),                          # duplicate header names
    ("x,y\n1_0,2\n", False),                        # underscore accepted by float()
    # numpy skips the header's lines by count: a wrong count drops or misreads row 1
    ('"x\ny",y\n1,2\n3,4\n', True),                 # quoted header name holding a newline
    ("\r\n,\r\n \r\nx,y\r\n1,2\r\n3,4\r\n", True),    # CRLF blank and ',' rows before the header
    ("\ufeffx,y\r1,2\r3,4\r", True),                 # BOM with CR-only line ends
])
def test_reader_guards_match_reference(tmp_path, text, bulk):
    assert _assert_same(str(tmp_path / "case.csv"), text, "y") == bulk


def test_oversized_cell_keeps_the_field_limit_message(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("x,y\n1,0." + "0" * 140000 + "1\n", encoding="utf-8")
    assert _load_clean(str(path)) is None
    with pytest.raises(DataError, match=r"field larger than field limit \(131072\)"):
        load_csv(str(path), "y")


@pytest.mark.parametrize("suffix", [".csv.gz", ".bz2", ".xz", ".lzma"])
def test_plain_text_under_a_compression_suffix_reads_as_text(tmp_path, suffix):
    # numpy's reader would decompress such a name; the csv path reads it as text
    assert not _assert_same(str(tmp_path / ("data" + suffix)), "x,y\n1,2\n3,4.5\n", "y")


def test_a_name_that_reads_as_a_url_is_a_local_file(tmp_path, monkeypatch):
    # numpy's opener would fetch a relative "http://host/..." name that exists
    monkeypatch.chdir(tmp_path)
    (tmp_path / "http:" / "localhost:9").mkdir(parents=True)
    assert _assert_same("http://localhost:9/data.csv", "x,y\n1,2\n3,4.5\n", "y")


def test_gzip_compressed_csv_is_not_utf8_text(tmp_path, capsys):
    path = tmp_path / "data.csv.gz"
    path.write_bytes(gzip.compress(b"x,y\n1,2\n3,4\n"))
    with pytest.raises(DataError, match="not UTF-8 text"):
        load_csv(str(path), "y")
    model = tmp_path / "model.json"
    model.write_text('{"model": {"bases": [], "coeffs": [2.0]}, "var_names": ["x"], '
                     '"target_name": "y", "target_log_scaled": false, '
                     '"train_reference": 2.0, "B": 10.0}')
    code = main(["eval", "--model", str(model), "--data", str(path),
                 "--out", str(tmp_path / "p.csv")])
    assert code == 3
    assert "not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    'x,y\n"1","2"\n"3" , " 4 "\n',             # quoted cells, space around quotes
    "x,y\r\n1,2\r\n\r\n  \r\n,,\r\n3,4\r\n",  # CRLF and blank rows of each kind
    "x,y\n1_0,1e-320\n",                       # underscores, subnormals
    "x,y\n1,2\n3,1e400\n",                     # overflow to inf
    "x,y\n1,inf\n", "x,y\n1,nan\n",            # non-finite spellings
    "x,y\n1,2\n3,abc\n4,\n",                   # the first bad row names the error
    "x,y\n1,2,3\n4,abc\n",                     # ragged before non-numeric
    "x,y\n1,abc\n4,5,6\n",                     # non-numeric before ragged
    "x,y\n\x1c1,2\x1f\n",                      # edges float() alone rejects
    "x,y\n1\n",                                # short row
    "x,y\n1\n2,3,4\n",                         # ragged rows with the right cell total
    " x , y \n1,2\n",                          # stripped header names
])
def test_reader_matches_reference_on_named_cases(tmp_path, text):
    _assert_same(str(tmp_path / "case.csv"), text, "y")
