"""CSV ingestion, DOE sampling, target scaling and synthetic oracle tests."""

import csv
import warnings

import numpy as np
import pytest

from canonsr.dataset import (DataError, Dataset, DoePlan, columns_by_name, doe_full_factorial,
                             doe_latin_hypercube, load_centers_csv, load_csv,
                             oracle_targets, scale_target_log10, synthetic_oracle,
                             write_points_csv)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# load_csv
# ---------------------------------------------------------------------------

def test_load_csv_two_columns(tmp_path):
    path = _write(tmp_path, "t.csv", "x,y\n1,2\n3,4\n")
    ds = load_csv(path, "y")
    assert ds.n_vars == 1
    assert ds.n_samples == 2
    assert list(ds.y) == [2.0, 4.0]
    assert list(ds.X[:, 0]) == [1.0, 3.0]
    assert ds.var_names == ("x",)


def test_load_csv_non_numeric_cell_names_row_and_column(tmp_path):
    path = _write(tmp_path, "t.csv", "x,y\n1,2\n3,abc\n")
    with pytest.raises(DataError, match=r"row 2.*'y'.*abc"):
        load_csv(path, "y")


@pytest.mark.parametrize("text, message", [
    # blank rows of each kind, CRLF line ends: the data row is 2, the line 6
    ("x,y\r\n1,2\r\n\r\n  \r\n,,\r\n3,abc\r\n",
     "row 2, column 'y': non-numeric cell 'abc' (line 6)"),
    ("\nx,y\n1,2\n\n3,4,5\n", "row 2 has 3 values, expected 2 (line 5)"),
    # a quoted cell over two lines: the row ends on line 3
    ('x,y\n"1\n",inf\n', "row 1, column 'y': non-finite value 'inf' (line 3)"),
])
def test_load_csv_row_errors_name_the_file_line(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    with pytest.raises(DataError) as excinfo:
        load_csv(str(path), "y")
    assert str(excinfo.value).endswith(message)


def test_load_csv_fourteen_columns_gives_thirteen_variables(tmp_path):
    # mirrors a 13-variable modeling setup: 13 inputs plus one target column
    names = [f"v{i}" for i in range(13)] + ["fu"]
    rows = [",".join(str(float(i + j)) for j in range(14)) for i in range(3)]
    path = _write(tmp_path, "t.csv", ",".join(names) + "\n" + "\n".join(rows) + "\n")
    ds = load_csv(path, "fu")
    assert ds.n_vars == 13
    assert ds.target_name == "fu"
    assert "fu" not in ds.var_names


def test_load_csv_errors(tmp_path):
    with pytest.raises(DataError, match="empty"):
        load_csv(_write(tmp_path, "a.csv", ""), "y")
    with pytest.raises(DataError, match="duplicate"):
        load_csv(_write(tmp_path, "b.csv", "x,x,y\n1,2,3\n"), "y")
    with pytest.raises(DataError, match="target column"):
        load_csv(_write(tmp_path, "c.csv", "x,y\n1,2\n"), "z")
    with pytest.raises(DataError, match="row 1 has 3 values"):
        load_csv(_write(tmp_path, "d.csv", "x,y\n1,2,9\n"), "y")
    with pytest.raises(DataError, match="non-finite"):
        load_csv(_write(tmp_path, "e.csv", "x,y\n1,nan\n"), "y")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(_write(tmp_path, "f.csv", "x,y\n"), "y")


def test_load_csv_without_data_rows_warns_nothing(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text in ("x,y\n", "x,y\n\n  \n,\n"):
            with pytest.raises(DataError, match="no data rows"):
                load_csv(_write(tmp_path, "h.csv", text), "y")


def test_load_centers_csv_follows_the_samples_rules(tmp_path):
    names, centers = load_centers_csv(_write(tmp_path, "c.csv", ' a ,"b"\r\n\r\n"1.5", 2_0 \r\n'))
    assert names == ("a", "b")
    assert centers.tolist() == [1.5, 20.0]
    for text, match in (("a,a\n1,2\n", "duplicate"), ("a,b\n1,inf\n", "non-finite"),
                        ("a,b\n", "one row"), ("a,b\n1,2\n3,4\n", "one row")):
        with pytest.raises(DataError, match=match):
            load_centers_csv(_write(tmp_path, "c.csv", text))


def test_csv_round_trip_preserves_dataset_exactly(tmp_path):
    rng = np.random.default_rng(42)
    ds = Dataset(var_names=("a", "b", "c"),
                 X=rng.uniform(-5, 5, size=(17, 3)) * 10.0 ** rng.integers(-8, 8, size=(17, 3)),
                 y=rng.standard_normal(17) * 1e6,
                 target_name="t")
    path = str(tmp_path / "rt.csv")
    write_points_csv(ds.var_names + ("t",), np.column_stack([ds.X, ds.y]), path)
    back = load_csv(path, "t")
    assert back.var_names == ds.var_names
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)


def test_write_points_csv_bytes_match_csv_writer(tmp_path):
    names = ("a", 'say "hi", twice', "c")
    X = np.array([[-0.0, 5e-324, 1e16], [0.1, -2.5e-8, 3.0]])
    path = tmp_path / "points.csv"
    write_points_csv(names, X, str(path))
    expected = tmp_path / "expected.csv"
    with open(expected, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names))
        for row in X:
            writer.writerow([repr(float(v)) for v in row])
    assert path.read_bytes() == expected.read_bytes()
    assert path.read_bytes().endswith(b"\r\n-0.0,5e-324,1e+16\r\n0.1,-2.5e-08,3.0\r\n")


def test_columns_by_name_copies_only_to_reorder():
    ds = Dataset(var_names=("a", "b", "c"), X=np.arange(6.0).reshape(2, 3),
                 y=np.zeros(2), target_name="t")
    assert columns_by_name(ds, ["a", "b", "c"]) is ds.X
    reordered = columns_by_name(ds, ["c", "a", "b"])
    assert not np.shares_memory(reordered, ds.X)
    assert np.array_equal(reordered, ds.X[:, [2, 0, 1]])
    with pytest.raises(DataError, match="do not match"):
        columns_by_name(ds, ["a", "b"])


def test_dataset_invariants():
    with pytest.raises(DataError, match="unique"):
        Dataset(("a", "a"), np.ones((2, 2)), np.ones(2), "y")
    with pytest.raises(DataError, match="non-finite"):
        Dataset(("a",), np.array([[np.inf]]), np.ones(1), "y")
    with pytest.raises(DataError, match="at least one sample"):
        Dataset(("a",), np.empty((0, 1)), np.empty(0), "y")


# ---------------------------------------------------------------------------
# full factorial DOE
# ---------------------------------------------------------------------------

def test_factorial_one_variable_levels():
    points = doe_full_factorial(DoePlan(centers=[1.0], dx=0.1))
    assert sorted(points[:, 0].tolist()) == pytest.approx([0.9, 1.0, 1.1])


def test_factorial_five_variables_has_243_rows():
    points = doe_full_factorial(DoePlan(centers=np.ones(5), dx=0.1))
    assert points.shape == (243, 5)


def test_factorial_two_variables_enumeration():
    # oracle: enumerate the 3x3 level grid by hand
    points = doe_full_factorial(DoePlan(centers=[1.0, 2.0], dx=0.5))
    assert points.shape == (9, 2)
    expected = {(a, b) for a in (0.5, 1.0, 1.5) for b in (1.0, 2.0, 3.0)}
    assert {tuple(row) for row in points} == expected
    assert (0.5, 1.0) in {tuple(row) for row in points}


def test_factorial_respects_budget():
    with pytest.raises(ValueError, match="doe_latin_hypercube"):
        doe_full_factorial(DoePlan(centers=np.ones(13), dx=0.1, budget=10000))


def test_factorial_count_and_extremes_property():
    rng = np.random.default_rng(0)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        centers = rng.uniform(0.5, 3.0, size=d)
        dx = float(rng.uniform(0.01, 0.5))
        points = doe_full_factorial(DoePlan(centers=centers, dx=dx))
        assert points.shape == (3 ** d, d)
        for i in range(d):
            assert points[:, i].min() == pytest.approx(centers[i] * (1 - dx))
            assert points[:, i].max() == pytest.approx(centers[i] * (1 + dx))


# ---------------------------------------------------------------------------
# latin hypercube DOE
# ---------------------------------------------------------------------------

def _bin_counts(col, lo, hi, n):
    edges = np.linspace(lo, hi, n + 1)
    return np.histogram(col, bins=edges)[0]


def test_lhs_one_sample_per_bin():
    plan = DoePlan(centers=[2.0], dx=0.25)
    points = doe_latin_hypercube(plan, 3, np.random.default_rng(5))
    counts = _bin_counts(points[:, 0], 2.0 * 0.75, 2.0 * 1.25, 3)
    assert counts.tolist() == [1, 1, 1]


def test_lhs_over_budget_is_refused():
    plan = DoePlan(centers=[1.0, 2.0], dx=0.1, budget=50)
    assert doe_latin_hypercube(plan, 50, np.random.default_rng(1)).shape == (50, 2)
    with pytest.raises(ValueError, match="over budget 50"):
        doe_latin_hypercube(plan, 51, np.random.default_rng(1))


def test_lhs_deterministic_given_seed():
    plan = DoePlan(centers=np.ones(13), dx=0.1)
    a = doe_latin_hypercube(plan, 100, np.random.default_rng(9))
    b = doe_latin_hypercube(plan, 100, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_lhs_stratification_histogram_all_ones():
    plan = DoePlan(centers=[1.0, 3.0], dx=0.1)
    points = doe_latin_hypercube(plan, 100, np.random.default_rng(11))
    for i, c in enumerate([1.0, 3.0]):
        counts = _bin_counts(points[:, i], c * 0.9, c * 1.1, 100)
        assert counts.tolist() == [1] * 100


# ---------------------------------------------------------------------------
# target scaling
# ---------------------------------------------------------------------------

def test_scale_target_log10_identities():
    ds = Dataset(("x",), np.ones((3, 1)), np.array([1.0, 10.0, 100.0]), "y")
    scaled = scale_target_log10(ds)
    assert scaled.target_log_scaled
    assert scaled.y.tolist() == [0.0, 1.0, 2.0]


def test_scale_target_log10_rejects_nonpositive():
    ds = Dataset(("x",), np.ones((2, 1)), np.array([1.0, 0.0]), "y")
    with pytest.raises(DataError) as exc:
        scale_target_log10(ds)
    # the plain float, not numpy's repr np.float64(0.0)
    assert str(exc.value) == "row 2: target 0.0 is <= 0, cannot log-scale"


def test_scale_round_trip_within_tolerance():
    rng = np.random.default_rng(3)
    y = 10.0 ** rng.uniform(-6, 6, size=50)
    ds = Dataset(("x",), np.ones((50, 1)), y, "y")
    back = 10.0 ** scale_target_log10(ds).y
    assert np.all(np.abs(back - y) <= 1e-12 * np.abs(y))


# ---------------------------------------------------------------------------
# synthetic oracles
# ---------------------------------------------------------------------------

def test_pm_like_at_ones():
    # hand evaluation: 90.5 + 190.6 + 22.2
    assert synthetic_oracle("pm_like", [1, 1, 1, 1]) == pytest.approx(303.3)


def test_offset_like_is_constant():
    assert synthetic_oracle("offset_like", [0.3, 7.1]) == -2.00e-3
    assert synthetic_oracle("offset_like", [5.0]) == -2.00e-3


def test_srp_like_at_ones():
    expected = 2.36e7 + 1.95e4 - 104.69 + 2.15e9 + 4.63e8
    assert synthetic_oracle("srp_like", [1.0, 1.0]) == pytest.approx(expected)


def test_oracle_errors():
    with pytest.raises(ValueError, match="unknown oracle"):
        synthetic_oracle("nope", [1.0])
    with pytest.raises(DataError, match="non-finite"):
        synthetic_oracle("pm_like", [1.0, 0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="expects 4"):
        synthetic_oracle("pm_like", [1.0, 1.0])


def test_oracle_targets_vectorizes():
    X = np.ones((4, 4))
    assert oracle_targets("pm_like", X).shape == (4,)
