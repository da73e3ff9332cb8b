"""Sample-data ingestion, design-of-experiments sampling and synthetic oracles.

CSV format: UTF-8, comma separated, mandatory header row of unique names,
one sample per row, '.' decimal separator, scientific notation accepted.
Design points are sampled on 3 levels per variable around a center point
with a relative perturbation dx.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np


class DataError(ValueError):
    """Raised for malformed or out-of-contract sample data."""


@dataclass(frozen=True)
class Dataset:
    """N samples of d-dimensional design points with one scalar target each.

    X and y are read-only copies of what was passed in, because basis trees
    keep columns evaluated on X (see expr.stored_column).
    """

    var_names: Tuple[str, ...]
    X: np.ndarray                  # N x d
    y: np.ndarray                  # length N
    target_name: str
    target_log_scaled: bool = False

    def __post_init__(self):
        object.__setattr__(self, "var_names", tuple(self.var_names))
        for name in ("X", "y"):
            owned = np.array(getattr(self, name), dtype=float)
            owned.flags.writeable = False
            object.__setattr__(self, name, owned)
        if self.X.ndim != 2 or self.y.ndim != 1:
            raise DataError("X must be 2-D and y 1-D")
        if self.X.shape[0] != self.y.shape[0]:
            raise DataError("X and y row counts differ")
        if self.n_samples < 1:
            raise DataError("dataset needs at least one sample")
        if self.X.shape[1] != len(self.var_names):
            raise DataError("X column count != number of variable names")
        if len(set(self.var_names)) != len(self.var_names):
            raise DataError("variable names are not unique")
        if self.target_name in self.var_names:
            raise DataError("target name collides with a variable name")
        if not np.all(np.isfinite(self.X)) or not np.all(np.isfinite(self.y)):
            raise DataError("dataset contains non-finite values")

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_vars(self) -> int:
        return self.X.shape[1]


def columns_by_name(ds: Dataset, var_names: Sequence[str]) -> np.ndarray:
    """ds.X with its columns in the order of `var_names`, which must name them
    all: ds.X itself (read-only) when that is already its order, else a copy."""
    if set(ds.var_names) != set(var_names):
        raise DataError(f"data variables {sorted(ds.var_names)} do not match the "
                        f"model's variables {sorted(var_names)}")
    if tuple(var_names) == ds.var_names:
        return ds.X
    return ds.X[:, [ds.var_names.index(name) for name in var_names]]


def _parse_cell(cell: str, row: int, col_name: str, line: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"row {row}, column {col_name!r}: non-numeric cell {cell!r} "
                        f"(line {line})") from None
    if not math.isfinite(value):
        raise DataError(f"row {row}, column {col_name!r}: non-finite value {cell!r} "
                        f"(line {line})")
    return value


def _read_cells(path: str) -> Tuple[List[str], List[str], List[int], List[int]]:
    """Split a CSV into its header, its data cells, each data row's width
    and the file line each data row ends on.

    Rows whose cells are all blank are skipped. The header names are
    stripped and checked; the data cells stay raw text, flat in file order.
    """
    cells: List[str] = []
    widths: List[int] = []
    lines: List[int] = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if any(map(str.strip, row)):
                    cells += row
                    widths.append(len(row))
                    lines.append(reader.line_num)
    except UnicodeDecodeError as exc:
        # exc.start counts from the decoded chunk, not from the file's start
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None
    if not widths:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in cells[:widths[0]]]
    if any(not h for h in header):
        raise DataError(f"{path}: empty header name")
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise DataError(f"{path}: duplicate header name(s): {', '.join(dupes)}")
    return header, cells[widths[0]:], widths[1:], lines[1:]


def _cell_values(path: str, header: List[str], cells: List[str],
                 widths: List[int], lines: List[int]) -> np.ndarray:
    """Parse the data cells row by row into a rows x columns array.

    Raises for the first bad row in file order, naming its data row and its
    file line. Each cell is stripped first, so a number that float() rejects
    only for an edge character str.strip removes (the separators
    U+001C-U+001F) is accepted.
    """
    n_cols = len(header)
    parsed: List[float] = []
    for r, (width, line) in enumerate(zip(widths, lines), start=1):
        if width != n_cols:
            raise DataError(f"{path}: row {r} has {width} values, expected {n_cols} "
                            f"(line {line})")
        row = cells[(r - 1) * n_cols:r * n_cols]
        parsed += [_parse_cell(cell.strip(), r, header[i], line) for i, cell in enumerate(row)]
    return np.array(parsed).reshape(-1, n_cols)


# names numpy's file opener (np.lib._datasource) would decompress
_NUMPY_DECOMPRESSES = (".gz", ".bz2", ".xz", ".lzma")


def _load_clean(path: str) -> Optional[Tuple[List[str], np.ndarray]]:
    """Header and values of a file, the header read by csv.reader and the
    rows after it by numpy's text reader; None for any file that numpy might
    read differently from _read_cells and _cell_values: a quoted, blank or
    '1_0' cell, a '#', a ragged row, a non-finite value, bad header names, no
    data rows, text that is not UTF-8 or a line over the csv field limit.

    numpy is given the path, not a handle: only for a path does it read the
    file in chunks instead of one Python line object per row.  Nor is the
    file read whole into a string or io.StringIO, which keeps 4 bytes a
    character (9 MB for a 20,000-row, 6-column sweep).  By path, numpy would
    decompress a name ending in .gz, .bz2, .xz or .lzma, so such a file is
    left to the csv path, which reads it as plain text; the absolute path
    keeps numpy from taking a name such as 'http://...' for a URL.
    """
    if os.path.splitext(path)[1] in _NUMPY_DECOMPRESSES:
        return None
    limit = csv.field_size_limit()
    with open(path, "rb") as fb:
        if max(map(len, fb), default=0) > limit:
            # binary lines end at '\n' only: count a lone '\r' as a line end too
            fb.seek(0)
            if max(map(len, fb.read().splitlines()), default=0) > limit:
                return None
        fb.seek(0)
        fh = io.TextIOWrapper(fb, encoding="utf-8", newline="")
        try:
            reader = csv.reader(fh)
            rows = (row for row in reader if any(map(str.strip, row)))
            header = [h.strip() for h in next(rows, [])]
        except (ValueError, csv.Error):
            return None
    if not header or not all(header) or len(set(header)) != len(header):
        return None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # reader.line_num counts the lines up to the header's end, as
            # numpy counts them: '\n', '\r\n' and a lone '\r' each end one
            values = np.loadtxt(os.path.abspath(path), skiprows=reader.line_num,
                                encoding="utf-8", delimiter=",", comments=None,
                                dtype=float, ndmin=2)
    except ValueError:
        return None
    if values.shape[0] == 0 or values.shape[1] != len(header) or not np.isfinite(values).all():
        return None
    return header, values


def load_csv(path: str, target_column: str) -> Dataset:
    """Read a samples CSV; the named column becomes y, the rest become X.

    Clean files take numpy's text reader, which reads the file by path in
    chunks (see _load_clean); every other file, a file named *.gz, *.bz2,
    *.xz or *.lzma, and every error message, come from the csv module path,
    which reads each of them as plain UTF-8 text.
    """
    table = _load_clean(path)
    if table is None or target_column not in table[0]:
        header, cells, widths, lines = _read_cells(path)
        if target_column not in header:
            raise DataError(f"{path}: target column {target_column!r} not in header")
        if not widths:
            raise DataError(f"{path}: no data rows")
        table = header, _cell_values(path, header, cells, widths, lines)
    header, values = table
    t_idx = header.index(target_column)
    var_names = tuple(h for i, h in enumerate(header) if i != t_idx)
    return Dataset(var_names=var_names, X=np.delete(values, t_idx, axis=1),
                   y=values[:, t_idx], target_name=target_column)


def write_points_csv(var_names: Sequence[str], X: np.ndarray, path: str) -> None:
    """Write design points (no target column) in the shared CSV format."""
    X = np.asarray(X, dtype=float)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(list(var_names))
        # a float's repr never needs csv quoting; rows end in csv's '\r\n'
        fh.write("".join([",".join(map(repr, row)) + "\r\n" for row in X.tolist()]))


def load_centers_csv(path: str) -> Tuple[Tuple[str, ...], np.ndarray]:
    """Read a one-row CSV of center values; returns (names, centers)."""
    header, cells, widths, lines = _read_cells(path)
    if len(widths) != 1:
        raise DataError(f"{path}: expected a header row and one row of center values")
    return tuple(header), _cell_values(path, header, cells, widths, lines)[0]


# ---------------------------------------------------------------------------
# design-of-experiments sampling
# ---------------------------------------------------------------------------

@dataclass
class DoePlan:
    """3-level sampling plan around a center point with relative step dx."""

    centers: np.ndarray
    dx: float = 0.1
    budget: int = 10000

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=float)
        if self.centers.ndim != 1 or self.centers.size < 1:
            raise ValueError("centers must be a non-empty vector")
        if not 0 < self.dx < np.inf:
            raise ValueError("dx must be positive and finite")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")

    @property
    def n_vars(self) -> int:
        return self.centers.size


def doe_full_factorial(plan: DoePlan) -> np.ndarray:
    """All 3^d level combinations c_i*(1-dx), c_i, c_i*(1+dx), lexicographic order."""
    d = plan.n_vars
    if 3 ** d > plan.budget:
        raise ValueError(
            f"full factorial needs 3^{d} = {3 ** d} samples, over budget {plan.budget}; "
            "use doe_latin_hypercube instead")
    levels = [(c * (1.0 - plan.dx), c, c * (1.0 + plan.dx)) for c in plan.centers]
    return np.array(list(itertools.product(*levels)), dtype=float)


def doe_latin_hypercube(plan: DoePlan, n: int, rng) -> np.ndarray:
    """n stratified samples of [c*(1-dx), c*(1+dx)] per variable, one per bin."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > plan.budget:
        raise ValueError(f"latin hypercube of {n} samples is over budget {plan.budget}")
    d = plan.n_vars
    out = np.empty((n, d), dtype=float)
    for i in range(d):
        c = plan.centers[i]
        lo, hi = sorted((c * (1.0 - plan.dx), c * (1.0 + plan.dx)))
        width = (hi - lo) / n
        bins = rng.permutation(n)
        offsets = rng.uniform(0.0, 1.0, size=n)
        out[:, i] = lo + (bins + offsets) * width
    return out


# ---------------------------------------------------------------------------
# target scaling
# ---------------------------------------------------------------------------

def scale_target_log10(ds: Dataset) -> Dataset:
    """Replace y with log10(y); rendering later wraps models as 10^(...)."""
    if ds.target_log_scaled:
        raise DataError("target is already log-scaled")
    if np.any(ds.y <= 0):
        bad = int(np.argmax(ds.y <= 0)) + 1
        raise DataError(f"row {bad}: target {float(ds.y[bad - 1])!r} is <= 0, cannot log-scale")
    return Dataset(var_names=ds.var_names, X=ds.X, y=np.log10(ds.y),
                   target_name=ds.target_name, target_log_scaled=True)


# ---------------------------------------------------------------------------
# synthetic oracles (benchmark stand-ins for a circuit simulator)
# ---------------------------------------------------------------------------

ORACLE_DIMS = {"pm_like": 4, "srp_like": 2, "offset_like": None}


def synthetic_oracle(name: str, x: Sequence[float]) -> float:
    """Closed-form benchmark targets; raises on unknown name or non-finite result."""
    x = np.asarray(x, dtype=float)
    if name not in ORACLE_DIMS:
        raise ValueError(f"unknown oracle {name!r}; choose from {sorted(ORACLE_DIMS)}")
    want = ORACLE_DIMS[name]
    if want is not None and x.size != want:
        raise ValueError(f"oracle {name!r} expects {want} variables, got {x.size}")

    with np.errstate(all="ignore"):
        if name == "pm_like":
            value = 90.5 + 190.6 * x[0] / x[1] + 22.2 * x[2] / x[3]
        elif name == "srp_like":
            value = (2.36e7 + 1.95e4 * x[1] / x[0] - 104.69 / x[1]
                     + 2.15e9 * x[1] + 4.63e8 * x[0])
        else:
            value = -2.00e-3
    value = float(value)
    if not np.isfinite(value):
        raise DataError(f"oracle {name!r} is non-finite at {x.tolist()}")
    return value


def oracle_targets(name: str, X: np.ndarray) -> np.ndarray:
    return np.array([synthetic_oracle(name, row) for row in np.asarray(X, dtype=float)])


def oracle_dataset(name: str, X: np.ndarray, var_names: Sequence[str]) -> Dataset:
    return Dataset(var_names=tuple(var_names), X=np.asarray(X, dtype=float),
                   y=oracle_targets(name, X), target_name=name)
