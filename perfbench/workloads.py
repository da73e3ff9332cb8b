"""Workload definitions and the benchmark's own input generation.

Nothing here imports canonsr: targets, design grids and CSV files are made
apart from the program under test.
"""

import itertools

import numpy as np

PM_CENTERS = (1.0, 1.0, 1.0, 1.0)
WIDE_CENTERS = (1.0, 2.0, 0.5, 3.0, 1.5)
SWEEP_REL_RANGE = 0.15       # predict_bulk sweep: uniform in c*(1 -/+ 0.15)
TARGET = "y"


def pm_like(X: np.ndarray) -> np.ndarray:
    return 90.5 + 190.6 * X[:, 0] / X[:, 1] + 22.2 * X[:, 2] / X[:, 3]


def wide5(X: np.ndarray) -> np.ndarray:
    """A ratio, a square root and an exponential over five variables."""
    x1, x2, x3, x4, x5 = X.T
    return (5.0 + 40.0 * x1 / (x2 + 0.5 * x3)
            + 12.0 * np.sqrt(x4) * x5 + 8.0 * np.exp(-x2 * x5))


# kind "search": one run_pipeline call per operation, on seeds drawn from
# --seed.  kind "predict": one canonsr eval call per stored model.
WORKLOADS = {
    "pm81": {"kind": "search", "target_fn": pm_like, "centers": PM_CENTERS,
             "population": 200, "generations": 40},
    "wide243": {"kind": "search", "target_fn": wide5, "centers": WIDE_CENTERS,
                "population": 50, "generations": 30},
    "predict_bulk": {"kind": "predict", "target_fn": wide5, "centers": WIDE_CENTERS,
                     "rows": 20000},
}


def factorial(centers, dx: float) -> np.ndarray:
    """3-level full factorial c*(1-dx), c, c*(1+dx), lexicographic order."""
    levels = [(c * (1.0 - dx), c, c * (1.0 + dx)) for c in centers]
    return np.array(list(itertools.product(*levels)), dtype=float)


def sweep(centers, rows: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    c = np.asarray(centers, dtype=float)
    return rng.uniform(c * (1.0 - SWEEP_REL_RANGE), c * (1.0 + SWEEP_REL_RANGE),
                       size=(rows, c.size))


def var_names(d: int):
    return tuple(f"x{i + 1}" for i in range(d))


def write_csv(path: str, X: np.ndarray, y: np.ndarray) -> None:
    names = var_names(X.shape[1])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names + (TARGET,)) + "\n")
        for row, t in zip(X.tolist(), y.tolist()):
            fh.write(",".join(repr(v) for v in row) + "," + repr(t) + "\n")


def search_data(name: str):
    """(X_train, y_train, X_test, y_test): factorials at dx 0.1 and 0.03."""
    w = WORKLOADS[name]
    X_train = factorial(w["centers"], 0.1)
    X_test = factorial(w["centers"], 0.03)
    return X_train, w["target_fn"](X_train), X_test, w["target_fn"](X_test)


def run_seeds(seed: int, count: int):
    """The canonsr seeds one benchmark run uses, drawn from --seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2 ** 31 - 1, size=count)]
