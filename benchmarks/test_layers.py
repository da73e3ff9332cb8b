"""Layer benchmarks with pytest-benchmark, kept out of the Tier-1 test paths.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/ -q

Sizes follow the `predict_bulk` workload of `perfbench/`: a 20,000-row sweep
of five variables around the wide5 centers, plus one target column.
"""

import numpy as np
import pytest

from canonsr.dataset import Dataset, load_csv, save_csv
from canonsr.expr import Model, eval_model_matrix
from canonsr.grammar import load_default_grammar, random_tree

ROWS = 20000
CENTERS = np.array([1.0, 2.0, 0.5, 3.0, 1.5])
N_VARS = CENTERS.size


def _sweep(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(CENTERS * 0.85, CENTERS * 1.15, size=(ROWS, N_VARS))


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    X = _sweep(0)
    names = tuple(f"x{i + 1}" for i in range(N_VARS))
    path = str(tmp_path_factory.mktemp("layers") / "sweep.csv")
    save_csv(Dataset(names, X, X.sum(axis=1), "y"), path)
    return path


def test_load_csv_20000_rows_6_columns(benchmark, sweep_csv):
    ds = benchmark(load_csv, sweep_csv, "y")
    assert ds.X.shape == (ROWS, N_VARS)


def test_eval_model_matrix_8_bases_20000_rows(benchmark):
    rng = np.random.default_rng(1)
    g = load_default_grammar()
    bases = [random_tree(g, 8, rng, N_VARS) for _ in range(8)]
    model = Model(bases=bases, coeffs=np.ones(len(bases) + 1))
    pred = benchmark(eval_model_matrix, model, _sweep(1), 10.0)
    assert pred.shape == (ROWS,)
