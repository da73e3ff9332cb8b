"""Least-squares fitting, normalized error, PRESS and forward regression.

The PRESS statistic here is the exact leave-one-out squared-error sum for
linear least squares, computed from the residuals and the hat-matrix
diagonal.  Forward regression greedily adds basis columns while PRESS
strictly decreases, which prunes columns that harm predictive ability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

INF = float("inf")

# leverage values this close to 1 make the leave-one-out residual blow up
_LEVERAGE_LIMIT = 1.0 - 1e-12
_PRESS_REL_TOL = 1e-9


@dataclass
class RegressionProblem:
    """Design matrix (offset column first) and targets for one linear fit."""

    Phi: np.ndarray          # N x (M+1)
    y: np.ndarray            # length N

    def __post_init__(self):
        self.Phi = np.asarray(self.Phi, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.Phi.ndim != 2 or self.y.ndim != 1:
            raise ValueError("Phi must be 2-D and y 1-D")
        if self.Phi.shape[0] != self.y.shape[0]:
            raise ValueError("Phi and y row counts differ")
        if self.Phi.shape[0] < 1:
            raise ValueError("need at least one sample")
        if not np.all(np.isfinite(self.Phi)) or not np.all(np.isfinite(self.y)):
            raise ValueError("regression problem contains non-finite entries")


def _solve(Phi: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(Phi, y, rcond=None)[0]


def fit_weights(p: RegressionProblem) -> np.ndarray:
    """Least-squares coefficients; minimum-norm solution if Phi is rank deficient."""
    return _solve(p.Phi, p.y)


def _error(pred: np.ndarray, y: np.ndarray, reference: float) -> float:
    # non-finite predictions give a non-finite error; the sum and division
    # are np.mean's own, without its Python-level wrapper
    r = (pred - y) / reference
    return 100.0 * math.sqrt(np.add.reduce(r * r, axis=None) / r.size)


def nmse(pred: np.ndarray, y: np.ndarray, reference: float) -> float:
    """100 * sqrt(mean(((pred - y) / reference)^2)); +inf if pred is non-finite."""
    pred = np.asarray(pred, dtype=float)
    y = np.asarray(y, dtype=float)
    if pred.shape != y.shape:
        raise ValueError("pred and y lengths differ")
    if reference <= 0:
        raise ValueError("reference must be positive (degenerate all-zero target?)")
    if not np.all(np.isfinite(pred)):
        return INF
    return _error(pred, y, reference)


def press(p: RegressionProblem) -> float:
    """Sum of squared leave-one-out residuals; +inf when the fit interpolates
    (N <= M+1), Phi is rank deficient, or some leverage reaches 1."""
    N, k = p.Phi.shape
    if N <= k:
        return INF
    if np.linalg.matrix_rank(p.Phi) < k:
        return INF
    q, _ = np.linalg.qr(p.Phi)
    h = np.einsum("ij,ij->i", q, q)
    if np.any(h >= _LEVERAGE_LIMIT):
        return INF
    residuals = p.y - p.Phi @ fit_weights(p)
    loo = residuals / (1.0 - h)
    return float(np.sum(loo * loo))


def _improves(candidate: float, current: float) -> bool:
    if not np.isfinite(current):
        return np.isfinite(candidate)
    return candidate < current * (1.0 - _PRESS_REL_TOL)


def forward_regression_press(bases: Sequence[np.ndarray], y: np.ndarray,
                             ) -> Tuple[List[int], float]:
    """Greedy forward selection of basis columns by PRESS.

    Starts from the offset-only model and, at each step, adds the candidate
    column whose augmented problem has the lowest PRESS, stopping when no
    addition strictly decreases it.  Ties go to the lowest candidate index.
    Returns (selected indices in selection order, PRESS of the offset plus
    the selected columns in that order).
    """
    y = np.asarray(y, dtype=float)
    N = y.shape[0]
    columns = [np.asarray(b, dtype=float) for b in bases]
    for j, col in enumerate(columns):
        if col.shape != (N,):
            raise ValueError(f"candidate {j} has shape {col.shape}, expected ({N},)")

    Phi = np.ones((N, 1))
    current = press(RegressionProblem(Phi, y))
    selected: List[int] = []
    remaining = list(range(len(columns)))

    while remaining:
        best_idx = None
        best_press = current
        for j in remaining:
            trial = np.column_stack([Phi, columns[j]])
            trial_press = press(RegressionProblem(trial, y))
            if _improves(trial_press, current) and (
                    best_idx is None or trial_press < best_press):
                best_idx = j
                best_press = trial_press
        if best_idx is None:
            break
        Phi = np.column_stack([Phi, columns[best_idx]])
        current = best_press
        selected.append(best_idx)
        remaining.remove(best_idx)
    return selected, current
