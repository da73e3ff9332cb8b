"""Least-squares fitting, normalized error, PRESS and forward regression.

The PRESS statistic here is the exact leave-one-out squared-error sum for
linear least squares, computed from the residuals and the hat-matrix
diagonal.  Forward regression greedily adds basis columns while PRESS
strictly decreases, which prunes columns that harm predictive ability; each
step scores every remaining candidate exactly, in one press() call on the
stack of trial matrices.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple, Union

import numpy as np

INF = float("inf")

# leverage values this close to 1 make the leave-one-out residual blow up
_LEVERAGE_LIMIT = 1.0 - 1e-12
_PRESS_REL_TOL = 1e-9
_EPS = float(np.finfo(float).eps)

try:   # what np.linalg.lstsq calls; numpy < 2 splits the gufunc in two
    from numpy.linalg._linalg import _raise_linalgerror_lstsq as _lstsq_failed
    from numpy.linalg._umath_linalg import lstsq as _lstsq
except ImportError:
    _lstsq = None


def fit_weights(Phi: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of y on Phi, minimum-norm where Phi is rank
    deficient.  Phi is one (m, k) matrix, giving (k,), or a stack (b, m, k)
    solved in one LAPACK call, giving (b, k).  Each solution is
    np.linalg.lstsq(Phi_i, y, rcond=None)[0] byte for byte, zeros if m = 0:
    this calls the gufunc that wraps, with its rcond, signature and error
    state, but without the Python overhead that outweighs LAPACK on small fits."""
    m, k = Phi.shape[-2:]
    if _lstsq is None or m == 0:    # the gufunc leaves a zero-row solution unwritten
        if Phi.ndim == 2:
            return np.linalg.lstsq(Phi, y, rcond=None)[0]
        return np.array([np.linalg.lstsq(P, y, rcond=None)[0] for P in Phi])
    with np.errstate(call=_lstsq_failed, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        return _lstsq(Phi, y[:, None], _EPS * max(m, k), signature="ddd->ddid")[0][..., 0]


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


# press() decides rank from the singular values of its own R factor and asks
# matrix_rank (an SVD of all of Phi) only when sigma_min(R) lies within this
# factor of matrix_rank's threshold tol = sigma_max * max(N, k) * eps.  R is the
# exact R factor of Phi plus a backward error of a few eps * sigma_max
# (Householder QR), and each SVD adds as much, so the two sigma_min differ by a
# few eps * sigma_max.  The band's edges lie (1 - 1/16) * max(N, k) >= 1.9 and
# 15 * max(N, k) >= 30 units of eps * sigma_max from tol, so outside it both
# tests agree; candidates inside it are near rank deficient and rare.
_RANK_GUARD = 16.0


def _rank_deficient(Phi: np.ndarray, R: np.ndarray) -> np.ndarray:
    """matrix_rank(Phi[i]) < k for each matrix of the stack Phi, decided from
    its k x k R factor where safe."""
    s = np.linalg.svd(R, compute_uv=False)
    tol = s[:, 0] * max(Phi.shape[1:]) * _EPS
    deficient = s[:, -1] <= tol
    for i in np.flatnonzero((tol / _RANK_GUARD < s[:, -1]) & (s[:, -1] <= tol * _RANK_GUARD)):
        deficient[i] = np.linalg.matrix_rank(Phi[i]) < Phi.shape[2]
    return deficient


def press(Phi: np.ndarray, y: np.ndarray) -> Union[float, List[float]]:
    """Sum of squared leave-one-out residuals of the checked y on Phi; +inf when
    the fit interpolates (N <= M+1), Phi is rank deficient, or some leverage
    reaches 1.  Phi is one (N, k) matrix, giving a float, or a stack (b, N, k),
    giving a list of b floats.  Each is the double its matrix gives alone:
    every step is one per-matrix LAPACK routine (QR, the SVD of R, lstsq)
    and the residual is taken matrix by matrix."""
    stack = Phi if Phi.ndim == 3 else Phi[None]
    b, N, k = stack.shape
    scores = [INF] * b
    if N > k:
        q, r = np.linalg.qr(stack)
        h = np.einsum("bij,bij->bi", q, q)
        ok = np.flatnonzero(~_rank_deficient(stack, r) & (h < _LEVERAGE_LIMIT).all(axis=1))
        for i, coeffs in zip(ok, fit_weights(stack[ok], y)):
            loo = (y - stack[i] @ coeffs) / (1.0 - h[i])
            scores[i] = float(np.sum(loo * loo))
    return scores if Phi.ndim == 3 else scores[0]


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
    the selected columns in that order).  Each step scores every remaining
    candidate exactly, in one press() call on the stack of trial matrices.
    """
    # the one input check: press() and fit_weights() trust their callers
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("Phi must be 2-D and y 1-D")
    N = y.shape[0]
    columns = [np.asarray(b, dtype=float) for b in bases]
    for j, col in enumerate(columns):
        if col.shape != (N,):
            raise ValueError(f"candidate {j} has shape {col.shape}, expected ({N},)")
    if N < 1:
        raise ValueError("need at least one sample")
    if not np.isfinite(y).all() or not all(np.isfinite(col).all() for col in columns):
        raise ValueError("regression problem contains non-finite entries")

    Phi = np.ones((N, 1))
    current = press(Phi, y)
    selected: List[int] = []
    remaining = list(range(len(columns)))
    C = np.array(columns).reshape(len(columns), N)   # one candidate per row

    while remaining:
        k = Phi.shape[1]
        trials = np.empty((len(remaining), N, k + 1))
        trials[:, :, :k] = Phi
        trials[:, :, k] = C[remaining]
        best = None
        best_press = current
        for t, trial_press in enumerate(press(trials, y)):
            if _improves(trial_press, current) and (best is None or trial_press < best_press):
                best = t
                best_press = trial_press
        if best is None:
            break
        Phi = trials[best]
        current = best_press
        selected.append(remaining.pop(best))
    return selected, current
