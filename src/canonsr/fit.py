"""Least-squares fitting, normalized error, PRESS and forward regression.

The PRESS statistic here is the exact leave-one-out squared-error sum for
linear least squares, computed from the residuals and the hat-matrix
diagonal.  Forward regression greedily adds basis columns while PRESS
strictly decreases, which prunes columns that harm predictive ability.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

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


def _rank_deficient(Phi: np.ndarray, R: np.ndarray) -> bool:
    """matrix_rank(Phi) < k, decided from the k x k R factor of Phi where safe."""
    s = np.linalg.svd(R, compute_uv=False)
    tol = s[0] * max(Phi.shape) * _EPS
    if tol / _RANK_GUARD < s[-1] <= tol * _RANK_GUARD:
        return np.linalg.matrix_rank(Phi) < Phi.shape[1]
    return s[-1] <= tol


def press(Phi: np.ndarray, y: np.ndarray) -> float:
    """Sum of squared leave-one-out residuals of the checked y on Phi; +inf when
    the fit interpolates (N <= M+1), Phi is rank deficient, or some leverage reaches 1."""
    N, k = Phi.shape
    if N <= k:
        return INF
    q, r = np.linalg.qr(Phi)
    if _rank_deficient(Phi, r):
        return INF
    h = np.einsum("ij,ij->i", q, q)
    if np.any(h >= _LEVERAGE_LIMIT):
        return INF
    residuals = y - Phi @ fit_weights(Phi, y)
    loo = residuals / (1.0 - h)
    return float(np.sum(loo * loo))


def _improves(candidate: float, current: float) -> bool:
    if not np.isfinite(current):
        return np.isfinite(candidate)
    return candidate < current * (1.0 - _PRESS_REL_TOL)


# A candidate column within this relative distance of the current span is
# unsafe for the screen in forward_regression_press and always refitted.
_SCREEN_SPAN_TOL = 1e-6
# below three candidates, refitting them all costs no more than the screen
_SCREEN_MIN = 3


def _row_norms2(A: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", A, A)


def _upper_inverse(R: np.ndarray) -> np.ndarray:
    """Inverse of the upper-triangular R, one column at a time.  Unlike
    np.linalg.inv, this calls no LAPACK routine that press() does not, so it
    maps no more of the library (about 0.19 MB of resident memory)."""
    k = R.shape[0]
    inv = np.zeros((k, k))
    for j in range(k):
        inv[j, j] = 1.0 / R[j, j]
        inv[:j, j] = -(inv[:j, :j] @ R[:j, j]) * inv[j, j]
    return inv


def _screen(Phi: np.ndarray, y: np.ndarray, C: np.ndarray, c_norm2: np.ndarray,
            threshold: float) -> np.ndarray:
    """Mask of the candidate columns C (one per row, squared norms c_norm2;
    C is overwritten) that must go through press() to find which of them,
    added to Phi, press() picks; the rest cannot be that one.

    Each call starts from a fresh QR of the current columns, Phi = QR: an
    orthonormal basis Q of their span, the leverages h, the residual r, R^-1
    and the fitted coefficients.  Every candidate c is then added to that
    fit at once by one rank-one step (QR updating, Golub & Van Loan, Matrix
    Computations, 6.5): q = c_perp / |c_perp| for c_perp = c - Q Q'c,
    h' = h + q^2 and r' = r - q q'r, so that sqrt(PRESS) is approximately
    |r' / (1 - h')|.

    This step and press() are both backward stable, so each stays close to
    the exact fit of [Phi, c] (least-squares perturbation, Golub & Van Loan
    5.3): its leverages within eta = unit * kappa_s and its residuals within
    unit * (|y| + |[Phi, c]| |x| + kappa |r|).  Here x holds the fitted
    coefficients, kappa_s and kappa bound the condition number of [Phi, c]
    with unit columns and with its own, and unit is 16 sqrt(N k) eps, 16
    times the usual growth of rounding errors in Householder and SVD based
    fits; over random, near-collinear, rescaled and recorded candidate sets
    the two differed by at most 0.5 sqrt(N k) eps times the same terms.
    That bounds press()'s double for the candidate to [lo, hi].  A candidate
    is left out only when lo shows that it cannot pass _improves (lo >=
    threshold), or that a refitted candidate is lower (lo > the smallest
    hi); so the stop when none is left keeps the margin on both sides.  A
    candidate whose column is nearly in the current span, whose leverage is
    within eta of the limit, whose kappa is near press()'s rank threshold,
    or whose bound is not finite is unsafe: it is always refitted.
    """
    N, k = Phi.shape[0], Phi.shape[1] + 1
    Q, R = np.linalg.qr(Phi)
    Qty = Q.T @ y
    h = _row_norms2(Q)
    r = y - Q @ Qty
    r_inv = _upper_inverse(R)
    coef = r_inv @ Qty
    phi_norm2 = _row_norms2(Phi.T)
    row2 = _row_norms2(r_inv)
    inv_f2, inv_f2_scaled = row2.sum(), phi_norm2 @ row2
    # einsum, not a matrix product: the first BLAS dgemm call in a process
    # maps about 0.25 MB more of the library, 0.6% of a wide243 run's RSS
    CtQ = np.einsum("ij,jk->ik", C, Q)
    z = np.einsum("ij,kj->ik", CtQ, r_inv)   # row i: R^-1 Q'c_i, c_i on Phi
    with np.errstate(all="ignore"):
        # in place, so that few m x N arrays are alive at once (written as
        # expressions, this raised wide243's peak RSS by 0.3 MB)
        q = C
        q -= np.einsum("ik,jk->ij", CtQ, Q)          # c_perp
        perp2 = _row_norms2(q)
        perp = np.sqrt(perp2)
        q /= perp[:, None]
        qtr = q @ r
        den = q * q
        den += h
        np.subtract(1.0, den, out=den)   # 1 - h'
        loo = q * qtr[:, None]
        np.subtract(r, loo, out=loo)     # r'
        loo /= den
        root = np.sqrt(_row_norms2(loo))
        gap = den.min(axis=1)
        del den, loo

        # [[R^-1, -z / |c_perp|], [0, 1 / |c_perp|]] inverts the R factor of
        # [Phi, c]; Frobenius norms bound the 2-norms in kappa and kappa_s
        beta = qtr / perp                # c's fitted coefficient
        zz, wz = _row_norms2(z), np.einsum("ij,ij,j->i", z, z, phi_norm2)
        norm2 = phi_norm2.sum() + c_norm2
        unit = 16.0 * math.sqrt(N * k) * _EPS
        kappa = np.sqrt(norm2 * (inv_f2 + (zz + 1.0) / perp2))
        eta = unit * np.sqrt(k * (inv_f2_scaled + (wz + c_norm2) / perp2))
        fitted = np.sqrt(norm2 * (_row_norms2(coef - z * beta[:, None]) + beta * beta))
        gap -= eta
        # |sqrt(press()) - root| <= margin, the sums' rounding included
        margin = ((eta * root + unit * (math.sqrt(y @ y) + fitted + kappa * math.sqrt(r @ r)))
                  / gap + N * _EPS * root)
        lo, hi = root - margin, root + margin
        safe = ((perp2 > _SCREEN_SPAN_TOL ** 2 * c_norm2)
                & (gap > 1.0 - _LEVERAGE_LIMIT)
                & (kappa < 1.0 / (_RANK_GUARD * max(N, k) * _EPS))
                & np.isfinite(hi))
    if not safe.any():
        return ~safe
    return ~safe | ((lo < math.sqrt(threshold)) & (lo <= hi[safe].min()))


def forward_regression_press(bases: Sequence[np.ndarray], y: np.ndarray,
                             ) -> Tuple[List[int], float]:
    """Greedy forward selection of basis columns by PRESS.

    Starts from the offset-only model and, at each step, adds the candidate
    column whose augmented problem has the lowest PRESS, stopping when no
    addition strictly decreases it.  Ties go to the lowest candidate index.
    Returns (selected indices in selection order, PRESS of the offset plus
    the selected columns in that order).  Each step refits, through press(),
    only the candidates that _screen cannot rule out; the result is the same
    as refitting them all.
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
    c_norm2 = _row_norms2(C)

    while remaining:
        candidates = remaining
        # the screen needs more rows than a trial has columns
        if len(remaining) >= _SCREEN_MIN and N > Phi.shape[1] + 1:
            refit = _screen(Phi, y, C[remaining], c_norm2[remaining],
                            current * (1.0 - _PRESS_REL_TOL))
            candidates = [j for j, keep in zip(remaining, refit) if keep]
        best_idx = None
        best_press = current
        for j in candidates:
            trial = np.column_stack([Phi, columns[j]])
            trial_press = press(trial, y)
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
