"""Screened forward regression and press() against the code they replaced.

`_oracle_press` and `_oracle_forward` are press() and forward_regression_press
as they were before the rank test was read from press()'s own QR, before
forward regression screened its candidates and before press() took plain
arrays: a matrix_rank SVD of all of Phi, every remaining candidate refitted
at every step, and the inputs checked at every press() call.  The new code
must return the same selections and the same PRESS doubles, bit for bit,
+inf included, and raise the same errors.
"""

import struct

import numpy as np
import pytest

from canonsr.fit import (_LEVERAGE_LIMIT, _PRESS_REL_TOL, INF, _improves,
                         forward_regression_press, press)

EPS = np.finfo(float).eps


def _checked(Phi, y):
    """The checks press()'s inputs went through on every call."""
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(y, dtype=float)
    if Phi.ndim != 2 or y.ndim != 1:
        raise ValueError("Phi must be 2-D and y 1-D")
    if Phi.shape[0] != y.shape[0]:
        raise ValueError("Phi and y row counts differ")
    if Phi.shape[0] < 1:
        raise ValueError("need at least one sample")
    if not np.all(np.isfinite(Phi)) or not np.all(np.isfinite(y)):
        raise ValueError("regression problem contains non-finite entries")
    return Phi, y


def _oracle_press(Phi, y):
    Phi, y = _checked(Phi, y)
    N, k = Phi.shape
    if N <= k:
        return INF
    if np.linalg.matrix_rank(Phi) < k:
        return INF
    q, _ = np.linalg.qr(Phi)
    h = np.einsum("ij,ij->i", q, q)
    if np.any(h >= _LEVERAGE_LIMIT):
        return INF
    residuals = y - Phi @ np.linalg.lstsq(Phi, y, rcond=None)[0]
    loo = residuals / (1.0 - h)
    return float(np.sum(loo * loo))


def _oracle_forward(bases, y):
    y = np.asarray(y, dtype=float)
    N = y.shape[0]
    columns = [np.asarray(b, dtype=float) for b in bases]
    Phi = np.ones((N, 1))
    current = _oracle_press(Phi, y)
    selected = []
    remaining = list(range(len(columns)))
    while remaining:
        best_idx = None
        best_press = current
        for j in remaining:
            trial = np.column_stack([Phi, columns[j]])
            trial_press = _oracle_press(trial, y)
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


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _assert_same_forward(columns, y):
    expected = _oracle_forward(columns, y)
    got = forward_regression_press(columns, y)
    assert got[0] == expected[0]
    assert _bits(got[1]) == _bits(expected[1]), (got[1], expected[1])


# ---------------------------------------------------------------------------
# press(): the rank test read from R
# ---------------------------------------------------------------------------

def _near_rank_threshold(rng):
    """Phi whose smallest singular value lies within 5% of matrix_rank's tol."""
    N = int(rng.choice([9, 12, 20, 40, 243]))
    k = int(rng.integers(2, min(9, N)))
    U = np.linalg.qr(rng.normal(size=(N, k)))[0]
    V = np.linalg.qr(rng.normal(size=(k, k)))[0]
    s = np.sort(rng.uniform(0.1, 1.0, size=k))[::-1]
    s[0] = 1.0
    s[-1] = max(N, k) * EPS * (1.0 + rng.uniform(-0.5, 0.5) * 10.0 ** rng.uniform(-5, -1))
    return (U * s) @ V.T * 10.0 ** rng.uniform(-3, 3), rng.normal(size=N)


@pytest.mark.parametrize("seed", range(4))
def test_press_near_rank_threshold_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    infinite = 0
    for _ in range(150):
        Phi, y = _near_rank_threshold(rng)
        expected = _oracle_press(Phi, y)
        assert _bits(press(Phi, y)) == _bits(expected)
        infinite += expected == INF
    assert 0 < infinite < 150          # both sides of the threshold are covered


@pytest.mark.parametrize("seed", range(3))
def test_press_collinear_duplicated_and_high_leverage_match_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(60):
        N = int(rng.integers(4, 244))
        k = int(rng.integers(2, min(8, N)))
        Phi = rng.normal(size=(N, k)) * 10.0 ** rng.uniform(-6, 6, size=k)
        Phi[:, 0] = 1.0
        kind = int(rng.integers(4))
        if kind == 0:                   # exact combination of other columns
            Phi[:, -1] = Phi[:, :-1] @ rng.normal(size=k - 1)
        elif kind == 1:                 # duplicated column
            Phi[:, -1] = Phi[:, int(rng.integers(k - 1))]
        elif kind == 2:                 # a column living on one row
            Phi[:, -1] = 0.0
            Phi[int(rng.integers(N)), -1] = 1.0
        else:                           # one row far out
            Phi[int(rng.integers(N)), 1:] *= 1e6
        y = rng.normal(size=N) * 10.0 ** rng.uniform(-3, 3)
        expected = _oracle_press(Phi, y)
        assert _bits(press(Phi, y)) == _bits(expected)


# ---------------------------------------------------------------------------
# forward regression: the screen
# ---------------------------------------------------------------------------

def _candidates(kind, rng):
    N = int(rng.choice([int(rng.integers(5, 40)), 81, 243]))
    m = int(rng.integers(3, 11))
    y = rng.normal(size=N) * 10.0 ** rng.uniform(-3, 3) + rng.choice([0.0, 10.0 ** rng.uniform(0, 4)])
    cols = []
    for j in range(m):
        c = rng.normal(size=N) + rng.normal()
        if kind == "near_collinear" and j > 0:
            # noise around press()'s rank threshold, max(N, k) eps |Phi|
            base = cols[int(rng.integers(j))]
            c = base + rng.normal(size=N) * np.abs(base).max() * 10.0 ** rng.uniform(-17, -11)
        elif kind == "duplicated" and j > 0 and rng.random() < 0.6:
            c = cols[int(rng.integers(j))] * rng.choice([1.0, -1.0, 3.0, 1e-3])
        elif kind == "collinear" and j > 1 and rng.random() < 0.5:
            c = np.column_stack(cols) @ rng.normal(size=j)
        elif kind == "scaled":
            c = c * 10.0 ** rng.uniform(-6, 6)
        elif kind == "high_leverage":
            if rng.random() < 0.4:
                c = np.zeros(N)
                c[int(rng.integers(N))] = rng.uniform(0.5, 2.0)
            else:
                c[int(rng.integers(N))] *= 10.0 ** rng.uniform(2, 8)
        elif kind == "informative":
            c = rng.uniform(0.1, 1.0) * y + c * 10.0 ** rng.uniform(-4, 1)
        cols.append(c)
    return cols, y


KINDS = ("random", "near_collinear", "duplicated", "collinear", "scaled", "high_leverage",
         "informative")


@pytest.mark.parametrize("kind", KINDS)
def test_forward_regression_matches_oracle(kind):
    rng = np.random.default_rng(KINDS.index(kind))
    for _ in range(25):
        cols, y = _candidates(kind, rng)
        _assert_same_forward(cols, y)


@pytest.mark.parametrize("seed", range(3))
def test_forward_regression_with_few_rows_matches_oracle(seed):
    """N from k + 1 up, where the last steps run out of rows."""
    rng = np.random.default_rng(200 + seed)
    for _ in range(30):
        m = int(rng.integers(3, 9))
        N = int(rng.integers(2, m + 4))
        cols = [rng.normal(size=N) for _ in range(m)]
        y = rng.normal(size=N) + rng.normal(size=N) * cols[0]
        _assert_same_forward(cols, y)


@pytest.mark.parametrize("seed", range(20))
def test_candidate_at_the_improvement_threshold(seed):
    """One candidate whose PRESS is the largest double that still improves
    on the offset-only fit, between two that do not improve: the screen's
    estimate of it may land on either side of the threshold."""
    rng = np.random.default_rng(300 + seed)
    N = int(rng.integers(20, 120))
    y = rng.normal(size=N) + 3.0
    current = _oracle_press(np.ones((N, 1)), y)
    threshold = current * (1.0 - _PRESS_REL_TOL)
    residual = y - y.mean()

    def press_with(column):
        return _oracle_press(np.column_stack([np.ones(N), column]), y)

    noise = rng.normal(size=N)
    while press_with(noise) < threshold:    # a noise column that improves on its own
        noise = rng.normal(size=N)
    lo, hi = 0.0, 1.0
    while press_with(noise + hi * residual) >= threshold:
        hi *= 2.0
    for _ in range(200):    # press_with at lo >= threshold > press_with at hi
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if press_with(noise + mid * residual) >= threshold else (lo, mid)
    cols = [rng.normal(size=N), noise + hi * residual, rng.normal(size=N)]
    _assert_same_forward(cols, y)


def test_empty_single_and_constant_target_match_oracle():
    rng = np.random.default_rng(400)
    y = rng.normal(size=30)
    _assert_same_forward([], y)
    _assert_same_forward([rng.normal(size=30)], y)
    _assert_same_forward([0.5 * y + rng.normal(size=30) * 0.1], y)
    constant = np.full(30, 2.5)
    _assert_same_forward([rng.normal(size=30) for _ in range(5)], constant)
    _assert_same_forward([rng.normal(size=30) for _ in range(5)], np.zeros(30))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_non_finite_candidate_raises_like_oracle(bad, position):
    """A non-finite candidate or y, an empty y and a 2-D y raise the oracle's
    exception with its message."""
    rng = np.random.default_rng(500)
    y = rng.normal(size=40)
    cols = [rng.normal(size=40) for _ in range(5)]
    bad_cols = [c.copy() for c in cols]
    bad_cols[position][7] = bad
    bad_y = y.copy()
    bad_y[position] = bad
    for columns, target in ((bad_cols, y), (cols, bad_y), ([c[:0] for c in cols], y[:0]),
                            (cols, y[:, None]), (cols, np.column_stack([y, y]))):
        with pytest.raises(ValueError) as expected:
            _oracle_forward(columns, target)
        with pytest.raises(ValueError) as got:
            forward_regression_press(columns, target)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
