"""Least-squares, NMSE, PRESS and forward-regression tests.

Oracles used here are independent of the implementation paths: normal
equations and the pseudoinverse for the solver, and brute-force
leave-one-out refits for PRESS.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canonsr.fit as fit
from canonsr.fit import _error, fit_weights, forward_regression_press, nmse, press

INF = float("inf")


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def normal_equations(Phi, y):
    return np.linalg.solve(Phi.T @ Phi, Phi.T @ y)


def pinv_solution(Phi, y):
    return np.linalg.pinv(Phi) @ y


def loo_press_bruteforce(Phi, y):
    """Refit N times with one row held out; sum the squared held-out errors."""
    N = Phi.shape[0]
    total = 0.0
    for t in range(N):
        keep = [i for i in range(N) if i != t]
        beta = np.linalg.lstsq(Phi[keep], y[keep], rcond=None)[0]
        err = y[t] - Phi[t] @ beta
        total += err * err
    return total


def _random_problem(rng, n, k):
    Phi = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))])
    y = rng.standard_normal(n)
    return Phi, y


# ---------------------------------------------------------------------------
# fit_weights
# ---------------------------------------------------------------------------

def test_exact_linear_data_recovers_coefficients():
    b = np.array([0.0, 1.0, 2.0, 3.0])
    Phi = np.column_stack([np.ones(4), b])
    y = 3.0 + 2.0 * b
    coeffs = fit_weights(Phi, y)
    assert coeffs == pytest.approx([3.0, 2.0])
    assert np.max(np.abs(y - Phi @ coeffs)) < 1e-12


def test_full_rank_matches_normal_equations_oracle():
    rng = np.random.default_rng(10)
    Phi, y = _random_problem(rng, 20, 4)
    ours = fit_weights(Phi, y)
    oracle = normal_equations(Phi, y)
    assert np.max(np.abs(ours - oracle)) <= 1e-8 * max(1.0, np.max(np.abs(oracle)))


def test_duplicated_column_minimum_norm_matches_pinv_oracle():
    rng = np.random.default_rng(11)
    base = rng.standard_normal(15)
    Phi = np.column_stack([np.ones(15), base, base])     # rank deficient
    y = rng.standard_normal(15)
    ours = fit_weights(Phi, y)
    oracle = pinv_solution(Phi, y)
    assert np.all(np.isfinite(ours))
    assert np.max(np.abs(ours - oracle)) <= 1e-8
    assert np.max(np.abs(Phi @ ours - Phi @ oracle)) <= 1e-8


def test_residual_orthogonality_property():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(5, 40))
        k = int(rng.integers(1, min(n, 6)))
        Phi, y = _random_problem(rng, n, k)
        coeffs = fit_weights(Phi, y)
        residual = y - Phi @ coeffs
        assert np.max(np.abs(Phi.T @ residual)) <= 1e-8 * np.linalg.norm(y)


def _stack(kind, rng, b, m, k):
    """b matrices m x k of one kind; 'wide' ones have fewer rows than columns."""
    if kind == "offset only":
        return np.ones((b, m, 1)) * rng.uniform(0.5, 2.0, size=(b, 1, 1))
    if kind == "wide":
        return rng.standard_normal((b, max(1, k - 2), k))
    Phi = rng.standard_normal((b, m, k))
    Phi[:, :, 0] = 1.0                                  # the offset column
    if kind == "rank deficient":                        # rank 2 < k
        Phi = Phi[:, :, :2] @ rng.standard_normal((b, 2, k))
    elif kind == "duplicated column":
        Phi[:, :, -1] = Phi[:, :, 1]
    return Phi


def _lstsq_bytes(Phi, y):
    return [np.linalg.lstsq(P, y, rcond=None)[0].tobytes() for P in Phi]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["random", "rank deficient", "duplicated column",
                             "offset only", "wide"]),
       b=st.integers(1, 6), m=st.integers(3, 90), k=st.integers(3, 9))
def test_fit_weights_on_a_stack_is_lstsq_byte_for_byte(seed, kind, b, m, k):
    rng = np.random.default_rng(seed)
    Phi = _stack(kind, rng, b, m, k)
    y = rng.standard_normal(Phi.shape[1])
    stacked = fit_weights(Phi, y)
    assert stacked.shape == (b, Phi.shape[2])
    assert [row.tobytes() for row in stacked] == _lstsq_bytes(Phi, y)
    assert [fit_weights(P, y).tobytes() for P in Phi] == _lstsq_bytes(Phi, y)


@pytest.mark.parametrize("kind", ["random", "duplicated column", "offset only", "wide"])
def test_fit_weights_without_the_gufunc_loops_over_lstsq(monkeypatch, kind):
    """numpy < 2 has no lstsq gufunc; fit_weights then calls np.linalg.lstsq."""
    rng = np.random.default_rng(13)
    Phi = _stack(kind, rng, 4, 30, 5)
    y = rng.standard_normal(Phi.shape[1])
    expected = _lstsq_bytes(Phi, y)
    monkeypatch.setattr(fit, "_lstsq", None)
    stacked = fit_weights(Phi, y)
    assert stacked.shape == (4, Phi.shape[2])
    assert [row.tobytes() for row in stacked] == expected
    assert [fit_weights(P, y).tobytes() for P in Phi] == expected


@pytest.mark.parametrize("path", ["gufunc", "fallback"])
@pytest.mark.parametrize("k", [1, 3])
def test_fit_weights_on_zero_rows_gives_lstsq_zeros(monkeypatch, path, k):
    """lstsq sets the solution of a zero-row problem to zeros; the gufunc
    alone leaves its output buffer unwritten."""
    if path == "fallback":
        monkeypatch.setattr(fit, "_lstsq", None)
    y = np.zeros(0)
    expected = np.linalg.lstsq(np.zeros((0, k)), y, rcond=None)[0]
    assert expected.tolist() == [0.0] * k
    one = fit_weights(np.zeros((0, k)), y)
    assert one.shape == (k,) and one.tobytes() == expected.tobytes()
    stacked = fit_weights(np.zeros((4, 0, k)), y)
    assert stacked.shape == (4, k) and stacked.tobytes() == np.zeros((4, k)).tobytes()


def test_problem_validation():
    """forward_regression_press checks its inputs once; press and fit_weights
    trust it."""
    with pytest.raises(ValueError, match="non-finite"):
        forward_regression_press([np.array([1.0, np.nan])], np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="non-finite"):
        forward_regression_press([], np.array([1.0, np.inf]))
    with pytest.raises(ValueError, match=r"candidate 0 has shape \(3,\), expected \(2,\)"):
        forward_regression_press([np.ones(3)], np.ones(2))
    with pytest.raises(ValueError, match="y 1-D"):
        forward_regression_press([np.ones(3)], np.ones((3, 1)))
    with pytest.raises(ValueError, match="y 1-D"):
        forward_regression_press([], np.float64(1.0))
    with pytest.raises(ValueError, match="at least one sample"):
        forward_regression_press([], np.ones(0))


# ---------------------------------------------------------------------------
# nmse
# ---------------------------------------------------------------------------

def test_nmse_perfect_fit_is_zero():
    y = np.array([1.0, 2.0, 3.0])
    assert nmse(y, y, reference=3.0) == 0.0


def test_nmse_hand_computed_value():
    # residual (0, 0, 1), reference 3: 100 * sqrt((1/3) * (1/9)) = 19.245...
    value = nmse(np.array([1.0, 2.0, 4.0]), np.array([1.0, 2.0, 3.0]), 3.0)
    assert value == pytest.approx(19.245008972987527, rel=1e-12)


def test_nmse_nonfinite_prediction_is_infinite():
    pred = np.array([1.0, np.nan])
    assert nmse(pred, np.array([1.0, 2.0]), 2.0) == INF


def test_nmse_zero_reference_rejected():
    with pytest.raises(ValueError, match="reference"):
        nmse(np.zeros(3), np.zeros(3), 0.0)


def test_nmse_scale_invariance():
    rng = np.random.default_rng(13)
    y = rng.standard_normal(30)
    pred = y + rng.standard_normal(30) * 0.1
    ref = float(np.max(np.abs(y)))
    base = nmse(pred, y, ref)
    for scale in (1e-6, 3.7, 1e8):
        assert nmse(scale * pred, scale * y, scale * ref) == pytest.approx(base, rel=1e-9)


def test_error_is_the_mean_formula_bit_for_bit():
    """_error sums and divides as np.mean does, without its Python wrapper;
    the double must be the same, non-finite results included."""
    def mean_formula(pred, y, reference):
        r = (pred - y) / reference
        return float(100.0 * np.sqrt(np.mean(r * r)))

    rng = np.random.default_rng(17)
    for _ in range(2000):
        n = int(rng.choice([1, 2, 7, 8, 9, 81, 128, 129, 243, 1000]))
        y = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9)
        pred = y + rng.standard_normal(n) * 10.0 ** rng.integers(-16, 9)
        if rng.random() < 0.3:
            pred[rng.integers(n, size=int(rng.integers(1, 3)))] = rng.choice(
                [np.inf, -np.inf, np.nan, 1e308])
        reference = float(10.0 ** rng.uniform(-3, 3))
        with np.errstate(all="ignore"):    # 1e308 overflows on purpose
            got, want = _error(pred, y, reference), mean_formula(pred, y, reference)
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", want), (got, want)
        # a row of a stack scores as it does alone
        with np.errstate(all="ignore"):
            stacked = _error(np.stack([y, pred]), y, reference)
        assert struct.pack("<2d", *stacked) == struct.pack("<2d", 0.0, want)


# ---------------------------------------------------------------------------
# press
# ---------------------------------------------------------------------------

def test_press_zero_on_perfect_linear_data():
    x = np.array([0.0, 1.0, 2.0])
    Phi = np.column_stack([np.ones(3), x])
    assert press(Phi, x) == pytest.approx(0.0, abs=1e-20)


def test_press_matches_bruteforce_loo():
    rng = np.random.default_rng(14)
    Phi, y = _random_problem(rng, 10, 3)
    ours = press(Phi, y)
    oracle = loo_press_bruteforce(Phi, y)
    assert ours == pytest.approx(oracle, rel=1e-8)


def test_press_interpolating_fit_is_infinite():
    rng = np.random.default_rng(15)
    Phi, y = _random_problem(rng, 4, 4)    # N == M+1
    assert press(Phi, y) == INF


def test_press_rank_deficient_is_infinite():
    base = np.arange(6.0)
    Phi = np.column_stack([np.ones(6), base, 2.0 * base])
    assert press(Phi, np.ones(6)) == INF


def test_press_bruteforce_sweep():
    # the closed form must equal N refits on every instance in this sweep
    rng = np.random.default_rng(16)
    for _ in range(40):
        n = int(rng.integers(4, 31))
        k = int(rng.integers(1, min(n - 1, 7)))
        Phi, y = _random_problem(rng, n, k)
        ours = press(Phi, y)
        oracle = loo_press_bruteforce(Phi, y)
        assert ours == pytest.approx(oracle, rel=1e-8)


# ---------------------------------------------------------------------------
# forward regression
# ---------------------------------------------------------------------------

def test_duplicate_candidate_selected_once():
    rng = np.random.default_rng(17)
    signal = rng.standard_normal(25)
    y = 3.0 + 2.0 * signal + 0.01 * rng.standard_normal(25)
    selected, final_press = forward_regression_press([signal, signal.copy()], y)
    assert selected == [0]                      # tie broken by lower index
    # oracle confirmation: adding the copy cannot improve leave-one-out error
    Phi1 = np.column_stack([np.ones(25), signal])
    Phi2 = np.column_stack([np.ones(25), signal, signal])
    assert final_press == press(Phi1, y)
    assert press(Phi2, y) >= final_press


def test_zero_candidates_gives_offset_only():
    y = np.array([1.0, 2.0, 3.0])
    selected, final_press = forward_regression_press([], y)
    assert selected == []
    # leave-one-out residuals of the mean: -1.5, 0, 1.5
    assert final_press == pytest.approx(4.5)


def test_noise_column_excluded():
    rng = np.random.default_rng(18)
    n = 50
    signal = rng.standard_normal(n)
    noise = rng.standard_normal(n)
    y = 1.0 + 4.0 * signal + 0.05 * rng.standard_normal(n)
    # oracle check that this seed behaves as intended: appending the noise
    # column increases brute-force leave-one-out error
    Phi_sig = np.column_stack([np.ones(n), signal])
    Phi_both = np.column_stack([np.ones(n), signal, noise])
    assert loo_press_bruteforce(Phi_both, y) > loo_press_bruteforce(Phi_sig, y)
    selected, _ = forward_regression_press([signal, noise], y)
    assert selected == [0]


def test_forward_regression_never_worse_than_offset_only():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(8, 30))
        k = int(rng.integers(0, 5))
        candidates = [rng.standard_normal(n) for _ in range(k)]
        y = rng.standard_normal(n)
        selected, _ = forward_regression_press(candidates, y)
        offset_press = press(np.ones((n, 1)), y)
        Phi = np.column_stack([np.ones(n)] + [candidates[j] for j in selected])
        assert press(Phi, y) <= offset_press
