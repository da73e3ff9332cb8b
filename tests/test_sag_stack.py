"""press() on stacks of matrices, and forward regression's one press() call
per step.

Each forward-regression step scores every remaining candidate in one
press() call on the stack of trial matrices [Phi, candidate].  Every value
of that call must be, bit for bit and +inf included, what
test_sag_oracle._oracle_press gives for its matrix alone.  The candidate
sets are the oracle test's.
"""

import numpy as np
import pytest

from canonsr import fit
from test_sag_oracle import EPS, INF, KINDS, _bits, _candidates, _oracle_press


def _assert_same_as_oracle(stack, y):
    got = fit.press(stack, y)
    assert isinstance(got, list) and len(got) == len(stack)
    assert [_bits(v) for v in got] == [_bits(_oracle_press(P, y)) for P in stack]


def _recorded_runs(kind, monkeypatch):
    """For each of the kind's 25 candidate sets: (the arrays press() was
    called with, in order, y, the number of candidates, the selection)."""
    press = fit.press
    calls = []

    def recorded(Phi, y):
        calls[-1].append(Phi.copy())
        return press(Phi, y)

    monkeypatch.setattr(fit, "press", recorded)
    rng = np.random.default_rng(KINDS.index(kind))    # as in the oracle test
    runs = []
    for _ in range(25):
        cols, y = _candidates(kind, rng)
        calls.append([])
        selected, _ = fit.forward_regression_press(cols, y)
        runs.append((calls[-1], y, len(cols), selected))
    monkeypatch.undo()
    return runs


@pytest.mark.parametrize("kind", KINDS)
def test_press_on_each_trial_stack_matches_oracle(kind, monkeypatch):
    """Every step's stack, its first matrix alone and its first k rows
    (N <= k, so every value is +inf)."""
    stacks = 0
    for phis, y, _, _ in _recorded_runs(kind, monkeypatch):
        for stack in phis[1:]:
            k = stack.shape[2]
            _assert_same_as_oracle(stack, y)
            _assert_same_as_oracle(stack[:1], y)
            _assert_same_as_oracle(stack[:, :k], y[:k])
            stacks += 1
    assert stacks > 0


@pytest.mark.parametrize("kind", KINDS)
def test_forward_regression_calls_press_once_per_step(kind, monkeypatch):
    """Once for the offset-only fit, then once per step: one per selected
    column, and one more for the step that selects none, unless every
    candidate was selected.  The steps pass stacks of every remaining
    candidate."""
    for phis, y, m, selected in _recorded_runs(kind, monkeypatch):
        steps = len(selected) + (len(selected) < m)
        assert len(phis) == 1 + steps
        assert phis[0].shape == (len(y), 1)
        assert [P.shape for P in phis[1:]] == [(m - s, len(y), s + 2) for s in range(steps)]


def _near_rank_threshold(rng, N, k):
    """Phi (N, k) whose smallest singular value lies near matrix_rank's tol,
    as test_sag_oracle._near_rank_threshold makes it for a shape it draws."""
    U = np.linalg.qr(rng.normal(size=(N, k)))[0]
    V = np.linalg.qr(rng.normal(size=(k, k)))[0]
    s = np.sort(rng.uniform(0.1, 1.0, size=k))[::-1]
    s[0] = 1.0
    s[-1] = max(N, k) * EPS * (1.0 + rng.uniform(-0.5, 0.5) * 10.0 ** rng.uniform(-5, -1))
    return (U * s) @ V.T * 10.0 ** rng.uniform(-3, 3)


@pytest.mark.parametrize("seed", range(4))
def test_press_on_stacks_near_the_rank_threshold_matches_oracle(seed):
    """Stacks of matrices near matrix_rank's threshold, one well-conditioned
    matrix among them: those inside press()'s matrix_rank band are decided
    matrix by matrix."""
    rng = np.random.default_rng(600 + seed)
    in_band = infinite = 0
    for _ in range(40):
        N = int(rng.choice([9, 12, 20, 40, 243]))
        k = int(rng.integers(2, min(9, N)))
        stack = np.array([_near_rank_threshold(rng, N, k) for _ in range(6)])
        stack[int(rng.integers(6))] = rng.normal(size=(N, k))
        y = rng.normal(size=N)
        _assert_same_as_oracle(stack, y)
        for P in stack:
            s = np.linalg.svd(np.linalg.qr(P)[1], compute_uv=False)
            tol = s[0] * max(N, k) * EPS
            in_band += tol / fit._RANK_GUARD < s[-1] <= tol * fit._RANK_GUARD
            infinite += _oracle_press(P, y) == INF
    assert in_band > 0 and infinite > 0


def test_press_of_one_matrix_is_the_one_matrix_stack_value():
    rng = np.random.default_rng(700)
    for N, k in ((1, 1), (3, 3), (4, 3), (30, 5), (243, 12)):
        Phi = rng.normal(size=(N, k))
        y = rng.normal(size=N)
        value = fit.press(Phi, y)
        assert isinstance(value, float)
        assert _bits(value) == _bits(fit.press(Phi[None], y)[0]) == _bits(_oracle_press(Phi, y))
    assert fit.press(np.ones((0, 5, 2)), np.ones(5)) == []
