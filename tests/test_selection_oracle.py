"""Environmental selection against the selection it replaced: the same survivors, in order.

reference_selection is _environmental_selection as it was when it sorted the
whole combined population into fronts before choosing.  Selection now peels
fronts one at a time and stops once mu are chosen, on a dominance matrix
built from dense ranks of the objectives, so a front found in another order,
a missed member or a wrong stop shows here as different survivors.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from canonsr.config import RunConfig
from canonsr.dataset import DoePlan, doe_full_factorial, oracle_dataset
from canonsr.draws import Draws
from canonsr.evolve import _environmental_selection, crowding_distance, init_population
from canonsr.evolve import nondominated_sort
from canonsr.grammar import load_default_grammar


def reference_selection(combined, objs, mu):
    fronts = nondominated_sort(objs)
    chosen = []
    for front in fronts:
        if len(chosen) + len(front) <= mu:
            chosen.extend(front)
            continue
        dists = crowding_distance([objs[i] for i in front])
        order = sorted(range(len(front)), key=lambda k: -dists[k])
        chosen.extend(front[k] for k in order[: mu - len(chosen)])
        break
    return [combined[i] for i in chosen]


def _assert_same(objs, mu):
    combined = [f"m{i}" for i in range(len(objs))]
    assert (_environmental_selection(combined, objs, mu)
            == reference_selection(combined, objs, mu))


# few distinct values, so copies of one point and ties are common
_errors = st.one_of(st.integers(0, 6).map(float), st.just(math.inf))
_complexities = st.integers(10, 16).map(float)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_errors, _complexities), max_size=120), st.data())
def test_same_survivors_on_copies_and_infinite_errors(objs, data):
    mu = data.draw(st.integers(0, len(objs)))
    _assert_same(objs, mu)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1e3), st.floats(10, 1e3)), min_size=1, max_size=120),
       st.data())
def test_same_survivors_on_float_points(objs, data):
    _assert_same(objs, data.draw(st.integers(0, len(objs))))


def test_same_survivors_when_front_zero_fills_mu_or_the_last_front_is_cut():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, 80))
        # heavy copies: a handful of points repeated, some with +inf error
        base = [(float(rng.integers(0, 4)) if rng.random() < 0.8 else math.inf,
                 float(rng.integers(10, 14))) for _ in range(int(rng.integers(1, 6)))]
        objs = [base[int(rng.integers(len(base)))] for _ in range(2 * n)]
        for mu in {n, 1, 2 * n, int(rng.integers(0, 2 * n + 1))}:
            _assert_same(objs, mu)


def test_same_survivors_on_a_pm_like_population():
    X = doe_full_factorial(DoePlan(centers=np.ones(4), dx=0.1))
    train = oracle_dataset("pm_like", X, ("x1", "x2", "x3", "x4"))
    ref = float(np.max(np.abs(train.y)))
    cfg = RunConfig(population=200, max_depth=6, seed=4)
    pop = init_population(load_default_grammar(), 4, train.X, train.y, ref, cfg,
                          Draws(cfg.seed))
    objs = [(m.train_error, m.complexity) for m in pop]
    # the population twice over: every point has a copy, as after a
    # generation of offspring that share their parents' fits
    objs = objs + objs[::-1]
    for mu in (0, 1, 50, 199, 200, 201, 400):
        _assert_same(objs, mu)
