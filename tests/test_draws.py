"""Draws against numpy.random.default_rng: the same values, draw for draw."""

import math
import random

import numpy as np
import pytest

from canonsr.config import RunConfig
from canonsr.dataset import DoePlan, doe_full_factorial, oracle_dataset
from canonsr.draws import Draws, below_of, floyd_sample
from canonsr.evolve import ParetoArchive, init_population, nsga2_generation
from canonsr.expr import model_to_dict
from canonsr.grammar import load_default_grammar

# ranges at the edges of the 32-bit path, where Lemire's rejection fires most
EDGE_N = (1, 2, 3, 2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1, 3 * 2 ** 30, 2 ** 32 - 2, 2 ** 32 - 1)


def _random_call(script: random.Random):
    """One call canonsr makes, with arguments drawn from `script`."""
    kind = script.randrange(8)
    if kind == 0:
        n = script.choice(EDGE_N) if script.random() < 0.3 else script.randint(1, 40)
        return "integers", (n,), {}
    if kind == 1:
        low = script.randint(-5, 5)
        high = low + (script.choice(EDGE_N) if script.random() < 0.2 else script.randint(1, 16))
        return "integers", (low, high), {}
    if kind == 2:
        return "integers", (0, 2), {"size": script.randint(0, 20)}
    if kind == 3:
        n = 2 ** 32 - 1 if script.random() < 0.1 else script.randint(1, 20)
        k = n if n <= 20 and script.random() < 0.3 else script.randint(0, min(n, 20))
        return "choice", (n,), {"size": k, "replace": False}
    if kind == 4:
        B = script.choice((0.5, 10.0, 300.0))
        return "uniform", (-2.0 * B, 2.0 * B), {}
    if kind == 5:
        return "random", (), {}
    return "standard_cauchy", (), {}


def _assert_same_state(draws: Draws, gen: np.random.Generator):
    ours, theirs = draws._gen.bit_generator.state, gen.bit_generator.state
    assert ours["state"] == theirs["state"]
    assert (draws._spare is not None) == bool(theirs["has_uint32"])
    if draws._spare is not None:
        assert draws._spare == theirs["uinteger"]


@pytest.mark.parametrize("block", range(4))
def test_mixed_call_scripts_match_default_rng(block):
    cauchy_on_spare = 0
    for seed in range(block * 60, block * 60 + 60):
        script = random.Random(seed)
        draws, gen = Draws(seed), np.random.default_rng(seed)
        for _ in range(80):
            name, args, kwargs = _random_call(script)
            if name == "standard_cauchy" and draws._spare is not None:
                cauchy_on_spare += 1
            ours = getattr(draws, name)(*args, **kwargs)
            theirs = getattr(gen, name)(*args, **kwargs)
            if name == "choice":    # a list, as numpy's .tolist() gives it
                assert type(ours) is list and all(type(v) is int for v in ours)
                assert ours == theirs.tolist(), (seed, name, args, kwargs)
            elif isinstance(theirs, np.ndarray):
                assert ours.dtype == theirs.dtype
                assert ours.tolist() == theirs.tolist(), (seed, name, args, kwargs)
            else:
                assert ours == theirs, (seed, name, args, kwargs)
        _assert_same_state(draws, gen)
    assert cauchy_on_spare > 0


@pytest.mark.parametrize("n", EDGE_N)
def test_every_range_edge_matches_default_rng(n):
    draws, gen = Draws(n), np.random.default_rng(n)
    assert [draws.integers(n) for _ in range(300)] == [int(gen.integers(n))
                                                      for _ in range(300)]
    _assert_same_state(draws, gen)


def test_range_of_one_draws_nothing():
    draws, gen = Draws(5), np.random.default_rng(5)
    assert [draws.integers(1), draws.integers(7, 8)] == [0, 7]
    assert draws.choice(1, size=1, replace=False) == [0]
    assert draws.integers(9) == gen.integers(9)


@pytest.mark.parametrize("n", [1, 2, 3, 2 ** 31, 2 ** 32 - 1])
def test_below_is_integers_value_for_value(n):
    draws, gen = Draws(n), np.random.default_rng(n)
    for count in range(1, 42):      # odd counts end with a spare half-word held
        assert draws.below(n) == int(gen.integers(n))
        if count % 10 == 1:
            _assert_same_state(draws, gen)
    _assert_same_state(draws, gen)


def test_below_of_a_generator_draws_what_integers_draws():
    draws = Draws(8)
    assert below_of(draws) == draws.below
    gen, ref = np.random.default_rng(8), np.random.default_rng(8)
    below = below_of(gen)
    values = [below(n) for n in (1, 2, 3, 7, 2 ** 31, 2 ** 32 - 1) * 20]
    assert all(type(v) is int for v in values)
    assert values == [int(ref.integers(n)) for n in (1, 2, 3, 7, 2 ** 31, 2 ** 32 - 1) * 20]
    assert gen.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("make_below", [lambda g: below_of(Draws(g)),
                                        lambda g: below_of(np.random.default_rng(g))],
                         ids=["Draws", "default_rng"])
def test_floyd_sample_is_choice_without_replacement(make_below):
    gen = np.random.default_rng(21)
    below = make_below(21)
    for _ in range(5):
        for a in range(1, 7):
            for k in range(a + 1):
                picked = floyd_sample(below, a, k)
                assert picked == gen.choice(a, size=k, replace=False).tolist(), (a, k)
    assert below(2 ** 32 - 1) == int(gen.integers(2 ** 32 - 1))


def test_full_permutations_match_default_rng():
    draws, gen = Draws(11), np.random.default_rng(11)
    for n in range(1, 40):
        assert (draws.choice(n, size=n, replace=False)
                == gen.choice(n, size=n, replace=False).tolist())


@pytest.mark.parametrize("call", [
    lambda d: d.integers(0),
    lambda d: d.integers(-1),
    lambda d: d.integers(5, 5),
    lambda d: d.integers(2 ** 32),
    lambda d: d.integers(-1, 2 ** 32 - 1),
    lambda d: d.integers(5.0),
    lambda d: d.integers(True, 3),
    lambda d: d.integers(np.int64(5)),
    lambda d: d.integers(0, 2, size=(2, 2)),
    lambda d: d.integers(0, 2, size=-1),
    lambda d: d.integers(5, dtype=np.int32),
    lambda d: d.integers(5, endpoint=True),
    lambda d: d.choice(4, size=2),
    lambda d: d.choice(4, size=2, replace=True),
    lambda d: d.choice(4, size=5, replace=False),
    lambda d: d.choice(0, size=0, replace=False),
    lambda d: d.choice(2 ** 32, size=1, replace=False),
    lambda d: d.choice([1, 2, 3], size=1, replace=False),
    lambda d: d.choice(20000, size=10001, replace=False),
    lambda d: d.choice(4, size=2, replace=False, p=[0.25] * 4),
    lambda d: d.uniform(1.0, 0.0),
    lambda d: d.uniform(0.0, math.inf),
    lambda d: d.uniform(-1e308, 1e308),
    lambda d: d.uniform(0.0, math.nan),
    lambda d: d.uniform(0.0, 1.0, size=3),
    lambda d: d.random(size=2),
    lambda d: d.standard_cauchy(size=2),
])
def test_calls_outside_the_emulated_subset_raise(call):
    draws = Draws(0)
    with pytest.raises((ValueError, TypeError)):
        call(draws)
    # nothing was drawn on the way to the error
    _assert_same_state(draws, np.random.default_rng(0))


def test_evolution_is_the_same_under_either_generator():
    X = doe_full_factorial(DoePlan(centers=np.ones(4), dx=0.1))
    train = oracle_dataset("pm_like", X, ("x1", "x2", "x3", "x4"))
    ref = float(np.max(np.abs(train.y)))
    cfg = RunConfig(population=30, generations=2, seed=7)
    g = load_default_grammar()
    fronts = []
    for rng in (Draws(cfg.seed), np.random.default_rng(cfg.seed)):
        pop = init_population(g, 4, train.X, train.y, ref, cfg, rng)
        for _ in range(cfg.generations):
            pop = nsga2_generation(pop, train.X, train.y, ref, g, cfg, rng, ParetoArchive())
        fronts.append([model_to_dict(m) for m in pop])
    assert fronts[0] == fronts[1]
