"""Draws' primitives against the numpy.random.default_rng calls they stand for:
the same values, draw for draw, and the same generator state after them.
floyd_sample is also checked exactly, over every sequence of values its
draws can take: each ordered sample comes out equally often."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from canonsr.config import RunConfig
from canonsr.dataset import DoePlan, doe_full_factorial, oracle_dataset
from canonsr.draws import _BLOCK, Draws, floyd_sample
from canonsr.evolve import ParetoArchive, init_population, nsga2_generation
from canonsr.expr import model_to_dict
from canonsr.grammar import load_default_grammar

# ranges at the edges of the 32-bit path, where Lemire's rejection fires most
EDGE_N = (1, 2, 3, 2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1, 3 * 2 ** 30, 2 ** 32 - 2, 2 ** 32 - 1)


def _random_call(script: random.Random):
    """One draw the search makes, with arguments drawn from `script`: its
    kind, the draw through Draws' primitives and the numpy call it stands for."""
    kind = script.randrange(8)
    if kind == 0:
        n = script.choice(EDGE_N) if script.random() < 0.3 else script.randint(1, 40)
        return "below", (lambda d: d.below(n)), (lambda g: int(g.integers(n)))
    if kind == 1:
        low = script.randint(-5, 5)
        high = low + (script.choice(EDGE_N) if script.random() < 0.2 else script.randint(1, 16))
        return ("offset below", (lambda d: low + d.below(high - low)),
                (lambda g: int(g.integers(low, high))))
    if kind == 2:
        k = script.randint(0, 20)
        return ("bits", (lambda d: [d.below(2) for _ in range(k)]),
                (lambda g: g.integers(0, 2, size=k).tolist()))
    if kind == 3:
        a = 2 ** 32 - 1 if script.random() < 0.1 else script.randint(1, 20)
        k = a if a <= 20 and script.random() < 0.3 else script.randint(0, min(a, 20))
        return ("floyd_sample", (lambda d: floyd_sample(d.below, a, k)),
                (lambda g: g.choice(a, size=k, replace=False).tolist()))
    if kind == 4:
        B = script.choice((0.5, 10.0, 300.0))
        lo, span = -2.0 * B, 4.0 * B
        return ("scaled random", (lambda d: lo + span * d.random()),
                (lambda g: g.uniform(lo, lo + span)))
    if kind == 5:
        return "random", (lambda d: d.random()), (lambda g: g.random())
    return "standard_cauchy", (lambda d: d.standard_cauchy()), (lambda g: g.standard_cauchy())


def _assert_same_state(draws: Draws, gen: np.random.Generator):
    """The PCG64 state, with Draws' spare half-word as numpy's buffered uint32."""
    (ours, spare), theirs = draws.state(), gen.bit_generator.state
    assert ours == theirs["state"]
    assert (spare is not None) == bool(theirs["has_uint32"])
    if spare is not None:
        assert spare == theirs["uinteger"]


@pytest.mark.parametrize("block", range(4))
def test_mixed_call_scripts_match_default_rng(block):
    cauchy_on_spare = 0
    for seed in range(block * 60, block * 60 + 60):
        script = random.Random(seed)
        draws, gen = Draws(seed), np.random.default_rng(seed)
        for _ in range(80):
            kind, ours, theirs = _random_call(script)
            if kind == "standard_cauchy" and draws._spare is not None:
                cauchy_on_spare += 1
            got, want = ours(draws), theirs(gen)
            assert type(got) is type(want)
            if type(got) is list:
                assert all(type(v) is int for v in got)
            assert got == want, (seed, kind)
        _assert_same_state(draws, gen)
    assert cauchy_on_spare > 0


def test_scripts_over_many_blocks_match_default_rng():
    fetches = 0
    for seed in range(6):
        script = random.Random(1000 + seed)
        draws, gen = Draws(seed), np.random.default_rng(seed)
        for _ in range(400):
            kind, ours, theirs = _random_call(script)
            if kind == "standard_cauchy":
                continue
            unread = len(draws._words)
            assert ours(draws) == theirs(gen), (seed, kind)
            fetches += len(draws._words) > unread
        _assert_same_state(draws, gen)
    assert fetches >= 6 * 3         # every script reads past its second block


def _read_words(draws, gen, count, spare):
    """Read `count` raw words from both sources, the last through below(2)
    so that its high half stays spare if `spare`."""
    for _ in range(count - spare):
        assert draws.random() == gen.random()
    if spare:
        assert draws.below(2) == int(gen.integers(2))


# words read before the call: a block's last word unread, none unread (the
# block read to its end), and a refill just made
@pytest.mark.parametrize("read", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK - 1])
@pytest.mark.parametrize("spare", [False, True])
def test_standard_cauchy_at_the_block_edges_matches_default_rng(read, spare):
    draws, gen = Draws(read), np.random.default_rng(read)
    _read_words(draws, gen, read, spare)
    assert len(draws._words) == -read % _BLOCK
    assert (draws._spare is not None) == spare
    assert draws.standard_cauchy() == gen.standard_cauchy()
    assert not draws._words
    _assert_same_state(draws, gen)
    for _ in range(_BLOCK + 3):
        assert draws.below(7) == int(gen.integers(7))
        assert draws.random() == gen.random()
    _assert_same_state(draws, gen)


@pytest.mark.parametrize("spare", [False, True])
def test_random_on_a_blocks_last_word_matches_default_rng(spare):
    draws, gen = Draws(9), np.random.default_rng(9)
    _read_words(draws, gen, _BLOCK - 1, spare)
    assert len(draws._words) == 1
    assert draws.random() == gen.random()       # the block's last word
    assert not draws._words
    assert draws.random() == gen.random()       # the next block's first
    assert len(draws._words) == _BLOCK - 1
    _assert_same_state(draws, gen)


def test_state_sees_a_draw_served_from_the_block():
    """Draws that differ only in a draw read from the fetched block leave the
    bit generator alike; state() tells them apart, by the word read or by
    the spare half-word."""
    def drawn(bits):
        draws = Draws(4)
        draws.random()              # fetches a block
        for _ in range(bits):
            draws.below(2)
        return draws

    for fewer, more in ((0, 1), (1, 2)):
        a, b = drawn(fewer), drawn(more)
        assert a._gen.bit_generator.state == b._gen.bit_generator.state
        assert a.state() != b.state()
    assert drawn(1).state()[0] == drawn(2).state()[0]     # below(2) twice: one word


@pytest.mark.parametrize("n", EDGE_N)
def test_every_range_edge_matches_default_rng(n):
    draws, gen = Draws(n), np.random.default_rng(n)
    assert [draws.below(n) for _ in range(300)] == [int(gen.integers(n)) for _ in range(300)]
    _assert_same_state(draws, gen)


def test_range_of_one_draws_nothing():
    draws, gen = Draws(5), np.random.default_rng(5)
    assert [draws.below(1), 7 + draws.below(1)] == [0, 7]
    assert floyd_sample(draws.below, 1, 1) == [0]
    assert floyd_sample(draws.below, 4, 0) == []
    _assert_same_state(draws, gen)
    assert draws.below(9) == gen.integers(9)


@pytest.mark.parametrize("n", [1, 2, 3, 2 ** 31, 2 ** 32 - 1])
def test_below_is_integers_value_for_value(n):
    draws, gen = Draws(n), np.random.default_rng(n)
    for count in range(1, 42):      # odd counts end with a spare half-word held
        assert draws.below(n) == int(gen.integers(n))
        if count % 10 == 1:
            _assert_same_state(draws, gen)
    _assert_same_state(draws, gen)


def test_floyd_sample_is_choice_without_replacement():
    draws, gen = Draws(21), np.random.default_rng(21)
    for _ in range(5):
        for a in range(1, 7):
            for k in range(a + 1):
                picked = floyd_sample(draws.below, a, k)
                assert picked == gen.choice(a, size=k, replace=False).tolist(), (a, k)
    _assert_same_state(draws, gen)
    assert draws.below(2 ** 32 - 1) == int(gen.integers(2 ** 32 - 1))


# numpy uses Floyd's algorithm for a <= 10000 or k <= a // 50: the corners
# of that domain
@pytest.mark.parametrize("a,k", [(10000, 300), (10000, 10000), (10001, 200), (20000, 400)])
def test_floyd_sample_is_choice_at_the_edge_of_numpys_floyd_domain(a, k):
    draws, gen = Draws(a + k), np.random.default_rng(a + k)
    assert floyd_sample(draws.below, a, k) == gen.choice(a, size=k, replace=False).tolist()
    _assert_same_state(draws, gen)


def every_draw_sequence(fn):
    """fn(below) over every sequence of values `below` can return, each with
    its probability when every value in [0, n) is equally likely: a
    depth-first replay that steps the last draw on, like an odometer."""
    fixed = []          # [value, n] for each draw of the sequence replayed
    while True:
        at = 0

        def below(n):
            nonlocal at
            if at == len(fixed):
                fixed.append([0, n])
            value, m = fixed[at]
            assert m == n       # a replayed prefix asks for the same ranges
            at += 1
            return value

        result = fn(below)
        assert at == len(fixed)
        yield result, math.prod(Fraction(1, n) for _, n in fixed)
        while fixed and fixed[-1][0] == fixed[-1][1] - 1:
            fixed.pop()
        if not fixed:
            return
        fixed[-1][0] += 1


@pytest.mark.parametrize("a,k", [(a, k) for a in range(1, 6) for k in range(1, a + 1)])
def test_floyd_sample_draws_every_ordered_sample_equally_often(a, k):
    weight = Counter()
    for picked, p in every_draw_sequence(lambda below: floyd_sample(below, a, k)):
        weight[tuple(picked)] += p
    assert set(weight) == set(itertools.permutations(range(a), k))
    assert set(weight.values()) == {Fraction(1, math.perm(a, k))}


@pytest.mark.parametrize("k", [0, 1, 2, 7, 20])
def test_bit_lists_are_integers_with_size(k):
    # the mask of evolve._nonempty_subset, from either half of a word
    draws, gen = Draws(k), np.random.default_rng(k)
    for _ in range(25):
        assert [draws.below(2) for _ in range(k)] == gen.integers(0, 2, size=k).tolist()
        _assert_same_state(draws, gen)


@pytest.mark.parametrize("B", [0.5, 10.0, 300.0])
def test_scaled_doubles_are_uniform(B):
    # a weight leaf grown by random_tree: lo + span * random() in [-2B, 2B)
    lo, span = -2.0 * B, 4.0 * B
    draws, gen = Draws(int(B)), np.random.default_rng(int(B))
    for _ in range(200):
        got = lo + span * draws.random()
        assert got == gen.uniform(lo, lo + span)
        assert lo <= got < lo + span
    _assert_same_state(draws, gen)


def test_random_and_standard_cauchy_match_their_namesakes():
    draws, gen = Draws(3), np.random.default_rng(3)
    for count in range(200):
        if count % 3 == 0:          # a spare half-word held through some draws
            assert draws.below(7) == int(gen.integers(7))
        assert draws.random() == gen.random()
        assert draws.standard_cauchy() == gen.standard_cauchy()
        _assert_same_state(draws, gen)


def test_full_permutations_match_default_rng():
    draws, gen = Draws(11), np.random.default_rng(11)
    for n in range(1, 40):
        assert (floyd_sample(draws.below, n, n)
                == gen.choice(n, size=n, replace=False).tolist())
    _assert_same_state(draws, gen)


@pytest.mark.parametrize("call", [
    lambda d: d.below(5, size=2),
    lambda d: d.random(size=2),
    lambda d: d.standard_cauchy(size=2),
])
def test_array_draws_raise(call):
    draws = Draws(0)
    with pytest.raises(TypeError):
        call(draws)
    # nothing was drawn on the way to the error
    _assert_same_state(draws, np.random.default_rng(0))


class _GeneratorDraws:
    """The three draws the search makes, from a numpy Generator's own methods."""

    def __init__(self, seed: int):
        self.gen = np.random.default_rng(seed)

    def below(self, n: int) -> int:
        return int(self.gen.integers(n))

    def random(self) -> float:
        return self.gen.random()

    def standard_cauchy(self) -> float:
        return self.gen.standard_cauchy()


def test_evolution_is_the_same_under_either_generator():
    X = doe_full_factorial(DoePlan(centers=np.ones(4), dx=0.1))
    train = oracle_dataset("pm_like", X, ("x1", "x2", "x3", "x4"))
    ref = float(np.max(np.abs(train.y)))
    cfg = RunConfig(population=30, generations=2, seed=7)
    g = load_default_grammar()
    fronts = []
    draws, adapter = Draws(cfg.seed), _GeneratorDraws(cfg.seed)
    for rng in (draws, adapter):
        pop = init_population(g, 4, train.X, train.y, ref, cfg, rng)
        for _ in range(cfg.generations):
            pop = nsga2_generation(pop, train.X, train.y, ref, g, cfg, rng, ParetoArchive())
        fronts.append([model_to_dict(m) for m in pop])
    assert fronts[0] == fronts[1]
    _assert_same_state(draws, adapter.gen)
