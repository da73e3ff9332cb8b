"""NSGA-II machinery and variation-operator tests."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import canonsr.evolve as evolve
from canonsr.config import RunConfig
from canonsr.draws import Draws, floyd_sample
from canonsr.evolve import (ParetoArchive, apply_operator, crowding_distance,
                            dominates, fit_model, fit_models, init_population,
                            nondominated_sort, nsga2_generation,
                            vc_exponent_mutate, vc_onepoint_crossover,
                            weight_cauchy_mutate)
from canonsr.expr import (Model, NTNode, VCLeaf, WeightLeaf, complexity_of_bases,
                          stored_column, tree_depth, tree_to_dict)
from canonsr.fit import _error, fit_weights
from canonsr.grammar import load_default_grammar, random_tree, validate
from test_draws import every_draw_sequence

INF = float("inf")
G = load_default_grammar()


def _cfg(**kw):
    defaults = dict(population=24, generations=3, max_bases=5, max_depth=6, seed=0)
    defaults.update(kw)
    return RunConfig(**defaults)


def _train_data(n_vars=3, n=20, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.5, 1.5, size=(n, n_vars))
    y = 2.0 + X[:, 0] / X[:, 1]
    return X, y, float(np.max(np.abs(y)))


def _random_model(cfg, n_vars, rng, X, y, ref, n_bases=None):
    nb = n_bases if n_bases is not None else 1 + rng.below(cfg.max_bases)
    bases = [random_tree(G, cfg.max_depth, rng, n_vars, B=cfg.B) for _ in range(nb)]
    return fit_model(bases, X, y, ref, cfg)


# ---------------------------------------------------------------------------
# dominance oracle
# ---------------------------------------------------------------------------

def bruteforce_fronts(points):
    """Peel nondominated layers by direct O(n^2) dominance checks."""
    remaining = list(range(len(points)))
    fronts = []
    while remaining:
        front = [p for p in remaining
                 if not any(dominates(points[q], points[p])
                            for q in remaining if q != p)]
        fronts.append(sorted(front))
        remaining = [p for p in remaining if p not in front]
    return fronts


def test_sort_mutually_nondominated_points():
    fronts = nondominated_sort([(1.0, 5.0), (2.0, 4.0), (3.0, 3.0)])
    assert [sorted(f) for f in fronts] == [[0, 1, 2]]


def test_sort_strict_dominance():
    assert nondominated_sort([(1.0, 1.0), (2.0, 2.0)]) == [[0], [1]]


def test_sort_matches_bruteforce_on_random_points():
    rng = np.random.default_rng(20)
    points = [tuple(v) for v in rng.integers(0, 12, size=(50, 2)).astype(float)]
    ours = [sorted(f) for f in nondominated_sort(points)]
    assert ours == bruteforce_fronts(points)


def test_sort_handles_infinite_errors():
    points = [(INF, 5.0), (INF, 3.0), (1.0, 10.0)]
    fronts = [sorted(f) for f in nondominated_sort(points)]
    assert fronts == [[1, 2], [0]]


# ---------------------------------------------------------------------------
# crowding distance
# ---------------------------------------------------------------------------

def test_crowding_front_of_two_is_infinite():
    assert crowding_distance([(1.0, 2.0), (2.0, 1.0)]) == [INF, INF]


def test_crowding_collinear_middle_member():
    # equally spaced in both objectives: 1.0 per objective
    front = [(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)]
    dist = crowding_distance(front)
    assert dist[0] == INF and dist[2] == INF
    assert dist[1] == pytest.approx(2.0)


def test_crowding_permutation_invariant():
    rng = np.random.default_rng(21)
    front = [tuple(v) for v in rng.uniform(0, 1, size=(9, 2))]
    base = crowding_distance(front)
    perm = rng.permutation(9)
    permuted = crowding_distance([front[i] for i in perm])
    for k, i in enumerate(perm):
        assert permuted[k] == pytest.approx(base[i])


# ---------------------------------------------------------------------------
# leaf operators
# ---------------------------------------------------------------------------

def test_cauchy_mutation_stays_in_bounds():
    rng = Draws(22)
    for _ in range(2000):
        w = WeightLeaf(-20.0 + 40.0 * rng.random())
        out = weight_cauchy_mutate(w, 10.0, rng)
        assert abs(out.stored) <= 20.0


class _Step:
    """A stand-in for Draws whose Cauchy step is given."""

    def __init__(self, step):
        self.step = step

    def standard_cauchy(self):
        return self.step


def test_cauchy_mutation_clamps_as_np_clip():
    """The clamp gives np.clip's double, signed zeros, infinities and NaN included."""
    for stored, step in itertools.product([-0.0, 0.0, 5.0, -20.0, 20.0],
                                          [-0.0, 0.0, 3.0, -1e300, 1e300, INF, -INF, math.nan]):
        got = weight_cauchy_mutate(WeightLeaf(stored), 10.0, _Step(step)).stored
        expected = float(np.clip(stored + step, -20.0, 20.0))
        assert type(got) is float
        assert got.hex() == expected.hex()
        assert math.copysign(1.0, got) == math.copysign(1.0, expected)


def test_cauchy_mutation_step_statistics():
    # standard Cauchy: median |step| = 1, signs split evenly
    rng = Draws(23)
    w = WeightLeaf(0.0)
    steps = np.array([weight_cauchy_mutate(w, 1e9, rng).stored
                      for _ in range(100000)])
    assert abs(np.median(np.abs(steps)) - 1.0) < 0.1
    positive = float(np.mean(steps > 0))
    assert abs(positive - 0.5) < 0.01


def test_vc_crossover_cut_enumeration():
    # d=2 has a single cut point; children are the suffix swaps, repaired
    rng = Draws(24)
    a, b = VCLeaf([1, 0]), VCLeaf([0, 2])
    c1, c2 = vc_onepoint_crossover(a, b, rng)
    assert c1.exponents == (1, 2)
    assert any(c2.exponents)                      # [0, 0] must be repaired
    assert sum(1 for e in c2.exponents if e) == 1
    assert all(e in (-1, 0, 1) for e in c2.exponents)


def test_vc_crossover_identical_parents():
    rng = Draws(25)
    a = VCLeaf([2, -1, 1])
    c1, c2 = vc_onepoint_crossover(a, VCLeaf([2, -1, 1]), rng)
    assert c1.exponents == (2, -1, 1)
    assert c2.exponents == (2, -1, 1)


def test_vc_crossover_single_dim_returns_copies():
    rng = Draws(26)
    c1, c2 = vc_onepoint_crossover(VCLeaf([2]), VCLeaf([-1]), rng)
    assert (c1.exponents, c2.exponents) == ((2,), (-1,))


def test_vc_crossover_children_subset_of_parent_exponents():
    rng = Draws(27)
    for _ in range(500):
        d = 2 + rng.below(4)
        a = VCLeaf([-2 + rng.below(5) for _ in range(d)])
        b = VCLeaf([-2 + rng.below(5) for _ in range(d)])
        c1, c2 = vc_onepoint_crossover(a, b, rng)
        for child in (c1, c2):
            if not any(child.exponents):
                continue
            raw_ok = all(child.exponents[i] in (a.exponents[i], b.exponents[i])
                         for i in range(d))
            if not raw_ok:
                # a repaired child differs from the raw swap in exactly one dim
                diffs = [i for i in range(d)
                         if child.exponents[i] not in (a.exponents[i], b.exponents[i], 0)]
                assert len(diffs) <= 1 and all(abs(child.exponents[i]) == 1 for i in diffs)


def test_vc_mutate_clamps_at_cap():
    rng = Draws(28)
    out = vc_exponent_mutate(VCLeaf([2]), rng, exp_cap=2)
    assert out.exponents[0] in (1, 2)             # +1 clamps, -1 steps down
    for cap in (2, -2):                           # both ends, each step drawn
        outs = {vc_exponent_mutate(VCLeaf([cap]), rng, exp_cap=2).exponents[0]
                for _ in range(64)}
        assert outs == {cap, cap // 2}


def test_vc_mutate_repairs_zero():
    rng = Draws(29)
    for _ in range(200):
        out = vc_exponent_mutate(VCLeaf([1]), rng, exp_cap=5)
        assert any(out.exponents)


def test_vc_mutate_l1_distance_at_most_two():
    rng = Draws(30)
    for _ in range(1000):
        d = 1 + rng.below(4)
        exps = [-3 + rng.below(7) for _ in range(d)]
        if not any(exps):
            exps[0] = 1
        vc = VCLeaf(exps)
        out = vc_exponent_mutate(vc, rng, exp_cap=5)
        l1 = sum(abs(a - b) for a, b in zip(vc.exponents, out.exponents))
        assert l1 <= 2


# ---------------------------------------------------------------------------
# model-level operators
# ---------------------------------------------------------------------------

def _fitted_pair(cfg, seed=31):
    rng = Draws(seed)
    X, y, ref = _train_data()
    p1 = _random_model(cfg, 3, rng, X, y, ref, n_bases=2)
    p2 = _random_model(cfg, 3, rng, X, y, ref, n_bases=3)
    return p1, p2, rng, X, y, ref


def test_basis_set_crossover_single_basis_parents():
    cfg = _cfg()
    rng = Draws(32)
    X, y, ref = _train_data()
    p1 = _random_model(cfg, 3, rng, X, y, ref, n_bases=1)
    p2 = _random_model(cfg, 3, rng, X, y, ref, n_bases=1)
    (child,) = apply_operator("basis_set_crossover", [p1, p2], G, 3, cfg, rng)
    assert len(child) == 2                        # one from each parent
    assert tree_to_dict(child[0]) == tree_to_dict(p1.bases[0])
    assert tree_to_dict(child[1]) == tree_to_dict(p2.bases[0])


class _Rejected(Exception):
    pass


class _OneRound:
    """`below` for one round of a rejection loop: a draw past the first
    `n` means the round was rejected."""

    def __init__(self, below, n):
        self._below, self._left = below, n

    def below(self, m):
        if not self._left:
            raise _Rejected
        self._left -= 1
        return self._below(m)


@pytest.mark.parametrize("n", range(1, 6))
def test_nonempty_subset_draws_every_subset_equally_often(n):
    items = [f"basis{i}" for i in range(n)]

    def one_round(below):
        try:
            return tuple(evolve._nonempty_subset(items, _OneRound(below, n)))
        except _Rejected:
            return None

    weight = Counter()
    for subset, p in every_draw_sequence(one_round):
        weight[subset] += p
    # the empty mask is drawn again; every other subset keeps the item order
    subsets = {s for r in range(1, n + 1) for s in itertools.combinations(items, r)}
    assert set(weight) == subsets | {None}
    assert set(weight.values()) == {Fraction(1, 2 ** n)}


def test_basis_set_crossover_child_count_and_provenance():
    cfg = _cfg(max_bases=4)
    p1, p2, rng, *_ = _fitted_pair(cfg)
    parent_blobs = {str(tree_to_dict(t)) for t in p1.bases + p2.bases}
    for _ in range(100):
        (child,) = apply_operator("basis_set_crossover", [p1, p2], G, 3, cfg, rng)
        assert 2 <= len(child) <= cfg.max_bases
        for tree in child:
            assert str(tree_to_dict(tree)) in parent_blobs


def test_basis_delete_to_constant():
    cfg = _cfg()
    rng = Draws(33)
    X, y, ref = _train_data()
    p = _random_model(cfg, 3, rng, X, y, ref, n_bases=1)
    (child,) = apply_operator("basis_delete", [p], G, 3, cfg, rng)
    assert child == []


def test_basis_add_respects_cap():
    cfg = _cfg(max_bases=2)
    rng = Draws(34)
    X, y, ref = _train_data()
    p = _random_model(cfg, 3, rng, X, y, ref, n_bases=2)
    assert apply_operator("basis_add", [p], G, 3, cfg, rng) is None  # requirement fails: resample


def test_basis_copy_in_validates():
    cfg = _cfg()
    p1, p2, rng, *_ = _fitted_pair(cfg, seed=35)
    (child,) = apply_operator("basis_copy_in", [p1, p2], G, 3, cfg, rng)
    assert len(child) == len(p1.bases) + 1
    for tree in child:
        assert validate(tree, G, max_depth=cfg.max_depth, n_vars=3) == []


def test_subtree_crossover_single_vc_trees_swap():
    cfg = _cfg()
    rng = Draws(36)
    X, y, ref = _train_data()
    a = fit_model([random_tree(G, 1, rng, 3)], X, y, ref, cfg)
    b = fit_model([random_tree(G, 1, rng, 3)], X, y, ref, cfg)
    c1, c2 = apply_operator("subtree_crossover", [a, b], G, 3, cfg, rng)
    assert tree_to_dict(c1[0]) == tree_to_dict(b.bases[0])
    assert tree_to_dict(c2[0]) == tree_to_dict(a.bases[0])


def test_subtree_crossover_outputs_validate_and_respect_depth():
    cfg = _cfg()
    p1, p2, rng, *_ = _fitted_pair(cfg, seed=37)
    for _ in range(200):
        for child in apply_operator("subtree_crossover", [p1, p2], G, 3, cfg, rng):
            for tree in child:
                assert tree_depth(tree) <= cfg.max_depth
                assert validate(tree, G, max_depth=cfg.max_depth, n_vars=3) == []


def test_subtree_mutate_outputs_validate():
    cfg = _cfg()
    rng = Draws(38)
    X, y, ref = _train_data()
    p = _random_model(cfg, 3, rng, X, y, ref, n_bases=2)
    for _ in range(200):
        (child,) = apply_operator("subtree_mutate", [p], G, 3, cfg, rng)
        for tree in child:
            assert tree_depth(tree) <= cfg.max_depth
            assert validate(tree, G, max_depth=cfg.max_depth, n_vars=3) == []


def test_mutating_single_vc_tree_at_root_regrows():
    cfg = _cfg()
    rng = Draws(39)
    X, y, ref = _train_data()
    p = fit_model([random_tree(G, 1, rng, 3)], X, y, ref, cfg)
    (child,) = apply_operator("subtree_mutate", [p], G, 3, cfg, rng)
    assert validate(child[0], G, max_depth=cfg.max_depth, n_vars=3) == []


def test_operator_preconditions_trigger_resampling():
    cfg = _cfg()
    rng = Draws(40)
    X, y, ref = _train_data()
    constant = fit_model([], X, y, ref, cfg)
    assert apply_operator("basis_delete", [constant], G, 3, cfg, rng) is None
    assert apply_operator("weight_cauchy_mutate", [constant], G, 3, cfg, rng) is None
    assert apply_operator("vc_exponent_mutate", [constant], G, 3, cfg, rng) is None
    # basis_set_crossover falls back to basis_add when a parent is empty
    other = _random_model(cfg, 3, rng, X, y, ref, n_bases=1)
    result = apply_operator("basis_set_crossover", [constant, other], G, 3, cfg, rng)
    assert result is not None and len(result[0]) == 1


# ---------------------------------------------------------------------------
# fitness evaluation
# ---------------------------------------------------------------------------

def test_fit_model_constant():
    cfg = _cfg()
    X, y, ref = _train_data()
    m = fit_model([], X, y, ref, cfg)
    assert m.valid and m.n_bases == 0
    assert m.complexity == 0.0
    assert m.coeffs == pytest.approx([np.mean(y)])


def test_fit_model_invalid_on_nonfinite_basis():
    cfg = _cfg()
    X = np.array([[0.0], [1.0]])
    y = np.array([1.0, 2.0])
    from canonsr.expr import NTNode
    bases = [NTNode("REPVC", 0, [VCLeaf([-1])])]      # 1/x blows up at x=0
    m = fit_model(bases, X, y, 2.0, cfg)
    assert not m.valid
    assert m.train_error == INF
    assert m.complexity > 0


def _fit_one_by_one(bases, X, y, reference, cfg):
    """fit_model as it was before fits were batched: one np.linalg.lstsq call
    per model, on a matrix of its own."""
    cpx = complexity_of_bases(bases, cfg.wb, cfg.wvc)
    Phi = np.ones((X.shape[0], len(bases) + 1))
    for j, tree in enumerate(bases, start=1):
        col, finite = stored_column(tree, X, cfg.B)
        if not finite:
            return Model(bases=list(bases), coeffs=None, train_error=INF,
                         complexity=cpx, valid=False)
        Phi[:, j] = col
    coeffs = np.linalg.lstsq(Phi, y, rcond=None)[0]
    error = _error(Phi @ coeffs, y, reference)
    valid = math.isfinite(error)
    return Model(bases=list(bases), coeffs=coeffs, train_error=error if valid else INF,
                 complexity=cpx, valid=valid)


def _same_fit(a, b):
    assert a.bases == b.bases and a.bases is not b.bases
    assert (a.valid, a.complexity, a.test_error) == (b.valid, b.complexity, b.test_error)
    assert a.train_error == b.train_error
    if b.coeffs is None:
        assert a.coeffs is None
    else:
        assert a.coeffs.tobytes() == b.coeffs.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_fit_models_equals_one_fit_per_model(seed):
    """Invalid bases, basis counts 0 to 5, repeats and the empty basis list,
    mixed in one call, each fit byte for byte as fit_model and the unbatched
    fit give it."""
    cfg = _cfg()
    rng = Draws(seed)
    X, y, ref = _train_data(n_vars=4, n=30, seed=seed)
    X[0, 3] = 0.0           # 1/x4 is inf on row 0; the random trees use x1-x3 only
    inverse = NTNode("REPVC", 0, [VCLeaf([0, 0, 0, -1])])
    bases_list = [[random_tree(G, cfg.max_depth, rng, 3, B=cfg.B)
                   for _ in range(rng.below(6))] for _ in range(25)]
    bases_list += [[], [inverse], bases_list[3] + [inverse], bases_list[5],
                   list(bases_list[5]), bases_list[0], []]
    order = floyd_sample(rng.below, len(bases_list), len(bases_list))
    bases_list = [bases_list[i] for i in order]

    models = fit_models(bases_list, X, y, ref, cfg)
    assert len(models) == len(bases_list)
    assert len({len(b) for b in bases_list}) >= 4
    assert sum(not m.valid for m in models) >= 2 and sum(m.valid for m in models) >= 10
    for bases, m in zip(bases_list, models):
        assert all(a is b for a, b in zip(m.bases, bases))
        _same_fit(m, fit_model(bases, X, y, ref, cfg))
        _same_fit(m, _fit_one_by_one(bases, X, y, ref, cfg))
        if m.coeffs is not None:
            assert not m.coeffs.flags.writeable
    assert fit_models([], X, y, ref, cfg) == []


def _fit_and_score_one(bases, X, y, ref, cfg):
    """One model's own fit_weights(P, y) and fit._error(P @ c, y, ref)."""
    P = np.ones((X.shape[0], len(bases) + 1))
    for j, tree in enumerate(bases, 1):
        P[:, j] = stored_column(tree, X, cfg.B)[0]
    coeffs = fit_weights(P, y)
    return coeffs, _error(P @ coeffs, y, ref)


def _assert_scored_one_by_one(models, bases_list, X, y, ref, cfg):
    for bases, m in zip(bases_list, models):
        coeffs, error = _fit_and_score_one(bases, X, y, ref, cfg)
        assert m.coeffs.tobytes() == coeffs.tobytes()
        assert type(m.train_error) is float
        if math.isfinite(error):
            assert m.valid and m.train_error.hex() == error.hex()
        else:
            assert not m.valid and m.train_error == INF


@pytest.mark.parametrize("rows", [81, 243])
def test_fit_models_scores_each_group_as_its_own_fit_and_error(rows):
    """Groups of 1 to 20 models with 0 to 6 bases each, and a stack whose
    every model repeats a basis (rank deficient): each error and coefficient
    is the model's own fit and fit._error, byte for byte."""
    cfg = _cfg()
    rng = Draws(rows)
    X, y, ref = _train_data(n_vars=4, n=rows, seed=rows)
    pool = [t for t in (random_tree(G, cfg.max_depth, rng, 4, B=cfg.B) for _ in range(60))
            if stored_column(t, X, cfg.B)[1]]
    stacks = [[[pool[rng.below(len(pool))] for _ in range(size % 7)] for _ in range(size)]
              for size in range(1, 21)]
    stacks.append([[t, t] + [pool[rng.below(len(pool))] for _ in range(3)]
                   for t in pool[:12]])
    for bases_list in stacks:
        models = fit_models(bases_list, X, y, ref, cfg)
        assert all(m.valid for m in models)
        _assert_scored_one_by_one(models, bases_list, X, y, ref, cfg)


def test_fit_models_marks_a_non_finite_prediction_invalid():
    """Targets up to the largest double: some fits overshoot it on a row, so
    their finite coefficients predict inf there."""
    cfg = _cfg()
    top = float(np.finfo(float).max)
    combos = [NTNode("REPVC", 0, [VCLeaf(e)]) for e in ([1, 0, 0], [0, 1, 0], [1, 1, 0])]
    bases_list = [[a] for a in combos] + [[a, b] for a, b in itertools.combinations(combos, 2)]
    valid = Counter()
    for seed in range(8):
        X = np.random.default_rng(seed).uniform(0.5, 1.5, size=(81, 3))
        y = top * (X[:, 0] / 1.5)
        y[:3] = top
        with np.errstate(over="ignore"):      # the predictions that overflow
            models = fit_models(bases_list, X, y, top, cfg)
            _assert_scored_one_by_one(models, bases_list, X, y, top, cfg)
        assert all(np.isfinite(m.coeffs).all() for m in models)
        valid.update(m.valid for m in models)
    assert valid[False] and valid[True]


# ---------------------------------------------------------------------------
# generations and archive
# ---------------------------------------------------------------------------

def test_generation_closure_and_archive_nondominated(monkeypatch):
    cfg = _cfg(population=20)
    rng = Draws(cfg.seed)
    X, y, ref = _train_data()
    archive = ParetoArchive()
    pop = init_population(G, 3, X, y, ref, cfg, rng)
    archive.merge(pop)
    real_apply = evolve.apply_operator
    checked = []

    def validating_apply(*args):
        result = real_apply(*args)
        for bases in result or []:
            assert len(bases) <= cfg.max_bases
            for tree in bases:
                assert validate(tree, G, max_depth=cfg.max_depth, B=cfg.B,
                                exp_cap=cfg.exp_cap, n_vars=3) == []
            checked.append(bases)
        return result

    monkeypatch.setattr(evolve, "apply_operator", validating_apply)
    for _ in range(4):
        pop = nsga2_generation(pop, X, y, ref, G, cfg, rng, archive)
    assert len(checked) >= 4 * cfg.population              # every offspring validated
    assert len(pop) == cfg.population
    objs = [(m.train_error, m.complexity) for m in archive.models]
    for i, a in enumerate(objs):
        for j, b in enumerate(objs):
            if i != j:
                assert not dominates(a, b)


def test_fixed_seed_identical_archives():
    def run():
        cfg = _cfg(population=20, seed=5)
        rng = Draws(cfg.seed)
        X, y, ref = _train_data()
        archive = ParetoArchive()
        pop = init_population(G, 3, X, y, ref, cfg, rng)
        archive.merge(pop)
        for _ in range(5):
            pop = nsga2_generation(pop, X, y, ref, G, cfg, rng, archive)
        return [(m.train_error, m.complexity, [tree_to_dict(t) for t in m.bases])
                for m in archive.models]
    assert run() == run()


def test_archive_monotone_improvement():
    cfg = _cfg(population=20, seed=6)
    rng = Draws(cfg.seed)
    X, y, ref = _train_data()
    archive = ParetoArchive()
    pop = init_population(G, 3, X, y, ref, cfg, rng)
    archive.merge(pop)

    def best_error_at_or_below(cpx):
        errs = [m.train_error for m in archive.models if m.complexity <= cpx]
        return min(errs) if errs else INF

    checkpoints = [0.0, 15.0, 30.0, 60.0, 120.0]
    previous = {c: best_error_at_or_below(c) for c in checkpoints}
    for _ in range(5):
        pop = nsga2_generation(pop, X, y, ref, G, cfg, rng, archive)
        current = {c: best_error_at_or_below(c) for c in checkpoints}
        for c in checkpoints:
            assert current[c] <= previous[c]
        previous = current


def test_archive_keeps_one_model_per_objective_point():
    archive = ParetoArchive()
    m1 = Model(bases=[], coeffs=np.array([1.0]), train_error=5.0, complexity=0.0, valid=True)
    m2 = Model(bases=[], coeffs=np.array([2.0]), train_error=5.0, complexity=0.0, valid=True)
    archive.merge([m1])
    archive.merge([m2])
    assert archive.models == [m1]


def test_archive_rejects_invalid():
    archive = ParetoArchive()
    bad = Model(bases=[], coeffs=None, train_error=INF, complexity=0.0, valid=False)
    archive.merge([bad])
    assert archive.models == []
