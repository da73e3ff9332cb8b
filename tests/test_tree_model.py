"""Immutable, shared basis trees: operators leave parents alone, stored
columns, complexities and shared fits match fresh evaluation bit for bit."""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import canonsr.evolve as evolve
import canonsr.expr as expr
from canonsr.config import OPERATOR_NAMES, RunConfig
from canonsr.dataset import Dataset, DoePlan, doe_full_factorial
from canonsr.draws import Draws, floyd_sample
from canonsr.evolve import (OPERATORS, ParetoArchive, apply_operator, fit_model,
                            init_population, nsga2_generation)
from canonsr.expr import (NTNode, OpLeaf, VCLeaf, WeightLeaf, basis_complexity,
                          eval_basis_matrix, eval_model_matrix, model_from_dict,
                          model_to_dict, stored_column, tree_from_dict, tree_to_dict, walk)
from canonsr.fit import fit_weights, nmse
from canonsr.grammar import (GrammarError, default_grammar_text, load_default_grammar,
                             parse_grammar, random_tree, validate)
from test_draws import _assert_same_state

N_VARS = 3
X = doe_full_factorial(DoePlan(centers=np.array([1.0, 2.0, 0.5]), dx=0.1))
Y = 3.0 + X[:, 0] / X[:, 1] + np.sqrt(X[:, 2])
REFERENCE = float(np.max(np.abs(Y)))
SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _cfg(**kw):
    return RunConfig(population=10, generations=1, max_bases=5, **kw)


def _parents(g, cfg, rng, count):
    """Fitted models with 0..max_bases random bases, so trees carry stored columns."""
    out = []
    for _ in range(count):
        nb = rng.below(cfg.max_bases + 1)
        bases = [random_tree(g, cfg.max_depth, rng, N_VARS, B=cfg.B) for _ in range(nb)]
        out.append(fit_model(bases, X, Y, REFERENCE, cfg))
    return out


def _snapshot(m):
    return ([tree_to_dict(t) for t in m.bases], [id(t) for t in m.bases],
            m.train_error, m.complexity)


@pytest.mark.parametrize("name", OPERATOR_NAMES)
@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_operator_leaves_parents_unchanged(name, seed):
    g = load_default_grammar()
    cfg = _cfg()
    rng = Draws(seed)
    parents = _parents(g, cfg, rng, 2)
    before = [_snapshot(p) for p in parents]
    for _ in range(5):
        apply_operator(name, parents, g, N_VARS, cfg, rng)
    assert [_snapshot(p) for p in parents] == before


def test_operator_table_covers_every_configurable_operator():
    assert sorted(OPERATORS) == sorted(OPERATOR_NAMES)
    two_parent = {"basis_set_crossover", "basis_copy_in", "subtree_crossover",
                  "vc_onepoint_crossover"}
    assert {name for name, (_, needs) in OPERATORS.items() if len(needs) == 2} == two_parent


def _restricted_grammar(rng):
    """The packaged grammar text with random alternatives dropped, each drop
    skipped where it would leave a nonterminal without a derivation."""
    pairs = [(lhs, alt.strip()) for lhs, rhs in re.findall(
        r"^(\w+)\s*=>(.*(?:\n\s+\|.*)*)", default_grammar_text(), re.M) for alt in rhs.split("|")]
    kept = set(range(len(pairs)))
    g = parse_grammar(default_grammar_text())
    for k in floyd_sample(rng.below, len(pairs), len(pairs) // 2):
        text = "\n".join(f"{lhs} => {alt}" for i, (lhs, alt) in enumerate(pairs)
                         if i in kept and i != k)
        try:
            g = parse_grammar(text)
        except GrammarError as exc:
            assert "no terminating derivation" in str(exc) or "undefined" in str(exc)
            continue
        kept.discard(k)
    return g


@pytest.mark.parametrize("name", OPERATOR_NAMES)
@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), max_depth=st.sampled_from([5, 6, 8]))
def test_operators_keep_trees_valid_on_restricted_grammars(name, seed, max_depth):
    rng = Draws(seed)
    g = _restricted_grammar(rng)
    assume(g.min_depth(g.start) <= max_depth)
    cfg = _cfg(max_depth=max_depth)
    parents = _parents(g, cfg, rng, 2)
    for _ in range(5):
        for bases in apply_operator(name, parents, g, N_VARS, cfg, rng) or []:
            assert len(bases) <= cfg.max_bases
            for tree in bases:
                assert validate(tree, g, max_depth=max_depth, B=cfg.B,
                                exp_cap=cfg.exp_cap, n_vars=N_VARS) == []


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_json_round_trip_predicts_bit_identically(seed):
    g = load_default_grammar()
    cfg = _cfg()
    rng = Draws(seed)
    sweep = np.array([[0.5 + 2.0 * rng.random() for _ in range(N_VARS)] for _ in range(50)])
    for m in _parents(g, cfg, rng, 3):
        if not m.valid:
            continue
        loaded = model_from_dict(json.loads(json.dumps(model_to_dict(m), indent=1)))
        assert (eval_model_matrix(loaded, sweep, cfg.B).tobytes()
                == eval_model_matrix(m, sweep, cfg.B).tobytes())


def _fresh_complexity(tree, wb, wvc):
    """wb + payload-leaf count + wvc * sum|e| per variable combo, added in preorder."""
    count, cost = 0, 0.0
    for node, _ in walk(tree):
        if isinstance(node, VCLeaf):
            cost += wvc * sum(abs(e) for e in node.exponents)
        count += isinstance(node, (VCLeaf, WeightLeaf, OpLeaf))
    return wb + count + cost


def _fresh_fit(bases, cfg):
    """fit_model's arithmetic on freshly evaluated columns of rebuilt trees."""
    rebuilt = [tree_from_dict(tree_to_dict(t)) for t in bases]
    columns = [eval_basis_matrix(t, X, cfg.B) for t in rebuilt]
    Phi = np.column_stack([np.ones(X.shape[0])] + columns)
    coeffs = fit_weights(Phi, Y)
    cpx = float(sum(_fresh_complexity(t, cfg.wb, cfg.wvc) for t in rebuilt))
    return coeffs, nmse(Phi @ coeffs, Y, REFERENCE), cpx


def _finite_on_X(g, cfg, rng):
    """A random basis whose column on X is finite, grown afresh until it is."""
    while True:
        tree = random_tree(g, cfg.max_depth, rng, N_VARS, B=cfg.B)
        if np.isfinite(eval_basis_matrix(tree, X, cfg.B)).all():
            return tree


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_stored_columns_fit_like_fresh_evaluation(seed):
    g = load_default_grammar()
    cfg = _cfg()
    rng = Draws(seed)
    bases = [_finite_on_X(g, cfg, rng) for _ in range(4)]
    first = fit_model(bases, X, Y, REFERENCE, cfg)
    assert first.valid
    again = fit_model(bases, X, Y, REFERENCE, cfg)      # every column read back
    coeffs, error, cpx = _fresh_fit(bases, cfg)
    for m in (first, again):
        assert m.coeffs.tobytes() == coeffs.tobytes()
        assert m.train_error == error
        assert m.complexity == cpx


def _counting_eval(monkeypatch):
    calls = []
    real = expr.eval_basis_matrix

    def counted(tree, X, B):
        calls.append(tree)
        return real(tree, X, B)

    monkeypatch.setattr(expr, "eval_basis_matrix", counted)
    return calls


def test_stored_column_is_read_back_not_reevaluated(monkeypatch):
    g = load_default_grammar()
    cfg = _cfg()
    tree = random_tree(g, cfg.max_depth, Draws(3), N_VARS)
    calls = _counting_eval(monkeypatch)
    col = stored_column(tree, X, cfg.B)[0]
    assert stored_column(tree, X, cfg.B)[0] is col
    assert len(calls) == 1
    with pytest.raises(ValueError):
        col[0] = 0.0                                     # stored columns are read-only


def test_other_X_or_B_never_reuses_a_column(monkeypatch):
    g = load_default_grammar()
    rng = Draws(5)
    # a tree with a weight, so B changes its column
    tree = next(t for t in (random_tree(g, 8, rng, N_VARS) for _ in range(100))
                if '"kind": "w"' in json.dumps(tree_to_dict(t)))
    X2 = X.copy()                                        # equal values, other array
    X3 = X * 1.5
    calls = _counting_eval(monkeypatch)
    for Xk, B in ((X, 10.0), (X2, 10.0), (X3, 10.0), (X, 12.0), (X, 10.0)):
        got = stored_column(tree, Xk, B)[0]
        want = eval_basis_matrix(tree_from_dict(tree_to_dict(tree)), Xk, B)
        assert got.tobytes() == want.tobytes()
    assert len(calls) == 5                              # one miss per (X, B) change


def test_unchanged_vc_crossover_keeps_parent_bases(monkeypatch):
    g = load_default_grammar()
    cfg = _cfg()
    tree = random_tree(g, 1, Draws(7), N_VARS)   # a single VC leaf
    p1 = fit_model([tree], X, Y, REFERENCE, cfg)
    p2 = fit_model([tree_from_dict(tree_to_dict(tree))], X, Y, REFERENCE, cfg)
    rng = Draws(11)
    expect = np.random.default_rng(11)
    offspring = apply_operator("vc_onepoint_crossover", [p1, p2], g, N_VARS, cfg, rng)
    assert offspring[0][0] is p1.bases[0]
    assert offspring[1][0] is p2.bases[0]
    expect.integers(1)                                   # one VC site in each parent
    expect.integers(1)
    expect.integers(1, N_VARS)                           # the cut point
    _assert_same_state(rng, expect)
    calls = _counting_eval(monkeypatch)
    fit_model(offspring[0], X, Y, REFERENCE, cfg)
    assert calls == []                                   # the parent's column is reused


def test_dataset_arrays_are_read_only():
    ds = Dataset(("a", "b", "c"), X, Y, "y")
    with pytest.raises(ValueError):
        ds.X[0, 0] = 1.0
    assert X.flags.writeable                              # the caller's array is untouched


# ---------------------------------------------------------------------------
# one fit per distinct offspring
# ---------------------------------------------------------------------------

class _RecordingArchive(ParetoArchive):
    """Keeps every offspring list nsga2_generation hands to the archive."""

    def __init__(self):
        super().__init__()
        self.offspring = []

    def merge(self, candidates):
        self.offspring.append(list(candidates))
        super().merge(candidates)


def _generations(seed, count, monkeypatch):
    """Run `count` generations; returns the populations, offspring and the
    bases of every model the generations sent to fit_models."""
    g = load_default_grammar()
    cfg = RunConfig(population=20, generations=count, max_bases=5, seed=seed)
    rng = Draws(seed)
    calls = []
    real_fit = evolve.fit_models

    def counted_fit(bases_list, *args):
        calls.extend(bases_list)
        return real_fit(bases_list, *args)

    pops = [init_population(g, N_VARS, X, Y, REFERENCE, cfg, rng)]
    archive = _RecordingArchive()
    monkeypatch.setattr(evolve, "fit_models", counted_fit)
    for _ in range(count):
        pops.append(nsga2_generation(pops[-1], X, Y, REFERENCE, g, cfg, rng, archive))
    monkeypatch.undo()
    return cfg, pops, archive.offspring, calls


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_shared_fits_equal_fresh_fits(seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        cfg, _, offspring, calls = _generations(seed, 3, monkeypatch)
    assert len(calls) <= sum(len(batch) for batch in offspring)
    for child in (m for batch in offspring for m in batch):
        fresh = fit_model([tree_from_dict(tree_to_dict(t)) for t in child.bases],
                          X, Y, REFERENCE, cfg)
        assert child.valid == fresh.valid
        assert child.train_error == fresh.train_error
        assert child.complexity == fresh.complexity
        if fresh.coeffs is None:
            assert child.coeffs is None
        else:
            assert child.coeffs.tobytes() == fresh.coeffs.tobytes()


def test_shared_fits_are_distinct_models_with_read_only_coeffs(monkeypatch):
    _, pops, offspring, calls = _generations(12, 3, monkeypatch)
    shared = 0
    for pop, batch in zip(pops, offspring):
        owners = {tuple(map(id, m.bases)): m for m in pop}
        for m in batch:
            first = owners.setdefault(tuple(map(id, m.bases)), m)
            if first is m:
                continue
            shared += 1
            assert m is not first and m.bases is not first.bases
            assert m.bases == first.bases
            assert m.coeffs is first.coeffs
        for m in pop + batch:
            if m.coeffs is not None:
                with pytest.raises(ValueError):
                    m.coeffs[0] = 0.0
    assert shared > 0
    assert len(calls) == sum(map(len, offspring)) - shared   # one fit per distinct offspring


def _walk_complexity(tree, wb, wvc):
    """basis_complexity as it was when it walked (node, path) pairs."""
    count, cost = 0, 0.0
    for node, _ in walk(tree):
        if isinstance(node, VCLeaf):
            cost += wvc * sum(abs(e) for e in node.exponents)
        if not isinstance(node, NTNode):
            count += 1
    return wb + count + cost


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), wb=st.sampled_from([0.0, 1.0, 2.5]))
def test_complexity_matches_the_walk_fold_bit_for_bit(seed, wb):
    g = load_default_grammar()
    rng = Draws(seed)
    for _ in range(10):
        tree = random_tree(g, 1 + rng.below(8), rng, N_VARS)
        for wvc in (0.1, 1 / 3, 0.25):
            fresh = tree_from_dict(tree_to_dict(tree))
            assert basis_complexity(fresh, wb, wvc).hex() == \
                _walk_complexity(tree, wb, wvc).hex()


def test_non_finite_column_still_invalidates():
    cfg = _cfg()
    Xz = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 1.0, 1.0]])
    yz = np.array([1.0, 2.0, 3.0])
    inverse = NTNode("REPVC", 0, [VCLeaf([-1, 0, 0])])   # 1/x1 is inf at x1 = 0
    square = NTNode("REPVC", 0, [VCLeaf([2, 0, 0])])
    for bases in ([inverse], [square, inverse]):
        for _ in range(2):                               # evaluated, then read back
            m = fit_model(bases, Xz, yz, 3.0, cfg)
            assert not m.valid
            assert m.coeffs is None
            assert m.train_error == float("inf")
    shifted = Xz + 1.0                                   # finite on other rows
    m = fit_model([inverse], shifted, yz, 3.0, cfg)
    assert m.valid and m.coeffs is not None
