"""Operator bookkeeping against the code it replaced: the same sites, draw for draw.

reference_leaf_site is how the leaf operators picked a site when they listed
every (basis, path, leaf) of a model through walk and drew one entry.  They
now draw the same index from per-basis leaf counts and walk only the basis
that holds it, so any difference in the site picked, or in how many draws
are made, shows here as a different site or a different generator state.

replace_at hands each rebuilt node its old shape, except where the new child
differs from the old one in kind, symbol or operator; every node of every
offspring must hold the shape its children's tokens look up.
"""

import numpy as np
import pytest

from canonsr.config import RunConfig
from canonsr.draws import Draws
from canonsr.evolve import (OPERATORS, _pick_leaf, apply_operator, fit_model,
                            vc_exponent_mutate, vc_onepoint_crossover,
                            weight_cauchy_mutate)
from canonsr.expr import (_BY_CHILDREN, Model, NTNode, OpLeaf, VCLeaf, WeightLeaf,
                          basis_complexity, leaf_count, replace_at, tree_to_dict, walk)
from canonsr.grammar import default_grammar_text, parse_grammar, random_tree

# the 4OP rule, commented out in the packaged grammar, grows bases whose
# operands are all weights: bases without a variable combo
GRAMMARS = {"packaged": parse_grammar(default_grammar_text()),
            "with_4op": parse_grammar(default_grammar_text()
                                      .replace("# REPOP  =>", "REPOP  =>")
                                      .replace("# 4OP    =>", "4OP    =>"))}
CFG = RunConfig(max_bases=15, max_depth=6)
N_VARS = 3


def _state(rng):
    if isinstance(rng, Draws):
        return rng._gen.bit_generator.state, rng._spare
    return rng.bit_generator.state


def assert_shapes_looked_up(tree):
    for node, _ in walk(tree):
        if type(node) is NTNode:
            key = (node.symbol, tuple(child.token for child in node.children))
            assert node.shape is _BY_CHILDREN.get(key)


def reference_leaf_site(bases, leaf_type, rng):
    sites = [(i, path, node) for i, tree in enumerate(bases)
             for node, path in walk(tree) if type(node) is leaf_type]
    if not sites:
        return None
    return sites[int(rng.integers(len(sites)))]


def _pick(bases, leaf_type, rng):
    counts = [leaf_count(tree, leaf_type) for tree in bases]
    return _pick_leaf(bases, counts, leaf_type, rng) if any(counts) else None


def _bases(g, count, rng):
    return [random_tree(g, CFG.max_depth, rng, N_VARS, B=CFG.B) for _ in range(count)]


def _fitted(bases):
    X = np.random.default_rng(0).uniform(0.5, 1.5, size=(12, N_VARS))
    return fit_model(bases, X, X[:, 0] + 1.0, 2.5, CFG)


@pytest.mark.parametrize("make_rng", [Draws, np.random.default_rng],
                         ids=["Draws", "default_rng"])
@pytest.mark.parametrize("grammar", sorted(GRAMMARS))
def test_leaf_picks_match_the_listed_sites_and_draws(grammar, make_rng):
    g = GRAMMARS[grammar]
    cases = np.random.default_rng(sorted(GRAMMARS).index(grammar) + 300)
    rng, reference_rng = make_rng(31), make_rng(31)
    for _ in range(300):
        bases = _bases(g, int(cases.integers(0, 16)), cases)
        if cases.random() < 0.5:
            _fitted(bases)          # counts kept with the complexity, as in a run
        for leaf_type in (WeightLeaf, VCLeaf):
            expected = reference_leaf_site(bases, leaf_type, reference_rng)
            site = _pick(bases, leaf_type, rng)
            if expected is None:
                assert site is None
            else:
                assert site[:2] == expected[:2] and site[2] is expected[2]
            assert _state(rng) == _state(reference_rng)


def test_leaf_counts_and_complexity_share_one_memo():
    g = GRAMMARS["with_4op"]
    rng = np.random.default_rng(5)
    for tree in _bases(g, 200, rng):
        nodes = [node for node, _ in walk(tree)]
        fresh = NTNode(tree.symbol, tree.alt, tree.children)
        cpx = basis_complexity(fresh, 10.0, 0.3)
        expected = [sum(type(n) is t for n in nodes) for t in (WeightLeaf, VCLeaf)]
        assert [leaf_count(tree, t) for t in (WeightLeaf, VCLeaf)] == expected   # counted alone
        assert [leaf_count(fresh, t) for t in (WeightLeaf, VCLeaf)] == expected  # with the complexity
        assert basis_complexity(tree, 10.0, 0.3) == cpx      # recomputed over the counts-only memo
        assert [leaf_count(tree, t) for t in (WeightLeaf, VCLeaf)] == expected


def _reference_weight_mutate(p, cfg, rng):
    site = reference_leaf_site(p.bases, WeightLeaf, rng)
    if site is None:
        return None
    out = list(p.bases)
    out[site[0]] = replace_at(out[site[0]], site[1], weight_cauchy_mutate(site[2], cfg.B, rng))
    return [out]


def _reference_exponent_mutate(p, cfg, rng):
    site = reference_leaf_site(p.bases, VCLeaf, rng)
    if site is None:
        return None
    out = list(p.bases)
    out[site[0]] = replace_at(out[site[0]], site[1], vc_exponent_mutate(site[2], rng, cfg.exp_cap))
    return [out]


def _reference_vc_crossover(p1, p2, cfg, rng):
    s1 = [(i, path, n) for i, t in enumerate(p1.bases) for n, path in walk(t) if type(n) is VCLeaf]
    s2 = [(i, path, n) for i, t in enumerate(p2.bases) for n, path in walk(t) if type(n) is VCLeaf]
    if not s1 or not s2:
        return None
    site1 = s1[int(rng.integers(len(s1)))]
    site2 = s2[int(rng.integers(len(s2)))]
    c1, c2 = vc_onepoint_crossover(site1[2], site2[2], rng)
    out = []
    for p, (i, path, leaf), c in ((p1, site1, c1), (p2, site2, c2)):
        bases = list(p.bases)
        if c.exponents != leaf.exponents:
            bases[i] = replace_at(bases[i], path, c)
        out.append(bases)
    return out


REFERENCE_OPS = {"weight_cauchy_mutate": _reference_weight_mutate,
                 "vc_exponent_mutate": _reference_exponent_mutate,
                 "vc_onepoint_crossover": _reference_vc_crossover}


def _dicts(result):
    return None if result is None else [[tree_to_dict(t) for t in b] for b in result]


@pytest.mark.parametrize("make_rng", [Draws, np.random.default_rng],
                         ids=["Draws", "default_rng"])
@pytest.mark.parametrize("name", sorted(REFERENCE_OPS))
def test_leaf_operators_give_the_reference_offspring(name, make_rng):
    g = GRAMMARS["with_4op"]
    cases = np.random.default_rng(sorted(REFERENCE_OPS).index(name) + 400)
    rng, reference_rng = make_rng(41), make_rng(41)
    for _ in range(150):
        parents = [Model(bases=_bases(g, int(cases.integers(0, 16)), cases))
                   for _ in OPERATORS[name][1]]
        result = apply_operator(name, parents, g, N_VARS, CFG, rng)
        assert _dicts(result) == _dicts(REFERENCE_OPS[name](*parents, CFG, reference_rng))
        assert _state(rng) == _state(reference_rng)


def test_vc_crossover_checks_both_parents_before_drawing():
    g = GRAMMARS["packaged"]
    with_vcs = Model(bases=_bases(g, 3, np.random.default_rng(7)))
    weights_only = NTNode("REPVC", 2, [NTNode("REPOP", 3, [
        NTNode("4OP", 0, [OpLeaf("lte0")]),
        *(NTNode("MAYBEW", 0, [WeightLeaf(float(k))]) for k in range(4))])])
    assert (leaf_count(weights_only, WeightLeaf), leaf_count(weights_only, VCLeaf)) == (4, 0)
    for parents in ((with_vcs, Model(bases=[weights_only])), (with_vcs, Model()),
                    (Model(bases=[weights_only]), with_vcs)):
        for make_rng in (Draws, np.random.default_rng):
            rng = make_rng(8)
            before = _state(rng)
            assert apply_operator("vc_onepoint_crossover", parents, g, N_VARS, CFG, rng) is None
            assert _state(rng) == before


def _has_bases(m):
    return bool(m.bases)


def _has_room(m):
    return len(m.bases) < CFG.max_bases


def _holds(leaf_type):
    return lambda m: any(type(n) is leaf_type for tree in m.bases for n, _ in walk(tree))


# what each operator needs of each parent, stated apart from evolve.OPERATORS
REQUIREMENTS = {
    "basis_set_crossover": (None, None),
    "basis_delete": (_has_bases,),
    "basis_add": (_has_room,),
    "basis_copy_in": (_has_room, _has_bases),
    "subtree_crossover": (_has_bases, _has_bases),
    "subtree_mutate": (_has_bases,),
    "weight_cauchy_mutate": (_holds(WeightLeaf),),
    "vc_onepoint_crossover": (_holds(VCLeaf), _holds(VCLeaf)),
    "vc_exponent_mutate": (_holds(VCLeaf),),
}


def _fails(name, parents):
    if name == "basis_set_crossover":
        # with a parent that has no bases it grows the first parent instead
        return not all(p.bases for p in parents) and not _has_room(parents[0])
    return any(need is not None and not need(p) for need, p in zip(REQUIREMENTS[name], parents))


def _random_parent(pools, cases):
    """A constant model, a model at max_bases or one of random size, its
    bases drawn from one of `pools`."""
    pool = pools[int(cases.integers(len(pools)))]
    count = (0, 1, CFG.max_bases, int(cases.integers(CFG.max_bases + 1)))[int(cases.integers(4))]
    return Model(bases=[pool[int(cases.integers(len(pool)))] for _ in range(count)])


@pytest.mark.parametrize("make_rng", [Draws, np.random.default_rng],
                         ids=["Draws", "default_rng"])
@pytest.mark.parametrize("name", sorted(REQUIREMENTS))
def test_operators_return_none_before_drawing_exactly_when_a_requirement_fails(name, make_rng):
    g = GRAMMARS["with_4op"]
    trees = _bases(g, 300, np.random.default_rng(71))
    # any basis, bases without a weight leaf, bases without a variable combo
    pools = [trees] + [[t for t in trees if not _holds(leaf_type)(Model(bases=[t]))]
                       for leaf_type in (WeightLeaf, VCLeaf)]
    assert all(pools)
    assert len(OPERATORS[name][1]) == len(REQUIREMENTS[name])
    cases = np.random.default_rng(sorted(REQUIREMENTS).index(name) + 700)
    rng = make_rng(72)
    outcomes = set()
    for _ in range(200):
        parents = [_random_parent(pools, cases) for _ in REQUIREMENTS[name]]
        before = _state(rng)
        result = apply_operator(name, parents, g, N_VARS, CFG, rng)
        assert (result is None) == _fails(name, parents)
        if result is None:
            assert _state(rng) == before
        outcomes.add(result is None)
    assert outcomes == {False, True}


@pytest.mark.parametrize("grammar", sorted(GRAMMARS))
def test_every_rebuilt_node_holds_the_shape_its_children_look_up(grammar):
    g = GRAMMARS[grammar]
    cases = np.random.default_rng(sorted(GRAMMARS).index(grammar) + 500)
    rng = np.random.default_rng(51)
    for name, (_, requirements) in sorted(OPERATORS.items()):
        for _ in range(60):
            parents = [Model(bases=_bases(g, int(cases.integers(0, 6)), cases))
                       for _ in requirements]
            for bases in apply_operator(name, parents, g, N_VARS, CFG, rng) or []:
                for tree in bases:
                    assert_shapes_looked_up(tree)


def test_replace_at_looks_up_shapes_around_an_off_form_child():
    g = GRAMMARS["packaged"]
    rng = np.random.default_rng(61)
    off_form = 0
    for tree in _bases(g, 200, rng):
        sites = [(node, path) for node, path in walk(tree) if path]
        node, path = sites[int(rng.integers(len(sites)))]
        # a leaf of another kind mostly puts the parent outside the form
        other = WeightLeaf(1.0) if type(node) is VCLeaf else VCLeaf([1, 0, 0])
        broken = replace_at(tree, path, other)
        assert_shapes_looked_up(broken)
        parent = broken
        for i in path[:-1]:
            parent = parent.children[i]
        off_form += parent.shape is None
        # an edit below a sibling rebuilds the parent from its own shape
        siblings = [j for j, c in enumerate(parent.children)
                    if type(c) is NTNode and j != path[-1]]
        if siblings:
            below = path[:-1] + (siblings[0], 0)
            assert_shapes_looked_up(
                replace_at(broken, below, parent.children[siblings[0]].children[0]))
        # putting the old node back restores the tree
        mended = replace_at(broken, path, node)
        assert_shapes_looked_up(mended)
        assert tree_to_dict(mended) == tree_to_dict(tree)
    assert off_form > 100
