"""Operator bookkeeping against the code it replaced: the same sites, draw for draw.

reference_leaf_site is how the leaf operators picked a site when they listed
every (basis, path, leaf) of a model through walk and drew one entry.  They
now draw the same index from per-basis leaf counts and walk only the basis
that holds it.  The reference operators are evolve's as they were when
every draw was a numpy Generator call; the model-level ones grow trees with
test_growth_oracle's reference_random_tree.  The operators draw from
`Draws(seed)` and the references from `numpy.random.default_rng(seed)`, so
any difference in the site picked, in the offspring, or in how many draws
are made, shows here as a different site, offspring or generator state.

replace_at hands each rebuilt node its old shape, except where the new child
differs from the old one in kind, symbol or operator; every node of every
offspring must hold the shape its children's tokens look up.
"""

import numpy as np
import pytest

from canonsr.config import RunConfig
from canonsr.draws import Draws
from canonsr.evolve import OPERATORS, _pick_leaf, apply_operator, fit_model
from canonsr.expr import (_BY_CHILDREN, Model, NTNode, OpLeaf, VCLeaf, WeightLeaf,
                          basis_complexity, leaf_count, replace_at, tree_depth,
                          tree_to_dict, walk)
from canonsr.grammar import crossover_sites, default_grammar_text, parse_grammar, random_tree
from test_draws import _assert_same_state
from test_growth_oracle import reference_random_tree

# the 4OP rule, commented out in the packaged grammar, grows bases whose
# operands are all weights: bases without a variable combo
GRAMMARS = {"packaged": parse_grammar(default_grammar_text()),
            "with_4op": parse_grammar(default_grammar_text()
                                      .replace("# REPOP  =>", "REPOP  =>")
                                      .replace("# 4OP    =>", "4OP    =>"))}
CFG = RunConfig(max_bases=15, max_depth=6)
N_VARS = 3


def _state(draws):
    return draws._gen.bit_generator.state, draws._spare


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


@pytest.mark.parametrize("grammar", sorted(GRAMMARS))
def test_leaf_picks_match_the_listed_sites_and_draws(grammar):
    g = GRAMMARS[grammar]
    cases = Draws(sorted(GRAMMARS).index(grammar) + 300)
    rng, reference_rng = Draws(31), np.random.default_rng(31)
    for _ in range(300):
        bases = _bases(g, cases.below(16), cases)
        if cases.random() < 0.5:
            _fitted(bases)          # counts kept with the complexity, as in a run
        for leaf_type in (WeightLeaf, VCLeaf):
            expected = reference_leaf_site(bases, leaf_type, reference_rng)
            site = _pick(bases, leaf_type, rng)
            if expected is None:
                assert site is None
            else:
                assert site[:2] == expected[:2] and site[2] is expected[2]
            _assert_same_state(rng, reference_rng)


def test_leaf_counts_and_complexity_share_one_memo():
    g = GRAMMARS["with_4op"]
    rng = Draws(5)
    for tree in _bases(g, 200, rng):
        nodes = [node for node, _ in walk(tree)]
        fresh = NTNode(tree.symbol, tree.alt, tree.children)
        cpx = basis_complexity(fresh, 10.0, 0.3)
        expected = [sum(type(n) is t for n in nodes) for t in (WeightLeaf, VCLeaf)]
        assert [leaf_count(tree, t) for t in (WeightLeaf, VCLeaf)] == expected   # counted alone
        assert [leaf_count(fresh, t) for t in (WeightLeaf, VCLeaf)] == expected  # with the complexity
        assert basis_complexity(tree, 10.0, 0.3) == cpx      # recomputed over the counts-only memo
        assert [leaf_count(tree, t) for t in (WeightLeaf, VCLeaf)] == expected


def reference_repair_all_zero_vc(exponents, rng):
    if any(exponents):
        return exponents
    out = list(exponents)
    dim = int(rng.integers(len(out)))
    out[dim] = 1 if rng.integers(2) == 0 else -1
    return out


def reference_weight_cauchy_mutate(w, B, rng):
    step = rng.standard_cauchy()
    return WeightLeaf(float(np.clip(w.stored + step, -2.0 * B, 2.0 * B)))


def reference_vc_onepoint_crossover(a, b, rng):
    d = len(a.exponents)
    if d == 1:
        return a, b
    k = int(rng.integers(1, d))
    ea = a.exponents[:k] + b.exponents[k:]
    eb = b.exponents[:k] + a.exponents[k:]
    return (VCLeaf(reference_repair_all_zero_vc(ea, rng)),
            VCLeaf(reference_repair_all_zero_vc(eb, rng)))


def reference_vc_exponent_mutate(vc, rng, exp_cap):
    exps = list(vc.exponents)
    dim = int(rng.integers(len(exps)))
    step = 1 if rng.integers(2) == 0 else -1
    exps[dim] = int(np.clip(exps[dim] + step, -exp_cap, exp_cap))
    return VCLeaf(reference_repair_all_zero_vc(exps, rng))


def _reference_weight_mutate(p, cfg, rng):
    site = reference_leaf_site(p.bases, WeightLeaf, rng)
    if site is None:
        return None
    out = list(p.bases)
    out[site[0]] = replace_at(out[site[0]], site[1],
                              reference_weight_cauchy_mutate(site[2], cfg.B, rng))
    return [out]


def _reference_exponent_mutate(p, cfg, rng):
    site = reference_leaf_site(p.bases, VCLeaf, rng)
    if site is None:
        return None
    out = list(p.bases)
    out[site[0]] = replace_at(out[site[0]], site[1],
                              reference_vc_exponent_mutate(site[2], rng, cfg.exp_cap))
    return [out]


def _reference_vc_crossover(p1, p2, cfg, rng):
    s1 = [(i, path, n) for i, t in enumerate(p1.bases) for n, path in walk(t) if type(n) is VCLeaf]
    s2 = [(i, path, n) for i, t in enumerate(p2.bases) for n, path in walk(t) if type(n) is VCLeaf]
    if not s1 or not s2:
        return None
    site1 = s1[int(rng.integers(len(s1)))]
    site2 = s2[int(rng.integers(len(s2)))]
    c1, c2 = reference_vc_onepoint_crossover(site1[2], site2[2], rng)
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


@pytest.mark.parametrize("name", sorted(REFERENCE_OPS))
def test_leaf_operators_give_the_reference_offspring(name):
    g = GRAMMARS["with_4op"]
    cases = Draws(sorted(REFERENCE_OPS).index(name) + 400)
    rng, reference_rng = Draws(41), np.random.default_rng(41)
    for _ in range(150):
        parents = [Model(bases=_bases(g, cases.below(16), cases))
                   for _ in OPERATORS[name][1]]
        result = apply_operator(name, parents, g, N_VARS, CFG, rng)
        assert _dicts(result) == _dicts(REFERENCE_OPS[name](*parents, CFG, reference_rng))
        _assert_same_state(rng, reference_rng)


def test_vc_crossover_checks_both_parents_before_drawing():
    g = GRAMMARS["packaged"]
    with_vcs = Model(bases=_bases(g, 3, Draws(7)))
    weights_only = NTNode("REPVC", 2, [NTNode("REPOP", 3, [
        NTNode("4OP", 0, [OpLeaf("lte0")]),
        *(NTNode("MAYBEW", 0, [WeightLeaf(float(k))]) for k in range(4))])])
    assert (leaf_count(weights_only, WeightLeaf), leaf_count(weights_only, VCLeaf)) == (4, 0)
    for parents in ((with_vcs, Model(bases=[weights_only])), (with_vcs, Model()),
                    (Model(bases=[weights_only]), with_vcs)):
        rng = Draws(8)
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


@pytest.mark.parametrize("name", sorted(REQUIREMENTS))
def test_operators_return_none_before_drawing_exactly_when_a_requirement_fails(name):
    g = GRAMMARS["with_4op"]
    trees = _bases(g, 300, Draws(71))
    # any basis, bases without a weight leaf, bases without a variable combo
    pools = [trees] + [[t for t in trees if not _holds(leaf_type)(Model(bases=[t]))]
                       for leaf_type in (WeightLeaf, VCLeaf)]
    assert all(pools)
    assert len(OPERATORS[name][1]) == len(REQUIREMENTS[name])
    cases = np.random.default_rng(sorted(REQUIREMENTS).index(name) + 700)
    rng = Draws(72)
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


def _reference_nonempty_subset(items, rng):
    while True:
        mask = rng.integers(0, 2, size=len(items))
        if mask.any():
            return [items[i] for i in range(len(items)) if mask[i]]


def _reference_basis_add(parents, g, cfg, rng):
    return [list(parents[0].bases)
            + [reference_random_tree(g, cfg.max_depth, rng, N_VARS, B=cfg.B)]]


def _reference_basis_set_crossover(parents, g, cfg, rng):
    if not (parents[0].bases and parents[1].bases):
        return _reference_basis_add(parents[:1], g, cfg, rng)
    chosen = [tree for p in parents for tree in _reference_nonempty_subset(p.bases, rng)]
    if len(chosen) > cfg.max_bases:
        keep = sorted(rng.choice(len(chosen), size=cfg.max_bases, replace=False))
        chosen = [chosen[int(i)] for i in keep]
    return [chosen]


def _reference_basis_delete(parents, g, cfg, rng):
    bases = list(parents[0].bases)
    bases.pop(int(rng.integers(len(bases))))
    return [bases]


def _reference_basis_copy_in(parents, g, cfg, rng):
    p, donor = parents
    sites = [site for tree in donor.bases for site in crossover_sites(tree, "REPVC")]
    return [list(p.bases) + [sites[int(rng.integers(len(sites)))]]]


def _reference_nt_sites(tree):
    return [(node, path) for node, path in walk(tree) if type(node) is NTNode]


def _reference_subtree_crossover(parents, g, cfg, rng):
    p1, p2 = parents
    i1 = int(rng.integers(len(p1.bases)))
    i2 = int(rng.integers(len(p2.bases)))
    t1, t2 = p1.bases[i1], p2.bases[i2]
    sites1, sites2 = _reference_nt_sites(t1), _reference_nt_sites(t2)
    shared = sorted({n.symbol for n, _ in sites1} & {n.symbol for n, _ in sites2})
    b1, b2 = list(p1.bases), list(p2.bases)
    if not shared:
        return [b1, b2]
    symbol = shared[int(rng.integers(len(shared)))]
    s1 = [s for s in sites1 if s[0].symbol == symbol]
    s2 = [s for s in sites2 if s[0].symbol == symbol]
    for _ in range(10):
        n1, path1 = s1[int(rng.integers(len(s1)))]
        n2, path2 = s2[int(rng.integers(len(s2)))]
        if (len(path1) + tree_depth(n2) > cfg.max_depth
                or len(path2) + tree_depth(n1) > cfg.max_depth):
            continue
        b1[i1] = replace_at(t1, path1, n2)
        b2[i2] = replace_at(t2, path2, n1)
        return [b1, b2]
    return [b1, b2]


def _reference_subtree_mutate(parents, g, cfg, rng):
    p = parents[0]
    i = int(rng.integers(len(p.bases)))
    sites = _reference_nt_sites(p.bases[i])
    node, path = sites[int(rng.integers(len(sites)))]
    fresh = reference_random_tree(g, cfg.max_depth - len(path), rng, N_VARS, B=cfg.B,
                                  start=node.symbol)
    out = list(p.bases)
    out[i] = replace_at(out[i], path, fresh)
    return [out]


MODEL_REFERENCE_OPS = {"basis_add": _reference_basis_add,
                       "basis_copy_in": _reference_basis_copy_in,
                       "basis_delete": _reference_basis_delete,
                       "basis_set_crossover": _reference_basis_set_crossover,
                       "subtree_crossover": _reference_subtree_crossover,
                       "subtree_mutate": _reference_subtree_mutate}


@pytest.mark.parametrize("name", sorted(MODEL_REFERENCE_OPS))
@pytest.mark.parametrize("grammar", sorted(GRAMMARS))
def test_model_operators_give_the_reference_offspring(grammar, name):
    g = GRAMMARS[grammar]
    pools = [_bases(g, 300, Draws(sorted(GRAMMARS).index(grammar) + 81))]
    cases = np.random.default_rng(sorted(MODEL_REFERENCE_OPS).index(name) + 800)
    rng, reference_rng = Draws(81), np.random.default_rng(81)
    outcomes = set()
    for _ in range(150):
        parents = [_random_parent(pools, cases) for _ in REQUIREMENTS[name]]
        result = apply_operator(name, parents, g, N_VARS, CFG, rng)
        expected = (None if _fails(name, parents)
                    else MODEL_REFERENCE_OPS[name](parents, g, CFG, reference_rng))
        assert _dicts(result) == _dicts(expected)
        _assert_same_state(rng, reference_rng)
        outcomes.add(result is None)
    assert False in outcomes


@pytest.mark.parametrize("grammar", sorted(GRAMMARS))
def test_every_rebuilt_node_holds_the_shape_its_children_look_up(grammar):
    g = GRAMMARS[grammar]
    cases = Draws(sorted(GRAMMARS).index(grammar) + 500)
    rng = Draws(51)
    for name, (_, requirements) in sorted(OPERATORS.items()):
        for _ in range(60):
            parents = [Model(bases=_bases(g, cases.below(6), cases))
                       for _ in requirements]
            for bases in apply_operator(name, parents, g, N_VARS, CFG, rng) or []:
                for tree in bases:
                    assert_shapes_looked_up(tree)


def test_replace_at_looks_up_shapes_around_an_off_form_child():
    g = GRAMMARS["packaged"]
    rng = Draws(61)
    off_form = 0
    for tree in _bases(g, 200, rng):
        sites = [(node, path) for node, path in walk(tree) if path]
        node, path = sites[rng.below(len(sites))]
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
