"""Tree growth against the growth code it replaced: the same trees, draw for draw.

reference_random_tree and reference_random_vc are random_tree and _random_vc
as they were when every node filtered its symbol's alternatives by minimum
depth and every draw was a numpy Generator call.  random_tree draws from
`Draws(seed)` and the reference from `numpy.random.default_rng(seed)`; the
grammar now keeps a growth table of the alternatives that fit each depth
budget, so any difference in which alternative is picked, or in how many
draws are made, shows here as a different tree or a different generator
state.  Grown nodes are handed the shape of the alternative picked; each
must be the one their children's tokens look up.

A grown tree also keeps the leaf record its growth counted, which prices it
without a walk: its complexity and leaf counts must be those a walk of the
tree gives (reference_complexity), for any (wb, wvc).  Grown trees share one
OpLeaf per operator, and must still save and load as before.
"""

import numpy as np
import pytest

from canonsr.draws import Draws
from canonsr.expr import (_BY_CHILDREN, NTNode, OpLeaf, VCLeaf, WeightLeaf, basis_complexity,
                          leaf_count, tree_from_dict, tree_to_dict, walk)
from canonsr.grammar import default_grammar_text, parse_grammar, random_tree
from test_draws import _assert_same_state

_VC_INIT_EXPONENTS = (-2, -1, 1, 2)


def reference_random_vc(n_vars, rng):
    k = int(rng.integers(1, min(3, n_vars) + 1))
    dims = rng.choice(n_vars, size=k, replace=False)
    exponents = [0] * n_vars
    for dim in dims:
        exponents[int(dim)] = int(_VC_INIT_EXPONENTS[int(rng.integers(4))])
    return VCLeaf(exponents)


def reference_random_tree(g, max_depth, rng, n_vars, B=10.0, start=None):
    symbol = start or g.start
    if max_depth < g.min_depth(symbol):
        raise ValueError("max_depth below the minimum derivation depth")

    def gen(sym, budget):
        alts = g.rules[sym]
        feasible = [i for i, d in enumerate(g.alt_min_depths(sym)) if d <= budget]
        pick = feasible[int(rng.integers(len(feasible)))]
        children = []
        for kind, tok in alts[pick].struct:
            if kind == "nt":
                children.append(gen(tok, budget - 1))
            elif tok == "VC":
                children.append(reference_random_vc(n_vars, rng))
            elif tok == "W":
                children.append(WeightLeaf(float(rng.uniform(-2.0 * B, 2.0 * B))))
            else:
                children.append(OpLeaf(tok))
        return NTNode(sym, pick, children)

    return gen(symbol, max_depth)


def reference_complexity(tree, wb, wvc):
    """basis_complexity as it was when it walked every basis: wb + payload
    leaves + wvc * sum|e| per variable combo, added in preorder."""
    count, cost = 0, 0.0
    for node, _ in walk(tree):
        if type(node) is VCLeaf:
            cost += wvc * sum(abs(e) for e in node.exponents)
        if type(node) is not NTNode:
            count += 1
    return wb + count + cost


def assert_priced_as_walked(tree):
    """The grown tree's recorded price and leaf counts against a walk."""
    nodes = [node for node, _ in walk(tree)]
    for leaf_type in (WeightLeaf, VCLeaf):
        assert leaf_count(tree, leaf_type) == sum(type(n) is leaf_type for n in nodes)
    for wb, wvc in ((10.0, 0.25), (3.0, 0.1), (10.0, 0.25)):   # priced again from the record
        assert basis_complexity(tree, wb, wvc).hex() == reference_complexity(tree, wb, wvc).hex()


def assert_shapes_looked_up(tree):
    """Every node of `tree` holds the shape its children's tokens look up."""
    for node, _ in walk(tree):
        if type(node) is NTNode:
            key = (node.symbol, tuple(child.token for child in node.children))
            assert node.shape is _BY_CHILDREN.get(key)


def _with_4op(text):
    return (text.replace("# REPOP  =>", "REPOP  =>").replace("# 4OP    =>", "4OP    =>"))


GRAMMAR_TEXTS = {
    "packaged": default_grammar_text(),
    "with_4op": _with_4op(default_grammar_text()),
    # REPOP only through 2OP, one level deeper than through 1OP
    "without_1op": default_grammar_text().replace(
        "        | 1OP '(' 'W' '+' REPADD ')'\n", ""),
    "unary_only": ("REPVC => 'VC' | REPVC '*' REPOP | REPOP\n"
                   "REPOP => 1OP '(' 'W' '+' REPADD ')'\n"
                   "REPADD => 'W' '*' REPVC | REPADD '+' REPADD\n"
                   "1OP => 'INV' | 'LOG10' | 'SQ'\n"),
}
TREES = 10_000 // len(GRAMMAR_TEXTS)


@pytest.mark.parametrize("name", sorted(GRAMMAR_TEXTS))
def test_random_tree_grows_the_reference_trees_and_draws(name):
    g = parse_grammar(GRAMMAR_TEXTS[name])
    seed = sorted(GRAMMAR_TEXTS).index(name) + 1000
    rng, reference_rng = Draws(seed), np.random.default_rng(seed)
    cases = np.random.default_rng(seed)
    symbols = sorted(g.rules)
    op_leaves = {}
    for _ in range(TREES):
        start = symbols[int(cases.integers(len(symbols)))]
        # budgets run past the deepest alternative, where every one is
        # feasible; a library caller may pass a float bound
        budget = int(g.min_depth(start)) + int(cases.integers(0, 9))
        if cases.random() < 0.1:
            budget += 0.5
        n_vars = int(cases.integers(1, 8))
        B = float(cases.choice([0.5, 10.0, 300.0]))
        tree = random_tree(g, budget, rng, n_vars, B=B, start=start)
        expected = reference_random_tree(g, budget, reference_rng, n_vars, B=B, start=start)
        saved = tree_to_dict(tree)
        assert saved == tree_to_dict(expected)
        _assert_same_state(rng, reference_rng)
        assert_shapes_looked_up(tree)
        assert_priced_as_walked(tree)
        assert tree_to_dict(tree_from_dict(saved)) == saved
        for node, _ in walk(tree):
            if type(node) is OpLeaf:
                assert op_leaves.setdefault(node.name, node) is node
    assert op_leaves        # every grammar here grows operators
