"""Grammar parsing, random generation, validation and crossover-site tests."""

import numpy as np
import pytest

from canonsr.config import _MAX_DEPTH
from canonsr.draws import Draws
from canonsr.expr import (GRAMMAR_OP_TOKENS, SHAPES, Model, NTNode, OpLeaf,
                          VCLeaf, WeightLeaf, eval_basis_matrix, replace_at, to_canonical_text,
                          token_text, tree_depth, tree_from_dict, tree_to_dict, walk)
from canonsr.grammar import (GrammarError, check_basis, crossover_sites,
                             default_grammar_text, load_default_grammar,
                             parse_grammar, random_tree, validate)

N_VARS = 4


def _op_names_used(tree):
    return {node.name for node, _ in walk(tree) if isinstance(node, OpLeaf)}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_default_grammar_shape():
    g = load_default_grammar()
    assert set(g.rules) == {"REPVC", "REPOP", "2ARGS", "MAYBEW",
                            "REPADD", "1OP", "2OP"}
    assert g.start == "REPVC"
    assert len(g.rules["REPVC"]) == 3
    assert len(g.rules["1OP"]) == 13
    assert len(g.rules["2OP"]) == 6


def test_undefined_nonterminal_error_names_it():
    with pytest.raises(GrammarError, match="'B'"):
        parse_grammar("A => 'x' | B\n")
    with pytest.raises(GrammarError, match="^line 3: undefined nonterminal 'B'"):
        parse_grammar("REPVC => 'VC'\n\nREPVC => B\n")


def test_unterminated_quote():
    with pytest.raises(GrammarError, match="unterminated quote"):
        parse_grammar("REPVC => 'VC\n")


def test_empty_file():
    with pytest.raises(GrammarError, match="empty"):
        parse_grammar("# only a comment\n\n")


def test_non_terminating_rule_set():
    with pytest.raises(GrammarError, match="REPVC"):
        parse_grammar("REPVC => REPVC '*' REPVC\n")


def test_missing_start_symbol():
    with pytest.raises(GrammarError, match="start"):
        parse_grammar("FOO => 'VC'\n")


def test_wrapped_alternative_joins_mid_alternative():
    # an alternative may wrap onto the next line without any marker
    text = ("REPVC => 'VC' | REPVC '*' REPOP | REPOP\n"
            "REPOP => 1OP '(' 'W' '+'\n"
            "REPADD ')'\n"
            "REPADD => 'W' '*' REPVC | REPADD '+' REPADD\n"
            "1OP => 'INV' | 'LOG10'\n")
    g = parse_grammar(text)
    assert len(g.rules["REPOP"]) == 1
    struct = g.rules["REPOP"][0].struct
    assert [s for s in struct] == [("nt", "1OP"), ("t", "W"), ("nt", "REPADD")]


def _with_4op(text):
    return text.replace(
        "# REPOP  => 4OP '(' MAYBEW ',' MAYBEW ',' MAYBEW ',' MAYBEW ')'",
        "REPOP  => 4OP '(' MAYBEW ',' MAYBEW ',' MAYBEW ',' MAYBEW ')'").replace(
        "# 4OP    => 'LTE' | 'LTE0'", "4OP    => 'LTE' | 'LTE0'")


def test_restated_lhs_appends_alternatives():
    g = parse_grammar(_with_4op(default_grammar_text()))
    assert "4OP" in g.rules
    assert len(g.rules["REPOP"]) == 4
    # generation through the extended rule stays sound
    rng = Draws(99)
    seen_4op = False
    for _ in range(2000):
        tree = random_tree(g, 8, rng, n_vars=N_VARS)
        assert validate(tree, g, max_depth=8, n_vars=N_VARS) == []
        seen_4op = seen_4op or bool(_op_names_used(tree) & {"lte4", "lte0"})
    assert seen_4op


def test_operator_arity_mismatch_rejected():
    text = ("REPVC => 'VC' | REPOP\n"
            "REPOP => 1OP '(' 'W' '+' REPADD ')'\n"
            "REPADD => 'W' '*' REPVC\n"
            "1OP => 'DIVIDE'\n")
    with pytest.raises(GrammarError, match="arity"):
        parse_grammar(text)


def test_unknown_operator_terminal_rejected():
    text = ("REPVC => 'VC' | REPOP\n"
            "REPOP => 1OP '(' 'W' '+' REPADD ')'\n"
            "REPADD => 'W' '*' REPVC\n"
            "1OP => 'FROB'\n")
    with pytest.raises(GrammarError, match="FROB"):
        parse_grammar(text)


def test_commenting_out_operators_removes_them_from_derivations():
    text = default_grammar_text().replace("'SIN' | 'COS' | ", "")
    g = parse_grammar(text)
    rng = Draws(0)
    for _ in range(10000):
        tree = random_tree(g, 8, rng, n_vars=N_VARS)
        used = _op_names_used(tree)
        assert "sin" not in used and "cos" not in used


def test_alternative_min_depths_follow_enable_flags():
    # the enable flags are the text: an alternative is enabled by being in it
    g = load_default_grammar()
    assert g.alt_min_depths("REPVC") == (1.0, 4.0, 4.0)
    assert g.alt_min_depths("REPOP") == (4.0, 3.0, 4.0)
    # without 1OP, REPOP needs 2OP, one level deeper
    g = parse_grammar(default_grammar_text().replace(
        "        | 1OP '(' 'W' '+' REPADD ')'\n", ""))
    assert g.alt_min_depths("REPOP") == (5.0, 4.0)
    assert g.alt_min_depths("REPVC") == (1.0, 5.0, 5.0)


def test_shape_table_matches_the_packaged_file():
    g = parse_grammar(_with_4op(default_grammar_text()))
    shapes = {}
    for shape in SHAPES.values():
        shapes.setdefault(shape.symbol, set()).add(shape.struct)
    assert set(g.rules) == set(shapes)
    assert {"1OP", "2OP", "4OP"} <= set(shapes)
    for lhs in set(shapes) - {"1OP", "2OP", "4OP"}:
        structs = [alt.struct for alt in g.rules[lhs]]
        assert len(set(structs)) == len(structs)
        assert set(structs) == shapes[lhs]


_SPELLING = {name: token for token, name in GRAMMAR_OP_TOKENS.items()}


def _alternative_text(signature):
    """A table signature as grammar text, operators in a grammar spelling."""
    return token_text((kind, _SPELLING[tok]) if kind == "op" else (kind, tok)
                      for kind, tok in signature)


def _table_text(*extra):
    """Grammar text with one rule line per table entry, plus `extra` lines."""
    lines = [f"{shape.symbol} => {_alternative_text(shape.signature)}"
             for shape in SHAPES.values()]
    return "\n".join(lines + list(extra)) + "\n"


def test_every_table_entry_parses_checks_evaluates_and_renders():
    g = parse_grammar(_table_text())
    assert {id(alt) for alts in g.rules.values() for alt in alts} == set(map(id, SHAPES.values()))
    rng = Draws(21)
    X = np.array([[0.5 + rng.random() for _ in range(3)] for _ in range(5)])
    uses = {}                                   # shape -> (a tree using it, path to the node)
    for _ in range(2000):
        tree = random_tree(g, 8, rng, n_vars=3)
        for node, path in walk(tree):
            if isinstance(node, NTNode):
                uses.setdefault(node.shape, (tree, path))
        if len(uses) == len(SHAPES):
            break
    assert len(uses) == len(SHAPES)
    for shape, (tree, path) in uses.items():
        check_basis(tree, 3, 10.0)
        assert validate(tree, g, max_depth=8, n_vars=3) == []
        assert eval_basis_matrix(tree, X, 10.0).shape == (5,)
        assert to_canonical_text(Model(bases=[tree], coeffs=np.ones(2)), ("a", "b", "c"))

        # outside the table: the first child swapped for a leaf of the other kind
        leaf = VCLeaf([1, 0, 0]) if shape.struct[0] == ("t", "W") else WeightLeaf(1.0)
        outside = (leaf.token,) + shape.signature[1:]
        assert (shape.symbol, outside) not in SHAPES
        with pytest.raises(GrammarError):
            parse_grammar(_table_text(f"{shape.symbol} => {token_text(outside)}"))
        tree = replace_at(tree, path + (0,), leaf)
        with pytest.raises(ValueError):
            check_basis(tree, 3, 10.0)
        assert validate(tree, g, max_depth=8, n_vars=3) != []

        # a tree holds no arithmetic terminals: a '*' <-> '+' swap exists in text only
        swap = {("t", "*"): ("t", "+"), ("t", "+"): ("t", "*")}
        swapped = tuple(swap.get(t, t) for t in shape.signature)
        if swapped != shape.signature:
            assert (shape.symbol, swapped) not in SHAPES
            with pytest.raises(GrammarError, match="is not a canonical-form alternative$"):
                parse_grammar(_table_text(f"{shape.symbol} => {token_text(swapped)}"))


def test_canonical_rules_without_a_terminating_derivation_are_refused():
    with pytest.raises(GrammarError, match="no terminating derivation .*: REPOP, REPVC$"):
        parse_grammar("REPVC => REPOP\nREPOP => REPOP '*' REPOP\n")


@pytest.mark.parametrize("text, message", [
    ("REPVC => 'VC' | 'FOO'\n", "line 1: REPVC => 'FOO'"),
    ("REPVC => 'VC' | REPOP\nREPOP => 1OP '(' REPVC ')'\n1OP => 'SIN'\n",
     "line 2: REPOP => 1OP '\\(' REPVC '\\)'"),
    ("REPVC => 'VC' | FOO\nFOO => 'VC'\n", "line 1: REPVC => FOO"),
    ("REPVC => 'VC' | 'W'\n", "line 1: REPVC => 'W'"),
    ("REPVC => 'VC' | REPVC '*' REPVC\n", "line 1: REPVC => REPVC '\\*' REPVC"),
    ("REPVC => 'VC'\nSTART => 'VC'\n", "line 2: START => 'VC'"),
    ("REPVC => 'VC' | REPOP\nREPOP => 1OP '(' 'W' '+' REPADD ')'\n"
     "REPADD => 'W' '*' REPVC\n1OP => 'SIN' | REPVC\n", "line 4: 1OP => REPVC"),
])
def test_non_canonical_alternative_is_refused_with_its_line(text, message):
    with pytest.raises(GrammarError, match=f"^{message} is not a canonical-form alternative$"):
        parse_grammar(text)


@pytest.mark.parametrize("old, new, message", [
    ("REPVC '*' REPOP", "REPVC '+' REPOP", "line 9: REPVC => REPVC '\\+' REPOP"),
    ("REPOP  => REPOP '*' REPOP", "REPOP  => REPOP '+' REPOP",
     "line 11: REPOP => REPOP '\\+' REPOP"),
    ("REPADD => 'W' '*' REPVC", "REPADD => 'W' '+' REPVC",
     "line 20: REPADD => 'W' '\\+' REPVC"),
    ("MAYBEW => 'W' | 'W' '+' REPADD", "MAYBEW => 'W' | 'W' REPADD",
     "line 18: MAYBEW => 'W' REPADD"),
])
def test_arithmetic_terminals_are_part_of_the_canonical_form(old, new, message):
    text = default_grammar_text()
    assert old in text
    with pytest.raises(GrammarError, match=f"^{message} is not a canonical-form alternative$"):
        parse_grammar(text.replace(old, new))


def test_layout_terminals_are_not_part_of_the_canonical_form():
    text = default_grammar_text()
    bare = parse_grammar(text.replace("'('", "").replace("')'", "").replace("','", ""))
    packaged = parse_grammar(text)
    for lhs, alts in packaged.rules.items():
        assert [a.signature for a in bare.rules[lhs]] == [a.signature for a in alts]


def test_operator_rule_refuses_payload_terminals():
    text = ("REPVC => 'VC' | REPOP\n"
            "REPOP => 1OP '(' 'W' '+' REPADD ')'\n"
            "REPADD => 'W' '*' REPVC\n"
            "1OP => 'SIN' | 'W'\n")
    with pytest.raises(GrammarError, match="line 4: unknown operator terminal 'W'"):
        parse_grammar(text)


# ---------------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------------

def test_depth_one_tree_is_single_vc():
    g = load_default_grammar()
    rng = Draws(2)
    for _ in range(50):
        tree = random_tree(g, 1, rng, n_vars=N_VARS)
        assert tree.symbol == "REPVC"
        assert len(tree.children) == 1
        assert isinstance(tree.children[0], VCLeaf)


def test_ten_thousand_trees_validate_and_respect_depth():
    g = load_default_grammar()
    rng = Draws(3)
    for _ in range(10000):
        tree = random_tree(g, 8, rng, n_vars=N_VARS)
        assert tree_depth(tree) <= 8
        assert validate(tree, g, max_depth=8, n_vars=N_VARS) == []


def test_fixed_seed_gives_identical_tree_sequence():
    g = load_default_grammar()
    rng1 = Draws(12)
    rng2 = Draws(12)
    for _ in range(100):
        t1 = random_tree(g, 8, rng1, n_vars=N_VARS)
        t2 = random_tree(g, 8, rng2, n_vars=N_VARS)
        assert tree_to_dict(t1) == tree_to_dict(t2)


def test_initial_vc_density():
    g = load_default_grammar()
    rng = Draws(4)
    for _ in range(500):
        tree = random_tree(g, 8, rng, n_vars=N_VARS)
        for node, _ in walk(tree):
            if isinstance(node, VCLeaf):
                nonzero = [e for e in node.exponents if e]
                assert 1 <= len(nonzero) <= 3
                assert all(e in (-2, -1, 1, 2) for e in nonzero)


def test_weight_leaves_within_bounds():
    g = load_default_grammar()
    rng = Draws(5)
    for _ in range(500):
        tree = random_tree(g, 8, rng, n_vars=N_VARS, B=10.0)
        for node, _ in walk(tree):
            if isinstance(node, WeightLeaf):
                assert abs(node.stored) <= 20.0


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_random_trees_are_valid():
    g = load_default_grammar()
    rng = Draws(6)
    tree = random_tree(g, 8, rng, n_vars=N_VARS)
    assert validate(tree, g, n_vars=N_VARS) == []


def test_wrong_child_symbol_is_one_violation():
    g = load_default_grammar()
    repadd = NTNode("REPADD", 0, [WeightLeaf(1.0), NTNode("REPVC", 0, [VCLeaf([1])])])
    bad = NTNode("REPVC", 2, [repadd])    # REPVC alt 2 requires a REPOP child
    violations = validate(bad, g, n_vars=1)
    assert len(violations) == 1
    assert "REPOP" in violations[0]


def test_weight_bound_violation():
    g = load_default_grammar()
    repadd = NTNode("REPADD", 0, [WeightLeaf(30.0), NTNode("REPVC", 0, [VCLeaf([1])])])
    repop = NTNode("REPOP", 1, [NTNode("1OP", 0, [OpLeaf("sqrt")]),
                                WeightLeaf(0.0), repadd])
    tree = NTNode("REPVC", 2, [repop])
    violations = validate(tree, g, B=10.0, n_vars=1)
    assert any("weight bound" in v for v in violations)


def test_depth_counts_nonterminal_levels_and_validate_bounds_it():
    g = load_default_grammar()
    repadd = NTNode("REPADD", 0, [WeightLeaf(1.0), NTNode("REPVC", 0, [VCLeaf([1])])])
    tree = NTNode("REPVC", 2, [NTNode("REPOP", 1, [NTNode("1OP", 0, [OpLeaf("sqrt")]),
                                                   WeightLeaf(0.0), repadd])])
    assert tree_depth(NTNode("REPVC", 0, [VCLeaf([1])])) == 1
    assert tree_depth(tree) == 4
    assert validate(tree, g, max_depth=4, n_vars=1) == []
    assert validate(tree, g, max_depth=3, n_vars=1) == ["depth 4 exceeds max_depth 3"]
    rng = Draws(9)
    for _ in range(300):
        tree = random_tree(g, 8, rng, n_vars=N_VARS)
        levels = [len(path) + 1 for node, path in walk(tree) if isinstance(node, NTNode)]
        assert tree_depth(tree) == max(levels)


def test_unknown_nonterminal_and_alternative_index_are_named():
    g = load_default_grammar()
    foo = NTNode("REPVC", 2, [NTNode("FOO", 0, [VCLeaf([1])])])
    assert validate(foo, g, n_vars=1) == ["REPVC: expected REPOP, got FOO",
                                          "unknown nonterminal 'FOO'"]
    assert validate(NTNode("REPVC", 7, [VCLeaf([1])]), g, n_vars=1) == [
        "REPVC: alternative index 7 out of range"]


def test_all_zero_vc_and_exp_cap_violations():
    g = load_default_grammar()
    assert any("all-zero" in v
               for v in validate(NTNode("REPVC", 0, [VCLeaf([0, 0])]), g, n_vars=2))
    assert any("exponent cap" in v
               for v in validate(NTNode("REPVC", 0, [VCLeaf([9, 0])]), g, n_vars=2))


# ---------------------------------------------------------------------------
# crossover sites
# ---------------------------------------------------------------------------

def test_sites_empty_for_absent_symbol():
    g = load_default_grammar()
    tree = NTNode("REPVC", 0, [VCLeaf([1])])
    assert crossover_sites(tree, "REPOP") == []


def test_sites_present_in_one_op_tree():
    repadd = NTNode("REPADD", 0, [WeightLeaf(1.0), NTNode("REPVC", 0, [VCLeaf([1])])])
    repop = NTNode("REPOP", 1, [NTNode("1OP", 0, [OpLeaf("ln")]),
                                WeightLeaf(0.0), repadd])
    tree = NTNode("REPVC", 2, [repop])
    assert len(crossover_sites(tree, "REPADD")) >= 1
    assert len(crossover_sites(tree, "REPVC")) == 2     # root and inner


def test_sites_match_on_copies():
    g = load_default_grammar()
    rng = Draws(8)
    tree = random_tree(g, 8, rng, n_vars=N_VARS)
    for symbol in ("REPVC", "REPOP", "REPADD", "MAYBEW", "2ARGS", "1OP", "2OP"):
        a = crossover_sites(tree, symbol)
        b = crossover_sites(tree_from_dict(tree_to_dict(tree)), symbol)
        assert len(a) == len(b)
        assert [n.symbol for n in a] == [n.symbol for n in b]


# ---------------------------------------------------------------------------
# the max_depth ceiling
# ---------------------------------------------------------------------------

def _chain(depth):
    """A thin REPVC -> abs(W + W * REPVC) chain tree of exactly `depth` levels;
    each link is three levels, and REPADD + REPADD sums in the top link make
    up the one or two levels left over."""
    d = {"kind": "nt", "symbol": "REPVC", "alt": 0,
         "children": [{"kind": "vc", "exponents": [1]}]}
    links, left_over = divmod(depth - 1, 3)
    for link in range(links):
        add = {"kind": "nt", "symbol": "REPADD", "alt": 0,
               "children": [{"kind": "w", "stored": 10.0}, d]}
        for _ in range(left_over if link == links - 1 else 0):
            add = {"kind": "nt", "symbol": "REPADD", "alt": 1, "children": [add, add]}
        op = {"kind": "nt", "symbol": "REPOP", "alt": 1,
              "children": [{"kind": "nt", "symbol": "1OP", "alt": 4,
                            "children": [{"kind": "op", "name": "abs"}]},
                           {"kind": "w", "stored": 10.0}, add]}
        d = {"kind": "nt", "symbol": "REPVC", "alt": 2, "children": [op]}
    return tree_from_dict(d)


def test_a_tree_at_the_max_depth_ceiling_stays_within_the_call_stack():
    tree = _chain(_MAX_DEPTH)
    assert tree_depth(tree) == _MAX_DEPTH
    assert validate(tree, load_default_grammar(), max_depth=_MAX_DEPTH, n_vars=1) == []
    assert tree_depth(tree_from_dict(tree_to_dict(tree))) == _MAX_DEPTH
    assert np.isfinite(eval_basis_matrix(tree, np.ones((2, 1)), 10.0)).all()
    model = Model(bases=[tree], coeffs=np.array([0.0, 1.0]), train_error=0.0, valid=True)
    assert "abs(" in to_canonical_text(model, ("x",))
    deepest = max((path for _, path in walk(tree)), key=len)
    assert tree_depth(replace_at(tree, deepest, VCLeaf([2]))) == _MAX_DEPTH
