"""Expression trees: weight mapping, evaluation, node counts, complexity, text."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest

from canonsr.expr import (Model, NTNode, OpLeaf, VCLeaf, WeightLeaf, basis_complexity,
                          complexity_of_bases, eval_basis_matrix, eval_model_matrix,
                          interpret_weight, model_from_dict, model_to_dict,
                          to_canonical_text, tree_from_dict, tree_to_dict, vc_column)

B = 10.0


# ---------------------------------------------------------------------------
# helpers to build canonical trees by hand
# ---------------------------------------------------------------------------

def vc_basis(exponents):
    """REPVC -> 'VC'."""
    return NTNode("REPVC", 0, [VCLeaf(exponents)])


def row(x):
    """One sample as a one-row sample matrix."""
    return np.asarray(x, dtype=float).reshape(1, -1)


def stored_for(value):
    """Stored weight whose interpreted value equals `value` (B=10)."""
    if value == 0:
        return 0.0
    return math.copysign(math.log10(abs(value)) + B, value)


def one_op_basis(opname, w_value, term_w_value, term_exponents):
    """REPVC -> REPOP -> 1OP '(' W '+' (W '*' REPVC) ')'."""
    repvc_inner = vc_basis(term_exponents)
    repadd = NTNode("REPADD", 0, [WeightLeaf(stored_for(term_w_value)), repvc_inner])
    repop = NTNode("REPOP", 1, [NTNode("1OP", 0, [OpLeaf(opname)]),
                                WeightLeaf(stored_for(w_value)), repadd])
    return NTNode("REPVC", 2, [repop])


# ---------------------------------------------------------------------------
# interpret_weight
# ---------------------------------------------------------------------------

def test_interpret_weight_zero_maps_to_zero():
    assert interpret_weight(0.0, B) == 0.0


def test_interpret_weight_at_B_is_one():
    assert interpret_weight(10.0, B) == 1.0


def test_interpret_weight_endpoints():
    assert interpret_weight(-15.0, B) == -1e5
    assert interpret_weight(20.0, B) == 1e10


def test_interpret_weight_contract_violation():
    with pytest.raises(ValueError):
        interpret_weight(20.0001, B)


def test_interpret_weight_is_odd():
    rng = np.random.default_rng(0)
    for v in rng.uniform(-2 * B, 2 * B, size=500):
        assert interpret_weight(-v, B) == -interpret_weight(v, B)


def test_interpret_weight_range():
    rng = np.random.default_rng(1)
    for v in rng.uniform(-2 * B, 2 * B, size=500):
        out = interpret_weight(v, B)
        assert out == 0.0 or 10.0 ** -B <= abs(out) <= 10.0 ** B


# ---------------------------------------------------------------------------
# variable combos
# ---------------------------------------------------------------------------

def test_vc_value_worked_example():
    # (x1 * x4) / x3^2 at (2, 5, 2, 3) = 6 / 4
    X = row([2, 5, 2, 3])
    assert eval_basis_matrix(vc_basis([1, 0, -2, 1]), X, B)[0] == pytest.approx(1.5)


def test_vc_value_identity_exponent():
    assert eval_basis_matrix(vc_basis([1]), row([7.0]), B)[0] == 7.0


def test_vc_value_division_by_zero_is_nonfinite():
    assert not np.isfinite(eval_basis_matrix(vc_basis([-1]), row([0.0]), B)[0])


def test_vc_reciprocal_property():
    rng = np.random.default_rng(2)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        exps = rng.integers(-3, 4, size=d)
        x = rng.uniform(0.2, 3.0, size=d)
        a = eval_basis_matrix(vc_basis(exps), row(x), B)[0]
        b = eval_basis_matrix(vc_basis(-exps), row(x), B)[0]
        if np.isfinite(a) and np.isfinite(b) and a != 0 and b != 0:
            assert a * b == pytest.approx(1.0)


def test_vc_column_matches_the_product_from_ones_byte_for_byte():
    # the product used to start from np.ones; 1.0 * x == x for every double,
    # signed zeros, infinities and NaN included
    X = np.array([[0.0, -0.0, -2.5, 3.0],
                  [-1.0, 0.0, 4.0, -0.5],
                  [2.0, -3.0, 0.0, 1e-300],
                  [1e300, -1e-5, -7.0, -0.0]])
    with np.errstate(all="ignore"):
        for exps in itertools.product((-3, -1, 0, 1, 2), repeat=X.shape[1]):
            expected = np.ones(X.shape[0])
            for i, e in enumerate(exps):
                if e:
                    expected = expected * np.power(X[:, i], float(e))
            assert vc_column(exps, X).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# basis evaluation
# ---------------------------------------------------------------------------

def test_eval_basis_single_vc():
    X = row([2, 5, 2, 3])
    assert eval_basis_matrix(vc_basis([1, 0, -2, 1]), X, B)[0] == pytest.approx(1.5)


def test_eval_basis_relu_clamps_negative():
    tree = one_op_basis("relu", 0.0, 1.0, [1])
    assert eval_basis_matrix(tree, row([-3.0]), B)[0] == 0.0
    assert eval_basis_matrix(tree, row([4.0]), B)[0] == 4.0


def test_eval_basis_sqrt_of_negative_is_nonfinite():
    tree = one_op_basis("sqrt", 0.0, 1.0, [1])
    assert not np.isfinite(eval_basis_matrix(tree, row([-1.0]), B)[0])


def test_eval_basis_nonfinite_subresult_poisons_even_through_relu():
    # relu(0 + 1 * (1/x)) at x=0: inner inf, so the whole result is non-finite
    tree = one_op_basis("relu", 0.0, 1.0, [-1])
    assert not np.isfinite(eval_basis_matrix(tree, row([0.0]), B)[0])


def test_eval_model_matrix_zero_times_infinite_column_is_silent():
    # coefficient 0 on 1/x at x = 0 gives nan, with no RuntimeWarning
    m = Model(bases=[vc_basis([-1])], coeffs=np.array([2.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pred = eval_model_matrix(m, np.array([[0.0], [2.0]]), B)
    assert np.isnan(pred[0]) and pred[1] == 2.0


def two_op_basis(opname, base_w, base_term_w, base_exponents, const_w):
    """REPVC -> REPOP -> 2OP '(' (W + REPADD) ',' MAYBEW ')' with a constant arg."""
    repadd = NTNode("REPADD", 0, [WeightLeaf(stored_for(base_term_w)),
                                  vc_basis(base_exponents)])
    two_args = NTNode("2ARGS", 0, [WeightLeaf(stored_for(base_w)), repadd,
                                   NTNode("MAYBEW", 0, [WeightLeaf(stored_for(const_w))])])
    repop = NTNode("REPOP", 2, [NTNode("2OP", 0, [OpLeaf(opname)]), two_args])
    return NTNode("REPVC", 2, [repop])


def test_eval_pow_with_constant_exponent():
    # pow(0 + 1*x1, 2) = x1^2
    tree = two_op_basis("pow", 0.0, 1.0, [1], 2.0)
    assert eval_basis_matrix(tree, row([3.0]), B)[0] == pytest.approx(9.0)
    # negative base with non-integer exponent is non-finite, not complex
    tree_frac = two_op_basis("pow", 0.0, 1.0, [1], 0.5)
    assert not np.isfinite(eval_basis_matrix(tree_frac, row([-2.0]), B)[0])


def test_eval_div_and_constant_side_order():
    # second alternative of the argument pair puts the constant first
    repadd = NTNode("REPADD", 0, [WeightLeaf(stored_for(1.0)), vc_basis([1])])
    two_args = NTNode("2ARGS", 1, [NTNode("MAYBEW", 0, [WeightLeaf(stored_for(6.0))]),
                                   WeightLeaf(stored_for(0.0)), repadd])
    repop = NTNode("REPOP", 2, [NTNode("2OP", 0, [OpLeaf("div")]), two_args])
    tree = NTNode("REPVC", 2, [repop])
    assert eval_basis_matrix(tree, row([2.0]), B)[0] == pytest.approx(3.0)     # 6 / (0 + x1)
    assert not np.isfinite(eval_basis_matrix(tree, row([0.0]), B)[0])


def _maybew(value):
    return NTNode("MAYBEW", 0, [WeightLeaf(stored_for(value))])


def _lte_tree(opname, t, c, a, b):
    repop = NTNode("REPOP", 3, [NTNode("4OP", 0, [OpLeaf(opname)]),
                                _maybew(t), _maybew(c), _maybew(a), _maybew(b)])
    return NTNode("REPVC", 2, [repop])


def test_eval_lte_selects_by_comparison():
    def at_one(tree):
        return eval_basis_matrix(tree, row([1.0]), B)[0]

    assert at_one(_lte_tree("lte4", 1.0, 2.0, 10.0, 20.0)) == pytest.approx(10.0)
    assert at_one(_lte_tree("lte4", 3.0, 2.0, 10.0, 20.0)) == pytest.approx(20.0)
    # the zero-test variant compares its first slot against 0
    assert at_one(_lte_tree("lte0", -1.0, 99.0, 10.0, 20.0)) == pytest.approx(10.0)
    assert at_one(_lte_tree("lte0", 1.0, -99.0, 10.0, 20.0)) == pytest.approx(20.0)


def test_eval_basis_never_raises_on_any_random_tree():
    from canonsr.draws import Draws
    from canonsr.grammar import load_default_grammar, random_tree
    g = load_default_grammar()
    rng = Draws(3)
    X = np.array([[-2.0 + 4.0 * rng.random() for _ in range(3)] for _ in range(7)])
    for _ in range(300):
        tree = random_tree(g, 8, rng, n_vars=3)
        col = eval_basis_matrix(tree, X, B)
        assert col.shape == (7,)   # finite or not, it must come back


# ---------------------------------------------------------------------------
# model evaluation
# ---------------------------------------------------------------------------

def test_constant_model_evaluates_to_offset():
    m = Model(bases=[], coeffs=np.array([-2.00e-3]), train_error=0.0, valid=True)
    assert eval_model_matrix(m, row([0.4, 0.5]), B)[0] == -2.00e-3
    assert eval_model_matrix(m, row([100.0, -3.0]), B)[0] == -2.00e-3


def test_linear_form():
    m = Model(bases=[vc_basis([1])], coeffs=np.array([1.0, 2.0]), valid=True)
    assert eval_model_matrix(m, row([3.0]), B)[0] == 7.0


def test_nonfinite_basis_propagates():
    m = Model(bases=[vc_basis([-1])], coeffs=np.array([0.0, 1.0]), valid=True)
    assert not np.isfinite(eval_model_matrix(m, row([0.0]), B)[0])


def test_eval_model_linear_in_coeffs():
    rng = np.random.default_rng(4)
    bases = [vc_basis([1, 0]), vc_basis([0, 2])]
    x = [1.7, 0.6]
    for _ in range(50):
        c1 = rng.standard_normal(3)
        c2 = rng.standard_normal(3)
        m1 = Model(bases=bases, coeffs=c1, valid=True)
        m2 = Model(bases=bases, coeffs=c2, valid=True)
        m12 = Model(bases=bases, coeffs=c1 + c2, valid=True)
        assert eval_model_matrix(m12, row(x), B)[0] == pytest.approx(
            eval_model_matrix(m1, row(x), B)[0] + eval_model_matrix(m2, row(x), B)[0])


# ---------------------------------------------------------------------------
# node count / complexity
# ---------------------------------------------------------------------------

def test_nnodes_single_vc():
    assert basis_complexity(vc_basis([1, 0, -2, 1]), 0.0, 0.0) == 1


def test_nnodes_one_op_with_weighted_term():
    # op + two weights + one VC = 4 expression nodes
    assert basis_complexity(one_op_basis("ln", 1.0, 2.0, [1]), 0.0, 0.0) == 4


def test_nnodes_copy_equal():
    tree = one_op_basis("sqrt", 1.0, 2.0, [1, -1])
    assert (basis_complexity(tree, 0.0, 0.0)
            == basis_complexity(tree_from_dict(tree_to_dict(tree)), 0.0, 0.0))


def test_complexity_constant_model_is_zero():
    m = Model(bases=[], coeffs=np.array([1.0]), valid=True)
    assert complexity_of_bases(m.bases, 10.0, 0.25) == 0.0


def test_complexity_single_vc_worked_example():
    m = Model(bases=[vc_basis([1, 0, -2, 1])], coeffs=np.array([0.0, 1.0]), valid=True)
    assert complexity_of_bases(m.bases, 10.0, 0.25) == 12.0


def test_complexity_two_identical_bases():
    tree = vc_basis([1, 0, -2, 1])
    m = Model(bases=[tree, vc_basis([1, 0, -2, 1])], coeffs=np.array([0.0, 1.0, 1.0]), valid=True)
    assert complexity_of_bases(m.bases, 10.0, 0.25) == 24.0


def test_complexity_invariant_under_reordering():
    a = vc_basis([2, -1])
    b = one_op_basis("ln", 1.0, 2.0, [1, 1])
    m1 = Model(bases=[a, b], coeffs=np.zeros(3), valid=True)
    m2 = Model(bases=[b, a], coeffs=np.zeros(3), valid=True)
    assert complexity_of_bases(m1.bases, 10.0, 0.25) == complexity_of_bases(m2.bases, 10.0, 0.25)


# ---------------------------------------------------------------------------
# canonical text
# ---------------------------------------------------------------------------

def test_text_constant_model():
    m = Model(bases=[], coeffs=np.array([90.2]), valid=True)
    assert to_canonical_text(m, ("x1",), sig_figs=3) == "90.2"


def test_text_ratio_model_matches_expected_style():
    m = Model(bases=[vc_basis([1, -1, 0, 0]), vc_basis([0, 0, 1, -1])],
              coeffs=np.array([90.5, 190.6, 22.2]), valid=True)
    text = to_canonical_text(m, ("x1", "x2", "x3", "x4"), sig_figs=4)
    assert text == "90.5 + 190.6 * x1 / x2 + 22.2 * x3 / x4"


def test_text_deterministic():
    m = Model(bases=[one_op_basis("ln", 2.0, -3.0, [1, 0, -2, 1])],
              coeffs=np.array([1.25, -0.5]), valid=True)
    names = ("a", "b", "c", "d")
    assert to_canonical_text(m, names) == to_canonical_text(m, names)


def test_text_log_scaled_wraps_power_of_ten():
    m = Model(bases=[], coeffs=np.array([5.68]), valid=True)
    assert to_canonical_text(m, ("x1",), log_scaled=True) == "10^(5.68)"


def test_text_negative_coefficient_renders_minus():
    m = Model(bases=[vc_basis([0, -1])], coeffs=np.array([2.36, -104.69]), valid=True)
    text = to_canonical_text(m, ("u", "v"), sig_figs=5)
    assert text == "2.36 - 104.69 / v"


def test_text_multifactor_ratio_parenthesized():
    m = Model(bases=[vc_basis([1, 1, -2, -1])], coeffs=np.array([0.0, 1.42]), valid=True)
    text = to_canonical_text(m, ("p", "q", "r", "s"), sig_figs=3)
    assert text == "0 + 1.42 * (p*q) / (r^2*s)"


def test_node_outside_the_canonical_form_is_refused_by_name():
    # REPVC -> 'W' is not canonical; nor is a 1OP holding a two-argument operator
    bad_leaf = NTNode("REPVC", 0, [WeightLeaf(1.0)])
    bad_op = one_op_basis("max", 1.0, 1.0, [1])
    for tree, message in ((bad_leaf, "REPVC => 'W' is not canonical form"),
                          (bad_op, "1OP => 'max' is not canonical form")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            eval_basis_matrix(tree, row([2.0]), B)
        with pytest.raises(ValueError, match=f"^{message}$"):
            to_canonical_text(Model(bases=[tree], coeffs=np.ones(2)), ("x",))


# ---------------------------------------------------------------------------
# structured serialization
# ---------------------------------------------------------------------------

def test_tree_round_trip_bit_exact():
    tree = one_op_basis("ln", 0.123456789012345e-7, 9.87654321e4, [1, 0, -2, 1])
    blob = json.dumps(tree_to_dict(tree))
    back = tree_from_dict(json.loads(blob))
    assert tree_to_dict(back) == tree_to_dict(tree)
    x = [0.3, 1.1, 0.7, 2.2]
    assert eval_basis_matrix(back, row(x), B)[0] == eval_basis_matrix(tree, row(x), B)[0]


def test_tree_from_dict_takes_integral_exponents_only():
    assert tree_from_dict({"kind": "vc", "exponents": [2.0, -1, 0]}).exponents == (2, -1, 0)
    for bad in ([0.5, 1], [1, True], [False, 1], ["1", 1], [float("inf"), 1]):
        with pytest.raises(ValueError, match="needs integer exponents"):
            tree_from_dict({"kind": "vc", "exponents": bad})


def test_model_round_trip_bit_exact():
    m = Model(bases=[vc_basis([1, -1]), one_op_basis("sqrt", 1.0, 2.0, [0, 1])],
              coeffs=np.array([0.1, -2.5e-7, 3.14159]),
              train_error=1.2345678901234567, test_error=0.9876543210987654,
              complexity=23.25, valid=True)
    blob = json.dumps(model_to_dict(m))
    back = model_from_dict(json.loads(blob))
    assert model_to_dict(back) == model_to_dict(m)
    assert np.array_equal(back.coeffs, m.coeffs)
    x = [0.5, 1.5]
    assert eval_model_matrix(back, row(x), B)[0] == eval_model_matrix(m, row(x), B)[0]
