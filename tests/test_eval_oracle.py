"""Basis evaluation against the evaluation it replaced: the same bytes, sample
for sample.

reference_column is eval_basis_matrix as it was when every weight was an
np.float64 and every operator built its non-finite mask from all of its
arguments (reference_mask_nonfinite).  Evaluation now hands weights on as
floats and builds the mask only when an argument is not finite; any
difference shows here as different bytes: a NaN in another place or with
another sign bit, an infinity of the other sign, or a zero of the other sign.
"""

import math

import numpy as np
import pytest

from canonsr.draws import Draws
from canonsr.expr import (VCLeaf, WeightLeaf, eval_basis_matrix, interpret_weight,
                          stored_column, tree_from_dict, tree_to_dict, vc_column)
from canonsr.grammar import default_grammar_text, parse_grammar, random_tree

N_VARS = 3
# the packaged grammar with its 4OP rule switched on, so that operators of
# every arity run, some on weights alone
GRAMMAR = parse_grammar(default_grammar_text().replace("# REPOP  =>", "REPOP  =>")
                        .replace("# 4OP    =>", "4OP    =>"))


def reference_mask_nonfinite(result, *inputs):
    # any non-finite input poisons the output; guards ops like max(0, -inf) -> 0
    bad = None
    for v in inputs:
        b = ~np.isfinite(v)
        bad = b if bad is None else (bad | b)
    if bad is not None and bad.any():
        result = np.where(bad, np.nan, result)
    return result


def reference_eval(node, X, B):
    """A basis value with every variable combo taken from vc_column itself,
    combined as the canonical form says (see expr.Shape)."""
    kind = type(node)
    if kind is VCLeaf:
        return vc_column(node.exponents, X)
    if kind is WeightLeaf:
        return np.float64(interpret_weight(node.stored, B))
    ch = node.children
    args = []
    for i, join in node.shape.terms:
        val = reference_eval(ch[i], X, B)
        if join == "*":
            val = val * reference_eval(ch[i + 1], X, B)
        elif join == "+":
            val = val + reference_eval(ch[i + 1], X, B)
        args.extend(val if type(val) is tuple else (val,))
    if node.shape.applies:
        return reference_mask_nonfinite(ch[0].shape.op.fn(*args), *args)
    return args[0] if len(args) == 1 else tuple(args)


def reference_column(tree, X, B):
    with np.errstate(all="ignore"):
        val = reference_eval(tree, X, B)
    return np.full(X.shape[0], float(val)) if np.ndim(val) == 0 else val


def _hard_X(rows, seed):
    """Samples drawn from zeros, negatives, tiny and huge magnitudes."""
    values = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 0.5, 1e-200, -1e-200, 1e200, -1e200])
    X = np.random.default_rng(seed).choice(values, size=(rows, N_VARS))
    X.flags.writeable = False
    return X


@pytest.mark.parametrize("B", [10.0, 300.0])
def test_columns_match_the_reference_byte_for_byte(B):
    """2,000 random trees per B: on an unbound X through eval_basis_matrix,
    and on a bound one through stored_column and the combo table."""
    rng = Draws(int(B) + 70)
    X = _hard_X(60, int(B))
    seen = {"nan": 0, "+inf": 0, "-inf": 0, "-0": 0, "scalar": 0}
    for k in range(2000):
        tree = random_tree(GRAMMAR, 2 + k % 6, rng, N_VARS, B=B)
        expected = reference_column(tree, X, B)
        got = eval_basis_matrix(tree, X.copy(), B) if k % 2 else stored_column(tree, X, B)[0]
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), tree_to_dict(tree)
        seen["nan"] += bool(np.isnan(got).any())
        seen["+inf"] += bool((got == np.inf).any())
        seen["-inf"] += bool((got == -np.inf).any())
        seen["-0"] += bool(((got == 0.0) & np.signbit(got)).any())
        with np.errstate(all="ignore"):
            seen["scalar"] += np.ndim(reference_eval(tree, X, B)) == 0
    assert all(seen.values()), seen       # every kind of value occurred


def _weight_basis(stored):
    """REPVC -> REPOP -> 2OP 'pow' of 'W' + 'W' * x1 (1 + x1 at stored 10)
    to the power of a lone 'W'."""
    repadd = {"kind": "nt", "symbol": "REPADD", "alt": 0, "children": [
        {"kind": "w", "stored": 10.0},
        {"kind": "nt", "symbol": "REPVC", "alt": 0,
         "children": [{"kind": "vc", "exponents": [1, 0, 0]}]}]}
    args = {"kind": "nt", "symbol": "2ARGS", "alt": 0, "children": [
        {"kind": "w", "stored": 10.0}, repadd,
        {"kind": "nt", "symbol": "MAYBEW", "alt": 0, "children": [{"kind": "w", "stored": stored}]}]}
    repop = {"kind": "nt", "symbol": "REPOP", "alt": 2, "children": [
        {"kind": "nt", "symbol": "2OP", "alt": 4, "children": [{"kind": "op", "name": "pow"}]},
        args]}
    return tree_from_dict({"kind": "nt", "symbol": "REPVC", "alt": 2, "children": [repop]})


def test_a_weight_out_of_range_still_raises():
    X = _hard_X(5, 1)
    with pytest.raises(ValueError, match=r"stored weight 25.0 outside \[-2B, 2B\] for B=10.0"):
        eval_basis_matrix(_weight_basis(25.0), X, 10.0)
    with pytest.raises(ValueError, match=r"stored weight -20.5 outside"):
        stored_column(_weight_basis(-20.5), X, 10.0)


def test_a_nan_weight_poisons_the_column_as_before():
    """A NaN stored weight passes interpret_weight's range check, and
    pow(1, NaN) is 1 where x1 = 0, so the mask must still read the weights."""
    X = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [-0.0, 2.0, 3.0]])
    tree = _weight_basis(math.nan)
    got = eval_basis_matrix(tree, X, 10.0)
    assert got.tobytes() == reference_column(tree, X, 10.0).tobytes()
    assert np.isnan(got).all()


def test_finite_arguments_whose_squares_overflow_are_not_masked():
    """Arguments near 1e200 overflow the finiteness check's sum of squares;
    the mask built then must find nothing to poison."""
    X = np.array([[1e200, 1.0, 1.0], [2e200, 2.0, 1.0], [3.0, 1.0, 1.0]])
    tree = _weight_basis(10.0)
    got = eval_basis_matrix(tree, X, 10.0)
    assert np.isfinite(got).all()
    assert got.tobytes() == reference_column(tree, X, 10.0).tobytes()
