"""The combo-column table under basis evaluation: bit-for-bit values, its
bound in doubles, one table per X array object and read-only columns."""

import numpy as np
import pytest

import canonsr.expr as expr
from canonsr.draws import Draws
from canonsr.expr import (COMBO_TABLE_DOUBLES, NTNode, VCLeaf, check_tree, eval_basis_matrix,
                          stored_column, vc_column)
from canonsr.grammar import default_grammar_text, parse_grammar, random_tree
from test_eval_oracle import reference_column

N_TREES = 2000
N_VARS = 5
B = 10.0


def _assert_within_bound():
    assert sum(col.size for col in expr._COMBOS.columns.values()) <= COMBO_TABLE_DOUBLES


def _vc_tree(exponents):
    return NTNode("REPVC", 0, [VCLeaf(exponents)])


@pytest.fixture(scope="module")
def trees():
    # the packaged grammar with its 4OP rule switched on, so every operator
    # arity takes combo columns as arguments
    text = default_grammar_text().replace("# REPOP  =>", "REPOP  =>").replace(
        "# 4OP    =>", "4OP    =>")
    g = parse_grammar(text)
    rng = Draws(23)
    return [random_tree(g, 6, rng, N_VARS) for _ in range(N_TREES)]


@pytest.mark.parametrize("rows", [81, 243, 1000])
def test_columns_match_vc_column_bit_for_bit(trees, rows):
    """stored_column and eval_basis_matrix on the bound X, read through the
    table, against vc_column itself: on X with zeros and negative entries, and
    on more distinct combos than the table holds, so that it evicts."""
    rng = np.random.default_rng(rows)
    X = rng.uniform(-2.0, 2.0, size=(rows, N_VARS))
    X[::7, rows % N_VARS] = 0.0
    X.flags.writeable = False
    distinct = set()
    for k, tree in enumerate(trees):
        if k % 2 == 0:
            got = stored_column(tree, X, B)[0]
        else:
            got = eval_basis_matrix(tree, X, B)
        assert got.tobytes() == reference_column(tree, X, B).tobytes()
        distinct.update(vc.exponents for vc in check_tree(tree)[2])
        _assert_within_bound()
    assert expr._COMBOS.X is X
    assert len(distinct) > COMBO_TABLE_DOUBLES // rows     # some columns were evicted


def test_a_hit_moves_to_the_back_and_the_oldest_goes_first():
    rows = 4096                                   # the table holds 8 columns
    X = np.random.default_rng(1).uniform(0.5, 2.0, size=(rows, N_VARS))
    capacity = COMBO_TABLE_DOUBLES // rows
    combos = [tuple(int(d == i) * p for d in range(N_VARS))
              for i in range(N_VARS) for p in (1, 2, 3)][:capacity + 2]
    for e in combos[:capacity]:
        stored_column(_vc_tree(e), X, B)
    stored_column(_vc_tree(combos[0]), X, B)      # a hit: combos[0] is now the newest
    for e in combos[capacity:]:
        stored_column(_vc_tree(e), X, B)
        _assert_within_bound()
    held = list(expr._COMBOS.columns)
    assert held == combos[3:capacity] + [combos[0]] + combos[capacity:]
    assert len(held) == capacity


def test_a_column_larger_than_the_bound_is_not_kept():
    X = np.ones((COMBO_TABLE_DOUBLES + 1, 1))
    col = stored_column(_vc_tree((2,)), X, B)[0]
    assert expr._COMBOS.X is X and not expr._COMBOS.columns
    assert col.tobytes() == vc_column((2,), X).tobytes()


def test_a_new_X_object_with_equal_values_starts_an_empty_table():
    X = np.random.default_rng(2).uniform(0.5, 2.0, size=(81, N_VARS))
    first = stored_column(_vc_tree((1, 0, -1, 0, 0)), X, B)[0]
    assert list(expr._COMBOS.columns) == [(1, 0, -1, 0, 0)]
    X2 = X.copy()
    again = stored_column(_vc_tree((1, 0, -1, 0, 0)), X2, B)[0]
    other = stored_column(_vc_tree((0, 2, 0, 0, 0)), X2, B)[0]
    assert expr._COMBOS.X is X2
    assert again is not first and again.tobytes() == first.tobytes()
    assert list(expr._COMBOS.columns) == [(1, 0, -1, 0, 0), (0, 2, 0, 0, 0)]
    assert expr._COMBOS.columns[(0, 2, 0, 0, 0)] is other


def test_eval_basis_matrix_on_an_unbound_X_leaves_the_table_alone():
    X = np.random.default_rng(3).uniform(0.5, 2.0, size=(81, N_VARS))
    stored_column(_vc_tree((1, 1, 0, 0, 0)), X, B)
    before = dict(expr._COMBOS.columns)
    col = eval_basis_matrix(_vc_tree((0, 0, 3, 0, 0)), X.copy(), B)
    assert expr._COMBOS.X is X and dict(expr._COMBOS.columns) == before
    assert col.flags.writeable


def test_table_columns_are_read_only(trees):
    X = np.random.default_rng(4).uniform(0.5, 2.0, size=(81, N_VARS))
    for tree in trees[:200]:
        stored_column(tree, X, B)
    columns = list(expr._COMBOS.columns.values())
    assert columns
    for col in columns:
        assert not col.flags.writeable
        with pytest.raises(ValueError):
            col[0] = 0.0
