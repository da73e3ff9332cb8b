"""Pin the text and the values of deeply evolved trees.

2,000 trees grown under the packaged grammar with its 4OP rule switched on
(max_depth 8, 3 variables, `Draws` seed 11) are rendered at sig_figs 17 and
evaluated on a fixed 12-row X.  The sha256 of all texts and of all column
bytes must stay as pinned: a change to how trees evaluate or render that
moves any of them moves a digest.  NaN payloads are folded to one NaN
before hashing; which NaN numpy returns is not part of a result.
"""

import hashlib

import numpy as np
import pytest

from canonsr.draws import Draws
from canonsr.expr import Model, eval_basis_matrix, to_canonical_text
from canonsr.grammar import default_grammar_text, parse_grammar, random_tree

N_TREES = 2000
NAMES = ("x1", "x2", "x3")
TEXT_SHA256 = "f9e41cc9b0192e0a954cb4130ef893288255958b51fec4ed8ebd08ca7be0684b"
COLUMN_SHA256 = "56f2143410a05ae8ce484832f76e96ff36cfc3b07f50aded736442fee6a852de"


@pytest.fixture(scope="module")
def trees():
    text = default_grammar_text().replace("# REPOP  =>", "REPOP  =>").replace(
        "# 4OP    =>", "4OP    =>")
    g = parse_grammar(text)
    rng = Draws(11)
    return [random_tree(g, 8, rng, len(NAMES)) for _ in range(N_TREES)]


def test_deep_trees_use_every_operator_arity(trees):
    texts = "\n".join(_texts(trees))
    assert "lte" in texts and "sqrt(" in texts and "pow(" in texts


def _texts(trees):
    coeffs = np.array([0.5, -1.25])
    return [to_canonical_text(Model(bases=[t], coeffs=coeffs), NAMES, sig_figs=17)
            for t in trees]


def test_canonical_texts_are_pinned(trees):
    digest = hashlib.sha256("\n".join(_texts(trees)).encode("utf-8")).hexdigest()
    assert digest == TEXT_SHA256


def test_basis_columns_are_pinned(trees):
    X = np.random.default_rng(12).uniform(-2.0, 2.0, size=(12, len(NAMES)))
    h = hashlib.sha256()
    for tree in trees:
        col = eval_basis_matrix(tree, X, 10.0)
        assert col.shape == (12,) and col.dtype == np.float64
        h.update(np.where(np.isnan(col), np.nan, col).tobytes())
    assert h.hexdigest() == COLUMN_SHA256
