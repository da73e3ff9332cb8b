"""The operator table and the config contract, pinned against fixed literals.

Each operator is one OPS entry and each config key one RunConfig field.  The
literals below are what the grammar, the renderer, the evaluator and the
config parser gave before the tables were introduced; any change to them is
a change of behaviour.
"""

import itertools
import math
from dataclasses import fields

import numpy as np
import pytest

from canonsr.config import RunConfig, parse_config_values
from canonsr.expr import (GRAMMAR_OP_TOKENS, OPS, Model, NTNode, OpLeaf, VCLeaf,
                          WeightLeaf, eval_basis_matrix, to_canonical_text)

B = 10.0
NAMES = ("x1", "x2", "x3", "x4")


# ---------------------------------------------------------------------------
# one basis applying one operator
# ---------------------------------------------------------------------------

def weight(value):
    """Weight leaf whose interpreted value is `value` (B=10); exact for 0 and +-1."""
    stored = 0.0 if value == 0 else math.copysign(math.log10(abs(value)) + B, value)
    return WeightLeaf(stored)


def arg_sum(offset, coeff, var):
    """(W, REPADD) children for the argument 'offset + coeff * x<var+1>'."""
    exponents = [0] * len(NAMES)
    exponents[var] = 1
    return weight(offset), NTNode("REPADD", 0, [weight(coeff),
                                                NTNode("REPVC", 0, [VCLeaf(exponents)])])


def op_basis(name, args):
    """One basis applying operator `name` to (offset, coeff, var) arguments.

    A 2OP or 4OP argument given as a bare number is a weight alone.
    """
    def maybew(arg):
        if not isinstance(arg, tuple):
            return NTNode("MAYBEW", 0, [weight(arg)])
        return NTNode("MAYBEW", 1, list(arg_sum(*arg)))

    arity = OPS[name].arity
    op = NTNode(f"{arity}OP", 0, [OpLeaf(name)])
    if arity == 1:
        repop = NTNode("REPOP", 1, [op, *arg_sum(*args[0])])
    elif arity == 2:
        two_args = NTNode("2ARGS", 0, [*arg_sum(*args[0]), maybew(args[1])])
        repop = NTNode("REPOP", 2, [op, two_args])
    else:
        repop = NTNode("REPOP", 3, [op] + [maybew(a) for a in args])
    return NTNode("REPVC", 2, [repop])


def rendered(name, args):
    model = Model(bases=[op_basis(name, args)], coeffs=np.array([1.5, -2.0]))
    return to_canonical_text(model, NAMES)


# ---------------------------------------------------------------------------
# grammar spellings
# ---------------------------------------------------------------------------

def test_grammar_op_tokens_match_the_fixed_spellings():
    assert GRAMMAR_OP_TOKENS == {
        "SQRT": "sqrt", "LN": "ln", "LOG10": "log10", "INV": "inv", "ABS": "abs",
        "SQ": "sq", "SIN": "sin", "COS": "cos", "TAN": "tan", "RELU": "relu",
        "NEGRELU": "negrelu", "EXP2": "exp2", "EXP10": "exp10",
        "ADD": "add", "MUL": "mul", "MAX": "max", "MIN": "min", "POW": "pow",
        "DIVIDE": "div", "DIV": "div",
        "LTE": "lte4", "LTE0": "lte0",
    }


# ---------------------------------------------------------------------------
# canonical text
# ---------------------------------------------------------------------------

TEXT_ARGS = [(2.0, 3.0, 0), (0.5, -4.0, 1), (-1.5, 0.25, 2), (7.0, 1.0, 3)]

TEXTS = {
    "sqrt": "1.5 - 2 * sqrt(2 + 3 * x1)",
    "ln": "1.5 - 2 * ln(2 + 3 * x1)",
    "log10": "1.5 - 2 * log10(2 + 3 * x1)",
    "inv": "1.5 - 2 * 1 / (2 + 3 * x1)",
    "abs": "1.5 - 2 * abs(2 + 3 * x1)",
    "sq": "1.5 - 2 * (2 + 3 * x1)^2",
    "sin": "1.5 - 2 * sin(2 + 3 * x1)",
    "cos": "1.5 - 2 * cos(2 + 3 * x1)",
    "tan": "1.5 - 2 * tan(2 + 3 * x1)",
    "relu": "1.5 - 2 * max(0, 2 + 3 * x1)",
    "negrelu": "1.5 - 2 * min(0, 2 + 3 * x1)",
    "exp2": "1.5 - 2 * 2^(2 + 3 * x1)",
    "exp10": "1.5 - 2 * 10^(2 + 3 * x1)",
    "add": "1.5 - 2 * (2 + 3 * x1 + 0.5 - 4 * x2)",
    "mul": "1.5 - 2 * (2 + 3 * x1) * (0.5 - 4 * x2)",
    "max": "1.5 - 2 * max(2 + 3 * x1, 0.5 - 4 * x2)",
    "min": "1.5 - 2 * min(2 + 3 * x1, 0.5 - 4 * x2)",
    "pow": "1.5 - 2 * pow(2 + 3 * x1, 0.5 - 4 * x2)",
    "div": "1.5 - 2 * (2 + 3 * x1) / (0.5 - 4 * x2)",
    "lte4": "1.5 - 2 * lte4(2 + 3 * x1, 0.5 - 4 * x2, -1.5 + 0.25 * x3, 7 + 1 * x4)",
    "lte0": "1.5 - 2 * lte0(2 + 3 * x1, 0.5 - 4 * x2, -1.5 + 0.25 * x3, 7 + 1 * x4)",
}

# second argument a bare negative weight: only add folds its sign
NEGATIVE_SECOND_TEXTS = {
    "add": "1.5 - 2 * (2 + 3 * x1 - 1.5)",
    "mul": "1.5 - 2 * (2 + 3 * x1) * (-1.5)",
    "max": "1.5 - 2 * max(2 + 3 * x1, -1.5)",
    "min": "1.5 - 2 * min(2 + 3 * x1, -1.5)",
    "pow": "1.5 - 2 * pow(2 + 3 * x1, -1.5)",
    "div": "1.5 - 2 * (2 + 3 * x1) / (-1.5)",
}


def test_every_operator_is_pinned():
    assert sorted(OPS) == sorted(TEXTS)
    assert len(OPS) == 21


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_operator_text(name):
    assert rendered(name, TEXT_ARGS[:OPS[name].arity]) == TEXTS[name]


@pytest.mark.parametrize("name", sorted(NEGATIVE_SECOND_TEXTS))
def test_two_arg_operator_text_with_negative_second_argument(name):
    assert rendered(name, [TEXT_ARGS[0], -1.5]) == NEGATIVE_SECOND_TEXTS[name]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _mask(result, *inputs):
    bad = None
    for v in inputs:
        b = ~np.isfinite(v)
        bad = b if bad is None else (bad | b)
    if bad is not None and np.any(bad):
        result = np.where(bad, np.nan, result)
    return result


# the formulas as they were, inner masks included; evaluation masks the
# result once more with every argument
FORMULAS = {
    "sqrt": np.sqrt, "ln": np.log, "log10": np.log10,
    "inv": lambda x: np.divide(1.0, x), "abs": np.abs, "sq": np.square,
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "relu": lambda x: _mask(np.maximum(0.0, x), x),
    "negrelu": lambda x: _mask(np.minimum(0.0, x), x),
    "exp2": np.exp2, "exp10": lambda x: np.power(10.0, x),
    "add": lambda a, b: a + b, "mul": lambda a, b: a * b,
    "max": lambda a, b: _mask(np.maximum(a, b), a, b),
    "min": lambda a, b: _mask(np.minimum(a, b), a, b),
    "pow": np.power, "div": np.divide,
    "lte4": lambda t, c, a, b: np.where(t < c, a, b),
    "lte0": lambda t, c, a, b: np.where(t < 0.0, a, b),
}

# every combination of nan, +-inf, zero, negatives and positives over four columns
VALUES = (np.nan, np.inf, -np.inf, 0.0, -1.5, -0.25, 0.5, 3.0)
X = np.array(list(itertools.product(VALUES, repeat=4)))


@pytest.mark.parametrize("name", sorted(FORMULAS))
def test_operator_evaluation(name):
    arity = OPS[name].arity
    # argument k is 0 + 1 * x<k+1>, which is exactly column k
    got = eval_basis_matrix(op_basis(name, [(0.0, 1.0, k) for k in range(arity)]), X, B)
    args = [X[:, k] for k in range(arity)]
    with np.errstate(all="ignore"):
        want = _mask(FORMULAS[name](*args), *args)
    assert np.array_equal(got, want, equal_nan=True)


# ---------------------------------------------------------------------------
# config keys
# ---------------------------------------------------------------------------

KEY_TYPES = {
    "population": int, "generations": int, "max_bases": int, "max_depth": int,
    "B": float, "wb": float, "wvc": float, "exp_cap": int, "seed": int,
    "grammar": str, "sig_figs": int,
}


def test_every_field_but_operator_weights_is_a_key_of_its_type():
    names = [f.name for f in fields(RunConfig) if f.name != "operator_weights"]
    assert names == list(KEY_TYPES)
    for key, cast in KEY_TYPES.items():
        value = parse_config_values(f"{key} = 3\n")[key]
        assert type(value) is cast and value == cast("3")


def test_as_dict_keys():
    assert list(RunConfig().as_dict()) == [
        "population", "generations", "max_bases", "max_depth", "B", "wb", "wvc",
        "exp_cap", "seed", "grammar", "sig_figs",
        "operator.basis_set_crossover.weight", "operator.basis_delete.weight",
        "operator.basis_add.weight", "operator.basis_copy_in.weight",
        "operator.subtree_crossover.weight", "operator.subtree_mutate.weight",
        "operator.weight_cauchy_mutate.weight", "operator.vc_onepoint_crossover.weight",
        "operator.vc_exponent_mutate.weight",
    ]


@pytest.mark.parametrize("key", [k for k, cast in KEY_TYPES.items()
                                 if cast is not str and k != "seed"])
def test_numeric_field_rejects_zero(key):
    with pytest.raises(ValueError) as exc:
        RunConfig(**{key: 0})
    assert str(exc.value) == f"config field {key!r} must be positive and finite"


def test_seed_may_be_zero_but_not_negative():
    assert RunConfig(seed=0).seed == 0
    with pytest.raises(ValueError, match="'seed' must be zero or positive"):
        RunConfig(seed=-3)


@pytest.mark.parametrize("sig_figs", [1, 17])
def test_sig_figs_from_1_to_17(sig_figs):
    assert RunConfig(sig_figs=sig_figs).sig_figs == sig_figs


def test_sig_figs_above_17_rejected():
    with pytest.raises(ValueError, match="'sig_figs' must be at most 17"):
        RunConfig(sig_figs=18)


def test_int_beyond_float_range_rejected():
    with pytest.raises(ValueError, match="'population' must be positive and finite"):
        RunConfig(population=10 ** 400)


def test_operator_weights_are_a_filled_copy_of_the_callers_dict():
    w = {"basis_add": 2.0}
    cfg = RunConfig(operator_weights=w)
    assert w == {"basis_add": 2.0}
    assert cfg.operator_weights is not w
    assert cfg.operator_weights["basis_add"] == 2.0
    assert cfg.operator_weights["weight_cauchy_mutate"] == 5.0
    assert RunConfig(operator_weights=w).operator_weights is not cfg.operator_weights
