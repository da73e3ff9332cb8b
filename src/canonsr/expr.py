"""Canonical-form models: basis-function trees, evaluation, complexity, rendering.

A model is an offset plus a least-squares-weighted sum of basis functions.
Each basis function is a derivation tree over the canonical grammar whose
payload leaves are variable combos (integer-exponent products of inputs),
weight nodes (an evolved real, interpreted into a signed decade range) and
operator names.  Evaluation is vectorized over sample matrices, and any
non-finite sub-result poisons the whole basis value at that sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

INF = float("inf")


# ---------------------------------------------------------------------------
# tree nodes
# ---------------------------------------------------------------------------

class VCLeaf:
    """Variable combo: one integer exponent per design variable (0 = absent)."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: Sequence[int]):
        self.exponents = tuple(int(e) for e in exponents)

    def __repr__(self) -> str:
        return f"VCLeaf({list(self.exponents)})"


class WeightLeaf:
    """Evolved weight; stored value lives in [-2B, 2B], interpreted at eval time."""

    __slots__ = ("stored",)

    def __init__(self, stored: float):
        self.stored = float(stored)

    def __repr__(self) -> str:
        return f"WeightLeaf({self.stored!r})"


class OpLeaf:
    """Operator choice made under a 1OP/2OP/4OP nonterminal."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"OpLeaf({self.name!r})"


class NTNode:
    """Nonterminal node: grammar symbol, chosen alternative index, children.

    Nodes never change once built, so trees share subtrees freely.  A node
    used as a basis also keeps two values derived from it: its complexity
    (see basis_complexity) and its column on one sample matrix (see
    basis_column).  Both die with the node.
    """

    __slots__ = ("symbol", "alt", "children", "_cpx", "_column")

    def __init__(self, symbol: str, alt: int, children: Sequence):
        self.symbol = symbol
        self.alt = alt
        self.children = tuple(children)
        self._cpx = None
        self._column = None

    def __repr__(self) -> str:
        return f"NTNode({self.symbol}, alt={self.alt}, n={len(self.children)})"


# a basis function is an NTNode whose symbol is the grammar start symbol
BasisTree = NTNode

Path = Tuple[int, ...]   # child indices from a root down to one node


def walk(tree: NTNode) -> Iterator[Tuple[object, Path]]:
    """Yield (node, path) over the whole tree, preorder.

    A node's level in nonterminal expansions is len(path) + 1: the root is
    level 1, and a payload leaf sits one level below its parent.
    """
    stack = [(tree, ())]
    while stack:
        node, path = stack.pop()
        yield node, path
        if isinstance(node, NTNode):
            ch = node.children
            for i in range(len(ch) - 1, -1, -1):
                stack.append((ch[i], path + (i,)))


def tree_depth(tree: NTNode) -> int:
    """Depth in nonterminal levels; a bare REPVC -> 'VC' tree has depth 1."""
    return max((len(path) + 1 for node, path in walk(tree) if isinstance(node, NTNode)),
               default=0)


def replace_at(tree: NTNode, path: Path, new) -> NTNode:
    """`tree` with its node at `path` replaced by `new`.

    Only the nodes along the path are rebuilt; every other subtree is shared
    with `tree`, which is left as it was.
    """
    if not path:
        return new
    i = path[0]
    ch = tree.children
    return NTNode(tree.symbol, tree.alt,
                  ch[:i] + (replace_at(ch[i], path[1:], new),) + ch[i + 1:])


# ---------------------------------------------------------------------------
# operator table
# ---------------------------------------------------------------------------

def _mask_nonfinite(result, *inputs):
    # any non-finite input poisons the output; guards ops like max(0, -inf) -> 0
    bad = None
    for v in inputs:
        b = ~np.isfinite(v)
        bad = b if bad is None else (bad | b)
    if bad is not None and np.any(bad):
        result = np.where(bad, np.nan, result)
    return result


@dataclass(frozen=True)
class OpSpec:
    arity: int
    fn: Callable    # raw numpy formula; evaluation masks non-finite inputs
    text: str       # canonical text, with {0}, {1}, ... standing for the arguments


OPS: Dict[str, OpSpec] = {
    "sqrt": OpSpec(1, np.sqrt, "sqrt({0})"),
    "ln": OpSpec(1, np.log, "ln({0})"),
    "log10": OpSpec(1, np.log10, "log10({0})"),
    "inv": OpSpec(1, lambda x: np.divide(1.0, x), "1 / ({0})"),
    "abs": OpSpec(1, np.abs, "abs({0})"),
    "sq": OpSpec(1, np.square, "({0})^2"),
    "sin": OpSpec(1, np.sin, "sin({0})"),
    "cos": OpSpec(1, np.cos, "cos({0})"),
    "tan": OpSpec(1, np.tan, "tan({0})"),
    "relu": OpSpec(1, lambda x: np.maximum(0.0, x), "max(0, {0})"),
    "negrelu": OpSpec(1, lambda x: np.minimum(0.0, x), "min(0, {0})"),
    "exp2": OpSpec(1, np.exp2, "2^({0})"),
    "exp10": OpSpec(1, lambda x: np.power(10.0, x), "10^({0})"),
    "add": OpSpec(2, np.add, "({0} + {1})"),
    "mul": OpSpec(2, np.multiply, "({0}) * ({1})"),
    "max": OpSpec(2, np.maximum, "max({0}, {1})"),
    "min": OpSpec(2, np.minimum, "min({0}, {1})"),
    "pow": OpSpec(2, np.power, "pow({0}, {1})"),
    "div": OpSpec(2, np.divide, "({0}) / ({1})"),
    # four-slot conditionals: the third slot where the first is below the
    # second (lte4) or below zero (lte0), else the fourth
    "lte4": OpSpec(4, lambda t, c, a, b: np.where(t < c, a, b), "lte4({0}, {1}, {2}, {3})"),
    "lte0": OpSpec(4, lambda t, c, a, b: np.where(t < 0.0, a, b), "lte0({0}, {1}, {2}, {3})"),
}

# grammar-file terminal spellings -> operator names; an operator is spelled
# as its upper-cased name unless listed here
_GRAMMAR_SPELLINGS = {"div": ("DIVIDE", "DIV"), "lte4": ("LTE",)}
GRAMMAR_OP_TOKENS: Dict[str, str] = {
    token: name for name in OPS for token in _GRAMMAR_SPELLINGS.get(name, (name.upper(),))}


# ---------------------------------------------------------------------------
# weight interpretation and variable combos
# ---------------------------------------------------------------------------

def interpret_weight(stored: float, B: float) -> float:
    """Map a stored weight to 0 or a signed value with magnitude in [1e-B, 1e+B]."""
    if abs(stored) > 2.0 * B:
        raise ValueError(f"stored weight {stored} outside [-2B, 2B] for B={B}")
    if stored == 0.0:
        return 0.0
    return math.copysign(10.0 ** (abs(stored) - B), stored)


def vc_column(exponents: Sequence[int], X: np.ndarray) -> np.ndarray:
    """prod_i X[:, i] ** e_i for one variable combo; non-finite results propagate."""
    out = np.ones(X.shape[0])
    with np.errstate(all="ignore"):
        for i, e in enumerate(exponents):
            if e:
                out = out * np.power(X[:, i], float(e))
    return out


def vc_value(vc: VCLeaf, x: Sequence[float]) -> float:
    X = np.asarray(x, dtype=float).reshape(1, -1)
    return float(vc_column(vc.exponents, X)[0])


def repair_all_zero_vc(exponents: List[int], rng) -> List[int]:
    """If every exponent is zero, re-add a random +/-1 exponent on a random dim."""
    if any(exponents):
        return exponents
    out = list(exponents)
    dim = int(rng.integers(len(out)))
    out[dim] = 1 if rng.integers(2) == 0 else -1
    return out


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _eval(node, X: np.ndarray, B: float):
    if isinstance(node, VCLeaf):
        return vc_column(node.exponents, X)
    if isinstance(node, WeightLeaf):
        return np.float64(interpret_weight(node.stored, B))

    sym = node.symbol
    ch = node.children

    if sym == "REPVC":
        val = _eval(ch[0], X, B)
        for c in ch[1:]:
            val = val * _eval(c, X, B)
        return val

    if sym == "REPOP":
        c0 = ch[0]
        if c0.symbol == "REPOP":
            return _eval(c0, X, B) * _eval(ch[1], X, B)
        if c0.symbol == "1OP":
            args = (_eval(ch[1], X, B) + _eval(ch[2], X, B),)
        elif c0.symbol == "2OP":
            args = _eval(ch[1], X, B)
        elif c0.symbol == "4OP":
            args = [_eval(c, X, B) for c in ch[1:]]
        else:
            raise ValueError(f"cannot interpret REPOP child {c0!r}")
        return _mask_nonfinite(OPS[c0.children[0].name].fn(*args), *args)

    if sym == "REPADD":
        if isinstance(ch[0], WeightLeaf):
            return _eval(ch[0], X, B) * _eval(ch[1], X, B)
        return _eval(ch[0], X, B) + _eval(ch[1], X, B)

    if sym == "MAYBEW":
        if len(ch) == 1:
            return _eval(ch[0], X, B)
        return _eval(ch[0], X, B) + _eval(ch[1], X, B)

    if sym == "2ARGS":
        if isinstance(ch[0], WeightLeaf):
            return (_eval(ch[0], X, B) + _eval(ch[1], X, B), _eval(ch[2], X, B))
        return (_eval(ch[0], X, B), _eval(ch[1], X, B) + _eval(ch[2], X, B))

    raise ValueError(f"cannot interpret nonterminal {sym!r}")


def eval_basis_matrix(tree: BasisTree, X: np.ndarray, B: float) -> np.ndarray:
    """Evaluate one basis function over an N x d sample matrix; returns length N."""
    with np.errstate(all="ignore"):
        val = _eval(tree, X, B)
    if np.ndim(val) == 0:
        return np.full(X.shape[0], float(val))
    return val


def eval_basis(tree: BasisTree, x: Sequence[float], B: float) -> float:
    X = np.asarray(x, dtype=float).reshape(1, -1)
    return float(eval_basis_matrix(tree, X, B)[0])


def basis_column(tree: BasisTree, X: np.ndarray, B: float) -> np.ndarray:
    """eval_basis_matrix(tree, X, B), kept on the tree for the last (X, B) asked.

    The kept column is read-only.  It is reused only for the same array
    object X and an equal B, so X must not change in place while the tree
    lives; Dataset arrays are read-only for that reason.
    """
    return stored_column(tree, X, B)[0]


def stored_column(tree: BasisTree, X: np.ndarray, B: float) -> Tuple[np.ndarray, bool]:
    """basis_column(tree, X, B) and whether it is all finite, kept with it."""
    memo = tree._column
    if memo is None or memo[0] is not X or memo[1] != B:
        col = eval_basis_matrix(tree, X, B)
        col.flags.writeable = False
        memo = tree._column = (X, B, col, bool(np.isfinite(col).all()))
    return memo[2], memo[3]


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

@dataclass
class Model:
    """A set of basis trees plus least-squares coefficients and cached scores."""

    bases: List[BasisTree] = field(default_factory=list)
    coeffs: Optional[np.ndarray] = None    # length M+1: offset a0 then one weight per basis
    train_error: float = INF               # percent; +inf marks an invalid individual
    test_error: Optional[float] = None
    complexity: float = 0.0
    valid: bool = False

    @property
    def n_bases(self) -> int:
        return len(self.bases)


def eval_model_matrix(m: Model, X: np.ndarray, B: float) -> np.ndarray:
    """Offset plus each weighted basis column, added in basis order."""
    if m.coeffs is None:
        raise ValueError("model has no fitted coefficients")
    out = np.full(X.shape[0], float(m.coeffs[0]))
    with np.errstate(all="ignore"):
        for j, tree in enumerate(m.bases):
            out = out + float(m.coeffs[j + 1]) * eval_basis_matrix(tree, X, B)
    return out


def eval_model(m: Model, x: Sequence[float], B: float = 10.0) -> float:
    X = np.asarray(x, dtype=float).reshape(1, -1)
    return float(eval_model_matrix(m, X, B)[0])


def nnodes(tree: BasisTree) -> int:
    """Expression-node count: payload leaves only (VCs, weights, operators)."""
    count = 0
    for node, _ in walk(tree):
        if isinstance(node, (VCLeaf, WeightLeaf, OpLeaf)):
            count += 1
    return count


def basis_complexity(tree: BasisTree, wb: float, wvc: float) -> float:
    """wb + nnodes + exponent cost of one basis, kept on the tree per (wb, wvc).

    The exponent cost adds wvc * sum|e| over the variable combos in preorder.
    """
    memo = tree._cpx
    if memo is None or memo[0] != wb or memo[1] != wvc:
        count, cost = 0, 0.0
        stack = [tree]
        while stack:
            node = stack.pop()
            if type(node) is NTNode:
                stack.extend(node.children[::-1])
                continue
            count += 1
            if type(node) is VCLeaf:
                cost += wvc * sum(map(abs, node.exponents))
        memo = tree._cpx = (wb, wvc, wb + count + cost)
    return memo[2]


def complexity_of_bases(bases: Sequence[BasisTree], wb: float, wvc: float) -> float:
    return float(sum(basis_complexity(t, wb, wvc) for t in bases))


def complexity(m: Model, wb: float, wvc: float) -> float:
    """Basis-count, node-count and exponent cost of a model; 0 for a constant."""
    return complexity_of_bases(m.bases, wb, wvc)


# ---------------------------------------------------------------------------
# canonical text rendering
# ---------------------------------------------------------------------------

def _fmt(value: float, sig_figs: int) -> str:
    return f"%.{sig_figs}g" % float(value)


def _vc_text(exponents: Sequence[int], var_names: Sequence[str]) -> Tuple[str, str]:
    """Return (numerator, denominator) strings; either may be empty."""
    num, den = [], []
    for e, name in zip(exponents, var_names):
        if e > 0:
            num.append(name if e == 1 else f"{name}^{e}")
        elif e < 0:
            den.append(name if e == -1 else f"{name}^{-e}")
    def group(parts):
        if not parts:
            return ""
        if len(parts) == 1:
            return parts[0]
        return "(" + "*".join(parts) + ")"
    return group(num), group(den)


def _render(node, var_names, sig_figs, B) -> str:
    if isinstance(node, VCLeaf):
        num, den = _vc_text(node.exponents, var_names)
        if num and den:
            return f"{num} / {den}"
        if num:
            return num
        return f"1 / {den}"
    if isinstance(node, WeightLeaf):
        return _fmt(interpret_weight(node.stored, B), sig_figs)

    sym = node.symbol
    ch = node.children

    if sym == "REPVC":
        return " * ".join(_render(c, var_names, sig_figs, B) for c in ch)

    if sym == "REPOP":
        c0 = ch[0]
        if c0.symbol == "REPOP":
            return " * ".join(_render(c, var_names, sig_figs, B) for c in ch)
        if c0.symbol == "1OP":
            args = (_sum_text(ch[1], ch[2], var_names, sig_figs, B),)
        elif c0.symbol == "2OP":
            args = _two_arg_texts(ch[1], var_names, sig_figs, B)
        elif c0.symbol == "4OP":
            args = [_render(c, var_names, sig_figs, B) for c in ch[1:]]
        else:
            raise ValueError(f"cannot render nonterminal {sym!r}")
        opname = c0.children[0].name
        if opname == "add" and args[1].startswith("-"):
            return f"({args[0]} - {args[1][1:]})"
        return OPS[opname].text.format(*args)

    if sym == "REPADD":
        if isinstance(ch[0], WeightLeaf):
            w = interpret_weight(ch[0].stored, B)
            return _weighted_term_text(w, ch[1], var_names, sig_figs, B)
        left = _render(ch[0], var_names, sig_figs, B)
        right = _render(ch[1], var_names, sig_figs, B)
        if right.startswith("-"):
            return f"{left} - {right[1:]}"
        return f"{left} + {right}"

    if sym == "MAYBEW":
        if len(ch) == 1:
            return _render(ch[0], var_names, sig_figs, B)
        return _sum_text(ch[0], ch[1], var_names, sig_figs, B)

    raise ValueError(f"cannot render nonterminal {sym!r}")


def _sum_text(w_leaf, repadd, var_names, sig_figs, B) -> str:
    """Text for 'W + REPADD' groups."""
    lead = _fmt(interpret_weight(w_leaf.stored, B), sig_figs)
    rest = _render(repadd, var_names, sig_figs, B)
    if rest.startswith("-"):
        return f"{lead} - {rest[1:]}"
    return f"{lead} + {rest}"


def _two_arg_texts(two_args_node, var_names, sig_figs, B):
    ch = two_args_node.children
    if isinstance(ch[0], WeightLeaf):
        return (_sum_text(ch[0], ch[1], var_names, sig_figs, B),
                _render(ch[2], var_names, sig_figs, B))
    return (_render(ch[0], var_names, sig_figs, B),
            _sum_text(ch[1], ch[2], var_names, sig_figs, B))


def _is_pure_vc(tree: BasisTree) -> Optional[VCLeaf]:
    if (isinstance(tree, NTNode) and tree.symbol == "REPVC"
            and len(tree.children) == 1 and isinstance(tree.children[0], VCLeaf)):
        return tree.children[0]
    return None


def _weighted_term_text(coeff: float, body, var_names, sig_figs, B) -> str:
    """Render 'coeff * body', folding pure variable-combo ratios into the coefficient."""
    c_txt = _fmt(coeff, sig_figs)
    vc = body if isinstance(body, VCLeaf) else None
    if vc is None and isinstance(body, NTNode):
        vc = _is_pure_vc(body) if body.symbol == "REPVC" else None
    if vc is not None:
        num, den = _vc_text(vc.exponents, var_names)
        if num and den:
            return f"{c_txt} * {num} / {den}"
        if num:
            return f"{c_txt} * {num}"
        return f"{c_txt} / {den}"
    return f"{c_txt} * {_render(body, var_names, sig_figs, B)}"


def to_canonical_text(m: Model, var_names: Sequence[str], sig_figs: int = 3,
                      log_scaled: bool = False, B: float = 10.0) -> str:
    """Deterministic infix rendering: offset first, then one term per basis."""
    if m.coeffs is None:
        raise ValueError("model has no fitted coefficients")
    parts = [_fmt(m.coeffs[0], sig_figs)]
    for j, tree in enumerate(m.bases):
        c = float(m.coeffs[j + 1])
        sign = "-" if c < 0 else "+"
        body = _weighted_term_text(abs(c), tree, var_names, sig_figs, B)
        parts.append(f"{sign} {body}")
    text = " ".join(parts)
    if log_scaled:
        return f"10^({text})"
    return text


# ---------------------------------------------------------------------------
# structured serialization (bit-exact round trip)
# ---------------------------------------------------------------------------

def tree_to_dict(node) -> dict:
    if isinstance(node, VCLeaf):
        return {"kind": "vc", "exponents": list(node.exponents)}
    if isinstance(node, WeightLeaf):
        return {"kind": "w", "stored": node.stored}
    if isinstance(node, OpLeaf):
        return {"kind": "op", "name": node.name}
    return {"kind": "nt", "symbol": node.symbol, "alt": node.alt,
            "children": [tree_to_dict(c) for c in node.children]}


def tree_from_dict(d: dict):
    kind = d["kind"]
    if kind == "vc":
        return VCLeaf(d["exponents"])
    if kind == "w":
        return WeightLeaf(d["stored"])
    if kind == "op":
        return OpLeaf(d["name"])
    if kind == "nt":
        return NTNode(d["symbol"], int(d["alt"]), [tree_from_dict(c) for c in d["children"]])
    raise ValueError(f"unknown tree node kind {kind!r}")


def model_to_dict(m: Model) -> dict:
    return {
        "bases": [tree_to_dict(t) for t in m.bases],
        "coeffs": None if m.coeffs is None else [float(c) for c in m.coeffs],
        "train_error_pct": m.train_error,
        "test_error_pct": m.test_error,
        "complexity": m.complexity,
        "valid": m.valid,
    }


def model_from_dict(d: dict) -> Model:
    coeffs = d.get("coeffs")
    return Model(
        bases=[tree_from_dict(t) for t in d["bases"]],
        coeffs=None if coeffs is None else np.asarray(coeffs, dtype=float),
        train_error=d.get("train_error_pct", INF),
        test_error=d.get("test_error_pct"),
        complexity=d.get("complexity", 0.0),
        valid=bool(d.get("valid", False)),
    )
