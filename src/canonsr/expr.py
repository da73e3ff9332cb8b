"""Canonical-form models: basis-function trees, evaluation, complexity, rendering.

A model is an offset plus a least-squares-weighted sum of basis functions.
Each basis function is a derivation tree over the canonical grammar whose
payload leaves are variable combos (integer-exponent products of inputs),
weight nodes (an evolved real, interpreted into a signed decade range) and
operator names.  Evaluation is vectorized over sample matrices, and any
non-finite sub-result poisons the whole basis value at that sample.

SHAPES, built from CANONICAL_FORM, is the one table of the canonical form: the
grammar checks its alternatives in it, and every node keeps its entry, which
evaluation, rendering and check_tree read.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import RunConfig

INF = float("inf")


# ---------------------------------------------------------------------------
# tree nodes
# ---------------------------------------------------------------------------

class VCLeaf:
    """Variable combo: one integer exponent per design variable (0 = absent)."""

    __slots__ = ("exponents",)
    token = ("t", "VC")

    def __init__(self, exponents: Sequence[int]):
        self.exponents = tuple(map(int, exponents))

    def __repr__(self) -> str:
        return f"VCLeaf({list(self.exponents)})"


class WeightLeaf:
    """Evolved weight; stored value lives in [-2B, 2B], interpreted at eval time."""

    __slots__ = ("stored",)
    token = ("t", "W")

    def __init__(self, stored: float):
        self.stored = float(stored)

    def __repr__(self) -> str:
        return f"WeightLeaf({self.stored!r})"


class OpLeaf:
    """Operator choice made under a 1OP/2OP/4OP nonterminal."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    @property
    def token(self) -> Tuple[str, str]:
        return ("op", self.name)

    def __repr__(self) -> str:
        return f"OpLeaf({self.name!r})"


class NTNode:
    """Nonterminal node: grammar symbol, chosen alternative index, children.

    Nodes never change once built, so trees share subtrees freely.  A node
    keeps its canonical-form shape (None outside the form): the `shape` its
    builder passes, which must be the entry for these children, or else the
    one looked up by its children's tokens.  A node used as a basis also
    keeps values derived from it: its complexity and leaf counts (see
    basis_complexity) and its column on one sample matrix (see
    stored_column).  They die with the node.  Variable-combo columns are
    not kept on nodes: evaluation under stored_column shares them between
    trees through one bounded table, read-only and per X array object.
    """

    __slots__ = ("symbol", "alt", "children", "shape", "_cpx", "_column")

    def __init__(self, symbol: str, alt: int, children: Sequence,
                 shape: Optional[Shape] = None):
        self.symbol = symbol
        self.alt = alt
        self.children = tuple(children)
        self.shape = shape or _BY_CHILDREN.get((symbol, tuple(map(_token, self.children))))
        self._cpx = None
        self._column = None

    @property
    def token(self) -> Tuple[str, str]:
        return ("nt", self.symbol)

    def __repr__(self) -> str:
        return f"NTNode({self.symbol}, alt={self.alt}, n={len(self.children)})"


# a basis function is an NTNode whose symbol is the grammar start symbol
BasisTree = NTNode

Path = Tuple[int, ...]   # child indices from a root down to one node


def walk(tree: NTNode) -> List[Tuple[object, Path]]:
    """(node, path) over the whole tree, preorder.

    A node's level in nonterminal expansions is len(path) + 1: the root is
    level 1, and a payload leaf sits one level below its parent.
    """
    out = []
    stack = [(tree, ())]
    while stack:
        item = stack.pop()
        out.append(item)
        node, path = item
        if type(node) is NTNode:
            ch = node.children
            for i in range(len(ch) - 1, -1, -1):
                stack.append((ch[i], path + (i,)))
    return out


def tree_depth(tree: NTNode) -> int:
    """Depth in nonterminal levels; a bare REPVC -> 'VC' tree has depth 1."""
    return check_tree(tree)[0]


def replace_at(tree: NTNode, path: Path, new) -> NTNode:
    """`tree` with its node at `path` replaced by `new`.

    Only the nodes along the path are rebuilt; every other subtree is shared
    with `tree`, which is left as it was.  A rebuilt node keeps its shape,
    except the parent of a `new` that differs from the old node in kind,
    symbol or operator, which looks its shape up.
    """
    if not path:
        return new
    i = path[0]
    ch = tree.children
    same = len(path) > 1 or new.token == ch[i].token
    return NTNode(tree.symbol, tree.alt,
                  ch[:i] + (replace_at(ch[i], path[1:], new),) + ch[i + 1:],
                  tree.shape if same else None)


# ---------------------------------------------------------------------------
# operator table
# ---------------------------------------------------------------------------

def _mask_nonfinite(result, *inputs):
    # any non-finite input poisons the output; guards ops like max(0, -inf) -> 0
    bad = None
    for v in inputs:
        b = ~np.isfinite(v)
        bad = b if bad is None else (bad | b)
    if bad is not None and bad.any():
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
# the canonical form
# ---------------------------------------------------------------------------

# Every alternative of the canonical form, in grammar text: the packaged
# grammar file, its commented 4OP rule included, without layout terminals.
# '+' or '*' joins the children on either side into one term.  A node whose
# first child is an operator nonterminal applies that operator to its other
# terms; 2ARGS hands its two terms on as the operator's arguments.
CANONICAL_FORM = {
    "REPVC": "'VC' | REPVC '*' REPOP | REPOP",
    "REPOP": "REPOP '*' REPOP | 1OP 'W' '+' REPADD | 2OP 2ARGS"
             " | 4OP MAYBEW MAYBEW MAYBEW MAYBEW",
    "2ARGS": "'W' '+' REPADD MAYBEW | MAYBEW 'W' '+' REPADD",
    "MAYBEW": "'W' | 'W' '+' REPADD",
    "REPADD": "'W' '*' REPVC | REPADD '+' REPADD",
}
# an operator nonterminal holds one operator of its arity
OP_ARITY = {"1OP": 1, "2OP": 2, "4OP": 4}

Token = Tuple[str, str]   # ('nt', symbol) | ('t', 'VC' | 'W' | '+' | '*') | ('op', name)
ARITHMETIC = {("t", "+"), ("t", "*")}


@dataclass(frozen=True, eq=False)
class Shape:
    """One canonical-form alternative and how its children combine.

    A node of this shape evaluates (or renders) each term: one child, or two
    joined by '+' or '*'.  It applies the operator of child 0 to the terms if
    `applies`; otherwise it gives its one term, or its terms as arguments.
    """

    symbol: str
    signature: Tuple[Token, ...]         # its grammar tokens, arithmetic included
    struct: Tuple[Token, ...]            # the tokens of its children
    terms: Tuple[Tuple[int, str], ...]   # (child index, '+' or '*' joining the next child, or '')
    applies: bool = False                # child 0 is an operator nonterminal
    op: Optional[OpSpec] = None          # the operator an operator nonterminal holds


def _shape(symbol: str, signature: Tuple[Token, ...], op: Optional[OpSpec] = None) -> Shape:
    struct = tuple(t for t in signature if t not in ARITHMETIC)
    # per child, the arithmetic terminal joining it to the next child, or ''
    joins = [b[1] if b in ARITHMETIC else "" for a, b in zip(signature, signature[1:] + (None,))
             if a not in ARITHMETIC]
    # a term starts at every child that is not joined to the one before it
    terms = tuple((i, join) for i, join in enumerate(joins) if i == 0 or not joins[i - 1])
    applies = struct[0][1] in OP_ARITY
    return Shape(symbol, signature, struct, terms[applies:], applies, op)


def _signature(text: str) -> Tuple[Token, ...]:
    return tuple(("t", w.strip("'")) if w.startswith("'") else ("nt", w) for w in text.split())


_ENTRIES = ([_shape(symbol, _signature(alt)) for symbol, text in CANONICAL_FORM.items()
             for alt in text.split("|")]
            + [_shape(symbol, (("op", name),), spec) for symbol, arity in OP_ARITY.items()
               for name, spec in OPS.items() if spec.arity == arity])
# (symbol, signature) -> shape, operator choices included
SHAPES = {(shape.symbol, shape.signature): shape for shape in _ENTRIES}
# the same shapes by (symbol, child tokens), which is what a node holds
_BY_CHILDREN = {(shape.symbol, shape.struct): shape for shape in SHAPES.values()}
_PURE_VC = _BY_CHILDREN[("REPVC", (VCLeaf.token,))]
_ADD = OPS["add"]
_token = attrgetter("token")


def token_text(tokens) -> str:
    """Tokens as grammar text: nonterminals bare, everything else quoted."""
    return " ".join(tok if kind == "nt" else f"'{tok}'" for kind, tok in tokens)


def _off_form(node: NTNode) -> str:
    return f"{node.symbol} => {token_text(map(_token, node.children))} is not canonical form"


def _refuse(node: NTNode):
    """Raise the ValueError for a node outside the canonical form."""
    raise ValueError(_off_form(node))


def check_tree(tree: NTNode, n_vars: Optional[int] = None, B: float = INF,
               alternatives: Optional[Dict[str, Sequence[Shape]]] = None
               ) -> Tuple[int, List[str], List[VCLeaf]]:
    """(depth, defects, variable combos) of `tree`, in one pass, level by level.

    Defects are nodes outside the canonical form (given `alternatives`, a
    grammar's shapes by symbol and alternative index: nodes of an unknown
    symbol, out of range or off their alternative's shape), variable combos that are not n_vars exponents within float range
    (given n_vars) and stored weights outside [-2B, 2B].
    """
    depth, defects, vcs = 0, [], []
    level, nodes = 0, [tree]
    while nodes:
        level += 1
        below = []
        for node in nodes:
            kind = type(node)
            if kind is NTNode:
                depth = level
                below += node.children
                if alternatives is None:
                    if node.shape is None:
                        defects.append(_off_form(node))
                else:
                    alts = alternatives.get(node.symbol)
                    if alts is None:
                        defects.append(f"unknown nonterminal {node.symbol!r}")
                    elif not 0 <= node.alt < len(alts):
                        defects.append(f"{node.symbol}: alternative index {node.alt} "
                                       f"out of range")
                    elif alts[node.alt] is not node.shape:
                        defects.append(f"{node.symbol}: expected "
                                       f"{token_text(alts[node.alt].struct)}, got "
                                       f"{token_text(map(_token, node.children))}")
            elif kind is VCLeaf:
                vcs.append(node)
                e = node.exponents
                if n_vars is not None and (len(e) != n_vars
                                           or max(map(abs, e), default=0) > 1e308):
                    defects.append(f"variable combo {list(e)} is not {n_vars} exponents "
                                   f"within float range")
            elif kind is WeightLeaf and not abs(node.stored) <= 2.0 * B:
                defects.append(f"weight bound: stored weight {node.stored} outside [-2B, 2B] "
                               f"for B={B}")
        nodes = below
    return depth, defects, vcs


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
    """prod_i X[:, i] ** e_i for one variable combo; non-finite results propagate.

    Callers hold np.errstate, as eval_basis_matrix does.  The product starts
    from the first power, which equals 1.0 times it for every double.  This
    function keeps nothing; evaluation under stored_column shares its outputs,
    made read-only, through a bounded table per X array object (_ComboTable).
    """
    out = None
    for i, e in enumerate(exponents):
        if e:
            power = np.power(X[:, i], float(e))
            out = power if out is None else out * power
    return np.ones(X.shape[0]) if out is None else out


# The combo-column table holds at most this many doubles (256 KiB): about 400
# columns of 81 rows, 134 of 243 and none of more than 32,768.
COMBO_TABLE_DOUBLES = 2 ** 15


class _ComboTable:
    """Variable-combo columns on one sample matrix, keyed by exponent tuple.

    Each column is vc_column's own output, made read-only.  The table serves
    the one X array object that stored_column last bound; binding another
    object empties it, even when its values are equal, so X must not change
    in place while it is bound (Dataset arrays are read-only).  Every column
    has X's row count, so the table holds at most COMBO_TABLE_DOUBLES doubles
    by holding at most `most` columns; it evicts the least recently used.
    """

    __slots__ = ("X", "columns", "most")

    def __init__(self):
        self.X = None
        self.columns: OrderedDict[Tuple[int, ...], np.ndarray] = OrderedDict()
        self.most = 0

    def bind(self, X: np.ndarray) -> None:
        if X is not self.X:
            self.X = X
            self.columns.clear()
            self.most = COMBO_TABLE_DOUBLES // max(X.shape[0], 1)

    def column(self, exponents: Tuple[int, ...]) -> np.ndarray:
        columns = self.columns
        col = columns.get(exponents)
        if col is not None:
            columns.move_to_end(exponents)
            return col
        col = vc_column(exponents, self.X)
        col.flags.writeable = False
        if self.most:
            if len(columns) == self.most:
                columns.popitem(last=False)
            columns[exponents] = col
        return col


_COMBOS = _ComboTable()


def repair_all_zero_vc(exponents: List[int], rng) -> List[int]:
    """If every exponent is zero, re-add a random +/-1 exponent on a random dim."""
    if any(exponents):
        return exponents
    out = list(exponents)
    dim = rng.below(len(out))
    out[dim] = 1 if rng.below(2) == 0 else -1
    return out


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _eval(node, X: np.ndarray, B: float):
    kind = type(node)
    if kind is VCLeaf:
        if X is _COMBOS.X:
            return _COMBOS.column(node.exponents)
        return vc_column(node.exponents, X)
    if kind is WeightLeaf:
        return np.float64(interpret_weight(node.stored, B))
    ch = node.children
    shape = node.shape or _refuse(node)
    args = []
    for i, join in shape.terms:
        val = _eval(ch[i], X, B)
        if join == "*":
            val = val * _eval(ch[i + 1], X, B)
        elif join == "+":
            val = val + _eval(ch[i + 1], X, B)
        if type(val) is tuple:
            args.extend(val)
        else:
            args.append(val)
    if shape.applies:
        fn = (ch[0].shape or _refuse(ch[0])).op.fn
        return _mask_nonfinite(fn(*args), *args)
    return args[0] if len(args) == 1 else tuple(args)


def eval_basis_matrix(tree: BasisTree, X: np.ndarray, B: float) -> np.ndarray:
    """Evaluate one basis function over an N x d sample matrix; returns length N.

    On the X that stored_column last bound, a basis that is one variable
    combo returns the combo table's read-only column itself.
    """
    with np.errstate(all="ignore"):
        val = _eval(tree, X, B)
    if np.ndim(val) == 0:
        return np.full(X.shape[0], float(val))
    return val


def stored_column(tree: BasisTree, X: np.ndarray, B: float) -> Tuple[np.ndarray, bool]:
    """eval_basis_matrix(tree, X, B) and whether it is all finite, kept on the
    tree for the last (X, B) asked.

    The kept column is read-only.  It is reused only for the same array
    object X and an equal B, so X must not change in place while the tree
    lives; Dataset arrays are read-only for that reason.  On a miss it binds
    X to the combo table (_ComboTable), so that the tree's variable combos
    are read from the columns shared by every tree evaluated on X.
    """
    memo = tree._column
    if memo is None or memo[0] is not X or memo[1] != B:
        _COMBOS.bind(X)
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


def basis_complexity(tree: BasisTree, wb: float, wvc: float) -> float:
    """wb + payload-leaf count + exponent cost of one basis, kept on the tree per
    (wb, wvc) together with its leaf counts (see leaf_count).

    The exponent cost adds wvc * sum|e| over the variable combos in preorder.
    """
    memo = tree._cpx
    if memo is None or memo[0] != wb or memo[1] != wvc:
        count, weights, vcs, cost = 0, 0, 0, 0.0
        stack = [tree]
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is NTNode:
                stack.extend(node.children[::-1])
                continue
            count += 1
            if kind is VCLeaf:
                vcs += 1
                cost += wvc * sum(map(abs, node.exponents))
            elif kind is WeightLeaf:
                weights += 1
        memo = tree._cpx = (wb, wvc, wb + count + cost, weights, vcs)
    return memo[2]


def leaf_count(tree: BasisTree, leaf_type) -> int:
    """How many WeightLeaf or VCLeaf leaves one basis holds, counted by the
    walk that finds its complexity: one walk per basis serves both."""
    if tree._cpx is None:
        basis_complexity(tree, 0.0, 0.0)
    return tree._cpx[3 if leaf_type is WeightLeaf else 4]


def complexity_of_bases(bases: Sequence[BasisTree], wb: float, wvc: float) -> float:
    return float(sum(basis_complexity(t, wb, wvc) for t in bases))


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


def _render(node, var_names, sig_figs, B):
    kind = type(node)
    if kind is VCLeaf:
        num, den = _vc_text(node.exponents, var_names)
        if num and den:
            return f"{num} / {den}"
        if num:
            return num
        return f"1 / {den}"
    if kind is WeightLeaf:
        return _fmt(interpret_weight(node.stored, B), sig_figs)
    ch = node.children
    shape = node.shape or _refuse(node)
    texts = []
    for i, join in shape.terms:
        text = _render(ch[i], var_names, sig_figs, B)
        if join:
            right = _render(ch[i + 1], var_names, sig_figs, B)
            text = _plus(text, right) if join == "+" else _times(text, ch[i + 1], right)
        if type(text) is tuple:
            texts.extend(text)
        else:
            texts.append(text)
    if shape.applies:
        op = (ch[0].shape or _refuse(ch[0])).op
        return f"({_plus(*texts)})" if op is _ADD else op.text.format(*texts)
    return texts[0] if len(texts) == 1 else tuple(texts)


def _plus(left: str, right: str) -> str:
    """'left + right', folding a leading '-' of right into ' - '."""
    if right.startswith("-"):
        return f"{left} - {right[1:]}"
    return f"{left} + {right}"


def _times(left: str, body: NTNode, right: str) -> str:
    """'left * right' for the text `right` of `body`; a pure variable combo
    without numerator folds its '1 / den' into 'left / den'."""
    if body.shape is _PURE_VC and not any(e > 0 for e in body.children[0].exponents):
        return f"{left} / {right[4:]}"
    return f"{left} * {right}"


def to_canonical_text(m: Model, var_names: Sequence[str], sig_figs: int = RunConfig.sig_figs,
                      log_scaled: bool = False, B: float = RunConfig.B) -> str:
    """Deterministic infix rendering: offset first, then one term per basis."""
    if m.coeffs is None:
        raise ValueError("model has no fitted coefficients")
    parts = [_fmt(m.coeffs[0], sig_figs)]
    for j, tree in enumerate(m.bases):
        c = float(m.coeffs[j + 1])
        sign = "-" if c < 0 else "+"
        body = _times(_fmt(abs(c), sig_figs), tree, _render(tree, var_names, sig_figs, B))
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


def _is_integral(e) -> bool:
    return type(e) is int or (type(e) is float and e.is_integer())


def _number(value, name: str) -> float:
    """`value`, an int or a float (not a bool or a string), as a float."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _flag(value, name: str) -> bool:
    """`value`, a JSON true or false (not a number or a string), as a bool."""
    if type(value) is not bool:
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def tree_from_dict(d: dict):
    """The tree `d` describes; ValueError for an exponent or alternative
    index that is not an integer (a bool, a fraction or any other type),
    which int() would cut, and for a stored weight that is not a number."""
    kind = d["kind"]
    if kind == "vc":
        exponents = d["exponents"]
        if not all(map(_is_integral, exponents)):
            raise ValueError(f"variable combo {list(exponents)} needs integer exponents")
        return VCLeaf(exponents)
    if kind == "w":
        return WeightLeaf(_number(d["stored"], "stored weight"))
    if kind == "op":
        return OpLeaf(d["name"])
    if kind == "nt":
        if not _is_integral(d["alt"]):
            raise ValueError(f"alternative index {d['alt']!r} is not an integer")
        return NTNode(d["symbol"], int(d["alt"]), list(map(tree_from_dict, d["children"])))
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
        coeffs=None if coeffs is None else np.array([_number(c, "coeffs entry") for c in coeffs]),
        train_error=d.get("train_error_pct", INF),
        test_error=d.get("test_error_pct"),
        complexity=d.get("complexity", 0.0),
        valid=_flag(d.get("valid", False), "valid"),
    )
