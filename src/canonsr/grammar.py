"""Grammar file parsing, random derivation-tree generation and validation.

The grammar format follows the canonical-form production style: one rule per
logical line ("LHS => alt | alt | ..."), single-quoted terminals, '#'
comments and continuation lines.  The text is the one switch over the search
space: every alternative must be one of the canonical form's, and a parsed
Grammar never changes.  Generated trees respect the productions and a depth
bound.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple

from .expr import (GRAMMAR_OP_TOKENS, OPS, BasisTree, NTNode, OpLeaf, VCLeaf,
                   WeightLeaf, walk)

START_SYMBOL = "REPVC"
_LAYOUT = {"(", ")", ","}        # grouping only
_ARITHMETIC = {"+", "*"}         # how a node's children combine
_PUNCTUATION = _LAYOUT | _ARITHMETIC
_OP_ARITY = {"1OP": 1, "2OP": 2, "4OP": 4}
_INF = float("inf")


class GrammarError(ValueError):
    """Raised for malformed grammar text, non-terminating rule sets and
    alternatives outside the canonical form."""


@dataclass(frozen=True)
class Alternative:
    """One right-hand-side alternative: ('nt'|'t', token) pairs and its line."""

    symbols: Tuple[Tuple[str, str], ...]
    line: int = 0

    @cached_property
    def signature(self) -> Tuple[Tuple[str, str], ...]:
        # symbols without layout terminals: what the canonical-form check compares
        return _without(self.symbols, _LAYOUT)

    @cached_property
    def struct(self) -> Tuple[Tuple[str, str], ...]:
        # structural symbols only: punctuation terminals carry no tree content
        return _without(self.symbols, _PUNCTUATION)

    def nt_refs(self) -> List[str]:
        return [v for k, v in self.symbols if k == "nt"]


def _without(symbols, terminals) -> Tuple[Tuple[str, str], ...]:
    return tuple((k, v) for k, v in symbols if not (k == "t" and v in terminals))


class Grammar:
    """Canonical-form production rules keyed by nonterminal, fixed once built."""

    start = START_SYMBOL

    def __init__(self, rules: Dict[str, Sequence[Alternative]]):
        self.rules = {lhs: tuple(alts) for lhs, alts in rules.items()}
        self._check()
        self._min_depth, self._alt_min_depths = self._min_depths()
        for lhs, alts in self.rules.items():
            for alt in alts:
                if not _canonical(lhs, alt.signature, _SIGNATURES):
                    raise GrammarError(
                        f"line {alt.line}: {lhs} => {_text(alt.symbols)} is not "
                        f"a canonical-form alternative")

    @property
    def nonterminals(self) -> List[str]:
        return list(self.rules)

    def min_depth(self, symbol: str) -> float:
        return self._min_depth[symbol]

    def alt_min_depths(self, symbol: str) -> Tuple[float, ...]:
        """Minimum derivation depth through each alternative."""
        return self._alt_min_depths[symbol]

    def _check(self) -> None:
        if not self.rules:
            raise GrammarError("grammar defines no rules")
        for lhs, alts in self.rules.items():
            for alt in alts:
                for ref in alt.nt_refs():
                    if ref not in self.rules:
                        raise GrammarError(f"line {alt.line}: undefined nonterminal "
                                           f"{ref!r} referenced from {lhs!r}")
        if self.start not in self.rules:
            raise GrammarError(f"start symbol {self.start!r} is not defined")

    def _min_depths(self):
        md = {nt: _INF for nt in self.rules}

        def through(alt: Alternative) -> float:
            return 1.0 + max((md[r] for r in alt.nt_refs()), default=0.0)

        changed = True
        while changed:
            changed = False
            for nt, alts in self.rules.items():
                for alt in alts:
                    cand = through(alt)
                    if cand < md[nt]:
                        md[nt] = cand
                        changed = True
        dead = sorted(nt for nt, v in md.items() if v == _INF)
        if dead:
            raise GrammarError(
                f"no terminating derivation for nonterminal(s): {', '.join(dead)}")
        return md, {nt: tuple(through(alt) for alt in alts)
                    for nt, alts in self.rules.items()}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# a line up to its comment: '#' starts one outside single quotes only
_UNCOMMENTED = re.compile(r"(?:'[^']*'?|[^'#])*")
_TOKEN = re.compile(r"'([^']*)'|(\w+)|(\|)|(\S)")


def _tokenize_rhs(text: str, lineno: int) -> List[Tuple[Tuple[str, str], ...]]:
    """A rule's right-hand side as alternatives of ('nt'|'t', token) pairs."""
    alts: List[Tuple[Tuple[str, str], ...]] = []
    tokens: List[Tuple[str, str]] = []
    for quoted, name, bar, other in _TOKEN.findall(text):
        if bar:
            alts.append(tuple(tokens))
            tokens = []
        elif other == "'":
            raise GrammarError(f"line {lineno}: unterminated quote")
        elif other:
            raise GrammarError(f"line {lineno}: unexpected character {other!r}")
        else:
            tokens.append(("nt", name) if name else ("t", quoted))
    alts.append(tuple(tokens))
    if not all(alts):
        raise GrammarError(f"line {lineno}: empty alternative")
    return alts


def _canonicalize_ops(lhs: str, symbols, lineno: int):
    """Map the terminals of a 1OP/2OP/4OP rule to operator names, checking
    that each is a known operator of the rule's arity."""
    expected = _OP_ARITY.get(lhs)
    if expected is None:
        return symbols
    out = []
    for kind, tok in symbols:
        if kind == "t" and tok not in _PUNCTUATION:
            canon = GRAMMAR_OP_TOKENS.get(tok.upper())
            if canon is None:
                raise GrammarError(f"line {lineno}: unknown operator terminal {tok!r}")
            if OPS[canon].arity != expected:
                raise GrammarError(
                    f"line {lineno}: operator {tok!r} has arity {OPS[canon].arity}, "
                    f"but rule {lhs} requires arity {expected}")
            tok = canon
        out.append((kind, tok))
    return tuple(out)


# The canonical form: every alternative of the packaged grammar file, its
# commented 4OP rule included, without layout terminals.  An alternative of
# 1OP, 2OP or 4OP is one operator of that arity instead.
_SIGNATURES = {lhs: set(_tokenize_rhs(rhs, 0)) for lhs, rhs in {
    "REPVC": "'VC' | REPVC '*' REPOP | REPOP",
    "REPOP": "REPOP '*' REPOP | 1OP 'W' '+' REPADD | 2OP 2ARGS"
             " | 4OP MAYBEW MAYBEW MAYBEW MAYBEW",
    "2ARGS": "'W' '+' REPADD MAYBEW | MAYBEW 'W' '+' REPADD",
    "MAYBEW": "'W' | 'W' '+' REPADD",
    "REPADD": "'W' '*' REPVC | REPADD '+' REPADD",
}.items()}
# the same alternatives as the children a tree node holds
_CANONICAL = {lhs: {_without(sig, _ARITHMETIC) for sig in sigs}
              for lhs, sigs in _SIGNATURES.items()}


def _canonical(lhs: str, tokens, table) -> bool:
    """Whether tokens are a canonical-form alternative of `lhs` in `table`:
    _SIGNATURES for grammar alternatives, _CANONICAL for tree nodes.

    Tree checks pass operator leaves as ('op', name), so they never match a
    grammar token of the table.
    """
    arity = _OP_ARITY.get(lhs)
    if arity is None:
        return tokens in table.get(lhs, ())
    return (len(tokens) == 1 and tokens[0][0] != "nt" and tokens[0][1] in OPS
            and OPS[tokens[0][1]].arity == arity)


def _text(symbols) -> str:
    return " ".join(tok if kind == "nt" else f"'{tok}'" for kind, tok in symbols)


def parse_grammar(text: str) -> Grammar:
    """Parse grammar text into a Grammar; raises GrammarError on any defect."""
    logical: List[Tuple[int, str]] = []       # (first line number, joined text)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _UNCOMMENTED.match(raw).group().strip()
        if not line:
            continue
        if "=>" in line:
            logical.append((lineno, line))
        else:
            # a wrapped line continues the previous rule; '|' characters alone
            # delimit alternatives, so a plain space join is always correct
            if not logical:
                raise GrammarError(f"line {lineno}: continuation before any rule")
            first, prev = logical[-1]
            logical[-1] = (first, prev + " " + line)

    if not logical:
        raise GrammarError("empty grammar file")

    rules: Dict[str, List[Alternative]] = {}
    for lineno, line in logical:
        lhs_text, rhs_text = line.split("=>", 1)
        lhs = lhs_text.strip()
        if not re.fullmatch(r"\w+", lhs):
            raise GrammarError(f"line {lineno}: bad rule name {lhs!r}")
        bucket = rules.setdefault(lhs, [])
        for symbols in _tokenize_rhs(rhs_text, lineno):
            bucket.append(Alternative(_canonicalize_ops(lhs, symbols, lineno), lineno))

    return Grammar(rules)


def default_grammar_text() -> str:
    return resources.files("canonsr.data").joinpath("canonical.grammar").read_text("utf-8")


def load_default_grammar() -> Grammar:
    return parse_grammar(default_grammar_text())


# ---------------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------------

_VC_INIT_EXPONENTS = (-2, -1, 1, 2)


def _random_vc(n_vars: int, rng) -> VCLeaf:
    # start simple: 1..3 variables present, small exponents
    k = int(rng.integers(1, min(3, n_vars) + 1))
    dims = rng.choice(n_vars, size=k, replace=False)
    exponents = [0] * n_vars
    for dim in dims:
        exponents[int(dim)] = int(_VC_INIT_EXPONENTS[int(rng.integers(4))])
    return VCLeaf(exponents)


def random_tree(g: Grammar, max_depth: int, rng, n_vars: int,
                B: float = 10.0, start: Optional[str] = None) -> BasisTree:
    """Grow a random derivation tree of depth <= max_depth from `start`.

    Alternatives are chosen uniformly among those that can still terminate
    within the remaining depth budget.
    """
    symbol = start or g.start
    if max_depth < g.min_depth(symbol):
        raise ValueError(
            f"max_depth {max_depth} below the minimum derivation depth "
            f"{g.min_depth(symbol):.0f} of {symbol!r}")

    def gen(sym: str, budget: int) -> NTNode:
        alts = g.rules[sym]
        feasible = [i for i, d in enumerate(g.alt_min_depths(sym)) if d <= budget]
        pick = feasible[int(rng.integers(len(feasible)))]
        children = []
        for kind, tok in alts[pick].struct:
            if kind == "nt":
                children.append(gen(tok, budget - 1))
            elif tok == "VC":
                children.append(_random_vc(n_vars, rng))
            elif tok == "W":
                children.append(WeightLeaf(float(rng.uniform(-2.0 * B, 2.0 * B))))
            else:
                children.append(OpLeaf(tok))
        return NTNode(sym, pick, children)

    return gen(symbol, max_depth)


# ---------------------------------------------------------------------------
# validation and crossover sites
# ---------------------------------------------------------------------------

def validate(tree: BasisTree, g: Grammar, max_depth: int = 8, B: float = 10.0,
             exp_cap: int = 5, n_vars: Optional[int] = None) -> List[str]:
    """Return a list of violations (empty list means the tree is valid)."""
    violations: List[str] = []
    if not isinstance(tree, NTNode):
        return [f"root is not a nonterminal node: {tree!r}"]
    if tree.symbol != g.start:
        violations.append(f"root symbol {tree.symbol!r} != start {g.start!r}")

    for node, path in walk(tree):
        if isinstance(node, NTNode):
            level = len(path) + 1
            if level > max_depth:
                violations.append(f"depth {level} exceeds max_depth {max_depth}")
            alts = g.rules.get(node.symbol)
            if alts is None:
                violations.append(f"unknown nonterminal {node.symbol!r}")
                continue
            if not (0 <= node.alt < len(alts)):
                violations.append(f"{node.symbol}: alternative index {node.alt} out of range")
                continue
            want = tuple(("op" if node.symbol in _OP_ARITY else kind, tok)
                         for kind, tok in alts[node.alt].struct)
            got = tuple(_token(child) for child in node.children)
            if got != want:
                violations.append(f"{node.symbol}: expected {_text(want)}, got {_text(got)}")
        elif isinstance(node, WeightLeaf):
            if abs(node.stored) > 2.0 * B:
                violations.append(f"weight bound: |{node.stored}| > 2B with B={B}")
        elif isinstance(node, VCLeaf):
            if not any(node.exponents):
                violations.append("all-zero variable combo")
            if any(abs(e) > exp_cap for e in node.exponents):
                violations.append(f"exponent cap {exp_cap} exceeded: {node.exponents}")
            if n_vars is not None and len(node.exponents) != n_vars:
                violations.append(
                    f"variable combo length {len(node.exponents)} != {n_vars} variables")
    return violations


def check_basis(tree, n_vars: int, B: float) -> None:
    """Raise ValueError unless `tree` is a canonical-form basis that can be
    evaluated: children as in _CANONICAL, n_vars exponents per variable combo
    and stored weights in [-2B, 2B].  Alternative indices depend on the grammar
    a model was evolved under and are not checked; evaluation never reads them.
    """
    if not isinstance(tree, NTNode) or tree.symbol != START_SYMBOL:
        raise ValueError(f"a basis must be a {START_SYMBOL} node, got {tree!r}")
    for node, _ in walk(tree):
        if isinstance(node, NTNode):
            struct = tuple(_token(child) for child in node.children)
            if not _canonical(node.symbol, struct, _CANONICAL):
                raise ValueError(f"{node.symbol} => {_text(struct)} is not canonical form")
        elif isinstance(node, VCLeaf):
            if len(node.exponents) != n_vars or any(abs(e) > 1e308 for e in node.exponents):
                raise ValueError(f"variable combo {list(node.exponents)} is not "
                                 f"{n_vars} exponents within float range")
        elif isinstance(node, WeightLeaf) and not abs(node.stored) <= 2.0 * B:
            raise ValueError(f"stored weight {node.stored} outside [-2B, 2B] for B={B}")


_LEAF_TOKENS = {VCLeaf: ("t", "VC"), WeightLeaf: ("t", "W")}


def _token(node) -> Tuple[str, str]:
    """A tree node as the structural token it stands for."""
    if isinstance(node, NTNode):
        return ("nt", node.symbol)
    if isinstance(node, OpLeaf):
        return ("op", node.name)
    return _LEAF_TOKENS.get(type(node), ("?", repr(node)))


def crossover_sites(tree: BasisTree, symbol: str) -> List[NTNode]:
    """All nodes deriving `symbol`, in deterministic preorder."""
    return [node for node, _ in walk(tree)
            if isinstance(node, NTNode) and node.symbol == symbol]
