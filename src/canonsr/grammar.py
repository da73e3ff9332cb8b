"""Grammar file parsing, random derivation-tree generation and validation.

The grammar format follows the canonical-form production style: one rule per
logical line ("LHS => alt | alt | ..."), single-quoted terminals, '#'
comments and continuation lines.  The text is the one switch over the search
space: every alternative must be one of the canonical form's, looked up in
expr.SHAPES, and a parsed Grammar never changes.  Generated trees respect the
productions and a depth bound; validate and check_basis check trees through
expr.check_tree.
"""

from __future__ import annotations

import re
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple

from .config import RunConfig
from .draws import floyd_sample
from .expr import (ARITHMETIC, GRAMMAR_OP_TOKENS, OP_ARITY, OPS, PAYLOAD_LEAVES, SHAPES,
                   WEIGHT_LEAVES, BasisTree, NTNode, OpLeaf, Shape, Token, VCLeaf, WeightLeaf,
                   check_tree, new_leaf_record, set_leaf_record, token_text, walk)

START_SYMBOL = "REPVC"
_LAYOUT = {("t", "("), ("t", ")"), ("t", ",")}        # grouping only
_PUNCTUATION = _LAYOUT | ARITHMETIC
_INF = float("inf")
# growth steps for a variable combo and a weight leaf (see Grammar._growth_table)
_VC, _W = object(), object()
# one OpLeaf per operator, shared by every grown tree
_OP_LEAVES = {name: OpLeaf(name) for name in OPS}


class GrammarError(ValueError):
    """Raised for malformed grammar text, non-terminating rule sets and
    alternatives outside the canonical form."""


class Grammar:
    """Production rules keyed by nonterminal, each alternative an entry of
    expr.SHAPES, fixed once built."""

    start = START_SYMBOL

    def __init__(self, rules: Dict[str, Sequence[Shape]]):
        self.rules = {lhs: tuple(alts) for lhs, alts in rules.items()}
        self._min_depth, self._alt_min_depths = self._min_depths()
        self._growth = self._growth_table()

    def min_depth(self, symbol: str) -> float:
        return self._min_depth[symbol]

    def alt_min_depths(self, symbol: str) -> Tuple[float, ...]:
        """Minimum derivation depth through each alternative."""
        return self._alt_min_depths[symbol]

    def _min_depths(self):
        md = {nt: _INF for nt in self.rules}

        def through(alt: Shape) -> float:
            return 1.0 + max((md[r] for k, r in alt.struct if k == "nt"), default=0.0)

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

    def _growth_table(self) -> Dict[str, Tuple[tuple, ...]]:
        """Per symbol, a row indexed by depth budget: the entries
        (alternative index, shape, child steps, weight leaves, payload leaves)
        of the alternatives that fit in that budget.  A row's last element
        holds every alternative and serves all larger budgets.  A child step
        is the symbol of a nonterminal child, the one OpLeaf of an operator,
        or _VC or _W for a leaf to draw; the counts are of the node's own
        payload children, which it adds to its tree's leaf record (see
        expr.new_leaf_record)."""
        top = int(max(max(d) for d in self._alt_min_depths.values()))
        rows = {}
        for nt, alts in self.rules.items():
            entries = []
            for i, shape in enumerate(alts):
                steps = tuple(tok if kind == "nt" else _VC if tok == "VC" else
                              _W if tok == "W" else _OP_LEAVES[tok]
                              for kind, tok in shape.struct)
                weights = sum(step is _W for step in steps)
                leaves = sum(type(step) is not str for step in steps)
                entries.append((i, shape, steps, weights, leaves))
            depths = self._alt_min_depths[nt]
            rows[nt] = tuple(tuple(e for e, d in zip(entries, depths) if d <= budget)
                             for budget in range(top + 1))
        return rows


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
    """Map the terminals of a 1OP/2OP/4OP rule to ('op', name) tokens,
    checking that each is a known operator of the rule's arity."""
    expected = OP_ARITY.get(lhs)
    if expected is None:
        return symbols
    out = []
    for kind, tok in symbols:
        if kind == "t" and (kind, tok) not in _PUNCTUATION:
            canon = GRAMMAR_OP_TOKENS.get(tok.upper())
            if canon is None:
                raise GrammarError(f"line {lineno}: unknown operator terminal {tok!r}")
            if OPS[canon].arity != expected:
                raise GrammarError(
                    f"line {lineno}: operator {tok!r} has arity {OPS[canon].arity}, "
                    f"but rule {lhs} requires arity {expected}")
            kind, tok = "op", canon
        out.append((kind, tok))
    return tuple(out)


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

    alternatives: Dict[str, List[Tuple[int, Tuple[Token, ...]]]] = {}
    for lineno, line in logical:
        lhs_text, rhs_text = line.split("=>", 1)
        lhs = lhs_text.strip()
        if not re.fullmatch(r"\w+", lhs):
            raise GrammarError(f"line {lineno}: bad rule name {lhs!r}")
        alternatives.setdefault(lhs, []).extend(
            (lineno, _canonicalize_ops(lhs, symbols, lineno))
            for symbols in _tokenize_rhs(rhs_text, lineno))

    for lhs, alts in alternatives.items():
        for lineno, symbols in alts:
            for kind, ref in symbols:
                if kind == "nt" and ref not in alternatives:
                    raise GrammarError(f"line {lineno}: undefined nonterminal "
                                       f"{ref!r} referenced from {lhs!r}")
    if START_SYMBOL not in alternatives:
        raise GrammarError(f"start symbol {START_SYMBOL!r} is not defined")
    return Grammar({lhs: [_shape_of(lhs, lineno, symbols) for lineno, symbols in alts]
                    for lhs, alts in alternatives.items()})


def _shape_of(lhs: str, lineno: int, symbols: Tuple[Token, ...]) -> Shape:
    """The canonical-form shape of an alternative; GrammarError if it has none."""
    shape = SHAPES.get((lhs, tuple(t for t in symbols if t not in _LAYOUT)))
    if shape is None:
        raise GrammarError(f"line {lineno}: {lhs} => {token_text(symbols)} is not "
                           f"a canonical-form alternative")
    return shape


def default_grammar_text() -> str:
    return resources.files(f"{__package__}.data").joinpath("canonical.grammar").read_text("utf-8")


def load_default_grammar() -> Grammar:
    return parse_grammar(default_grammar_text())


# ---------------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------------

_VC_INIT_EXPONENTS = (-2, -1, 1, 2)
_VC_INIT_COSTS = tuple(map(abs, _VC_INIT_EXPONENTS))


def _random_vc(n_vars: int, below, record: list) -> VCLeaf:
    # start simple: 1..3 variables present, small exponents; the exponents
    # are ints already, so the leaf takes their tuple without VCLeaf.__init__
    exponents = [0] * n_vars
    cost = 0
    for dim in floyd_sample(below, n_vars, 1 + below(min(3, n_vars))):
        k = below(4)
        exponents[dim] = _VC_INIT_EXPONENTS[k]
        cost += _VC_INIT_COSTS[k]
    record.append(cost)         # the combo's entry in the leaf record
    leaf = object.__new__(VCLeaf)
    leaf.exponents = tuple(exponents)
    return leaf


def random_tree(g: Grammar, max_depth: int, rng, n_vars: int,
                B: float = RunConfig.B, start: Optional[str] = None) -> BasisTree:
    """Grow a random derivation tree of depth <= max_depth from `start`.

    Alternatives are chosen uniformly among those that can still terminate
    within the remaining depth budget; `rng` is the run's `Draws`.  The tree
    keeps the leaf record that basis_complexity prices it from.
    """
    symbol = start or g.start
    if max_depth < g.min_depth(symbol):
        raise ValueError(
            f"max_depth {max_depth} below the minimum derivation depth "
            f"{g.min_depth(symbol):.0f} of {symbol!r}")

    # a float bound admits what its floor admits, since depths are whole;
    # lo + span * random() is the double Generator.uniform(lo, lo + span) draws
    record = new_leaf_record()
    tree = _grow(symbol, int(max_depth), g._growth, rng.below, rng.random, n_vars,
                 -2.0 * B, 4.0 * B, record)
    set_leaf_record(tree, record)
    return tree


def _grow(symbol: str, budget: int, table, below, random, n_vars: int, lo: float,
          span: float, record: list) -> NTNode:
    # a module-level function, not a closure over itself, so that growing a
    # tree leaves no reference cycle for the garbage collector to find.
    # record is the tree's leaf record (see expr.new_leaf_record) so far
    row = table[symbol]
    entries = row[budget] if budget < len(row) else row[-1]
    pick, shape, steps, weights, leaves = entries[below(len(entries))]
    record[WEIGHT_LEAVES] += weights
    record[PAYLOAD_LEAVES] += leaves
    children = []
    for step in steps:
        if step is _W:
            children.append(WeightLeaf(lo + span * random()))
        elif type(step) is str:
            children.append(_grow(step, budget - 1, table, below, random, n_vars, lo, span,
                                  record))
        elif step is _VC:
            children.append(_random_vc(n_vars, below, record))
        else:
            children.append(step)
    return NTNode(symbol, pick, children, shape)


# ---------------------------------------------------------------------------
# validation and crossover sites
# ---------------------------------------------------------------------------

def validate(tree: BasisTree, g: Grammar, max_depth: int = RunConfig.max_depth,
             B: float = RunConfig.B, exp_cap: int = RunConfig.exp_cap,
             n_vars: Optional[int] = None) -> List[str]:
    """Return a list of violations (empty list means the tree is valid): the
    defects check_tree finds against the grammar's alternatives, then the
    root symbol, the depth bound, the exponent cap and all-zero variable
    combos."""
    if not isinstance(tree, NTNode):
        return [f"root is not a nonterminal node: {tree!r}"]
    depth, violations, vcs = check_tree(tree, n_vars, B, g.rules)
    if tree.symbol != g.start:
        violations.append(f"root symbol {tree.symbol!r} != start {g.start!r}")
    if depth > max_depth:
        violations.append(f"depth {depth} exceeds max_depth {max_depth}")
    for vc in vcs:
        if not any(vc.exponents):
            violations.append("all-zero variable combo")
        if max(map(abs, vc.exponents), default=0) > exp_cap:
            violations.append(f"exponent cap {exp_cap} exceeded: {vc.exponents}")
    return violations


def check_basis(tree, n_vars: int, B: float) -> None:
    """Raise ValueError unless `tree` is a basis that can be evaluated: a
    START_SYMBOL root and no check_tree defect.  Alternative indices depend
    on the grammar a model was evolved under and are not checked; evaluation
    never reads them.
    """
    if not isinstance(tree, NTNode) or tree.symbol != START_SYMBOL:
        raise ValueError(f"a basis must be a {START_SYMBOL} node, got {tree!r}")
    defects = check_tree(tree, n_vars, B)[1]
    if defects:
        raise ValueError(defects[0])


def crossover_sites(tree: BasisTree, symbol: str) -> List[NTNode]:
    """All nodes deriving `symbol`, in deterministic preorder."""
    return [node for node, _ in walk(tree)
            if type(node) is NTNode and node.symbol == symbol]
