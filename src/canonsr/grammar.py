"""Grammar file parsing, random derivation-tree generation and validation.

The grammar format follows the canonical-form production style: one rule per
logical line ("LHS => alt | alt | ..."), single-quoted terminals, '#'
comments, continuation lines, and per-alternative enable flags.  Generated
trees are guaranteed to respect the productions and a depth bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Dict, List, Optional, Tuple

from .expr import (GRAMMAR_OP_TOKENS, OPS, BasisTree, NTNode, OpLeaf, VCLeaf,
                   WeightLeaf, walk)

START_SYMBOL = "REPVC"
_PUNCTUATION = {"(", ")", "+", "*", ","}
_INF = float("inf")


class GrammarError(ValueError):
    """Raised for malformed grammar text or non-terminating rule sets."""


@dataclass
class Alternative:
    """One right-hand-side alternative: ('nt'|'t', token) pairs plus metadata."""

    symbols: Tuple[Tuple[str, str], ...]
    enabled: bool = True

    @cached_property
    def struct(self) -> Tuple[Tuple[str, str], ...]:
        # structural symbols only: punctuation terminals carry no tree content
        return tuple((k, v) for k, v in self.symbols
                     if not (k == "t" and v in _PUNCTUATION))

    def nt_refs(self) -> List[str]:
        return [v for k, v in self.symbols if k == "nt"]


class Grammar:
    """Production rules keyed by nonterminal, with per-alternative enable flags."""

    def __init__(self, rules: Dict[str, List[Alternative]], start: str = START_SYMBOL):
        self.rules = rules
        self.start = start
        self._min_depth: Dict[str, float] = {}
        self._alt_min_depths: Dict[str, Tuple[float, ...]] = {}
        self._check()
        self._recompute_min_depths()

    @property
    def nonterminals(self) -> List[str]:
        return list(self.rules)

    def set_enabled(self, lhs: str, alt_index: int, enabled: bool) -> None:
        self._set_flags([self.rules[lhs][alt_index]], enabled)

    def disable_operator(self, op_token: str) -> None:
        """Disable every single-terminal alternative for this operator.

        Accepts either the grammar spelling ('SIN') or the canonical name.
        """
        names = {op_token, op_token.lower()}
        canon = GRAMMAR_OP_TOKENS.get(op_token.upper())
        if canon is not None:
            names.add(canon)
        hits = [alt for alts in self.rules.values() for alt in alts
                if len(alt.symbols) == 1 and alt.symbols[0][0] == "t"
                and alt.symbols[0][1] in names]
        if not hits:
            raise GrammarError(f"no alternative consists of terminal {op_token!r}")
        self._set_flags(hits, False)

    def _set_flags(self, alts: List[Alternative], enabled: bool) -> None:
        """Set the enable flags; if that leaves a nonterminal without a
        terminating derivation, put the old flags back and raise."""
        before = [alt.enabled for alt in alts]
        for alt in alts:
            alt.enabled = enabled
        try:
            self._recompute_min_depths()
        except GrammarError:
            for alt, flag in zip(alts, before):
                alt.enabled = flag
            raise

    def min_depth(self, symbol: str) -> float:
        return self._min_depth[symbol]

    def alt_min_depths(self, symbol: str) -> Tuple[float, ...]:
        """Minimum derivation depth through each alternative; inf if disabled."""
        return self._alt_min_depths[symbol]

    def _check(self) -> None:
        if not self.rules:
            raise GrammarError("grammar defines no rules")
        for lhs, alts in self.rules.items():
            for alt in alts:
                for ref in alt.nt_refs():
                    if ref not in self.rules:
                        raise GrammarError(
                            f"undefined nonterminal {ref!r} referenced from {lhs!r}")
        if self.start not in self.rules:
            raise GrammarError(f"start symbol {self.start!r} is not defined")

    def _recompute_min_depths(self) -> None:
        md = {nt: _INF for nt in self.rules}

        def through(alt: Alternative) -> float:
            if not alt.enabled:
                return _INF
            refs = alt.nt_refs()
            return 1.0 if not refs else 1.0 + max(md[r] for r in refs)

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
        self._min_depth = md
        self._alt_min_depths = {nt: tuple(through(alt) for alt in alts)
                                for nt, alts in self.rules.items()}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _strip_comment(line: str) -> str:
    out = []
    in_quote = False
    for ch in line:
        if ch == "'":
            in_quote = not in_quote
        if ch == "#" and not in_quote:
            break
        out.append(ch)
    return "".join(out)


def _tokenize_alt(text: str, lineno: int) -> Tuple[Tuple[str, str], ...]:
    tokens: List[Tuple[str, str]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'":
            j = text.find("'", i + 1)
            if j < 0:
                raise GrammarError(f"line {lineno}: unterminated quote")
            tokens.append(("t", text[i + 1:j]))
            i = j + 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("nt", text[i:j]))
            i = j
            continue
        raise GrammarError(f"line {lineno}: unexpected character {ch!r}")
    if not tokens:
        raise GrammarError(f"line {lineno}: empty alternative")
    return tuple(tokens)


def _canonicalize_ops(lhs: str, symbols, lineno: int):
    """Map operator terminal spellings to canonical names; check arity context.

    Only 1OP/2OP/4OP rules must carry known operators of the right arity;
    other rules keep unrecognized terminals as-is.
    """
    expected = {"1OP": 1, "2OP": 2, "4OP": 4}.get(lhs)
    out = []
    for kind, tok in symbols:
        if kind == "t" and tok not in ("VC", "W") and tok not in _PUNCTUATION:
            canon = GRAMMAR_OP_TOKENS.get(tok.upper())
            if canon is None:
                if expected is not None:
                    raise GrammarError(f"line {lineno}: unknown operator terminal {tok!r}")
                out.append((kind, tok))
                continue
            if expected is not None and OPS[canon].arity != expected:
                raise GrammarError(
                    f"line {lineno}: operator {tok!r} has arity {OPS[canon].arity}, "
                    f"but rule {lhs} requires arity {expected}")
            out.append((kind, canon))
        else:
            out.append((kind, tok))
    return tuple(out)


def parse_grammar(text: str) -> Grammar:
    """Parse grammar text into a Grammar; raises GrammarError on any defect."""
    logical: List[Tuple[int, str]] = []       # (first line number, joined text)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
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
        if not lhs or not all(c.isalnum() or c == "_" for c in lhs):
            raise GrammarError(f"line {lineno}: bad rule name {lhs!r}")
        # split alternatives on '|' outside quotes
        alts_text: List[str] = []
        buf: List[str] = []
        in_quote = False
        for ch in rhs_text:
            if ch == "'":
                in_quote = not in_quote
            if ch == "|" and not in_quote:
                alts_text.append("".join(buf))
                buf = []
            else:
                buf.append(ch)
        alts_text.append("".join(buf))
        bucket = rules.setdefault(lhs, [])
        for alt_text in alts_text:
            symbols = _tokenize_alt(alt_text, lineno)
            symbols = _canonicalize_ops(lhs, symbols, lineno)
            bucket.append(Alternative(symbols=symbols))

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
             exp_cap: int = 5, n_vars: Optional[int] = None,
             check_root: bool = True) -> List[str]:
    """Return a list of violations (empty list means the tree is valid)."""
    violations: List[str] = []
    if not isinstance(tree, NTNode):
        return [f"root is not a nonterminal node: {tree!r}"]
    if check_root and tree.symbol != g.start:
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
            alt = alts[node.alt]
            if not alt.enabled:
                violations.append(f"{node.symbol}: alternative {node.alt} is disabled")
            struct = alt.struct
            if len(struct) != len(node.children):
                violations.append(
                    f"{node.symbol}: expected {len(struct)} children, has {len(node.children)}")
                continue
            for (kind, tok), child in zip(struct, node.children):
                if kind == "nt":
                    if not isinstance(child, NTNode) or child.symbol != tok:
                        violations.append(
                            f"{node.symbol}: child should derive {tok!r}, got {child!r}")
                elif tok == "VC":
                    if not isinstance(child, VCLeaf):
                        violations.append(f"{node.symbol}: expected VC leaf, got {child!r}")
                elif tok == "W":
                    if not isinstance(child, WeightLeaf):
                        violations.append(f"{node.symbol}: expected weight leaf, got {child!r}")
                else:
                    if not isinstance(child, OpLeaf) or child.name != tok:
                        violations.append(
                            f"{node.symbol}: expected operator {tok!r}, got {child!r}")
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


def crossover_sites(tree: BasisTree, symbol: str) -> List[NTNode]:
    """All nodes deriving `symbol`, in deterministic preorder."""
    return [node for node, _ in walk(tree)
            if isinstance(node, NTNode) and node.symbol == symbol]
