"""Run configuration shared by the evolution engine, pipeline and CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

# all nine variation operators, in the fixed order used for weighted choice
OPERATOR_NAMES = (
    "basis_set_crossover",
    "basis_delete",
    "basis_add",
    "basis_copy_in",
    "subtree_crossover",
    "subtree_mutate",
    "weight_cauchy_mutate",
    "vc_onepoint_crossover",
    "vc_exponent_mutate",
)


def default_operator_weights() -> Dict[str, float]:
    # equal weights, except parameter (weight) mutation is 5x more likely
    weights = {name: 1.0 for name in OPERATOR_NAMES}
    weights["weight_cauchy_mutate"] = 5.0
    return weights


class ConfigError(ValueError):
    """Raised for malformed config files, bad flag combinations or unreadable grammars."""


def _positive_finite(value: float) -> bool:
    return value > 0 and math.isfinite(value)


def _finite_decades(B: float) -> bool:
    # 10**B is the largest interpreted weight; when it is finite, so is the
    # [-2B, 2B] range random trees draw stored weights from
    try:
        return math.isfinite(10.0 ** B)
    except OverflowError:
        return False


@dataclass
class RunConfig:
    """All evolutionary, grammar and complexity settings for one run."""

    population: int = 200
    generations: int = 5000
    max_bases: int = 15
    max_depth: int = 8
    B: float = 10.0          # weight decade range; stored values live in [-2B, 2B]
    wb: float = 10.0         # minimum cost per basis function
    wvc: float = 0.25        # cost per unit of summed |exponent| in a variable combo
    exp_cap: int = 5         # per-variable |exponent| ceiling
    seed: int = 0
    grammar: Optional[str] = None   # grammar file path; None = packaged default
    sig_figs: int = 3
    operator_weights: Dict[str, float] = field(default_factory=default_operator_weights)

    def __post_init__(self) -> None:
        for name in ("population", "generations", "max_bases", "max_depth",
                     "B", "wb", "wvc", "exp_cap", "sig_figs"):
            if not _positive_finite(getattr(self, name)):
                raise ValueError(f"config field {name!r} must be positive and finite")
        if not _finite_decades(self.B):
            raise ValueError("config field 'B' is too large: 10**B must be finite")
        unknown = set(self.operator_weights) - set(OPERATOR_NAMES)
        if unknown:
            raise ValueError(f"unknown operator name(s) in weights: {sorted(unknown)}")
        for name in OPERATOR_NAMES:
            self.operator_weights.setdefault(name, default_operator_weights()[name])
            if not _positive_finite(self.operator_weights[name]):
                raise ValueError(
                    f"operator weight for {name!r} must be positive and finite")

    def as_dict(self) -> dict:
        d = {
            "population": self.population,
            "generations": self.generations,
            "max_bases": self.max_bases,
            "max_depth": self.max_depth,
            "B": self.B,
            "wb": self.wb,
            "wvc": self.wvc,
            "exp_cap": self.exp_cap,
            "seed": self.seed,
            "grammar": self.grammar,
            "sig_figs": self.sig_figs,
        }
        for name in OPERATOR_NAMES:
            d[f"operator.{name}.weight"] = self.operator_weights[name]
        return d
