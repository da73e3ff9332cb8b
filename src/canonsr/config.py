"""Run configuration shared by the evolution engine, pipeline and CLI.

RunConfig's fields are the config-file keys: each value is parsed with its
field's type and validated once, when the RunConfig is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Optional, get_type_hints

# every variation operator's default selection weight, in the fixed order
# used for weighted choice: equal weights, except parameter (weight)
# mutation is 5x more likely
DEFAULT_OPERATOR_WEIGHTS = MappingProxyType({
    "basis_set_crossover": 1.0,
    "basis_delete": 1.0,
    "basis_add": 1.0,
    "basis_copy_in": 1.0,
    "subtree_crossover": 1.0,
    "subtree_mutate": 1.0,
    "weight_cauchy_mutate": 5.0,
    "vc_onepoint_crossover": 1.0,
    "vc_exponent_mutate": 1.0,
})
OPERATOR_NAMES = tuple(DEFAULT_OPERATOR_WEIGHTS)


class ConfigError(ValueError):
    """Raised for malformed config files, bad flag combinations or unreadable grammars."""


# a double holds at most 17 significant decimal digits
_MAX_SIG_FIGS = 17
# grammar._grow, expr._eval, expr._render, replace_at and tree_to_dict each
# recurse once per tree level, so a deep enough bound overflows Python's call
# stack; at depth 20 the default grammar's random trees already average about
# 1,100 nodes (200 trees, 4 variables), so no useful run is refused
_MAX_DEPTH = 100
# Draws.below(n) holds for n < 2**32 only (above 2**32 it accepts no draw and
# never returns), and init_population draws a basis count below max_bases
_MAX_BASES = 2 ** 32 - 1


def _positive_finite(value: float) -> bool:
    try:
        return value > 0 and math.isfinite(value)
    except OverflowError:   # an int beyond the float range
        return False


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
    operator_weights: Dict[str, float] = field(default_factory=dict)   # filled with defaults

    def __post_init__(self) -> None:
        for name in _POSITIVE_KEYS:
            if not _positive_finite(getattr(self, name)):
                raise ValueError(f"config field {name!r} must be positive and finite")
        if not _finite_decades(self.B):
            raise ValueError("config field 'B' is too large: 10**B must be finite")
        if self.seed < 0:
            raise ValueError("config field 'seed' must be zero or positive")
        for name, ceiling in (("sig_figs", _MAX_SIG_FIGS), ("max_depth", _MAX_DEPTH),
                              ("max_bases", _MAX_BASES)):
            if getattr(self, name) > ceiling:
                raise ValueError(f"config field {name!r} must be at most {ceiling}")
        unknown = set(self.operator_weights) - set(OPERATOR_NAMES)
        if unknown:
            raise ValueError(f"unknown operator name(s) in weights: {sorted(unknown)}")
        # a filled copy: the caller's dict is neither changed nor shared
        self.operator_weights = {**DEFAULT_OPERATOR_WEIGHTS, **self.operator_weights}
        for name in OPERATOR_NAMES:
            if not _positive_finite(self.operator_weights[name]):
                raise ValueError(
                    f"operator weight for {name!r} must be positive and finite")

    def as_dict(self) -> dict:
        d = {key: getattr(self, key) for key in _KEY_TYPES}
        for name in OPERATOR_NAMES:
            d[f"operator.{name}.weight"] = self.operator_weights[name]
        return d


# config-file key -> the type its value is parsed as: one per RunConfig field,
# except operator_weights, which is set through "operator.<name>.weight" keys
_KEY_TYPES = {key: hint if hint in (int, float) else str
              for key, hint in get_type_hints(RunConfig).items()
              if key != "operator_weights"}
# every number but the seed must be positive and finite
_POSITIVE_KEYS = tuple(key for key, cast in _KEY_TYPES.items()
                       if cast is not str and key != "seed")


# ---------------------------------------------------------------------------
# config files: flat "key = value" lines with '#' comments
# ---------------------------------------------------------------------------

def parse_config_values(text: str, source: str = "<config>") -> dict:
    """Parse config text into RunConfig keyword arguments, not yet validated."""
    values = {}
    op_weights = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key.startswith("operator.") and key.endswith(".weight"):
            op_name = key[len("operator."):-len(".weight")]
            if op_name not in OPERATOR_NAMES:
                raise ConfigError(f"{source}:{lineno}: unknown operator {op_name!r}")
            if op_name in op_weights:
                raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
            op_weights[op_name] = _parse_value(key, value, float, source, lineno)
            continue
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if key not in _KEY_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        values[key] = _parse_value(key, value, _KEY_TYPES[key], source, lineno)
    if op_weights:
        values["operator_weights"] = op_weights
    return values


def _parse_value(key, value, cast, source, lineno):
    try:
        return cast(value)
    except ValueError:
        raise ConfigError(
            f"{source}:{lineno}: key {key!r} needs a {cast.__name__}, got {value!r}") from None


def make_config(values: dict, context: str) -> RunConfig:
    """Build the RunConfig once all values are known; invalid values are ConfigErrors."""
    try:
        return RunConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def load_config_values(path: Optional[str]) -> dict:
    """Config file values as RunConfig keyword arguments; {} without a file."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_values(text, source=path)
