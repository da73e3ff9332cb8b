"""Full run orchestration: evolution, simplification, test filtering, export.

A run turns a training Dataset into a tradeoff set of models over
(error, complexity).  After evolution each front model is simplified by
PRESS-driven forward regression, evaluated on test data, and the set is
filtered down to the models on the testing-error tradeoff before export.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, _finite_decades, _positive_finite
from .dataset import DataError, Dataset, columns_by_name
from .draws import Draws
from .evolve import (ParetoArchive, fit_model, fit_models, init_population,
                     nsga2_generation, pareto_front)
from .expr import (Model, _flag, _number, eval_model_matrix, model_from_dict, model_to_dict,
                   stored_column, to_canonical_text)
from .fit import forward_regression_press, nmse, press
from .grammar import Grammar, check_basis, default_grammar_text, parse_grammar

ProgressFn = Callable[[int, int, int], None]   # (generation, total, archive size)


@dataclass
class TradeoffSet:
    """Mutually nondominated models, ascending complexity, plus run context."""

    models: List[Model]
    var_names: Tuple[str, ...]
    train_reference: float
    target_name: str = "y"
    target_log_scaled: bool = False

    def __len__(self) -> int:
        return len(self.models)


def _resolve_grammar(cfg: RunConfig) -> Tuple[Grammar, str]:
    """The run's grammar and its text; the one place a grammar file is read."""
    if cfg.grammar is None:
        text = default_grammar_text()
    else:
        try:
            with open(cfg.grammar, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read grammar file {cfg.grammar}: {exc}") from exc
    return parse_grammar(text), text


def _reference(train: Dataset) -> float:
    ref = float(np.max(np.abs(train.y)))
    if ref <= 0:
        raise DataError("all-zero training target; error normalization is undefined")
    return ref


def _checked_reference(cfg: RunConfig, train: Dataset, g: Grammar) -> float:
    """_reference(train), after the checks that refuse a run before any draw."""
    if train.n_vars < 1:
        raise DataError("training data has no design-variable column to build bases from")
    if cfg.max_depth < g.min_depth(g.start):
        raise ConfigError(f"max_depth {cfg.max_depth} is below the grammar's minimum "
                          f"derivation depth {g.min_depth(g.start):.0f}")
    return _reference(train)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def run_evolution(cfg: RunConfig, train: Dataset, grammar: Optional[Grammar] = None,
                  progress: Optional[ProgressFn] = None) -> TradeoffSet:
    """Evolve models on the training set; returns the archived tradeoff.
    Raises DataError, before any draw, when train has no design variable.

    The cyclic garbage collector is paused while the initial population is
    built and the generations run.  The loop makes tens of thousands of
    tree nodes that the collector would walk again and again, yet it makes
    no reference cycles, so there is nothing for the collector to free;
    plain reference counting frees everything it drops (tests/test_pipeline.py
    pins that a run leaves no cyclic garbage).  `progress` runs with the
    collector paused too.  The caller's collector state is restored on every
    exit, an exception from `progress` included.
    """
    g = grammar if grammar is not None else _resolve_grammar(cfg)[0]
    reference = _checked_reference(cfg, train, g)
    rng = Draws(cfg.seed)
    X, y = train.X, train.y

    archive = ParetoArchive()
    # the offset-only model is always available as a zero-complexity baseline
    archive.merge([fit_model([], X, y, reference, cfg)])
    enabled = gc.isenabled()
    gc.disable()
    try:
        pop = init_population(g, train.n_vars, X, y, reference, cfg, rng)
        archive.merge(pop)
        for gen in range(cfg.generations):
            pop = nsga2_generation(pop, X, y, reference, g, cfg, rng, archive)
            if progress is not None:
                progress(gen + 1, cfg.generations, len(archive))
    finally:
        if enabled:
            gc.enable()

    # the archive's models are already the front, in ascending complexity
    return TradeoffSet(models=archive.models, var_names=train.var_names,
                       train_reference=reference, target_name=train.target_name,
                       target_log_scaled=train.target_log_scaled)


def simplify_after_generation(ts: TradeoffSet, train: Dataset, cfg: RunConfig) -> TradeoffSet:
    """Prune each model's bases by PRESS-driven forward regression, then refit.

    A model is only replaced when the pruned version has a PRESS no worse
    than the original, so predictive ability never degrades; the refit
    model that replaces it has no test error.  Columns come from the trees,
    which kept them from evolution on the same train.X.
    """
    X, y = train.X, train.y
    reference = _reference(train)
    out: List[Model] = list(ts.models)
    pruned = {}     # index in out -> the bases forward regression kept
    for i, m in enumerate(ts.models):
        if not m.bases:
            continue
        columns = [stored_column(t, X, cfg.B)[0] for t in m.bases]
        selected, pruned_press = forward_regression_press(columns, y)
        if sorted(selected) == list(range(len(m.bases))):
            continue
        original_press = press(np.column_stack([np.ones(len(y))] + columns), y)
        if original_press < pruned_press:
            continue
        pruned[i] = [m.bases[j] for j in selected]
    for i, m in zip(pruned, fit_models(list(pruned.values()), X, y, reference, cfg)):
        out[i] = m
    return replace(ts, models=pareto_front(out))


def score_test_errors(ts: TradeoffSet, test: Dataset, cfg: RunConfig) -> TradeoffSet:
    """Attach test NMSE (training reference) to every model, binding by name."""
    X = columns_by_name(test, ts.var_names)
    return replace(ts, models=[
        replace(m, test_error=nmse(eval_model_matrix(m, X, cfg.B), test.y, ts.train_reference))
        for m in ts.models])


def filter_test_tradeoff(ts: TradeoffSet, test: Dataset, cfg: RunConfig) -> TradeoffSet:
    """Keep only models nondominated in (test error, complexity)."""
    scored = score_test_errors(ts, test, cfg)
    return replace(scored, models=pareto_front(
        scored.models, lambda m: (m.test_error, m.complexity)))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

FRONT_COLUMNS = ("model_id", "complexity", "n_bases", "train_error_pct", "test_error_pct")


def export(ts: TradeoffSet, out_dir: str, cfg: RunConfig,
           grammar_text: Optional[str] = None) -> List[str]:
    """Write front.csv, per-model text/JSON files and run metadata."""
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []

    front_path = os.path.join(out_dir, "front.csv")
    with open(front_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(FRONT_COLUMNS) + "\n")
        for i, m in enumerate(ts.models):
            test_txt = "" if m.test_error is None else repr(float(m.test_error))
            fh.write(f"{i},{m.complexity!r},{m.n_bases},"
                     f"{float(m.train_error)!r},{test_txt}\n")
    written.append(front_path)

    for i, m in enumerate(ts.models):
        text = to_canonical_text(m, ts.var_names, cfg.sig_figs,
                                 log_scaled=ts.target_log_scaled, B=cfg.B)
        txt_path = os.path.join(out_dir, f"model_{i}.txt")
        with open(txt_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        written.append(txt_path)

        payload = {
            "model": model_to_dict(m),
            "var_names": list(ts.var_names),
            "target_name": ts.target_name,
            "target_log_scaled": ts.target_log_scaled,
            "train_reference": ts.train_reference,
            "B": cfg.B,
            "text": text,
        }
        json_path = os.path.join(out_dir, f"model_{i}.json")
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        written.append(json_path)

    if grammar_text is None:
        grammar_text = _resolve_grammar(cfg)[1]
    meta = {
        "package": f"canonsr {__version__}",
        "seed": cfg.seed,
        "config": cfg.as_dict(),
        "grammar_sha256": hashlib.sha256(grammar_text.encode("utf-8")).hexdigest(),
        "n_models": len(ts.models),
    }
    meta_path = os.path.join(out_dir, "run_meta.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    written.append(meta_path)
    return written


_MODEL_KEYS = ("model", "var_names", "target_name", "target_log_scaled", "train_reference", "B")


def load_model_json(path: str) -> dict:
    """Reload an exported model file with 'model' rebuilt and checked to be
    one that evaluates; DataError if it cannot be read or is not."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        missing = [key for key in _MODEL_KEYS if key not in payload]
        if missing:
            raise ValueError(f"missing key(s) {', '.join(missing)}")
        model = payload["model"] = model_from_dict(payload["model"])
        payload["target_log_scaled"] = _flag(payload["target_log_scaled"], "target_log_scaled")
        names = payload["var_names"] = tuple(payload["var_names"])
        if not all(isinstance(name, str) for name in names + (payload["target_name"],)):
            raise ValueError("variable and target names must be strings")
        reference = payload["train_reference"] = _number(payload["train_reference"],
                                                         "train_reference")
        if not _positive_finite(reference):
            raise ValueError("train_reference must be positive and finite")
        B = payload["B"] = _number(payload["B"], "B")
        if not (_positive_finite(B) and _finite_decades(B)):   # RunConfig's rule for B
            raise ValueError(f"B must be positive and finite, with 10**B finite; got {B!r}")
        if np.shape(model.coeffs) != (model.n_bases + 1,):
            raise ValueError(f"{model.n_bases} bases need {model.n_bases + 1} coefficients")
        if not np.isfinite(model.coeffs).all():
            raise ValueError(f"coefficients must be finite, got {model.coeffs.tolist()}")
        for tree in model.bases:
            check_basis(tree, len(names), B)
    except (OSError, ValueError, KeyError, TypeError, AttributeError, OverflowError,
            RecursionError) as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    return payload


# ---------------------------------------------------------------------------
# one-call pipeline
# ---------------------------------------------------------------------------

def run_pipeline(cfg: RunConfig, train: Dataset, test: Dataset,
                 out_dir: Optional[str] = None,
                 progress: Optional[ProgressFn] = None) -> TradeoffSet:
    """Evolve, simplify, filter on test error, optionally export.

    The data and config are checked, and out_dir is created, before any
    draw: a refused run spends no time and leaves no directory behind."""
    g, g_text = _resolve_grammar(cfg)
    _checked_reference(cfg, train, g)
    if set(test.var_names) != set(train.var_names):
        raise DataError(f"test variables {sorted(test.var_names)} do not match the "
                        f"training variables {sorted(train.var_names)}")
    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise DataError(f"cannot create output directory {out_dir}: {exc}") from exc
    ts = run_evolution(cfg, train, grammar=g, progress=progress)
    ts = simplify_after_generation(ts, train, cfg)
    ts = filter_test_tradeoff(ts, test, cfg)
    if out_dir is not None:
        export(ts, out_dir, cfg, grammar_text=g_text)
    return ts
