"""Pipeline stages: evolution fronts, simplification, test filtering, export."""

import gc
import json
from dataclasses import replace

import numpy as np
import pytest

import canonsr.pipeline as pipeline
from canonsr.config import RunConfig
from canonsr.dataset import DataError, Dataset, DoePlan, doe_full_factorial, oracle_dataset
from canonsr.evolve import fit_model, pareto_front
from canonsr.expr import Model, NTNode, VCLeaf, eval_basis_matrix
from canonsr.fit import press
from canonsr.pipeline import (TradeoffSet, export, filter_test_tradeoff,
                              load_model_json, run_evolution,
                              run_pipeline, score_test_errors, simplify_after_generation)

NAMES4 = ("x1", "x2", "x3", "x4")


def _pm_datasets():
    train = oracle_dataset("pm_like", doe_full_factorial(DoePlan(np.ones(4), dx=0.1)), NAMES4)
    test = oracle_dataset("pm_like", doe_full_factorial(DoePlan(np.ones(4), dx=0.03)), NAMES4)
    return train, test


def _desk_cfg(**kw):
    defaults = dict(population=40, generations=10, seed=2)
    defaults.update(kw)
    return RunConfig(**defaults)


def vc_basis(exponents):
    return NTNode("REPVC", 0, [VCLeaf(exponents)])


# ---------------------------------------------------------------------------
# run_evolution front shape
# ---------------------------------------------------------------------------

def test_front_contains_constant_model_and_is_strictly_monotone():
    train, _ = _pm_datasets()
    ts = run_evolution(_desk_cfg(), train)
    assert ts.models[0].complexity == 0.0
    assert ts.models[0].n_bases == 0
    for a, b in zip(ts.models, ts.models[1:]):
        assert b.complexity > a.complexity
        assert b.train_error < a.train_error


def test_front_is_reasonably_sized():
    train, _ = _pm_datasets()
    ts = run_evolution(_desk_cfg(), train)
    assert 2 <= len(ts) <= 200


# ---------------------------------------------------------------------------
# run_evolution pauses the cyclic garbage collector: it must make no cycles
# and must hand the caller's collector state back
# ---------------------------------------------------------------------------

def _wide5_dataset():
    X = doe_full_factorial(DoePlan(np.array([1.0, 2.0, 0.5, 3.0, 1.5]), dx=0.1))
    x1, x2, x3, x4, x5 = X.T
    y = 5.0 + 40.0 * x1 / (x2 + 0.5 * x3) + 12.0 * np.sqrt(x4) * x5 + 8.0 * np.exp(-x2 * x5)
    return Dataset(("x1", "x2", "x3", "x4", "x5"), X, y, "y")


@pytest.mark.parametrize("dataset, population", [(lambda: _pm_datasets()[0], 40),
                                                 (_wide5_dataset, 20)],
                         ids=["pm_like", "wide5"])
def test_evolution_leaves_no_cyclic_garbage(dataset, population):
    train = dataset()
    gc.collect()
    # kept off throughout, so that no automatic collection after the run
    # can free what the run left before the second collect() counts it
    gc.disable()
    try:
        run_evolution(_desk_cfg(population=population, generations=4), train)
        assert not gc.isenabled()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_evolution_restores_an_enabled_collector():
    train, _ = _pm_datasets()
    seen = []
    run_evolution(_desk_cfg(generations=2), train,
                  progress=lambda *args: seen.append(gc.isenabled()))
    assert seen == [False, False]
    assert gc.isenabled()


def test_evolution_leaves_a_disabled_collector_disabled():
    train, _ = _pm_datasets()
    gc.disable()
    try:
        run_evolution(_desk_cfg(generations=2), train)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_evolution_restores_the_collector_when_progress_raises():
    train, _ = _pm_datasets()

    def progress(gen, total, archive_size):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_evolution(_desk_cfg(generations=2), train, progress=progress)
    assert gc.isenabled()


# ---------------------------------------------------------------------------
# pareto_front
# ---------------------------------------------------------------------------

def _stub(train_error, complexity, test_error=None):
    return Model(bases=[vc_basis([1])] * 0, coeffs=np.array([0.0]),
                 train_error=train_error, test_error=test_error,
                 complexity=complexity, valid=True)


def test_pareto_front_drops_dominated():
    models = [_stub(4.0, 0.0), _stub(3.7, 12.0), _stub(3.9, 13.0)]
    kept = pareto_front(models)
    assert [(m.train_error, m.complexity) for m in kept] == [(4.0, 0.0), (3.7, 12.0)]


def test_pareto_front_dedupes_equal_points():
    models = [_stub(1.0, 5.0), _stub(1.0, 5.0)]
    assert pareto_front(models) == [models[0]]


# ---------------------------------------------------------------------------
# simplification after generation
# ---------------------------------------------------------------------------

def _fitted_ratio_model(train, cfg, exponent_sets):
    bases = [vc_basis(e) for e in exponent_sets]
    return fit_model(bases, train.X, train.y, float(np.max(np.abs(train.y))), cfg)


def test_sag_prunes_duplicated_basis():
    train, _ = _pm_datasets()
    cfg = _desk_cfg()
    model = _fitted_ratio_model(
        train, cfg, [[1, -1, 0, 0], [0, 0, 1, -1], [1, -1, 0, 0]])
    ts = TradeoffSet(models=[model], var_names=NAMES4,
                     train_reference=float(np.max(np.abs(train.y))),
                     target_name="pm_like")
    out = simplify_after_generation(ts, train, cfg)
    assert len(out.models) == 1
    pruned = out.models[0]
    assert pruned.n_bases == 2
    assert pruned.train_error <= model.train_error + 1e-9


def test_sag_drops_the_test_error_of_a_model_it_replaces():
    train, test = _pm_datasets()
    cfg = _desk_cfg()
    reference = float(np.max(np.abs(train.y)))
    models = [fit_model([], train.X, train.y, reference, cfg),
              _fitted_ratio_model(train, cfg, [[1, -1, 0, 0]]),
              _fitted_ratio_model(train, cfg, [[1, -1, 0, 0], [0, 0, 1, -1], [1, -1, 0, 0]])]
    ts = TradeoffSet(models=models, var_names=NAMES4, train_reference=reference,
                     target_name="pm_like")
    scored = score_test_errors(ts, test, cfg)
    assert all(m.test_error is not None for m in scored.models)
    out = simplify_after_generation(scored, train, cfg).models
    scored_ids = {id(m) for m in scored.models}
    kept = [m for m in out if id(m) in scored_ids]
    replaced = [m for m in out if id(m) not in scored_ids]
    assert [m.n_bases for m in kept] == [0, 1] and [m.n_bases for m in replaced] == [2]
    assert [m.test_error for m in kept] == [m.test_error for m in scored.models[:2]]
    assert replaced[0].test_error is None


def test_sag_leaves_constant_model_unchanged():
    train, _ = _pm_datasets()
    cfg = _desk_cfg()
    constant = fit_model([], train.X, train.y, float(np.max(np.abs(train.y))), cfg)
    ts = TradeoffSet(models=[constant], var_names=NAMES4,
                     train_reference=float(np.max(np.abs(train.y))),
                     target_name="pm_like")
    out = simplify_after_generation(ts, train, cfg)
    assert out.models[0] is constant


def test_sag_never_increases_press():
    train, _ = _pm_datasets()
    cfg = _desk_cfg()
    ts = run_evolution(cfg, train)

    def press_of(model):
        columns = [eval_basis_matrix(t, train.X, cfg.B) for t in model.bases]
        return press(np.column_stack([np.ones(train.n_samples)] + columns), train.y)

    # simplify each model in isolation and compare PRESS before/after
    for m in ts.models:
        if not m.bases:
            continue
        before = press_of(m)
        single = simplify_after_generation(replace(ts, models=[m]), train, cfg).models[0]
        after = press_of(single)
        if np.isfinite(before):
            assert after <= before * (1 + 1e-9)
        elif single.bases:
            # an infinite-PRESS model must come back finite or untouched
            assert np.isfinite(after) or single is m


# ---------------------------------------------------------------------------
# test filtering
# ---------------------------------------------------------------------------

def _filter_scored(models, monkeypatch):
    """filter_test_tradeoff on models whose test errors are already set."""
    monkeypatch.setattr(pipeline, "score_test_errors", lambda ts, test, cfg: ts)
    return filter_test_tradeoff(TradeoffSet(models, NAMES4, 1.0), None, None).models


def test_filter_example_dominance(monkeypatch):
    models = [_stub(9.0, 0.0, test_error=4.0),
              _stub(8.0, 12.0, test_error=3.7),
              _stub(7.0, 13.0, test_error=3.9)]
    kept = _filter_scored(models, monkeypatch)
    assert [(m.test_error, m.complexity) for m in kept] == [(4.0, 0.0), (3.7, 12.0)]


def test_filter_computes_test_errors_and_subsets():
    train, test = _pm_datasets()
    cfg = _desk_cfg()
    ts = run_evolution(cfg, train)
    out = filter_test_tradeoff(ts, test, cfg)
    assert len(out) <= len(ts)
    train_keys = {(m.train_error, m.complexity) for m in ts.models}
    for m in out.models:
        assert m.test_error is not None and np.isfinite(m.test_error)
        assert (m.train_error, m.complexity) in train_keys


def test_filter_identical_test_errors_keeps_minimum_complexity(monkeypatch):
    models = [_stub(5.0, 0.0, test_error=2.0),
              _stub(4.0, 10.0, test_error=2.0),
              _stub(3.0, 20.0, test_error=2.0)]
    kept = _filter_scored(models, monkeypatch)
    assert len(kept) == 1 and kept[0].complexity == 0.0


def test_filter_rejects_name_mismatch():
    train, test = _pm_datasets()
    cfg = _desk_cfg()
    ts = run_evolution(_desk_cfg(generations=2), train)
    bad = Dataset(("a", "b", "c", "d"), test.X, test.y, "pm_like")
    with pytest.raises(DataError, match="variables"):
        filter_test_tradeoff(ts, bad, cfg)


def test_filter_preserves_best_test_error_envelope():
    train, test = _pm_datasets()
    cfg = _desk_cfg()
    ts = run_evolution(cfg, train)
    from canonsr.pipeline import score_test_errors
    scored = score_test_errors(ts, test, cfg)
    filtered = filter_test_tradeoff(ts, test, cfg)

    def best_at_or_below(models, cpx):
        errs = [m.test_error for m in models if m.complexity <= cpx]
        return min(errs) if errs else float("inf")

    for m in scored.models:
        c = m.complexity
        assert best_at_or_below(filtered.models, c) <= best_at_or_below(scored.models, c)


def test_filter_binds_columns_by_name():
    train, test = _pm_datasets()
    cfg = _desk_cfg()
    ts = run_evolution(cfg, train)
    shuffled = Dataset(("x4", "x1", "x3", "x2"),
                       test.X[:, [3, 0, 2, 1]], test.y, "pm_like")
    a = filter_test_tradeoff(ts, test, cfg)
    b = filter_test_tradeoff(ts, shuffled, cfg)
    assert [(m.test_error, m.complexity) for m in a.models] == \
           [(m.test_error, m.complexity) for m in b.models]


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_layout_and_round_trip(tmp_path):
    train, test = _pm_datasets()
    cfg = _desk_cfg()
    ts = run_pipeline(cfg, train, test, out_dir=str(tmp_path))

    front = (tmp_path / "front.csv").read_text().splitlines()
    assert front[0] == "model_id,complexity,n_bases,train_error_pct,test_error_pct"
    assert len(front) - 1 == len(ts)
    assert (tmp_path / "run_meta.json").exists()

    for i, m in enumerate(ts.models):
        payload = load_model_json(str(tmp_path / f"model_{i}.json"))
        back = payload["model"]
        # re-evaluate and reproduce the stored errors
        X = train.X
        pred = np.full(train.n_samples, back.coeffs[0])
        for j, tree in enumerate(back.bases):
            pred = pred + back.coeffs[j + 1] * eval_basis_matrix(tree, X, payload["B"])
        from canonsr.fit import nmse
        again = nmse(pred, train.y, payload["train_reference"])
        assert again == pytest.approx(m.train_error, abs=1e-10)

        # stored complexity must equal a fresh recomputation exactly
        from canonsr.expr import complexity_of_bases
        assert complexity_of_bases(back.bases, cfg.wb, cfg.wvc) == m.complexity

        text = (tmp_path / f"model_{i}.txt").read_text().strip()
        assert text == payload["text"]
        if m.n_bases == 0:
            from canonsr.expr import _fmt
            assert text == _fmt(m.coeffs[0], cfg.sig_figs)


def test_export_meta_contents(tmp_path):
    train, test = _pm_datasets()
    cfg = _desk_cfg(generations=2)
    run_pipeline(cfg, train, test, out_dir=str(tmp_path))
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["seed"] == cfg.seed
    assert meta["config"]["population"] == cfg.population
    assert len(meta["grammar_sha256"]) == 64


def test_end_to_end_determinism(tmp_path):
    train, test = _pm_datasets()
    cfg = _desk_cfg(generations=6)
    run_pipeline(cfg, train, test, out_dir=str(tmp_path / "a"))
    run_pipeline(cfg, train, test, out_dir=str(tmp_path / "b"))
    a = (tmp_path / "a" / "front.csv").read_bytes()
    b = (tmp_path / "b" / "front.csv").read_bytes()
    assert a == b

