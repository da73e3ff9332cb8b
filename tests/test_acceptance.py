"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines as they complete.
"""

import time

import numpy as np
import pytest

from canonsr.config import OPERATOR_NAMES, RunConfig
from canonsr.dataset import DoePlan, doe_full_factorial, oracle_dataset
from canonsr.draws import Draws
from canonsr.evolve import apply_operator, dominates, fit_model, nondominated_sort
from canonsr.expr import Model, NTNode, VCLeaf, complexity_of_bases, tree_depth
from canonsr.fit import fit_weights, press
from canonsr.grammar import load_default_grammar, random_tree, validate
from canonsr.pipeline import (TradeoffSet, filter_test_tradeoff, run_evolution,
                              run_pipeline, simplify_after_generation)

NAMES4 = ("x1", "x2", "x3", "x4")
G = load_default_grammar()


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} - {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def _pm_datasets():
    train = oracle_dataset("pm_like",
                           doe_full_factorial(DoePlan(np.ones(4), dx=0.1)), NAMES4)
    test = oracle_dataset("pm_like",
                          doe_full_factorial(DoePlan(np.ones(4), dx=0.03)), NAMES4)
    return train, test


# ---------------------------------------------------------------------------
# criterion 1: grammar closure over >= 10^4 operator applications
# ---------------------------------------------------------------------------

def test_criterion_1_grammar_closure():
    started = time.perf_counter()
    cfg = RunConfig(population=30, generations=1, max_bases=15, max_depth=8, seed=101)
    rng = Draws(cfg.seed)
    X = np.random.default_rng(1).uniform(0.5, 1.5, size=(12, 4))
    y = X[:, 0] + X[:, 1]
    ref = float(np.max(np.abs(y)))

    pool = []
    for nb in list(range(0, 16)) * 2:
        bases = [random_tree(G, cfg.max_depth, rng, 4, B=cfg.B) for _ in range(nb)]
        pool.append(fit_model(bases, X, y, ref, cfg))

    applications = 0
    produced = 0
    i = 0
    while applications < 10000:
        name = OPERATOR_NAMES[i % len(OPERATOR_NAMES)]
        i += 1
        parents = [pool[rng.below(len(pool))] for _ in range(2)]
        result = apply_operator(name, parents, G, 4, cfg, rng)
        if result is None:
            continue
        applications += 1
        for child_bases in result:
            produced += 1
            assert len(child_bases) <= cfg.max_bases
            for tree in child_bases:
                assert tree_depth(tree) <= cfg.max_depth
                assert validate(tree, G, max_depth=cfg.max_depth, B=cfg.B,
                                exp_cap=cfg.exp_cap, n_vars=4) == []
    elapsed = time.perf_counter() - started
    _report("criterion 1: grammar closure over 10^4 operator applications",
            applications >= 10000 and elapsed < 60.0,
            f"{applications} applications, {produced} offspring, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: closed-form PRESS equals brute-force leave-one-out
# ---------------------------------------------------------------------------

def _loo_bruteforce(Phi, y):
    total = 0.0
    for t in range(Phi.shape[0]):
        keep = [i for i in range(Phi.shape[0]) if i != t]
        beta = np.linalg.lstsq(Phi[keep], y[keep], rcond=None)[0]
        err = y[t] - Phi[t] @ beta
        total += err * err
    return total


def test_criterion_2_press_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(4, 31))
        m = int(rng.integers(1, 6))
        k = min(m + 1, n - 1)
        Phi = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))])
        y = rng.standard_normal(n)
        ours = press(Phi, y)
        oracle = _loo_bruteforce(Phi, y)
        assert ours == pytest.approx(oracle, rel=1e-8)
        checked += 1
    elapsed = time.perf_counter() - started
    _report("criterion 2: PRESS equals brute-force leave-one-out on 200 problems",
            checked == 200 and elapsed < 60.0, f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: nondominated_sort matches brute-force dominance peeling
# ---------------------------------------------------------------------------

def _bruteforce_fronts(points):
    remaining = list(range(len(points)))
    fronts = []
    while remaining:
        front = sorted(p for p in remaining
                       if not any(dominates(points[q], points[p])
                                  for q in remaining if q != p))
        fronts.append(front)
        remaining = [p for p in remaining if p not in front]
    return fronts


def test_criterion_3_dominance_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    for _ in range(200):
        n = int(rng.integers(1, 101))
        # integer grids force plenty of ties and duplicates
        points = [tuple(v) for v in rng.integers(0, 10, size=(n, 2)).astype(float)]
        ours = [sorted(f) for f in nondominated_sort(points)]
        assert ours == _bruteforce_fronts(points)
    elapsed = time.perf_counter() - started
    _report("criterion 3: nondominated_sort matches brute force on 200 instances",
            elapsed < 60.0, f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: least-squares residual orthogonality and minimum-norm rule
# ---------------------------------------------------------------------------

def test_criterion_4_least_squares():
    rng = np.random.default_rng(404)
    for _ in range(100):
        n = int(rng.integers(6, 40))
        k = int(rng.integers(1, min(n - 1, 7)))
        Phi = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))])
        y = rng.standard_normal(n)
        coeffs = fit_weights(Phi, y)
        assert np.max(np.abs(Phi.T @ (y - Phi @ coeffs))) <= 1e-8 * np.linalg.norm(y)
    for _ in range(100):
        n = int(rng.integers(6, 40))
        base = rng.standard_normal(n)
        Phi = np.column_stack([np.ones(n), base, base, rng.standard_normal(n)])
        y = rng.standard_normal(n)
        ours = fit_weights(Phi, y)
        oracle = np.linalg.pinv(Phi) @ y
        assert np.max(np.abs(ours - oracle)) <= 1e-8
    _report("criterion 4: residual orthogonality and minimum-norm agreement", True)


# ---------------------------------------------------------------------------
# criterion 5: complexity spot checks
# ---------------------------------------------------------------------------

def test_criterion_5_complexity_spot_checks():
    constant = Model(bases=[], coeffs=np.array([1.0]), valid=True)
    single_vc = Model(bases=[NTNode("REPVC", 0, [VCLeaf([1, 0, -2, 1])])],
                      coeffs=np.array([0.0, 1.0]), valid=True)
    ok = (complexity_of_bases(constant.bases, 10.0, 0.25) == 0.0
          and complexity_of_bases(single_vc.bases, 10.0, 0.25) == 12.0)
    _report("criterion 5: complexity of constant = 0 and of [1,0,-2,1] basis = 12", ok)


# ---------------------------------------------------------------------------
# criteria 6-7: benchmark recovery and front shape (shared runs)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def benchmark_runs():
    train, test = _pm_datasets()
    runs = []
    for seed in (0, 1, 2):
        cfg = RunConfig(population=200, generations=100, seed=seed)
        started = time.perf_counter()
        train_front = run_evolution(cfg, train)
        simplified = simplify_after_generation(train_front, train, cfg)
        filtered = filter_test_tradeoff(simplified, test, cfg)
        elapsed = time.perf_counter() - started
        runs.append(dict(seed=seed, cfg=cfg, train_front=train_front,
                         simplified=simplified, filtered=filtered,
                         elapsed=elapsed))
    return runs


def test_criterion_6_benchmark_recovery(benchmark_runs):
    hits = 0
    details = []
    for run in benchmark_runs:
        hit = any(m.train_error <= 5.0 and m.test_error is not None
                  and m.test_error <= 5.0 for m in run["filtered"].models)
        hits += hit
        details.append(f"seed {run['seed']}: "
                       f"{'hit' if hit else 'miss'} in {run['elapsed']:.0f}s")
        assert run["elapsed"] < 600.0, "runtime target exceeded"
    _report("criterion 6: pm_like recovery at 5% train and 5% test in >= 2 of 3 seeds",
            hits >= 2, "; ".join(details))


def test_criterion_7_front_shape(benchmark_runs):
    ok = True
    for run in benchmark_runs:
        models = run["simplified"].models
        if not models or models[0].complexity != 0.0 or models[0].n_bases != 0:
            ok = False
        for a, b in zip(models, models[1:]):
            if not (b.complexity > a.complexity and b.train_error < a.train_error):
                ok = False
    _report("criterion 7: train fronts strictly monotone with a complexity-0 model", ok)


# ---------------------------------------------------------------------------
# criterion 8: byte-identical exports for identical seed/config/data
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    train, test = _pm_datasets()
    cfg = RunConfig(population=60, generations=25, seed=12)
    run_pipeline(cfg, train, test, out_dir=str(tmp_path / "a"))
    run_pipeline(cfg, train, test, out_dir=str(tmp_path / "b"))
    a = (tmp_path / "a" / "front.csv").read_bytes()
    b = (tmp_path / "b" / "front.csv").read_bytes()
    _report("criterion 8: byte-identical front.csv across repeated runs", a == b)


# ---------------------------------------------------------------------------
# criterion 9: simplification removes duplicate bases without hurting fit
# ---------------------------------------------------------------------------

def test_criterion_9_sag_effectiveness():
    train, _ = _pm_datasets()
    cfg = RunConfig(population=10, generations=1, seed=9)
    reference = float(np.max(np.abs(train.y)))
    bases = [NTNode("REPVC", 0, [VCLeaf([1, -1, 0, 0])]),
             NTNode("REPVC", 0, [VCLeaf([0, 0, 1, -1])])]
    fitted = fit_model(bases, train.X, train.y, reference, cfg)

    duplicated = fit_model(fitted.bases + [fitted.bases[0]],
                           train.X, train.y, reference, cfg)
    assert duplicated.n_bases == 3

    ts = TradeoffSet(models=[duplicated], var_names=NAMES4,
                     train_reference=reference, target_name="pm_like")
    out = simplify_after_generation(ts, train, cfg)
    pruned = out.models[0]
    ok = (pruned.n_bases < duplicated.n_bases
          and pruned.train_error <= duplicated.train_error + 1e-9)
    _report("criterion 9: simplification prunes a duplicated basis losslessly",
            ok, f"{duplicated.n_bases} -> {pruned.n_bases} bases, "
                f"error {duplicated.train_error:.6f} -> {pruned.train_error:.6f}")
