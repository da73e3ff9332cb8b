"""Layer benchmarks with pytest-benchmark, kept out of the Tier-1 test paths.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/ -q

The CSV and prediction sizes follow the `predict_bulk` workload of
`perfbench/`: a 20,000-row sweep of five variables around the wide5 centers,
plus one target column.  The search layers use the 81-row pm_like factorial
of the `pm81` workload; basis evaluation and the PRESS layers use the 243-row
wide5 factorial of the `wide243` workload.
"""

import contextlib
import io
import json
import random

import numpy as np
import pytest

import canonsr.expr as expr
from canonsr.cli import main
from canonsr.config import RunConfig
from canonsr.dataset import (Dataset, DoePlan, doe_full_factorial, load_csv,
                             oracle_dataset, write_points_csv)
from canonsr.draws import Draws
from canonsr.evolve import (ParetoArchive, _environmental_selection, apply_operator,
                            fit_model, fit_models, init_population, nondominated_sort,
                            nsga2_generation)
from canonsr.expr import (Model, NTNode, basis_complexity, eval_basis_matrix, eval_model_matrix,
                          model_to_dict, stored_column, tree_to_dict)
from canonsr.fit import forward_regression_press, press
from canonsr.grammar import load_default_grammar, random_tree, validate
from canonsr.pipeline import TradeoffSet, run_evolution, simplify_after_generation

ROWS = 20000
CENTERS = np.array([1.0, 2.0, 0.5, 3.0, 1.5])
N_VARS = CENTERS.size


def _sweep(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(CENTERS * 0.85, CENTERS * 1.15, size=(ROWS, N_VARS))


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    X = _sweep(0)
    names = tuple(f"x{i + 1}" for i in range(N_VARS))
    path = str(tmp_path_factory.mktemp("layers") / "sweep.csv")
    write_points_csv(names + ("y",), np.column_stack([X, X.sum(axis=1)]), path)
    return path


def test_load_csv_20000_rows_6_columns(benchmark, sweep_csv):
    ds = benchmark(load_csv, sweep_csv, "y")
    assert ds.X.shape == (ROWS, N_VARS)


def _model_8_bases() -> Model:
    rng = Draws(1)
    g = load_default_grammar()
    bases = [random_tree(g, 8, rng, N_VARS) for _ in range(8)]
    return Model(bases=bases, coeffs=np.ones(len(bases) + 1))


def test_eval_model_matrix_8_bases_20000_rows(benchmark):
    pred = benchmark(eval_model_matrix, _model_8_bases(), _sweep(1), 10.0)
    assert pred.shape == (ROWS,)


def test_cmd_eval_8_bases_20000_rows(benchmark, sweep_csv, tmp_path):
    """`canonsr eval` end to end: model JSON, CSV, prediction and write."""
    model_path, out_path = str(tmp_path / "model.json"), str(tmp_path / "p.csv")
    with open(model_path, "w", encoding="utf-8") as fh:
        json.dump({"model": model_to_dict(_model_8_bases()),
                   "var_names": [f"x{i + 1}" for i in range(N_VARS)],
                   "target_name": "y", "target_log_scaled": False,
                   "train_reference": 1.0, "B": 10.0}, fh)

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return main(["eval", "--model", model_path, "--data", sweep_csv,
                         "--out", out_path])

    assert benchmark(run) == 0


@pytest.fixture(scope="module")
def pm81_train():
    X = doe_full_factorial(DoePlan(centers=np.ones(4), dx=0.1))
    return oracle_dataset("pm_like", X, ("x1", "x2", "x3", "x4"))


@pytest.fixture(scope="module")
def pm81(pm81_train):
    return pm81_train.X, pm81_train.y, float(np.max(np.abs(pm81_train.y)))


def test_fit_model_15_stored_columns_81_rows(benchmark, pm81):
    X, y, ref = pm81
    cfg = RunConfig(max_bases=15)
    rng = Draws(2)
    g = load_default_grammar()
    bases = []
    while len(bases) < 15:
        tree = random_tree(g, cfg.max_depth, rng, 4, B=cfg.B)
        if stored_column(tree, X, cfg.B)[1]:   # stores the column
            bases.append(tree)
    model = benchmark(fit_model, bases, X, y, ref, cfg)
    assert model.valid and model.coeffs.shape == (16,)


class _OffspringArchive(ParetoArchive):
    """Keeps the offspring of the last generation that reached the archive."""

    def merge(self, candidates):
        self.offspring = list(candidates)
        super().merge(candidates)


@pytest.fixture(scope="module")
def pm81_offspring(pm81):
    """The bases of the 200 offspring of generation 6 of a pm_like run
    (population 200), whose trees keep their columns from that generation."""
    X, y, ref = pm81
    cfg = RunConfig(population=200, seed=12)
    g = load_default_grammar()
    rng = Draws(cfg.seed)
    pop = init_population(g, 4, X, y, ref, cfg, rng)
    archive = _OffspringArchive()
    for _ in range(6):
        pop = nsga2_generation(pop, X, y, ref, g, cfg, rng, archive)
    return [m.bases for m in archive.offspring], cfg


@pytest.mark.parametrize("batched", [True, False], ids=["fit_models", "fit_model_each"])
def test_fit_200_offspring_81_rows(benchmark, pm81, pm81_offspring, batched):
    """One generation's fits: one fit_models call, with one least-squares
    call per basis count, against one fit_model call per offspring."""
    X, y, ref = pm81
    bases_list, cfg = pm81_offspring
    if batched:
        models = benchmark(fit_models, bases_list, X, y, ref, cfg)
    else:
        models = benchmark(lambda: [fit_model(b, X, y, ref, cfg) for b in bases_list])
    expected = [fit_model(b, X, y, ref, cfg) for b in bases_list]
    assert len(models) == 200
    assert [(m.train_error, None if m.coeffs is None else m.coeffs.tobytes()) for m in models] \
        == [(m.train_error, None if m.coeffs is None else m.coeffs.tobytes()) for m in expected]


def _pm81_draw_script(count=100000, seed=12):
    """`count` draws in the mix of a pm81 run: `below` and `random` about
    5.5 to 1, one `standard_cauchy` per about 500 draws, and `below`'s
    ranges in the shares the run asks for them (200 is the tournament)."""
    script = random.Random(seed)
    ranges = script.choices((1, 2, 3, 4, 13, 200), weights=(34, 44, 56, 57, 5, 39), k=count)
    return [("standard_cauchy", None) if script.random() < 1 / 500
            else ("random", None) if script.random() < 1 / 6.5 else ("below", n)
            for n in ranges]


def _run_draws(draws, script):
    below, uniform, cauchy = draws.below, draws.random, draws.standard_cauchy
    return [below(n) if kind == "below" else uniform() if kind == "random" else cauchy()
            for kind, n in script]


def test_draws_100000_pm81_mix(benchmark):
    """The search's draws alone: per-draw cost, with the block hand-backs
    that `standard_cauchy` makes."""
    script = _pm81_draw_script()
    got = benchmark(lambda: _run_draws(Draws(12), script))
    gen = np.random.default_rng(12)
    assert got == [int(gen.integers(n)) if kind == "below" else
                   gen.random() if kind == "random" else gen.standard_cauchy()
                   for kind, n in script]


def test_draws_1000_hand_backs(benchmark):
    """`standard_cauchy` right after a fetch: the largest hand-back each time."""
    def cauchy_after_fetch():
        draws = Draws(13)
        return [(draws.random(), draws.standard_cauchy()) for _ in range(1000)]

    got = benchmark(cauchy_after_fetch)
    gen = np.random.default_rng(13)
    assert got == [(gen.random(), gen.standard_cauchy()) for _ in range(1000)]


def _grow_trees(count=200, seed=4):
    g = load_default_grammar()
    rng = Draws(seed)
    return [random_tree(g, 8, rng, 4) for _ in range(count)]


def test_random_tree_200_trees_depth_8_4_vars(benchmark):
    """Tree growth, the largest search layer; every round grows the same trees."""
    trees = benchmark(_grow_trees)
    expected = _grow_trees()
    assert [tree_to_dict(t) for t in trees] == [tree_to_dict(t) for t in expected]


def test_eval_basis_matrix_200_trees_81_rows(benchmark, pm81):
    """Basis evaluation without the kept columns, where per-node dispatch shows."""
    X = pm81[0]
    trees = _grow_trees()
    columns = benchmark(lambda: [eval_basis_matrix(t, X, 10.0) for t in trees])
    assert all(col.shape == (81,) for col in columns)


def test_grow_price_evaluate_200_new_pm81_bases(benchmark, pm81):
    """What a generation does with each new basis: grow it (default depth 8,
    4 variables), price it and evaluate its column on the 81 rows through
    the combo table, which earlier rounds filled as earlier generations do."""
    X = pm81[0]
    cfg = RunConfig()
    g = load_default_grammar()

    def new_bases():
        rng = Draws(4)
        trees = [random_tree(g, cfg.max_depth, rng, 4, B=cfg.B) for _ in range(200)]
        prices = [basis_complexity(t, cfg.wb, cfg.wvc) for t in trees]
        return trees, prices, [stored_column(t, X, cfg.B)[0] for t in trees]

    trees, prices, columns = benchmark(new_bases)
    walked = [NTNode(t.symbol, t.alt, t.children) for t in trees]     # priced by a walk
    assert prices == [basis_complexity(t, cfg.wb, cfg.wvc) for t in walked]
    assert all(col.shape == (81,) for col in columns)


def test_validate_200_trees_depth_8_4_vars(benchmark):
    g = load_default_grammar()
    trees = _grow_trees()
    violations = benchmark(lambda: [validate(t, g, max_depth=8, n_vars=4) for t in trees])
    assert not any(violations)


def test_nsga2_generation_population_200_pm_like(benchmark, pm81):
    X, y, ref = pm81
    cfg = RunConfig(population=200, generations=1, seed=3)
    g = load_default_grammar()
    pop = init_population(g, 4, X, y, ref, cfg, Draws(cfg.seed))

    def generation():
        rng = Draws(cfg.seed)
        return nsga2_generation(pop, X, y, ref, g, cfg, rng, ParetoArchive())

    assert len(benchmark(generation)) == cfg.population


def test_nondominated_sort_400_points_pm_like(benchmark, pm81):
    """Selection's sort at 2 x population 200, on the (error, complexity)
    points of 400 random pm_like models, copies of one point included."""
    X, y, ref = pm81
    cfg = RunConfig(population=400, seed=5)
    pop = init_population(load_default_grammar(), 4, X, y, ref, cfg, Draws(cfg.seed))
    objs = [(m.train_error, m.complexity) for m in pop]
    fronts = benchmark(nondominated_sort, objs)
    assert sorted(i for front in fronts for i in front) == list(range(400))


def test_environmental_selection_2x200_pm_like(benchmark, pm81):
    """Selection as nsga2_generation calls it: a population of 200 after 10
    generations, whose front 0 holds many copies, plus 200 random pm_like
    models in the place of the offspring."""
    X, y, ref = pm81
    cfg = RunConfig(population=200, seed=7)
    g = load_default_grammar()
    rng = Draws(cfg.seed)
    pop = init_population(g, 4, X, y, ref, cfg, rng)
    for _ in range(10):
        pop = nsga2_generation(pop, X, y, ref, g, cfg, rng, ParetoArchive())
    combined = pop + init_population(g, 4, X, y, ref, cfg, rng)
    objs = [(m.train_error, m.complexity) for m in combined]
    assert len(set(objs)) < len(objs)
    chosen = benchmark(_environmental_selection, combined, objs, cfg.population)
    assert len(chosen) == cfg.population


def test_op_weight_cauchy_mutate_15_bases(benchmark, pm81):
    """One leaf pick and rebuilt path per call, on 50 fitted 15-basis models."""
    X, y, ref = pm81
    cfg = RunConfig()
    rng = Draws(8)
    g = load_default_grammar()
    models = [fit_model([random_tree(g, cfg.max_depth, rng, 4, B=cfg.B) for _ in range(15)],
                        X, y, ref, cfg) for _ in range(50)]

    def mutate_all():
        draws = Draws(9)
        return [apply_operator("weight_cauchy_mutate", [m], g, 4, cfg, draws) for m in models]

    assert all(len(out[0]) == 15 for out in benchmark(mutate_all))


def test_simplify_after_generation_15_models_81_rows(benchmark, pm81_train, pm81):
    """SAG on 15 fitted models with 1 to 15 bases (pm_like fronts hold
    fewer); the columns are kept on the trees, as after evolution on the
    same train.X."""
    X, y, ref = pm81
    cfg = RunConfig()
    rng = Draws(6)
    g = load_default_grammar()
    models = []
    while len(models) < 15:
        bases = [random_tree(g, cfg.max_depth, rng, 4, B=cfg.B) for _ in range(len(models) + 1)]
        model = fit_model(bases, X, y, ref, cfg)
        if model.valid:
            models.append(model)
    ts = TradeoffSet(models=models, var_names=pm81_train.var_names, train_reference=ref)
    simplified = benchmark(simplify_after_generation, ts, pm81_train, cfg)
    assert 1 <= len(simplified) <= 15


@pytest.fixture(scope="module")
def wide243_front():
    """An evolved wide5 front on the 243-row factorial of the `wide243`
    workload (population 50, 30 generations), with its training data."""
    X = doe_full_factorial(DoePlan(centers=CENTERS, dx=0.1))
    x1, x2, x3, x4, x5 = X.T          # perfbench's wide5 target
    y = 5.0 + 40.0 * x1 / (x2 + 0.5 * x3) + 12.0 * np.sqrt(x4) * x5 + 8.0 * np.exp(-x2 * x5)
    train = Dataset(tuple(f"x{i + 1}" for i in range(N_VARS)), X, y, "y")
    cfg = RunConfig(population=50, generations=30, seed=11)
    return run_evolution(cfg, train).models, train.X, train.y, cfg


def _table_lookups(monkeypatch):
    """Counts of combo-table lookups and of those the table already held."""
    counts = {"lookups": 0, "hits": 0}
    real = expr._ComboTable.column

    def counted(table, exponents):
        counts["lookups"] += 1
        counts["hits"] += exponents in table.columns
        return real(table, exponents)

    monkeypatch.setattr(expr._ComboTable, "column", counted)
    return counts


@pytest.mark.parametrize("table", ["cold", "warm"])
def test_basis_evaluation_wide243_front(benchmark, wide243_front, monkeypatch, table):
    """Every basis of the front on a fresh copy of its X.  Cold: each round
    binds a new copy through stored_column, so the combo table starts empty.
    Warm: each round evaluates again on one bound copy, whose table the
    rounds before filled.  The table's hit rate in one round is printed and
    kept in the benchmark's extra info."""
    front, X, _, cfg = wide243_front
    bases = list({id(t): t for m in front for t in m.bases}.values())   # models share trees
    expected = [stored_column(t, X, cfg.B)[0].tobytes() for t in bases]
    Xw = X.copy()
    for t in bases:                    # binds Xw and fills its table
        stored_column(t, Xw, cfg.B)

    def cold():
        Xc = X.copy()
        return [stored_column(t, Xc, cfg.B)[0] for t in bases]

    def warm():
        return [eval_basis_matrix(t, Xw, cfg.B) for t in bases]

    run = cold if table == "cold" else warm
    counts = _table_lookups(monkeypatch)
    run()
    monkeypatch.undo()
    rate = counts["hits"] / counts["lookups"]
    print(f"\n{table}: {len(bases)} bases, {counts['lookups']} combo lookups, "
          f"hit rate {rate:.3f}, table holds {len(expr._COMBOS.columns)} columns")
    benchmark.extra_info.update(bases=len(bases), lookups=counts["lookups"], hit_rate=rate)
    assert [c.tobytes() for c in benchmark(run)] == expected


@pytest.fixture(scope="module")
def wide243_columns(wide243_front):
    """Basis columns and target of the 15 largest models of the front, the
    inputs SAG sees; SAG takes about a fifth of a `wide243` run."""
    front, X, y, cfg = wide243_front
    largest = sorted(front, key=lambda m: m.n_bases)[-15:]
    return [[stored_column(t, X, cfg.B)[0] for t in m.bases] for m in largest], y


def test_press_15_problems_243_rows(benchmark, wide243_columns):
    """press() on the offset plus all columns of each model."""
    models, y = wide243_columns
    matrices = [np.column_stack([np.ones(y.size)] + cols) for cols in models]
    values = benchmark(lambda: [press(Phi, y) for Phi in matrices])
    assert len(values) == 15


def test_forward_regression_press_15_models_243_rows(benchmark, wide243_columns):
    """SAG's selection on each model's columns, without the refits around it."""
    models, y = wide243_columns
    picked = benchmark(lambda: [forward_regression_press(cols, y)[0] for cols in models])
    assert all(len(sel) <= len(cols) for sel, cols in zip(picked, models))
