"""Command-line interface tests: exit codes, file formats, determinism."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import canonsr.evolve as evolve
import canonsr.pipeline as pipeline
from canonsr.cli import main
from canonsr.config import ConfigError, make_config, parse_config_values
from canonsr.dataset import (DoePlan, doe_full_factorial, load_csv, oracle_dataset,
                             write_points_csv)
from canonsr.grammar import default_grammar_text

NAMES4 = ("x1", "x2", "x3", "x4")


def _write_dataset(ds, path):
    write_points_csv(ds.var_names + (ds.target_name,), np.column_stack([ds.X, ds.y]), path)


@pytest.fixture()
def pm_files(tmp_path):
    train = oracle_dataset("pm_like",
                           doe_full_factorial(DoePlan(np.ones(4), dx=0.1)), NAMES4)
    test = oracle_dataset("pm_like",
                          doe_full_factorial(DoePlan(np.ones(4), dx=0.03)), NAMES4)
    train_path = str(tmp_path / "train.csv")
    test_path = str(tmp_path / "test.csv")
    _write_dataset(train, train_path)
    _write_dataset(test, test_path)
    cfg_path = str(tmp_path / "run.cfg")
    with open(cfg_path, "w") as fh:
        fh.write("population = 30\ngenerations = 6\nseed = 4\n")
    return train_path, test_path, cfg_path


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _parse_config(text):
    return make_config(parse_config_values(text), "<config>")


def test_config_defaults_and_overrides():
    cfg = _parse_config("population = 64\nwvc = 0.5\n"
                            "operator.subtree_mutate.weight = 2.5\n# note\n"
                            "max_depth = 20\nmax_bases = 4294967295\n")  # the ceilings
    assert cfg.population == 64
    assert (cfg.max_depth, cfg.max_bases) == (20, 2 ** 32 - 1)
    assert cfg.wvc == 0.5
    assert cfg.operator_weights["subtree_mutate"] == 2.5
    assert cfg.operator_weights["weight_cauchy_mutate"] == 5.0   # default kept


def test_config_unknown_key_is_hard_error():
    with pytest.raises(ConfigError, match="populaton"):
        _parse_config("populaton = 10\n")


def test_config_unknown_operator_rejected():
    with pytest.raises(ConfigError, match="unknown operator"):
        _parse_config("operator.nope.weight = 1\n")


def test_config_type_and_duplicate_errors():
    with pytest.raises(ConfigError, match="int"):
        _parse_config("population = many\n")
    with pytest.raises(ConfigError, match="duplicate"):
        _parse_config("seed = 1\nseed = 2\n")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_produces_front_and_exit_zero(pm_files, tmp_path, capsys):
    train_path, test_path, cfg_path = pm_files
    out_dir = str(tmp_path / "out")
    code = main(["run", "--config", cfg_path, "--train", train_path,
                 "--test", test_path, "--target", "pm_like",
                 "--out", out_dir, "--quiet"])
    assert code == 0
    assert (tmp_path / "out" / "front.csv").exists()
    captured = capsys.readouterr()
    assert "train%" in captured.out


def test_run_missing_train_flag_exits_2(pm_files, capsys):
    _, test_path, cfg_path = pm_files
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", cfg_path, "--test", test_path,
              "--target", "pm_like", "--out", "/tmp/nope"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_run_bad_config_exits_2(pm_files, tmp_path, capsys):
    train_path, test_path, _ = pm_files
    bad_cfg = str(tmp_path / "bad.cfg")
    with open(bad_cfg, "w") as fh:
        fh.write("not_a_key = 3\n")
    code = main(["run", "--config", bad_cfg, "--train", train_path,
                 "--test", test_path, "--target", "pm_like",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not_a_key" in capsys.readouterr().err


def test_run_bad_data_exits_3(pm_files, tmp_path, capsys):
    train_path, test_path, cfg_path = pm_files
    broken = str(tmp_path / "broken.csv")
    with open(broken, "w") as fh:
        fh.write("x1,x2,x3,x4,pm_like\n1,2,3,4,oops\n")
    code = main(["run", "--config", cfg_path, "--train", broken,
                 "--test", test_path, "--target", "pm_like",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "oops" in capsys.readouterr().err


def test_run_without_design_variables_exits_3_and_eval_still_works(tmp_path, capsys):
    """A training file holding only the target has nothing to build bases
    from: run exits 3 before any draw.  A zero-variable model still
    evaluates on such a file."""
    target_only = tmp_path / "y_only.csv"
    target_only.write_text("y\n1.0\n2.0\n4.0\n")
    code = main(["run", "--train", str(target_only), "--test", str(target_only),
                 "--target", "y", "--out", str(tmp_path / "o"), "--quiet"])
    captured = capsys.readouterr()
    assert code == 3
    assert "Traceback" not in captured.err
    assert "no design-variable column" in captured.err
    assert not (tmp_path / "o").exists()

    model = tmp_path / "model.json"
    model.write_text('{"model": {"bases": [], "coeffs": [2.0]}, "var_names": [], '
                     '"target_name": "y", "target_log_scaled": false, '
                     '"train_reference": 2.0, "B": 10.0}')
    preds = tmp_path / "p.csv"
    code = main(["eval", "--model", str(model), "--data", str(target_only),
                 "--out", str(preds)])
    assert code == 0
    assert preds.read_text() == "prediction\n2.0\n2.0\n2.0\n"


def _two_var_files(tmp_path, test_names):
    """A 10-row train CSV over x1, x2 and a test CSV over `test_names`, and
    a config of population 10 and 20 generations."""
    X = np.linspace(1.0, 2.0, 20).reshape(10, 2)
    y = X[:, 0] + X[:, 1] ** 2
    train, test = str(tmp_path / "train.csv"), str(tmp_path / "test.csv")
    write_points_csv(("x1", "x2", "y"), np.column_stack([X, y]), train)
    write_points_csv(test_names + ("y",), np.column_stack([X, y]), test)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("population = 10\ngenerations = 20\n")
    return ["run", "--config", str(cfg), "--train", train, "--test", test, "--target", "y"]


def test_run_test_variables_differ_exits_3_before_generation_1(tmp_path, capsys):
    """A test CSV over other variables is refused before any generation
    runs, and the refused run leaves no output directory."""
    out = tmp_path / "outdir"
    code = main(_two_var_files(tmp_path, ("x1", "x3")) + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert "test variables ['x1', 'x3'] do not match the training variables " \
           "['x1', 'x2']" in captured.err
    assert "generation" not in captured.out
    assert not out.exists()


def test_run_unwritable_out_exits_3_before_generation_1(tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    code = main(_two_var_files(tmp_path, ("x2", "x1")) + ["--out", str(blocker / "out")])
    captured = capsys.readouterr()
    assert code == 3
    assert "cannot create output directory" in captured.err
    assert "generation" not in captured.out


def test_run_test_columns_in_another_order_run(tmp_path, capsys):
    out = tmp_path / "outdir"
    code = main(_two_var_files(tmp_path, ("x2", "x1")) + ["--out", str(out)])
    assert code == 0
    assert "generation 20/20" in capsys.readouterr().out
    assert (out / "front.csv").exists()


def test_run_seed_flag_repeats_identically(pm_files, tmp_path):
    train_path, test_path, cfg_path = pm_files
    dirs = [str(tmp_path / "r1"), str(tmp_path / "r2")]
    for d in dirs:
        code = main(["run", "--config", cfg_path, "--train", train_path,
                     "--test", test_path, "--target", "pm_like",
                     "--out", d, "--seed", "11", "--quiet"])
        assert code == 0
    a = Path(dirs[0] + "/front.csv").read_bytes()
    b = Path(dirs[1] + "/front.csv").read_bytes()
    assert a == b


def test_run_log_target_wraps_model_text(pm_files, tmp_path):
    train_path, test_path, cfg_path = pm_files
    out_dir = str(tmp_path / "log_out")
    code = main(["run", "--config", cfg_path, "--train", train_path,
                 "--test", test_path, "--target", "pm_like",
                 "--out", out_dir, "--log-target", "--quiet"])
    assert code == 0
    text = Path(out_dir + "/model_0.txt").read_text().strip()
    assert text.startswith("10^(") and text.endswith(")")


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def _centers_csv(tmp_path, d):
    path = str(tmp_path / f"centers{d}.csv")
    with open(path, "w") as fh:
        fh.write(",".join(f"v{i}" for i in range(d)) + "\n")
        fh.write(",".join(["1.0"] * d) + "\n")
    return path


def test_sample_factorial_five_vars_243_rows(tmp_path):
    centers = _centers_csv(tmp_path, 5)
    out = str(tmp_path / "doe.csv")
    assert main(["sample", "--centers", centers, "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert len(lines) == 244          # header + 243 points
    assert lines[0] == "v0,v1,v2,v3,v4"


def test_sample_factorial_over_budget_exits_2(tmp_path, capsys):
    centers = _centers_csv(tmp_path, 13)
    code = main(["sample", "--centers", centers, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "doe_latin_hypercube" in capsys.readouterr().err


def test_sample_lhs_mode(tmp_path):
    centers = _centers_csv(tmp_path, 13)
    out = str(tmp_path / "lhs.csv")
    code = main(["sample", "--centers", centers, "--mode", "lhs", "--n", "40",
                 "--out", out, "--seed", "3"])
    assert code == 0
    assert len(Path(out).read_text().splitlines()) == 41


def test_sample_narrower_dx_narrower_ranges(tmp_path):
    centers = _centers_csv(tmp_path, 3)
    wide, narrow = str(tmp_path / "w.csv"), str(tmp_path / "n.csv")
    main(["sample", "--centers", centers, "--dx", "0.1", "--out", wide])
    main(["sample", "--centers", centers, "--dx", "0.03", "--out", narrow])
    for col in range(3):
        w = [float(r.split(",")[col]) for r in Path(wide).read_text().splitlines()[1:]]
        n = [float(r.split(",")[col]) for r in Path(narrow).read_text().splitlines()[1:]]
        assert (max(n) - min(n)) < (max(w) - min(w))


def _sample_exit(tmp_path, centers_text):
    path = tmp_path / "centers.csv"
    path.write_text(centers_text, encoding="utf-8")
    return main(["sample", "--centers", str(path), "--out", str(tmp_path / "x.csv")])


@pytest.mark.parametrize("flags, message", [
    (["--dx", "-1"], "dx must be positive"),
    (["--dx", "nan"], "dx must be positive"),
    (["--budget", "0"], "budget must be >= 1"),
    (["--mode", "lhs", "--n", "0"], "n must be >= 1"),
    (["--mode", "lhs", "--seed", "-1"], "non-negative"),
])
def test_sample_invalid_plan_exits_2(tmp_path, capsys, flags, message):
    out = tmp_path / "x.csv"
    code = main(["sample", "--centers", _centers_csv(tmp_path, 2), "--out", str(out), *flags])
    _assert_config_exit(code, capsys, message)
    assert not out.exists()


@pytest.mark.parametrize("mode, centers, dx", [
    ("factorial", "1e308,2\n", "1e308"),
    ("lhs", "1e308,2\n", "1e308"),
    ("lhs", "1,5.5e307\n", "2"),       # finite ends, but the width between them overflows
])
def test_sample_non_finite_points_exit_2_and_write_nothing(tmp_path, capsys, mode, centers, dx):
    path = tmp_path / "centers.csv"
    path.write_text("a,b\n" + centers, encoding="utf-8")
    out = tmp_path / "x.csv"
    code = main(["sample", "--centers", str(path), "--mode", mode, "--dx", dx,
                 "--out", str(out)])
    name, value = ("a", "1e+308") if dx == "1e308" else ("b", "5.5e+307")
    _assert_config_exit(code, capsys, f"--dx {float(dx)!r} around centre {name} = {value} "
                                      f"gives design points that are not finite")
    assert not out.exists()


def test_sample_lhs_over_budget_exits_2_before_allocating(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated the design")
    monkeypatch.setattr(np, "empty", refuse)
    out = tmp_path / "x.csv"
    for n, budget in (("100000000000", []), ("41", ["--budget", "40"])):
        code = main(["sample", "--centers", _centers_csv(tmp_path, 2), "--mode", "lhs",
                     "--n", n, *budget, "--out", str(out)])
        _assert_config_exit(code, capsys, f"latin hypercube of {n} samples is over budget")
        assert not out.exists()


def test_sample_centers_ragged_row_exits_3(tmp_path, capsys):
    assert _sample_exit(tmp_path, "a,b\n1,2,3\n") == 3
    assert "row 1 has 3 values, expected 2" in capsys.readouterr().err


def test_sample_centers_empty_header_name_exits_3(tmp_path, capsys):
    assert _sample_exit(tmp_path, "a,\n1,2\n") == 3
    assert "empty header name" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_reproduces_stored_train_error(pm_files, tmp_path, capsys):
    train_path, test_path, cfg_path = pm_files
    out_dir = str(tmp_path / "out")
    main(["run", "--config", cfg_path, "--train", train_path, "--test", test_path,
          "--target", "pm_like", "--out", out_dir, "--quiet"])
    capsys.readouterr()

    import csv as _csv
    with open(out_dir + "/front.csv") as fh:
        rows = list(_csv.DictReader(fh))
    preds = str(tmp_path / "p.csv")
    code = main(["eval", "--model", out_dir + "/model_1.json",
                 "--data", train_path, "--out", preds])
    assert code == 0
    printed = capsys.readouterr().out
    reported = float(printed.split("nmse_pct:")[1].split()[0])
    assert abs(reported - float(rows[1]["train_error_pct"])) <= 1e-10
    assert len(Path(preds).read_text().splitlines()) == 82     # header + 81 rows


def test_eval_constant_model_predictions(pm_files, tmp_path, capsys):
    train_path, test_path, cfg_path = pm_files
    out_dir = str(tmp_path / "out")
    main(["run", "--config", cfg_path, "--train", train_path, "--test", test_path,
          "--target", "pm_like", "--out", out_dir, "--quiet"])
    preds = str(tmp_path / "p.csv")
    main(["eval", "--model", out_dir + "/model_0.json", "--data", train_path,
          "--out", preds])
    values = {v for v in Path(preds).read_text().splitlines()[1:]}
    assert len(values) == 1           # a constant model predicts one value


def test_eval_shuffled_columns_same_predictions(pm_files, tmp_path, capsys):
    train_path, test_path, cfg_path = pm_files
    out_dir = str(tmp_path / "out")
    main(["run", "--config", cfg_path, "--train", train_path, "--test", test_path,
          "--target", "pm_like", "--out", out_dir, "--quiet"])

    ds = load_csv(train_path, "pm_like")
    shuffled_path = str(tmp_path / "shuffled.csv")
    with open(shuffled_path, "w") as fh:
        order = [3, 0, 2, 1]
        fh.write(",".join([ds.var_names[i] for i in order]) + ",pm_like\n")
        for i in range(ds.n_samples):
            fh.write(",".join(repr(float(ds.X[i, j])) for j in order)
                     + f",{float(ds.y[i])!r}\n")

    p1, p2 = str(tmp_path / "p1.csv"), str(tmp_path / "p2.csv")
    main(["eval", "--model", out_dir + "/model_1.json", "--data", train_path, "--out", p1])
    main(["eval", "--model", out_dir + "/model_1.json", "--data", shuffled_path, "--out", p2])
    assert Path(p1).read_text() == Path(p2).read_text()


def test_eval_name_mismatch_exits_3(pm_files, tmp_path, capsys):
    train_path, test_path, cfg_path = pm_files
    out_dir = str(tmp_path / "out")
    main(["run", "--config", cfg_path, "--train", train_path, "--test", test_path,
          "--target", "pm_like", "--out", out_dir, "--quiet"])
    bad_path = str(tmp_path / "bad.csv")
    with open(bad_path, "w") as fh:
        fh.write("a,b,c,d,pm_like\n1,1,1,1,300\n")
    code = main(["eval", "--model", out_dir + "/model_0.json", "--data", bad_path])
    assert code == 3


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_offset_like_constant_reaches_zero_error(tmp_path, capsys):
    code = main(["bench", "--suite", "offset_like", "--seed", "0",
                 "--generations", "3", "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    assert "wall_clock_s" in out
    assert "generations: 3" in out
    # the constant model fits a constant target exactly
    first_front_line = [l for l in out.splitlines() if l.strip().startswith("0 ")][0]
    assert float(first_front_line.split()[3]) < 1e-9


def test_bench_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--suite", "mystery"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# every invalid configuration exits 2 without a traceback
# ---------------------------------------------------------------------------

def _run_with_config(pm_files, tmp_path, text, *extra):
    train_path, test_path, _ = pm_files
    cfg_path = str(tmp_path / "case.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(text)
    return main(["run", "--config", cfg_path, "--train", train_path,
                 "--test", test_path, "--target", "pm_like",
                 "--out", str(tmp_path / "o"), "--quiet", *extra])


def _assert_config_exit(code, capsys, needle):
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert needle in err


def test_run_operator_weight_with_invalid_field_exits_2(pm_files, tmp_path, capsys):
    code = _run_with_config(pm_files, tmp_path,
                            "population = 0\noperator.basis_add.weight = 2\n")
    _assert_config_exit(code, capsys, "'population' must be positive")


def test_run_nonpositive_operator_weight_exits_2(pm_files, tmp_path, capsys):
    code = _run_with_config(pm_files, tmp_path, "operator.basis_add.weight = -1\n")
    _assert_config_exit(code, capsys, "'basis_add' must be positive")


def test_run_nonfinite_operator_weight_exits_2(pm_files, tmp_path, capsys):
    code = _run_with_config(pm_files, tmp_path, "operator.basis_add.weight = nan\n")
    _assert_config_exit(code, capsys, "'basis_add' must be positive")


def test_run_nonfinite_float_field_exits_2(pm_files, tmp_path, capsys):
    code = _run_with_config(pm_files, tmp_path, "B = inf\n")
    _assert_config_exit(code, capsys, "'B' must be positive")


def test_run_huge_B_exits_2(pm_files, tmp_path, capsys):
    # finite, but 10**B and the [-2B, 2B] weight range overflow
    code = _run_with_config(pm_files, tmp_path, "B = 1e308\n")
    _assert_config_exit(code, capsys, "'B' is too large")


def test_run_on_targets_near_the_largest_double_warns_nothing(tmp_path, capsys, monkeypatch):
    """Fits whose predictions or leave-one-out residuals overflow are marked
    invalid without a numpy RuntimeWarning: with warnings turned into errors
    the run exits 0 and marks the same fits invalid as with them ignored."""
    top = float(np.finfo(float).max)
    X = doe_full_factorial(DoePlan(np.ones(3), dx=0.1))       # 27 rows
    data = str(tmp_path / "data.csv")
    write_points_csv(("x1", "x2", "x3", "y"),
                     np.column_stack([X, top * (X[:, 0] / X[:, 0].max())]), data)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("population = 20\ngenerations = 3\nseed = 1\n")
    real = evolve.fit_models

    def run(action):
        valid = []

        def recorded(*args):
            models = real(*args)
            valid.append([m.valid for m in models])
            return models

        monkeypatch.setattr(evolve, "fit_models", recorded)
        monkeypatch.setattr(pipeline, "fit_models", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            code = main(["run", "--config", str(cfg_path), "--train", data, "--test", data,
                         "--target", "y", "--out", str(tmp_path / action), "--quiet"])
        return code, valid

    code, valid = run("error")
    assert code == 0 and "Warning" not in capsys.readouterr().err
    assert run("ignore") == (0, valid)
    marks = [v for batch in valid for v in batch]
    assert marks.count(False) and marks.count(True)


@pytest.mark.parametrize("text, message", [
    # trees this deep would overflow the call stack while they grow
    ("max_depth = 2000\n", "'max_depth' must be at most 20"),
    # trees this deep average about 17,000 nodes: a run that never finishes
    ("max_depth = 30\n", "'max_depth' must be at most 20"),
    # Draws.below(max_bases) would never return
    ("max_bases = 4294967297\n", "'max_bases' must be at most 4294967295"),
    ("max_bases = 4294967296\n", "'max_bases' must be at most 4294967295"),
])
def test_run_unrunnable_search_bounds_exit_2_before_evolution(pm_files, tmp_path, capsys,
                                                              text, message):
    code = _run_with_config(pm_files, tmp_path, text)
    _assert_config_exit(code, capsys, message)
    assert not (tmp_path / "o").exists()


def test_run_missing_grammar_file_exits_2(pm_files, tmp_path, capsys):
    missing = str(tmp_path / "no_such.grammar")
    code = _run_with_config(pm_files, tmp_path, f"grammar = {missing}\n")
    _assert_config_exit(code, capsys, "cannot read grammar file")


def test_run_non_utf8_config_file_exits_2(pm_files, tmp_path, capsys):
    train_path, test_path, _ = pm_files
    cfg_path = tmp_path / "latin1.cfg"
    cfg_path.write_bytes(b"seed = 1 # \xe9\n")
    code = main(["run", "--config", str(cfg_path), "--train", train_path,
                 "--test", test_path, "--target", "pm_like",
                 "--out", str(tmp_path / "o"), "--quiet"])
    _assert_config_exit(code, capsys, "cannot read config file")


def test_run_non_utf8_grammar_file_exits_2(pm_files, tmp_path, capsys):
    grammar_path = tmp_path / "latin1.grammar"
    grammar_path.write_bytes(default_grammar_text().encode("utf-8") + b"# \xe9\n")
    code = _run_with_config(pm_files, tmp_path, f"grammar = {grammar_path}\n")
    _assert_config_exit(code, capsys, "cannot read grammar file")


@pytest.mark.parametrize("text, message", [
    ("REPVC => 'VC' | 'FOO'\n", "line 1: REPVC => 'FOO'"),
    ("REPVC => 'VC' | REPOP\nREPOP => 1OP '(' REPVC ')'\n1OP => 'SIN'\n", "line 2: REPOP"),
    ("REPVC => 'VC' | FOO\nFOO => 'VC'\n", "line 1: REPVC => FOO"),
    ("REPVC => 'VC' | REPVC '+' REPOP | REPOP\nREPOP => 1OP '(' 'W' '+' REPADD ')'\n"
     "REPADD => 'W' '*' REPVC\n1OP => 'SIN'\n", "line 1: REPVC => REPVC '+' REPOP"),
])
def test_run_non_canonical_grammar_exits_2(pm_files, tmp_path, capsys, text, message):
    grammar_path = tmp_path / "odd.grammar"
    grammar_path.write_text(text)
    code = _run_with_config(pm_files, tmp_path,
                            f"population = 10\ngenerations = 2\ngrammar = {grammar_path}\n")
    _assert_config_exit(code, capsys, f"error: {message}")


def test_run_max_depth_below_the_grammar_minimum_exits_2(pm_files, tmp_path, capsys):
    # without 'VC', REPVC derives nothing shorter than REPVC -> REPOP -> MAYBEW
    grammar_path = tmp_path / "lte.grammar"
    grammar_path.write_text("REPVC => REPOP\n"
                            "REPOP => 4OP '(' MAYBEW ',' MAYBEW ',' MAYBEW ',' MAYBEW ')'\n"
                            "MAYBEW => 'W'\n4OP => 'LTE'\n")
    code = _run_with_config(pm_files, tmp_path,
                            f"max_depth = 2\npopulation = 4\ngrammar = {grammar_path}\n")
    _assert_config_exit(code, capsys, "below the grammar's minimum derivation depth 3")


def test_run_unusable_out_exits_3_before_evolution(pm_files, tmp_path, capsys):
    train_path, test_path, cfg_path = pm_files
    (tmp_path / "afile").write_text("")
    code = main(["run", "--config", cfg_path, "--train", train_path,
                 "--test", test_path, "--target", "pm_like",
                 "--out", str(tmp_path / "afile" / "sub")])
    captured = capsys.readouterr()
    assert code == 3
    assert "Traceback" not in captured.err
    assert "cannot create output directory" in captured.err
    assert "generation" not in captured.out


def test_bench_zero_generations_exits_2(capsys):
    code = main(["bench", "--suite", "offset_like", "--generations", "0", "--quiet"])
    _assert_config_exit(code, capsys, "'generations' must be positive")


@pytest.mark.parametrize("text, flags", [("seed = -1\n", ()), ("", ("--seed", "-1"))])
def test_run_negative_seed_exits_2(pm_files, tmp_path, capsys, text, flags):
    code = _run_with_config(pm_files, tmp_path, text, *flags)
    _assert_config_exit(code, capsys, "'seed' must be zero or positive")


def test_bench_negative_seed_exits_2(capsys):
    code = main(["bench", "--suite", "offset_like", "--seed", "-1", "--quiet"])
    _assert_config_exit(code, capsys, "'seed' must be zero or positive")


def test_run_sig_figs_beyond_17_exits_2_before_evolution(pm_files, tmp_path, capsys):
    code = _run_with_config(pm_files, tmp_path, "sig_figs = 10000000000000000000\n")
    _assert_config_exit(code, capsys, "'sig_figs' must be at most 17")
    assert not (tmp_path / "o").exists()


def test_run_sig_figs_17_runs(pm_files, tmp_path, capsys):
    code = _run_with_config(pm_files, tmp_path,
                            "population = 10\ngenerations = 2\nsig_figs = 17\n")
    assert code == 0
    assert (tmp_path / "o" / "model_0.txt").exists()


# ---------------------------------------------------------------------------
# every unreadable data or model file, and every unwritable output, exits 3
# without a traceback
# ---------------------------------------------------------------------------

CONSTANT_MODEL = ('{"model": {"bases": [], "coeffs": [2.0]}, "var_names": ["x"], '
                  '"target_name": "y", "target_log_scaled": false, '
                  '"train_reference": 2.0, "B": 10.0}')


def _eval(tmp_path, model_text, data_bytes, model_path=None):
    if model_path is None:
        model_path = tmp_path / "model.json"
        model_path.write_text(model_text)
    data_path = tmp_path / "data.csv"
    data_path.write_bytes(data_bytes)
    return main(["eval", "--model", str(model_path), "--data", str(data_path),
                 "--out", str(tmp_path / "p.csv")])


def _assert_data_exit(code, capsys, needle):
    captured = capsys.readouterr()
    assert code == 3
    assert "Traceback" not in captured.err
    assert needle in captured.err
    return captured


def test_eval_hand_written_model_file(tmp_path, capsys):
    assert _eval(tmp_path, CONSTANT_MODEL, b"x,y\n1,2\n") == 0
    assert "nmse_pct: 0.0" in capsys.readouterr().out


def test_eval_non_utf8_samples_exits_3(tmp_path, capsys):
    code = _eval(tmp_path, CONSTANT_MODEL, b"x,y\n1,\xe9\n")
    _assert_data_exit(code, capsys, "not UTF-8 text")


def test_eval_oversized_cell_exits_3(tmp_path, capsys):
    code = _eval(tmp_path, CONSTANT_MODEL, b"x,y\n1," + b"2" * 140_000 + b"\n")
    _assert_data_exit(code, capsys, "field larger than field limit")


def test_eval_data_path_is_a_directory_exits_3(tmp_path, capsys):
    (tmp_path / "model.json").write_text(CONSTANT_MODEL)
    code = main(["eval", "--model", str(tmp_path / "model.json"), "--data", str(tmp_path),
                 "--out", str(tmp_path / "p.csv")])
    _assert_data_exit(code, capsys, "Is a directory")


def test_bench_unusable_out_exits_3_before_evolution(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    code = main(["bench", "--suite", "offset_like", "--generations", "3",
                 "--out", str(tmp_path / "afile" / "sub")])
    captured = _assert_data_exit(code, capsys, "cannot create output directory")
    assert "generation" not in captured.out


def test_sample_unwritable_out_exits_3(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    code = main(["sample", "--centers", _centers_csv(tmp_path, 2),
                 "--out", str(tmp_path / "afile" / "x.csv")])
    _assert_data_exit(code, capsys, "Not a directory")


def test_eval_unwritable_out_exits_3(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    (tmp_path / "model.json").write_text(CONSTANT_MODEL)
    (tmp_path / "data.csv").write_text("x,y\n1,2\n")
    code = main(["eval", "--model", str(tmp_path / "model.json"),
                 "--data", str(tmp_path / "data.csv"),
                 "--out", str(tmp_path / "afile" / "p.csv")])
    _assert_data_exit(code, capsys, "Not a directory")


def test_eval_malformed_model_json_exits_3(tmp_path, capsys):
    code = _eval(tmp_path, '{"model": ', b"x,y\n1,2\n")
    _assert_data_exit(code, capsys, "cannot read model file")


def test_eval_model_json_without_var_names_exits_3(tmp_path, capsys):
    code = _eval(tmp_path, CONSTANT_MODEL.replace('"var_names": ["x"], ', ""),
                 b"x,y\n1,2\n")
    _assert_data_exit(code, capsys, "missing key(s) var_names")


def test_eval_model_path_is_a_directory_exits_3(tmp_path, capsys):
    code = _eval(tmp_path, None, b"x,y\n1,2\n", model_path=tmp_path)
    _assert_data_exit(code, capsys, "cannot read model file")


# x * z^-1 with offset -0.0: row by row it gives x exactly, 1/0 and 0/0
RATIO_MODEL = ('{"model": {"bases": [{"kind": "nt", "symbol": "REPVC", "alt": 0, '
               '"children": [{"kind": "vc", "exponents": [1, -1]}]}], '
               '"coeffs": [-0.0, 1.0]}, "var_names": ["x", "z"], "target_name": "y", '
               '"target_log_scaled": false, "train_reference": 1.0, "B": 10.0}')


def test_eval_predictions_match_the_per_line_repr_format(tmp_path, capsys):
    xs = ["-0.0", "5e-324", "1e16", "1e-05", "1", "0"]
    zs = ["1", "1", "1", "1", "0", "0"]
    rows = "".join(f"{x},{z},1\n" for x, z in zip(xs, zs))
    assert _eval(tmp_path, RATIO_MODEL, ("x,z,y\n" + rows).encode()) == 0
    written = (tmp_path / "p.csv").read_bytes()
    expected = [-0.0, 5e-324, 1e16, 1e-05, float("inf"), float("nan")]
    per_line = "prediction\n" + "".join(repr(float(v)) + "\n" for v in np.array(expected))
    assert written == per_line.encode()
    assert written == b"prediction\n-0.0\n5e-324\n1e+16\n1e-05\ninf\nnan\n"


def _nt(symbol, *children):
    return {"kind": "nt", "symbol": symbol, "alt": 0, "children": list(children)}


def _model_text(bases, coeffs, B=10.0):
    return json.dumps({"model": {"bases": bases, "coeffs": coeffs}, "var_names": ["x", "z"],
                       "target_name": "y", "target_log_scaled": False,
                       "train_reference": 1.0, "B": B})


def _sin_basis(stored):
    # sin(w + w * x / z)
    weight = {"kind": "w", "stored": stored}
    ratio = _nt("REPVC", {"kind": "vc", "exponents": [1, -1]})
    return _nt("REPVC", _nt("REPOP", _nt("1OP", {"kind": "op", "name": "sin"}),
                            weight, _nt("REPADD", weight, ratio)))


def test_eval_checked_model_with_an_operator_evaluates(tmp_path, capsys):
    assert _eval(tmp_path, _model_text([_sin_basis(10.0)], [0.0, 1.0]), b"x,z,y\n1,2,0\n") == 0
    assert (tmp_path / "p.csv").read_text() == f"prediction\n{float(np.sin(1.5))!r}\n"


@pytest.mark.parametrize("bases, coeffs, message", [
    ([_nt("FOO", {"kind": "vc", "exponents": [1, 0]})], [0.0, 1.0],
     "a basis must be a REPVC node"),
    ([_nt("REPVC", {"kind": "vc", "exponents": [1, 0]})], [0.0], "1 bases need 2 coefficients"),
    ([_nt("REPVC")], [0.0, 1.0], "REPVC =>  is not canonical form"),
    ([_sin_basis(1e9)], [0.0, 1.0], "stored weight 1000000000.0 outside [-2B, 2B] for B=10.0"),
    ([_nt("REPVC", {"kind": "vc", "exponents": [1]})], [0.0, 1.0],
     "variable combo [1] is not 2 exponents"),
    ([_nt("REPVC", {"kind": "vc", "exponents": [10 ** 400, 0]})], [0.0, 1.0],
     "is not 2 exponents within float range"),
    # int() would read these as x^0 * z^1
    ([_nt("REPVC", {"kind": "vc", "exponents": [0.5, True]})], [0.0, 1.0],
     "variable combo [0.5, True] needs integer exponents"),
    # float() would read these as 1.0, 10.0 and [1.0, 2.0]
    ([_sin_basis(True)], [0.0, 1.0], "stored weight must be a number, got True"),
    ([_sin_basis("10")], [0.0, 1.0], "stored weight must be a number, got '10'"),
    ([_nt("REPVC", {"kind": "vc", "exponents": [1, -1]})], [True, "2"],
     "coeffs entry must be a number, got True"),
    ([_nt("REPVC", {"kind": "vc", "exponents": [1, -1]})], [0.0, "2"],
     "coeffs entry must be a number, got '2'"),
    # JSON Infinity and NaN, which no run writes
    ([_nt("REPVC", {"kind": "vc", "exponents": [1, -1]})], [float("inf"), 1.0],
     "coefficients must be finite, got [inf, 1.0]"),
    ([_nt("REPVC", {"kind": "vc", "exponents": [1, -1]})], [0.0, float("nan")],
     "coefficients must be finite, got [0.0, nan]"),
    ([{**_nt("REPVC", {"kind": "vc", "exponents": [1, -1]}), "alt": True}], [0.0, 1.0],
     "alternative index True is not an integer"),
    ([{**_nt("REPVC", {"kind": "vc", "exponents": [1, -1]}), "alt": "0"}], [0.0, 1.0],
     "alternative index '0' is not an integer"),
])
def test_eval_model_that_cannot_be_evaluated_exits_3(tmp_path, capsys, bases, coeffs, message):
    code = _eval(tmp_path, _model_text(bases, coeffs), b"x,z,y\n1,2,0\n")
    captured = _assert_data_exit(code, capsys, "cannot read model file")
    assert str(tmp_path / "model.json") in captured.err
    assert message in captured.err


@pytest.mark.parametrize("field, value", [("B", "10"), ("B", True), ("train_reference", "5"),
                                          ("train_reference", True)])
def test_eval_model_file_numbers_must_be_numbers(tmp_path, capsys, field, value):
    payload = json.loads(_model_text([_sin_basis(10.0)], [0.0, 1.0]))
    payload[field] = value
    code = _eval(tmp_path, json.dumps(payload), b"x,z,y\n1,2,0\n")
    captured = _assert_data_exit(code, capsys, "cannot read model file")
    assert f"{field} must be a number, got {value!r}" in captured.err


@pytest.mark.parametrize("stored, B_text, message", [
    # 10**(750 - 400) overflows when the weight is evaluated
    (750.0, "400.0", "10**B finite; got 400.0"),
    # read as inf, B once made every weight 0 and eval print a wrong error
    (10.0, "1e400", "B must be positive and finite"),
    (10.0, "NaN", "B must be positive and finite"),
    (0.0, "0.0", "B must be positive and finite"),
    (0.0, "-1.0", "B must be positive and finite"),
])
def test_eval_model_file_B_must_be_one_a_run_can_write(tmp_path, capsys, stored, B_text,
                                                         message):
    text = _model_text([_sin_basis(stored)], [0.0, 1.0]).replace('"B": 10.0', f'"B": {B_text}')
    code = _eval(tmp_path, text, b"x,z,y\n1,2,0\n")
    captured = _assert_data_exit(code, capsys, "cannot read model file")
    assert message in captured.err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("value", ["0.0", "-2.0", "1e400", "NaN"])
def test_eval_model_file_train_reference_must_be_positive_and_finite(tmp_path, capsys, value):
    text = _model_text([_sin_basis(10.0)], [0.0, 1.0]).replace(
        '"train_reference": 1.0', f'"train_reference": {value}')
    code = _eval(tmp_path, text, b"x,z,y\n1,2,0\n")
    captured = _assert_data_exit(code, capsys, "cannot read model file")
    assert "train_reference must be positive and finite" in captured.err


@pytest.mark.parametrize("value", ["false", "true", 0, 1])
@pytest.mark.parametrize("field", ["target_log_scaled", "valid"])
def test_eval_model_file_flags_must_be_booleans(tmp_path, capsys, field, value):
    # read by truthiness, "false" made eval score and write 10^prediction
    payload = json.loads(_model_text([_sin_basis(10.0)], [0.0, 1.0]))
    (payload["model"] if field == "valid" else payload)[field] = value
    code = _eval(tmp_path, json.dumps(payload), b"x,z,y\n1,2,0\n")
    captured = _assert_data_exit(code, capsys, "cannot read model file")
    assert f"{field} must be true or false, got {value!r}" in captured.err
    assert not (tmp_path / "p.csv").exists()


def _nested_model_text(levels):
    """A model whose basis nests `levels` REPVC '*' REPOP nodes around x / z,
    written as JSON text by hand: the json module's own encoder would refuse
    the nesting."""
    repop = json.dumps(_sin_basis(10.0)["children"][0])
    tree = json.dumps(_nt("REPVC", {"kind": "vc", "exponents": [1, -1]}))
    for _ in range(levels):
        tree = f'{{"kind": "nt", "symbol": "REPVC", "alt": 1, "children": [{tree}, {repop}]}}'
    return _model_text(["BASIS"], [0.0, 1.0]).replace('"BASIS"', tree)


def test_eval_model_nested_too_deep_to_read_exits_3(tmp_path, capsys):
    code = _eval(tmp_path, _nested_model_text(2000), b"x,z,y\n1,2,0\n")
    _assert_data_exit(code, capsys, "maximum recursion depth exceeded")


def test_eval_model_nested_400_levels_evaluates_and_renders(tmp_path, capsys):
    from canonsr.expr import to_canonical_text
    from canonsr.pipeline import load_model_json

    assert _eval(tmp_path, _nested_model_text(400), b"x,z,y\n1,2,0\n") == 0
    expected = 0.5
    for _ in range(400):
        expected *= float(np.sin(1.5))
    assert (tmp_path / "p.csv").read_text() == f"prediction\n{expected!r}\n"
    model = load_model_json(str(tmp_path / "model.json"))["model"]
    assert (to_canonical_text(model, ("x", "z"))
            == "0 + 1 * x / z" + " * sin(1 + 1 * x / z)" * 400)
