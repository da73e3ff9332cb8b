"""Command-line interface: run, sample, eval and bench subcommands.

Exit codes are a stable contract for scripting: 0 success, 2 usage or
configuration errors, 3 data errors, which include a data or model file that
cannot be read and an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

import numpy as np

from .config import ConfigError, RunConfig, load_config_values, make_config
from .dataset import (DataError, DoePlan, columns_by_name, doe_full_factorial,
                      doe_latin_hypercube, load_centers_csv, load_csv, oracle_dataset,
                      scale_target_log10, write_points_csv, ORACLE_DIMS)
from .expr import eval_model_matrix, to_canonical_text
from .fit import nmse
from .grammar import GrammarError
from .pipeline import TradeoffSet, load_model_json, run_pipeline

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

# acceptance thresholds for the synthetic benchmark suites (percent)
BENCH_TRAIN_THRESHOLD = 5.0
BENCH_TEST_THRESHOLD = 5.0


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _print_front(ts: TradeoffSet, cfg: RunConfig) -> None:
    header = f"{'id':>4} {'complexity':>11} {'bases':>6} {'train%':>9} {'test%':>9}  model"
    print(header)
    for i, m in enumerate(ts.models):
        test_txt = "-" if m.test_error is None else f"{m.test_error:9.4g}"
        text = to_canonical_text(m, ts.var_names, cfg.sig_figs,
                                 log_scaled=ts.target_log_scaled, B=cfg.B)
        print(f"{i:>4} {m.complexity:>11.4g} {m.n_bases:>6} "
              f"{m.train_error:9.4g} {test_txt:>9}  {text}")


def _progress_printer(every: int):
    def cb(gen: int, total: int, archive_size: int) -> None:
        if gen % every == 0 or gen == total:
            print(f"generation {gen}/{total}: archive holds {archive_size} models")
    return cb


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    values = load_config_values(args.config)
    if args.seed is not None:
        values["seed"] = args.seed
    cfg = make_config(values, "invalid configuration")
    train = load_csv(args.train, args.target)
    test = load_csv(args.test, args.target)
    if args.log_target:
        train = scale_target_log10(train)
        test = scale_target_log10(test)
    progress = None if args.quiet else _progress_printer(max(1, cfg.generations // 10))
    ts = run_pipeline(cfg, train, test, out_dir=args.out, progress=progress)
    _print_front(ts, cfg)
    print(f"wrote {len(ts.models)} models to {args.out}")
    return EXIT_OK


def cmd_sample(args) -> int:
    names, centers = load_centers_csv(args.centers)
    try:
        plan = DoePlan(centers=centers, dx=args.dx, budget=args.budget)
        with np.errstate(over="ignore", invalid="ignore"):     # refused below
            if args.mode == "factorial":
                points = doe_full_factorial(plan)
            else:
                points = doe_latin_hypercube(plan, args.n, np.random.default_rng(args.seed))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    bad = np.flatnonzero(~np.isfinite(points).all(axis=0))
    if bad.size:
        raise ConfigError(f"--dx {args.dx!r} around centre {names[bad[0]]} = "
                          f"{float(centers[bad[0]])!r} gives design points that are not finite")
    write_points_csv(names, points, args.out)
    print(f"wrote {points.shape[0]} design points ({points.shape[1]} variables) to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    payload = load_model_json(args.model)
    model = payload["model"]
    ds = load_csv(args.data, payload["target_name"])
    X = columns_by_name(ds, payload["var_names"])

    pred = eval_model_matrix(model, X, payload["B"])

    y = ds.y
    if payload["target_log_scaled"]:
        if np.any(y <= 0):
            raise DataError("log-scaled model, but data contains targets <= 0")
        y = np.log10(y)
        reported = np.power(10.0, pred)
    else:
        reported = pred
    print(f"nmse_pct: {nmse(pred, y, payload['train_reference'])!r}")
    print(f"stored_train_error_pct: {model.train_error!r}")

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("prediction\n" + "\n".join(map(repr, reported.tolist())) + "\n")
    print(f"wrote {len(reported)} predictions to {args.out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    suite = args.suite
    d = ORACLE_DIMS[suite] or 2
    names = tuple(f"x{i + 1}" for i in range(d))
    centers = np.ones(d)
    train_X = doe_full_factorial(DoePlan(centers=centers, dx=0.1))
    test_X = doe_full_factorial(DoePlan(centers=centers, dx=0.03))
    train = oracle_dataset(suite, train_X, names)
    test = oracle_dataset(suite, test_X, names)

    cfg = make_config(dict(population=200, generations=args.generations,
                           seed=args.seed),
                      "invalid configuration")
    progress = None if args.quiet else _progress_printer(max(1, cfg.generations // 10))
    started = time.perf_counter()
    ts = run_pipeline(cfg, train, test, out_dir=args.out, progress=progress)
    elapsed = time.perf_counter() - started

    _print_front(ts, cfg)
    hit = any(m.train_error <= BENCH_TRAIN_THRESHOLD
              and m.test_error is not None and m.test_error <= BENCH_TEST_THRESHOLD
              for m in ts.models)
    verdict = "PASS" if hit else "FAIL"
    print(f"{verdict}: model with train <= {BENCH_TRAIN_THRESHOLD}% and "
          f"test <= {BENCH_TEST_THRESHOLD}% "
          f"{'found' if hit else 'not found'} on suite {suite!r}")
    print(f"wall_clock_s: {elapsed:.1f}  generations: {cfg.generations}  "
          f"train_samples: {train.n_samples}  test_samples: {test.n_samples}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canonsr",
        description="Evolve canonical-form symbolic models of tabular data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full modeling run: evolve, simplify, filter, export")
    p_run.add_argument("--config", help="flat key=value config file")
    p_run.add_argument("--train", required=True, help="training samples CSV")
    p_run.add_argument("--test", required=True, help="testing samples CSV")
    p_run.add_argument("--target", required=True, help="target column name")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument("--log-target", action="store_true",
                       help="log10-scale the target before fitting")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(fn=cmd_run)

    p_sample = sub.add_parser("sample", help="emit design-of-experiments sample points")
    p_sample.add_argument("--centers", required=True,
                          help="CSV with a header row and one row of center values")
    p_sample.add_argument("--dx", type=float, default=0.1,
                          help="relative perturbation (default 0.1)")
    p_sample.add_argument("--n", type=int, default=100,
                          help="sample count for lhs mode (default 100)")
    p_sample.add_argument("--mode", choices=("factorial", "lhs"), default="factorial")
    p_sample.add_argument("--budget", type=int, default=10000,
                          help="maximum sample count in either mode (default 10000)")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", required=True, help="output CSV path")
    p_sample.set_defaults(fn=cmd_sample)

    p_eval = sub.add_parser("eval", help="evaluate an exported model on a data CSV")
    p_eval.add_argument("--model", required=True, help="model_<id>.json path")
    p_eval.add_argument("--data", required=True, help="samples CSV")
    p_eval.add_argument("--out", default="predictions.csv", help="predictions CSV path")
    p_eval.set_defaults(fn=cmd_eval)

    p_bench = sub.add_parser("bench", help="desk-scale synthetic benchmark run")
    p_bench.add_argument("--suite", required=True, choices=sorted(ORACLE_DIMS))
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--generations", type=int, default=100)
    p_bench.add_argument("--out", default=None, help="optional export directory")
    p_bench.add_argument("--quiet", action="store_true")
    p_bench.set_defaults(fn=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, GrammarError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
