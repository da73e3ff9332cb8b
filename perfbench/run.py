"""canonsr benchmark: drift-corrected search and prediction, with layer tracing.

    python3 perfbench/run.py --workload pm81 --seed 0 --seconds 30 --trace 0

Runs the workload for about --seconds, one canonsr process at a time, checks
every output apart from the program, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are run_s, setup_s and peak_rss_mb; with --trace 1 they are the per-layer
counters of README.md.  See README.md for workloads, metrics and figures.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402
from reference import timed_slice  # noqa: E402

CHILD_TIMEOUT_S = 120   # keeps a hung process within the 180 s a run may take
MODELS_DIR = os.path.join(HERE, "models")


def _fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 2


class Runner:
    """Starts one measured canonsr process at a time and waits for its result."""

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.count = 0
        timed_slice()            # the first slice in a process runs cold

    def child(self, spec: dict) -> dict:
        self.count += 1
        spec_path = os.path.join(self.work_dir, f"spec_{self.count}.json")
        before = timed_slice()
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"src": SRC, "slice_before_spawn": before, **spec}, fh)
        spawned = time.monotonic()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                               spec_path, repr(spawned)],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"ok": False, "error": proc.stderr.strip()[-2000:] or "no output"}
        return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# search workloads: one run_pipeline call per operation
# ---------------------------------------------------------------------------

def run_search(name: str, args, work_dir: str) -> dict:
    w = workloads.WORKLOADS[name]
    X_tr, y_tr, X_te, y_te = workloads.search_data(name)
    train_csv = os.path.join(work_dir, "train.csv")
    test_csv = os.path.join(work_dir, "test.csv")
    workloads.write_csv(train_csv, X_tr, y_tr)
    workloads.write_csv(test_csv, X_te, y_te)
    runner = Runner(work_dir)
    out_dir = os.path.join(work_dir, "front")
    seeds = workloads.run_seeds(args.seed, 1000)
    modes = (False, True) if args.trace else (False,)

    ops, hashes, problems = [], {}, []

    def one(seed: int, traced: bool) -> None:
        shutil.rmtree(out_dir, ignore_errors=True)
        res = runner.child({"kind": "search", "trace": traced, "train": train_csv,
                            "test": test_csv, "target": workloads.TARGET,
                            "population": w["population"], "generations": w["generations"],
                            "seed": seed, "out": out_dir})
        res.update(seed=seed, traced=traced, problems=[])
        if res["ok"]:
            found = check.check_front(out_dir, X_tr, y_tr, X_te, y_te)
            res["problems"] = [f"seed {seed} {p}" for p in found["problems"]]
            res.update(size=found["size"], best_test=found["best_test"],
                       front_hash=found["front_hash"])
            first = hashes.setdefault(seed, found["front_hash"])
            if first != found["front_hash"]:
                res["problems"].append(f"seed {seed}: front.csv differs from the "
                                       f"seed's first run")
        problems.extend(res["problems"])
        ops.append(res)

    # a round is one seed, untraced (and traced, with --trace 1); an untraced
    # run ends by repeating its first seed, so each run compares two hashes
    deadline = time.monotonic() + args.seconds
    room = 1 if args.trace else 2
    i = 0
    while True:
        started = time.monotonic()
        for traced in modes:
            one(seeds[i], traced)
        i += 1
        now = time.monotonic()
        if now + room * (now - started) > deadline:
            break
    if not args.trace:
        one(seeds[0], False)
    return {"ops": ops, "problems": problems}


# ---------------------------------------------------------------------------
# predict_bulk: one canonsr eval call per stored model, a round per process
# ---------------------------------------------------------------------------

def stored_models():
    names = sorted((f for f in os.listdir(MODELS_DIR)
                    if f.startswith("model_") and f.endswith(".json")),
                   key=lambda f: int(f[len("model_"):-len(".json")]))
    return [os.path.join(MODELS_DIR, f) for f in names]


def run_predict(name: str, args, work_dir: str) -> dict:
    w = workloads.WORKLOADS[name]
    X = workloads.sweep(w["centers"], w["rows"], args.seed)
    y = w["target_fn"](X)
    data_csv = os.path.join(work_dir, "sweep.csv")
    workloads.write_csv(data_csv, X, y)
    models = stored_models()
    if not models:
        raise FileNotFoundError(f"no stored models in {MODELS_DIR}")
    payloads = []
    for path in models:
        with open(path, "r", encoding="utf-8") as fh:
            payloads.append(json.load(fh))
    runner = Runner(work_dir)
    preds = [os.path.join(work_dir, f"preds_{k}.csv") for k in range(len(models))]
    modes = (False, True) if args.trace else (False,)
    ops, hashes, problems = [], {}, []

    def one(traced: bool) -> None:
        res = runner.child({"kind": "predict", "trace": traced, "models": models,
                            "data": data_csv, "preds": preds})
        res.update(traced=traced, problems=[])
        if res["ok"]:
            for k, call in enumerate(res["calls"]):
                if call["code"] != 0:
                    res["problems"].append(f"eval of {models[k]} exited {call['code']}: "
                                           f"{call['stdout'][-500:]}")
                    continue
                found = check.check_eval(payloads[k], X, y, call["stdout"], preds[k],
                                         workloads.var_names(X.shape[1]))
                res["problems"] += [f"model_{k}: {p}" for p in found["problems"]]
                if hashes.setdefault(k, found["hash"]) != found["hash"]:
                    res["problems"].append(f"model_{k}: predictions differ between rounds")
        problems.extend(res["problems"])
        ops.append(res)

    # a round is one process making every eval call; at least two rounds, so
    # every predictions file is compared with another round's
    deadline = time.monotonic() + args.seconds
    rounds = 0
    while True:
        started = time.monotonic()
        for traced in modes:
            one(traced)
        rounds += 1
        took = time.monotonic() - started
        if rounds >= 2 and time.monotonic() + took > deadline:
            break
    return {"ops": ops, "problems": problems, "calls_per_op": len(models)}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(ops) -> dict:
    timed = [op for op in ops if op["ok"] and not op["traced"]]
    return {
        "run_s": _metric(statistics.mean(op["program_s"] for op in timed), "s"),
        "setup_s": _metric(statistics.median(op["setup_s"] for op in timed), "s"),
        "peak_rss_mb": _metric(statistics.median(op["peak_rss_mb"] for op in timed), "MB"),
    }


def _per_call(key: str):
    """A probe counter divided by the probe's calls."""
    return lambda p, drift: p.get(key, 0) / p["calls"] if p["calls"] else 0.0


# (metric, unit, probe, how): how is "calls", a seconds field scaled by the
# process's drift factor, or a function of the probe's totals and that factor
PER_LAYER = [
    ("evolve.nondominated_sort.calls", "count", "evolve.nondominated_sort", "calls"),
    ("evolve.nondominated_sort.busy_s", "s", "evolve.nondominated_sort", "busy_s"),
    ("evolve.nondominated_sort.mean_points", "count", "evolve.nondominated_sort",
     _per_call("points")),
    ("evolve.crowding_distance.busy_s", "s", "evolve.crowding_distance", "busy_s"),
    ("evolve.ParetoArchive.merge.busy_s", "s", "evolve.ParetoArchive.merge", "busy_s"),
    ("evolve.fit_model.calls", "count", "evolve.fit_model", "calls"),
    ("evolve.fit_model.busy_s", "s", "evolve.fit_model", "busy_s"),
    ("evolve.fit_model.invalid_share", "share", "evolve.fit_model",
     _per_call("invalid")),
    ("expr.eval_basis_matrix.calls", "count", "expr.eval_basis_matrix", "calls"),
    ("expr.eval_basis_matrix.busy_s", "s", "expr.eval_basis_matrix", "busy_s"),
    ("expr.eval_basis_matrix.repeat_share", "share", "expr.eval_basis_matrix",
     _per_call("repeats")),
    ("expr.complexity_of_bases.calls", "count", "expr.complexity_of_bases", "calls"),
    ("expr.complexity_of_bases.busy_s", "s", "expr.complexity_of_bases", "busy_s"),
    ("fit.fit_weights.calls", "count", "fit.fit_weights", "calls"),
    ("fit.fit_weights.busy_s", "s", "fit.fit_weights", "busy_s"),
    ("evolve.apply_operator.calls", "count", "evolve.apply_operator", "calls"),
    ("evolve.apply_operator.busy_s", "s", "evolve.apply_operator", "busy_s"),
    ("evolve.apply_operator.empty_share", "share", "evolve.apply_operator",
     _per_call("empty")),
    ("grammar.random_tree.calls", "count", "grammar.random_tree", "calls"),
    ("grammar.random_tree.busy_s", "s", "grammar.random_tree", "busy_s"),
    ("evolve.init_population.busy_s", "s", "evolve.init_population", "busy_s"),
    ("evolve.nsga2_generation.self_s", "s", "evolve.nsga2_generation", "self_s"),
    ("evolve.population.distinct_points", "count", "evolve.nsga2_generation",
     _per_call("distinct")),
    ("pipeline.simplify_after_generation.busy_s", "s",
     "pipeline.simplify_after_generation", "busy_s"),
    ("fit.forward_regression_press.calls", "count", "fit.forward_regression_press", "calls"),
    ("fit.forward_regression_press.busy_s", "s", "fit.forward_regression_press", "busy_s"),
    ("fit.press.calls", "count", "fit.press", "calls"),
    ("fit.press.busy_s", "s", "fit.press", "busy_s"),
    ("pipeline.filter_test_tradeoff.busy_s", "s", "pipeline.filter_test_tradeoff", "busy_s"),
    ("pipeline.export.busy_s", "s", "pipeline.export", "busy_s"),
    ("dataset.load_csv.calls", "count", "dataset.load_csv", "calls"),
    ("dataset.load_csv.busy_s", "s", "dataset.load_csv", "busy_s"),
    ("dataset.load_csv.rows_per_s", "1/s", "dataset.load_csv",
     lambda p, drift: p.get("rows", 0) / (p["busy_s"] * drift) if p["busy_s"] else 0.0),
    ("pipeline.load_model_json.busy_s", "s", "pipeline.load_model_json", "busy_s"),
    ("cli.cmd_eval.self_s", "s", "cli.cmd_eval", "self_s"),
]


def per_layer(ops) -> tuple:
    """Per-layer metrics, each the mean over the run's traced processes."""
    traced = [op for op in ops if op["ok"] and op["traced"]]
    untraced = [op for op in ops if op["ok"] and not op["traced"]]
    absent = sorted({name for op in traced for name in op["trace"]["absent"]})
    metrics = {}
    for metric, unit, probe, how in PER_LAYER:
        if probe in absent:
            continue
        values = []
        for op in traced:
            p = op["trace"]["probes"][probe]
            drift = op["program_s"] / op["program_raw_s"]
            if callable(how):
                values.append(how(p, drift))
            elif how == "calls":
                values.append(p["calls"])
            else:
                values.append(p[how] * drift)
        metrics[metric] = _metric(statistics.mean(values), unit)
    metrics["trace.overhead_share"] = _metric(
        statistics.mean(op["program_s"] for op in traced)
        / statistics.mean(op["program_s"] for op in untraced), "ratio")
    return metrics, absent


def report(name: str, args, result: dict) -> dict:
    ops = result["ops"]
    failed = [op for op in ops if not op["ok"] or op["problems"]]
    for op in ops:
        if not op["ok"]:
            print(f"operation failed: {op['error']}", file=sys.stderr)
    for p in result["problems"]:
        print(f"check failed: {p}")
    done = [op for op in ops if op["ok"]]
    per_op = result.get("calls_per_op", 1)
    for op in done:
        tag = "traced" if op["traced"] else "timed"
        line = (f"{name} {tag}: run_s {op['program_s']:.4f} raw_wall_s {op['wall_s']:.4f} "
                f"reference_s {op['ref_s']:.4f} setup_raw_s {op['setup_raw_s']:.4f} "
                f"peak_rss_mb {op['peak_rss_mb']:.1f}")
        if "front_hash" in op:
            line += (f" seed {op['seed']} front {op['size']} best_test "
                     f"{op['best_test']:.6g} hash {op['front_hash'][:16]}")
        print(line)
    if done:
        print(f"{name}: {len(done)} processes, raw wall {sum(op['wall_s'] for op in done):.3f} s, "
              f"reference {sum(op['ref_s'] for op in done):.3f} s")
    attempted = len(ops) * per_op
    n_failed = len(failed) * per_op
    print(f"{name}: attempted {attempted} operations, failed {n_failed}")
    if not done or (args.trace and not any(op["traced"] for op in done)):
        raise RuntimeError("no operation completed")
    if args.trace:
        metrics, absent = per_layer(ops)
        if absent:
            print(f"trace: absent probes (renamed or removed): {', '.join(absent)}")
    else:
        metrics = end_to_end(ops)
    return {"correct": not result["problems"], "attempted": attempted,
            "failed": n_failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "canonsr", "__init__.py")):
        return _fail(f"no canonsr sources under {SRC}")
    work_dir = os.path.join(HERE, "out", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        kind = workloads.WORKLOADS[args.workload]["kind"]
        runner = run_search if kind == "search" else run_predict
        result = report(args.workload, args, runner(args.workload, args, work_dir))
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
