"""In-process A/B of two canonsr source trees on the same inputs.

    python benchmarks/ab_inprocess.py OLD_SRC NEW_SRC --workload wide243 --seeds 101-110
    python benchmarks/ab_inprocess.py OLD_SRC NEW_SRC --workload pm81 --seeds 1-6 --layer sag
    python benchmarks/ab_inprocess.py OLD_SRC NEW_SRC --seeds 1-6 --layer eval

OLD_SRC and NEW_SRC are `src` directories that each hold a `canonsr`
package, for example this checkout's `src` and the `src` of a `git archive`
of its parent.  Both load into one process, as `canonsr_old` and
`canonsr_new`, and every seed runs on both, alternating which goes first.
Running side by side removes the drift between processes that separate
benchmark runs see.  A tree whose `default_grammar_text` still names the
package `canonsr.data` reads its grammar from whichever `canonsr` is
importable, so run such a tree with a `canonsr` on PYTHONPATH.

Each seed runs each side ROUNDS times in ABBA order (BAAB on every other
seed), and a side's time for the seed is the median of its runs.  Each run
is drift-corrected as perfbench corrects its runs: perfbench's reference
slice runs before the call, after every generation and after the call, and
the time between two slices is scaled by the nominal slice time over their
mean.  A machine that slows down for a while then does not read as a
slower tree.  Uncorrected, one tree against itself gave per-seed ratios
from 0.82 to 1.26 on pm81.

Do not judge a change to garbage-collector behaviour with this tool.  Both
trees and every earlier run share one heap, and each timed call starts
right after a full `gc.collect()`, so what the collector walks here, and
when, is not what it walks in a fresh process.  On one 2-CPU machine,
pausing the collector during evolution read pm81 6.7% faster here (4
seeds) and 8.1% faster in perfbench (10 pairs), while the collector's own
time in a fresh pm81 process was 5.6-7.0% of the run: three figures for
one change.  Measure such a change with perfbench, which starts a new
process for every run.

`--layer pipeline` (the default) times one `run_pipeline` call with export,
on the training and test grids of the perfbench workload.  `--layer sag`
evolves each seed's front once per side, untimed, and every timed pass runs
`simplify_after_generation` on that one front.  `--layer eval` ignores
`--workload` and times one round of `canonsr eval` calls through the tree's
`cli.main`, one per stored model in `perfbench/models/`, on perfbench's
20,000-row predict_bulk sweep drawn from the seed; the sweep CSV is written
once per seed, untimed, and a reference slice runs after every eval call.
The tool prints, per seed, both median times, the ratio new/old and whether
the outputs of every run match (export files, simplified models or every
predictions file, hashed with sha256), then the median ratio, the seeds the
new tree won and whether every hash matched.  With `--layer sag` it also
prints each side's output hash and how many matrices its SAG pass scores
through `fit.press`, counted in one more, untimed pass: 1 for each call on
one matrix and b for each call on a stack of b, so the same work counts the
same whether or not the calls are stacked.
"""

import argparse
import contextlib
import gc
import glob
import hashlib
import importlib
import importlib.util
import io
import json
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
sys.path.insert(0, PERFBENCH)
MODELS = sorted(glob.glob(os.path.join(PERFBENCH, "models", "model_*.json")))

import workloads  # noqa: E402
from reference import NOMINAL_SLICE_S, timed_slice  # noqa: E402

ROUNDS = 2   # ABBA blocks per seed: four timed runs per side


def load_tree(src: str, name: str):
    """Import the canonsr package under src as a top-level package called name."""
    pkg = os.path.join(os.path.abspath(src), "canonsr")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def sweep_csv(work_dir: str, seed: int) -> str:
    """perfbench's predict_bulk sweep for this seed, written once to work_dir."""
    path = os.path.join(work_dir, f"sweep_{seed}.csv")
    if not os.path.exists(path):
        w = workloads.WORKLOADS["predict_bulk"]
        X = workloads.sweep(w["centers"], w["rows"], seed)
        workloads.write_csv(path, X, w["target_fn"](X))
    return path


def _hash_dir(path: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        digest.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


class Side:
    """One source tree with its copy of the workload's data."""

    def __init__(self, tree, workload: str, work_dir: str):
        self.tree = tree
        self.cli = importlib.import_module(tree.__name__ + ".cli")
        self.work_dir = work_dir
        self.w = workloads.WORKLOADS[workload]
        X_train, y_train, X_test, y_test = workloads.search_data(workload)
        names = workloads.var_names(X_train.shape[1])
        self.train = tree.Dataset(names, X_train, y_train, workloads.TARGET)
        self.test = tree.Dataset(names, X_test, y_test, workloads.TARGET)
        self.fronts = {}    # seed -> evolved front, shared by the seed's SAG passes

    def config(self, seed: int):
        return self.tree.RunConfig(population=self.w["population"],
                                   generations=self.w["generations"], seed=seed)

    def prepare(self, layer: str, seed: int):
        """Untimed work before the timed call; returns the call, which takes
        a function to call after each generation."""
        cfg = self.config(seed)
        if layer == "sag":
            if seed not in self.fronts:
                self.fronts[seed] = self.tree.run_evolution(cfg, self.train)
            front = self.fronts[seed]
            return lambda tick: self.tree.simplify_after_generation(front, self.train, cfg)
        out = tempfile.mkdtemp(prefix="ab_", dir=self.work_dir)
        if layer == "eval":
            data = sweep_csv(self.work_dir, seed)
            return lambda tick: self.eval_models(data, out, tick)
        return lambda tick: (self.tree.run_pipeline(cfg, self.train, self.test, out_dir=out,
                                                    progress=lambda *_: tick()), out)[1]

    def eval_models(self, data: str, out: str, tick) -> str:
        """One `canonsr eval` per stored model, writing its predictions to out."""
        for model in MODELS:
            preds = os.path.join(out, os.path.basename(model)[:-len(".json")] + ".csv")
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(["eval", "--model", model, "--data", data,
                                      "--out", preds])
            if code != 0:
                raise RuntimeError(f"eval of {model} exited {code}")
            tick()
        return out

    def digest(self, layer: str, result) -> str:
        if layer == "sag":
            text = json.dumps([self.tree.model_to_dict(m) for m in result.models],
                              sort_keys=True)
            return hashlib.sha256(text.encode()).hexdigest()
        digest = _hash_dir(result)
        for name in os.listdir(result):
            os.remove(os.path.join(result, name))
        os.rmdir(result)
        return digest


def press_matrices(side: Side, seed: int) -> int:
    """Matrices press() scores in one untimed SAG pass, through every module
    that holds press."""
    press = side.tree.fit.press
    matrices = 0

    def counted(Phi, y):
        nonlocal matrices
        matrices += 1 if Phi.ndim == 2 else len(Phi)
        return press(Phi, y)

    holders = [m for m in (side.tree.fit, side.tree.pipeline) if m.press is press]
    call = side.prepare("sag", seed)
    for module in holders:
        module.press = counted
    try:
        call(lambda: None)
    finally:
        for module in holders:
            module.press = press
    return matrices


def timed(side: Side, layer: str, seed: int):
    """Drift-corrected seconds of one call, and the digest of its output."""
    call = side.prepare(layer, seed)
    gc.collect()
    slices = []    # (start, seconds) of each reference slice, in order

    def tick():
        start = time.perf_counter()
        slices.append((start, timed_slice()))

    tick()
    result = call(tick)
    tick()
    seconds = sum((s1 - s0 - d0) * NOMINAL_SLICE_S / ((d0 + d1) / 2.0)
                  for (s0, d0), (s1, d1) in zip(slices, slices[1:]))
    return seconds, side.digest(layer, result)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--workload", choices=("pm81", "wide243"), default="wide243")
    ap.add_argument("--seeds", default="1-6", help="first-last canonsr seeds, inclusive")
    ap.add_argument("--layer", choices=("pipeline", "sag", "eval"), default="pipeline")
    args = ap.parse_args(argv)

    work_dir = tempfile.TemporaryDirectory(prefix="ab_")
    old = Side(load_tree(args.old_src, "canonsr_old"), args.workload, work_dir.name)
    new = Side(load_tree(args.new_src, "canonsr_new"), args.workload, work_dir.name)
    timed_slice()    # the first slice in a process runs cold
    ratios, wins, same, same_scored = [], 0, True, True
    for i, seed in enumerate(_seeds(args.seeds)):
        a, b = (old, new) if i % 2 == 0 else (new, old)
        times = {id(old): [], id(new): []}
        digests = {id(old): set(), id(new): set()}
        for side in (a, b, b, a) * ROUNDS:
            seconds, digest = timed(side, args.layer, seed)
            times[id(side)].append(seconds)
            digests[id(side)].add(digest)
        t_old, t_new = (statistics.median(times[id(side)]) for side in (old, new))
        ratios.append(t_new / t_old)
        wins += t_new < t_old
        seed_same = len(digests[id(old)] | digests[id(new)]) == 1
        same &= seed_same
        verdict = "same" if seed_same else "DIFFERENT"
        if args.layer == "sag":
            scored = {id(side): press_matrices(side, seed) for side in (a, b)}
            same_scored &= scored[id(old)] == scored[id(new)]
            print(f"seed {seed}: old {t_old:.4f} s {scored[id(old)]} press "
                  f"{min(digests[id(old)])[:12]}  new {t_new:.4f} s {scored[id(new)]} press "
                  f"{min(digests[id(new)])[:12]}  ratio {t_new / t_old:.3f}  {verdict}")
        else:
            print(f"seed {seed}: old {t_old:.4f} s  new {t_new:.4f} s  "
                  f"ratio {t_new / t_old:.3f}  {verdict}")
    print(f"median ratio {statistics.median(ratios):.3f}; new faster on {wins} of "
          f"{len(ratios)} seeds; outputs {'all the same' if same else 'DIFFER'}"
          + ("" if args.layer != "sag" else
             f"; press() matrices {'the same' if same_scored else 'DIFFER'}"))
    work_dir.cleanup()
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
