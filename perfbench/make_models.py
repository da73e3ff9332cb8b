"""Remake the stored front that predict_bulk evaluates.

    python3 perfbench/make_models.py

Runs `canonsr run` once on the wide243 training and test grids (population
50, GENERATIONS generations, seed SEED) and exports into perfbench/models/.
The benchmark never times this run; it reads the stored files only.
"""

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from canonsr.cli import main as canonsr_main  # noqa: E402

GENERATIONS = 200
SEED = 2


def main() -> int:
    tmp = os.path.join(HERE, "out", "make_models")
    os.makedirs(tmp, exist_ok=True)
    X_tr, y_tr, X_te, y_te = workloads.search_data("wide243")
    train, test = os.path.join(tmp, "train.csv"), os.path.join(tmp, "test.csv")
    workloads.write_csv(train, X_tr, y_tr)
    workloads.write_csv(test, X_te, y_te)
    config = os.path.join(tmp, "run.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(f"population = 50\ngenerations = {GENERATIONS}\nseed = {SEED}\n")
    out = os.path.join(HERE, "models")
    shutil.rmtree(out, ignore_errors=True)
    code = canonsr_main(["run", "--config", config, "--train", train, "--test", test,
                         "--target", workloads.TARGET, "--out", out, "--quiet"])
    shutil.rmtree(tmp, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
