"""Regenerate the pinned golden front used by tests/test_golden.py.

The golden run is the criterion-8 setup: the pm_like oracle on the 3-level
factorial around (1, 1, 1, 1), training at dx 0.1 and testing at dx 0.03,
population 60, 25 generations, seed 12.  Its front.csv bytes are stored next
to this script as golden_front.csv.

Run from the repository root after a change that is meant to move the front:

    PYTHONPATH=src python tests/data/make_golden.py

and review the resulting diff of golden_front.csv.
"""

import os
import sys
import tempfile

import numpy as np

from canonsr.config import RunConfig
from canonsr.dataset import DoePlan, doe_full_factorial, oracle_dataset
from canonsr.pipeline import run_pipeline

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_front.csv")
NAMES4 = ("x1", "x2", "x3", "x4")


def golden_front_bytes() -> bytes:
    """Run the pinned setup and return the exported front.csv bytes."""
    train = oracle_dataset("pm_like",
                           doe_full_factorial(DoePlan(np.ones(4), dx=0.1)), NAMES4)
    test = oracle_dataset("pm_like",
                          doe_full_factorial(DoePlan(np.ones(4), dx=0.03)), NAMES4)
    cfg = RunConfig(population=60, generations=25, seed=12)
    with tempfile.TemporaryDirectory() as out_dir:
        run_pipeline(cfg, train, test, out_dir=out_dir)
        with open(os.path.join(out_dir, "front.csv"), "rb") as fh:
            return fh.read()


def main() -> int:
    data = golden_front_bytes()
    with open(GOLDEN_PATH, "wb") as fh:
        fh.write(data)
    print(f"wrote {len(data)} bytes to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
