"""Fixed reference computation used to correct timings for machine drift.

The slice mixes the kinds of work the program does: Python-level tuple
comparisons, many numpy calls on arrays of a few hundred elements, and one
small least-squares solve.  It never calls canonsr, so a change to the
program cannot change it.
"""

import time

import numpy as np

# Seconds one slice takes when the machine runs at its reference speed:
# the median of many slices measured on the 2-CPU machine described in
# README.md.  Timings are reported in these nominal seconds.
NOMINAL_SLICE_S = 0.0047

_N = 243
_X = np.linspace(0.9, 1.1, _N)
_PHI = np.column_stack([np.ones(81)] + [np.linspace(0.5, 1.5, 81) ** k for k in range(1, 6)])
_Y = np.sin(np.linspace(0.0, 3.0, 81))
_PASSES = 5
_POINTS = [((i * 37) % 101 / 7.0, (i * 53) % 89 / 3.0) for i in range(60)]


def reference_slice() -> float:
    """Run one slice of fixed work; returns a checksum so nothing is skipped."""
    acc = 0.0
    for _ in range(_PASSES):
        acc += _one_pass()
    return acc


def _one_pass() -> float:
    acc = 0.0
    # pairwise dominance-style comparisons over Python tuples
    for a in _POINTS:
        for b in _POINTS:
            if a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1]):
                acc += 1.0
    # many small elementwise numpy calls, as in tree evaluation
    col = _X
    for k in range(120):
        v = np.power(col, float(k % 5 + 1)) * 1.5 + np.sqrt(col)
        acc += float(v[k % _N])
    # one small least-squares solve, as in a model fit
    coeffs = np.linalg.lstsq(_PHI, _Y, rcond=None)[0]
    return acc + float(coeffs[0])


def timed_slice() -> float:
    """Run one slice and return the seconds it took."""
    t0 = time.perf_counter()
    reference_slice()
    return time.perf_counter() - t0
