"""One measured program process: set up canonsr, make the timed calls, report.

Run by run.py as `python3 child.py <spec.json> <spawn_time>`, where
spawn_time is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide, so the two clocks agree).  Prints
one JSON object on its last line of standard output.

Only public canonsr names are used here; the traced variant patches public
module attributes through trace_probes.py.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from reference import NOMINAL_SLICE_S, timed_slice  # noqa: E402


def _import_canonsr(src: str):
    sys.path.insert(0, src)
    import canonsr
    found = os.path.dirname(os.path.abspath(canonsr.__file__))
    if os.path.dirname(found) != src:
        raise ImportError(f"canonsr imported from {found}, not from {src}")
    return canonsr


def _capture(fn, *args):
    """Call fn with standard output captured; returns (result, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args)
    return result, buf.getvalue()


def _start_timing(spec):
    """Warm the reference up, then install the per-layer probes if asked.

    The first slice in a process runs cold (numpy dispatch, LAPACK loading)
    and would misread the machine's speed, so one slice is run and dropped.
    """
    timed_slice()
    if not spec["trace"]:
        return None
    from trace_probes import Tracer
    return Tracer.install()


def _drift_corrected(slices, setup: float, before_spawn: float) -> dict:
    """Program seconds between reference slices, scaled to nominal speed.

    Each stretch of program time lies between two slices; it is scaled by
    the nominal slice time over the mean of those two measured slices, so
    the correction follows the machine's speed as it changes during a run.
    Set-up lies between a slice the parent ran just before starting this
    process and this process's first slice.
    """
    program = corrected = 0.0
    for (s0, d0), (s1, d1) in zip(slices, slices[1:]):
        stretch = s1 - (s0 + d0)
        program += stretch
        corrected += stretch * NOMINAL_SLICE_S / ((d0 + d1) / 2.0)
    return {
        "program_raw_s": program,
        "program_s": corrected,
        "ref_s": sum(d for _, d in slices),
        "slices": len(slices),
        "setup_raw_s": setup,
        "setup_s": setup * NOMINAL_SLICE_S / ((before_spawn + slices[0][1]) / 2.0),
    }


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    spawned = float(sys.argv[2])

    canonsr = _import_canonsr(spec["src"])
    from canonsr.cli import main as cli_main

    slices = []      # (start, seconds) of each reference slice, in order

    def progress(*_):
        start = time.perf_counter()
        slices.append((start, timed_slice()))

    out = {"ok": True}
    if spec["kind"] == "search":
        train = canonsr.load_csv(spec["train"], spec["target"])
        test = canonsr.load_csv(spec["test"], spec["target"])
        cfg = canonsr.RunConfig(population=spec["population"],
                                generations=spec["generations"], seed=spec["seed"])
        setup = time.monotonic() - spawned
        tracer = _start_timing(spec)
        progress()
        t0 = time.perf_counter()
        try:
            canonsr.run_pipeline(cfg, train, test, out_dir=spec["out"], progress=progress)
        except Exception:
            out = {"ok": False, "error": traceback.format_exc()}
    else:
        setup = time.monotonic() - spawned
        tracer = _start_timing(spec)
        calls = []
        progress()
        t0 = time.perf_counter()
        for model, preds in zip(spec["models"], spec["preds"]):
            if calls:
                progress()
            try:
                code, text = _capture(cli_main, ["eval", "--model", model,
                                                 "--data", spec["data"], "--out", preds])
                calls.append({"code": code, "stdout": text})
            except Exception:
                calls.append({"code": None, "stdout": traceback.format_exc()})
        out["calls"] = calls
    wall = time.perf_counter() - t0
    progress()

    out.update(_drift_corrected(slices, setup, spec["slice_before_spawn"]))
    out.update({
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        out["trace"] = tracer.report()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
