"""Every function the benchmark's traced run wraps must exist in src/.

perfbench/trace_probes.py wraps canonsr functions by module path.  A probe
whose function was renamed or deleted is reported as absent and its per-layer
metrics drop out of the traced result, so a refactor that moves a probed name
fails here first.  The tracer patches the modules it wraps, so it is
installed in a fresh interpreter; perfbench/ is read, never changed.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_INSTALL = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from trace_probes import Tracer
tracer = Tracer.install()
print(json.dumps({"absent": tracer.absent, "probes": sorted(tracer.probes)}))
"""


def test_tracer_finds_every_probed_function():
    proc = subprocess.run([sys.executable, "-c", _INSTALL, os.path.join(ROOT, "src"),
                           os.path.join(ROOT, "perfbench")],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["absent"] == []
    assert "fit.fit_weights" in result["probes"]
    assert "evolve.nondominated_sort" in result["probes"]
