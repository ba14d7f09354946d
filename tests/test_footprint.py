"""What a holocode process loads: scipy.stats never, scipy.special only
for a distance fit of more than 32 points, and a process pool only for
runs with more than one worker."""

import os
import subprocess
import sys

import holocode

SCRIPT = """
import sys

import holocode.cli
from holocode.builder import build_code
from holocode.distance import fit_distance_scaling
from holocode.sim import (FailureCurve, WeightRecord, estimate_threshold,
                          simulate_code)


def loaded(package):
    return sorted(m for m in sys.modules
                  if m == package or m.startswith(package + "."))


small = simulate_code(build_code("heptagon", "max", 1), trials_per_weight=20,
                      weights="all", threads=1)
n = 42  # fails from weight 6 on
large = FailureCurve("heptagon", "max", 2, n, 1, 0, 0,
                     records=[WeightRecord(a, 10, 10 * (a >= 6))
                              for a in range(n + 1)])
estimate_threshold([small, large])
assert not loaded("concurrent.futures.process"), loaded("concurrent")
for count in range(3, 33):
    fit_distance_scaling([(7 * 2 ** i, 3 + i) for i in range(count)])
assert not loaded("scipy.special"), loaded("scipy.special")
assert not loaded("scipy.stats"), loaded("scipy.stats")
"""


def test_runs_load_no_scipy_stats():
    src = os.path.dirname(os.path.dirname(os.path.abspath(holocode.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
