"""Idle BLAS workers sleep instead of spinning.

numpy and scipy each load their own OpenBLAS, whose workers by default
spin for about 0.1 s after every BLAS call.  Importing corruga before
numpy sets OPENBLAS_THREAD_TIMEOUT so they sleep almost at once.  This
suite's conftest imports numpy first, so the check runs in a fresh
interpreter that imports corruga first, as the CLI does.
"""

import os
import subprocess
import sys
from pathlib import Path

import corruga

SRC = Path(corruga.__file__).resolve().parents[1]

# after each call, sleep 0.3 s and print the CPU time the process burnt
CHILD = """
import resource, sys, time
sys.path.insert(0, sys.argv[1])
import corruga
import numpy as np
import scipy.linalg as la

def cpu():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime

a = np.random.default_rng(0).standard_normal((600, 600))
spd = a @ a.T + 600.0 * np.eye(600)
for call in (lambda: a @ a, lambda: la.cholesky(spd)):
    call()
    before = cpu()
    time.sleep(0.3)
    print(cpu() - before)
"""


def test_idle_blas_workers_sleep_after_import():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_THREAD_TIMEOUT", "OPENBLAS_NUM_THREADS",
                        "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["CORRUGA_THREADS"] = "2"
    out = subprocess.run([sys.executable, "-c", CHILD, str(SRC)], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    burnt = [float(line) for line in out.split()]
    assert len(burnt) == 2
    assert max(burnt) < 0.05, burnt
