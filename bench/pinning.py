"""Process set-up shared by the benchmark's entry points.

Importing this module, before NumPy is imported anywhere, pins the BLAS and
OpenMP thread pools to one thread and puts the checkout's ``src`` first on
the import path.  Both settings travel to child processes through the
environment, so the sweep's pool workers inherit them.
"""

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
