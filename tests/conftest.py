"""Tier-1 runs numpy's BLAS on one thread, as CI does, unless the caller set
the thread counts: pytest imports this file before any test module imports
numpy, and a BLAS reads these variables only when numpy loads it."""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
