"""Parallel split learning with server-side gradient coordination."""

import os
import sys

# A BLAS product rounds differently at different thread counts, so every
# pool is pinned to one thread before numpy loads, over any value set.
# BLAS_THREADS is what this process's BLAS got (None: its default, when
# numpy loaded first); the manifest records it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = {v: os.environ.get(v) if "numpy" in sys.modules else "1" for v in BLAS_THREAD_VARS}
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

__version__ = "0.1.0"
