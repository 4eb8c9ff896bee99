"""Test set-up shared by every test directory.

One BLAS thread unless the caller chose otherwise, set before numpy loads:
the benchmark runs one thread, the thread count changes the low bits of
the outputs, and small BLAS calls on two threads oversubscribe a two-core
machine.
"""

import os

for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(variable, "1")
