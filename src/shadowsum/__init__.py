"""Shadow state sums in S^2 x S^1 and torus-gauge determinant kernels."""

__version__ = "0.1.0"

import os

# One BLAS thread unless the caller chose otherwise.  No command loads numpy; only
# `circleop` (library API) uses it, on small arrays, where a default pool of one
# OpenBLAS thread per core slows numpy's import, burns the other cores and makes the
# last digits of float results depend on the machine's core count.  It must be set
# before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
