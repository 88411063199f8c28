"""Session setup for the test suite: numpy's BLAS runs one thread, and
hypothesis draws the same examples on every run.

The suite's matrices are small, so a second OpenBLAS thread mostly spins:
on a 2-core machine it costs CPU time and wall time without speeding any
test.  pytest imports this file before any test module, so the settings
take effect before numpy loads its BLAS; a value already set in the
environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from hypothesis import settings  # noqa: E402  (after the BLAS settings)

# the same examples on every run: a property test passes or fails for the
# tree, not for the draw
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
