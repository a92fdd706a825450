"""codedsmooth: spline-coded batch smoothing.

A batch is treated as samples of a vector-valued natural cubic spline at
Chebyshev abscissas; evaluating that spline at a denser second point set
yields coded samples, and a second spline fitted on the computed outputs
decodes estimates back at the original abscissas. On top of this module the
package provides a dual-path training regularizer, permutation-randomized
inference for adversarial robustness, and a straggler-tolerant
coded-computing simulator, all driven by a deterministic experiment CLI.

The API is ``codedsmooth.<module>.<name>``, e.g. ``from codedsmooth.coded
import get_module``. ``import codedsmooth`` loads no submodule, so a CLI
command loads only what it runs.
"""

import os

# One BLAS (and OpenMP) thread unless the caller set a count. The package's
# GEMMs are small (the largest on a CLI path is 1,000 x 64 x 64, in PGD), and
# waking a second BLAS thread for them costs more than it saves. This runs
# before any module here imports numpy; BLAS reads the variables when numpy
# loads, so it does not change the current process if numpy was imported
# before codedsmooth. Child processes (the spawned `sweep --threads` workers)
# inherit the variables either way.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
