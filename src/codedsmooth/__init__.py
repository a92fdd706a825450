"""codedsmooth: spline-coded batch smoothing.

A batch is treated as samples of a vector-valued natural cubic spline at
Chebyshev abscissas; evaluating that spline at a denser second point set
yields coded samples, and a second spline fitted on the computed outputs
decodes estimates back at the original abscissas. On top of this module the
package provides a dual-path training regularizer, permutation-randomized
inference for adversarial robustness, and a straggler-tolerant
coded-computing simulator, all driven by a deterministic experiment CLI.
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

from .autodiff import Tensor, mse_loss, sgd_momentum_step, softmax_cross_entropy
from .coded import CodedSmoothingModule, chebyshev_first, chebyshev_second, get_module
from .codedsim import (SimReport, StragglerScenario, fit_scaling_exponent,
                       run_coded_job, run_coded_jobs, sweep)
from .datasets import Dataset, DatasetSpec, make_dataset, one_hot, task_of
from .errors import NumericError, ShapeError, ValidationError
from .models import MLP, MLPSpec
from .spline import Knots, NaturalCubicSpline, build_operator, fit
from .train import (Coded, ERM, Metrics, Mixup, TrainPlan, boundary_smoothness,
                    mixup_batch, schedule_n, train)
from .attack import (FGSMSpec, PGDSpec, Permutation, RCI, Standard, fgsm, pgd,
                     rci_forward, robust_eval)

__version__ = "0.1.0"
