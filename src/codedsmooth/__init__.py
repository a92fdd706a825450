"""codedsmooth: spline-coded batch smoothing.

A batch is treated as samples of a vector-valued natural cubic spline at
Chebyshev abscissas; evaluating that spline at a denser second point set
yields coded samples, and a second spline fitted on the computed outputs
decodes estimates back at the original abscissas. On top of this module the
package provides a dual-path training regularizer, permutation-randomized
inference for adversarial robustness, and a straggler-tolerant
coded-computing simulator, all driven by a deterministic experiment CLI.
"""

from .autodiff import (Parameter, Tensor, apply_linear_operator, mse_loss, sgd_momentum_step,
                       softmax_cross_entropy)
from .coded import CodedSmoothingModule, chebyshev_first, chebyshev_second, get_module
from .codedsim import (SimReport, StragglerScenario, fit_scaling_exponent,
                       run_coded_job, run_coded_jobs, sweep)
from .datasets import Dataset, DatasetSpec, make_dataset, one_hot, task_of
from .errors import NumericError, ShapeError, ValidationError
from .models import MLP, MLPSpec
from .spline import Knots, NaturalCubicSpline, SplineOperator, build_operator, fit, fit_eval
from .train import (Coded, ERM, Metrics, Mixup, TrainPlan, boundary_smoothness,
                    mixup_batch, schedule_n, train)
from .attack import (FGSMSpec, PGDSpec, Permutation, RCI, Standard, fgsm, pgd,
                     rci_forward, robust_eval)

__version__ = "0.1.0"
