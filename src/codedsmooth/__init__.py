"""codedsmooth: spline-coded batch smoothing.

A batch is treated as samples of a vector-valued natural cubic spline at
Chebyshev abscissas; evaluating that spline at a denser second point set
yields coded samples, and a second spline fitted on the computed outputs
decodes estimates back at the original abscissas. On top of this module the
package provides a dual-path training regularizer, permutation-randomized
inference for adversarial robustness, and a straggler-tolerant
coded-computing simulator, all driven by a deterministic experiment CLI.

``import codedsmooth`` loads no submodule: a public name is imported from its
module on first use (PEP 562), so a CLI command loads only what it runs.
"""

import importlib
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

# module: the public names it provides
_EXPORTS = {
    "autodiff": "Tensor mse_loss sgd_momentum_step softmax_cross_entropy",
    "coded": "CodedSmoothingModule chebyshev_first chebyshev_second get_module",
    "codedsim": "SimReport StragglerScenario fit_scaling_exponent run_coded_job "
                "run_coded_jobs sweep",
    "datasets": "Dataset DatasetSpec make_dataset one_hot task_of",
    "errors": "NumericError ShapeError ValidationError",
    "models": "MLP MLPSpec",
    "spline": "Knots NaturalCubicSpline build_operator fit",
    "train": "Coded ERM Metrics Mixup TrainPlan boundary_smoothness mixup_batch "
             "schedule_n train",
    "attack": "FGSMSpec PGDSpec Permutation RCI Standard fgsm pgd rci_forward robust_eval",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME[name]}", __name__)
    # bind all of the module's names: loading codedsmooth.train has just
    # bound the submodule as ``train``, and the package's ``train`` is the
    # function (unless the submodule was imported by its full name first)
    for export in _EXPORTS[_HOME[name]].split():
        globals()[export] = getattr(module, export)
    return globals()[name]
