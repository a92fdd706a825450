import numpy as np
import numpy.testing as npt
import pytest

from codedsmooth import autodiff
from codedsmooth.autodiff import Tensor
from codedsmooth.coded import get_module
from codedsmooth.datasets import DatasetSpec, one_hot
from codedsmooth.errors import NumericError, ShapeError, ValidationError
from codedsmooth.modelio import load_model, model_bytes
from codedsmooth.models import MLP, MLPSpec
from codedsmooth.train import (Coded, ERM, Mixup, TrainPlan, boundary_smoothness,
                               dual_path_terms, margin_grid, mixup_batch,
                               schedule_n, train)

from conftest import add, loss_node, matmul, scale, tsum

SMALL_DATA = DatasetSpec(kind="two_moons", n_train=64, n_test=32, noise=0.1, seed=1)
SMALL_MODEL = MLPSpec(widths=(2, 8, 2), activation="relu")


def small_plan(method, seed=0, **kw):
    base = dict(dataset=SMALL_DATA, model=SMALL_MODEL, epochs=3, batch_size=16,
                lr=0.1, momentum=0.9, seed=seed, method=method)
    base.update(kw)
    return TrainPlan(**base)


# ---------------------------------------------------------------- schedule

def test_schedule_ramp_endpoints():
    method = Coded(mu=0.5, gamma=1.5)
    assert schedule_n(method, 0, 100, 128) == 128
    assert schedule_n(method, 99, 100, 128) == 192
    assert schedule_n(Coded(mu=0.5, gamma=1.0), 50, 100, 128) == 128


def test_schedule_monotone_and_bounded():
    method = Coded(mu=0.5, gamma=1.5)
    values = [schedule_n(method, e, 40, 16) for e in range(40)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert min(values) == 16 and max(values) == 24


# ---------------------------------------------------------------- mixup

class _FixedRng:
    def __init__(self, lam, perm):
        self._lam = lam
        self._perm = np.asarray(perm)

    def beta(self, a, b):
        return self._lam

    def permutation(self, n):
        return self._perm


def test_mixup_lambda_one_is_identity():
    x = np.arange(8.0).reshape(4, 2)
    y = one_hot(np.array([0, 1, 0, 1]), 2)
    xb, yb = mixup_batch(x, y, 1.0, _FixedRng(1.0, [3, 2, 1, 0]))
    npt.assert_array_equal(xb, x)
    npt.assert_array_equal(yb, y)


def test_mixup_halfway_point():
    x = np.array([[0.0], [2.0]])
    y = one_hot(np.array([0, 1]), 2)
    xb, yb = mixup_batch(x, y, 1.0, _FixedRng(0.5, [1, 0]))
    npt.assert_array_equal(xb, [[1.0], [1.0]])
    npt.assert_array_equal(yb, [[0.5, 0.5], [0.5, 0.5]])


def test_mixup_rows_remain_distributions():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (32, 2))
    y = one_hot(rng.integers(0, 2, 32), 2)
    _, yb = mixup_batch(x, y, 0.4, rng)
    npt.assert_allclose(yb.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------- dual path

def _setup_batch():
    rng = np.random.default_rng(2)
    model = MLP(SMALL_MODEL, rng)
    x = rng.uniform(-1, 1, (8, 2))
    target = one_hot(rng.integers(0, 2, 8), 2)
    return model, x, target


def test_mu_zero_returns_main_only_without_module():
    model, x, target = _setup_batch()
    l_main, l_coded, grads = dual_path_terms(model, None, x, target, 0.0,
                                             "classification")
    assert isinstance(l_main, float) and l_coded is None
    assert len(grads) == len(model.parameters())


def test_mu_one_returns_coded_only():
    model, x, target = _setup_batch()
    module = get_module(8, 12)
    l_main, l_coded, _ = dual_path_terms(model, module, x, target, 1.0,
                                         "classification")
    assert isinstance(l_coded, float)
    assert l_main != pytest.approx(l_coded)  # genuinely different paths


def _tape_terms(model, module, x, target, mu, task):
    """The dual-path loss composed op by op on the tape: the reference."""
    rule = autodiff.cross_entropy if task == "classification" else autodiff.mse
    l_main = loss_node(rule, model.forward(Tensor(x)), target)
    if mu == 0.0:
        return l_main
    l_coded = loss_node(rule, module.forward(Tensor(x), model), target)
    if mu == 1.0:
        return l_coded
    return add(scale(l_main, 1.0 - mu), scale(l_coded, mu))


def _task_batch(task, rng):
    """(model, batch, target) of 16 rows for one task."""
    if task == "regression":
        model = MLP(MLPSpec(widths=(1, 8, 8, 1), activation="tanh"), rng)
        x = rng.uniform(-1, 1, (16, 1))
        target = np.sin(np.pi * x)
    else:
        model = MLP(MLPSpec(widths=(2, 8, 8, 2), activation="relu"), rng)
        x = rng.uniform(-1, 1, (16, 2))
        target = one_hot(rng.integers(0, 2, 16), 2) if task == "classification" else x
    for b in model.biases:
        b.data[:] = rng.uniform(-0.3, 0.3, b.data.shape)
    return model, x, target


@pytest.mark.parametrize("task", ["classification", "regression", "autoencoder"])
@pytest.mark.parametrize("mu", [0.0, 0.1, 0.3, 0.5, 1.0])
def test_fused_step_equals_tape_composition(mu, task):
    model, x, target = _task_batch(task, np.random.default_rng(5))
    module = get_module(16, 24)
    params = model.parameters()

    _tape_terms(model, module, x, target, mu, task).backward()

    l_main, l_coded, grads = dual_path_terms(model, module, x, target, mu, task)
    assert len(grads) == len(params)
    for p, g in zip(params, grads):
        assert g.tobytes() == p.grad.tobytes()
    assert l_main == _tape_terms(model, module, x, target, 0.0, task).data.item()
    if mu > 0.0:
        assert l_coded == _tape_terms(model, module, x, target, 1.0, task).data.item()


def test_mu_validation():
    model, x, target = _setup_batch()
    with pytest.raises(ValidationError):
        dual_path_terms(model, None, x, target, 1.5, "classification")
    with pytest.raises(ShapeError):  # 8 rows into a K = 16 module
        dual_path_terms(model, get_module(16, 24), x, target, 0.5, "classification")
    with pytest.raises(ValidationError):
        Coded(mu=-0.1)


# ---------------------------------------------------------------- training

def test_erm_training_runs_and_records():
    model, metrics = train(small_plan(ERM()))
    assert len(metrics.records) == 3
    assert all(np.isfinite(r.loss_main) for r in metrics.records)
    assert all(np.isnan(r.loss_coded) for r in metrics.records)
    assert all(r.n_coded == 16 for r in metrics.records)
    assert 0.0 <= metrics.final_test_metric <= 1.0


def test_coded_training_ramps_n():
    _, metrics = train(small_plan(Coded(mu=0.5, gamma=1.5), epochs=5))
    ns = [r.n_coded for r in metrics.records]
    assert ns[0] == 16 and ns[-1] == 24
    assert all(b >= a for a, b in zip(ns, ns[1:]))
    assert all(np.isfinite(r.loss_coded) for r in metrics.records)


def test_mu_zero_run_bit_identical_to_erm():
    model_e, metrics_e = train(small_plan(ERM()))
    model_c, metrics_c = train(small_plan(Coded(mu=0.0, gamma=1.5)))
    assert metrics_e.to_csv() == metrics_c.to_csv()
    for pe, pc in zip(model_e.parameters(), model_c.parameters()):
        npt.assert_array_equal(pe.data, pc.data)


def test_training_deterministic():
    _, m1 = train(small_plan(Mixup(alpha=1.0)))
    _, m2 = train(small_plan(Mixup(alpha=1.0)))
    assert m1.to_csv() == m2.to_csv()


@pytest.mark.filterwarnings("error")
def test_nan_guard_aborts_with_diagnostic():
    # runaway lr on a squared-error task overflows to inf within a few steps
    # (at once on targets this noisy), with no numpy warning on the way; the
    # message names the loss term that carries weight and went bad
    for noise in (0.0, 1e150, 1e200):
        for method, term in ((ERM(), "main"), (Coded(mu=1.0), "coded")):
            plan = TrainPlan(
                dataset=DatasetSpec(kind="sinusoid_regression", n_train=64, n_test=32,
                                    noise=noise, seed=1),
                model=MLPSpec(widths=(1, 8, 1), activation="tanh"),
                epochs=5, batch_size=16, lr=1e30, momentum=0.9, seed=0, method=method)
            with pytest.raises(NumericError,
                               match=rf"non-finite {term} loss at epoch \d+, batch \d+"):
                train(plan)


def test_coded_method_adds_no_parameters():
    model_e, _ = train(small_plan(ERM()))
    model_c, _ = train(small_plan(Coded(mu=0.5, gamma=1.5)))
    assert model_e.parameter_count() == model_c.parameter_count()
    module = get_module(16, 24)
    assert not any(isinstance(v, Tensor) and v.requires_grad for v in vars(module).values())


def test_trained_model_round_trips_through_model_file(tmp_path):
    # the model file is the whole model: every slot of every parameter reads
    # back as it was trained
    model, _ = train(small_plan(Coded(mu=0.5, gamma=1.5)))
    path = tmp_path / "m.bin"
    path.write_bytes(model_bytes(model, 0, "coded mu=0.5 gamma=1.5"))
    loaded, _ = load_model(str(path))
    assert loaded.spec == model.spec
    for a, b in zip(model.parameters(), loaded.parameters(), strict=True):
        assert type(a) is type(b)
        for slot in (s for cls in type(a).__mro__ for s in getattr(cls, "__slots__", ())):
            npt.assert_array_equal(getattr(a, slot), getattr(b, slot), err_msg=slot)


def test_plan_validation():
    with pytest.raises(ValidationError):
        train(small_plan(ERM(), batch_size=48))  # n_train < 2K
    with pytest.raises(ValidationError):
        TrainPlan(dataset=SMALL_DATA, model=SMALL_MODEL, epochs=0,
                  batch_size=16, method=ERM())
    with pytest.raises(ValidationError):
        train(small_plan(ERM(), model=MLPSpec(widths=(3, 4, 2))))  # input dim


def test_lr_decay_applied():
    plan = small_plan(ERM(), epochs=4, lr_decay_epochs=(2,))
    _, metrics = train(plan)
    assert len(metrics.records) == 4  # smoke: decay path exercised


# ------------------------------------------------------ boundary smoothness

def test_boundary_smoothness_constant_model_is_zero():
    model = MLP(MLPSpec(widths=(2, 4, 2)), rng=None)  # zero-initialized
    assert boundary_smoothness(model, margin_grid(9)) == 0.0


def test_boundary_smoothness_linear_model():
    model = MLP(MLPSpec(widths=(2, 2)), rng=None)
    model.weights[0].data[...] = np.array([[1.0, 3.0], [0.5, -1.5]])
    # margin weight = column 1 - column 0 = (2.0, -2.0); norm everywhere
    want = np.hypot(2.0, 2.0)
    npt.assert_allclose(boundary_smoothness(model, margin_grid(9)), want, rtol=1e-12)


def test_boundary_smoothness_needs_2d_inputs():
    model = MLP(MLPSpec(widths=(3, 4, 2)), rng=None)
    with pytest.raises(ValidationError):
        boundary_smoothness(model, margin_grid(5))


@pytest.mark.parametrize("widths", [(2, 8, 2), (2, 8, 8, 3)])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_boundary_smoothness_equals_tape_composition(widths, activation):
    rng = np.random.default_rng(8)
    model = MLP(MLPSpec(widths=widths, activation=activation), rng)
    for b in model.biases:
        b.data[:] = rng.uniform(-0.3, 0.3, b.data.shape)
    grid = margin_grid(7)
    sel = np.zeros((widths[-1], 1))
    sel[0, 0] = -1.0
    sel[1, 0] = 1.0
    x = Tensor(grid, requires_grad=True)
    tsum(matmul(model(x), Tensor(sel))).backward()
    want = float(np.mean(np.sqrt(np.sum(x.grad * x.grad, axis=1))))
    assert boundary_smoothness(model, grid) == want


def test_boundary_smoothness_leaves_parameter_gradients_alone():
    model = MLP(SMALL_MODEL, np.random.default_rng(9))
    params = model.parameters()
    boundary_smoothness(model, margin_grid(5))
    assert all(p.grad is None for p in params)
    held = [np.full(p.data.shape, 0.5) for p in params]
    for p, g in zip(params, held):
        p.grad = g
    boundary_smoothness(model, margin_grid(5))
    for p, g in zip(params, held):
        assert p.grad is g
        npt.assert_array_equal(g, 0.5)


@pytest.mark.parametrize("method", [ERM(), Coded(mu=0.5, gamma=1.5)])
def test_trained_model_holds_no_parameter_gradients(method):
    model, metrics = train(small_plan(method))
    assert np.isfinite(metrics.boundary_smoothness)
    assert all(p.grad is None for p in model.parameters())


# ---------------------------------------------------------------- csv

def test_metrics_csv_shape():
    _, metrics = train(small_plan(Coded(mu=0.5, gamma=1.5)))
    lines = metrics.to_csv().strip().splitlines()
    assert lines[0] == "epoch,loss_main,loss_coded,test_metric,N"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and len(first) == 5


def test_coded_path_loss_tracks_main_loss(moons_runs):
    # at the end of the ramp the decoded estimates are close in absolute
    # terms, but the cross-entropy ratio sits near 3-4x once the main loss
    # is tiny (frozen from the canonical 5-seed study)
    for seed in range(5):
        last = moons_runs[seed].coded_metrics.records[-1]
        assert last.loss_coded < 0.15
        assert last.loss_coded / last.loss_main < 6.0


def test_regression_and_autoencoder_paths():
    reg_plan = TrainPlan(
        dataset=DatasetSpec(kind="sinusoid_regression", n_train=64, n_test=32,
                            noise=0.05, seed=2),
        model=MLPSpec(widths=(1, 16, 1), activation="tanh"),
        epochs=3, batch_size=16, lr=0.05, momentum=0.9, seed=0,
        method=Coded(mu=0.5, gamma=1.5))
    _, metrics = train(reg_plan)
    assert metrics.records[-1].test_metric < 1.0  # it's an MSE now

    auto_plan = TrainPlan(
        dataset=DatasetSpec(kind="gaussian8_autoencoder", n_train=64, n_test=32,
                            noise=0.05, seed=2),
        model=MLPSpec(widths=(2, 16, 2), activation="relu"),
        epochs=3, batch_size=16, lr=0.05, momentum=0.9, seed=0,
        method=Coded(mu=0.5, gamma=1.5))
    _, metrics = train(auto_plan)
    assert np.isfinite(metrics.records[-1].test_metric)
