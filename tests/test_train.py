from dataclasses import dataclass, field

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
                               dual_path_terms, evaluate_model, margin_grid, schedule_n,
                               train)

from conftest import add, loss_node, matmul, model_node, scale, tsum

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
    xb, yb = Mixup(1.0).batch(x, y, _FixedRng(1.0, [3, 2, 1, 0]))
    npt.assert_array_equal(xb, x)
    npt.assert_array_equal(yb, y)


def test_mixup_halfway_point():
    x = np.array([[0.0], [2.0]])
    y = one_hot(np.array([0, 1]), 2)
    xb, yb = Mixup(1.0).batch(x, y, _FixedRng(0.5, [1, 0]))
    npt.assert_array_equal(xb, [[1.0], [1.0]])
    npt.assert_array_equal(yb, [[0.5, 0.5], [0.5, 0.5]])


def test_mixup_rows_remain_distributions():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (32, 2))
    y = one_hot(rng.integers(0, 2, 32), 2)
    _, yb = Mixup(0.4).batch(x, y, rng)
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
    assert len(grads) == len(model.spec.layout())


def test_mu_one_returns_coded_only():
    model, x, target = _setup_batch()
    module = get_module(8, 12)
    l_main, l_coded, _ = dual_path_terms(model, module, x, target, 1.0,
                                         "classification")
    assert isinstance(l_coded, float)
    assert l_main != pytest.approx(l_coded)  # genuinely different paths


def _tape_terms(model, theta, module, x, target, mu, task):
    """The dual-path loss composed op by op on the tape: the reference.
    ``theta`` is the leaf on ``model.theta`` that the network's nodes share."""
    rule = autodiff.cross_entropy if task == "classification" else autodiff.mse

    def net(t):
        return model_node(model, t, theta)

    l_main = loss_node(rule, net(Tensor(x)), target)
    if mu == 0.0:
        return l_main
    l_coded = loss_node(rule, module.forward(Tensor(x), net), target)
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
        b[:] = rng.uniform(-0.3, 0.3, b.shape)
    return model, x, target


@pytest.mark.parametrize("task", ["classification", "regression", "autoencoder"])
@pytest.mark.parametrize("mu", [0.0, 0.1, 0.3, 0.5, 1.0])
def test_fused_step_equals_tape_composition(mu, task):
    model, x, target = _task_batch(task, np.random.default_rng(5))
    module = get_module(16, 24)
    theta = Tensor(model.theta, requires_grad=True)

    _tape_terms(model, theta, module, x, target, mu, task).backward()
    tape_grads = model.split(theta.grad)

    l_main, l_coded, grads = dual_path_terms(model, module, x, target, mu, task)
    assert len(grads) == len(tape_grads)
    for t, g in zip(tape_grads, grads):
        assert g.tobytes() == t.tobytes()
    assert l_main == _tape_terms(model, theta, module, x, target, 0.0, task).data.item()
    if mu > 0.0:
        assert l_coded == _tape_terms(model, theta, module, x, target, 1.0, task).data.item()


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
    npt.assert_array_equal(model_e.theta, model_c.theta)


def test_a_method_trains_through_its_own_batch():
    # a method defined here, not in train.py, trains with no edit there: its
    # batch sees every step's K rows, and one that changes nothing trains as ERM
    @dataclass(frozen=True)
    class Counting(ERM):
        rows: list = field(default_factory=list)

        def batch(self, x, t, rng):
            self.rows.append((len(x), len(t)))
            return x, t

    method = Counting()
    model, metrics = train(small_plan(method))
    model_e, metrics_e = train(small_plan(ERM()))
    assert method.rows == [(16, 16)] * (3 * 64 // 16)
    assert metrics.to_csv() == metrics_e.to_csv()
    assert model.theta.tobytes() == model_e.theta.tobytes()


def test_training_deterministic():
    _, m1 = train(small_plan(Mixup(alpha=1.0)))
    _, m2 = train(small_plan(Mixup(alpha=1.0)))
    assert m1.to_csv() == m2.to_csv()


def test_lockstep_runs_equal_separate_runs():
    # a list of plans trains epoch by epoch in lockstep; each plan keeps the
    # bits it has alone, and a plan with fewer epochs stops early
    plans = [small_plan(Coded(mu=0.5, gamma=1.5)), small_plan(ERM(), seed=1),
             small_plan(Coded(mu=0.5, gamma=1.5), seed=2, epochs=2),
             small_plan(Mixup(alpha=1.0), seed=3)]
    together = train(plans)
    assert len(together) == len(plans)
    for plan, (model, metrics) in zip(plans, together):
        alone_model, alone = train(plan)
        assert metrics.to_csv() == alone.to_csv()
        assert metrics.boundary_smoothness == alone.boundary_smoothness
        npt.assert_array_equal(model.theta, alone_model.theta)


def _diverging_plan(noise, lr=1e30):
    # runaway lr on a squared-error task: past the loss limit at the second
    # step at noise 0, at once at noise 1e200; at lr = 100 only at epoch 1, batch 2
    return TrainPlan(
        dataset=DatasetSpec(kind="sinusoid_regression", n_train=64, n_test=32,
                            noise=noise, seed=1),
        model=MLPSpec(widths=(1, 8, 1), activation="tanh"),
        epochs=5, batch_size=16, lr=lr, momentum=0.9, seed=0, method=ERM())


def test_lockstep_leaves_numpy_error_state_alone():
    # one errstate spans the lockstep: one per suspended run would restore, on
    # leaving, the state saved on entering, which a run before it had set; the
    # state is set here so that no earlier leak can hide one
    with np.errstate(over="warn", invalid="warn"):
        before = np.geterr()
        train([small_plan(Coded(mu=0.5, gamma=1.5), seed=s) for s in range(3)])
        assert np.geterr() == before
        with pytest.raises(NumericError):
            train([small_plan(ERM()), _diverging_plan(0.0), _diverging_plan(1e200)])
        assert np.geterr() == before


def test_lockstep_numeric_failure_gives_the_plan_index():
    # lockstep meets the earliest failing epoch first, not the first failing
    # plan in the list
    with pytest.raises(NumericError, match="at epoch 0, batch 0") as exc:
        train([small_plan(ERM()), _diverging_plan(0.0, lr=100.0), _diverging_plan(1e200)])
    assert exc.value.index == 2
    with pytest.raises(NumericError, match="at epoch 1, batch 2") as exc:
        train([small_plan(ERM()), _diverging_plan(0.0, lr=100.0)])
    assert exc.value.index == 1


@pytest.mark.filterwarnings("error")
def test_nan_guard_aborts_with_diagnostic():
    # runaway lr on a squared-error task passes the loss limit within a few
    # steps (and is inf at once on targets this noisy), with no numpy warning
    # on the way; the message names the loss term that carries weight and went bad
    for noise in (0.0, 1e150, 1e200):
        for method, term in ((ERM(), "main"), (Coded(mu=1.0), "coded")):
            plan = TrainPlan(
                dataset=DatasetSpec(kind="sinusoid_regression", n_train=64, n_test=32,
                                    noise=noise, seed=1),
                model=MLPSpec(widths=(1, 8, 1), activation="tanh"),
                epochs=5, batch_size=16, lr=1e30, momentum=0.9, seed=0, method=method)
            with pytest.raises(NumericError,
                               match=rf"runaway {term} loss \(\S+\) at epoch \d+, batch \d+"):
                train(plan)


def test_coded_method_adds_no_parameters():
    model_e, _ = train(small_plan(ERM()))
    model_c, _ = train(small_plan(Coded(mu=0.5, gamma=1.5)))
    assert model_e.theta.size == model_c.theta.size
    module = get_module(16, 24)
    assert not any(isinstance(v, Tensor) and v.requires_grad for v in vars(module).values())


def test_trained_model_round_trips_through_model_file(tmp_path):
    # the model file is the whole model: every parameter reads back as it
    # was trained
    model, _ = train(small_plan(Coded(mu=0.5, gamma=1.5)))
    path = tmp_path / "m.bin"
    path.write_bytes(model_bytes(model, 0, "coded mu=0.5 gamma=1.5"))
    loaded, _ = load_model(str(path))
    assert loaded.spec == model.spec
    npt.assert_array_equal(loaded.theta, model.theta)


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
    model.weights[0][...] = np.array([[1.0, 3.0], [0.5, -1.5]])
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
        b[:] = rng.uniform(-0.3, 0.3, b.shape)
    grid = margin_grid(7)
    sel = np.zeros((widths[-1], 1))
    sel[0, 0] = -1.0
    sel[1, 0] = 1.0
    x = Tensor(grid, requires_grad=True)
    tsum(matmul(model(x), Tensor(sel))).backward()
    want = float(np.mean(np.sqrt(np.sum(x.grad * x.grad, axis=1))))
    assert boundary_smoothness(model, grid) == want


@pytest.mark.parametrize("method", [ERM(), Coded(mu=0.5, gamma=1.5)])
def test_trained_model_holds_no_parameter_gradients(method):
    model, metrics = train(small_plan(method))
    assert np.isfinite(metrics.boundary_smoothness)
    # the parameters are plain views of theta: nothing can hold a gradient
    assert all(type(p) is np.ndarray for p in model.weights + model.biases)
    assert not any(isinstance(v, Tensor) for v in vars(model).values())


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


def test_evaluate_model_rejects_a_regression_target_of_another_shape():
    # an (n,) target against the (n, 1) output would broadcast to an (n, n)
    # difference; the loss's own MSE rule names both shapes instead
    rng = np.random.default_rng(7)
    model = MLP(MLPSpec(widths=(1, 8, 1), activation="tanh"), rng)
    x = rng.uniform(-1, 1, (16, 1))
    y = np.sin(np.pi * x)
    diff = model.predict(x) - y
    assert evaluate_model(model, x, y, "regression") == float(np.mean(diff * diff))
    with pytest.raises(ShapeError, match=r"\(16, 1\) vs \(16,\)"):
        evaluate_model(model, x, y[:, 0], "regression")
