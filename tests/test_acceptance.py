"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 8 is the one that fails. Its threshold (a randomized-inference gap
of at least 10 points in at least 4 of 5 seeds at eps=0.1) cannot be met:
PGD-10 is already at its optimum (PGD-100 gives the same standard robust
accuracy, 0.898-0.906), so the largest possible gap, 1 - standard robust
accuracy, is below 0.10 in four seeds; and randomized inference lowers robust
accuracy at this budget. The documented design does not say whether the
randomized-inference design or the 10-point target is wrong, so the criterion
is asserted as written and its failure message gives the per-seed arithmetic.

Criteria 2 and 10 bound the error rate from above only: the error must fall
at least as fast as N^-2.2. The interpolating decoder falls as N^-6.05
(matched by an independent natural-spline oracle), which the unit tests in
test_coded.py and test_codedsim.py pin.
"""

import functools
import os
import time

import numpy as np
import numpy.testing as npt
import pytest

from codedsmooth import autodiff
from codedsmooth.attack import (Clean, FGSMSpec, PGDSpec, Permutation, RCI, Standard,
                                pgd, fgsm, rci_forward, robust_eval)
from codedsmooth.autodiff import Tensor
from codedsmooth.cli import main
from codedsmooth.coded import CodedSmoothingModule, get_module
from codedsmooth.codedsim import (StragglerScenario, cell_means, fit_scaling_exponent,
                                  run_coded_job, sample_inputs, sweep)
from codedsmooth.datasets import make_dataset, one_hot
from codedsmooth.models import MLP, MLPSpec
from codedsmooth.seeding import stream_rng
from codedsmooth.spline import Knots, build_operator, fit
from codedsmooth.train import Coded, ERM, dual_path_terms, train

from conftest import CANONICAL_DATA, canonical_plan, fd_grad, loss_node, model_node, rel_err


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num:2d}] FAIL - {desc}")
                raise
            print(f"\n[criterion {num:2d}] PASS - {desc}")
        return wrapper
    return deco


@criterion(1, "spline exactness, affine reproduction, operator consistency")
def test_criterion_1_spline_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(100)

    def rand_knots(n):
        vals = np.sort(rng.uniform(-1, 1, n))
        while np.min(np.diff(vals)) < 1e-6:
            vals = np.sort(rng.uniform(-1, 1, n))
        return Knots(vals)

    for _ in range(50):
        kn = rand_knots(int(rng.integers(4, 16)))
        vals = rng.uniform(-5, 5, (len(kn), int(rng.integers(1, 5))))
        s = fit([kn], [vals])
        assert np.max(np.abs(s.eval(kn.values)[0] - vals)) <= 1e-10

    kn = rand_knots(9)
    a, b = 1.7, -0.3
    s = fit([kn], [(a * kn.values + b)[:, None]])
    pts = rng.uniform(-1, 1, 100)
    assert np.max(np.abs(s.eval(pts)[0].ravel() - (a * pts + b))) <= 1e-10

    for _ in range(100):
        kn = rand_knots(int(rng.integers(4, 12)))
        pts = rng.uniform(-1, 1, int(rng.integers(1, 20)))
        vals = rng.uniform(-3, 3, (len(kn), int(rng.integers(1, 4))))
        op = build_operator(kn, pts)
        assert np.max(np.abs(op.T @ vals - fit([kn], [vals]).eval(pts)[0])) <= 1e-9

    assert time.perf_counter() - start < 5.0


@criterion(2, "estimate-error rate over N (slope at most -2.2 and 100x decay)")
def test_criterion_2_rate():
    start = time.perf_counter()
    x = sample_inputs(16, 0)
    n_list = [32, 64, 128, 256, 512]
    mses = [get_module(16, n).estimate_mse(x, np.sin) for n in n_list]
    assert mses[0] / mses[-1] >= 100.0, "decay from N=32 to N=512 below 100x"
    slope = float(np.polyfit(np.log2(n_list), np.log2(mses), 1)[0])
    assert time.perf_counter() - start < 10.0
    assert slope <= -2.2, (
        f"measured log-log slope {slope:.3f} above -2.2: the estimate error "
        f"decays slower than N^-2.2")


@criterion(3, "identity test mode and constant-function degeneracies")
def test_criterion_3_degeneracies():
    rng = np.random.default_rng(101)
    for k in (4, 8, 16):
        m = CodedSmoothingModule(k, k, identity_mode=True)
        x = rng.uniform(-1, 1, (k, 3))

        def f(z):
            return np.tanh(z) + 0.25 * z ** 2

        assert np.max(np.abs(m.forward(x, f) - f(x))) <= 1e-10

    c = np.array([1.5, -2.0])
    for k, n in ((4, 8), (8, 16), (16, 32), (16, 64)):
        m = get_module(k, n)
        x = rng.uniform(-1, 1, (k, 2))
        assert m.estimate_mse(x, lambda z: np.tile(c, (z.shape[0], 1))) <= 1e-18


@criterion(4, "gradient through encode -> model -> decode vs finite differences")
def test_criterion_4_gradient_integrity():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    model = MLP(MLPSpec(widths=(2, 8, 2), activation="tanh"), rng)
    module = get_module(8, 12)
    x = rng.uniform(-1, 1, (8, 2))
    target = rng.uniform(-1, 1, (8, 2))

    def objective():
        est = module.forward(Tensor(x), model)
        return loss_node(autodiff.mse, est, target).data.item()

    xt = Tensor(x, requires_grad=True)
    theta = Tensor(model.theta, requires_grad=True)  # one leaf for every parameter
    est = module.forward(xt, lambda t: model_node(model, t, theta))
    loss_node(autodiff.mse, est, target).backward()

    assert rel_err(xt.grad, fd_grad(objective, x)) <= 1e-5
    numeric = fd_grad(objective, model.theta)
    for analytic, want in zip(model.split(theta.grad), model.split(numeric), strict=True):
        assert rel_err(analytic, want) <= 1e-5
    assert time.perf_counter() - start < 5.0


@criterion(5, "loss-mixing endpoints: mu=0 replays plain run, mu=1 is coded-only")
def test_criterion_5_endpoints():
    start = time.perf_counter()
    model_e, metrics_e = train(canonical_plan(0, ERM()))
    model_c, metrics_c = train(canonical_plan(0, Coded(mu=0.0, gamma=1.5)))
    assert metrics_e.to_csv() == metrics_c.to_csv()
    npt.assert_array_equal(model_e.theta, model_c.theta)

    # mu=1: gradients identical to a coded-only objective, main path untouched
    rng = np.random.default_rng(103)
    data = make_dataset(CANONICAL_DATA)
    x = data.train_x[:128]
    t = one_hot(data.train_y[:128], 2)
    module = get_module(128, 192)

    model = MLP(MLPSpec(widths=(2, 64, 64, 2)), rng)
    _, _, grads_dual = dual_path_terms(model, module, x, t, 1.0, "classification")

    theta = Tensor(model.theta, requires_grad=True)
    est = module.forward(Tensor(x), lambda z: model_node(model, z, theta))
    coded_only = loss_node(autodiff.cross_entropy, est, t)
    coded_only.backward()
    for g_dual, g_tape in zip(grads_dual, model.split(theta.grad), strict=True):
        npt.assert_array_equal(g_dual, g_tape)

    assert model.theta.size == MLP(MLPSpec(widths=(2, 64, 64, 2)),
                                   np.random.default_rng(0)).theta.size
    assert time.perf_counter() - start < 120.0


@criterion(6, "coded accuracy tracks plain training; boundary smoother in >= 4/5 seeds")
def test_criterion_6_generalization(moons_runs):
    start = time.perf_counter()
    acc_erm = [moons_runs[s].erm_metrics.final_test_metric for s in range(5)]
    acc_cod = [moons_runs[s].coded_metrics.final_test_metric for s in range(5)]
    assert np.median(acc_erm) >= 0.95, "plain-training baseline below 0.95"
    assert np.median(acc_cod) >= np.median(acc_erm) - 0.005, (
        f"coded median {np.median(acc_cod):.4f} trails plain median "
        f"{np.median(acc_erm):.4f} by more than half a point")
    smoother = sum(moons_runs[s].coded_metrics.boundary_smoothness
                   < moons_runs[s].erm_metrics.boundary_smoothness for s in range(5))
    assert smoother >= 4, f"boundary smoother in only {smoother}/5 paired seeds"
    assert time.perf_counter() - start < 600.0


@criterion(7, "randomized inference plumbing: seeded composition and round trips")
def test_criterion_7_rci_plumbing(moons_runs, moons_data):
    model = moons_runs[0].coded_model
    module = get_module(128, 192)
    x = moons_data.test_x[:128]
    got = rci_forward(model, module, x, stream_rng(21, "plumb"))
    perm = Permutation.random(128, stream_rng(21, "plumb"))
    want = perm.invert(module.decode(model.predict(module.encode(perm.apply(x)))))
    npt.assert_array_equal(got, want)

    rng = np.random.default_rng(104)
    for _ in range(1000):
        k = int(rng.integers(1, 50))
        perm = Permutation.random(k, rng)
        rows = rng.normal(size=(k, 2))
        npt.assert_array_equal(perm.invert(perm.apply(rows)), rows)


@criterion(8, "randomized inference robustness gap at eps=0.1 (>= 10 points in >= 4/5)")
def test_criterion_8_robustness(moons_runs, moons_data):
    start = time.perf_counter()
    x, y = moons_data.test_x, moons_data.test_y
    attack = PGDSpec(epsilon=0.1, steps=10)
    per_seed = []
    robust = []
    for seed in range(5):
        model = moons_runs[seed].coded_model
        mode = RCI(n_prime=192, k_prime=128, seed=seed)
        clean_std = robust_eval(model, x, y, Clean(), Standard(), seed=seed)
        clean_rci = robust_eval(model, x, y, Clean(), mode, trials=20, seed=seed)
        rob_std = robust_eval(model, x, y, attack, Standard(), seed=seed)
        rob_rci = robust_eval(model, x, y, attack, mode, trials=20, seed=seed)
        per_seed.append((rob_rci - rob_std, abs(clean_std - clean_rci)))
        robust.append((rob_std, rob_rci))
    assert time.perf_counter() - start < 600.0
    ok = sum(gap >= 0.10 and clean_diff <= 0.03 for gap, clean_diff in per_seed)
    assert ok >= 4, (
        f"gap/clean criterion met in {ok}/5 seeds; per-seed (gap, clean diff) = "
        f"{[(round(g, 4), round(c, 4)) for g, c in per_seed]}; per-seed "
        f"(standard robust acc, RCI robust acc, ceiling 1 - standard) = "
        f"{[(round(s, 4), round(r, 4), round(1.0 - s, 4)) for s, r in robust]}. "
        f"The gap cannot exceed 1 - standard robust accuracy, which is below "
        f"0.10 in {sum(1.0 - s < 0.10 for s, _ in robust)}/5 seeds; RCI robust "
        f"accuracy is below standard in {sum(r < s for s, r in robust)}/5 seeds")


@criterion(9, "attack contracts: single-step equivalence and L-inf projection")
def test_criterion_9_attack_contracts(moons_runs, moons_data):
    model = moons_runs[0].coded_model
    x, y = moons_data.test_x, moons_data.test_y
    for eps in (0.05, 0.1, 0.25):
        a = fgsm(model, x, y, eps)
        b = pgd(model, x, y, PGDSpec(epsilon=eps, steps=1, step_size=eps,
                                     random_start=False))
        npt.assert_array_equal(a, b)
    for eps, steps, start in ((0.1, 10, True), (0.3, 7, True), (0.02, 3, False)):
        adv = pgd(model, x, y, PGDSpec(epsilon=eps, steps=steps, random_start=start),
                  rng=stream_rng(3, "proj"))
        assert np.max(np.abs(adv - x)) <= eps + 1e-12


@criterion(10, "straggler simulator: degeneracy, monotonicity, scaling exponent")
def test_criterion_10_simulator():
    start = time.perf_counter()
    x = sample_inputs(16, 0)

    module = get_module(16, 32)
    est, mse = run_coded_job(np.sin, x, StragglerScenario(32, 0))
    npt.assert_array_equal(est, module.forward(x, np.sin))
    assert mse == module.estimate_mse(x, np.sin)

    scenario = StragglerScenario(16, 4, seed=9)
    from codedsmooth.codedsim import returned_indices
    dropped = np.setdiff1d(np.arange(16), returned_indices(scenario, get_module(8, 16).beta))
    x8 = sample_inputs(8, 2)

    def corrupted(z):
        out = np.sin(z)
        if out.shape[0] == 16:
            out[dropped] += 1e9
        return out

    est_a, _ = run_coded_job(np.sin, x8, scenario)
    est_b, _ = run_coded_job(corrupted, x8, scenario)
    npt.assert_array_equal(est_a, est_b)

    rows = sweep(np.sin, x, [32, 64, 128, 256], [0, 1, 3, 7], list(range(10)))
    means = cell_means(rows)
    for s in (0, 1, 3, 7):
        row = [means[(n, s)] for n in (32, 64, 128, 256)]
        assert all(row[i + 1] <= row[i] * 1.1 for i in range(3)), f"not decreasing in N at S={s}"
    for n in (32, 64, 128, 256):
        col = [means[(n, s)] for s in (0, 1, 3, 7)]
        assert all(col[i + 1] >= col[i] * 0.9 for i in range(3)), f"not increasing in S at N={n}"

    rep0 = sweep(np.sin, x, [32, 64, 128, 256, 512], [0], [0])
    exponent = fit_scaling_exponent(rep0)
    assert time.perf_counter() - start < 30.0
    assert exponent >= 2.2, (
        f"measured S=0 scaling exponent {exponent:.3f} below 2.2: the "
        f"straggler-free error decays slower than N^-2.2")


@criterion(11, "fit-and-evaluate cost scales linearly in the feature dimension")
def test_criterion_11_complexity():
    module = get_module(64, 96)
    rng = np.random.default_rng(105)

    def median_time(d):
        x = rng.uniform(-1, 1, (64, d))
        fout = rng.uniform(-1, 1, (96, d))
        times = []
        for _ in range(20):
            t0 = time.process_time()  # this process's CPU time: other load does not count
            fit([Knots(module.alpha)], [x]).eval(module.beta)
            fit([Knots(module.beta)], [fout]).eval(module.alpha)
            times.append(time.process_time() - t0)
        return float(np.median(times))

    median_time(512)  # warm-up
    ratio = median_time(1024) / median_time(512)
    assert ratio <= 2.5, f"doubling d slowed the direct path {ratio:.2f}x"


@criterion(12, "parameter sweeps complete deterministically; mu=0.5 beats mu=1.0")
def test_criterion_12_sweeps(tmp_path, moons_runs):
    cfg_text = (
        "data.kind = two_moons\ndata.n_train = 1000\ndata.n_test = 1000\n"
        "data.noise = 0.15\ndata.seed = 0\nmodel.widths = 2,64,64,2\n"
        "train.method = coded\ntrain.mu = 0.5\ntrain.gamma = 1.5\n"
        "train.epochs = 100\ntrain.batch_size = 128\ntrain.lr = 0.05\n"
        "train.seed = 0\nsweep.param = mu\n"
        "sweep.values = 0.1,0.2,0.4,0.5,0.6,0.8,1.0\nsweep.seeds = 0\n")
    cfg = tmp_path / "mu.cfg"
    cfg.write_text(cfg_text)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["sweep", "--config", str(cfg), "--out", out1]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", out2]) == 0
    with open(os.path.join(out1, "sweep.csv")) as fh:
        csv1 = fh.read()
    with open(os.path.join(out2, "sweep.csv")) as fh:
        csv2 = fh.read()
    assert csv1 == csv2
    assert len(csv1.strip().splitlines()) == 8  # header + 7 mu values

    n_cfg_text = cfg_text.replace("sweep.param = mu", "sweep.param = N").replace(
        "sweep.values = 0.1,0.2,0.4,0.5,0.6,0.8,1.0", "sweep.values = 128,160,192")
    n_cfg = tmp_path / "n.cfg"
    n_cfg.write_text(n_cfg_text)
    out3, out4 = str(tmp_path / "c"), str(tmp_path / "d")
    assert main(["sweep", "--config", str(n_cfg), "--out", out3]) == 0
    assert main(["sweep", "--config", str(n_cfg), "--out", out4]) == 0
    with open(os.path.join(out3, "sweep.csv")) as fh:
        ncsv1 = fh.read()
    with open(os.path.join(out4, "sweep.csv")) as fh:
        ncsv2 = fh.read()
    assert ncsv1 == ncsv2
    assert len(ncsv1.strip().splitlines()) == 4  # header + 3 N values

    wins = 0
    for seed in range(5):
        acc_half = moons_runs[seed].coded_metrics.final_test_metric
        _, metrics_one = train(canonical_plan(seed, Coded(mu=1.0, gamma=1.5)))
        wins += acc_half > metrics_one.final_test_metric
    assert wins >= 3, f"mu=0.5 beat mu=1.0 in only {wins}/5 seeds"
