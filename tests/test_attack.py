import copy

import numpy as np
import numpy.testing as npt
import pytest

from codedsmooth.attack import (FGSMSpec, PGDSpec, Permutation, RCI, Standard,
                                fgsm, pgd, rci_forward, robust_eval)
from codedsmooth.autodiff import Tensor, softmax_cross_entropy
from codedsmooth.coded import CodedSmoothingModule, get_module
from codedsmooth.datasets import one_hot
from codedsmooth.errors import ValidationError
from codedsmooth.models import MLP, MLPSpec
from codedsmooth.seeding import stream_rng

from conftest import CANONICAL_DATA


def _linear_model():
    # logits = (0, x0 + x1): gradient of the class-0 loss is positive in both
    # coordinates everywhere
    model = MLP(MLPSpec(widths=(2, 2)), rng=None)
    model.weights[0].data[...] = np.array([[0.0, 1.0], [0.0, 1.0]])
    return model


def _identity_model():
    model = MLP(MLPSpec(widths=(2, 2)), rng=None)
    model.weights[0].data[...] = np.eye(2)
    return model


def _mean_loss(model, x, y):
    return softmax_cross_entropy(model(Tensor(x)), one_hot(y, model.output_dim)).item()


# ---------------------------------------------------------------- permutation

def test_permutation_roundtrip_many():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        k = int(rng.integers(1, 40))
        perm = Permutation.random(k, rng)
        x = rng.normal(size=(k, 3))
        npt.assert_array_equal(perm.invert(perm.apply(x)), x)
        npt.assert_array_equal(perm.apply(perm.invert(x)), x)
        npt.assert_array_equal(perm.order[perm.inverse], np.arange(k))


def test_permutation_roughly_uniform():
    rng = np.random.default_rng(1)
    counts = {}
    for _ in range(3000):
        key = tuple(Permutation.random(3, rng).order)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    assert all(400 <= c <= 600 for c in counts.values())


# ---------------------------------------------------------------- rci

def test_rci_equals_manual_composition():
    rng = np.random.default_rng(2)
    model = MLP(MLPSpec(widths=(2, 8, 2)), rng)
    module = get_module(8, 12)
    x = rng.uniform(-1, 1, (8, 2))

    got = rci_forward(model, module, x, stream_rng(7, "check"))
    perm = Permutation.random(8, stream_rng(7, "check"))
    want = perm.invert(module.decode(model.predict(module.encode(perm.apply(x)))))
    npt.assert_array_equal(got, want)


def test_rci_identity_module_identity_model():
    module = CodedSmoothingModule(8, 8, identity_mode=True)
    model = _identity_model()
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (8, 2))
    for seed in range(5):
        npt.assert_array_equal(rci_forward(model, module, x, stream_rng(seed, "t")), x)


def test_rci_seeded_repeatability_and_seed_sensitivity(moons_runs, moons_data):
    model = moons_runs[0].coded_model
    module = get_module(128, 192)
    x = moons_data.test_x[:128]
    a = rci_forward(model, module, x, stream_rng(11, "r"))
    b = rci_forward(model, module, x, stream_rng(11, "r"))
    npt.assert_array_equal(a, b)
    c = rci_forward(model, module, x, stream_rng(12, "r"))
    assert np.max(np.abs(a - c)) > 0.0


def test_rci_clean_argmax_agreement(moons_runs, moons_data):
    model = moons_runs[0].coded_model
    module = get_module(128, 192)
    agree = []
    for b in range(7):
        x = moons_data.test_x[b * 128:(b + 1) * 128]
        out = rci_forward(model, module, x, stream_rng(0, "agree", b))
        std = model.predict(x)
        agree.append(np.mean(np.argmax(out, 1) == np.argmax(std, 1)))
    assert np.mean(agree) >= 0.90


# ---------------------------------------------------------------- fgsm / pgd

def test_fgsm_clips_to_box():
    model = _linear_model()
    x = np.array([[0.95, -0.2], [0.5, 0.99]])
    y = np.zeros(2, dtype=int)
    adv = fgsm(model, x, y, 0.1)
    npt.assert_allclose(adv, [[1.0, -0.1], [0.6, 1.0]], atol=1e-12)


def test_fgsm_zero_epsilon_is_identity():
    model = _linear_model()
    rng = np.random.default_rng(4)
    x = rng.uniform(-0.5, 0.5, (6, 2))
    npt.assert_array_equal(fgsm(model, x, np.zeros(6, dtype=int), 0.0), x)


def test_fgsm_increases_loss_on_linear_model():
    model = _linear_model()
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.5, 0.5, (32, 2))
    y = np.zeros(32, dtype=int)
    adv = fgsm(model, x, y, 0.1)
    assert _mean_loss(model, adv, y) >= _mean_loss(model, x, y)


def test_fgsm_is_one_step_pgd_bitwise(moons_runs, moons_data):
    model = moons_runs[0].coded_model
    x, y = moons_data.test_x[:200], moons_data.test_y[:200]
    for eps in (0.05, 0.1, 0.3):
        a = fgsm(model, x, y, eps)
        b = pgd(model, x, y, PGDSpec(epsilon=eps, steps=1, step_size=eps,
                                     random_start=False))
        npt.assert_array_equal(a, b)


def test_pgd_linf_constraint(moons_runs, moons_data):
    model = moons_runs[0].coded_model
    x, y = moons_data.test_x[:200], moons_data.test_y[:200]
    for eps, steps, start in ((0.1, 10, True), (0.3, 5, True), (0.05, 3, False)):
        spec = PGDSpec(epsilon=eps, steps=steps, random_start=start)
        adv = pgd(model, x, y, spec, rng=stream_rng(0, "s"))
        assert np.max(np.abs(adv - x)) <= eps + 1e-12
        assert adv.min() >= -1.0 and adv.max() <= 1.0


def test_attacks_leave_the_model_alone(moons_runs, moons_data):
    model = copy.deepcopy(moons_runs[0].coded_model)
    before = [(p.data.copy(), p.momentum.copy()) for p in model.parameters()]
    x, y = moons_data.test_x[:200], moons_data.test_y[:200]
    fgsm(model, x, y, 0.1)
    pgd(model, x, y, PGDSpec(epsilon=0.1, steps=3), rng=stream_rng(0, "s"))
    for p, (data, momentum) in zip(model.parameters(), before):
        assert p.grad is None
        npt.assert_array_equal(p.data, data)
        npt.assert_array_equal(p.momentum, momentum)


def test_pgd_stronger_than_fgsm(moons_runs, moons_data):
    # deterministic (no random start) iterated attack reaches at least the
    # single-step loss; holds on every canonical seed
    x, y = moons_data.test_x, moons_data.test_y
    wins = 0
    for seed in range(5):
        model = moons_runs[seed].coded_model
        lf = _mean_loss(model, fgsm(model, x, y, 0.1), y)
        lp = _mean_loss(model, pgd(model, x, y,
                                   PGDSpec(epsilon=0.1, steps=10, random_start=False)), y)
        wins += lp >= lf
    assert wins >= 4


def test_pgd_random_start_requires_rng():
    model = _linear_model()
    with pytest.raises(ValidationError):
        pgd(model, np.zeros((4, 2)), np.zeros(4, dtype=int),
            PGDSpec(epsilon=0.1, steps=2, random_start=True))


# ---------------------------------------------------------------- robust_eval

def test_clean_standard_equals_plain_accuracy(moons_runs, moons_data):
    model = moons_runs[0].coded_model
    acc = robust_eval(model, moons_data.test_x, moons_data.test_y, None, Standard())
    want = np.mean(np.argmax(model.predict(moons_data.test_x), 1) == moons_data.test_y)
    assert acc == want


def test_rci_trials_variance_small(moons_runs, moons_data):
    model = moons_runs[0].coded_model
    mode = RCI(n_prime=192, k_prime=128, seed=0)
    a1 = robust_eval(model, moons_data.test_x, moons_data.test_y, None, mode, trials=1)
    a20 = robust_eval(model, moons_data.test_x, moons_data.test_y, None, mode, trials=20)
    assert abs(a1 - a20) <= 0.03


def test_attack_never_helps_standard_inference(moons_runs, moons_data):
    x, y = moons_data.test_x, moons_data.test_y
    for seed in range(5):
        model = moons_runs[seed].coded_model
        clean = robust_eval(model, x, y, None, Standard())
        for attack in (FGSMSpec(epsilon=0.1), PGDSpec(epsilon=0.1, steps=10)):
            assert robust_eval(model, x, y, attack, Standard(), seed=seed) <= clean


def test_rci_gap_grows_with_attack_strength(moons_runs, moons_data):
    # at the canonical geometry the randomized path wins once the attack is
    # strong enough to crater the standard pass (direction of effect)
    x, y = moons_data.test_x, moons_data.test_y
    for seed in range(3):
        model = moons_runs[seed].coded_model
        mode = RCI(n_prime=192, k_prime=128, seed=seed)
        gaps = {}
        for eps in (0.1, 0.4):
            spec = PGDSpec(epsilon=eps, steps=10)
            std = robust_eval(model, x, y, spec, Standard(), seed=seed)
            rci = robust_eval(model, x, y, spec, mode, trials=20, seed=seed)
            gaps[eps] = rci - std
        assert gaps[0.4] > 0.0
        assert gaps[0.4] > gaps[0.1]


def test_validation_and_mode_types():
    with pytest.raises(ValidationError):
        RCI(n_prime=12, k_prime=3)
    with pytest.raises(ValidationError, match="attack.n_prime = 8 .*attack.k_prime = 16"):
        RCI(n_prime=8, k_prime=16)
    with pytest.raises(ValidationError):
        FGSMSpec(epsilon=0.0)
    with pytest.raises(ValidationError):
        PGDSpec(epsilon=0.1, steps=0)
