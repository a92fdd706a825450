import numpy as np
import numpy.testing as npt
import pytest

from codedsmooth.datasets import KINDS, DatasetSpec, accuracy, make_dataset, one_hot
from codedsmooth.errors import ValidationError


def test_two_moons_noise_free_closed_form():
    # n=4: two points per arc at t in {0, pi}; recompute coordinates and the
    # joint min-max scaling independently
    spec = DatasetSpec(kind="two_moons", n_train=4, n_test=2, noise=0.0, seed=0)
    data = make_dataset(spec)
    raw_train = np.array([
        [np.cos(0.0), np.sin(0.0)],          # class 0, t=0
        [np.cos(np.pi), np.sin(np.pi)],      # class 0, t=pi
        [1 - np.cos(0.0), 0.5 - np.sin(0.0)],
        [1 - np.cos(np.pi), 0.5 - np.sin(np.pi)],
    ])
    raw_test = np.array([[np.cos(0.0), np.sin(0.0)],
                         [1 - np.cos(0.0), 0.5 - np.sin(0.0)]])
    raw = np.vstack([raw_train, raw_test])
    lo, hi = raw.min(axis=0), raw.max(axis=0)
    scaled = 2 * (raw - lo) / (hi - lo) - 1
    got = np.vstack([data.train_x, data.test_x])
    # rows were shuffled; compare as sets
    assert sorted(map(tuple, np.round(got, 12))) == sorted(map(tuple, np.round(scaled, 12)))
    assert sorted(data.train_y) == [0, 0, 1, 1]


def test_deterministic_given_seed():
    spec = DatasetSpec(kind="spirals", n_train=60, n_test=30, noise=0.1, seed=9)
    a, b = make_dataset(spec), make_dataset(spec)
    npt.assert_array_equal(a.train_x, b.train_x)
    npt.assert_array_equal(a.train_y, b.train_y)
    npt.assert_array_equal(a.test_x, b.test_x)
    c = make_dataset(DatasetSpec(kind="spirals", n_train=60, n_test=30, noise=0.1, seed=10))
    assert not np.array_equal(a.train_x, c.train_x)


def test_sinusoid_law_and_range():
    spec = DatasetSpec(kind="sinusoid_regression", n_train=50, n_test=20,
                       noise=0.0, seed=3)
    data = make_dataset(spec)
    npt.assert_array_equal(data.train_y, np.sin(2 * np.pi * data.train_x))
    assert np.all(np.abs(data.train_x) <= 1.0)
    assert np.sin(2 * np.pi * 0.25) == 1.0  # the law at x = 1/4


def test_feature_scaling_exact_box():
    for kind in ("two_moons", "concentric_circles", "spirals", "gaussian8_autoencoder"):
        spec = DatasetSpec(kind=kind, n_train=80, n_test=40, noise=0.05, seed=1)
        data = make_dataset(spec)
        allx = np.vstack([data.train_x, data.test_x])
        npt.assert_allclose(allx.min(axis=0), [-1.0, -1.0], atol=1e-12)
        npt.assert_allclose(allx.max(axis=0), [1.0, 1.0], atol=1e-12)


def test_labels_and_tasks():
    moons = make_dataset(DatasetSpec(kind="two_moons", n_train=20, n_test=10, seed=0))
    assert set(moons.train_y) == {0, 1}
    spirals = make_dataset(DatasetSpec(kind="spirals", n_train=21, n_test=9, seed=0))
    assert set(spirals.train_y) == {0, 1, 2}
    auto = make_dataset(DatasetSpec(kind="gaussian8_autoencoder", n_train=30,
                                    n_test=10, noise=0.05, seed=0))
    assert auto.train_y is None and auto.test_y is None
    assert KINDS["two_moons"].task == "classification"
    assert KINDS["sinusoid_regression"].task == "regression"
    assert KINDS["gaussian8_autoencoder"].task == "autoencoder"


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_kind_table_matches_the_generators(kind):
    task, inputs, outputs = KINDS[kind]
    data = make_dataset(DatasetSpec(kind=kind, n_train=12, n_test=6, noise=0.05, seed=0))
    assert data.train_x.shape == (12, inputs) and data.test_x.shape == (6, inputs)
    if task == "classification":
        labels = np.concatenate([data.train_y, data.test_y])
        assert sorted(set(labels.tolist())) == list(range(outputs))
    elif task == "regression":
        assert data.train_y.shape == (12, outputs) and data.test_y.shape == (6, outputs)
    else:
        assert task == "autoencoder" and data.train_y is None and outputs == inputs


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError):
        DatasetSpec(kind="mnist", n_train=10, n_test=10)


def test_one_hot():
    npt.assert_array_equal(one_hot(np.array([0, 2, 1]), 3),
                           [[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def test_accuracy():
    scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
    assert accuracy(scores, np.array([0, 1, 1, 1])) == 0.75
