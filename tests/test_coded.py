import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from codedsmooth import coded, spline
from codedsmooth.autodiff import Tensor
from codedsmooth.coded import (CodedSmoothingModule, chebyshev_first,
                               chebyshev_second, get_module)
from codedsmooth.codedsim import sample_inputs
from codedsmooth.errors import ShapeError, ValidationError
from codedsmooth.spline import Knots, build_operator, fit

from conftest import fd_grad, rel_err, tsum


# ---------------------------------------------------------------- points

def test_first_kind_points_k4():
    alpha = chebyshev_first(4)
    expected = [-np.cos(np.pi / 8), -np.cos(3 * np.pi / 8),
                np.cos(3 * np.pi / 8), np.cos(np.pi / 8)]
    npt.assert_allclose(alpha, expected, atol=1e-15)
    npt.assert_allclose(alpha, [-0.92388, -0.38268, 0.38268, 0.92388], atol=1e-5)


def test_first_kind_symmetry_and_ordering():
    alpha = chebyshev_first(7)
    assert np.all(np.diff(alpha) > 0)
    npt.assert_allclose(alpha, -alpha[::-1], atol=1e-12)
    assert np.all(np.abs(alpha) < 1.0)


def test_first_kind_relaxed_k2(monkeypatch):
    # the formula below the package's floor of 4 points
    monkeypatch.setattr(coded, "MIN_POINTS", 2)
    alpha = chebyshev_first(2)
    npt.assert_allclose(alpha, [-np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-15)


def test_second_kind_points():
    npt.assert_allclose(chebyshev_second(5),
                        [-1.0, -np.sqrt(2) / 2, 0.0, np.sqrt(2) / 2, 1.0], atol=1e-12)
    npt.assert_allclose(chebyshev_second(4), [-1.0, -0.5, 0.5, 1.0], atol=1e-12)
    beta = chebyshev_second(100)
    assert beta[0] == -1.0 and beta[-1] == 1.0  # assigned, bit-exact
    assert np.all(np.diff(beta) > 0)


def test_point_count_validation():
    with pytest.raises(ValidationError):
        chebyshev_first(3)
    with pytest.raises(ValidationError):
        chebyshev_second(3)


# ---------------------------------------------------------------- module

def test_operator_shapes_and_determinism():
    m1 = CodedSmoothingModule(8, 12)
    m2 = CodedSmoothingModule(8, 12)
    assert m1.enc_op.shape == (8, 12)
    assert m1.dec_op.shape == (12, 8)
    npt.assert_array_equal(m1.enc_op, m2.enc_op)
    npt.assert_array_equal(m1.dec_op, m2.dec_op)
    assert get_module(8, 12) is get_module(8, 12)


@pytest.mark.parametrize("k", [4, 16, 128])
def test_shared_encoder_fit_equals_per_module_build(k):
    # the encoder evaluates one cached fit per K; each operator keeps the
    # bytes of a fresh fit-and-evaluate build at its own (K, N)
    for n in (k, k + 1, 3 * k // 2, 2 * k + 3):
        m = CodedSmoothingModule(k, n)
        want = build_operator(Knots(m.alpha), m.beta)
        assert m.enc_op.tobytes() == want.tobytes()
    m = CodedSmoothingModule(k, k, identity_mode=True)
    assert m.enc_op.tobytes() == build_operator(Knots(m.alpha), m.alpha).tobytes()


def test_encoder_spline_fitted_once_per_k(monkeypatch):
    # a sweep over N (sweep_mu's ramp: N = 128..192 at K = 128) fits the
    # alpha spline once; each decoder fits its own beta spline
    fitted = []
    real_fit = spline.fit

    def counting_fit(knot_sets, values):
        fitted.append(len(knot_sets[0]))
        return real_fit(knot_sets, values)

    # the decoders fit through spline.fit, the encoder through coded's import
    monkeypatch.setattr(spline, "fit", counting_fit)
    monkeypatch.setattr(coded, "fit", counting_fit)
    coded._encoder_basis.cache_clear()
    for n in range(128, 193):
        CodedSmoothingModule(128, n)
    # alpha has 128 knots; of the decoders, only N = 128 has as many
    assert fitted.count(128) == 2
    assert len(fitted) == 1 + 65


def test_encode_constant_batch():
    m = get_module(8, 16)
    c = np.array([0.3, -1.2, 4.0])
    x = np.tile(c, (8, 1))
    coded = m.encode(x)
    assert coded.shape == (16, 3)
    npt.assert_allclose(coded, np.tile(c, (16, 1)), atol=1e-10)


def test_encode_decode_linear_in_values():
    rng = np.random.default_rng(0)
    m = get_module(8, 16)
    x1, x2 = rng.uniform(-1, 1, (2, 8, 3))
    a, b = 1.7, -0.4
    npt.assert_allclose(m.encode(a * x1 + b * x2),
                        a * m.encode(x1) + b * m.encode(x2), atol=1e-9)
    f1, f2 = rng.uniform(-1, 1, (2, 16, 3))
    npt.assert_allclose(m.decode(a * f1 + b * f2),
                        a * m.decode(f1) + b * m.decode(f2), atol=1e-9)


def test_identity_mode_is_exact():
    m = CodedSmoothingModule(8, 8, identity_mode=True)
    npt.assert_array_equal(m.enc_op, np.eye(8))
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, (8, 5))
    npt.assert_array_equal(m.encode(x), x)
    npt.assert_array_equal(m.decode(x), x)

    def f(z):
        return np.tanh(2.0 * z) + z ** 2

    npt.assert_allclose(m.forward(x, f), f(x), atol=1e-10)


def test_identity_mode_requires_equal_counts():
    with pytest.raises(ValidationError):
        CodedSmoothingModule(8, 9, identity_mode=True)


def test_forward_constant_function():
    m = get_module(6, 11)
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, (6, 2))
    c = np.array([2.5, -1.0, 0.25])

    def f(z):
        return np.tile(c, (z.shape[0], 1))

    npt.assert_allclose(m.forward(x, f), np.tile(c, (6, 1)), atol=1e-10)
    assert m.estimate_mse(x, f) <= 1e-18


def test_forward_row_count_mismatch():
    m = get_module(6, 11)
    x = np.zeros((6, 2))
    with pytest.raises(ShapeError):
        m.forward(x, lambda z: z[:5])
    with pytest.raises(ShapeError):  # decode checks Tensors too
        m.forward(Tensor(x), lambda t: Tensor(t.data[:5]))
    with pytest.raises(ShapeError):
        m.encode(np.zeros((5, 2)))
    with pytest.raises(ShapeError):
        m.decode(np.zeros((6, 2)))
    with pytest.raises(ShapeError):  # operands are (rows, d)
        m.encode(np.zeros((6, 2, 3)))


def test_mse_error_halving_rate():
    # frozen from the rate experiment at the shared input stream, seed 0:
    # mse(64)/mse(128) = 67.8 for f=sin, K=16 (interpolating decoder)
    x = sample_inputs(16, 0)
    m64 = get_module(16, 64).estimate_mse(x, np.sin)
    m128 = get_module(16, 128).estimate_mse(x, np.sin)
    assert 40.0 <= m64 / m128 <= 110.0


def test_mse_decreasing_in_n():
    x = sample_inputs(16, 0)
    mses = [get_module(16, n).estimate_mse(x, np.sin) for n in (32, 64, 128, 256)]
    assert all(b < a for a, b in zip(mses, mses[1:]))


def test_round_trip_without_function_vanishes_with_n():
    # decode(encode(x)) alone: the error is pure round-trip noise and dies
    # out as the coded-sample count grows
    x = sample_inputs(16, 0)
    ident = [get_module(16, n).estimate_mse(x, lambda z: z) for n in (32, 64, 128)]
    assert all(b < a for a, b in zip(ident, ident[1:]))
    assert ident[-1] < ident[0] / 100.0


def test_toy_value_against_independent_oracle():
    # K=4, N=8, X fixed, f=exp; expected computed by the dense-solve oracle
    # below (and frozen, to pin the implementation over time)
    x = np.array([[-0.8], [-0.2], [0.3], [0.9]])
    got = get_module(4, 8).estimate_mse(x, np.exp)
    npt.assert_allclose(got, 6.98797539967562e-06, rtol=1e-9)
    npt.assert_allclose(got, _oracle_mse(x, np.exp, 4, 8), rtol=1e-9)


def test_module_matches_oracle_on_random_cases():
    rng = np.random.default_rng(3)
    for _ in range(5):
        k = int(rng.integers(4, 10))
        n = int(rng.integers(k, 3 * k))
        x = rng.uniform(-1, 1, (k, 2))
        got = get_module(k, n).forward(x, np.sin)
        want = _oracle_forward(x, np.sin, k, n)
        npt.assert_allclose(got, want, atol=1e-9)


def test_direct_paths_match_operator_paths():
    rng = np.random.default_rng(5)
    m = get_module(10, 17)
    x = rng.uniform(-1, 1, (10, 4))
    npt.assert_allclose(fit([Knots(m.alpha)], [x]).eval(m.beta)[0], m.encode(x), atol=1e-9)
    fout = rng.uniform(-1, 1, (17, 4))
    npt.assert_allclose(fit([Knots(m.beta)], [fout]).eval(m.alpha)[0], m.decode(fout),
                        atol=1e-9)


def test_operators_are_contiguous_float64_arrays():
    # encode and decode are plain matrices: (K, N) and (N, K), row-major
    k, n = 8, 13
    m = CodedSmoothingModule(k, n)
    ops = [(m.enc_op, (k, n)), (m.dec_op, (n, k)),
           (build_operator(Knots(m.alpha), m.beta), (k, n)),
           (build_operator(Knots(m.beta), m.alpha), (n, k))]
    for op, shape in ops:
        assert type(op) is np.ndarray
        assert op.dtype == np.float64 and op.shape == shape
        assert op.flags.c_contiguous


def test_module_operators_are_views_of_one_block():
    m = CodedSmoothingModule(8, 13)
    assert m.enc_op.base is not None and m.enc_op.base is m.dec_op.base
    assert m.enc_op.flags.c_contiguous and m.dec_op.flags.c_contiguous


def test_module_cache_holds_the_operators_and_little_else():
    # sweep_mu's N ramp at K = 128: N = 128..192 hold 20.31 MiB of operators,
    # and the cache keeps a module only while a caller holds it
    ns = range(128, 193)
    operators = sum(2 * 128 * n * 8 for n in ns)
    coded._encoder_basis.cache_clear()
    tracemalloc.start()
    try:
        for n in ns:
            get_module(128, n)
        dropped, peak = tracemalloc.get_traced_memory()
        held = [get_module(128, n) for n in ns]
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert dropped < 2 ** 20, dropped
    # one build's temporaries at a time: a few modules' worth, not the ramp
    assert peak < 4 * 2 ** 20, peak
    assert abs(kept - operators) < 2 ** 20, kept - operators
    assert all(get_module(128, n) is m for n, m in zip(ns, held))


def test_operator_application_identity_and_sum_column():
    y = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = coded._apply(np.eye(3), Tensor(y))
    npt.assert_array_equal(out.data, y)
    ones_col = np.ones((3, 1))
    out = coded._apply(ones_col, Tensor([[1.0], [2.0], [3.0]]))
    npt.assert_array_equal(out.data, [[6.0]])


def test_operator_application_backward_vs_fd():
    rng = np.random.default_rng(1)
    mat = rng.uniform(-1, 1, (5, 4))
    y = rng.uniform(-1, 1, (5, 3))

    def objective():
        return tsum(coded._apply(mat, Tensor(y, requires_grad=True))).data.item()

    yt = Tensor(y, requires_grad=True)
    tsum(coded._apply(mat, yt)).backward()
    assert rel_err(yt.grad, fd_grad(objective, y)) <= 1e-6


def test_forward_differentiable():
    m = get_module(6, 9)
    rng = np.random.default_rng(6)
    x = Tensor(rng.uniform(-1, 1, (6, 2)), requires_grad=True)
    out = m.forward(x, lambda t: t)  # identity network
    tsum(out).backward()
    assert x.grad is not None and x.grad.shape == (6, 2)
    # gradient of sum(dec.T @ enc.T @ x) wrt x is enc @ dec @ ones
    want = m.enc_op @ (m.dec_op @ np.ones((6, 2)))
    npt.assert_allclose(x.grad, want, atol=1e-12)


# ------------------------------------------------- independent oracle
# dense linear solve for the moments, Hermite-form evaluation: a different
# algebra route than the package's Thomas sweep + A/B/C/D form.

def _oracle_spline(t, y):
    n = len(t)
    h = np.diff(t)
    A = np.zeros((n, n))
    rhs = np.zeros((n, y.shape[1]))
    A[0, 0] = A[-1, -1] = 1.0
    for i in range(1, n - 1):
        A[i, i - 1] = h[i - 1]
        A[i, i] = 2.0 * (h[i - 1] + h[i])
        A[i, i + 1] = h[i]
        rhs[i] = 6.0 * ((y[i + 1] - y[i]) / h[i] - (y[i] - y[i - 1]) / h[i - 1])
    return np.linalg.solve(A, rhs)


def _oracle_eval(t, y, mom, q):
    h = np.diff(t)
    out = np.zeros((len(q), y.shape[1]))
    for idx, xq in enumerate(q):
        if xq <= t[0]:
            b = (y[1] - y[0]) / h[0] - h[0] * (2 * mom[0] + mom[1]) / 6.0
            out[idx] = y[0] + (xq - t[0]) * b
        elif xq >= t[-1]:
            b = (y[-1] - y[-2]) / h[-1] + h[-1] * (mom[-2] + 2 * mom[-1]) / 6.0
            out[idx] = y[-1] + (xq - t[-1]) * b
        else:
            i = int(np.searchsorted(t, xq, side="right")) - 1
            dx = xq - t[i]
            b = (y[i + 1] - y[i]) / h[i] - h[i] * (2 * mom[i] + mom[i + 1]) / 6.0
            c = mom[i] / 2.0
            d = (mom[i + 1] - mom[i]) / (6.0 * h[i])
            out[idx] = y[i] + dx * (b + dx * (c + dx * d))
    return out


def _oracle_forward(x, f, k, n):
    i = np.arange(1, k + 1)
    alpha = np.sort(np.cos((2 * i - 1) * np.pi / (2 * k)))
    j = np.arange(1, n + 1)
    beta = np.sort(np.cos((j - 1) * np.pi / (n - 1)))
    beta[0], beta[-1] = -1.0, 1.0
    coded = _oracle_eval(alpha, x, _oracle_spline(alpha, x), beta)
    fc = f(coded)
    return _oracle_eval(beta, fc, _oracle_spline(beta, fc), alpha)


def _oracle_mse(x, f, k, n):
    diff = _oracle_forward(x, f, k, n) - f(x)
    return float(np.mean(diff * diff))
