import numpy as np
import numpy.testing as npt
import pytest

from codedsmooth import spline
from codedsmooth.errors import ShapeError, ValidationError
from codedsmooth.coded import chebyshev_first, chebyshev_second
from codedsmooth.spline import Knots, build_operator, fit


def random_knots(rng, n):
    vals = np.sort(rng.uniform(-1, 1, n))
    while np.min(np.diff(vals)) < 1e-6:
        vals = np.sort(rng.uniform(-1, 1, n))
    return Knots(vals)


def test_hand_solved_three_knot_case(monkeypatch):
    # knots (-1, 0, 1), values (1, 0, 1): interior moment 3, s(0.5) = 0.3125;
    # three knots lie below the package's floor, so relax it
    monkeypatch.setattr(spline, "MIN_POINTS", 3)
    kn = Knots([-1.0, 0.0, 1.0])
    s = fit([kn], [np.array([[1.0], [0.0], [1.0]])])
    npt.assert_allclose(s.moments[0].ravel(), [0.0, 3.0, 0.0], atol=1e-14)
    npt.assert_allclose(s.eval([0.5])[0].ravel(), [0.3125], atol=1e-14)
    npt.assert_allclose(s.eval([-0.5])[0].ravel(), [0.3125], atol=1e-14)  # symmetric


def test_affine_data_reproduced_exactly():
    rng = np.random.default_rng(0)
    for _ in range(20):
        kn = random_knots(rng, rng.integers(4, 12))
        a, b = rng.uniform(-2, 2, 2)
        vals = (a * kn.values + b)[:, None]
        s = fit([kn], [vals])
        pts = rng.uniform(-1, 1, 100)
        npt.assert_allclose(s.eval(pts)[0].ravel(), a * pts + b, atol=1e-10)
        npt.assert_allclose(s.moments[0], 0.0, atol=1e-10)


def test_interpolation_exact_at_knots():
    rng = np.random.default_rng(1)
    for _ in range(20):
        kn = random_knots(rng, rng.integers(4, 30))
        vals = rng.uniform(-5, 5, (len(kn), rng.integers(1, 6)))
        s = fit([kn], [vals])
        assert np.max(np.abs(s.eval(kn.values)[0] - vals)) <= 1e-10


def test_natural_boundary_moments_exactly_zero():
    rng = np.random.default_rng(2)
    kn = random_knots(rng, 9)
    s = fit([kn], [rng.uniform(-1, 1, (9, 3))])
    assert np.all(s.moments[0, 0] == 0.0)
    assert np.all(s.moments[0, -1] == 0.0)


def test_fit_eval_linear_in_values():
    rng = np.random.default_rng(3)
    kn = random_knots(rng, 8)
    y1 = rng.uniform(-1, 1, (8, 4))
    y2 = rng.uniform(-1, 1, (8, 4))
    pts = rng.uniform(-1, 1, 15)
    a, b = 0.7, -1.3
    lhs = fit([kn], [a * y1 + b * y2]).eval(pts)[0]
    rhs = a * fit([kn], [y1]).eval(pts)[0] + b * fit([kn], [y2]).eval(pts)[0]
    npt.assert_allclose(lhs, rhs, atol=1e-9)


def test_operator_at_knots_is_identity():
    kn = Knots(np.linspace(-1, 1, 6))
    op = build_operator(kn, kn.values)
    npt.assert_array_equal(op, np.eye(6))


def test_operator_rows_reproduce_constants():
    rng = np.random.default_rng(4)
    kn = random_knots(rng, 7)
    pts = rng.uniform(-1, 1, 11)
    op = build_operator(kn, pts)
    ones = np.ones((7, 1))
    npt.assert_allclose(op.T @ ones, np.ones((11, 1)), atol=1e-10)


def test_operator_path_equals_direct_path():
    rng = np.random.default_rng(5)
    kn = random_knots(rng, 8)
    pts = rng.uniform(-1, 1, 13)
    y = rng.uniform(-3, 3, (8, 5))
    op = build_operator(kn, pts)
    npt.assert_allclose(op.T @ y, fit([kn], [y]).eval(pts)[0], atol=1e-9)

    for _ in range(100):
        kn = random_knots(rng, rng.integers(4, 12))
        pts = rng.uniform(-1, 1, rng.integers(1, 20))
        y = rng.uniform(-3, 3, (len(kn), rng.integers(1, 4)))
        op = build_operator(kn, pts)
        npt.assert_allclose(op.T @ y, fit([kn], [y]).eval(pts)[0], atol=1e-9)


@pytest.mark.parametrize("sets", [1, 4, 10])
@pytest.mark.parametrize("d", [1, 3])
def test_batched_fit_eval_equals_fit_eval_per_set(sets, d):
    # one Thomas sweep over stacked systems, byte for byte the per-set path;
    # the points reach past the end knots, so the linear extension runs too
    rng = np.random.default_rng(10 * sets + d)
    knot_sets = [random_knots(rng, 9) for _ in range(sets)]
    values = rng.uniform(-3, 3, (sets, 9, d))
    pts = np.concatenate([[-1.0, 1.0], rng.uniform(-1, 1, 14)])
    got = fit(knot_sets, values).eval(pts)
    want = np.stack([fit([kn], [y]).eval(pts)[0] for kn, y in zip(knot_sets, values)])
    assert got.shape == (sets, 16, d)
    assert np.array_equal(got, want)


def _former_eval(t, y, mom, points):
    """The one-spline evaluation formula before evaluation was batched, on one
    set's knots (n,), values and moments (n, d)."""
    q = np.asarray(points, dtype=np.float64)
    idx = np.clip(np.searchsorted(t, q, side="right") - 1, 0, len(t) - 2)
    tl, tr = t[idx], t[idx + 1]
    h = tr - tl
    a = (tr - q) / h
    b = (q - tl) / h
    cc = (a * a * a - a) * (h * h) / 6.0
    dd = (b * b * b - b) * (h * h) / 6.0
    out = (a[:, None] * y[idx] + b[:, None] * y[idx + 1]
           + cc[:, None] * mom[idx] + dd[:, None] * mom[idx + 1])
    below, above = q < t[0], q > t[-1]
    if np.any(below):
        d0 = (y[1] - y[0]) / (t[1] - t[0]) - (t[1] - t[0]) / 6.0 * (2.0 * mom[0] + mom[1])
        out[below] = y[0] + (q[below, None] - t[0]) * d0
    if np.any(above):
        hn = t[-1] - t[-2]
        dn = (y[-1] - y[-2]) / hn + hn / 6.0 * (mom[-2] + 2.0 * mom[-1])
        out[above] = y[-1] + (q[above, None] - t[-1]) * dn
    return out


@pytest.mark.parametrize("d", [1, 3, 192])
def test_padded_batch_equals_each_set_alone(d):
    # sets of unequal length, padded to the longest, each give the bytes of
    # fitting and evaluating it alone; the sets that lose their first or
    # last knot put points beyond their hull, so both linear extensions run.
    # d = 192 adds the identity fit of a 192-point decoder, evaluated at 128
    # batch abscissas: the operator that sweep_mu's ramp builds at N = 192
    rng = np.random.default_rng(20 + d)
    full = np.linspace(-1.0, 1.0, 13)
    knot_sets = [Knots(full), Knots(full[1:]), Knots(full[:-1]), Knots(full[2:-3]),
                 random_knots(rng, 4), random_knots(rng, 30), random_knots(rng, 7)]
    blocks = [rng.uniform(-3, 3, (len(kn), d)) for kn in knot_sets]
    pts = np.concatenate([[-1.0, 1.0], rng.uniform(-1, 1, 14)])
    if d == 192:
        knot_sets.append(Knots(chebyshev_second(192)))
        blocks.append(np.eye(192))
        pts = np.concatenate([pts, chebyshev_first(128)])
    got = fit(knot_sets, blocks).eval(pts)
    assert got.shape == (len(knot_sets), len(pts), d)
    for b, (kn, y) in enumerate(zip(knot_sets, blocks)):
        alone = fit([kn], [y])
        assert got[b].tobytes() == alone.eval(pts)[0].tobytes()
        assert got[b].tobytes() == _former_eval(kn.values, y, alone.moments[0], pts).tobytes()


def test_end_continuation_bytes_match_one_sided_formulas():
    # one rule continues a spline past either end knot; below the first and
    # above the last it keeps the bytes of _former_eval's per-end formulas,
    # for one set alone and in a padded batch whose sets end at different
    # lengths and places. Column 2 repeats each end value, so its end
    # differences are exact zeros
    rng = np.random.default_rng(31)
    spans = [(-0.9, 0.8, 4), (-0.5, 0.3, 6), (-0.95, -0.1, 9), (0.1, 0.9, 13)]
    knot_sets = [Knots(np.linspace(lo, hi, n)) for lo, hi, n in spans]
    blocks = [rng.uniform(-3, 3, (n, 3)) for _, _, n in spans]
    for y in blocks:
        y[1, 2], y[-1, 2] = y[0, 2], y[-2, 2]
    pts = np.concatenate([[-1.0, 1.0], [lo - 0.5 * (lo + 1.0) for lo, _, _ in spans],
                          [hi + 0.5 * (1.0 - hi) for _, hi, _ in spans]])
    batch = fit(knot_sets, blocks)
    got = batch.eval(pts)
    for b, (kn, y) in enumerate(zip(knot_sets, blocks)):
        beyond = (pts < kn.values[0]) | (pts > kn.values[-1])
        assert np.any(pts < kn.values[0]) and np.any(pts > kn.values[-1])
        q = pts[beyond]
        want = _former_eval(kn.values, y, batch.moments[b, :len(kn)], q).tobytes()
        assert got[b, beyond].tobytes() == want
        alone = fit([kn], [y])
        assert alone.eval(q)[0].tobytes() == _former_eval(kn.values, y, alone.moments[0], q).tobytes()


def _special_row_moments(t, values, lengths):
    """The moment solve with its end rows written apart: the forward sweep
    divides its first row through, and the back-substitution copies its last,
    as the spline solved before one rule took every row."""
    n = values.shape[0]
    moments = np.zeros(values.shape)
    h = np.diff(t, axis=0)
    rhs = 6.0 * ((values[2:] - values[1:-1]) / h[1:, None]
                 - (values[1:-1] - values[:-2]) / h[:-1, None])
    lower = h[:-1]
    diag = 2.0 * (h[:-1] + h[1:])
    upper = h[1:]
    m = n - 2
    cp = np.empty(upper.shape)
    dp = np.empty(rhs.shape)
    cp[0] = upper[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, m):
        denom = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / denom
        dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / denom
    padded = np.arange(n)[:, None] >= lengths - 1
    first_pad = int(lengths.min()) - 1
    moments[m] = dp[m - 1]
    for r in range(m, 0, -1):
        if r < m:
            moments[r] = dp[r - 1] - cp[r - 1] * moments[r + 1]
        if r >= first_pad:
            np.copyto(moments[r], 0.0, where=padded[r])
    return moments


def test_moment_solve_bytes_match_special_end_rows():
    # three knots: the one interior row is both the sweep's first and the
    # back-substitution's last. Values (0, 0, -0.0) give a -0.0 right-hand
    # side, which the single rule must keep
    t = np.array([-1.0, 0.0, 1.0])
    values = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, -0.0]])
    lengths = np.array([3])
    got = spline._solve_moments(t, values, lengths)
    assert got.tobytes() == _special_row_moments(t, values, lengths).tobytes()
    assert got[1, 0] == 3.0 and np.signbit(got[1, 1])
    # a padded batch: every set's rows, real and padding, by the same bytes
    rng = np.random.default_rng(32)
    knot_sets = [random_knots(rng, n) for n in (4, 11, 7, 5)]
    s = fit(knot_sets, [rng.uniform(-3, 3, (len(kn), 3)) for kn in knot_sets])
    t, y = s.knots.T, np.moveaxis(s.values, 0, -1)
    got = spline._solve_moments(t, y, s.lengths)
    assert got.tobytes() == _special_row_moments(t, y, s.lengths).tobytes()


def test_batched_fit_eval_shape_errors():
    rng = np.random.default_rng(6)
    knot_sets = [random_knots(rng, 6), random_knots(rng, 6)]
    with pytest.raises(ShapeError):
        fit(knot_sets, np.zeros((3, 6, 1)))  # 2 sets, 3 blocks
    with pytest.raises(ShapeError):
        fit(knot_sets, np.zeros((6, 1)))  # no batch axis
    with pytest.raises(ShapeError):
        fit([knot_sets[0], random_knots(rng, 7)], np.zeros((2, 6, 1)))
    with pytest.raises(ShapeError):
        fit([], np.zeros((0, 6, 1)))  # no set at all


def test_linear_extension_beyond_end_knots():
    # natural spline continues linearly outside the knot hull: an affine fit
    # evaluated at the domain endpoints stays affine
    kn = Knots([-0.9, -0.3, 0.2, 0.8])
    vals = (2.0 * kn.values - 0.5)[:, None]
    s = fit([kn], [vals])
    npt.assert_allclose(s.eval([-1.0, 1.0])[0].ravel(),
                        [2.0 * -1.0 - 0.5, 2.0 * 1.0 - 0.5], atol=1e-12)
    # continuity at the hull edge
    eps = 1e-9
    left, edge = s.eval([0.8 - eps, 0.8])[0].ravel(), s.eval([0.8 + eps])[0].ravel()
    assert abs(left[1] - edge[0]) < 1e-7


def test_validation_errors():
    with pytest.raises(ValidationError):
        Knots([0.0, -0.5, 0.5, 1.0])  # not increasing
    with pytest.raises(ValidationError):
        Knots([-0.5, 0.0, 0.5])  # too few by default
    with pytest.raises(ValidationError):
        Knots([-2.0, 0.0, 0.5, 1.0])  # outside [-1, 1]
    with pytest.raises(ValidationError):
        Knots([-0.5, -0.5 + 1e-13, 0.5, 1.0])  # near-duplicate
    kn = Knots(np.linspace(-1, 1, 5))
    with pytest.raises(ValidationError):
        fit([kn], [np.zeros((5, 1))]).eval([1.5])  # outside the domain
    with pytest.raises(Exception):
        fit([kn], [np.zeros((4, 1))])  # row mismatch
