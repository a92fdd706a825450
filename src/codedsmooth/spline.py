"""Natural cubic splines for vector-valued data, plus their dense operator form.

A natural cubic spline through (t_i, y_i), i = 1..n, with y_i in R^d is the
C^2 piecewise cubic with zero second derivative at the end knots. Fitting
solves the standard tridiagonal moment system once (Thomas algorithm), with
the factorization shared across all d value columns; ``fit_eval_batch`` runs
one sweep for B knot sets of equal length. Evaluation anywhere in
[-1, 1] is supported: inside the knot hull it is the usual piecewise cubic;
beyond the end knots the spline continues linearly (the natural boundary
makes the minimal-curvature extension linear), which is exactly what lets a
spline with interior knots be evaluated at the domain endpoints.

Because fit-then-eval is linear in the values, the whole map is also
available as a dense (n, m) matrix: ``build_operator(t, v)`` materializes
it, and ``fit(t, Y).eval(v) == build_operator(t, v).T @ Y`` up to roundoff.
``operator_at`` evaluates an existing fit of the identity, so one fit can
serve several point sets.
"""

import numpy as np

from .errors import ShapeError, ValidationError

_MIN_GAP = 1e-12

# fewest knots a spline may have: a well-posed moment system with margin
# (3 is the mathematical floor for a nontrivial natural spline, 2
# degenerates to a line)
MIN_POINTS = 4


class Knots:
    """Strictly increasing spline abscissas within [-1, 1], at least MIN_POINTS."""

    __slots__ = ("values",)

    def __init__(self, values):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 1:
            raise ValidationError("knots must be a 1-d sequence")
        if len(v) < MIN_POINTS:
            raise ValidationError(f"need at least {MIN_POINTS} knots, got {len(v)}")
        if np.any(v < -1.0) or np.any(v > 1.0):
            raise ValidationError("knots must lie in [-1, 1]")
        if np.any(np.diff(v) < _MIN_GAP):
            raise ValidationError("knots must be strictly increasing (min gap 1e-12)")
        self.values = v

    def __len__(self):
        return len(self.values)


def _solve_moments(t: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Second-derivative (moment) columns of the natural spline.

    Interior rows satisfy
        h[i-1]*M[i-1] + 2*(h[i-1]+h[i])*M[i] + h[i]*M[i+1]
            = 6*((y[i+1]-y[i])/h[i] - (y[i]-y[i-1])/h[i-1]),
    with M[0] = M[-1] = 0. One Thomas sweep; the elimination coefficients
    are shared across all value columns. Knots (n, *batch) and values
    (n, d, *batch) solve one system per batch index in the same sweep, each
    element by the float operations of the unbatched (scalar) solve.
    """
    n = values.shape[0]
    moments = np.zeros(values.shape)
    if n < 3:
        return moments
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
    moments[m] = dp[m - 1]
    for i in range(m - 2, -1, -1):
        moments[i + 1] = dp[i] - cp[i] * moments[i + 2]
    return moments


class NaturalCubicSpline:
    """A fitted vector-valued natural cubic spline."""

    __slots__ = ("knots", "values", "second_derivatives")

    def __init__(self, knots: Knots, values: np.ndarray, second_derivatives: np.ndarray):
        self.knots = knots
        self.values = values
        self.second_derivatives = second_derivatives

    def eval(self, points) -> np.ndarray:
        """Evaluate at points in [-1, 1]; returns an (m, d) array.

        Points beyond the end knots (but inside [-1, 1]) use the linear
        natural extension; points outside [-1, 1] are a caller bug and
        raise.
        """
        q = np.asarray(points, dtype=np.float64)
        if q.ndim != 1:
            raise ValidationError("evaluation points must be a 1-d sequence")
        if q.size and (q.min() < -1.0 or q.max() > 1.0):
            raise ValidationError("evaluation points must lie in [-1, 1]")
        t = self.knots.values
        y = self.values
        mom = self.second_derivatives
        n = len(t)

        idx = np.clip(np.searchsorted(t, q, side="right") - 1, 0, n - 2)
        tl, tr = t[idx], t[idx + 1]
        h = tr - tl
        a = (tr - q) / h
        b = (q - tl) / h
        cc = (a * a * a - a) * (h * h) / 6.0
        dd = (b * b * b - b) * (h * h) / 6.0
        out = (a[:, None] * y[idx] + b[:, None] * y[idx + 1]
               + cc[:, None] * mom[idx] + dd[:, None] * mom[idx + 1])

        below = q < t[0]
        above = q > t[-1]
        if np.any(below):
            d0 = (y[1] - y[0]) / (t[1] - t[0]) - (t[1] - t[0]) / 6.0 * (2.0 * mom[0] + mom[1])
            out[below] = y[0] + (q[below, None] - t[0]) * d0
        if np.any(above):
            hn = t[-1] - t[-2]
            dn = (y[-1] - y[-2]) / hn + hn / 6.0 * (mom[-2] + 2.0 * mom[-1])
            out[above] = y[-1] + (q[above, None] - t[-1]) * dn
        return out


def fit(knots: Knots, values) -> NaturalCubicSpline:
    """Fit the natural cubic spline through (knots, values[n x d])."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 2:
        raise ShapeError(f"values must be 2-d (n x d), got shape {vals.shape}")
    if vals.shape[0] != len(knots):
        raise ShapeError(f"{len(knots)} knots but {vals.shape[0]} value rows")
    return NaturalCubicSpline(knots, vals, _solve_moments(knots.values, vals))


def operator_at(basis: NaturalCubicSpline, eval_points) -> np.ndarray:
    """The (n, m) operator of an identity fit, ``fit(knots, np.eye(n))``, at
    eval_points: ``operator.T @ Y == fit(knots, Y).eval(eval_points)``.

    Evaluating the fit gives the (m, n) response table; its transpose is
    the operator. It is allocated before the evaluation's temporaries, so
    the freed temporaries leave no holes between the operators a cache
    keeps.
    """
    pts = np.asarray(eval_points, dtype=np.float64)
    out = np.empty((len(basis.knots), len(pts)))
    out[...] = basis.eval(pts).T
    return out


def build_operator(knots: Knots, eval_points) -> np.ndarray:
    """``operator_at`` of a fresh identity fit, with the output allocated
    before the fit too: a fit made first leaves its freed arrays as holes
    below the operator (about 3 MB more peak RSS in a 4-cell sweep)."""
    pts = np.asarray(eval_points, dtype=np.float64)
    out = np.empty((len(knots), len(pts)))
    out[...] = fit(knots, np.eye(len(knots))).eval(pts).T
    return out


def fit_eval_batch(knot_sets, values, points) -> np.ndarray:
    """``fit(knots, values).eval(points)`` for B knot sets of one length,
    fitted in one Thomas sweep.

    ``values`` is (B, n, d), one block per set; the (B, m, d) result holds
    exactly the bytes that fit-and-evaluate gives each set alone.
    """
    vals = np.asarray(values, dtype=np.float64)
    lengths = [len(k) for k in knot_sets]
    if vals.ndim != 3 or not lengths or lengths != [vals.shape[1]] * vals.shape[0]:
        raise ShapeError(f"{lengths} knots per set but values of shape {vals.shape}")
    t = np.stack([k.values for k in knot_sets], axis=-1)
    moments = _solve_moments(t, np.moveaxis(vals, 0, -1))
    return np.stack([NaturalCubicSpline(k, v, moments[..., b]).eval(points)
                     for b, (k, v) in enumerate(zip(knot_sets, vals))])
