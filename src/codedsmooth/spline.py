"""Natural cubic splines for vector-valued data, plus their dense operator form.

A natural cubic spline through (t_i, y_i), i = 1..n, with y_i in R^d is the
C^2 piecewise cubic with zero second derivative at the end knots. Fitting
solves the standard tridiagonal moment system once (Thomas algorithm), with
the factorization shared across all d value columns. Evaluation anywhere in
[-1, 1] is supported: inside the knot hull it is the usual piecewise cubic;
beyond the end knots the spline continues linearly (the natural boundary
makes the minimal-curvature extension linear), which is exactly what lets a
spline with interior knots be evaluated at the domain endpoints.

``fit`` fits B knot sets of any lengths at once: each is padded to the
longest, one Thomas sweep solves them all, and ``eval`` gathers along the
batch axis. Every element takes the float operations of fitting and
evaluating its set alone, so a set's bytes do not depend on its batch.

Fit-then-eval is linear in the values, so it is also a dense (n, m) matrix:
``build_operator(t, v).T @ Y == fit([t], [Y]).eval(v)[0]`` up to roundoff.
``operator_at`` evaluates an existing identity fit at new points.
"""

from typing import NamedTuple

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


def _solve_moments(t: np.ndarray, values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Second-derivative (moment) columns of the natural spline; n >= 3 knots.

    Interior rows satisfy
        h[i-1]*M[i-1] + 2*(h[i-1]+h[i])*M[i] + h[i]*M[i+1]
            = 6*((y[i+1]-y[i])/h[i] - (y[i]-y[i-1])/h[i-1]),
    with M[0] = M[-1] = 0. One Thomas sweep; the elimination coefficients
    are shared across all value columns. Knots (n,) and values (n, d) solve
    one system with scalar coefficients; knots (n, B) and values (n, d, B)
    solve one per batch index, each element by the scalar solve's float
    operations. Set b's rows from ``lengths[b] - 1`` on are padding: the
    forward sweep reaches them only after the set's real rows, and the
    back-substitution forces them to exact zeros.
    """
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
    # row r pads set b when r >= lengths[b] - 1; no set pads a row below first_pad
    padded = np.arange(n)[:, None] >= lengths - 1
    first_pad = int(lengths.min()) - 1
    moments[m] = dp[m - 1]
    for r in range(m, 0, -1):
        if r < m:
            moments[r] = dp[r - 1] - cp[r - 1] * moments[r + 1]
        if r >= first_pad:
            np.copyto(moments[r], 0.0, where=padded[r])
    return moments


class NaturalCubicSplines(NamedTuple):
    """B fitted vector-valued natural cubic splines, padded to one length.

    ``knots`` (B, n), ``values`` and ``moments`` (B, n, d) hold set b's
    knots, values and second derivatives in their first ``lengths[b]`` rows.
    """

    knots: np.ndarray
    values: np.ndarray
    moments: np.ndarray
    lengths: np.ndarray

    def eval(self, points) -> np.ndarray:
        """(B, m, d) values of every spline at m points in [-1, 1].

        Points beyond a set's end knots (but inside [-1, 1]) use the linear
        natural extension; points outside [-1, 1] raise. One interval search
        per set; every other step gathers along the batch axis, by the float
        operations of the one-spline formula.
        """
        t, y, mom, lengths = self
        q = np.asarray(points, dtype=np.float64)
        if q.ndim != 1:
            raise ValidationError("evaluation points must be a 1-d sequence")
        if q.size and (q.min() < -1.0 or q.max() > 1.0):
            raise ValidationError("evaluation points must lie in [-1, 1]")
        sets = np.arange(len(t))[:, None]
        idx = np.empty((len(t), len(q)), dtype=np.intp)
        for b in range(len(t)):
            idx[b] = np.searchsorted(t[b, :lengths[b]], q, side="right")
        idx -= 1
        np.clip(idx, 0, (lengths - 2)[:, None], out=idx)
        tl, tr = t[sets, idx], t[sets, idx + 1]
        h = tr - tl
        a = (tr - q) / h
        b = (q - tl) / h
        cc = (a * a * a - a) * (h * h) / 6.0
        dd = (b * b * b - b) * (h * h) / 6.0
        out = (a[..., None] * y[sets, idx] + b[..., None] * y[sets, idx + 1]
               + cc[..., None] * mom[sets, idx] + dd[..., None] * mom[sets, idx + 1])

        # beyond the end knots: the linear extension, written only where needed
        below = q < t[:, :1]
        if np.any(below):
            g = t[:, 1] - t[:, 0]
            d0 = ((y[:, 1] - y[:, 0]) / g[:, None]
                  - (g / 6.0)[:, None] * (2.0 * mom[:, 0] + mom[:, 1]))
            rows, cols = np.nonzero(below)
            out[rows, cols] = y[rows, 0] + (q[cols] - t[rows, 0])[:, None] * d0[rows]
        every, end = sets[:, 0], lengths - 1
        tn = t[every, end]
        above = q > tn[:, None]
        if np.any(above):
            hn = tn - t[every, end - 1]
            dn = ((y[every, end] - y[every, end - 1]) / hn[:, None]
                  + (hn / 6.0)[:, None] * (mom[every, end - 1] + 2.0 * mom[every, end]))
            rows, cols = np.nonzero(above)
            out[rows, cols] = y[rows, end[rows]] + (q[cols] - tn[rows])[:, None] * dn[rows]
        return out


def fit(knot_sets, values) -> NaturalCubicSplines:
    """The natural cubic splines through B knot sets of any lengths, one
    (n_b, d) block of ``values`` per set.

    Each set is padded to the longest, with knots that continue past 1 and
    zero values, and one Thomas sweep fits them all. A single set is not
    padded and solves with scalar coefficients: the same bytes, sooner.
    """
    blocks = [np.asarray(v, dtype=np.float64) for v in values]
    lengths = np.array([len(k) for k in knot_sets], dtype=np.intp)
    if (not len(lengths) or len(blocks) != len(lengths)
            or any(v.ndim != 2 or v.shape != (n, blocks[0].shape[1])
                   for v, n in zip(blocks, lengths))):
        raise ShapeError(f"{lengths.tolist()} knots per set but value blocks of shapes "
                         f"{[v.shape for v in blocks]}")
    if len(blocks) == 1:
        t, y = knot_sets[0].values[None], blocks[0][None]
        return NaturalCubicSplines(t, y, _solve_moments(t[0], y[0], lengths)[None], lengths)
    n = int(lengths.max())
    t = np.empty((len(lengths), n))
    t[:] = np.arange(2.0, n + 2.0)
    y = np.zeros((len(lengths), n, blocks[0].shape[1]))
    for b, (knots, block) in enumerate(zip(knot_sets, blocks)):
        t[b, :lengths[b]] = knots.values
        y[b, :lengths[b]] = block
    moments = _solve_moments(t.T, np.moveaxis(y, 0, -1), lengths)
    return NaturalCubicSplines(t, y, np.moveaxis(moments, -1, 0), lengths)


def operator_at(basis: NaturalCubicSplines, eval_points) -> np.ndarray:
    """The (n, m) operator of set 0 of ``fit([knots], [np.eye(n)])`` at
    eval_points: the transpose of its (m, n) response table. It is allocated
    before the evaluation's temporaries, so the freed temporaries leave no
    holes between the operators a cache keeps.
    """
    pts = np.asarray(eval_points, dtype=np.float64)
    out = np.empty((basis.knots.shape[1], len(pts)))
    out[...] = basis.eval(pts)[0].T
    return out


def build_operator(knots: Knots, eval_points) -> np.ndarray:
    """``operator_at`` of a fresh identity fit, with the output allocated
    before the fit too (a fit made first adds about 2 MB of peak RSS to a
    4-cell sweep)."""
    pts = np.asarray(eval_points, dtype=np.float64)
    out = np.empty((len(knots), len(pts)))
    out[...] = fit([knots], [np.eye(len(knots))]).eval(pts)[0].T
    return out
