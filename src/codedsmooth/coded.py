"""Coded batch smoothing: Chebyshev point sets and the encode/compute/decode module.

A batch of K samples is identified with values of a vector-valued natural
cubic spline at K fixed abscissas (first-kind Chebyshev points alpha). The
encoder evaluates that spline at N second-kind Chebyshev points beta to
produce N coded samples, each a fixed linear combination of the whole batch.
After the wrapped function runs on the coded batch, a second spline fitted
at beta is evaluated back at alpha, yielding estimates of the function's
values on the original samples.

Both stages are precomputed dense linear operators (cached per (K, N)), so a
round trip is two matrix products and is differentiable end to end.
Operands are 2-D: one row per sample. The per-call tridiagonal route
(``spline.fit_eval``, O((N+K)*d), no operator) backs ``encode_direct`` /
``decode_direct``; its batched form ``spline.fit_eval_batch`` backs the
straggler decoder, whose surviving worker set changes from job to job, so
a cached operator would serve one call only.
"""

import threading

import numpy as np

from . import autodiff
from .autodiff import Tensor
from .errors import ShapeError, ValidationError
from .spline import MIN_POINTS, Knots, build_operator, fit_eval

# most points an encoder or decoder may have: building an operator fits the
# (N, N) identity, 128 MiB at this bound
MAX_POINTS = 4096


def chebyshev_first(k: int) -> np.ndarray:
    """Encoding abscissas alpha: cos((2i-1)*pi/2K) for i=1..K, ascending,
    strictly inside (-1, 1)."""
    if k < MIN_POINTS:
        raise ValidationError(f"need at least {MIN_POINTS} encoding points, got {k}")
    i = np.arange(1, k + 1)
    return np.cos((2 * i - 1) * np.pi / (2 * k))[::-1].copy()


def chebyshev_second(n: int) -> np.ndarray:
    """Decoding abscissas beta: cos((j-1)*pi/(N-1)) for j=1..N, ascending;
    endpoints assigned exactly -1 and 1."""
    if n < MIN_POINTS:
        raise ValidationError(f"need at least {MIN_POINTS} decoding points, got {n}")
    j = np.arange(1, n + 1)
    beta = np.cos((j - 1) * np.pi / (n - 1))[::-1].copy()
    beta[0] = -1.0
    beta[-1] = 1.0
    return beta


def _apply(mat: np.ndarray, x):
    """mat.T @ x for an (n, m) operator and n rows of x, as a tape node for a
    Tensor; either way a wrong row count raises ShapeError naming both shapes."""
    if isinstance(x, Tensor):
        return autodiff.apply_linear_operator(mat, x)
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != mat.shape[0]:
        raise ShapeError(f"operator {mat.shape} vs values {arr.shape}")
    return mat.T @ arr


class CodedSmoothingModule:
    """Precomputed encode/decode operators for a (K, N) batch geometry.

    ``identity_mode`` replaces beta with alpha (requires N == K), making both
    operators exact identities -- a plumbing check, not a useful setting.
    """

    def __init__(self, k: int, n: int, identity_mode: bool = False):
        if identity_mode and n != k:
            raise ValidationError("identity mode requires N == K")
        self.k = k
        self.n = n
        self.identity_mode = identity_mode
        self.alpha = chebyshev_first(k)
        self.beta = self.alpha.copy() if identity_mode else chebyshev_second(n)
        self.enc_op = build_operator(Knots(self.alpha), self.beta)   # (K, N)
        self.dec_op = build_operator(Knots(self.beta), self.alpha)   # (N, K)

    def encode(self, x):
        """K input rows -> N coded rows; Tensor in, Tensor out (or ndarray)."""
        return _apply(self.enc_op.matrix, x)

    def decode(self, f_coded):
        """N computed rows -> K estimate rows."""
        return _apply(self.dec_op.matrix, f_coded)

    def forward(self, x, f):
        """decode(f(encode(x))): estimates of f on the original batch.

        ``f`` must map an N-row batch to an N-row batch. Gradients flow
        through f and both (constant) operators when x is a Tensor.
        """
        coded = self.encode(x)
        out = f(coded)
        rows = out.data.shape[0] if isinstance(out, Tensor) else np.asarray(out).shape[0]
        if rows != self.n:
            raise ShapeError(f"wrapped function returned {rows} rows, expected {self.n}")
        return self.decode(out)

    def encode_direct(self, x: np.ndarray) -> np.ndarray:
        """Per-call tridiagonal encode (no operator matrix); numpy only."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.k:
            raise ShapeError(f"encode_direct: expected ({self.k}, d), got {x.shape}")
        return fit_eval(Knots(self.alpha), x, self.beta)

    def decode_direct(self, f_coded: np.ndarray) -> np.ndarray:
        x = np.asarray(f_coded, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.n:
            raise ShapeError(f"decode_direct: expected ({self.n}, d), got {x.shape}")
        return fit_eval(Knots(self.beta), x, self.alpha)

    def estimate_mse(self, x: np.ndarray, f) -> float:
        """Mean squared estimate error vs f(x), over samples and coordinates."""
        x = np.asarray(x, dtype=np.float64)
        fhat = self.forward(x, f)
        diff = fhat - f(x)
        return float(np.mean(diff * diff))


_CACHE: dict = {}
_CACHE_LOCK = threading.Lock()


def get_module(k: int, n: int) -> CodedSmoothingModule:
    """Shared module cache; construction cost is paid once per (K, N)."""
    key = (k, n)
    mod = _CACHE.get(key)
    if mod is None:
        with _CACHE_LOCK:
            mod = _CACHE.get(key)
            if mod is None:
                mod = CodedSmoothingModule(k, n)
                _CACHE[key] = mod
    return mod
