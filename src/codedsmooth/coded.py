"""Coded batch smoothing: Chebyshev point sets and the encode/compute/decode module.

A batch of K samples is identified with values of a vector-valued natural
cubic spline at K fixed abscissas (first-kind Chebyshev points alpha). The
encoder evaluates that spline at N second-kind Chebyshev points beta to
produce N coded samples, each a fixed linear combination of the whole batch.
After the wrapped function runs on the coded batch, a second spline fitted
at beta is evaluated back at alpha, yielding estimates of the function's
values on the original samples.

Both stages are precomputed dense linear operators, plain (K, N) and
(N, K) arrays, the two row-major halves of one block per module, which
lives while a caller holds it; the encoder's spline fit is shared by every
N. A round trip is two matrix products and is differentiable end to end.
Operands are 2-D: one row per sample. The straggler decoder builds no
operator: its surviving worker set changes from job to job, so a cached
operator would serve one job only.
``codedsim`` instead fits the survivors of a whole grid in one ``spline.fit``
call and evaluates them at alpha, O((N+K)*d) per job.
"""

import functools
import weakref

import numpy as np

from .autodiff import Tensor, mse, node
from .errors import ShapeError, ValidationError
from .spline import MIN_POINTS, Knots, build_operator, fit

# most points an encoder or decoder may have: building an operator fits the
# (N, N) identity, 128 MiB at this bound
MAX_POINTS = 4096


def chebyshev_first(k: int) -> np.ndarray:
    """Encoding abscissas alpha: cos((2i-1)*pi/2K) for i=1..K, ascending,
    strictly inside (-1, 1)."""
    if not MIN_POINTS <= k <= MAX_POINTS:
        raise ValidationError(f"need {MIN_POINTS} to {MAX_POINTS} encoding points, got {k}")
    i = np.arange(1, k + 1)
    return np.cos((2 * i - 1) * np.pi / (2 * k))[::-1].copy()


def chebyshev_second(n: int) -> np.ndarray:
    """Decoding abscissas beta: cos((j-1)*pi/(N-1)) for j=1..N, ascending;
    endpoints assigned exactly -1 and 1."""
    if not MIN_POINTS <= n <= MAX_POINTS:
        raise ValidationError(f"need {MIN_POINTS} to {MAX_POINTS} decoding points, got {n}")
    j = np.arange(1, n + 1)
    beta = np.cos((j - 1) * np.pi / (n - 1))[::-1].copy()
    beta[0] = -1.0
    beta[-1] = 1.0
    return beta


@functools.lru_cache(maxsize=None)
def _encoder_basis(k: int):
    """The identity fit at alpha: every encoder of K points evaluates it, so
    it is fitted once per K, not once per (K, N)."""
    return fit([Knots(chebyshev_first(k))], [np.eye(k)])


def _apply(mat: np.ndarray, x):
    """mat.T @ x for an (n, m) operator and n rows of x; a wrong row count
    raises ShapeError naming both shapes. For a Tensor it is a tape node; the
    operator is a constant of the graph, so the gradient goes to x as mat @ g."""
    arr = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != mat.shape[0]:
        raise ShapeError(f"operator {mat.shape} vs values {arr.shape}")
    if isinstance(x, Tensor):
        return node(mat.T @ arr, (x,), lambda g: (mat @ g,))
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
        # one block for both, allocated before the builds: allocated after, it lands above their
        # freed temporaries, and the benchmark's mu sweep takes 46k minor page faults, not 27k
        block = np.empty(2 * k * n)
        self.enc_op = block[:k * n].reshape(k, n)   # (K, N)
        self.dec_op = block[k * n:].reshape(n, k)   # (N, K)
        self.enc_op[...] = _encoder_basis(k).eval(self.beta)[0].T
        self.dec_op[...] = build_operator(Knots(self.beta), self.alpha)

    def encode(self, x):
        """K input rows -> N coded rows; Tensor in, Tensor out (or ndarray)."""
        return _apply(self.enc_op, x)

    def decode(self, f_coded):
        """N computed rows -> K estimate rows."""
        return _apply(self.dec_op, f_coded)

    def forward(self, x, f):
        """decode(f(encode(x))): estimates of f on the original batch.

        ``f`` must map an N-row batch to an N-row batch (``decode`` raises
        ShapeError otherwise). Gradients flow through f and both (constant)
        operators when x is a Tensor.
        """
        return self.decode(f(self.encode(x)))

    def estimate_mse(self, x: np.ndarray, f) -> float:
        """Mean squared estimate error vs f(x), over samples and coordinates."""
        x = np.asarray(x, dtype=np.float64)
        return float(mse(self.forward(x, f), f(x))[0])


_live = weakref.WeakValueDictionary()  # (K, N) -> the module callers hold


def get_module(k: int, n: int) -> CodedSmoothingModule:
    """The (K, N) module some caller holds, or a new one; a module is freed
    when its last holder drops it, so a caller that reuses one holds it.

    Callers look it up as ``coded.get_module`` when they call it, so a
    replacement set here (a test's counter, a tracer) reaches them all."""
    module = _live.get((k, n))
    if module is None:
        module = _live[k, n] = CodedSmoothingModule(k, n)
    return module
