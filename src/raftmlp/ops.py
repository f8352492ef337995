"""Neural primitives: linear, layer norm, GELU, pooling, softmax, bicubic.

Every op validates shapes, produces finite outputs, and registers a
vector-Jacobian product on the active trace so the autograd module can
differentiate through it. The forward and VJP arithmetic of ``linear`` and
``layer_norm`` lives in plain-array helpers, ``_linear_forward`` / ``_linear_vjp``
and ``_layer_norm_forward`` / ``_layer_norm_vjp``, which ``blocks.mixing_mlp``
shares, so each formula is written once; layer norm's channel sums are per-row
``np.einsum`` reductions. ``bicubic_resize`` resamples one axis at a time: one
gather per tap, and the four weighted taps summed in a fixed order. ``_resize_grid``
runs the same arithmetic on a [c, h, w] tensor or on a [h * w, c] token tensor
in its own layout, and skips an axis whose plan is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np
from scipy.special import erf

from . import _tape
from .tensor import ShapeError, Tensor, seq_sum

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


@dataclass(frozen=True)
class LinearParams:
    """Affine map: weight [d_in, d_out] plus bias [d_out]."""

    weight: Tensor
    bias: Tensor

    def __post_init__(self):
        if self.weight.rank != 2 or self.bias.rank != 1:
            raise ShapeError(
                f"LinearParams needs weight rank 2 and bias rank 1, "
                f"got {self.weight.shape} and {self.bias.shape}"
            )
        if self.weight.shape[1] != self.bias.shape[0]:
            raise ShapeError(
                f"LinearParams: bias length {self.bias.shape[0]} != "
                f"weight columns {self.weight.shape[1]}"
            )
        if self.weight.dtype != self.bias.dtype:
            raise ShapeError("LinearParams: weight/bias dtype mismatch")

    @property
    def d_in(self) -> int:
        return self.weight.shape[0]

    @property
    def d_out(self) -> int:
        return self.weight.shape[1]


@dataclass(frozen=True)
class LayerNormParams:
    """Per-channel affine normalization parameters."""

    gamma: Tensor
    beta: Tensor
    eps: float = 1e-6

    def __post_init__(self):
        if self.gamma.rank != 1 or self.gamma.shape != self.beta.shape:
            raise ShapeError(
                f"LayerNormParams: gamma/beta must be equal-length vectors, "
                f"got {self.gamma.shape} and {self.beta.shape}"
            )
        if self.gamma.dtype != self.beta.dtype:
            raise ShapeError("LayerNormParams: gamma/beta dtype mismatch")
        eps = self.eps
        if isinstance(eps, bool) or not isinstance(eps, Real) or not 0 < eps < np.inf:
            raise ValueError(f"LayerNormParams: eps must be a finite real > 0, got {eps!r}")

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]


def _check_linear(shape: tuple, dtype: str, p: LinearParams) -> None:
    if len(shape) < 1 or shape[-1] != p.d_in:
        raise ShapeError(f"linear: input shape {shape} does not end in d_in={p.d_in}")
    if dtype != p.weight.dtype:
        raise ShapeError(f"linear: dtype mismatch ({dtype} vs {p.weight.dtype})")


def _linear_forward(arr: np.ndarray, p: LinearParams) -> np.ndarray:
    """x @ W + b on a checked array, the bias added in place."""
    y = arr.reshape(-1, p.d_in) @ p.weight.numpy()
    y += p.bias.numpy()
    return y.reshape(arr.shape[:-1] + (p.d_out,))


def _linear_vjp(g: np.ndarray, arr: np.ndarray, p: LinearParams) -> tuple:
    """Cotangents of (x, W, b) for y = x @ W + b, from dy = g at input arr."""
    g2 = g.reshape(-1, p.d_out)
    return (
        (g2 @ p.weight.numpy().T).reshape(arr.shape),
        arr.reshape(-1, p.d_in).T @ g2,
        seq_sum(g2),
    )


def linear(x: Tensor, p: LinearParams) -> Tensor:
    """y[..., j] = sum_i x[..., i] * W[i, j] + b[j] at every leading site."""
    _check_linear(x.shape, x.dtype, p)
    arr = x.numpy()
    out = Tensor._wrap(_linear_forward(arr, p))
    _tape.record("linear", (x, p.weight, p.bias), out, lambda g: _linear_vjp(g, arr, p))
    return out


def _check_layer_norm(shape: tuple, dtype: str, p: LayerNormParams) -> None:
    if len(shape) < 1 or shape[-1] != p.dim:
        raise ShapeError(f"layer_norm: trailing axis of {shape} != {p.dim}")
    if dtype != p.gamma.dtype:
        raise ShapeError(f"layer_norm: dtype mismatch ({dtype} vs {p.gamma.dtype})")


def _layer_norm_forward(arr: np.ndarray, p: LayerNormParams):
    """Layer norm of a checked array, with the xhat and 1 / sqrt(var + eps) its VJP reads.

    Mean and variance are per-row einsum sums (no BLAS), so a row's bits ignore its batch.
    """
    c = arr.shape[-1]
    mean = np.einsum("...i->...", arr)[..., None] / c
    xhat = arr - mean
    var = np.einsum("...i,...i->...", xhat, xhat)[..., None] / c
    inv = 1.0 / np.sqrt(var + np.asarray(p.eps, dtype=arr.dtype))
    xhat *= inv
    y = xhat * p.gamma.numpy()
    y += p.beta.numpy()
    return y, xhat, inv


def _layer_norm_vjp(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, p: LayerNormParams) -> tuple:
    """Cotangents of (x, gamma, beta) for layer norm, from dy = g."""
    c = p.dim
    gg = g * p.gamma.numpy()
    m1 = np.einsum("...i->...", gg)[..., None] / c
    m2 = np.einsum("...i,...i->...", gg, xhat)[..., None] / c
    dx = inv * (gg - m1 - xhat * m2)
    g2 = g.reshape(-1, c)
    return (
        np.ascontiguousarray(dx),
        seq_sum(g2 * xhat.reshape(-1, c)),
        seq_sum(g2),
    )


def layer_norm(x: Tensor, p: LayerNormParams) -> Tensor:
    """Normalize the trailing axis to zero mean / unit variance, then scale-shift.

    Population variance (divisor c); the trailing axis must match the
    parameter length.
    """
    _check_layer_norm(x.shape, x.dtype, p)
    y, xhat, inv = _layer_norm_forward(x.numpy(), p)
    out = Tensor._wrap(y)
    vjp = lambda g: _layer_norm_vjp(g, xhat, inv, p)
    _tape.record("layer_norm", (x, p.gamma, p.beta), out, vjp)
    return out


# erf(z) = z * P(z^2) / Q(z^2) on [-4, 4], highest power first: the
# coefficients of Eigen's generic_fast_erf_float. Beyond |z| = 4 erf rounds
# to +-1 in f32, and P / Q would grow like z^5, so z is clamped first.
_ERF_P = tuple(
    np.float32(c)
    for c in (
        -2.72614225801306e-10,
        2.77068142495902e-08,
        -2.10102402082508e-06,
        -5.69250639462346e-05,
        -7.34990630326855e-04,
        -2.95459980854025e-03,
        -1.60960333262415e-02,
    )
)
_ERF_Q = tuple(
    np.float32(c)
    for c in (
        -1.45660718464996e-05,
        -2.13374055278905e-04,
        -1.68282697438203e-03,
        -7.37332916720468e-03,
        -1.42647390514189e-02,
    )
)
# Elements per f32 pass: 128 KiB per buffer keeps the four live ones in L2.
_BLOCK = 32768


def _erf_f32(e: np.ndarray, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """erf in place on the f32 array e; t and u are scratch of e's shape."""
    np.clip(e, -4.0, 4.0, out=e)
    np.multiply(e, e, out=t)
    np.multiply(t, _ERF_P[0], out=u)
    u += _ERF_P[1]
    for c in _ERF_P[2:]:
        u *= t
        u += c
    u *= e
    np.multiply(t, _ERF_Q[0], out=e)
    e += _ERF_Q[1]
    for c in _ERF_Q[2:]:
        e *= t
        e += c
    return np.divide(u, e, out=e)


def _gelu_forward(a: np.ndarray) -> np.ndarray:
    """GELU of a, into a new array; f32 runs in cache-sized blocks."""
    if a.dtype != np.float32:
        return 0.5 * a * (1.0 + erf(a * _INV_SQRT2))
    flat = a.reshape(-1)
    out = np.empty_like(flat)
    scratch = np.empty((2, min(flat.size, _BLOCK)), dtype=np.float32)
    for start in range(0, flat.size, _BLOCK):
        n = min(_BLOCK, flat.size - start)
        x, y = flat[start : start + n], out[start : start + n]
        np.multiply(x, _INV_SQRT2, out=y)
        _erf_f32(y, scratch[0, :n], scratch[1, :n])
        y += 1.0
        y *= 0.5
        y *= x
    return out.reshape(a.shape)


def _gelu_derivative(a: np.ndarray) -> np.ndarray:
    """Phi(a) + a * phi(a), evaluated in f64 and returned in a's dtype."""
    x = a.astype(np.float64, copy=False)
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return (cdf + x * pdf).astype(a.dtype, copy=False)


def gelu(x: Tensor) -> Tensor:
    """GELU, x * Phi(x), with Phi the standard normal CDF.

    f64 evaluates Phi with scipy's erf, accurate to f64 round-off. f32 uses
    a rational erf within 8 ulp of the correctly rounded value, which puts
    f32 GELU within 2e-6 of the f64 result. The derivative is always
    evaluated in f64; in f32 it is that value rounded to f32, within 6.0e-8.
    """
    arr = x.numpy()
    out = Tensor._wrap(_gelu_forward(arr))
    _tape.record("gelu", (x,), out, lambda g: (g * _gelu_derivative(arr),))
    return out


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the token axis of a [tokens, c] tensor."""
    if x.rank != 2:
        raise ShapeError(f"global_avg_pool needs a [tokens, c] tensor, got {x.shape}")
    tokens = x.shape[0]
    arr = x.numpy()
    out = Tensor._wrap(seq_sum(arr) / tokens)

    def vjp(g):
        return (np.broadcast_to(g / tokens, arr.shape).astype(arr.dtype, copy=True),)

    _tape.record("global_avg_pool", (x,), out, vjp)
    return out


def softmax(x: Tensor) -> Tensor:
    """Probability vector from a rank-1 logit vector (max-subtracted)."""
    if x.rank != 1:
        raise ShapeError(f"softmax needs a rank-1 tensor, got {x.shape}")
    arr = x.numpy()
    e = np.exp(arr - arr.max())
    s = e / seq_sum(e)
    out = Tensor._wrap(s)

    def vjp(g):
        return (s * (g - seq_sum(g * s)),)

    _tape.record("softmax", (x,), out, vjp)
    return out


# The cubic convolution kernel's parameter, as in OpenCV and PyTorch bicubic.
_CUBIC_A = -0.75


def _cubic_kernel(t: np.ndarray) -> np.ndarray:
    """Cubic convolution kernel; exact zeros at |t| in {1, 2}, one at 0."""
    a = _CUBIC_A
    t = np.abs(t)
    near = ((a + 2.0) * t - (a + 3.0)) * t * t + 1.0
    far = ((((t - 5.0) * t) + 8.0) * t - 4.0) * a
    return np.where(t <= 1.0, near, np.where(t < 2.0, far, 0.0))


def _resize_plan(n_in: int, n_out: int):
    """Clamped source indices [n_out, 4] and tap weights [n_out, 4]."""
    scale = n_in / n_out
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * scale - 0.5
    base = np.floor(src)
    frac = src - base
    offsets = np.stack([frac + 1.0, frac, frac - 1.0, frac - 2.0], axis=1)
    weights = _cubic_kernel(offsets)
    idx = base.astype(np.int64)[:, None] + np.arange(-1, 3)[None, :]
    return np.clip(idx, 0, n_in - 1), weights


# The taps of a same-size plan: the centre sample, weighted exactly one.
_IDENTITY_TAPS = np.array([0.0, 1.0, 0.0, 0.0])


def _resize_axis(arr: np.ndarray, axis: int, n_out: int):
    """Resample one axis: each tap gathered once, the four summed in a fixed order.

    Returns the result and the plan ``_resize_axis_vjp`` reads. When the
    plan from ``_resize_plan`` is exactly the identity (centre tap i on
    row i, weights (0, 1, 0, 0)), the result is ``arr`` itself and the
    plan None.
    """
    n_in = arr.shape[axis]
    idx, weights = _resize_plan(n_in, n_out)
    if (
        n_out == n_in
        and np.array_equal(idx[:, 1], np.arange(n_in))
        and (weights == _IDENTITY_TAPS).all()
    ):
        return arr, None
    weights = weights.astype(arr.dtype)
    wshape = [1] * arr.ndim
    wshape[axis] = n_out
    tap = lambda k: np.take(arr, idx[:, k], axis=axis) * weights[:, k].reshape(wshape)
    return ((tap(0) + tap(1)) + tap(2)) + tap(3), (idx, weights)


def _resize_axis_vjp(g: np.ndarray, n_in: int, axis: int, plan) -> np.ndarray:
    if plan is None:
        return g
    idx, weights = plan
    shape = list(g.shape)
    shape[axis] = n_in
    acc = np.zeros(shape, dtype=g.dtype)
    wshape = [1] * g.ndim
    wshape[axis] = g.shape[axis]
    for k in range(4):
        contrib = g * weights[:, k].reshape(wshape)
        np.add.at(acc, (slice(None),) * axis + (idx[:, k],), contrib)
    return acc


def _resize_grid(x: Tensor, grid: tuple, axis: int, out_h: int, out_w: int) -> Tensor:
    """Bicubic resample of axes ``axis`` (to out_h) and ``axis + 1`` (to out_w).

    ``x`` is read as ``grid``: either its own shape, or its shape with
    the two resampled axes merged into one (a row-major [h * w, c] token
    tensor read as [h, w, c]). The result is laid out the same way. The
    h axis is resampled first; the whole resample is one tape node, and
    an input whose plans are both the identity comes back as ``x``.
    """
    if x.size != int(np.prod(grid)):
        raise ShapeError(f"resample: a {x.shape} tensor cannot be read as {grid}")
    arr = x.numpy().reshape(grid)
    mid, plan_h = _resize_axis(arr, axis, out_h)
    res, plan_w = _resize_axis(mid, axis + 1, out_w)
    if plan_h is None and plan_w is None:
        return x
    shape = res.shape
    if x.rank < len(grid):
        shape = shape[:axis] + (out_h * out_w,) + shape[axis + 2 :]
    out = Tensor._wrap(res.reshape(shape))
    h, w = grid[axis], grid[axis + 1]

    def vjp(g):
        g = _resize_axis_vjp(g.reshape(res.shape), w, axis + 1, plan_w)
        return (_resize_axis_vjp(g, h, axis, plan_h).reshape(x.shape),)

    _tape.record("bicubic_resize", (x,), out, vjp)
    return out


def bicubic_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Separable cubic-convolution resampling of a [c, h, w] tensor.

    Half-pixel center alignment, border taps clamped to the edge, and the
    kernel parameter fixed at the constant a = -0.75. Each axis gathers
    its four taps, scales each by its weight and sums them in the fixed
    order ((t0 + t1) + t2) + t3, h axis first. With out == in the plan is
    the identity, taps (0, 1, 0, 0) exactly, and that axis is skipped, so
    a same-size resize returns the input bitwise, -0.0 included.
    """
    if x.rank != 3:
        raise ShapeError(f"bicubic_resize needs a [c, h, w] tensor, got {x.shape}")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"bicubic_resize: target {out_h}x{out_w} must be positive")
    return _resize_grid(x, x.shape, 1, out_h, out_w)
