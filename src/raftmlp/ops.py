"""Neural primitives: linear, layer norm, GELU, pooling, softmax, bicubic.

Every op validates shapes, produces finite outputs, and registers a
vector-Jacobian product on the active trace so the autograd module can
differentiate through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from . import _tape
from .tensor import ShapeError, Tensor, map_unary, seq_sum

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
        if self.eps <= 0:
            raise ValueError("LayerNormParams: eps must be positive")

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]


def linear(x: Tensor, p: LinearParams) -> Tensor:
    """y[..., j] = sum_i x[..., i] * W[i, j] + b[j] at every leading site."""
    if x.rank < 1 or x.shape[-1] != p.d_in:
        raise ShapeError(f"linear: input shape {x.shape} does not end in d_in={p.d_in}")
    if x.dtype != p.weight.dtype:
        raise ShapeError(f"linear: dtype mismatch ({x.dtype} vs {p.weight.dtype})")
    arr = x.numpy()
    x2 = arr.reshape(-1, p.d_in)
    w = p.weight.numpy()
    y2 = x2 @ w + p.bias.numpy()
    out = Tensor._wrap(y2.reshape(arr.shape[:-1] + (p.d_out,)))

    def vjp(g):
        g2 = g.reshape(-1, p.d_out)
        return (
            (g2 @ w.T).reshape(arr.shape),
            x2.T @ g2,
            seq_sum(g2, axis=0),
        )

    _tape.record("linear", (x, p.weight, p.bias), out, vjp)
    return out


def layer_norm(x: Tensor, p: LayerNormParams) -> Tensor:
    """Normalize the trailing axis to zero mean / unit variance, then scale-shift.

    Population variance (divisor c); the trailing axis must match the
    parameter length.
    """
    c = p.dim
    if x.rank < 1 or x.shape[-1] != c:
        raise ShapeError(f"layer_norm: trailing axis of {x.shape} != {c}")
    if x.dtype != p.gamma.dtype:
        raise ShapeError(f"layer_norm: dtype mismatch ({x.dtype} vs {p.gamma.dtype})")
    arr = x.numpy()
    mean = seq_sum(arr, axis=-1, keepdims=True) / c
    centered = arr - mean
    var = seq_sum(centered * centered, axis=-1, keepdims=True) / c
    inv = 1.0 / np.sqrt(var + np.asarray(p.eps, dtype=arr.dtype))
    xhat = centered * inv
    gamma = p.gamma.numpy()
    out = Tensor._wrap(gamma * xhat + p.beta.numpy())

    def vjp(g):
        gg = g * gamma
        m1 = seq_sum(gg, axis=-1, keepdims=True) / c
        m2 = seq_sum(gg * xhat, axis=-1, keepdims=True) / c
        dx = inv * (gg - m1 - xhat * m2)
        g2 = g.reshape(-1, c)
        xhat2 = xhat.reshape(-1, c)
        return (
            np.ascontiguousarray(dx),
            seq_sum(g2 * xhat2, axis=0),
            seq_sum(g2, axis=0),
        )

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


def _phi_f32_block(x, out, t, u) -> None:
    """Standard normal CDF of the f32 block x into out; t and u are scratch."""
    np.multiply(x, _INV_SQRT2, out=out)
    _erf_f32(out, t, u)
    out += 1.0
    out *= 0.5


def _gelu_f32_block(x, out, t, u) -> None:
    _phi_f32_block(x, out, t, u)
    out *= x


def _gelu_derivative_f32_block(x, out, t, u) -> None:
    _phi_f32_block(x, out, t, u)
    np.multiply(x, x, out=t)
    t *= -0.5
    np.exp(t, out=t)
    t *= _INV_SQRT_2PI
    t *= x
    out += t


def _blocked_f32(a: np.ndarray, kernel) -> np.ndarray:
    """kernel(x, out, t, u) over cache-sized blocks of a, into one new array."""
    flat = a.reshape(-1)
    out = np.empty_like(flat)
    scratch = np.empty((2, min(flat.size, _BLOCK)), dtype=np.float32)
    for start in range(0, flat.size, _BLOCK):
        x = flat[start : start + _BLOCK]
        n = x.size
        kernel(x, out[start : start + n], scratch[0, :n], scratch[1, :n])
    return out.reshape(a.shape)


def _gelu_forward(a: np.ndarray) -> np.ndarray:
    if a.dtype == np.float32:
        return _blocked_f32(a, _gelu_f32_block)
    return 0.5 * a * (1.0 + erf(a * _INV_SQRT2))


def _gelu_derivative(a: np.ndarray) -> np.ndarray:
    if a.dtype == np.float32:
        return _blocked_f32(a, _gelu_derivative_f32_block)
    cdf = 0.5 * (1.0 + erf(a * _INV_SQRT2))
    pdf = np.exp(-0.5 * a * a) * _INV_SQRT_2PI
    return cdf + a * pdf


def gelu(x: Tensor) -> Tensor:
    """GELU, x * Phi(x), with Phi the standard normal CDF.

    f64 evaluates Phi with scipy's erf, accurate to f64 round-off. f32 uses
    a rational erf within 8 ulp of the correctly rounded value, which puts
    f32 GELU within 2e-6 of the f64 result and its derivative within 1e-6.
    """
    return map_unary(x, _gelu_forward, _gelu_derivative, op="gelu")


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the token axis of a [tokens, c] tensor."""
    if x.rank != 2:
        raise ShapeError(f"global_avg_pool needs a [tokens, c] tensor, got {x.shape}")
    tokens = x.shape[0]
    arr = x.numpy()
    out = Tensor._wrap(seq_sum(arr, axis=0) / tokens)

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
    s = e / seq_sum(e, axis=0)
    out = Tensor._wrap(s)

    def vjp(g):
        return (s * (g - seq_sum(g * s, axis=0)),)

    _tape.record("softmax", (x,), out, vjp)
    return out


def _cubic_kernel(t: np.ndarray, a: float = -0.75) -> np.ndarray:
    """Cubic convolution kernel; exact zeros at |t| in {1, 2}, one at 0."""
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


def _resize_axis(arr: np.ndarray, axis: int, n_out: int):
    idx, weights = _resize_plan(arr.shape[axis], n_out)
    weights = weights.astype(arr.dtype)
    taps = np.take(arr, idx.reshape(-1), axis=axis)
    taps = taps.reshape(arr.shape[:axis] + (n_out, 4) + arr.shape[axis + 1 :])
    wshape = [1] * taps.ndim
    wshape[axis] = n_out
    wshape[axis + 1] = 4
    w = weights.reshape(wshape)
    tap = lambda k: np.take(taps, k, axis=axis + 1) * np.take(w, k, axis=axis + 1)
    out = ((tap(0) + tap(1)) + tap(2)) + tap(3)
    return out, idx, weights


def _resize_axis_vjp(g: np.ndarray, n_in: int, axis: int, idx, weights) -> np.ndarray:
    shape = list(g.shape)
    shape[axis] = n_in
    acc = np.zeros(shape, dtype=g.dtype)
    wshape = [1] * g.ndim
    wshape[axis] = g.shape[axis]
    for k in range(4):
        contrib = g * weights[:, k].reshape(wshape)
        np.add.at(acc, (slice(None),) * axis + (idx[:, k],), contrib)
    return acc


def bicubic_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Separable cubic-convolution resampling of a [c, h, w] tensor.

    Half-pixel center alignment, kernel parameter a = -0.75, border taps
    clamped to the edge. With out == in the tap weights collapse to
    (0, 1, 0, 0) exactly, so a same-size resize returns the input bitwise.
    """
    if x.rank != 3:
        raise ShapeError(f"bicubic_resize needs a [c, h, w] tensor, got {x.shape}")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"bicubic_resize: target {out_h}x{out_w} must be positive")
    arr = x.numpy()
    mid, idx_h, w_h = _resize_axis(arr, axis=1, n_out=out_h)
    res, idx_w, w_w = _resize_axis(mid, axis=2, n_out=out_w)
    out = Tensor._wrap(res)

    h, w = arr.shape[1], arr.shape[2]

    def vjp(g):
        gm = _resize_axis_vjp(g, w, axis=2, idx=idx_w, weights=w_w)
        return (_resize_axis_vjp(gm, h, axis=1, idx=idx_h, weights=w_h),)

    _tape.record("bicubic_resize", (x,), out, vjp)
    return out
