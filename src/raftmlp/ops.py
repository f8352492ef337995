"""Neural primitives: linear, layer norm, GELU, pooling, softmax, bicubic.

Every op validates shapes, produces finite outputs, and registers a
vector-Jacobian product on the active trace so the autograd module can
differentiate through it. The forward and VJP arithmetic of ``linear`` and
``layer_norm`` lives in plain-array helpers, ``_linear_forward`` / ``_linear_vjp``
and ``_layer_norm_forward`` / ``_layer_norm_vjp``, which ``blocks.mixing_mlp``
shares, so each formula is written once; layer norm's channel sums are per-row
``np.einsum`` reductions. f32 GELU is 0.5 x (1 + tanh(x P(x^2))), run in
cache-sized blocks. Every bicubic resample runs in one layout, an [h, w, c]
array in and [c, h', w'] out, one BLAS product per axis with the dense
interpolation matrix built from ``_resize_plan``; an axis whose plan is the
identity is skipped. ``bicubic_resize`` moves its [c, h, w] planes into that
layout, and ``_resize_grid`` reads a [h * w, c] token tensor as it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Real

import numpy as np
from scipy.special import erf

from . import _tape
from .tensor import ShapeError, Tensor, _is_int, seq_sum

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


# GELU(x) = 0.5 x (1 + tanh(x P(x^2))), with x P(x^2) ~ artanh(erf(x / sqrt 2)):
# P, highest power first, is a least-squares fit in f64 on (0, 6] weighted by
# 1 - erf^2, rounded to f32; its constant is sqrt(2 / pi), as in the tanh GELU.
# At the clamp x = 6 the tanh argument is 10.75, where f32 tanh is exactly +-1,
# so GELU is exactly -0.0 below -6 and x itself above 6.
_GELU_P = tuple(
    np.float32(c)
    for c in (
        1.4836005e-09,
        -1.2235978e-07,
        3.8390103e-06,
        -5.4616517e-05,
        -3.4231740e-05,
        0.036334544,
        0.79788464,
    )
)
_GELU_CLAMP = 6.0
# Elements per f32 pass: 128 KiB per buffer keeps the four live ones in L2.
_BLOCK = 32768


def _gelu_f32(x: np.ndarray, y: np.ndarray, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """GELU of the f32 array x into y; t and u are scratch of x's shape."""
    np.clip(x, -_GELU_CLAMP, _GELU_CLAMP, out=y)
    np.multiply(y, y, out=t)
    np.multiply(t, _GELU_P[0], out=u)
    u += _GELU_P[1]
    for c in _GELU_P[2:]:
        u *= t
        u += c
    u *= y
    np.tanh(u, out=y)
    y += 1.0
    y *= 0.5
    y *= x
    return y


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
        _gelu_f32(x, y, scratch[0, :n], scratch[1, :n])
    return out.reshape(a.shape)


def _gelu_derivative(a: np.ndarray) -> np.ndarray:
    """Phi(a) + a * phi(a), evaluated in f64 and returned in a's dtype."""
    x = a.astype(np.float64, copy=False)
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return (cdf + x * pdf).astype(a.dtype, copy=False)


def gelu(x: Tensor) -> Tensor:
    """GELU, x * Phi(x), with Phi the standard normal CDF.

    f64 evaluates Phi with scipy's erf, accurate to f64 round-off. f32
    evaluates 0.5 x (1 + tanh(x P(x^2))) with x clamped to +-6, whose erf
    is within 8 ulp of the correctly rounded value, which puts f32 GELU
    within 2e-6 of the f64 result; below -6 it is exactly -0.0 and above 6
    exactly x. The derivative is always evaluated in f64; in f32 it is that
    value rounded to f32, within 6.0e-8.
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


@lru_cache(maxsize=128)
def _resize_plan(n_in: int, n_out: int):
    """Clamped source indices [n_out, 4] and tap weights [n_out, 4], read-only."""
    scale = n_in / n_out
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * scale - 0.5
    base = np.floor(src)
    frac = src - base
    offsets = np.stack([frac + 1.0, frac, frac - 1.0, frac - 2.0], axis=1)
    weights = _cubic_kernel(offsets)
    idx = base.astype(np.int64)[:, None] + np.arange(-1, 3)[None, :]
    idx = np.clip(idx, 0, n_in - 1)
    idx.flags.writeable = weights.flags.writeable = False
    return idx, weights


# The taps of a same-size plan: the centre sample, weighted exactly one.
_IDENTITY_TAPS = np.array([0.0, 1.0, 0.0, 0.0])


def _resize_matrix(n_in: int, n_out: int, dtype) -> np.ndarray | None:
    """The plan's dense [n_out, n_in] interpolation matrix in ``dtype``.

    Built from ``_resize_plan`` on every call, taps that clamp onto the
    same sample summed in f64. None when the plan is exactly the identity
    (centre tap i on row i, weights (0, 1, 0, 0)).
    """
    idx, weights = _resize_plan(n_in, n_out)
    if (
        n_out == n_in
        and np.array_equal(idx[:, 1], np.arange(n_in))
        and (weights == _IDENTITY_TAPS).all()
    ):
        return None
    flat = (np.arange(n_out)[:, None] * n_in + idx).ravel()
    m = np.bincount(flat, weights.ravel(), minlength=n_out * n_in)
    return m.reshape(n_out, n_in).astype(dtype)


def _resize_axis(arr: np.ndarray, m: np.ndarray | None) -> np.ndarray:
    """[n_in, k] -> [k, n_out]: the leading axis resampled by ``m``, then moved last.

    One matrix product, arr.T @ m.T; a None ``m`` (the identity) is the
    transposed view alone.
    """
    return arr.T if m is None else arr.T @ m.T


def _resize_axis_vjp(g: np.ndarray, m: np.ndarray | None) -> np.ndarray:
    """Adjoint of ``_resize_axis``: [k, n_out] -> [n_in, k], the product m.T @ g.T."""
    return g.T if m is None else m.T @ g.T


def _resample(hwc: np.ndarray, out_h: int, out_w: int):
    """Bicubic resample of an [h, w, c] array to [c, out_h, out_w], and its VJP.

    Every resample runs in this one layout: the h product turns [h, w * c]
    into [w * c, out_h], the w product turns [w, c * out_h] into
    [c * out_h, out_w]. The VJP maps a [c, out_h, out_w] cotangent back to
    [h, w, c]. When both plans are the identity the result is None.
    """
    h, w, c = hwc.shape
    m_h = _resize_matrix(h, out_h, hwc.dtype)
    m_w = _resize_matrix(w, out_w, hwc.dtype)
    if m_h is None and m_w is None:
        return None, None
    mid = _resize_axis(hwc.reshape(h, w * c), m_h)
    res = _resize_axis(mid.reshape(w, c * out_h), m_w).reshape(c, out_h, out_w)

    def vjp(g):
        g = _resize_axis_vjp(g.reshape(c * out_h, out_w), m_w)
        return _resize_axis_vjp(g.reshape(w * c, out_h), m_h).reshape(h, w, c)

    return res, vjp


def _resize_grid(x: Tensor, grid: tuple, out_h: int, out_w: int) -> Tensor:
    """Bicubic resample of an [h * w, c] token tensor read as its [h, w, c] ``grid``.

    The result is the [out_h * out_w, c] token tensor, recorded as one tape
    node; an input whose plans are both the identity comes back as ``x``.
    """
    h, w, c = grid
    if x.shape != (h * w, c):
        raise ShapeError(f"resample: a {x.shape} tensor cannot be read as {grid}")
    res, vjp = _resample(x.numpy().reshape(grid), out_h, out_w)
    if res is None:
        return x
    out = Tensor._wrap(res.transpose(1, 2, 0).reshape(out_h * out_w, c))
    vjp_tokens = lambda g: (vjp(g.reshape(out_h, out_w, c).transpose(2, 0, 1)).reshape(x.shape),)
    _tape.record("bicubic_resize", (x,), out, vjp_tokens)
    return out


def _planes_to_hwc(planes: np.ndarray) -> np.ndarray:
    """A [c, h, w] array as a new contiguous [h, w, c] array, copied one plane at a time.

    For an image's few planes this beats one transposed copy, which walks
    the source with a stride of h * w elements.
    """
    c, h, w = planes.shape
    hwc = np.empty((h, w, c), dtype=planes.dtype)
    for ch in range(c):
        hwc[:, :, ch] = planes[ch]
    return hwc


def bicubic_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Separable cubic-convolution resampling of a [c, h, w] tensor.

    Half-pixel center alignment, border taps clamped to the edge, and the
    kernel parameter fixed at the constant a = -0.75. The planes move to
    the [h, w, c] layout every resample runs in, and each axis is one
    matrix product with its dense interpolation matrix, h axis first, so
    the low bits depend on the BLAS thread count. With out == in the plan
    is the identity, taps (0, 1, 0, 0) exactly, and that axis is skipped,
    so a same-size resize returns the input bitwise, -0.0 included. A
    target that is not an int >= 1 (a float, a bool) is a ShapeError.
    """
    if x.rank != 3:
        raise ShapeError(f"bicubic_resize needs a [c, h, w] tensor, got {x.shape}")
    if not (_is_int(out_h) and _is_int(out_w)) or out_h < 1 or out_w < 1:
        raise ShapeError(f"bicubic_resize: target {out_h!r}x{out_w!r} must be ints >= 1")
    res, vjp = _resample(_planes_to_hwc(x.numpy()), out_h, out_w)
    if res is None:
        return x
    out = Tensor._wrap(res)
    vjp_planes = lambda g: (np.ascontiguousarray(vjp(g).transpose(2, 0, 1)),)
    _tape.record("bicubic_resize", (x,), out, vjp_planes)
    return out
