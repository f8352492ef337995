"""Dense n-dimensional tensor type and the primitive array operations.

Tensors wrap contiguous, row-major numpy buffers in float32 or float64.
They are immutable after construction. NaN/Inf is an error surface here,
never a value: every exported operation validates that its result is
finite. ``blocks.mixing_mlp``, which runs none of them inside, validates
its output once, inside an autograd trace or outside one.

The reductions this module owns, ``vdot`` and ``seq_sum`` (the neural
ops' sums over rows, always over axis 0), accumulate strictly left to right
so repeated runs are bit-identical. Layer norm's sums over the channel axis
are not ``seq_sum`` calls: ``ops`` takes them with per-row ``np.einsum``
reductions, whose order within a row is numpy's but whose bits for a row do
not depend on the other rows, the buffer's offset or BLAS. ``ops.linear``
delegates to the platform BLAS, whose inner accumulation order is
implementation-defined but deterministic within a process; it is validated
against a naive oracle by tolerance, not bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import _tape

_DTYPES = {"f32": np.dtype(np.float32), "f64": np.dtype(np.float64)}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


class ShapeError(ValueError):
    """Operand shapes or dtypes violate an operation's contract."""


class Tensor:
    """Immutable dense array of f32 or f64 scalars."""

    __slots__ = ("_array",)

    def __init__(self, values, dtype: str | None = None):
        if isinstance(values, Tensor):
            values = values.numpy()
        values = np.asarray(values)
        if values.dtype.kind not in "biuf":
            raise ValueError(f"tensor values must be real numbers, got numpy dtype {values.dtype}")
        if dtype is not None:
            target = _np_dtype(dtype)
        else:
            target = values.dtype if values.dtype in _DTYPE_NAMES else np.dtype(np.float64)
        # np.array copies, so the caller's buffer is never aliased or frozen.
        arr = np.array(values, dtype=target, order="C")
        _check_finite(arr)
        arr.flags.writeable = False
        self._array = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Trusted no-copy path for freshly computed op results; a rank-0
        # result stays rank 0, which np.ascontiguousarray would make [1].
        arr = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
        _check_finite(arr)
        arr.flags.writeable = False
        t = object.__new__(cls)
        t._array = arr
        return t

    @classmethod
    def zeros(cls, shape, dtype: str = "f32") -> "Tensor":
        return cls._wrap(np.zeros(_checked_shape(shape), dtype=_np_dtype(dtype)))

    @classmethod
    def ones(cls, shape, dtype: str = "f32") -> "Tensor":
        return cls._wrap(np.ones(_checked_shape(shape), dtype=_np_dtype(dtype)))

    @property
    def shape(self) -> tuple:
        return self._array.shape

    @property
    def rank(self) -> int:
        return self._array.ndim

    @property
    def size(self) -> int:
        return self._array.size

    @property
    def dtype(self) -> str:
        return _DTYPE_NAMES[self._array.dtype]

    def numpy(self) -> np.ndarray:
        """Read-only view of the underlying buffer."""
        return self._array

    def item(self) -> float:
        if self._array.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self._array.reshape(()))

    def tolist(self):
        return self._array.tolist()

    def astype(self, dtype: str) -> "Tensor":
        if dtype == self.dtype:
            return self
        return Tensor._wrap(self._array.astype(_np_dtype(dtype)))

    def __repr__(self) -> str:
        return f"Tensor(shape={list(self.shape)}, dtype={self.dtype})"


def _np_dtype(dtype: str) -> np.dtype:
    if not isinstance(dtype, str) or dtype not in _DTYPES:
        raise ValueError(f"unsupported dtype {dtype!r}; expected 'f32' or 'f64'")
    return _DTYPES[dtype]


def _check_finite(arr: np.ndarray) -> None:
    if 0 in arr.shape:
        raise ValueError(f"tensor axes must have positive length, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("tensor contains NaN or Inf")


def _is_int(value) -> bool:
    """An exact int: a bool is an int to Python but never a length or a count here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _checked_shape(shape) -> tuple:
    """A shape (or one length) whose every entry is an int >= 1, as a tuple."""
    dims = tuple(shape) if isinstance(shape, (tuple, list)) else (shape,)
    if not all(_is_int(d) and d >= 1 for d in dims):
        raise ValueError(f"tensor shape entries must be ints >= 1, got {shape!r}")
    return dims


def _same_dtype(a: Tensor, b: Tensor, op: str) -> None:
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: dtype mismatch ({a.dtype} vs {b.dtype})")


def seq_sum(arr: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in strict left-to-right order, signed zeros included."""
    n = arr.shape[0]
    if n == 0:
        raise ShapeError("seq_sum over an empty axis")
    if arr.size == n:
        # One output: a 1-D reduce would sum pairwise.
        return np.add.accumulate(arr, axis=0)[-1]
    # With the summed axis outermost and contiguous, reduce adds whole rows
    # one after another. Starting from -0.0 keeps the first row's bits, so an
    # all -0.0 column sums to -0.0 as with accumulate.
    rows = np.ascontiguousarray(arr).reshape(n, -1)
    return np.add.reduce(rows, axis=0, initial=-0.0).reshape(arr.shape[1:])


@dataclass(frozen=True)
class PatchGrid:
    """Token-grid geometry: h_prime x w_prime patches with `channels` each."""

    h_prime: int
    w_prime: int
    channels: int

    def __post_init__(self):
        for name in ("h_prime", "w_prime", "channels"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"PatchGrid.{name} must be an int >= 1, got {value!r}")

    @property
    def tokens(self) -> int:
        return self.h_prime * self.w_prime


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch ({a.shape} vs {b.shape})")
    _same_dtype(a, b, "add")
    out = Tensor._wrap(a.numpy() + b.numpy())
    _tape.record("add", (a, b), out, lambda g: (g, g))
    return out


def vdot(a: Tensor, b: Tensor) -> Tensor:
    """Left-to-right sum of a * b over every element, as a rank-0 tensor."""
    if a.shape != b.shape:
        raise ShapeError(f"vdot: shape mismatch ({a.shape} vs {b.shape})")
    _same_dtype(a, b, "vdot")
    out = Tensor._wrap(np.asarray(seq_sum((a.numpy() * b.numpy()).reshape(-1))))
    _tape.record("vdot", (a, b), out, lambda g: (g * b.numpy(), g * a.numpy()))
    return out


def unfold(t: Tensor, kernels, stride: int) -> Tensor:
    """Token-major patches of a [c, h, w] tensor at one or more kernel sizes.

    Returns [(h / stride) * (w / stride), c * sum(k**2)]: row j is token j in
    row-major order. Each kernel k, in the order given, fills one column
    block with the k x k patch centred on the token's stride x stride cell,
    in (channel, row, col) order, after zero-padding (k - stride) / 2 on
    every side; out-of-image samples are exactly zero. Each block is one
    read-only window view of its padded image, built from explicit strides
    and copied out once. ``kernels``
    is a non-empty list or tuple of sizes >= ``stride`` with k - stride
    even, and h and w are multiples of ``stride``; anything else, sizes
    that are not ints (a float, a bool) included, is a ShapeError.
    """
    if t.rank != 3:
        raise ShapeError(f"unfold needs a [c, h, w] tensor, got shape {t.shape}")
    if not isinstance(kernels, (list, tuple)) or not kernels:
        raise ShapeError(f"unfold: kernels must be a non-empty list or tuple, got {kernels!r}")
    kernels = tuple(kernels)
    if not all(_is_int(v) for v in (*kernels, stride)):
        raise ShapeError(f"unfold: sizes must be ints, got kernels {kernels!r}, stride {stride!r}")
    if stride < 1 or any(k < stride or (k - stride) % 2 for k in kernels):
        raise ShapeError(
            f"unfold: stride {stride} must be >= 1 and kernels {kernels} each >= it, of its parity"
        )
    c, h, w = t.shape
    if h % stride or w % stride:
        raise ShapeError(f"unfold: image {h}x{w} is not divisible by stride {stride}")
    n_h, n_w = h // stride, w // stride
    column_blocks = []
    width = 0
    for k in kernels:
        column_blocks.append((k, width, width + c * k * k))
        width += c * k * k

    arr = t.numpy()
    out = np.empty((n_h, n_w, width), dtype=arr.dtype)
    for k, a, b in column_blocks:
        q = (k - stride) // 2
        padded = np.zeros((c, h + 2 * q, w + 2 * q), dtype=arr.dtype)
        padded[:, q : q + h, q : q + w] = arr
        # windows[i, j, ci, ki, kj] = padded[ci, i * stride + ki, j * stride + kj]
        s_c, s_h, s_w = padded.strides
        windows = as_strided(
            padded,
            (n_h, n_w, c, k, k),
            (stride * s_h, stride * s_w, s_c, s_h, s_w),
            writeable=False,
        )
        # Splitting the contiguous last axis keeps this reshape a view of out.
        out[:, :, a:b].reshape(n_h, n_w, c, k, k)[...] = windows
    out = Tensor._wrap(out.reshape(n_h * n_w, width))

    # The loop fixes the order in which overlapping patches accumulate;
    # kernels sum last to first, as separate per-kernel nodes would in backward.
    def vjp(g):
        g = g.reshape(n_h, n_w, -1)
        total = None
        for k, a, b in reversed(column_blocks):
            q = (k - stride) // 2
            gp = g[:, :, a:b].reshape(n_h, n_w, c, k, k).transpose(2, 3, 4, 0, 1)
            acc = np.zeros((c, h + 2 * q, w + 2 * q), dtype=arr.dtype)
            for ki in range(k):
                for kj in range(k):
                    acc[:, ki : ki + n_h * stride : stride, kj : kj + n_w * stride : stride] += gp[
                        :, ki, kj
                    ]
            part = acc[:, q : q + h, q : q + w]
            total = part if total is None else total + part
        return (np.ascontiguousarray(total),)

    _tape.record("unfold", (t,), out, vjp)
    return out
