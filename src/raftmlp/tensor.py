"""Dense n-dimensional tensor type and the primitive array operations.

Tensors wrap contiguous, row-major numpy buffers in float32 or float64.
They are immutable after construction. NaN/Inf is an error surface here,
never a value: every exported operation validates that its result is
finite. ``blocks.mixing_mlp``, which runs none of them inside, validates
its output once, inside an autograd trace or outside one.

The reductions this module owns, ``sum_all`` and ``seq_sum`` (the neural
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
from numpy.lib.stride_tricks import sliding_window_view

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
            if dtype not in _DTYPES:
                raise ValueError(f"unsupported dtype {dtype!r}; expected 'f32' or 'f64'")
            target = _DTYPES[dtype]
        else:
            target = values.dtype if values.dtype in _DTYPE_NAMES else np.dtype(np.float64)
        # np.array copies, so the caller's buffer is never aliased or frozen.
        arr = np.array(values, dtype=target, order="C")
        _check_finite(arr)
        arr.flags.writeable = False
        self._array = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Trusted no-copy path for freshly computed op results.
        arr = np.ascontiguousarray(arr)
        _check_finite(arr)
        arr.flags.writeable = False
        t = object.__new__(cls)
        t._array = arr
        return t

    @classmethod
    def zeros(cls, shape, dtype: str = "f32") -> "Tensor":
        return cls._wrap(np.zeros(shape, dtype=_DTYPES[dtype]))

    @classmethod
    def ones(cls, shape, dtype: str = "f32") -> "Tensor":
        return cls._wrap(np.ones(shape, dtype=_DTYPES[dtype]))

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
        return Tensor._wrap(self._array.astype(_DTYPES[dtype]))

    def __repr__(self) -> str:
        return f"Tensor(shape={list(self.shape)}, dtype={self.dtype})"


def _check_finite(arr: np.ndarray) -> None:
    if 0 in arr.shape:
        raise ValueError(f"tensor axes must have positive length, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("tensor contains NaN or Inf")


def _is_int(value) -> bool:
    """An exact int: a bool is an int to Python but never a length or a count here."""
    return isinstance(value, int) and not isinstance(value, bool)


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


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: shape mismatch ({a.shape} vs {b.shape})")
    _same_dtype(a, b, "mul")
    out = Tensor._wrap(a.numpy() * b.numpy())
    _tape.record("mul", (a, b), out, lambda g: (g * b.numpy(), g * a.numpy()))
    return out


def concat(ts, axis: int) -> Tensor:
    """Concatenate tensors along one axis; other axes must agree."""
    ts = list(ts)
    if not ts:
        raise ShapeError("concat of an empty list")
    rank = ts[0].rank
    if axis < 0 or axis >= rank:
        raise ShapeError(f"concat: axis {axis} out of range for rank {rank}")
    for t in ts[1:]:
        _same_dtype(ts[0], t, "concat")
        if t.rank != rank or any(
            t.shape[i] != ts[0].shape[i] for i in range(rank) if i != axis
        ):
            raise ShapeError(f"concat: incompatible shapes {ts[0].shape} and {t.shape}")
    out = Tensor._wrap(np.concatenate([t.numpy() for t in ts], axis=axis))

    offsets = np.cumsum([0] + [t.shape[axis] for t in ts])

    def vjp(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, offsets[1:-1], axis=axis))

    _tape.record("concat", tuple(ts), out, vjp)
    return out


def unfold(t: Tensor, kernel: int, stride: int, padding: int) -> Tensor:
    """Extract flattened kernel x kernel patches from a [c, h, w] tensor.

    Returns [c * kernel**2, n_tokens] where column j is patch j in
    (channel, row, col) order and patches step by ``stride`` after
    zero-padding ``padding`` on every side. Out-of-image samples are
    exactly zero. The patches are one strided window view of the padded
    image, copied out once in that order.
    """
    if t.rank != 3:
        raise ShapeError(f"unfold needs a [c, h, w] tensor, got shape {t.shape}")
    if kernel <= 0 or stride <= 0 or padding < 0:
        raise ShapeError("unfold: kernel and stride must be positive, padding non-negative")
    c, h, w = t.shape
    span_h = h + 2 * padding - kernel
    span_w = w + 2 * padding - kernel
    if span_h < 0 or span_w < 0 or span_h % stride or span_w % stride:
        raise ShapeError(
            f"unfold: geometry h={h} w={w} kernel={kernel} stride={stride} "
            f"padding={padding} does not tile evenly"
        )
    n_h = span_h // stride + 1
    n_w = span_w // stride + 1

    arr = t.numpy()
    padded = np.zeros((c, h + 2 * padding, w + 2 * padding), dtype=arr.dtype)
    padded[:, padding : padding + h, padding : padding + w] = arr

    # windows[ci, i, j, ki, kj] = padded[ci, i * stride + ki, j * stride + kj]
    windows = sliding_window_view(padded, (kernel, kernel), axis=(1, 2))[:, ::stride, ::stride]
    out = Tensor._wrap(windows.transpose(0, 3, 4, 1, 2).reshape(c * kernel * kernel, n_h * n_w))

    # The loop fixes the order in which overlapping patches accumulate.
    def vjp(g):
        gp = g.reshape(c, kernel, kernel, n_h, n_w)
        acc = np.zeros_like(padded)
        for ki in range(kernel):
            for kj in range(kernel):
                acc[:, ki : ki + n_h * stride : stride, kj : kj + n_w * stride : stride] += gp[
                    :, ki, kj
                ]
        return (np.ascontiguousarray(acc[:, padding : padding + h, padding : padding + w]),)

    _tape.record("unfold", (t,), out, vjp)
    return out


def sum_all(t: Tensor) -> Tensor:
    """Left-to-right sum of every element, as a rank-0 tensor."""
    arr = t.numpy()
    if arr.size == 0:
        raise ShapeError("sum_all of an empty tensor")
    out = Tensor._wrap(np.asarray(seq_sum(arr.reshape(-1)), dtype=arr.dtype))
    _tape.record("sum_all", (t,), out, lambda g: (np.broadcast_to(g, arr.shape).astype(arr.dtype),))
    return out
