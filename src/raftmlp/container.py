"""Binary weight container.

Layout (all integers little-endian, scalars little-endian row-major):

    magic   4 bytes  b"RFTW"
    version u32      currently 1
    count   u64      number of tensors
    then per tensor:
        name_len u32, name UTF-8,
        dtype    u8 (0 = f32, 1 = f64),
        rank     u32, dims u64 * rank,
        payload  dtype-size * prod(dims) bytes

Round trips are bitwise lossless. Loading into a model requires the
stored names to match the model's parameter names exactly, and each
stored tensor to have its parameter's dtype and shape.
"""

from __future__ import annotations

import struct
from typing import Mapping

import numpy as np

from .models import Model, _map_parameters, _mismatch, named_parameters
from .tensor import Tensor

MAGIC = b"RFTW"
VERSION = 1

_DTYPE_CODES = {"f32": 0, "f64": 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_NAMES = {0: "f32", 1: "f64"}


class ContainerError(ValueError):
    """Base class for weight-container failures."""


class ContainerMagicError(ContainerError):
    """File does not start with the RFTW magic."""


class ContainerVersionError(ContainerError):
    """Unsupported container format version."""


class ContainerTruncatedError(ContainerError):
    """File ends before the declared payload does."""


class ContainerNameError(ContainerError):
    """Stored tensor names do not match what the consumer expects."""


def save_tensors(tensors: Mapping[str, Tensor], path) -> None:
    """Write a name -> tensor mapping; iteration order is preserved."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(tensors)))
        for name, tensor in tensors.items():
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", _DTYPE_CODES[tensor.dtype]))
            f.write(struct.pack("<I", tensor.rank))
            for dim in tensor.shape:
                f.write(struct.pack("<Q", dim))
            f.write(tensor.numpy().astype(_CODE_DTYPES[_DTYPE_CODES[tensor.dtype]]).tobytes())


def _read_exact(f, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise ContainerTruncatedError(
            f"truncated container: wanted {n} bytes for {what}, got {len(data)}"
        )
    return data


def load_tensors(path) -> dict:
    """Read a container back into an ordered name -> tensor dict."""
    out: dict[str, Tensor] = {}
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != MAGIC:
            raise ContainerMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != VERSION:
            raise ContainerVersionError(f"unsupported version {version}, expected {VERSION}")
        (count,) = struct.unpack("<Q", _read_exact(f, 8, "tensor count"))
        for i in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(f, 4, f"name length #{i}"))
            try:
                name = _read_exact(f, name_len, f"name #{i}").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ContainerError(f"tensor #{i} name is not valid UTF-8") from exc
            if name in out:
                raise ContainerNameError(f"duplicate tensor name {name!r}")
            (code,) = struct.unpack("<B", _read_exact(f, 1, f"dtype of {name!r}"))
            if code not in _CODE_DTYPES:
                raise ContainerError(f"tensor {name!r} has unknown dtype code {code}")
            (rank,) = struct.unpack("<I", _read_exact(f, 4, f"rank of {name!r}"))
            dims = struct.unpack(
                f"<{rank}Q", _read_exact(f, 8 * rank, f"dims of {name!r}")
            )
            if any(d < 1 for d in dims):
                raise ContainerError(f"tensor {name!r} has a non-positive dimension {dims}")
            n_scalars = 1
            for d in dims:
                n_scalars *= d
            payload = _read_exact(
                f, n_scalars * _CODE_DTYPES[code].itemsize, f"payload of {name!r}"
            )
            arr = np.frombuffer(payload, dtype=_CODE_DTYPES[code]).reshape(dims)
            out[name] = Tensor(arr, dtype=_CODE_NAMES[code])
        if f.read(1):
            raise ContainerError("trailing data after the last declared tensor")
    return out


def save_weights(model: Model, path) -> None:
    save_tensors(named_parameters(model), path)


def load_weights(model: Model, path) -> Model:
    """Model with parameters replaced by the container's contents.

    The stored name set must equal the model's parameter name set; the
    error lists any missing and extra names. Every stored tensor must
    have its parameter's dtype and shape; the error lists each that
    does not.
    """
    tensors = load_tensors(path)
    missing, extra, misfits = _mismatch(model, tensors)
    if missing or extra:
        raise ContainerNameError(
            f"container does not match the model: missing {missing}, extra {extra}"
        )
    if misfits:
        raise ContainerError("container tensors do not fit the model: " + "; ".join(misfits))
    return _map_parameters(model, lambda name, _: tensors[name])
