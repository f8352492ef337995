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

Round trips are bitwise lossless. Every length the file declares is
checked against the bytes it holds before a buffer of that size exists,
and a pipe is read in bounded chunks; a NaN or Inf in a payload is a
``ContainerError`` (CLI exit 3). Loading into a model requires the stored
names to match the model's parameter names exactly, and each stored
tensor to have its parameter's dtype and shape.
"""

from __future__ import annotations

import math
import struct
from typing import Mapping

import numpy as np

from .models import Model, _map_parameters, _mismatch, named_parameters
from .netpbm import _read_exact
from .tensor import Tensor

MAGIC = b"RFTW"
VERSION = 1

# Stored scalar types; a type's code on disk is its position here.
_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


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
        f.write(MAGIC + struct.pack("<IQ", VERSION, len(tensors)))
        for name, tensor in tensors.items():
            encoded = name.encode("utf-8")
            code = list(_DTYPES).index(tensor.dtype)
            f.write(struct.pack(f"<I{len(encoded)}sBI{tensor.rank}Q",
                                len(encoded), encoded, code, tensor.rank, *tensor.shape))
            f.write(tensor.numpy().astype(_DTYPES[tensor.dtype]).tobytes())


def _field(f, fmt: str, what: str) -> tuple:
    return struct.unpack(fmt, _read_exact(f, struct.calcsize(fmt), ContainerTruncatedError, what))


def load_tensors(path) -> dict:
    """Read a container back into an ordered name -> tensor dict."""
    out: dict[str, Tensor] = {}
    with open(path, "rb") as f:
        (magic,) = _field(f, "<4s", "magic")
        if magic != MAGIC:
            raise ContainerMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
        (version,) = _field(f, "<I", "version")
        if version != VERSION:
            raise ContainerVersionError(f"unsupported version {version}, expected {VERSION}")
        (count,) = _field(f, "<Q", "tensor count")
        for i in range(count):
            (name_len,) = _field(f, "<I", f"name length #{i}")
            (encoded,) = _field(f, f"<{name_len}s", f"name #{i}")
            try:
                name = encoded.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ContainerError(f"tensor #{i} name is not valid UTF-8") from exc
            if name in out:
                raise ContainerNameError(f"duplicate tensor name {name!r}")
            (code,) = _field(f, "<B", f"dtype of {name!r}")
            if code >= len(_DTYPES):
                raise ContainerError(f"tensor {name!r} has unknown dtype code {code}")
            dtype_name, dtype = list(_DTYPES.items())[code]
            (rank,) = _field(f, "<I", f"rank of {name!r}")
            dims = _field(f, f"<{rank}Q", f"dims of {name!r}")
            if any(d < 1 for d in dims):
                raise ContainerError(f"tensor {name!r} has a non-positive dimension {dims}")
            payload = _read_exact(
                f, math.prod(dims) * dtype.itemsize, ContainerTruncatedError, f"payload of {name!r}"
            )
            try:
                out[name] = Tensor(np.frombuffer(payload, dtype=dtype).reshape(dims), dtype=dtype_name)
            except ValueError as exc:
                raise ContainerError(f"tensor {name!r} holds NaN or Inf") from exc
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
