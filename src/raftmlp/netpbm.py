"""Minimal netpbm image IO: binary PPM in, binary PGM out.

Only the binary variants with maxval 255 are handled; that keeps the
package free of external image decoders. Reading scales to [0, 1];
writing min-max normalizes to the 0..255 byte range. As in libnetpbm, a
header comment ('#' to the end of its line) reads as the newline ending it,
so it ends a token it touches, and after maxval the raster follows it. A
header token longer than any valid field is refused, and the raster size a
header declares is checked against the bytes the input holds before a
buffer of that size exists (``_read_exact``, shared with the weight container).
"""

from __future__ import annotations

import os
import stat

import numpy as np

from .tensor import Tensor


_CHUNK = 1 << 20
# Longest header token: the magic and any valid size fit well within it.
_MAX_TOKEN = 20


class ImageFormatError(ValueError):
    """Malformed or unsupported netpbm data."""


def _read_exact(f, n: int, error: type[ValueError], what: str) -> bytes:
    """Exactly ``n`` bytes of ``f``, or ``error`` if ``f`` ends first.

    A regular file is read no further than its end, a pipe in ``_CHUNK`` pieces.
    """
    info = os.fstat(f.fileno())
    if stat.S_ISREG(info.st_mode):
        data = f.read(min(n, info.st_size - f.tell()))
    else:
        data = bytearray()
        while len(data) < n and (chunk := f.read(min(_CHUNK, n - len(data)))):
            data += chunk
    if len(data) != n:
        raise error(f"truncated {what}: wanted {n} bytes, got {len(data)}")
    return data


def _next_token(f) -> bytes:
    """Whitespace-separated header token; a '#' comment to EOL counts as its newline."""
    token = b""
    while True:
        ch = f.read(1)
        if ch == b"#":
            while ch and ch != b"\n":
                ch = f.read(1)
        if not ch:
            if token:
                return token
            raise ImageFormatError("unexpected end of file in header")
        if ch.isspace():
            if token:
                return token
            continue
        token += ch
        if len(token) > _MAX_TOKEN:
            raise ImageFormatError(f"PPM header field longer than {_MAX_TOKEN} bytes")


def read_ppm(path) -> Tensor:
    """Binary PPM (P6, maxval 255) as a [3, h, w] f32 tensor in [0, 1]."""
    with open(path, "rb") as f:
        return _read_raster(f, *_read_header(f))


def _read_header(f) -> tuple:
    """(height, width) from the header of a binary PPM; ``f`` is left at the raster."""
    magic = _next_token(f)
    if magic == b"P3":
        raise ImageFormatError("ASCII PPM (P3) is not supported; use binary P6")
    if magic != b"P6":
        raise ImageFormatError(f"bad magic {magic!r}, expected P6")
    fields = [_next_token(f) for _ in range(3)]
    if not all(field.isdigit() for field in fields):
        raise ImageFormatError("non-numeric PPM header field")
    width, height, maxval = map(int, fields)
    if width < 1 or height < 1:
        raise ImageFormatError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval}, expected 255")
    return height, width


def _read_raster(f, height: int, width: int) -> Tensor:
    """The [3, height, width] image whose raster ``f`` is positioned at."""
    raster = _read_exact(f, width * height * 3, ImageFormatError, "raster")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3)
    return Tensor._wrap(
        np.ascontiguousarray(pixels.transpose(2, 0, 1)).astype(np.float32) / np.float32(255.0)
    )


def write_pgm(t: Tensor, path) -> None:
    """Write a rank-2 tensor as binary PGM, min-max normalized to 0..255.

    A constant image writes as all zeros (there is no contrast to keep).
    """
    if t.rank != 2:
        raise ValueError(f"write_pgm needs a rank-2 tensor, got shape {t.shape}")
    arr = t.numpy().astype(np.float64)
    lo, hi = arr.min(), arr.max()
    if hi > lo:
        scaled = np.rint((arr - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(arr)
    data = scaled.clip(0, 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())
