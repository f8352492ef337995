"""Minimal netpbm image IO: binary PPM in, binary PGM out.

Only the binary variants with maxval 255 are handled; that keeps the
package free of external image decoders. Reading scales to [0, 1];
writing min-max normalizes to the 0..255 byte range.
"""

from __future__ import annotations

import os
import stat

import numpy as np

from .tensor import Tensor


# Bytes per read from an input that reports no size.
_CHUNK = 1 << 20


class ImageFormatError(ValueError):
    """Malformed or unsupported netpbm data."""


def _next_token(f) -> bytes:
    """Whitespace-separated header token; '#' starts a comment to EOL."""
    token = b""
    while True:
        ch = f.read(1)
        if not ch:
            if token:
                return token
            raise ImageFormatError("unexpected end of file in header")
        if ch == b"#":
            while ch and ch != b"\n":
                ch = f.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        token += ch


def read_ppm(path) -> Tensor:
    """Binary PPM (P6, maxval 255) as a [3, h, w] f32 tensor in [0, 1]."""
    with open(path, "rb") as f:
        magic = _next_token(f)
        if magic == b"P3":
            raise ImageFormatError("ASCII PPM (P3) is not supported; use binary P6")
        if magic != b"P6":
            raise ImageFormatError(f"bad magic {magic!r}, expected P6")
        try:
            width = int(_next_token(f))
            height = int(_next_token(f))
            maxval = int(_next_token(f))
        except ValueError as exc:
            raise ImageFormatError("non-numeric PPM header field") from exc
        if width < 1 or height < 1:
            raise ImageFormatError(f"bad dimensions {width}x{height}")
        if maxval != 255:
            raise ImageFormatError(f"unsupported maxval {maxval}, expected 255")
        wanted = width * height * 3
        # The header can declare any size: read no more than a regular file
        # holds, and a pipe (which reports no size) in bounded chunks, so a
        # short input fails before a raster-sized buffer exists.
        info = os.fstat(f.fileno())
        if stat.S_ISREG(info.st_mode):
            raster = f.read(min(wanted, info.st_size - f.tell()))
        else:
            raster = bytearray()
            while len(raster) < wanted:
                chunk = f.read(min(_CHUNK, wanted - len(raster)))
                if not chunk:
                    break
                raster += chunk
        if len(raster) != wanted:
            raise ImageFormatError(f"truncated raster: wanted {wanted} bytes, got {len(raster)}")
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
