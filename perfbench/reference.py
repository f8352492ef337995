"""Independent f64 reference forward pass, written with plain numpy.

It shares no code with the package's ops, blocks, models or adapt
modules: the architectures are restated from the README tables, every
rearrangement is an explicit reshape/transpose, and bicubic resizing is
a dense interpolation matrix built from the kernel formula. Weights come
in as the name -> array mapping the package's ``named_parameters`` uses
(and the ``.rftw`` files store), upcast to f64.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erf

LN_EPS = 1e-6
CUBIC_A = -0.75


@dataclass(frozen=True)
class RefLevel:
    channels: int
    depth: int
    stride: int
    scales: tuple
    mixing: str  # "raft" or "plain"
    raft_size: int = 0


@dataclass(frozen=True)
class RefArch:
    levels: tuple
    final_norm: bool
    resolution: tuple = (224, 224)

    @property
    def total_stride(self) -> int:
        out = 1
        for lvl in self.levels:
            out *= lvl.stride
        return out


def _raft_s() -> RefArch:
    chans, depths, strides = (64, 128, 256, 512), (2, 2, 6, 2), (4, 2, 2, 2)
    scales = ((0, 1), (0, 1), (0, 1), (0,))
    return RefArch(
        levels=tuple(
            RefLevel(c, d, p, sc, "raft", 2) for c, d, p, sc in zip(chans, depths, strides, scales)
        ),
        final_norm=False,
    )


ARCHS = {
    "raftmlp-s": _raft_s(),
    "mixer-b16": RefArch(levels=(RefLevel(768, 12, 16, (0,), "plain"),), final_norm=True),
    "mixer-b16-cr2": RefArch(levels=(RefLevel(768, 12, 16, (0,), "raft", 2),), final_norm=True),
}


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def _layer_norm(x, w, prefix):
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS) * w[f"{prefix}.gamma"] + w[f"{prefix}.beta"]


def _linear(x, w, prefix):
    return x @ w[f"{prefix}.weight"] + w[f"{prefix}.bias"]


def _mlp(v, w, prefix):
    h = _linear(v, w, f"{prefix}.fc1")
    h = 0.5 * h * (1.0 + erf(h / np.sqrt(2.0)))
    return _linear(h, w, f"{prefix}.fc2")


def _patches(image, kernel, stride):
    """[n_tokens, c*kernel*kernel] patches, features in (channel, row, col) order."""
    pad = (kernel - stride) // 2
    padded = np.pad(image, ((0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(padded, (kernel, kernel), axis=(1, 2))
    win = win[:, ::stride, ::stride]  # [c, n_h, n_w, k, k]
    c, n_h, n_w = win.shape[:3]
    return win.transpose(1, 2, 0, 3, 4).reshape(n_h * n_w, c * kernel * kernel)


def _embed(image, lvl, w, prefix):
    feats = np.concatenate([_patches(image, 2**m * lvl.stride, lvl.stride) for m in lvl.scales], axis=1)
    return _linear(feats, w, f"{prefix}.proj")


def _raft_mix(x, h, wd, r, w, prefix):
    """Vertical then horizontal raft mixing of [(h w), (r o)] tokens."""
    o = x.shape[1] // r
    # vertical: sites (o, w), features (r, h)
    y = _layer_norm(x, w, f"{prefix}.vertical.ln").reshape(h, wd, r, o)
    v = y.transpose(3, 1, 2, 0).reshape(o * wd, r * h)
    z = _mlp(v, w, f"{prefix}.vertical").reshape(o, wd, r, h).transpose(3, 1, 2, 0)
    x = x + z.reshape(h * wd, r * o)
    # horizontal: sites (o, h), features (r, w)
    y = _layer_norm(x, w, f"{prefix}.horizontal.ln").reshape(h, wd, r, o)
    v = y.transpose(3, 0, 2, 1).reshape(o * h, r * wd)
    z = _mlp(v, w, f"{prefix}.horizontal").reshape(o, h, r, wd).transpose(1, 3, 2, 0)
    return x + z.reshape(h * wd, r * o)


def _plain_mix(x, w, prefix):
    y = _layer_norm(x, w, f"{prefix}.ln").T
    return x + _mlp(y, w, prefix).T


def _channel_mix(x, w, prefix):
    return x + _mlp(_layer_norm(x, w, f"{prefix}.ln"), w, prefix)


def _token_mix(x, lvl, h, wd, w, prefix):
    if lvl.mixing == "raft":
        return _raft_mix(x, h, wd, lvl.raft_size, w, prefix)
    return _plain_mix(x, w, prefix)


def cubic_kernel(t):
    t = abs(t)
    a = CUBIC_A
    if t <= 1.0:
        return (a + 2.0) * t**3 - (a + 3.0) * t**2 + 1.0
    if t < 2.0:
        return a * t**3 - 5.0 * a * t**2 + 8.0 * a * t - 4.0 * a
    return 0.0


@lru_cache(maxsize=64)
def resize_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Dense [n_out, n_in] bicubic interpolation matrix.

    Half-pixel centres: output i samples source position
    (i + 0.5) * n_in / n_out - 0.5. The four taps around it are weighted
    by the cubic kernel at their distance; taps beyond the border fold
    onto the edge sample.
    """
    m = np.zeros((n_out, n_in))
    for i in range(n_out):
        src = (i + 0.5) * n_in / n_out - 0.5
        base = int(np.floor(src))
        for j in range(base - 1, base + 3):
            m[i, min(max(j, 0), n_in - 1)] += cubic_kernel(src - j)
    m.flags.writeable = False
    return m


def _resize(planes, out_h, out_w):
    """Bicubic resize of [c, h, w] via dense row and column matrices."""
    return resize_matrix(planes.shape[1], out_h) @ planes @ resize_matrix(planes.shape[2], out_w).T


def snap(extent: int, stride: int) -> int:
    """Nearest multiple of ``stride`` (ties up), at least one stride."""
    return max(stride, (2 * extent + stride) // (2 * stride) * stride)


def forward(arch: RefArch, weights: dict, image: np.ndarray, adapted: bool = False) -> np.ndarray:
    """f64 logits of one [3, h, w] image.

    With ``adapted`` the image is first snapped to the total stride and
    every token-mixing block runs between bicubic resizes to and from
    the grid the weights were built for.
    """
    w = {k: np.asarray(v, dtype=np.float64) for k, v in weights.items()}
    x = np.asarray(image, dtype=np.float64)
    if adapted:
        ts = arch.total_stride
        x = _resize(x, snap(x.shape[1], ts), snap(x.shape[2], ts))
    th, tw = arch.resolution
    tokens = None
    for li, lvl in enumerate(arch.levels, start=1):
        h, wd = x.shape[1] // lvl.stride, x.shape[2] // lvl.stride
        th, tw = th // lvl.stride, tw // lvl.stride
        tokens = _embed(x, lvl, w, f"level{li}.embed")
        for bi in range(1, lvl.depth + 1):
            prefix = f"level{li}.block{bi}"
            if adapted:
                planes = _resize(tokens.T.reshape(-1, h, wd), th, tw)
                mixed = _token_mix(planes.reshape(-1, th * tw).T, lvl, th, tw, w, f"{prefix}.token")
                planes = _resize(mixed.T.reshape(-1, th, tw), h, wd)
                tokens = planes.reshape(-1, h * wd).T
            else:
                tokens = _token_mix(tokens, lvl, h, wd, w, f"{prefix}.token")
            tokens = _channel_mix(tokens, w, f"{prefix}.channel")
        x = tokens.T.reshape(-1, h, wd)
    if arch.final_norm:
        tokens = _layer_norm(tokens, w, "final_norm")
    return _linear(tokens.mean(axis=0), w, "head")
