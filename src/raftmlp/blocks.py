"""Architectural building blocks.

The shared skeleton is a residual mixing MLP,

    out = x + fc2(gelu(fc1(move(norm(x)))))

where ``norm`` is a layer norm over the trailing (channel) axis of the
input and ``move`` is an optional rearrangement that brings a different
axis into trailing position for the MLP; its inverse restores the layout
before the residual add. Specializing ``move`` yields every mixing
flavor in this package:

* channel mixing: no move, MLP over the channels themselves;
* vertical / horizontal mixing: MLP over the patch rows / columns;
* raft token mixing: r channel subgroups are folded into the spatial
  axis, so the vertical MLP acts on vectors of length r*h' and the
  horizontal one on length r*w'.

Multi-scale patch embedding is one ``unfold`` at kernel sizes 2^m * p
(stride p, zero padding chosen so every scale yields the same token
grid), the scales' patches side by side in ascending m in each token's
row, and one shared linear projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _tape, ops
from .ops import (
    LayerNormParams,
    LinearParams,
    _check_layer_norm,
    _check_linear,
    _gelu_forward,
    _layer_norm_forward,
    _layer_norm_vjp,
    _linear_forward,
    _linear_vjp,
    linear,
)
from .rearrange import RearrangeSpec, parse_rearrange, plan
from .tensor import PatchGrid, ShapeError, Tensor, _is_int, unfold


@dataclass(frozen=True)
class MixingParams:
    """One residual MLP: layer norm, expansion linear, contraction linear."""

    ln: LayerNormParams
    fc1: LinearParams
    fc2: LinearParams

    def __post_init__(self):
        if self.fc1.d_out != self.fc2.d_in:
            raise ShapeError(
                f"MixingParams: fc1 output {self.fc1.d_out} != fc2 input {self.fc2.d_in}"
            )
        if self.fc1.d_in != self.fc2.d_out:
            raise ShapeError(
                f"MixingParams: fc1 input {self.fc1.d_in} != fc2 output {self.fc2.d_out}"
            )


@dataclass(frozen=True)
class RaftTokenMixingParams:
    """Directional token mixing with r channel subgroups folded in.

    ``vertical`` acts on vectors of length r * h_prime, ``horizontal`` on
    r * w_prime, so the weights fix the raft size r; each direction
    carries its own layer norm over the original channels.
    """

    vertical: MixingParams
    horizontal: MixingParams


@dataclass(frozen=True)
class EmbedParams:
    """Multi-scale patch embedding: unfold scales plus shared projection."""

    stride: int
    scales: tuple
    projection: LinearParams

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("EmbedParams: stride must be >= 1")
        if not self.scales or list(self.scales) != sorted(set(self.scales)):
            raise ValueError("EmbedParams: scales must be distinct, ascending, non-empty")
        if any(m < 0 for m in self.scales):
            raise ValueError("EmbedParams: scales must be >= 0")
        if any(m >= 1 for m in self.scales) and self.stride % 2:
            raise ValueError(
                "EmbedParams: stride must be even when a scale m >= 1 is present "
                "(padding (2^m - 1) * stride / 2 must be an integer)"
            )


_NO_MOVE = (lambda arr: arr,) * 2  # channel mixing's (move, unmove) pair


def mixing_mlp(x: Tensor, p: MixingParams, to_mlp: RearrangeSpec | None = None) -> Tensor:
    """Residual MLP with the norm on the input layout and the MLP on ``to_mlp``'s.

    One body, traced or not: the steps of ``layer_norm``, ``apply_rearrange``,
    ``linear``, ``gelu``, ``linear``, the inverse rearrange and ``add``, in
    that order on plain arrays, so the same bits as that chain of ops. The
    move, the unmove and both moves of the VJP run one (move, unmove) pair:
    ``to_mlp``'s cached ``rearrange.plan`` for the input's shape, or the
    identity with no ``to_mlp``. The output is checked for finiteness once;
    a NaN or Inf raised on the way reaches it, since GELU and the matmuls
    carry it on. Inside an autograd trace the whole MLP is one tape node
    over x and the six parameters, whose VJP chains the per-op adjoints in
    reverse.
    """
    _check_layer_norm(x.shape, x.dtype, p.ln)
    arr = x.numpy()
    y, xhat, inv = _layer_norm_forward(arr, p.ln)
    move, unmove = _NO_MOVE if to_mlp is None else plan(to_mlp, y.shape)
    y = move(y)
    _check_linear(y.shape, x.dtype, p.fc1)
    h = _linear_forward(y, p.fc1)
    a = _gelu_forward(h)
    _check_linear(a.shape, x.dtype, p.fc2)
    z = unmove(_linear_forward(a, p.fc2))
    z += arr
    out = Tensor._wrap(z)

    def vjp(g):
        ga, gw2, gb2 = _linear_vjp(move(g), a, p.fc2)
        # Looked up on the module, as ops.gelu does, so a patched derivative takes effect.
        gy, gw1, gb1 = _linear_vjp(ga * ops._gelu_derivative(h), y, p.fc1)
        gx, ggamma, gbeta = _layer_norm_vjp(unmove(gy), xhat, inv, p.ln)
        return g + gx, ggamma, gbeta, gw1, gb1, gw2, gb2

    inputs = (x, p.ln.gamma, p.ln.beta, p.fc1.weight, p.fc1.bias, p.fc2.weight, p.fc2.bias)
    _tape.record("mixing_mlp", inputs, out, vjp)
    return out


def vertical_mixing(x: Tensor, p: MixingParams) -> Tensor:
    """Mix along patch rows: the same MLP on every (column, channel) fiber.

    Input is a [h', w', c] grid; the norm runs over c per token, the MLP
    over the h' axis.
    """
    if x.rank != 3:
        raise ShapeError(f"vertical_mixing needs [h', w', c], got {x.shape}")
    return mixing_mlp(x, p, parse_rearrange("h w c -> (c w) h"))


def horizontal_mixing(x: Tensor, p: MixingParams) -> Tensor:
    """Mix along patch columns; dual of :func:`vertical_mixing`."""
    if x.rank != 3:
        raise ShapeError(f"horizontal_mixing needs [h', w', c], got {x.shape}")
    return mixing_mlp(x, p, parse_rearrange("h w c -> (c h) w"))


def raft_token_mixing(x: Tensor, p: RaftTokenMixingParams, grid: PatchGrid) -> Tensor:
    """Vertical then horizontal raft mixing on a [tokens, c] tensor.

    The channel axis factors as (r o) with r (the raft size) the slow
    factor; r channel subgroups ride along with the spatial axis through
    each directional MLP. r is read from the vertical MLP's input width
    r * h', which the horizontal one's r * w' must match.
    """
    if x.rank != 2:
        raise ShapeError(f"raft_token_mixing needs [tokens, c], got {x.shape}")
    if x.shape[0] != grid.tokens:
        raise ShapeError(
            f"raft_token_mixing: {x.shape[0]} tokens != grid "
            f"{grid.h_prime}x{grid.w_prime} = {grid.tokens}"
        )
    r, rest = divmod(p.vertical.fc1.d_in, grid.h_prime)
    if rest or p.horizontal.fc1.d_in != r * grid.w_prime or x.shape[1] % r:
        raise ShapeError(
            f"raft_token_mixing: MLP widths {p.vertical.fc1.d_in} (vertical) and "
            f"{p.horizontal.fc1.d_in} (horizontal) on a {grid.h_prime}x{grid.w_prime} grid "
            f"of {x.shape[1]} channels are not r*h' and r*w' for one raft size r dividing them"
        )
    bind = {"h": grid.h_prime, "w": grid.w_prime, "r": r}
    y = mixing_mlp(x, p.vertical, parse_rearrange("(h w) (r o) -> (o w) (r h)", bind))
    return mixing_mlp(y, p.horizontal, parse_rearrange("(h w) (r o) -> (o h) (r w)", bind))


def channel_mixing(x: Tensor, p: MixingParams) -> Tensor:
    """Pointwise residual MLP over the trailing channel axis."""
    return mixing_mlp(x, p, None)


def _patch_dims(c_in: int, stride: int, scales) -> int:
    """Pre-projection channel count of a c_in-channel multi-scale unfolding."""
    return c_in * sum((2**m * stride) ** 2 for m in scales)


def multi_scale_patch_embed(x: Tensor, p: EmbedParams) -> Tensor:
    """Embed a [c_in, h, w] image into [(h/p)*(w/p), c_out] tokens.

    One ``unfold`` puts each token's patches at kernel 2^m * p, stride p,
    zero-padded by (2^m * p - p) / 2, side by side in its row, ascending in
    m; every scale shares the token grid. The shared projection maps the row.
    """
    return linear(unfold(x, [2**m * p.stride for m in p.scales], p.stride), p.projection)


# ---------------------------------------------------------------------------
# Parameter factories. Weights draw from a truncated normal (std 0.02,
# resampled beyond two sigmas), biases start at zero, norms at identity.
# ---------------------------------------------------------------------------


def trunc_normal(rng: np.random.Generator, shape, dtype: str = "f32") -> Tensor:
    """Normal draws at std 0.02, each beyond two sigmas redrawn until none is."""
    std = 0.02
    vals = rng.normal(0.0, std, size=shape)
    bad = np.abs(vals) > 2.0 * std
    while bad.any():
        vals[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(vals) > 2.0 * std
    return Tensor(vals, dtype=dtype)


def init_linear(
    rng: np.random.Generator | None,
    d_in: int,
    d_out: int,
    dtype: str = "f32",
) -> LinearParams:
    """Truncated-normal weight, zero bias; all-zero when rng is None."""
    if rng is None:
        weight = Tensor.zeros((d_in, d_out), dtype=dtype)
    else:
        weight = trunc_normal(rng, (d_in, d_out), dtype=dtype)
    return LinearParams(weight=weight, bias=Tensor.zeros((d_out,), dtype=dtype))


def init_layer_norm(dim: int, dtype: str = "f32") -> LayerNormParams:
    return LayerNormParams(
        gamma=Tensor.ones((dim,), dtype=dtype), beta=Tensor.zeros((dim,), dtype=dtype)
    )


def init_mixing(
    rng: np.random.Generator | None,
    channels: int,
    dim: int,
    hidden: int,
    dtype: str = "f32",
) -> MixingParams:
    """Mixing MLP params: norm over ``channels``, MLP dim -> hidden -> dim."""
    return MixingParams(
        ln=init_layer_norm(channels, dtype=dtype),
        fc1=init_linear(rng, dim, hidden, dtype=dtype),
        fc2=init_linear(rng, hidden, dim, dtype=dtype),
    )


def init_raft_token_mixing(
    rng: np.random.Generator | None,
    grid: PatchGrid,
    raft_size: int,
    dtype: str = "f32",
) -> RaftTokenMixingParams:
    """Raft params: directional MLPs r*h' -> 2*r*h' -> r*h' and r*w' -> 2*r*w' -> r*w'.

    Another expansion is two ``init_mixing`` calls; ``raft_token_mixing`` runs any.
    """
    if not _is_int(raft_size) or raft_size < 1 or grid.channels % raft_size:
        raise ValueError(
            f"init_raft_token_mixing: raft size {raft_size!r} must be an int >= 1 "
            f"dividing the channel count {grid.channels}"
        )
    dim_v = raft_size * grid.h_prime
    dim_h = raft_size * grid.w_prime
    return RaftTokenMixingParams(
        vertical=init_mixing(rng, grid.channels, dim_v, 2 * dim_v, dtype=dtype),
        horizontal=init_mixing(rng, grid.channels, dim_h, 2 * dim_h, dtype=dtype),
    )


def init_channel_mixing(
    rng: np.random.Generator | None,
    channels: int,
    e_chan: int = 4,
    dtype: str = "f32",
) -> MixingParams:
    return init_mixing(rng, channels, channels, e_chan * channels, dtype=dtype)


def init_embed(
    rng: np.random.Generator | None,
    c_in: int,
    c_out: int,
    stride: int,
    scales,
    dtype: str = "f32",
) -> EmbedParams:
    scales = tuple(sorted(scales))
    return EmbedParams(
        stride=stride,
        scales=scales,
        projection=init_linear(rng, _patch_dims(c_in, stride, scales), c_out, dtype=dtype),
    )
