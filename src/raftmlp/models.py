"""Named architectures: hierarchical raft models and the Mixer-B/16 family.

A model is a chain of levels; each level embeds the incoming map into a
token grid and runs a stack of blocks (token mixing followed by channel
mixing). The classifier is global average pooling plus one linear layer.

Presets
-------
``PRESETS`` maps each name to its ``ModelConfig`` (224 x 224 input, 1000
classes, seed 0); ``preset_config`` and ``build_preset`` take a name and
override ``num_classes``, ``resolution`` and ``seed``. Every level has
channel expansion 4, and the single scale {0} where the table below names
no other; each raft level expands by 2 in both directions.

raftmlp-s / raftmlp-m / raftmlp-l
    Four levels, strides (4, 2, 2, 2), depths (2, 2, 6, 2), raft token
    mixing at raft size 2, scales {0, 1} on the first three levels and
    {0} on the last. Channels:
    S (64, 128, 256, 512), M (96, 192, 384, 768), L (128, 192, 512, 1024).
mixer-b16
    Single level, stride-16 patches, 768 channels, 12 blocks, plain
    token mixing with a 384-wide hidden layer, and a final layer norm
    before pooling.
mixer-b16-cr1 / -cr2 / -cr4
    mixer-b16 with raft token mixing at raft size 1, 2 or 4 in place of
    plain token mixing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Union

import numpy as np

from .blocks import (
    EmbedParams,
    MixingParams,
    RaftTokenMixingParams,
    channel_mixing,
    init_channel_mixing,
    init_embed,
    init_layer_norm,
    init_linear,
    init_mixing,
    init_raft_token_mixing,
    mixing_mlp,
    multi_scale_patch_embed,
    raft_token_mixing,
)
from .ops import LayerNormParams, LinearParams, global_avg_pool, layer_norm, linear
from .rearrange import parse_rearrange, rearrange
from .tensor import PatchGrid, ShapeError, Tensor, _is_int

_TOKEN_TRANSPOSE = parse_rearrange("t c -> c t")


@dataclass(frozen=True)
class LevelConfig:
    """One hierarchy level: embedding geometry plus block stack settings.

    Exactly one of ``raft_size`` (raft token mixing, expansion 2 in each
    direction) and ``token_hidden`` (a plain transposed token MLP this
    wide) names the level's token mixer.
    """

    channels: int
    depth: int
    stride: int
    scales: tuple = (0,)
    e_chan: int = 4
    raft_size: Optional[int] = None
    token_hidden: Optional[int] = None

    def __post_init__(self):
        if not self.scales or any(not _is_int(m) or m < 0 for m in self.scales):
            raise ValueError(f"LevelConfig: scales must be one or more ints >= 0: {self.scales}")
        object.__setattr__(self, "scales", tuple(sorted(set(self.scales))))
        if (self.raft_size is None) == (self.token_hidden is None):
            raise ValueError(
                "LevelConfig: set exactly one of raft_size and token_hidden, got "
                f"raft_size={self.raft_size!r}, token_hidden={self.token_hidden!r}"
            )
        mixer = "raft_size" if self.token_hidden is None else "token_hidden"
        for name in ("channels", "depth", "stride", "e_chan", mixer):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"LevelConfig: {name} must be an int >= 1, got {value!r}")
        if self.scales[-1] >= 1 and self.stride % 2:
            raise ValueError(f"LevelConfig: stride {self.stride} must be even with a scale >= 1")
        if self.raft_size is not None and self.channels % self.raft_size:
            raise ValueError(
                f"LevelConfig: raft size {self.raft_size} must divide channels {self.channels}"
            )


@dataclass(frozen=True)
class ModelConfig:
    """Complete architectural description of one model."""

    name: str
    levels: tuple
    num_classes: int = 1000
    resolution: tuple = (224, 224)
    final_norm: bool = False
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels or not all(isinstance(lvl, LevelConfig) for lvl in self.levels):
            raise ValueError(f"ModelConfig: levels must be one or more LevelConfigs: {self.levels}")
        if not isinstance(self.final_norm, bool):
            raise ValueError(f"ModelConfig: final_norm must be a bool, got {self.final_norm!r}")
        if not _is_int(self.num_classes) or self.num_classes < 1:
            raise ValueError(
                f"ModelConfig: num_classes must be an int >= 1, got {self.num_classes!r}"
            )
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"ModelConfig: seed must be an int >= 0, got {self.seed!r}")
        self.grids()
        object.__setattr__(self, "resolution", tuple(self.resolution))

    @property
    def total_stride(self) -> int:
        return math.prod(lvl.stride for lvl in self.levels)

    def grids(self, resolution: Optional[tuple] = None) -> tuple:
        """Per-level token grids at a resolution (default: the configured one) of two ints >= 1."""
        resolution = self.resolution if resolution is None else resolution
        if not isinstance(resolution, (tuple, list)) or len(resolution) != 2 or not all(
            _is_int(v) and v >= 1 for v in resolution
        ):
            raise ValueError(f"ModelConfig: resolution must be two ints >= 1, got {resolution!r}")
        h, w = resolution
        out = []
        for i, lvl in enumerate(self.levels, start=1):
            if h % lvl.stride or w % lvl.stride:
                raise ValueError(
                    f"resolution {resolution}: level {i} stride {lvl.stride} does not divide "
                    f"the incoming {h}x{w} map"
                )
            h //= lvl.stride
            w //= lvl.stride
            out.append(PatchGrid(h, w, lvl.channels))
        return tuple(out)


TokenParams = Union[RaftTokenMixingParams, MixingParams]


@dataclass(frozen=True)
class BlockParams:
    token: TokenParams
    channel: MixingParams


@dataclass(frozen=True)
class LevelParams:
    embed: EmbedParams
    blocks: tuple


@dataclass(frozen=True)
class Model:
    config: ModelConfig
    levels: tuple
    head: LinearParams
    final_norm: Optional[LayerNormParams]


def build_model(config: ModelConfig, init: str = "trunc_normal", dtype: str = "f32") -> Model:
    """Materialize parameters for a config.

    ``init`` is "trunc_normal" (seeded from config.seed) or "zeros"; the
    zero form is cheap and sufficient for structural work such as
    parameter counting.
    """
    if init == "trunc_normal":
        rng = np.random.default_rng(config.seed)
    elif init == "zeros":
        rng = None
    else:
        raise ValueError(f"unknown init {init!r}")

    grids = config.grids()
    levels = []
    c_in = 3
    for lvl, grid in zip(config.levels, grids):
        embed = init_embed(rng, c_in, lvl.channels, lvl.stride, lvl.scales, dtype=dtype)
        blocks = []
        for _ in range(lvl.depth):
            if lvl.token_hidden is None:
                token = init_raft_token_mixing(rng, grid, lvl.raft_size, dtype=dtype)
            else:
                token = init_mixing(rng, lvl.channels, grid.tokens, lvl.token_hidden, dtype=dtype)
            chan = init_channel_mixing(rng, lvl.channels, lvl.e_chan, dtype=dtype)
            blocks.append(BlockParams(token=token, channel=chan))
        levels.append(LevelParams(embed=embed, blocks=tuple(blocks)))
        c_in = lvl.channels

    final = init_layer_norm(c_in, dtype=dtype) if config.final_norm else None
    head = init_linear(rng, c_in, config.num_classes, dtype=dtype)
    return Model(config=config, levels=tuple(levels), head=head, final_norm=final)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _raftmlp(variant: str, channels: tuple) -> ModelConfig:
    strides, depths, scales = (4, 2, 2, 2), (2, 2, 6, 2), ((0, 1), (0, 1), (0, 1), (0,))
    levels = tuple(
        LevelConfig(channels=c, depth=d, stride=s, scales=sc, raft_size=2)
        for c, d, s, sc in zip(channels, depths, strides, scales)
    )
    return ModelConfig(name=f"raftmlp-{variant}", levels=levels)


def _mixer_b16(suffix: str, **token_mixing) -> ModelConfig:
    level = LevelConfig(channels=768, depth=12, stride=16, **token_mixing)
    return ModelConfig(name=f"mixer-b16{suffix}", levels=(level,), final_norm=True)


PRESETS = {
    config.name: config
    for config in (
        _raftmlp("s", (64, 128, 256, 512)),
        _raftmlp("m", (96, 192, 384, 768)),
        _raftmlp("l", (128, 192, 512, 1024)),
        _mixer_b16("", token_hidden=384),
        *(_mixer_b16(f"-cr{r}", raft_size=r) for r in (1, 2, 4)),
    )
}


def preset_config(
    name: str, num_classes: int = 1000, resolution: tuple = (224, 224), seed: int = 0
) -> ModelConfig:
    """``PRESETS[name]`` with the given class count, input resolution and init seed."""
    try:
        config = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r}; known presets: {known}") from None
    return replace(config, num_classes=num_classes, resolution=resolution, seed=seed)


def build_preset(name: str, init: str = "trunc_normal", dtype: str = "f32", **kwargs) -> Model:
    return build_model(preset_config(name, **kwargs), init=init, dtype=dtype)


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------


def token_mix(tokens: Tensor, p: TokenParams, grid: PatchGrid) -> Tensor:
    """Dispatch one token-mixing block (raft or plain transposed MLP)."""
    if isinstance(p, RaftTokenMixingParams):
        return raft_token_mixing(tokens, p, grid)
    return mixing_mlp(tokens, p, _TOKEN_TRANSPOSE)


@functools.lru_cache(maxsize=64)
def _level_grids(config: ModelConfig, resolution: tuple) -> tuple:
    """(run grid, build grid) of each level for an image of ``resolution``."""
    return tuple(zip(config.grids(resolution), config.grids()))


def _run_levels(model: Model, image: Tensor, mix_tokens) -> list:
    """Post-block tokens of every level, with ``mix_tokens`` as the token step.

    ``mix_tokens(tokens, params, run_grid, build_grid)`` mixes [tokens, c]
    on the image's grid; ``build_grid`` is the one the parameters fit.
    """
    outputs = []
    x = image
    for index, (params, (run, build)) in enumerate(
        zip(model.levels, _level_grids(model.config, image.shape[1:]))
    ):
        tokens = multi_scale_patch_embed(x, params.embed)
        for block in params.blocks:
            tokens = mix_tokens(tokens, block.token, run, build)
            tokens = channel_mixing(tokens, block.channel)
        outputs.append(tokens)
        if index + 1 < len(model.levels):
            x = rearrange(tokens, "(h w) c -> c h w", h=run.h_prime, w=run.w_prime)
    return outputs


def _native_token_mix(tokens: Tensor, p: TokenParams, run: PatchGrid, build: PatchGrid) -> Tensor:
    return token_mix(tokens, p, run)


def _classify(model: Model, tokens: Tensor) -> Tensor:
    if model.final_norm is not None:
        tokens = layer_norm(tokens, model.final_norm)
    return linear(global_avg_pool(tokens), model.head)


def _check_image(model: Model, image: Tensor, entry: str) -> None:
    """Raise ``ShapeError`` unless ``image`` is [3, h, w] in the model's dtype."""
    dtype = model.head.weight.dtype
    if image.rank != 3 or image.shape[0] != 3 or image.dtype != dtype:
        raise ShapeError(
            f"{entry} expects a [3, h, w] {dtype} image, got {image.dtype} {image.shape}"
        )


def _check_size(config: ModelConfig, size: tuple, entry: str, hint: str) -> None:
    """Raise ``ShapeError`` naming both sizes and ``hint`` unless (h, w) ``size`` is native."""
    if size != config.resolution:
        (h, w), (native_h, native_w) = size, config.resolution
        raise ShapeError(
            f"{entry}: {config.name} runs at {native_h}x{native_w}, the image is {h}x{w}; {hint}"
        )


def _check_native(model: Model, image: Tensor, entry: str) -> None:
    _check_image(model, image, entry)
    _check_size(model.config, image.shape[1:], entry, "use raftmlp.adapt.forward_adapted instead")


def forward(model: Model, image: Tensor) -> Tensor:
    """Logits for one [3, h, w] image in the model's dtype at the configured resolution."""
    _check_native(model, image, "forward")
    return _classify(model, _run_levels(model, image, _native_token_mix)[-1])


def level_outputs(model: Model, image: Tensor) -> list:
    """Post-block token tensors [tokens_l, c_l], one per level, for a ``forward`` image."""
    _check_native(model, image, "level_outputs")
    return _run_levels(model, image, _native_token_mix)


# ---------------------------------------------------------------------------
# Parameter naming
# ---------------------------------------------------------------------------


def _map_parameters(model: Model, fn) -> Model:
    """Model rebuilt with every tensor replaced by ``fn(name, tensor)``.

    This walk is the one place that spells parameter names. It visits
    tensors in a fixed order (embed, each block's token then channel
    mixing, final norm, head), which is the order of ``named_parameters``
    and of saved weight files.
    """

    def lin(prefix, p):
        return replace(
            p, weight=fn(f"{prefix}.weight", p.weight), bias=fn(f"{prefix}.bias", p.bias)
        )

    def ln(prefix, p):
        return replace(p, gamma=fn(f"{prefix}.gamma", p.gamma), beta=fn(f"{prefix}.beta", p.beta))

    def mix(prefix, p):
        return replace(
            p,
            ln=ln(f"{prefix}.ln", p.ln),
            fc1=lin(f"{prefix}.fc1", p.fc1),
            fc2=lin(f"{prefix}.fc2", p.fc2),
        )

    def token(prefix, p):
        if isinstance(p, RaftTokenMixingParams):
            return replace(
                p,
                vertical=mix(f"{prefix}.vertical", p.vertical),
                horizontal=mix(f"{prefix}.horizontal", p.horizontal),
            )
        return mix(prefix, p)

    levels = []
    for l, level in enumerate(model.levels, start=1):
        projection = lin(f"level{l}.embed.proj", level.embed.projection)
        embed = replace(level.embed, projection=projection)
        blocks = tuple(
            BlockParams(
                token=token(f"level{l}.block{i}.token", block.token),
                channel=mix(f"level{l}.block{i}.channel", block.channel),
            )
            for i, block in enumerate(level.blocks, start=1)
        )
        levels.append(LevelParams(embed=embed, blocks=blocks))
    final = ln("final_norm", model.final_norm) if model.final_norm is not None else None
    head = lin("head", model.head)
    return replace(model, levels=tuple(levels), head=head, final_norm=final)


def named_parameters(model: Model) -> dict:
    """Stable name -> tensor mapping covering every stored scalar."""
    items = {}

    def collect(name, tensor):
        items[name] = tensor
        return tensor

    _map_parameters(model, collect)
    return items


def _mismatch(model: Model, params: Mapping[str, Tensor]) -> tuple:
    """(missing names, extra names, misfits) of ``params`` against the model.

    A misfit is a tensor whose dtype or shape differs from the model's
    parameter of the same name; each is described in one string.
    """
    current = named_parameters(model)
    missing = sorted(set(current) - set(params))
    extra = sorted(set(params) - set(current))
    misfits = [
        f"{name} is {params[name].dtype} {params[name].shape}, "
        f"model has {want.dtype} {want.shape}"
        for name, want in current.items()
        if name in params and (params[name].dtype, params[name].shape) != (want.dtype, want.shape)
    ]
    return missing, extra, misfits


def replace_parameters(model: Model, params: Mapping[str, Tensor]) -> Model:
    """New model with tensors substituted by name.

    The name sets must match, and each tensor must have its parameter's
    dtype and shape; otherwise ``ValueError`` lists every difference.
    """
    missing, extra, misfits = _mismatch(model, params)
    if missing or extra:
        raise ValueError(
            f"parameter names do not match the model: missing {missing}, extra {extra}"
        )
    if misfits:
        raise ValueError("parameters do not fit the model: " + "; ".join(misfits))
    return _map_parameters(model, lambda name, _: params[name])
