"""Multiply-accumulate tally from weight shapes and sites.

One linear application costs sites * d_in * d_out MACs, where the sites
are the positions the weight is applied at. Layer norms, GELU, residual
adds, pooling and rearrangements count zero. The same rule prices a
whole model (``model_tally``, from ``named_parameters`` shapes and the
reference architecture table) and single block calls (from the call's
arguments, in the tracer).
"""

from __future__ import annotations

from reference import RefArch

# The stages a forward pass's MACs split into; traced runs span each of them.
STAGES = ("embed", "token_mix.raft", "token_mix.plain", "channel_mix", "head")

# README totals at 224 x 224.
README_MACS_224 = {
    "raftmlp-s": 2_087_030_784,
    "mixer-b16": 12_601_767_936,
}


def linear_macs(sites: int, weight_shape) -> int:
    return sites * weight_shape[0] * weight_shape[1]


def mlp_macs(elements: int, fc1_shape, fc2_shape) -> int:
    """MACs of fc2(gelu(fc1(v))) applied along the trailing axis of ``elements`` scalars."""
    sites = elements // fc1_shape[0]
    return linear_macs(sites, fc1_shape) + linear_macs(sites, fc2_shape)


def model_tally(shapes: dict, arch: RefArch, resolution) -> tuple:
    """(rows, stages) MAC counts of one forward pass at ``resolution``.

    ``rows`` uses the module names of ``cost_report``; ``stages`` splits
    the same total into embed, raft and plain token mixing, channel
    mixing and head. Token mixing is priced on the grid the weights were
    built for (the resolution adapter resamples to it); embedding and
    channel mixing on the runtime grid.
    """
    rows = {}
    stages = dict.fromkeys(STAGES, 0)
    h, w = resolution
    th, tw = arch.resolution
    for li, lvl in enumerate(arch.levels, start=1):
        h, w, th, tw = h // lvl.stride, w // lvl.stride, th // lvl.stride, tw // lvl.stride
        embed = linear_macs(h * w, shapes[f"level{li}.embed.proj.weight"])
        rows[f"level{li}.embed"] = embed
        stages["embed"] += embed
        blocks = 0
        for bi in range(1, lvl.depth + 1):
            p = f"level{li}.block{bi}"
            if lvl.mixing == "raft":
                token = sum(
                    mlp_macs(th * tw * lvl.channels, shapes[f"{p}.token.{d}.fc1.weight"],
                             shapes[f"{p}.token.{d}.fc2.weight"])
                    for d in ("vertical", "horizontal")
                )
            else:
                token = mlp_macs(th * tw * lvl.channels, shapes[f"{p}.token.fc1.weight"],
                                 shapes[f"{p}.token.fc2.weight"])
            stages[f"token_mix.{lvl.mixing}"] += token
            channel = mlp_macs(h * w * lvl.channels, shapes[f"{p}.channel.fc1.weight"],
                               shapes[f"{p}.channel.fc2.weight"])
            stages["channel_mix"] += channel
            blocks += token + channel
        rows[f"level{li}.blocks"] = blocks
    if arch.final_norm:
        rows["final_norm"] = 0
    rows["head"] = stages["head"] = linear_macs(1, shapes["head.weight"])
    return rows, stages
