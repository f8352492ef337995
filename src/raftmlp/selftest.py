"""Headless invariant suite and the gradient-check harness.

Everything here is callable from the CLI (`selftest`, `gradcheck`) and
from tests. Checks return structured results instead of raising, so one
failure does not hide the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .adapt import forward_adapted
from .autograd import grad_check
from .blocks import (
    EmbedParams,
    channel_mixing,
    horizontal_mixing,
    init_channel_mixing,
    init_embed,
    init_linear,
    init_mixing,
    init_raft_token_mixing,
    mixing_mlp,
    multi_scale_patch_embed,
    raft_token_mixing,
    vertical_mixing,
)
from .container import load_weights, save_weights
from .cost import (
    cost_report,
    raft_mixing_params_analytic,
    token_mixing_params_analytic,
)
from .models import (
    LevelConfig,
    Model,
    ModelConfig,
    build_model,
    build_preset,
    forward,
)
from .ops import LinearParams, bicubic_resize
from .rearrange import apply_rearrange, invert, parse_rearrange, rearrange
from .tensor import PatchGrid, Tensor, vdot

LISTING_PATTERNS = (
    ("b (h w) (r o) -> b (o w) (r h)", "b (o w) (r h) -> b (h w) (r o)"),
    ("b (h w) (r o) -> b (o h) (r w)", "b (o h) (r w) -> b (h w) (r o)"),
)

ABLATION_PARAMS = {
    "mixer-b16": 59_880_472,
    "mixer-b16-cr1": 58_105_432,
    "mixer-b16-cr2": 58_162_888,
    "mixer-b16-cr4": 58_390_696,
}

PRESET_PARAMS = {
    "raftmlp-s": 9_867_744,
    "raftmlp-m": 21_412_096,
    "raftmlp-l": 36_182_624,
}


class CheckFailure(Exception):
    """A structural check found a violated invariant."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def tiny_config(seed: int = 3) -> ModelConfig:
    """Two-level raft model with 7 classes, small enough for finite differences."""
    return ModelConfig(
        name="tiny",
        levels=(
            LevelConfig(channels=8, depth=1, stride=4, scales=(0, 1), e_chan=2, raft_size=2),
            LevelConfig(channels=16, depth=1, stride=2, scales=(0,), e_chan=2, raft_size=2),
        ),
        num_classes=7,
        resolution=(16, 16),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Gradient checks
# ---------------------------------------------------------------------------

BLOCK_NAMES = ("mixing", "vertical", "horizontal", "raft", "channel", "embed", "model")


def _probe_functional(block_fn, out_shape, rng):
    """Scalar functional <block(x), probe> with a fixed random probe."""
    probe = Tensor(rng.normal(size=out_shape), dtype="f64")
    return lambda x: vdot(block_fn(x), probe)


def gradcheck_functional(name: str, seed: int):
    """(functional, input tensor) pair for one named block, f64."""
    rng = np.random.default_rng(10_000 + seed)
    if name == "mixing":
        p = init_mixing(rng, channels=6, dim=5, hidden=10, dtype="f64")
        spec = parse_rearrange("t c -> c t")
        x = Tensor(rng.normal(size=(5, 6)), dtype="f64")
        return _probe_functional(lambda t: mixing_mlp(t, p, spec), (5, 6), rng), x
    if name == "vertical":
        p = init_mixing(rng, channels=5, dim=4, hidden=8, dtype="f64")
        x = Tensor(rng.normal(size=(4, 3, 5)), dtype="f64")
        return _probe_functional(lambda t: vertical_mixing(t, p), (4, 3, 5), rng), x
    if name == "horizontal":
        p = init_mixing(rng, channels=5, dim=3, hidden=6, dtype="f64")
        x = Tensor(rng.normal(size=(4, 3, 5)), dtype="f64")
        return _probe_functional(lambda t: horizontal_mixing(t, p), (4, 3, 5), rng), x
    if name == "raft":
        grid = PatchGrid(4, 4, 8)
        p = init_raft_token_mixing(rng, grid, raft_size=2, dtype="f64")
        x = Tensor(rng.normal(size=(16, 8)), dtype="f64")
        return _probe_functional(lambda t: raft_token_mixing(t, p, grid), (16, 8), rng), x
    if name == "channel":
        p = init_channel_mixing(rng, channels=5, e_chan=2, dtype="f64")
        x = Tensor(rng.normal(size=(6, 5)), dtype="f64")
        return _probe_functional(lambda t: channel_mixing(t, p), (6, 5), rng), x
    if name == "embed":
        p = init_embed(rng, c_in=2, c_out=5, stride=4, scales=(0, 1), dtype="f64")
        x = Tensor(rng.normal(size=(2, 8, 8)), dtype="f64")
        return _probe_functional(lambda t: multi_scale_patch_embed(t, p), (4, 5), rng), x
    if name == "model":
        model = build_model(tiny_config(seed=seed), dtype="f64")
        x = Tensor(rng.normal(size=(3, 16, 16)), dtype="f64")
        return _probe_functional(lambda t: forward(model, t), (7,), rng), x
    raise ValueError(f"unknown gradcheck block {name!r}; known: {', '.join(BLOCK_NAMES)}")


def gradcheck_tolerance(name: str) -> float:
    return 1e-4 if name == "model" else 1e-5


def gradcheck_suite(block: str = "all", seeds=(0, 1, 2, 3, 4), max_coords: int = 40):
    """Finite-difference checks; returns (CheckResult, GradCheckReport) pairs."""
    names = BLOCK_NAMES if block == "all" else (block,)
    results = []
    for name in names:
        tol = gradcheck_tolerance(name)
        for seed in seeds:
            f, x = gradcheck_functional(name, seed)
            report = grad_check(f, x, h=1e-5, max_coords=max_coords, seed=seed)
            results.append(
                (
                    CheckResult(
                        name=f"gradcheck[{name}] seed={seed}",
                        ok=report.max_rel_err < tol,
                        detail=(
                            f"max_rel_err={report.max_rel_err:.3e} "
                            f"max_abs_err={report.max_abs_err:.3e} "
                            f"(tol {tol:g}, {report.coords_checked} coords, h={report.step:g})"
                        ),
                    ),
                    report,
                )
            )
    return results


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


def _check_rearrange_roundtrip() -> str:
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 6, 8)), dtype="f64")
    bind = {"h": 2, "w": 3, "r": 2}
    for fwd_pat, inv_pat in LISTING_PATTERNS:
        spec = parse_rearrange(fwd_pat, bind)
        y = apply_rearrange(spec, x)
        back = apply_rearrange(invert(spec), y)
        if not np.array_equal(back.numpy(), x.numpy()):
            raise CheckFailure(f"roundtrip failed for {fwd_pat!r}")
        listed = apply_rearrange(parse_rearrange(inv_pat, bind), y)
        if not np.array_equal(listed.numpy(), x.numpy()):
            raise CheckFailure(f"explicit inverse pattern failed for {inv_pat!r}")
    return f"{len(LISTING_PATTERNS)} pattern pairs, bitwise"


def _check_bicubic_identity() -> str:
    rng = np.random.default_rng(1)
    for shape in ((1, 1, 1), (2, 5, 3), (3, 7, 7), (2, 16, 9)):
        x = Tensor(rng.normal(size=shape), dtype="f64")
        y = bicubic_resize(x, shape[1], shape[2])
        if not np.array_equal(y.numpy(), x.numpy()):
            raise CheckFailure(f"same-size resize changed bits at shape {shape}")
    return "same-size resize is the bitwise identity"


def _zeroed(p):
    """Mixing params with fc2 zeroed, preserving shapes."""
    z = LinearParams(
        weight=Tensor.zeros(p.fc2.weight.shape, dtype=p.fc2.weight.dtype),
        bias=Tensor.zeros(p.fc2.bias.shape, dtype=p.fc2.bias.dtype),
    )
    return replace(p, fc2=z)


def _check_residual_identity() -> str:
    rng = np.random.default_rng(2)
    x_tok = Tensor(rng.normal(size=(12, 6)), dtype="f64")
    grid = PatchGrid(4, 3, 6)

    chan = _zeroed(init_channel_mixing(rng, 6, dtype="f64"))
    if not np.array_equal(channel_mixing(x_tok, chan).numpy(), x_tok.numpy()):
        raise CheckFailure("channel mixing with zero fc2 is not the identity")

    raft = init_raft_token_mixing(rng, grid, raft_size=2, dtype="f64")
    raft = replace(raft, vertical=_zeroed(raft.vertical), horizontal=_zeroed(raft.horizontal))
    if not np.array_equal(raft_token_mixing(x_tok, raft, grid).numpy(), x_tok.numpy()):
        raise CheckFailure("raft token mixing with zero fc2 is not the identity")

    x_grid = Tensor(rng.normal(size=(4, 3, 6)), dtype="f64")
    vert = _zeroed(init_mixing(rng, channels=6, dim=4, hidden=8, dtype="f64"))
    if not np.array_equal(vertical_mixing(x_grid, vert).numpy(), x_grid.numpy()):
        raise CheckFailure("vertical mixing with zero fc2 is not the identity")
    return "zero-fc2 blocks are bitwise identities"


def _check_raft_r1() -> str:
    rng = np.random.default_rng(3)
    h, w, c = 4, 3, 5
    grid = PatchGrid(h, w, c)
    p = init_raft_token_mixing(rng, grid, raft_size=1, dtype="f64")
    x = Tensor(rng.normal(size=(h * w, c)), dtype="f64")

    tokens = raft_token_mixing(x, p, grid)
    planes = rearrange(x, "(h w) c -> h w c", h=h, w=w)
    planes = horizontal_mixing(vertical_mixing(planes, p.vertical), p.horizontal)
    composed = rearrange(planes, "h w c -> (h w) c")
    if not np.array_equal(tokens.numpy(), composed.numpy()):
        raise CheckFailure("r=1 raft mixing != vertical then horizontal mixing")
    return "r=1 raft path equals the directional composition, bitwise"


def _check_embed_scale0() -> str:
    rng = np.random.default_rng(4)
    c_in, h, w, p_stride, c_out = 3, 8, 8, 4, 6
    p = init_embed(rng, c_in, c_out, stride=p_stride, scales=(0,), dtype="f64")
    x = Tensor(rng.normal(size=(c_in, h, w)), dtype="f64")
    got = multi_scale_patch_embed(x, p)

    arr = x.numpy()
    rows = []
    for i in range(h // p_stride):
        for j in range(w // p_stride):
            patch = arr[:, i * p_stride : (i + 1) * p_stride, j * p_stride : (j + 1) * p_stride]
            rows.append(patch.reshape(-1))
    expected = np.stack(rows) @ p.projection.weight.numpy() + p.projection.bias.numpy()
    if not np.array_equal(got.numpy(), expected):
        raise CheckFailure("scales {0} embedding differs from plain patch embedding")
    return "scales {0} embedding equals plain patch embedding, bitwise"


def _fc_count(dim: int, e: int) -> int:
    """Weights and biases of a built dim -> e*dim -> dim MLP (its norm excluded)."""
    p = init_mixing(None, channels=1, dim=dim, hidden=e * dim)
    return sum(t.size for t in (p.fc1.weight, p.fc1.bias, p.fc2.weight, p.fc2.bias))


def _check_analytic_exact() -> str:
    for hp in range(1, 7):
        for wp in range(1, 7):
            for e in (1, 2):
                if token_mixing_params_analytic(hp, wp, e) != _fc_count(hp * wp, e):
                    raise CheckFailure(f"token formula mismatch at h'={hp} w'={wp} e={e}")
                for r in (1, 2):
                    expected = _fc_count(r * hp, e) + _fc_count(r * wp, e)
                    if raft_mixing_params_analytic(hp, wp, e, r) != expected:
                        raise CheckFailure(f"raft formula mismatch at h'={hp} w'={wp} e={e} r={r}")
    return "formulas equal constructed-layer counts on the small sweep"


def _check_params(table: dict, passed: str):
    """A check that every preset in ``table`` has exactly its tabled parameter count."""

    def check() -> str:
        for preset, expected in table.items():
            got = cost_report(build_preset(preset, init="zeros")).params_total
            if got != expected:
                raise CheckFailure(f"{preset}: {got} params, expected {expected}")
        return passed

    return check


def _check_adapter_identity() -> str:
    model = build_model(tiny_config(), dtype="f64")
    rng = np.random.default_rng(5)
    image = Tensor(rng.normal(size=(3, 16, 16)), dtype="f64")
    plain = forward(model, image)
    adapted = forward_adapted(model, image)
    if not np.array_equal(plain.numpy(), adapted.numpy()):
        raise CheckFailure("adapted forward differs at the native resolution")
    return "adapted forward is bitwise identical at the native resolution"


def _check_container_roundtrip() -> str:
    import os
    import tempfile

    model = build_model(tiny_config(), dtype="f64")
    rng = np.random.default_rng(6)
    image = Tensor(rng.normal(size=(3, 16, 16)), dtype="f64")
    before = forward(model, image)
    fd, path = tempfile.mkstemp(suffix=".rftw")
    os.close(fd)
    try:
        save_weights(model, path)
        restored = load_weights(build_model(tiny_config(), init="zeros", dtype="f64"), path)
        after = forward(restored, image)
    finally:
        os.unlink(path)
    if not np.array_equal(before.numpy(), after.numpy()):
        raise CheckFailure("logits changed across a save/load roundtrip")
    return "save/load roundtrip preserves logits bitwise"


_CHECKS = (
    ("rearrange-roundtrip", _check_rearrange_roundtrip),
    ("bicubic-identity", _check_bicubic_identity),
    ("residual-identity", _check_residual_identity),
    ("raft-r1-equivalence", _check_raft_r1),
    ("embed-scale0", _check_embed_scale0),
    ("analytic-vs-exact", _check_analytic_exact),
    ("ablation-params", _check_params(ABLATION_PARAMS, "all four ablation counts reproduce exactly")),
    ("preset-params", _check_params(PRESET_PARAMS, "raft preset counts reproduce exactly")),
    ("adapter-native-identity", _check_adapter_identity),
    ("container-roundtrip", _check_container_roundtrip),
)


def run() -> list:
    """Run every structural check plus a quick gradient check."""
    results = []
    for name, fn in _CHECKS:
        try:
            ok, detail = True, fn()
        except CheckFailure as exc:
            ok, detail = False, str(exc)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, ok=ok, detail=detail))
    for result, _ in gradcheck_suite(seeds=(0,), max_coords=16):
        results.append(result)
    return results
