"""Resolution adaptation: snapping, the bicubic sandwich, and identity."""

import numpy as np
import pytest

from raftmlp.adapt import (
    MAX_EXTENT,
    adapted_token_mixing,
    forward_adapted,
    pre_embed_resize,
)
from raftmlp.blocks import channel_mixing, multi_scale_patch_embed
from raftmlp.models import (
    LevelConfig,
    ModelConfig,
    build_model,
    build_preset,
    forward,
    token_mix,
)
from raftmlp.autograd import grad_check
from raftmlp.ops import bicubic_resize, global_avg_pool, linear
from raftmlp.rearrange import rearrange
from raftmlp.tensor import PatchGrid, ShapeError, Tensor, mul, sum_all

PRESET_NAMES = (
    "raftmlp-s",
    "raftmlp-m",
    "raftmlp-l",
    "mixer-b16",
    "mixer-b16-cr1",
    "mixer-b16-cr2",
    "mixer-b16-cr4",
)


def tiny_config(resolution=(32, 32), seed=11):
    return ModelConfig(
        name="tiny",
        levels=(
            LevelConfig(channels=8, depth=1, stride=4, scales=(0, 1), raft_size=2, e_chan=2),
            LevelConfig(channels=16, depth=1, stride=2, scales=(0,), raft_size=2, e_chan=2),
        ),
        num_classes=4,
        resolution=resolution,
        seed=seed,
    )


class TestPreEmbedResize:
    def test_on_grid_returns_same_object(self):
        image = Tensor(np.random.default_rng(0).normal(size=(3, 224, 224)))
        assert pre_embed_resize(image, 32) is image

    def test_rounds_to_nearest_stride_multiple(self):
        image = Tensor(np.random.default_rng(1).normal(size=(3, 197, 131)))
        out = pre_embed_resize(image, 32)
        assert out.shape == (3, 192, 128)

    def test_never_collapses_below_one_stride(self):
        image = Tensor(np.random.default_rng(2).normal(size=(3, 16, 16)))
        out = pre_embed_resize(image, 32)
        assert out.shape == (3, 32, 32)

    @pytest.mark.parametrize(
        "extent, want",
        [(1, 32), (15, 32), (16, 32), (47, 32), (48, 64), (49, 64), (80, 96), (95, 96)],
    )
    def test_half_up_tie_break(self, extent, want):
        image = Tensor(np.zeros((1, extent, 32)))
        assert pre_embed_resize(image, 32).shape == (1, want, 32)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            pre_embed_resize(Tensor(np.zeros((4, 4))), 2)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            pre_embed_resize(Tensor(np.zeros((1, 4, 4))), 0)

    @pytest.mark.parametrize("stride", [2.5, 2.0, True])
    def test_rejects_a_stride_that_is_not_an_exact_int(self, stride):
        # Unchecked, 2.5 returns the 10 x 10 image unchanged and True acts as 1.
        with pytest.raises(ValueError, match="must be an int"):
            pre_embed_resize(Tensor(np.zeros((1, 10, 10))), stride)


class TestSandwich:
    def test_collapses_at_equal_grids(self):
        model = build_model(tiny_config(), dtype="f64")
        grid = model.config.grids()[0]
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(grid.tokens, grid.channels)), dtype="f64")
        token = model.levels[0].blocks[0].token
        plain = token_mix(x, token, grid).numpy()
        wrapped = adapted_token_mixing(x, token, grid, grid).numpy()
        assert np.array_equal(plain, wrapped)

    def test_changes_grid_and_returns(self):
        model = build_model(tiny_config(), dtype="f64")
        train = model.config.grids()[0]
        run = PatchGrid(h_prime=12, w_prime=10, channels=train.channels)
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(run.tokens, run.channels)), dtype="f64")
        out = adapted_token_mixing(x, model.levels[0].blocks[0].token, run, train)
        assert out.shape == (run.tokens, run.channels)
        assert np.isfinite(out.numpy()).all()

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize(
        "run_hw", [(6, 5), (12, 10), (8, 11), (5, 8)], ids=["down", "up", "h-same", "w-same"]
    )
    def test_bitwise_equal_to_resampling_planes(self, run_hw, dtype):
        # The token-layout sandwich against the same block with each
        # resample done by bicubic_resize on the [c, h, w] planes.
        model = build_model(tiny_config(), dtype=dtype)
        train = model.config.grids()[0]
        run = PatchGrid(h_prime=run_hw[0], w_prime=run_hw[1], channels=train.channels)
        token = model.levels[0].blocks[0].token
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(run.tokens, run.channels)), dtype=dtype)

        def resample(t, src, dst):
            planes = rearrange(t, "(h w) c -> c h w", h=src.h_prime, w=src.w_prime)
            planes = bicubic_resize(planes, dst.h_prime, dst.w_prime)
            return rearrange(planes, "c h w -> (h w) c")

        want = resample(token_mix(resample(x, run, train), token, train), train, run)
        got = adapted_token_mixing(x, token, run, train)
        assert np.array_equal(got.numpy(), want.numpy())

    def test_gradient_through_the_sandwich(self):
        model = build_model(tiny_config(), dtype="f64")
        train = model.config.grids()[0]
        run = PatchGrid(h_prime=6, w_prime=11, channels=train.channels)
        token = model.levels[0].blocks[0].token
        rng = np.random.default_rng(14)
        probe = Tensor(rng.normal(size=(run.tokens, run.channels)), dtype="f64")
        x = Tensor(rng.normal(size=(run.tokens, run.channels)), dtype="f64")
        report = grad_check(
            lambda t: sum_all(mul(adapted_token_mixing(t, token, run, train), probe)),
            x,
            max_coords=80,
        )
        assert report.max_rel_err < 1e-5

    def test_constant_channels_pass_through_resampling(self):
        # Bicubic resampling preserves constants, layer norm sends a
        # constant map to pure beta, so with zeroed fc2 the sandwich is
        # the identity on channel-constant inputs even across grids.
        model = build_model(tiny_config(), init="zeros", dtype="f64")
        train = model.config.grids()[0]
        run = PatchGrid(h_prime=11, w_prime=9, channels=train.channels)
        values = np.arange(run.channels, dtype=np.float64)
        x = Tensor(np.tile(values, (run.tokens, 1)), dtype="f64")
        out = adapted_token_mixing(x, model.levels[0].blocks[0].token, run, train)
        assert np.max(np.abs(out.numpy() - x.numpy())) < 1e-12


class TestForwardAdapted:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_native_resolution_is_bitwise_plain_forward(self, name):
        model = build_preset(name)
        image = Tensor(np.random.default_rng(5).normal(size=(3, 224, 224)), dtype="f32")
        plain = forward(model, image).numpy()
        adapted = forward_adapted(model, image).numpy()
        assert np.array_equal(plain, adapted)

    def test_tiny_native_identity_f64(self):
        model = build_model(tiny_config(), dtype="f64")
        image = Tensor(np.random.default_rng(6).normal(size=(3, 32, 32)), dtype="f64")
        assert np.array_equal(
            forward(model, image).numpy(), forward_adapted(model, image).numpy()
        )

    @pytest.mark.parametrize(
        "build, shape, dtype",
        [
            (lambda: build_model(tiny_config(), dtype="f64"), (3, 40, 56), "f64"),
            (lambda: build_preset("raftmlp-s"), (3, 197, 131), "f32"),
        ],
        ids=["tiny-f64-40x56", "raftmlp-s-f32-197x131"],
    )
    def test_off_grid_matches_straight_line_composition(self, build, shape, dtype):
        # Hand-compose the exact op sequence of the adapted forward pass.
        model = build()
        image = Tensor(np.random.default_rng(12).normal(size=shape), dtype=dtype)
        got = forward_adapted(model, image).numpy()

        x = pre_embed_resize(image, model.config.total_stride)
        runs = model.config.grids((x.shape[1], x.shape[2]))
        for params, run, train in zip(model.levels, runs, model.config.grids()):
            tokens = multi_scale_patch_embed(x, params.embed)
            for block in params.blocks:
                tokens = adapted_token_mixing(tokens, block.token, run, train)
                tokens = channel_mixing(tokens, block.channel)
            x = rearrange(tokens, "(h w) c -> c h w", h=run.h_prime, w=run.w_prime)
        want = linear(global_avg_pool(tokens), model.head).numpy()
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(3, 16, 16), (3, 48, 48), (3, 40, 56), (3, 33, 31)])
    def test_off_grid_shapes_produce_finite_logits(self, shape):
        model = build_model(tiny_config(), dtype="f64")
        image = Tensor(np.random.default_rng(7).normal(size=shape), dtype="f64")
        logits = forward_adapted(model, image).numpy()
        assert logits.shape == (4,)
        assert np.isfinite(logits).all()

    def test_larger_resolution_on_a_preset(self):
        model = build_preset("raftmlp-s")
        image = Tensor(np.random.default_rng(8).normal(size=(3, 256, 256)), dtype="f32")
        logits = forward_adapted(model, image).numpy()
        assert logits.shape == (1000,)
        assert np.isfinite(logits).all()

    def test_smaller_resolution_on_a_preset(self):
        model = build_preset("raftmlp-s")
        image = Tensor(np.random.default_rng(9).normal(size=(3, 160, 160)), dtype="f32")
        logits = forward_adapted(model, image).numpy()
        assert logits.shape == (1000,)
        assert np.isfinite(logits).all()

    def test_extent_cap_is_checked_before_resampling(self, monkeypatch):
        import raftmlp.adapt as adapt

        model = build_model(tiny_config(), dtype="f64")
        at_cap = Tensor(np.ones((3, MAX_EXTENT, 8)), dtype="f64")
        assert np.isfinite(forward_adapted(model, at_cap).numpy()).all()

        def no_resize(*args):
            raise AssertionError("pre_embed_resize ran on an image over the cap")

        monkeypatch.setattr(adapt, "pre_embed_resize", no_resize)
        for shape in ((3, MAX_EXTENT + 1, 8), (3, 8, MAX_EXTENT + 1)):
            with pytest.raises(ShapeError, match=f"{MAX_EXTENT}-pixel cap"):
                forward_adapted(model, Tensor(np.ones(shape), dtype="f64"))

    @pytest.mark.parametrize(
        "shape, dtype, model_dtype",
        [
            ((4, 300, 300), "f64", "f64"),
            ((1, 40, 40), "f64", "f64"),
            ((40, 40), "f64", "f64"),
            ((3, 40, 40), "f64", "f32"),
            ((3, 40, 40), "f32", "f64"),
        ],
        ids=["four-channels", "one-channel", "rank-2", "f64-on-f32-model", "f32-on-f64-model"],
    )
    def test_image_is_checked_before_resampling(self, monkeypatch, shape, dtype, model_dtype):
        import raftmlp.adapt as adapt

        model = build_model(tiny_config(), dtype=model_dtype)

        def no_resize(*args):
            raise AssertionError("pre_embed_resize ran on a misfit image")

        monkeypatch.setattr(adapt, "pre_embed_resize", no_resize)
        image = Tensor(np.ones(shape), dtype=dtype)
        with pytest.raises(ShapeError, match=rf"\[3, h, w\] {model_dtype} image"):
            forward_adapted(model, image)

    def test_off_stride_input_is_snapped_first(self):
        # 197 x 131 snaps to 192 x 128, after which both run and train
        # grids are well formed at every level.
        model = build_model(tiny_config(), dtype="f64")
        image = Tensor(np.random.default_rng(10).normal(size=(3, 197, 131)), dtype="f64")
        snapped = pre_embed_resize(image, model.config.total_stride)
        direct = forward_adapted(model, image).numpy()
        via_snap = forward_adapted(model, snapped).numpy()
        assert np.array_equal(direct, via_snap)

    def test_matches_plain_forward_on_rebuilt_model(self):
        # Building the same seed at the runtime resolution gives a model
        # whose plain forward agrees in shape (weights for token mixing
        # differ in size, so only the contract is compared).
        adapted_model = build_model(tiny_config(resolution=(32, 32)), dtype="f64")
        native_model = build_model(tiny_config(resolution=(48, 48)), dtype="f64")
        image = Tensor(np.random.default_rng(11).normal(size=(3, 48, 48)), dtype="f64")
        a = forward_adapted(adapted_model, image).numpy()
        b = forward(native_model, image).numpy()
        assert a.shape == b.shape

    @pytest.mark.parametrize("grid", [2, 3, 5, 8, 11, 14])
    def test_grid_sweep_shape_contract(self, grid):
        model = build_model(tiny_config(), dtype="f64")
        stride = model.config.total_stride
        image = Tensor(
            np.random.default_rng(grid).normal(size=(3, grid * stride, grid * stride)),
            dtype="f64",
        )
        logits = forward_adapted(model, image).numpy()
        assert logits.shape == (4,)
        assert np.isfinite(logits).all()
