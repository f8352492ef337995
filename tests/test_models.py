"""Model presets, the forward pass, and parameter plumbing."""

import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import raftmlp

from raftmlp.adapt import forward_adapted
from raftmlp.autograd import trace
from raftmlp.blocks import channel_mixing, multi_scale_patch_embed, raft_token_mixing
from raftmlp.cost import cost_report
from raftmlp.models import (
    LevelConfig,
    ModelConfig,
    PRESETS,
    _classify,
    build_model,
    build_preset,
    forward,
    level_outputs,
    named_parameters,
    preset_config,
    replace_parameters,
)
from raftmlp.ops import global_avg_pool, linear
from raftmlp.rearrange import rearrange
from raftmlp.tensor import ShapeError, Tensor


def tiny32_config(seed=17):
    """The small two-level layout used by the compositional oracle."""
    return ModelConfig(
        name="tiny32",
        levels=(
            LevelConfig(channels=8, depth=1, stride=4, scales=(0, 1), raft_size=2, e_chan=2),
            LevelConfig(channels=16, depth=1, stride=2, scales=(0,), raft_size=2, e_chan=2),
        ),
        num_classes=5,
        resolution=(32, 32),
        seed=seed,
    )


def draw_config(data, channels=(2, 4, 6), raft_sizes=(1, 2)) -> ModelConfig:
    """A random small config of one or two levels, raft or plain mixing."""
    levels = []
    for _ in range(data.draw(st.integers(1, 2), label="levels")):
        c = data.draw(st.sampled_from(channels))
        stride = data.draw(st.sampled_from([1, 2, 4]))
        scales = data.draw(st.sampled_from([(0,), (0, 1)] if stride % 2 == 0 else [(0,)]))
        if data.draw(st.booleans(), label="raft"):
            divisors = [r for r in raft_sizes if c % r == 0]
            mixing = dict(raft_size=data.draw(st.sampled_from(divisors)))
        else:
            mixing = dict(token_hidden=data.draw(st.integers(1, 6)))
        levels.append(
            LevelConfig(
                channels=c,
                depth=data.draw(st.integers(1, 2)),
                stride=stride,
                scales=scales,
                e_chan=data.draw(st.integers(1, 2)),
                **mixing,
            )
        )
    total = int(np.prod([lvl.stride for lvl in levels]))
    h, w = (total * data.draw(st.integers(1, 3)) for _ in range(2))
    return ModelConfig(
        name="random",
        levels=tuple(levels),
        num_classes=data.draw(st.integers(1, 4)),
        resolution=(h, w),
        final_norm=data.draw(st.booleans()),
        seed=data.draw(st.integers(0, 2**16)),
    )


def taped_and_untaped_logits(model, image):
    """forward outside any trace, and inside one as the reference.

    The mixing MLPs run the same body either way; inside a trace each also
    records its one tape node.
    """
    untaped = forward(model, image).numpy()
    with trace():
        taped = forward(model, image).numpy()
    return untaped, taped


class TestPresetConfigs:
    @pytest.mark.parametrize(
        "name, channels",
        [
            ("raftmlp-s", (64, 128, 256, 512)),
            ("raftmlp-m", (96, 192, 384, 768)),
            ("raftmlp-l", (128, 192, 512, 1024)),
        ],
    )
    def test_raft_channels_and_depths(self, name, channels):
        config = preset_config(name)
        assert tuple(l.channels for l in config.levels) == channels
        assert tuple(l.depth for l in config.levels) == (2, 2, 6, 2)
        assert tuple(l.stride for l in config.levels) == (4, 2, 2, 2)
        assert tuple(l.scales for l in config.levels) == ((0, 1), (0, 1), (0, 1), (0,))
        assert all((l.raft_size, l.token_hidden, l.e_chan) == (2, None, 4) for l in config.levels)
        assert config.final_norm is False

    def test_raft_grids_at_224(self):
        grids = preset_config("raftmlp-s").grids()
        assert [(g.h_prime, g.w_prime) for g in grids] == [(56, 56), (28, 28), (14, 14), (7, 7)]

    def test_mixer_b16_layout(self):
        config = preset_config("mixer-b16")
        assert len(config.levels) == 1
        lvl = config.levels[0]
        assert (lvl.channels, lvl.depth, lvl.stride) == (768, 12, 16)
        assert (lvl.token_hidden, lvl.raft_size) == (384, None)
        assert lvl.e_chan == 4
        assert config.final_norm is True

    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_mixer_channel_raft_variants(self, r):
        config = preset_config(f"mixer-b16-cr{r}")
        lvl = config.levels[0]
        assert lvl.token_hidden is None
        assert lvl.raft_size == r
        assert config.final_norm is True

    def test_unknown_preset_lists_names(self):
        for unknown in ("raftmlp-xl", "mixer-b16-cr3"):
            with pytest.raises(ValueError) as exc_info:
                preset_config(unknown)
            message = str(exc_info.value)
            assert repr(unknown) in message
            for name in PRESETS:
                assert name in message

    @pytest.mark.parametrize("name", list(PRESETS))
    def test_overrides_change_only_their_fields(self, name):
        base = preset_config(name)
        assert (base.num_classes, base.resolution, base.seed) == (1000, (224, 224), 0)
        overrides = {"num_classes": 3, "resolution": (256, 256), "seed": 7}
        config = preset_config(name, **overrides)
        for field in fields(ModelConfig):
            want = overrides.get(field.name, getattr(base, field.name))
            assert getattr(config, field.name) == want, field.name
        assert PRESETS[name] == base
        with pytest.raises(TypeError):
            preset_config(name, final_norm=False)

    def test_resolution_must_divide(self):
        with pytest.raises(ValueError, match="level 3 stride 2 does not divide the incoming 25x28"):
            preset_config("raftmlp-s", resolution=(200, 224))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LevelConfig(channels=6, depth=1, stride=2, raft_size=4)  # 4 does not divide 6
        # A level names its token mixer exactly once.
        with pytest.raises(ValueError, match="exactly one of raft_size and token_hidden"):
            LevelConfig(channels=6, depth=1, stride=2, raft_size=4, token_hidden=9)
        with pytest.raises(ValueError, match="exactly one of raft_size and token_hidden"):
            LevelConfig(channels=6, depth=1, stride=2)
        with pytest.raises(ValueError):
            ModelConfig(name="empty", levels=())
        bad_block_settings = [
            {"raft_size": 0},
            {"raft_size": -2},
            {"e_chan": 0},
            {"scales": ()},
            {"scales": (-1,)},
            {"scales": (0, True)},
            {"scales": (0.0,)},
            {"channels": 64.0},
            {"channels": True},
            {"depth": 1.0},
            {"stride": True},
            {"stride": 2.0},
            {"raft_size": 2.0},
            {"raft_size": True},
            {"e_chan": 2.0},
            {"e_chan": np.int64(4)},
            {"raft_size": None, "token_hidden": 0},
            {"raft_size": None, "token_hidden": 9.0},
            {"raft_size": None, "token_hidden": True},
            {"stride": 3, "scales": (0, 1)},
        ]
        for kwargs in bad_block_settings:
            with pytest.raises(ValueError, match="LevelConfig"):
                LevelConfig(**{"channels": 8, "depth": 1, "stride": 2, "raft_size": 2, **kwargs})
        level = LevelConfig(channels=8, depth=1, stride=2, raft_size=2)
        bad_model_settings = [
            {"num_classes": 0},
            {"num_classes": 10.0},
            {"num_classes": True},
            {"seed": -1},
            {"seed": 1.5},
            {"resolution": (224, 224, 3)},
            {"resolution": (224,)},
            {"resolution": 224},
            {"resolution": (224.0, 224)},
            {"resolution": (0, 224)},
            {"resolution": (True, 224)},
        ]
        for kwargs in bad_model_settings:
            with pytest.raises(ValueError, match="ModelConfig"):
                ModelConfig(name="bad", levels=(level,), **kwargs)
        with pytest.raises(ValueError, match="ModelConfig: resolution"):
            preset_config("raftmlp-s", resolution=(224, 224, 3))
        with pytest.raises(ValueError, match="ModelConfig: seed"):
            build_preset("raftmlp-s", seed=-1)

    @pytest.mark.parametrize("value", ["no", None, 1, np.bool_(True)])
    def test_final_norm_must_be_a_bool(self, value):
        # Any truthy value would build a final norm, and None would build
        # the model of False under a config that hashes differently.
        with pytest.raises(ValueError, match="ModelConfig: final_norm"):
            replace(preset_config("raftmlp-s"), final_norm=value)

    @pytest.mark.parametrize("levels", [(1,), ({"channels": 8, "depth": 1, "stride": 2},)])
    def test_levels_must_be_level_configs(self, levels):
        with pytest.raises(ValueError, match="ModelConfig: levels"):
            ModelConfig(name="x", levels=levels)

    def test_plain_level_is_stated_by_its_width_alone(self):
        # An unused raft size beside token_hidden would build mixer-b16's
        # parameters under a level that compares and hashes unequal to its.
        with pytest.raises(ValueError, match="LevelConfig"):
            LevelConfig(channels=768, depth=12, stride=16, token_hidden=384, raft_size=4)
        a = LevelConfig(channels=768, depth=12, stride=16, token_hidden=384)
        b = LevelConfig(channels=768, depth=12, stride=16, token_hidden=384)
        assert a == b and hash(a) == hash(b)
        assert a == preset_config("mixer-b16").levels[0]


class TestBuild:
    def test_zeros_init_is_cheap_and_empty(self):
        model = build_preset("raftmlp-s", init="zeros")
        for name, t in named_parameters(model).items():
            if name.endswith(".gamma"):
                assert (t.numpy() == 1.0).all()
            else:
                assert not t.numpy().any()

    def test_seeded_build_reproducible(self):
        a = build_model(tiny32_config(), dtype="f64")
        b = build_model(tiny32_config(), dtype="f64")
        pa, pb = named_parameters(a), named_parameters(b)
        assert pa.keys() == pb.keys()
        assert all(np.array_equal(pa[k].numpy(), pb[k].numpy()) for k in pa)

    def test_unknown_init_rejected(self):
        with pytest.raises(ValueError):
            build_model(tiny32_config(), init="xavier")

    @pytest.mark.parametrize("init", ["zeros", "trunc_normal"])
    def test_unknown_dtype_rejected(self, init):
        with pytest.raises(ValueError, match="unsupported dtype"):
            build_model(tiny32_config(), init=init, dtype="f16")

    def test_embed_chains_previous_level_channels(self):
        model = build_model(tiny32_config(), init="zeros")
        # level 1 consumes the 3-channel image at stride 4 with scales {0,1}
        assert model.levels[0].embed.projection.d_in == 3 * (16 + 64)
        # level 2 consumes the 8-channel level-1 map at stride 2, scale {0}
        assert model.levels[1].embed.projection.d_in == 8 * 4

    def test_mixer_token_mlp_dimensions(self):
        model = build_preset("mixer-b16", init="zeros")
        token = model.levels[0].blocks[0].token
        assert token.fc1.weight.shape == (196, 384)
        assert token.fc2.weight.shape == (384, 196)
        chan = model.levels[0].blocks[0].channel
        assert chan.fc1.weight.shape == (768, 3072)

    def test_cr_vertical_dims_scale_with_r(self):
        for r in (1, 2, 4):
            model = build_preset(f"mixer-b16-cr{r}", init="zeros")
            token = model.levels[0].blocks[0].token
            assert token.vertical.fc1.weight.shape == (14 * r, 2 * 14 * r)
            assert token.horizontal.fc1.weight.shape == (14 * r, 2 * 14 * r)


class TestForward:
    def test_deterministic(self):
        model = build_model(tiny32_config(), dtype="f64")
        rng = np.random.default_rng(0)
        image = Tensor(rng.normal(size=(3, 32, 32)), dtype="f64")
        a = forward(model, image).numpy()
        b = forward(model, image).numpy()
        assert np.array_equal(a, b)

    def test_bitwise_repeatable_across_processes_at_one_thread(self):
        # The determinism promise holds for a fixed BLAS thread count.
        script = (
            "import numpy as np, sys\n"
            "from raftmlp import Tensor, build_preset, forward\n"
            "image = Tensor(np.random.default_rng(0).normal(size=(3, 224, 224)), dtype='f32')\n"
            "sys.stdout.write(forward(build_preset('raftmlp-s'), image).numpy().tobytes().hex())\n"
        )
        src = str(Path(raftmlp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        runs = [
            subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                check=True, timeout=300,
            ).stdout
            for _ in range(2)
        ]
        assert len(runs[0]) == 1000 * 4 * 2
        assert runs[0] == runs[1]

    def test_logit_length_and_finiteness(self):
        model = build_model(tiny32_config(), dtype="f64")
        image = Tensor(np.random.default_rng(1).normal(size=(3, 32, 32)), dtype="f64")
        logits = forward(model, image).numpy()
        assert logits.shape == (5,)
        assert np.isfinite(logits).all()

    def test_matches_straight_line_composition(self):
        # Hand-compose the exact op sequence the model runner performs.
        model = build_model(tiny32_config(), dtype="f64")
        rng = np.random.default_rng(2)
        image = Tensor(rng.normal(size=(3, 32, 32)), dtype="f64")
        got = forward(model, image).numpy()

        grids = model.config.grids()
        x = image
        for params, grid in zip(model.levels, grids):
            tokens = multi_scale_patch_embed(x, params.embed)
            for block in params.blocks:
                tokens = raft_token_mixing(tokens, block.token, grid)
                tokens = channel_mixing(tokens, block.channel)
            x = rearrange(tokens, "(h w) c -> c h w", h=grid.h_prime, w=grid.w_prime)
        want = linear(global_avg_pool(tokens), model.head).numpy()
        assert np.array_equal(got, want)

    def test_wrong_resolution_directs_to_adapter(self):
        model = build_model(tiny32_config(), dtype="f64")
        with pytest.raises(ShapeError) as exc_info:
            forward(model, Tensor(np.zeros((3, 16, 16))))
        assert "forward_adapted" in str(exc_info.value)

    @pytest.mark.parametrize("entry", ["forward", "level_outputs"])
    @pytest.mark.parametrize("h, w", [(224, 160), (160, 224)])
    def test_an_image_off_size_in_one_extent_is_refused(self, monkeypatch, entry, h, w):
        import raftmlp.models as models

        def no_embed(*args):
            raise AssertionError("the embed ran on an off-size image")

        monkeypatch.setattr(models, "multi_scale_patch_embed", no_embed)
        model = build_preset("raftmlp-s", init="zeros")
        image = Tensor(np.zeros((3, h, w), dtype=np.float32))
        message = f"{entry}: raftmlp-s runs at 224x224, the image is {h}x{w}"
        with pytest.raises(ShapeError, match=message):
            getattr(raftmlp, entry)(model, image)

    # forward_adapted's dtype cases are in test_adapt's image check.
    @pytest.mark.parametrize("entry", ["forward", "level_outputs"])
    @pytest.mark.parametrize("image_dtype, model_dtype", [("f64", "f32"), ("f32", "f64")])
    def test_image_dtype_is_checked_on_entry(self, monkeypatch, entry, image_dtype, model_dtype):
        import raftmlp.models as models

        def no_embed(*args):
            raise AssertionError("the embed ran on an image of the wrong dtype")

        monkeypatch.setattr(models, "multi_scale_patch_embed", no_embed)
        model = build_model(tiny32_config(), init="zeros", dtype=model_dtype)
        image = Tensor(np.zeros((3, 32, 32)), dtype=image_dtype)
        with pytest.raises(ShapeError, match=rf"{entry} expects a \[3, h, w\] {model_dtype} image"):
            getattr(raftmlp, entry)(model, image)

    def test_level_outputs_shapes(self):
        model = build_model(tiny32_config(), dtype="f64")
        image = Tensor(np.random.default_rng(3).normal(size=(3, 32, 32)), dtype="f64")
        outs = level_outputs(model, image)
        assert [t.shape for t in outs] == [(64, 8), (16, 16)]

    def test_channel_permutation_reparameterization(self):
        # Permuting the image channels while permuting the level-1
        # projection's input blocks to match is a pure reparameterization:
        # the logits may only move by round-off from the re-ordered sums.
        model = build_model(tiny32_config(), dtype="f64")
        rng = np.random.default_rng(4)
        image = rng.normal(size=(3, 32, 32))
        perm = np.array([2, 0, 1])

        params = dict(named_parameters(model))
        weight = params["level1.embed.proj.weight"].numpy()
        embed = model.levels[0].embed
        new_weight = np.empty_like(weight)
        offset = 0
        for m in embed.scales:
            k2 = (2**m * embed.stride) ** 2
            block = weight[offset : offset + 3 * k2]
            per_channel = block.reshape(3, k2, -1)
            new_weight[offset : offset + 3 * k2] = per_channel[perm].reshape(3 * k2, -1)
            offset += 3 * k2
        params["level1.embed.proj.weight"] = Tensor(new_weight)
        permuted_model = replace_parameters(model, params)

        base = forward(model, Tensor(image)).numpy()
        swapped = forward(permuted_model, Tensor(image[perm])).numpy()
        assert np.max(np.abs(base - swapped)) < 1e-9

    def test_zeroed_mlps_collapse_to_head_bias(self):
        model = build_model(tiny32_config(), dtype="f64")
        rng = np.random.default_rng(5)
        params = dict(named_parameters(model))
        for name, tensor in params.items():
            if ".fc2." in name or name == "head.weight":
                params[name] = Tensor.zeros(tensor.shape, dtype="f64")
        bias = rng.normal(size=5)
        params["head.bias"] = Tensor(bias)
        collapsed = replace_parameters(model, params)

        image = Tensor(rng.normal(size=(3, 32, 32)), dtype="f64")
        assert np.array_equal(forward(collapsed, image).numpy(), bias)


    def test_level_grids_are_looked_up_once_per_config_and_resolution(self, monkeypatch):
        calls = []
        grids = ModelConfig.grids

        def counted(config, resolution=None):
            calls.append(resolution)
            return grids(config, resolution)

        model = build_model(tiny32_config(), dtype="f64")
        raftmlp.models._level_grids.cache_clear()
        monkeypatch.setattr(ModelConfig, "grids", counted)
        rng = np.random.default_rng(6)
        native = Tensor(rng.normal(size=(3, 32, 32)), dtype="f64")
        other = Tensor(rng.normal(size=(3, 64, 32)), dtype="f64")
        first = forward(model, native).numpy()
        assert calls == [(32, 32), None]  # the run grids and the build grids, once
        assert np.array_equal(forward(model, native).numpy(), first)
        assert len(calls) == 2
        outputs = forward_adapted(model, other)
        assert calls[2:] == [(64, 32), None]
        assert forward_adapted(model, other).numpy().tobytes() == outputs.numpy().tobytes()
        assert len(calls) == 4


class TestUntapedForward:
    """Recording the tape leaves the logits' bits alone: untraced equals traced."""

    @pytest.mark.parametrize(
        "name, dtype",
        [(name, "f32") for name in PRESETS]
        + [(name, "f64") for name in ("raftmlp-s", "mixer-b16", "mixer-b16-cr2")],
    )
    def test_presets_bitwise_equal_to_the_taped_forward(self, name, dtype):
        model = build_preset(name, dtype=dtype)
        image = Tensor(np.random.default_rng(23).normal(size=(3, 224, 224)), dtype=dtype)
        untaped, taped = taped_and_untaped_logits(model, image)
        assert untaped.tobytes() == taped.tobytes()

    @settings(max_examples=25, deadline=None, database=None)
    @given(data=st.data())
    def test_random_configs_bitwise_equal_to_the_taped_forward(self, data):
        config = draw_config(data, channels=(2, 4, 6, 8), raft_sizes=(1, 2, 4))
        dtype = data.draw(st.sampled_from(["f32", "f64"]), label="dtype")
        model = build_model(config, dtype=dtype)
        rng = np.random.default_rng(config.seed)
        image = Tensor(rng.normal(size=(3,) + config.resolution), dtype=dtype)
        untaped, taped = taped_and_untaped_logits(model, image)
        assert untaped.tobytes() == taped.tobytes()


def _f64_twin(model32):
    """The f64 model holding ``model32``'s weights upcast."""
    upcast = {n: Tensor(t.numpy(), dtype="f64") for n, t in named_parameters(model32).items()}
    zeros = build_model(model32.config, init="zeros", dtype="f64")
    return replace_parameters(zeros, upcast)


def _gap(got, want):
    """max|f32 - f64| / max|f64|."""
    assert got.dtype == "f32" and want.dtype == "f64"
    return np.max(np.abs(got.numpy() - want.numpy())) / np.max(np.abs(want.numpy()))


class TestErrorBudget:
    """How far the f32 forward may sit from the f64 forward of the same weights.

    The f64 twin holds the f32 model's weights upcast, so the gap is the f32
    round-off alone. Bounds are relative to the largest f64 magnitude: 2e-6
    at every level output, 1e-6 at the logits (README, "Error budget").
    """

    @pytest.mark.parametrize("name", ["raftmlp-s", "mixer-b16", "mixer-b16-cr2"])
    def test_f32_within_budget_of_its_f64_twin(self, name):
        model32 = build_preset(name, seed=1)
        model64 = _f64_twin(model32)
        for seed in (0, 1):
            image = np.random.default_rng(seed).normal(size=(3, 224, 224)).astype(np.float32)
            levels32 = level_outputs(model32, Tensor(image, dtype="f32"))
            levels64 = level_outputs(model64, Tensor(image, dtype="f64"))
            for got, want in zip(levels32, levels64):
                assert _gap(got, want) <= 2e-6
            # forward's logits, taken from the last level without a second run.
            assert _gap(_classify(model32, levels32[-1]), _classify(model64, levels64[-1])) <= 1e-6

    def test_adapted_f32_within_budget_of_its_f64_twin(self):
        # forward_adapted adds the bicubic pre-resize and every block's
        # resample sandwich to the f32 round-off; the logits keep the bound.
        model32 = build_preset("raftmlp-s", seed=1)
        model64 = _f64_twin(model32)
        for hw in ((197, 131), (300, 280), (130, 250)):
            for seed in (0, 1):
                image = np.random.default_rng(seed).normal(size=(3, *hw)).astype(np.float32)
                got = forward_adapted(model32, Tensor(image, dtype="f32"))
                want = forward_adapted(model64, Tensor(image, dtype="f64"))
                assert _gap(got, want) <= 1e-6, (hw, seed)


class TestParameterPlumbing:
    def test_name_inventory(self):
        model = build_model(tiny32_config(), init="zeros", dtype="f64")
        names = set(named_parameters(model))
        assert "level1.embed.proj.weight" in names
        assert "level1.block1.token.vertical.ln.gamma" in names
        assert "level1.block1.token.horizontal.fc2.bias" in names
        assert "level2.block1.channel.fc1.weight" in names
        assert "head.weight" in names and "head.bias" in names
        assert not any(n.startswith("final_norm") for n in names)

    def test_plain_token_names_have_no_direction(self):
        model = build_preset("mixer-b16", init="zeros")
        names = set(named_parameters(model))
        assert "level1.block1.token.ln.gamma" in names
        assert "level1.block12.token.fc1.weight" in names
        assert "final_norm.gamma" in names

    def test_replace_roundtrip_is_identity(self):
        model = build_model(tiny32_config(), dtype="f64")
        clone = replace_parameters(model, named_parameters(model))
        image = Tensor(np.random.default_rng(6).normal(size=(3, 32, 32)), dtype="f64")
        assert np.array_equal(forward(model, image).numpy(), forward(clone, image).numpy())

    def test_replace_reports_missing_and_extra(self):
        model = build_model(tiny32_config(), init="zeros", dtype="f64")
        params = dict(named_parameters(model))
        removed = "head.bias"
        del params[removed]
        params["head.extra"] = Tensor.zeros((1,), dtype="f64")
        with pytest.raises(ValueError) as exc_info:
            replace_parameters(model, params)
        assert removed in str(exc_info.value)
        assert "head.extra" in str(exc_info.value)

    def test_replace_checks_shapes(self):
        model = build_model(tiny32_config(), init="zeros", dtype="f64")
        params = dict(named_parameters(model))
        params["head.bias"] = Tensor.zeros((7,), dtype="f64")
        with pytest.raises(ValueError):
            replace_parameters(model, params)

        model = build_preset("raftmlp-s", init="zeros")
        params = {
            name: Tensor(t.numpy().astype(np.float64), dtype="f64")
            for name, t in named_parameters(model).items()
        }
        with pytest.raises(ValueError) as exc_info:
            replace_parameters(model, params)
        message = str(exc_info.value)
        for name, t in params.items():
            assert f"{name} is f64 {t.shape}, model has f32 {t.shape}" in message

    @settings(max_examples=25, deadline=None, database=None)
    @given(data=st.data())
    def test_walk_agrees_on_random_configs(self, data):
        model = build_model(draw_config(data))
        params = named_parameters(model)
        assert cost_report(model).params_total == sum(t.size for t in params.values())
        clone = named_parameters(replace_parameters(model, params))
        assert list(clone) == list(params)
        assert all(clone[name] is t for name, t in params.items())

    def test_counts_match_between_inits(self):
        zeros = named_parameters(build_preset("raftmlp-s", init="zeros"))
        seeded = named_parameters(build_preset("raftmlp-s"))
        assert {k: v.shape for k, v in zeros.items()} == {k: v.shape for k, v in seeded.items()}


class TestBuilderHelpers:
    def test_build_preset_passes_kwargs(self):
        model = build_preset("raftmlp-s", init="zeros", num_classes=3)
        assert model.head.d_out == 3
