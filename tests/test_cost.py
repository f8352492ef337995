"""Closed-form cost expressions against exact counts from built models."""

import pytest

from raftmlp.cost import (
    cost_report,
    macs_advantage,
    params_advantage,
    raft_mixing_macs_analytic,
    raft_mixing_params_analytic,
    token_mixing_macs_analytic,
    token_mixing_params_analytic,
)
from raftmlp.models import (
    LevelConfig,
    ModelConfig,
    build_model,
    build_preset,
    named_parameters,
)

# Exact whole-model counts, frozen from independent per-tensor tallies
# (sum of named-parameter sizes; MACs from per-module sites * d_in * d_out).
EXACT_COUNTS = {
    "raftmlp-s": (9_867_744, 2_087_030_784),
    "raftmlp-m": (21_412_096, 4_267_333_632),
    "raftmlp-l": (36_182_624, 6_543_974_400),
    "mixer-b16": (59_880_472, 12_601_767_936),
    "mixer-b16-cr1": (58_105_432, 11_416_811_520),
    "mixer-b16-cr2": (58_162_888, 11_619_121_152),
    "mixer-b16-cr4": (58_390_696, 12_023_740_416),
}


def single_level_config(h_prime, w_prime, r=None, token_hidden=None, channels=8):
    level = LevelConfig(
        channels=channels,
        depth=1,
        stride=1,
        scales=(0,),
        e_chan=1,
        raft_size=r,
        token_hidden=token_hidden,
    )
    return ModelConfig(
        name="probe", levels=(level,), num_classes=2, resolution=(h_prime, w_prime)
    )


def fc_param_sizes(model, segment):
    """Independent exact route: tally fc tensors under one name segment."""
    return sum(
        t.size
        for name, t in named_parameters(model).items()
        if segment in name and ".fc" in name
    )


class TestAnalyticFormulas:
    def test_token_params_worked_example(self):
        assert token_mixing_params_analytic(4, 4, 2) == 1072

    def test_token_params_minimal(self):
        # s = 1, e = 1: fc1 is 1x1 + 1, fc2 is 1x1 + 1.
        assert token_mixing_params_analytic(1, 1, 1) == 4

    def test_raft_params_worked_example(self):
        assert raft_mixing_params_analytic(4, 4, 2, 2) == 560

    def test_token_macs_worked_example(self):
        assert token_mixing_macs_analytic(4, 4, 2) == 131072

    def test_raft_macs_worked_example(self):
        assert raft_mixing_macs_analytic(4, 4, 2, 2) == 16384

    @pytest.mark.parametrize("h, w, e", [(1, 1, 1), (3, 5, 2), (14, 14, 2), (16, 9, 4)])
    def test_token_params_closed_form(self, h, w, e):
        s = h * w
        want = (s * e * s + e * s) + (e * s * s + s)
        assert token_mixing_params_analytic(h, w, e) == want

    @pytest.mark.parametrize("h, w, e, r", [(1, 1, 1, 1), (3, 5, 2, 2), (14, 14, 2, 4)])
    def test_raft_params_closed_form(self, h, w, e, r):
        def pair(n):
            return (n * e * n + e * n) + (e * n * n + n)

        assert raft_mixing_params_analytic(h, w, e, r) == pair(h * r) + pair(w * r)

    @pytest.mark.parametrize("name", ["h_prime", "w_prime", "e"])
    def test_rejects_non_positive(self, name):
        kwargs = {"h_prime": 4, "w_prime": 4, "e": 2}
        kwargs[name] = 0
        with pytest.raises(ValueError, match=name):
            token_mixing_params_analytic(**kwargs)
        with pytest.raises(ValueError):
            raft_mixing_params_analytic(4, 4, 2, 0)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "a", None])
    @pytest.mark.parametrize(
        "fn, sizes",
        [
            (token_mixing_params_analytic, (4, 4, 2)),
            (raft_mixing_params_analytic, (4, 4, 2, 2)),
            (token_mixing_macs_analytic, (4, 4, 2)),
            (raft_mixing_macs_analytic, (4, 4, 2, 2)),
            (params_advantage, (14, 14, 2)),
            (macs_advantage, (14, 14, 2)),
        ],
    )
    def test_rejects_sizes_that_are_not_ints(self, fn, sizes, bad):
        for i in range(len(sizes)):
            args = list(sizes)
            args[i] = bad
            with pytest.raises(ValueError, match="positive integer"):
                fn(*args)


class TestAnalyticAgainstExact:
    """The closed forms must reproduce per-tensor tallies of built models."""

    # A config builds raft MLPs of expansion 2 only; test_acceptance's
    # criterion 4 checks the closed forms at e in {1, 2, 4} block by block.
    @pytest.mark.parametrize("r", [1, 2, 4])
    @pytest.mark.parametrize("h, w", [(1, 1), (2, 3), (4, 4), (5, 2), (7, 7), (16, 16)])
    def test_raft_params_match_built_model(self, h, w, r):
        model = build_model(single_level_config(h, w, r=r, channels=4 * r), init="zeros")
        exact = fc_param_sizes(model, ".token.")
        assert raft_mixing_params_analytic(h, w, 2, r) == exact

    @pytest.mark.parametrize("e", [1, 2, 4])
    @pytest.mark.parametrize("h, w", [(1, 1), (2, 3), (4, 4), (5, 2), (7, 7), (16, 16)])
    def test_token_params_match_built_model(self, h, w, e):
        model = build_model(
            single_level_config(h, w, token_hidden=e * h * w), init="zeros"
        )
        exact = fc_param_sizes(model, ".token.")
        assert token_mixing_params_analytic(h, w, e) == exact

    def test_channel_mixing_fc_params(self):
        # c = 8, e_chan = 1: fc1 8x8 + 8, fc2 8x8 + 8.
        model = build_model(single_level_config(2, 2, r=1), init="zeros")
        assert fc_param_sizes(model, ".channel.") == 8 * 8 + 8 + 8 * 8 + 8


class TestBreakeven:
    def test_square_14_parameter_break(self):
        for r in range(1, 10):
            assert params_advantage(14, 14, r) is True
        assert params_advantage(14, 14, 10) is False

    def test_square_14_macs_break(self):
        for r in range(1, 12):
            assert macs_advantage(14, 14, r) is True
        assert macs_advantage(14, 14, 12) is False

    def test_equality_is_not_an_advantage(self):
        # 12**2 * (15**2 + 20**2) == (15 * 20)**2 exactly; the comparison
        # is strict, so the tie reports no advantage.
        assert 12**2 * (15**2 + 20**2) == (15 * 20) ** 2
        assert params_advantage(15, 20, 12) is False
        assert params_advantage(15, 20, 11) is True

    def test_macs_ratio_identity_on_squares(self):
        # At h' = w' the closed forms satisfy ratio == 2 r**4 / h'**4.
        for h in (4, 7, 14):
            for r in (1, 2, 3):
                ratio = raft_mixing_macs_analytic(h, h, 2, r) / token_mixing_macs_analytic(h, h, 2)
                assert ratio == pytest.approx(2 * r**4 / h**4, rel=1e-12)

    def test_advantage_agrees_with_ratio(self):
        for h, w, r in [(4, 4, 1), (14, 14, 9), (14, 14, 10), (7, 7, 5), (8, 2, 3)]:
            params_ratio = raft_mixing_params_analytic(h, w, 2, r) / token_mixing_params_analytic(h, w, 2)
            macs_ratio = raft_mixing_macs_analytic(h, w, 2, r) / token_mixing_macs_analytic(h, w, 2)
            assert params_advantage(h, w, r) is (params_ratio < 1.0)
            assert macs_advantage(h, w, r) is (macs_ratio < 1.0)


class TestExactCounters:
    @pytest.mark.parametrize("name", sorted(EXACT_COUNTS))
    def test_frozen_whole_model_counts(self, name):
        model = build_preset(name, init="zeros")
        report = cost_report(model)
        want_params, want_macs = EXACT_COUNTS[name]
        assert report.params_total == want_params
        assert report.macs_total == want_macs

    @pytest.mark.parametrize("name", ["raftmlp-s", "mixer-b16"])
    def test_params_agree_with_tensor_inventory(self, name):
        model = build_preset(name, init="zeros")
        inventory = sum(t.size for t in named_parameters(model).values())
        assert cost_report(model).params_total == inventory

    def test_counts_ignore_initializer(self):
        zeros = cost_report(build_preset("raftmlp-s", init="zeros"))
        seeded = cost_report(build_preset("raftmlp-s"))
        assert zeros.params_total == seeded.params_total
        assert zeros.macs_total == seeded.macs_total

    def test_totals_are_row_sums(self):
        report = cost_report(build_preset("raftmlp-s", init="zeros"))
        assert report.params_total == sum(r.params for r in report.rows)
        assert report.macs_total == sum(r.macs for r in report.rows)

    def test_row_names(self):
        report = cost_report(build_preset("raftmlp-s", init="zeros"))
        assert [r.name for r in report.rows] == [
            "level1.embed",
            "level1.blocks",
            "level2.embed",
            "level2.blocks",
            "level3.embed",
            "level3.blocks",
            "level4.embed",
            "level4.blocks",
            "head",
        ]
        mixer = cost_report(build_preset("mixer-b16", init="zeros"))
        assert [r.name for r in mixer.rows] == [
            "level1.embed",
            "level1.blocks",
            "final_norm",
            "head",
        ]

    def test_site_convention_for_linear_macs(self):
        # A projection from 4 to 8 channels applied on a 7-token grid
        # costs 7 * 4 * 8 = 224 multiply-accumulates.
        config = ModelConfig(
            name="sites",
            levels=(
                LevelConfig(channels=4, depth=1, stride=1, scales=(0,), raft_size=1, e_chan=1),
                LevelConfig(channels=8, depth=1, stride=1, scales=(0,), raft_size=1, e_chan=1),
            ),
            num_classes=5,
            resolution=(7, 1),
        )
        report = cost_report(build_model(config, init="zeros"))
        rows = {r.name: r for r in report.rows}
        assert rows["level2.embed"].macs == 224
        assert rows["level2.embed"].params == 4 * 8 + 8
        # The classifier runs once: 8 * 5 weights plus nothing for the bias.
        assert rows["head"].macs == 40
        assert rows["head"].params == 8 * 5 + 5

    def test_as_dict_layout(self):
        report = cost_report(build_preset("raftmlp-s", init="zeros"))
        payload = report.as_dict()
        assert payload["name"] == "raftmlp-s"
        assert payload["resolution"] == [224, 224]
        assert payload["totals"] == {
            "params": report.params_total,
            "macs": report.macs_total,
        }
        assert payload["rows"][0] == {
            "module": "level1.embed",
            "params": report.rows[0].params,
            "macs": report.rows[0].macs,
        }


class TestResolutionDependentMacs:
    def test_params_do_not_move(self):
        model = build_preset("raftmlp-s", init="zeros")
        native = cost_report(model)
        scaled = cost_report(model, resolution=(448, 448))
        assert native.params_total == scaled.params_total

    def test_embed_macs_scale_with_tokens(self):
        model = build_preset("raftmlp-s", init="zeros")
        native = {r.name: r for r in cost_report(model).rows}
        scaled = {r.name: r for r in cost_report(model, resolution=(448, 448)).rows}
        for level in (1, 2, 3, 4):
            assert scaled[f"level{level}.embed"].macs == 4 * native[f"level{level}.embed"].macs

    def test_token_mixing_stays_on_native_grid(self):
        # At a doubled resolution only channel mixing picks up the 4x token
        # count; token mixing runs on the grid the weights were sized for,
        # so the block rows grow by exactly the channel-mixing delta.
        model = build_preset("raftmlp-s", init="zeros")
        config = model.config
        native_rows = {r.name: r for r in cost_report(model).rows}
        scaled_rows = {r.name: r for r in cost_report(model, resolution=(448, 448)).rows}
        native_grids = config.grids()
        scaled_grids = config.grids((448, 448))
        for index, level in enumerate(config.levels, start=1):
            per_block_channel = 2 * level.e_chan * level.channels**2
            delta_tokens = scaled_grids[index - 1].tokens - native_grids[index - 1].tokens
            want_delta = level.depth * per_block_channel * delta_tokens
            got_delta = (
                scaled_rows[f"level{index}.blocks"].macs
                - native_rows[f"level{index}.blocks"].macs
            )
            assert got_delta == want_delta

    def test_indivisible_resolution_rejected(self):
        model = build_preset("raftmlp-s", init="zeros")
        with pytest.raises(ValueError):
            cost_report(model, resolution=(225, 224))

    @pytest.mark.parametrize("resolution", [(224.0, 224), (224, 224, 3), (0, 224), (True, 224)])
    def test_resolution_outside_config_rule_rejected(self, resolution):
        model = build_preset("raftmlp-s", init="zeros")
        with pytest.raises(ValueError, match="ModelConfig: resolution"):
            cost_report(model, resolution=resolution)

    def test_resolution_list_reports_int_tuple(self):
        report = cost_report(build_preset("raftmlp-s", init="zeros"), resolution=[224, 224])
        assert report.resolution == (224, 224)
        assert all(type(v) is int for v in report.resolution)
