"""Acceptance criteria, one test per criterion.

Each test owns exactly one numbered criterion, asserts it at the stated
tolerance, and prints a single pass line when it holds (pytest -v adds
the matching PASSED/FAILED verdict per criterion).
"""

import functools
import itertools

import numpy as np
import pytest

from raftmlp.adapt import forward_adapted, pre_embed_resize
from raftmlp.autograd import grad_check
from raftmlp.blocks import (
    channel_mixing,
    horizontal_mixing,
    init_channel_mixing,
    init_embed,
    init_mixing,
    init_raft_token_mixing,
    mixing_mlp,
    multi_scale_patch_embed,
    raft_token_mixing,
    vertical_mixing,
)
from raftmlp.container import (
    ContainerMagicError,
    ContainerNameError,
    ContainerTruncatedError,
    ContainerVersionError,
    MAGIC,
    VERSION,
    load_tensors,
    load_weights,
    save_tensors,
)
from raftmlp.cost import (
    cost_report,
    params_advantage,
    raft_mixing_macs_analytic,
    raft_mixing_params_analytic,
    token_mixing_macs_analytic,
    token_mixing_params_analytic,
)
from raftmlp.models import build_preset, forward, named_parameters
from raftmlp.ops import LinearParams
from raftmlp.rearrange import apply_rearrange, invert, parse_rearrange
from raftmlp.selftest import gradcheck_suite, gradcheck_tolerance
from raftmlp.tensor import PatchGrid, Tensor

ALL_PRESETS = (
    "raftmlp-s",
    "raftmlp-m",
    "raftmlp-l",
    "mixer-b16",
    "mixer-b16-cr1",
    "mixer-b16-cr2",
    "mixer-b16-cr4",
)


@functools.lru_cache(maxsize=None)
def random_model(name):
    """One truncated-normal build per preset, shared across criteria."""
    return build_preset(name)


def zeroed_fc2(p):
    import dataclasses

    z = LinearParams(
        weight=Tensor.zeros(p.fc2.weight.shape, dtype=p.fc2.weight.dtype),
        bias=Tensor.zeros(p.fc2.bias.shape, dtype=p.fc2.bias.dtype),
    )
    return dataclasses.replace(p, fc2=z)


def test_criterion_01_ablation_parameter_regression():
    published = {
        "mixer-b16": 59.9e6,
        "mixer-b16-cr1": 58.1e6,
        "mixer-b16-cr2": 58.2e6,
        "mixer-b16-cr4": 58.4e6,
    }
    for name, want in published.items():
        got = cost_report(build_preset(name, init="zeros")).params_total
        rel = abs(got - want) / want
        assert rel < 0.005, f"{name}: {got} vs {want:.0f} (rel {rel:.4%})"
    print("criterion 01 PASS: four ablation parameter counts within 0.5%")


def test_criterion_02_preset_parameter_regression():
    published = {"raftmlp-s": 9.9e6, "raftmlp-m": 21.4e6, "raftmlp-l": 36.2e6}
    for name, want in published.items():
        got = cost_report(build_preset(name, init="zeros")).params_total
        rel = abs(got - want) / want
        assert rel < 0.03, f"{name}: {got} vs {want:.0f} (rel {rel:.4%})"
    print("criterion 02 PASS: S/M/L parameter counts within 3%")


def test_criterion_03_mac_regression_at_224():
    published_10pct = {"raftmlp-s": 2.1e9, "raftmlp-m": 4.3e9, "raftmlp-l": 6.5e9}
    for name, want in published_10pct.items():
        got = cost_report(build_preset(name, init="zeros")).macs_total
        rel = abs(got - want) / want
        assert rel < 0.10, f"{name}: {got} vs {want:.0f} (rel {rel:.4%})"
    got = cost_report(build_preset("mixer-b16", init="zeros")).macs_total
    rel = abs(got - 12.6e9) / 12.6e9
    assert rel < 0.05, f"mixer-b16: {got} (rel {rel:.4%})"
    print("criterion 03 PASS: MAC totals within 10% (S/M/L) and 5% (Mixer-B/16)")


def test_criterion_04_analytic_exact_equivalence():
    def fc_sizes(p):
        return (
            p.fc1.weight.size + p.fc1.bias.size + p.fc2.weight.size + p.fc2.bias.size
        )

    checked = 0
    for h, w in itertools.product(range(1, 17), repeat=2):
        for e in (1, 2, 4):
            s = h * w
            plain = init_mixing(None, channels=1, dim=s, hidden=e * s)
            assert token_mixing_params_analytic(h, w, e) == fc_sizes(plain)
            checked += 1
            for r in (1, 2, 4):
                raft = init_raft_token_mixing(None, PatchGrid(h, w, r), raft_size=r, e=e)
                constructed = fc_sizes(raft.vertical) + fc_sizes(raft.horizontal)
                assert raft_mixing_params_analytic(h, w, e, r) == constructed
                checked += 1
    assert checked == 16 * 16 * 3 * 4
    print(f"criterion 04 PASS: analytic == constructed counts, {checked} cases, zero tolerance")


def test_criterion_05_breakeven_claims():
    for r in range(1, 10):
        assert params_advantage(14, 14, r) is True, f"r={r} should favor raft"
    for r in range(10, 14):
        assert params_advantage(14, 14, r) is False, f"r={r} should not favor raft"
    # ratio identity, exact in integers: macs_raft * h^4 == 2 r^4 * macs_token
    for h in (4, 7, 14, 16):
        for e in (1, 2, 4):
            for r in range(1, 13):
                mr = raft_mixing_macs_analytic(h, h, e, r)
                mt = token_mixing_macs_analytic(h, h, e)
                assert mr * h**4 == 2 * r**4 * mt
    print("criterion 05 PASS: r <= 9 break-even at 14x14 and exact 2r^4/h'^4 MAC ratio")


def test_criterion_06_gradient_suite():
    results = gradcheck_suite(block="all", seeds=(0, 1, 2, 3, 4), max_coords=40)
    assert len(results) == 7 * 5
    worst = {}
    for result, report in results:
        block = result.name.split("[")[1].split("]")[0]
        assert report.step == 1e-5
        assert result.ok, f"{result.name}: {result.detail}"
        assert report.max_rel_err < gradcheck_tolerance(block)
        worst[block] = max(worst.get(block, 0.0), report.max_rel_err)
    assert all(err < 1e-4 for err in worst.values())
    assert all(err < 1e-5 for name, err in worst.items() if name != "model")
    print(
        "criterion 06 PASS: 35/35 finite-difference checks, worst rel err "
        + f"{max(worst.values()):.3e}"
    )


def test_criterion_07_rearrange_oracle():
    def oracle_vertical(arr, h, w, r, o):
        b = arr.shape[0]
        out = np.empty((b, o * w, r * h), dtype=arr.dtype)
        for bi in range(b):
            for ih in range(h):
                for iw in range(w):
                    for ir in range(r):
                        for io in range(o):
                            out[bi, io * w + iw, ir * h + ih] = arr[
                                bi, ih * w + iw, ir * o + io
                            ]
        return out

    def oracle_horizontal(arr, h, w, r, o):
        b = arr.shape[0]
        out = np.empty((b, o * h, r * w), dtype=arr.dtype)
        for bi in range(b):
            for ih in range(h):
                for iw in range(w):
                    for ir in range(r):
                        for io in range(o):
                            out[bi, io * h + ih, ir * w + iw] = arr[
                                bi, ih * w + iw, ir * o + io
                            ]
        return out

    patterns = (
        ("b (h w) (r o) -> b (o w) (r h)", oracle_vertical),
        ("b (h w) (r o) -> b (o h) (r w)", oracle_horizontal),
    )
    rng = np.random.default_rng(7)
    cases = 0
    for pattern, oracle in patterns:
        for b, h, w, r, o in itertools.product(
            (1, 2), range(1, 5), range(1, 5), range(1, 5), range(1, 5)
        ):
            spec = parse_rearrange(pattern, {"h": h, "w": w, "r": r, "o": o})
            arr = rng.normal(size=(b, h * w, r * o))
            x = Tensor(arr, dtype="f64")
            got = apply_rearrange(spec, x)
            assert np.array_equal(got.numpy(), oracle(arr, h, w, r, o))
            back = apply_rearrange(invert(spec), got)
            assert np.array_equal(back.numpy(), arr)
            cases += 1
    assert cases == 2 * 2 * 4**4
    print(f"criterion 07 PASS: {cases} exhaustive oracle + roundtrip cases, bitwise")


def test_criterion_08_structural_identities():
    rng = np.random.default_rng(8)

    # zero-fc2 residual identity, every block flavor
    x_tok = Tensor(rng.normal(size=(12, 6)), dtype="f64")
    grid = PatchGrid(4, 3, 6)
    chan = zeroed_fc2(init_channel_mixing(rng, 6, dtype="f64"))
    assert np.array_equal(channel_mixing(x_tok, chan).numpy(), x_tok.numpy())

    raft = init_raft_token_mixing(rng, grid, raft_size=2, dtype="f64")
    raft = type(raft)(
        vertical=zeroed_fc2(raft.vertical),
        horizontal=zeroed_fc2(raft.horizontal),
    )
    assert np.array_equal(raft_token_mixing(x_tok, raft, grid).numpy(), x_tok.numpy())

    x_grid = Tensor(rng.normal(size=(4, 3, 5)), dtype="f64")
    vert = zeroed_fc2(init_mixing(rng, channels=5, dim=4, hidden=8, dtype="f64"))
    assert np.array_equal(vertical_mixing(x_grid, vert).numpy(), x_grid.numpy())
    hor = zeroed_fc2(init_mixing(rng, channels=5, dim=3, hidden=6, dtype="f64"))
    assert np.array_equal(horizontal_mixing(x_grid, hor).numpy(), x_grid.numpy())

    mix = zeroed_fc2(init_mixing(rng, channels=6, dim=12, hidden=24, dtype="f64"))
    assert np.array_equal(
        mixing_mlp(x_tok, mix, parse_rearrange("t c -> c t")).numpy(), x_tok.numpy()
    )

    # scales {0} equals conventional patch embedding
    embed = init_embed(rng, c_in=3, c_out=6, stride=4, scales=(0,), dtype="f64")
    image = rng.normal(size=(3, 8, 12))
    got = multi_scale_patch_embed(Tensor(image, dtype="f64"), embed).numpy()
    rows = []
    for i in range(2):
        for j in range(3):
            rows.append(image[:, 4 * i : 4 * i + 4, 4 * j : 4 * j + 4].reshape(-1))
    want = np.stack(rows) @ embed.projection.weight.numpy() + embed.projection.bias.numpy()
    assert np.array_equal(got, want)

    # r=1 raft path equals the directional composition
    from raftmlp.rearrange import rearrange

    grid1 = PatchGrid(4, 3, 5)
    p1 = init_raft_token_mixing(rng, grid1, raft_size=1, dtype="f64")
    x1 = Tensor(rng.normal(size=(12, 5)), dtype="f64")
    direct = raft_token_mixing(x1, p1, grid1)
    planes = rearrange(x1, "(h w) c -> h w c", h=4, w=3)
    planes = horizontal_mixing(vertical_mixing(planes, p1.vertical), p1.horizontal)
    composed = rearrange(planes, "h w c -> (h w) c")
    assert np.array_equal(direct.numpy(), composed.numpy())
    print("criterion 08 PASS: zero-fc2, scales {0}, and r=1 identities, all bitwise")


def test_criterion_09_resolution_adaptation():
    rng = np.random.default_rng(9)
    image = Tensor(rng.normal(size=(3, 224, 224)), dtype="f32")
    for name in ALL_PRESETS:
        model = random_model(name)
        plain = forward(model, image).numpy()
        adapted = forward_adapted(model, image).numpy()
        assert np.array_equal(plain, adapted), f"{name}: native adaptation not bitwise"

    model = random_model("raftmlp-s")
    for shape in ((3, 160, 160), (3, 256, 256), (3, 197, 131)):
        probe = Tensor(rng.normal(size=shape), dtype="f32")
        if shape == (3, 197, 131):
            assert pre_embed_resize(probe, model.config.total_stride).shape == (3, 192, 128)
        logits = forward_adapted(model, probe).numpy()
        assert logits.shape == (1000,)
        assert np.isfinite(logits).all()
    print("criterion 09 PASS: native bitwise identity on 7 presets; off-grid logits finite")


def test_criterion_10_equivariance_suite():
    rng = np.random.default_rng(10)
    h, w, c, t = 5, 6, 7, 8

    vert = init_mixing(rng, channels=c, dim=h, hidden=2 * h, dtype="f64")
    hor = init_mixing(rng, channels=c, dim=w, hidden=2 * w, dtype="f64")
    chan = init_channel_mixing(rng, channels=c, e_chan=2, dtype="f64")

    for trial in range(10):
        x_grid = Tensor(rng.normal(size=(h, w, c)), dtype="f64")
        col = rng.permutation(w)
        out = vertical_mixing(x_grid, vert).numpy()[:, col, :]
        permuted = vertical_mixing(Tensor(x_grid.numpy()[:, col, :]), vert).numpy()
        assert np.max(np.abs(out - permuted)) < 1e-12, f"vertical, trial {trial}"

        row = rng.permutation(h)
        out = horizontal_mixing(x_grid, hor).numpy()[row]
        permuted = horizontal_mixing(Tensor(x_grid.numpy()[row]), hor).numpy()
        assert np.max(np.abs(out - permuted)) < 1e-12, f"horizontal, trial {trial}"

        x_tok = Tensor(rng.normal(size=(t, c)), dtype="f64")
        tok = rng.permutation(t)
        out = channel_mixing(x_tok, chan).numpy()[tok]
        permuted = channel_mixing(Tensor(x_tok.numpy()[tok]), chan).numpy()
        assert np.max(np.abs(out - permuted)) < 1e-12, f"channel, trial {trial}"
    print("criterion 10 PASS: 30 permutation-equivariance checks within 1e-12")


def test_criterion_11_weight_container(tmp_path):
    import struct

    for name in ALL_PRESETS:
        tensors = named_parameters(random_model(name))
        path = tmp_path / f"{name}.rftw"
        save_tensors(tensors, path)
        loaded = load_tensors(path)
        assert list(loaded) == list(tensors), f"{name}: order not preserved"
        for key in tensors:
            assert loaded[key].dtype == tensors[key].dtype
            assert np.array_equal(loaded[key].numpy(), tensors[key].numpy()), (
                f"{name}: {key} not bitwise across the roundtrip"
            )
        path.unlink()

    # error taxonomy
    good = tmp_path / "good.rftw"
    save_tensors({"x": Tensor(np.ones((2, 2)))}, good)
    blob = good.read_bytes()

    bad_magic = tmp_path / "magic.rftw"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ContainerMagicError):
        load_tensors(bad_magic)

    bad_version = tmp_path / "version.rftw"
    bad_version.write_bytes(MAGIC + struct.pack("<I", VERSION + 1) + blob[8:])
    with pytest.raises(ContainerVersionError):
        load_tensors(bad_version)

    truncated = tmp_path / "short.rftw"
    truncated.write_bytes(blob[:-3])
    with pytest.raises(ContainerTruncatedError):
        load_tensors(truncated)

    with pytest.raises(ContainerNameError):
        load_weights(random_model("raftmlp-s"), good)
    print("criterion 11 PASS: 7 bitwise roundtrips; magic/version/truncation/name errors raised")
