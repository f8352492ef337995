"""Native grids whose two extents differ.

Every preset's own grid is square, so nothing else in the suite tells the
vertical extent h' from the horizontal w'. Here raftmlp-s is built at
224 x 160 (grids 56x40 down to 7x5) and mixer-b16-cr2 / -cr4 at 224 x 160
and 160 x 224 (14x10 and 10x14), and each model must keep the native-size
pins: exact MACs, the f32 error budget, the adapter's identity and a
bitwise weight round trip.
"""

import dataclasses

import numpy as np
import pytest

from raftmlp.adapt import forward_adapted
from raftmlp.autograd import grad_check
from raftmlp.blocks import init_raft_token_mixing, raft_token_mixing
from raftmlp.container import load_weights, save_weights
from raftmlp.cost import cost_report
from raftmlp.models import (
    _classify,
    build_model,
    build_preset,
    forward,
    level_outputs,
    named_parameters,
)
from raftmlp.tensor import PatchGrid, Tensor, vdot

from test_models import _f64_twin, _gap

CASES = [
    ("raftmlp-s", (224, 160)),
    ("mixer-b16-cr2", (224, 160)),
    ("mixer-b16-cr2", (160, 224)),
    ("mixer-b16-cr4", (224, 160)),
    ("mixer-b16-cr4", (160, 224)),
]


@pytest.fixture(scope="module", params=CASES, ids=[f"{n}-{h}x{w}" for n, (h, w) in CASES])
def model(request):
    """One f32 seed-1 model at a time, shared by the tests of its case."""
    name, resolution = request.param
    return build_preset(name, seed=1, resolution=resolution)


@pytest.fixture
def image(model):
    h, w = model.config.resolution
    return Tensor(np.random.default_rng(0).normal(size=(3, h, w)).astype(np.float32))


def _block_macs(config, resolution):
    """Each level's block MACs, tallied one mixing direction at a time.

    With o = c / r: the vertical MLP has length r*h' and runs at o*w'
    sites, the horizontal one length r*w' at o*h' sites, each with
    fc1 and fc2 of length * 2 * length MACs per site (raft expansion 2). Token mixing runs
    on the build grid, channel mixing on the grid of ``resolution``.
    """
    rows = {}
    for i, (lvl, build, run) in enumerate(
        zip(config.levels, config.grids(), config.grids(resolution)), start=1
    ):
        r, c = lvl.raft_size, lvl.channels
        h, w, o = build.h_prime, build.w_prime, c // r
        vertical = o * w * 2 * (r * h) * (2 * r * h)
        horizontal = o * h * 2 * (r * w) * (2 * r * w)
        channel = run.tokens * 2 * c * (lvl.e_chan * c)
        rows[f"level{i}.blocks"] = lvl.depth * (vertical + horizontal + channel)
    return rows


@pytest.mark.parametrize("run", ["native", "transposed"])
def test_block_macs_match_a_per_direction_tally(model, run):
    h, w = model.config.resolution
    resolution = (h, w) if run == "native" else (w, h)
    got = {row.name: row.macs for row in cost_report(model, resolution).rows}
    for name, macs in _block_macs(model.config, resolution).items():
        assert got[name] == macs, name


def test_f32_within_budget_of_its_f64_twin(model, image):
    model64 = _f64_twin(model)
    levels32 = level_outputs(model, image)
    levels64 = level_outputs(model64, Tensor(image.numpy(), dtype="f64"))
    for got, want in zip(levels32, levels64):
        assert _gap(got, want) <= 2e-6
    assert _gap(_classify(model, levels32[-1]), _classify(model64, levels64[-1])) <= 1e-6


def test_native_forward_adapted_is_bitwise_forward(model, image):
    assert np.array_equal(forward_adapted(model, image).numpy(), forward(model, image).numpy())


def test_weight_round_trip_is_bitwise(model, image, tmp_path):
    path = tmp_path / "model.rftw"
    save_weights(model, path)
    restored = load_weights(build_model(model.config, init="zeros"), path)
    want = named_parameters(model)
    for name, tensor in named_parameters(restored).items():
        assert tensor.numpy().tobytes() == want[name].numpy().tobytes(), name
    assert forward(restored, image).numpy().tobytes() == forward(model, image).numpy().tobytes()


@pytest.mark.parametrize("h, w, c, r", [(4, 2, 6, 2), (2, 5, 4, 2), (3, 4, 2, 1)])
@pytest.mark.parametrize("wrt", ["x", "vertical", "horizontal"])
def test_raft_block_gradients_on_a_non_square_grid(h, w, c, r, wrt):
    rng = np.random.default_rng(h * 100 + w * 10 + c)
    grid = PatchGrid(h, w, c)
    p = init_raft_token_mixing(rng, grid, raft_size=r, dtype="f64")
    x = Tensor(rng.normal(size=(h * w, c)), dtype="f64")
    probe = Tensor(rng.normal(size=(h * w, c)), dtype="f64")
    if wrt == "x":
        report = grad_check(lambda t: vdot(raft_token_mixing(t, p, grid), probe), x)
    else:
        mlp = getattr(p, wrt)

        def f(weight):
            fc1 = dataclasses.replace(mlp.fc1, weight=weight)
            q = dataclasses.replace(p, **{wrt: dataclasses.replace(mlp, fc1=fc1)})
            return vdot(raft_token_mixing(x, q, grid), probe)

        report = grad_check(f, mlp.fc1.weight)
    assert report.max_rel_err < 1e-5
