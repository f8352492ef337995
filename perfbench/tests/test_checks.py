"""Each output check of the benchmark passes on the package and fails on a planted fault.

Faults are planted by swapping module attributes or weights for the
duration of one test; the package's files are never touched.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import numpy as np
import pytest

import prepare
import reference
import spans
import workloads
from macs import STAGES as macs_stages
from raftmlp import Tensor, blocks, container, cost, models, ops, replace_parameters

SEED = 3
GRADCHECK_CHANNEL = workloads.GRADCHECK_BLOCKS.index("channel")


def _prepared(tmp_path_factory, monkeypatch_module, workload, specs):
    monkeypatch_module.setattr(workloads, "image_specs", lambda w, s: list(specs))
    out = tmp_path_factory.mktemp(workload)
    assert prepare.main(["--workload", workload, "--seed", str(SEED), "--out", str(out)]) == 0
    bench = workloads.make(workload, SEED, out)
    bench.load_prepared()
    warm = bench.setup_once()
    return bench, warm


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as mp:
        yield mp


@pytest.fixture(scope="module")
def s224(tmp_path_factory, monkeypatch_module):
    return _prepared(tmp_path_factory, monkeypatch_module, "s224", [(224, 224, True)])


@pytest.fixture(scope="module")
def s_adapt(tmp_path_factory, monkeypatch_module):
    specs = [(224, 224, True), (197, 131, False)]
    return _prepared(tmp_path_factory, monkeypatch_module, "s-adapt", specs)


@pytest.fixture(scope="module")
def cr2(tmp_path_factory, monkeypatch_module):
    """b16-ablation with mixer-b16-cr2 alone, its closest-to-tolerance model."""
    make = workloads.make
    monkeypatch_module.setattr(
        workloads, "make",
        lambda w, s, d: workloads.ModelBench(w, s, d, ("mixer-b16-cr2",), adapted=False),
    )
    bench, _ = _prepared(tmp_path_factory, monkeypatch_module, "b16-ablation", [(224, 224, True)])
    monkeypatch_module.setattr(workloads, "make", make)
    return bench


def _swap_directions(model):
    params = models.named_parameters(model)
    swap = {".vertical.": ".horizontal.", ".horizontal.": ".vertical."}
    out = {}
    for name, tensor in params.items():
        for a, b in swap.items():
            if a in name:
                name = name.replace(a, b)
                break
        out[name] = tensor
    return replace_parameters(model, out)


def _fold_o_r(monkeypatch):
    """Fold channels as (o r) instead of (r o) in raft token mixing."""
    parse = blocks.parse_rearrange
    monkeypatch.setattr(
        blocks, "parse_rearrange",
        lambda pattern, bind=None: parse(pattern.replace("(h w) (r o) ->", "(h w) (o r) ->"), bind),
    )


def _shift_bicubic_tap(monkeypatch):
    plan = ops._resize_plan

    def shifted(n_in, n_out):
        idx, weights = plan(n_in, n_out)
        return np.clip(idx + 1, 0, n_in - 1), weights

    monkeypatch.setattr(ops, "_resize_plan", shifted)


# --- the package passes ------------------------------------------------------


@pytest.mark.parametrize("name", ["s224", "s_adapt"])
def test_program_passes_every_check(name, request):
    bench, warm = request.getfixturevalue(name)
    assert bench.setup_checks() == []
    for key in bench.round(0):
        out = bench.run(key)
        assert bench.check(key, out) is None
        assert bench.check(key, bench.run(key)) is None


def test_cr2_passes(cr2):
    key = ("mixer-b16-cr2", 0)
    assert cr2.check(key, cr2.run(key)) is None


def test_gradcheck_passes():
    bench = workloads.make("gradcheck", SEED, None)
    for key in bench.round(0):
        assert bench.check(key, bench.run(key)) is None


# --- planted faults are caught -----------------------------------------------


def test_swapped_directions_fail_reference(s224, cr2):
    for bench, key in ((s224[0], ("raftmlp-s", 0)), (cr2, ("mixer-b16-cr2", 0))):
        model = bench.models[key[0]]
        bench.models[key[0]] = _swap_directions(model)
        try:
            assert "reference" in bench.check(key, bench.run(key))
        finally:
            bench.models[key[0]] = model


def test_fold_order_fails_reference(s224, cr2, monkeypatch):
    _fold_o_r(monkeypatch)
    for bench, key in ((s224[0], ("raftmlp-s", 0)), (cr2, ("mixer-b16-cr2", 0))):
        assert "reference" in bench.check(key, bench.run(key))


def test_shifted_bicubic_tap_fails_both_adapt_checks(s_adapt, monkeypatch):
    bench, _ = s_adapt
    bench.setup_checks()
    _shift_bicubic_tap(monkeypatch)
    for key in bench.round(0):
        assert bench.check(key, bench.run(key)) is not None
    # With the reference check out of the way, the native image still fails bitwise.
    monkeypatch.setattr(workloads, "TOLERANCE", np.inf)
    bench._first.clear()
    assert "bitwise" in bench.check(("raftmlp-s", 0), bench.run(("raftmlp-s", 0)))


def test_changed_bits_on_repeat_fail(s224):
    bench, _ = s224
    key = ("raftmlp-s", 0)
    logits, probs = bench.run(key)
    assert bench.check(key, (logits, probs)) is None
    nudged = np.nextafter(logits.numpy(), np.float32(np.inf))
    assert "bits" in bench.check(key, (Tensor(nudged, dtype="f32"), probs))


def test_wrong_gelu_derivative_fails_gradcheck(monkeypatch):
    derivative = ops._gelu_derivative
    monkeypatch.setattr(ops, "_gelu_derivative", lambda a: derivative(a) * 1.01)
    bench = workloads.make("gradcheck", SEED, None)
    key = bench.round(0)[GRADCHECK_CHANNEL]
    assert bench.check(key, bench.run(key)) is not None


def test_altered_weights_on_load_fail_setup(s224, monkeypatch):
    bench, _ = s224
    load = container.load_weights

    def load_nudged(model, path):
        loaded = load(model, path)
        params = dict(models.named_parameters(loaded))
        head = params["head.bias"].numpy()
        params["head.bias"] = Tensor(np.nextafter(head, np.float32(1)), dtype="f32")
        return replace_parameters(loaded, params)

    monkeypatch.setattr(container, "load_weights", load_nudged)
    bench.setup_once()
    try:
        assert any("loaded parameters" in e for e in bench.setup_checks())
    finally:
        monkeypatch.undo()
        bench.setup_once()


def test_miscounted_macs_fail_setup(s224, monkeypatch):
    bench, _ = s224
    monkeypatch.setattr(cost, "_mixing_macs", lambda p, sites: sites * p.fc1.d_in * p.fc1.d_out)
    assert any("MAC tally" in e for e in bench.setup_checks())


# --- the tally, the tracer and the reference ---------------------------------


def test_tally_matches_cost_report_and_readme(s224):
    bench, _ = s224
    model = bench.models["raftmlp-s"]
    shapes = {k: v.shape for k, v in models.named_parameters(model).items()}
    rows, stages = workloads.model_tally(shapes, reference.ARCHS["raftmlp-s"], (224, 224))
    assert sum(rows.values()) == sum(stages.values()) == 2_087_030_784
    assert rows == {r.name: r.macs for r in cost.cost_report(model).rows}


def test_traced_op_counts_tally_macs_and_restores(s224):
    bench, _ = s224
    key = ("raftmlp-s", 0)
    originals = (models.forward, ops.linear, blocks.raft_token_mixing)
    tracer = spans.Tracer()
    restore, missing = spans.install(tracer)
    try:
        assert missing == []
        out = bench.run(key)
    finally:
        restore()
    assert (models.forward, ops.linear, blocks.raft_token_mixing) == originals
    assert bench.check(key, out) is None
    macs = sum(tracer.work[s] for s in macs_stages)
    assert macs == 2_087_030_784
    assert tracer.calls["token_mix.raft"] == 12 and tracer.calls["token_mix.plain"] == 0


def test_reference_bicubic_matches_package_in_f64():
    rng = np.random.default_rng(0)
    planes = rng.normal(size=(3, 13, 9))
    for out_h, out_w in ((13, 9), (7, 20), (26, 5)):
        got = ops.bicubic_resize(Tensor(planes, dtype="f64"), out_h, out_w).numpy()
        np.testing.assert_allclose(reference._resize(planes, out_h, out_w), got, rtol=0, atol=1e-12)
    assert np.array_equal(reference.resize_matrix(11, 11), np.eye(11))
