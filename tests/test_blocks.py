"""Mixing blocks and patch embedding against hand cases and loop oracles."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from raftmlp import blocks, models, rearrange, selftest
from raftmlp.autograd import backward, grad_check, trace
from raftmlp.blocks import (
    EmbedParams,
    MixingParams,
    RaftTokenMixingParams,
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
    trunc_normal,
    vertical_mixing,
)
from raftmlp.ops import LayerNormParams, LinearParams, gelu, layer_norm, linear
from raftmlp.rearrange import apply_rearrange, invert, parse_rearrange
from raftmlp.tensor import PatchGrid, ShapeError, Tensor, add, vdot

GELU_AT_1 = 0.84134474606854294859
GELU_AT_MINUS_1 = -0.15865525393145705141


def _zero_fc2(p: MixingParams) -> MixingParams:
    z = LinearParams(
        weight=Tensor.zeros(p.fc2.weight.shape, dtype=p.fc2.weight.dtype),
        bias=Tensor.zeros(p.fc2.bias.shape, dtype=p.fc2.bias.dtype),
    )
    return dataclasses.replace(p, fc2=z)


def _ln(c):
    return LayerNormParams(gamma=Tensor.ones((c,)), beta=Tensor.zeros((c,)))


# ---------------------------------------------------------------------------
# Independent numpy oracle for the full raft-token-mixing computation.
# Layer norm, GELU and both rearrangements are spelled out longhand.
# ---------------------------------------------------------------------------


def _oracle_ln(x, ln):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)  # population variance
    return ln.gamma.numpy() * (x - mean) / np.sqrt(var + ln.eps) + ln.beta.numpy()


def _oracle_gelu(x):
    out = np.empty_like(x)
    flat_in, flat_out = x.reshape(-1), out.reshape(-1)
    for i, v in enumerate(flat_in):
        flat_out[i] = v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))
    return out


def _oracle_mlp(rows, p):
    w1, b1 = p.fc1.weight.numpy(), p.fc1.bias.numpy()
    w2, b2 = p.fc2.weight.numpy(), p.fc2.bias.numpy()
    return _oracle_gelu(rows @ w1 + b1) @ w2 + b2


def _oracle_raft(x, p, h, w, r):
    """Both directional passes of raft token mixing via explicit index loops."""
    c = x.shape[1]
    o = c // r

    # vertical: (h w) (r o) -> (o w) (r h), MLP over r*h, inverse, residual
    y = _oracle_ln(x, p.vertical.ln)
    v = np.zeros((o * w, r * h))
    for hi, wi, ri, oi in itertools.product(range(h), range(w), range(r), range(o)):
        v[oi * w + wi, ri * h + hi] = y[hi * w + wi, ri * o + oi]
    v = _oracle_mlp(v, p.vertical)
    back = np.zeros_like(x)
    for hi, wi, ri, oi in itertools.product(range(h), range(w), range(r), range(o)):
        back[hi * w + wi, ri * o + oi] = v[oi * w + wi, ri * h + hi]
    x = x + back

    # horizontal: (h w) (r o) -> (o h) (r w)
    y = _oracle_ln(x, p.horizontal.ln)
    u = np.zeros((o * h, r * w))
    for hi, wi, ri, oi in itertools.product(range(h), range(w), range(r), range(o)):
        u[oi * h + hi, ri * w + wi] = y[hi * w + wi, ri * o + oi]
    u = _oracle_mlp(u, p.horizontal)
    back = np.zeros_like(x)
    for hi, wi, ri, oi in itertools.product(range(h), range(w), range(r), range(o)):
        back[hi * w + wi, ri * o + oi] = u[oi * h + hi, ri * w + wi]
    return x + back


class TestMixingMlp:
    def test_zero_fc2_is_identity(self):
        rng = np.random.default_rng(0)
        p = _zero_fc2(init_mixing(rng, channels=5, dim=5, hidden=10, dtype="f64"))
        x = Tensor(rng.normal(size=(7, 5)), dtype="f64")
        assert np.array_equal(mixing_mlp(x, p).numpy(), x.numpy())

    def test_hand_evaluated_two_channel_case(self):
        # x = [1, -1]: LN (eps -> 0) fixes it, identity fc1 feeds GELU, and
        # identity fc2 adds the result back onto the input.
        eye = LinearParams(weight=Tensor(np.eye(2)), bias=Tensor(np.zeros(2)))
        p = MixingParams(
            ln=LayerNormParams(gamma=Tensor(np.ones(2)), beta=Tensor(np.zeros(2)), eps=1e-12),
            fc1=eye,
            fc2=eye,
        )
        out = mixing_mlp(Tensor([[1.0, -1.0]]), p).numpy()
        want = np.array([[1.0 + GELU_AT_1, -1.0 + GELU_AT_MINUS_1]])
        assert np.max(np.abs(out - want)) < 1e-9

    def test_residual_is_shift_invariant(self):
        # The non-residual path only sees x through the layer norm, so a
        # constant shift of the input shifts the output by the same constant.
        rng = np.random.default_rng(1)
        p = init_mixing(rng, channels=6, dim=6, hidden=12, dtype="f64")
        x = rng.normal(size=(4, 6))
        base = mixing_mlp(Tensor(x), p).numpy() - x
        shifted = mixing_mlp(Tensor(x + 3.75), p).numpy() - (x + 3.75)
        assert np.max(np.abs(base - shifted)) < 1e-9

    def test_mlp_axis_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        p = init_mixing(rng, channels=5, dim=4, hidden=8, dtype="f64")
        with pytest.raises(ShapeError):
            mixing_mlp(Tensor(np.zeros((7, 5))), p)

    def test_params_validate_chain(self):
        good = init_linear(None, 4, 8)
        bad = init_linear(None, 9, 4)
        with pytest.raises(ShapeError):
            MixingParams(ln=_ln(4), fc1=good, fc2=bad)


def _overflowing(p: MixingParams) -> MixingParams:
    """p with finite weights whose fc1 output overflows f32.

    A layer-norm shift of 4 keeps every normalized value of a 4-channel
    token positive, so each fc1 sum of at least two of them times 3e38
    exceeds the f32 maximum (3.4e38).
    """
    assert p.ln.dim == 4 and p.fc1.d_in >= 2
    ln = dataclasses.replace(p.ln, beta=Tensor(np.full(4, 4.0), dtype="f32"))
    big = Tensor(np.full(p.fc1.weight.shape, 3e38), dtype="f32")
    return dataclasses.replace(p, ln=ln, fc1=dataclasses.replace(p.fc1, weight=big))


class TestErrorSurface:
    """Overflow inside an MLP raises the same error inside a trace and outside one."""

    @pytest.mark.parametrize("traced", [False, True])
    def test_channel_mixing_overflow_raises(self, traced):
        rng = np.random.default_rng(6)
        p = _overflowing(init_channel_mixing(rng, channels=4, e_chan=2))
        x = Tensor(rng.normal(size=(6, 4)), dtype="f32")
        self._assert_raises_non_finite(lambda: channel_mixing(x, p), traced)

    @pytest.mark.parametrize("traced", [False, True])
    def test_raft_token_mixing_overflow_raises(self, traced):
        rng = np.random.default_rng(7)
        grid = PatchGrid(2, 3, 4)
        p = init_raft_token_mixing(rng, grid, raft_size=2)
        p = RaftTokenMixingParams(_overflowing(p.vertical), p.horizontal)
        x = Tensor(rng.normal(size=(6, 4)), dtype="f32")
        self._assert_raises_non_finite(lambda: raft_token_mixing(x, p, grid), traced)

    @pytest.mark.parametrize("traced", [False, True])
    def test_dtype_misfits_raise_the_taped_ops_errors(self, traced):
        rng = np.random.default_rng(8)
        p32 = init_mixing(rng, channels=4, dim=4, hidden=8)
        p64 = init_mixing(rng, channels=4, dim=4, hidden=8, dtype="f64")
        x = Tensor(rng.normal(size=(3, 4)), dtype="f64")
        cases = (
            (p32, "layer_norm: dtype mismatch (f64 vs f32)"),
            (dataclasses.replace(p64, fc1=p32.fc1), "linear: dtype mismatch (f64 vs f32)"),
            (dataclasses.replace(p64, fc2=p32.fc2), "linear: dtype mismatch (f64 vs f32)"),
        )
        for p, message in cases:
            with pytest.raises(ShapeError, match=re.escape(message)):
                if traced:
                    with trace():
                        mixing_mlp(x, p)
                else:
                    mixing_mlp(x, p)

    @staticmethod
    def _assert_raises_non_finite(run, traced):
        with np.errstate(all="ignore"), pytest.raises(ValueError) as exc_info:
            if traced:
                with trace():
                    run()
            else:
                run()
        assert str(exc_info.value) == "tensor contains NaN or Inf"


def _random_mixing(rng, channels, dim, hidden, dtype):
    """Mixing params with every entry random, so no adjoint is trivially zero."""
    draw = lambda *shape: Tensor(rng.normal(size=shape), dtype=dtype)
    return MixingParams(
        ln=LayerNormParams(gamma=draw(channels), beta=draw(channels)),
        fc1=LinearParams(draw(dim, hidden), draw(hidden)),
        fc2=LinearParams(draw(hidden, dim), draw(dim)),
    )


def _op_chain_mlp(x, p, to_mlp):
    """The mixing MLP spelled as its chain of taped ops, one node per op.

    ``to_mlp``'s bindings must pin every length its inverse cannot infer.
    """
    y = layer_norm(x, p.ln)
    if to_mlp is not None:
        y = apply_rearrange(to_mlp, y)
    y = linear(gelu(linear(y, p.fc1)), p.fc2)
    if to_mlp is not None:
        y = apply_rearrange(invert(to_mlp), y)
    return add(x, y)


# (input shape, channels, MLP dim, pattern, bindings): no move, plain token
# mixing, and the vertical and horizontal raft moves on a 3x2 grid, r = 2.
_MOVES = {
    "none": ((6, 5), 5, 5, None, {}),
    "token": ((6, 5), 5, 6, "t c -> c t", {}),
    "raft-vertical": ((6, 4), 4, 6, "(h w) (r o) -> (o w) (r h)", {"h": 3, "w": 2, "r": 2}),
    "raft-horizontal": ((6, 4), 4, 4, "(h w) (r o) -> (o h) (r w)", {"h": 3, "w": 2, "r": 2}),
}


class TestMixingMlpNode:
    """Inside a trace a mixing MLP is one tape node whose VJP chains the per-op adjoints."""

    @staticmethod
    def _case(move, dtype, seed=0):
        shape, channels, dim, pattern, bind = _MOVES[move]
        rng = np.random.default_rng(seed)
        p = _random_mixing(rng, channels, dim, 2 * dim + 1, dtype)
        x = Tensor(rng.normal(size=shape), dtype=dtype)
        probe = Tensor(rng.normal(size=shape), dtype=dtype)
        spec = None if pattern is None else parse_rearrange(pattern, bind)
        return p, x, probe, spec

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("move", sorted(_MOVES))
    def test_adjoints_bitwise_equal_to_the_op_chain(self, move, dtype):
        p, x, probe, spec = self._case(move, dtype)
        leaves = (x, p.ln.gamma, p.ln.beta, p.fc1.weight, p.fc1.bias, p.fc2.weight, p.fc2.bias)
        results = []
        for mlp in (mixing_mlp, _op_chain_mlp):
            with trace() as tr:
                out = vdot(mlp(x, p, spec), probe)
            grads = backward(tr, out, wrt=leaves)
            results.append((out, [grads[t].numpy() for t in leaves], tr))
        (out, got, tr), (ref_out, want, _) = results
        assert [node.op for node in tr.nodes] == ["mixing_mlp", "vdot"]
        assert out.numpy().tobytes() == ref_out.numpy().tobytes()
        for name, g, w in zip(("x", "gamma", "beta", "w1", "b1", "w2", "b2"), got, want):
            assert np.abs(g).max() > 0, name
            assert g.tobytes() == w.tobytes(), name

    @pytest.mark.parametrize("param", ["fc1.weight", "ln.gamma"])
    def test_parameter_adjoint_matches_finite_differences(self, param):
        p, x, probe, spec = self._case("raft-vertical", "f64", seed=1)
        part, field = param.split(".")

        def f(value):
            sub = dataclasses.replace(getattr(p, part), **{field: value})
            q = dataclasses.replace(p, **{part: sub})
            return vdot(mixing_mlp(x, q, spec), probe)

        report = grad_check(f, getattr(getattr(p, part), field))
        assert report.max_rel_err < 1e-6


class TestDirectionalMixing:
    def test_zero_fc2_identities(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 3, 5)), dtype="f64")
        vert = _zero_fc2(init_mixing(rng, channels=5, dim=4, hidden=8, dtype="f64"))
        hori = _zero_fc2(init_mixing(rng, channels=5, dim=3, hidden=6, dtype="f64"))
        assert np.array_equal(vertical_mixing(x, vert).numpy(), x.numpy())
        assert np.array_equal(horizontal_mixing(x, hori).numpy(), x.numpy())

    @pytest.mark.parametrize("seed", range(10))
    def test_vertical_commutes_with_column_permutation(self, seed):
        rng = np.random.default_rng(100 + seed)
        h, w, c = 5, 6, 4
        p = init_mixing(rng, channels=c, dim=h, hidden=2 * h, dtype="f64")
        x = rng.normal(size=(h, w, c))
        perm = rng.permutation(w)
        mixed_then_perm = vertical_mixing(Tensor(x), p).numpy()[:, perm, :]
        perm_then_mixed = vertical_mixing(Tensor(x[:, perm, :]), p).numpy()
        assert np.max(np.abs(mixed_then_perm - perm_then_mixed)) <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_horizontal_commutes_with_row_permutation(self, seed):
        rng = np.random.default_rng(200 + seed)
        h, w, c = 6, 5, 4
        p = init_mixing(rng, channels=c, dim=w, hidden=2 * w, dtype="f64")
        x = rng.normal(size=(h, w, c))
        perm = rng.permutation(h)
        mixed_then_perm = horizontal_mixing(Tensor(x), p).numpy()[perm, :, :]
        perm_then_mixed = horizontal_mixing(Tensor(x[perm, :, :]), p).numpy()
        assert np.max(np.abs(mixed_then_perm - perm_then_mixed)) <= 1e-12

    def test_rejects_wrong_rank(self):
        rng = np.random.default_rng(4)
        p = init_mixing(rng, channels=5, dim=4, hidden=8, dtype="f64")
        with pytest.raises(ShapeError):
            vertical_mixing(Tensor(np.zeros((4, 5))), p)


class TestRaftTokenMixing:
    def test_zero_fc2_is_identity(self):
        rng = np.random.default_rng(5)
        grid = PatchGrid(3, 4, 6)
        p = init_raft_token_mixing(rng, grid, raft_size=2, dtype="f64")
        p = RaftTokenMixingParams(_zero_fc2(p.vertical), _zero_fc2(p.horizontal))
        x = Tensor(rng.normal(size=(12, 6)), dtype="f64")
        assert np.array_equal(raft_token_mixing(x, p, grid).numpy(), x.numpy())

    @pytest.mark.parametrize("seed", range(5))
    def test_r1_equals_directional_composition(self, seed):
        rng = np.random.default_rng(300 + seed)
        h, w, c = 4, 3, 5
        grid = PatchGrid(h, w, c)
        p = init_raft_token_mixing(rng, grid, raft_size=1, dtype="f64")
        x = rng.normal(size=(h * w, c))

        got = raft_token_mixing(Tensor(x), p, grid).numpy()

        planes = Tensor(x.reshape(h, w, c))
        composed = horizontal_mixing(vertical_mixing(planes, p.vertical), p.horizontal)
        assert np.array_equal(got, composed.numpy().reshape(h * w, c))

    def test_minimal_case_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        grid = PatchGrid(2, 2, 2)
        p = init_raft_token_mixing(rng, grid, raft_size=2, dtype="f64")
        x = rng.normal(size=(4, 2))
        got = raft_token_mixing(Tensor(x), p, grid).numpy()
        assert np.max(np.abs(got - _oracle_raft(x, p, 2, 2, 2))) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_loop_oracle_sweep(self, seed):
        rng = np.random.default_rng(400 + seed)
        for h, w, c in itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3, 4)):
            for r in (1, 2):
                if c % r:
                    continue
                grid = PatchGrid(h, w, c)
                p = init_raft_token_mixing(rng, grid, raft_size=r, dtype="f64")
                x = rng.normal(size=(h * w, c))
                got = raft_token_mixing(Tensor(x), p, grid).numpy()
                want = _oracle_raft(x, p, h, w, r)
                assert np.max(np.abs(got - want)) < 1e-12, (h, w, c, r)

    @pytest.mark.parametrize("e", [1, 2, 4])
    @pytest.mark.parametrize("r", [1, 2, 4])
    @pytest.mark.parametrize("h, w", [(1, 1), (2, 3), (4, 4), (5, 2), (7, 7), (16, 16)])
    def test_matches_loop_oracle_at_each_expansion(self, h, w, r, e):
        # r is read from the weights, whatever the hidden width e*r*h' is.
        rng = np.random.default_rng(500 + 100 * e + r)
        grid = PatchGrid(h, w, 4 * r)
        p = init_raft_token_mixing(rng, grid, raft_size=r, e=e, dtype="f64")
        x = rng.normal(size=(h * w, 4 * r))
        got = raft_token_mixing(Tensor(x), p, grid).numpy()
        assert np.max(np.abs(got - _oracle_raft(x, p, h, w, r))) < 1e-12

    def test_shape_preserved_exhaustively(self):
        rng = np.random.default_rng(7)
        for h, w, c in itertools.product((1, 3, 8), (2, 5, 8), (2, 4, 8)):
            for r in (1, 2, 4):
                if c % r:
                    continue
                grid = PatchGrid(h, w, c)
                p = init_raft_token_mixing(rng, grid, raft_size=r, dtype="f64")
                x = Tensor(rng.normal(size=(h * w, c)), dtype="f64")
                assert raft_token_mixing(x, p, grid).shape == (h * w, c)

    def test_a_parse_patched_after_a_warm_call_shows_and_its_undo_restores(self, monkeypatch):
        # Plans are cached per spec and shape, but the spec is parsed at call
        # time: folding the channels as (o r) must change the output even
        # though the (r o) plans for these shapes are already built.
        rng = np.random.default_rng(12)
        grid = PatchGrid(3, 2, 8)
        p = init_raft_token_mixing(rng, grid, raft_size=2, dtype="f64")
        x = Tensor(rng.normal(size=(6, 8)), dtype="f64")
        warm = raft_token_mixing(x, p, grid).numpy()

        parse = blocks.parse_rearrange
        monkeypatch.setattr(
            blocks, "parse_rearrange",
            lambda pattern, bind=None: parse(pattern.replace("(r o) ->", "(o r) ->"), bind),
        )
        folded = raft_token_mixing(x, p, grid).numpy()
        assert not np.array_equal(folded, warm)
        monkeypatch.undo()
        assert raft_token_mixing(x, p, grid).numpy().tobytes() == warm.tobytes()

    def test_a_second_same_size_forward_builds_no_plan(self, monkeypatch):
        builds = []
        move = rearrange.Move

        def counted(*args):
            builds.append(args)
            return move(*args)

        model = models.build_model(selftest.tiny_config(), dtype="f64")
        image = Tensor(np.random.default_rng(13).normal(size=(3, 16, 16)), dtype="f64")
        rearrange._plan.cache_clear()
        monkeypatch.setattr(rearrange, "Move", counted)
        first = models.forward(model, image).numpy()
        assert builds
        built = len(builds)
        second = models.forward(model, image).numpy()
        assert len(builds) == built
        assert second.tobytes() == first.tobytes()

    def test_directional_norms_are_separate(self):
        rng = np.random.default_rng(8)
        grid = PatchGrid(2, 2, 4)
        p = init_raft_token_mixing(rng, grid, raft_size=2, dtype="f64")
        assert p.vertical.ln is not p.horizontal.ln

    def test_rejects_indivisible_channels(self):
        rng = np.random.default_rng(9)
        grid = PatchGrid(2, 2, 5)
        with pytest.raises(ValueError):
            init_raft_token_mixing(rng, grid, raft_size=2, dtype="f64")

    def test_rejects_token_count_mismatch(self):
        rng = np.random.default_rng(10)
        grid = PatchGrid(2, 3, 4)
        p = init_raft_token_mixing(rng, grid, raft_size=2, dtype="f64")
        with pytest.raises(ShapeError):
            raft_token_mixing(Tensor(np.zeros((5, 4))), p, grid)

    def test_rejects_directions_of_different_raft_sizes(self):
        # The raft size is read from the weights: an r=2 vertical MLP beside
        # an r=1 horizontal one fits no single r.
        rng = np.random.default_rng(11)
        grid = PatchGrid(2, 3, 4)
        vertical = init_raft_token_mixing(rng, grid, raft_size=2, dtype="f64").vertical
        horizontal = init_raft_token_mixing(rng, grid, raft_size=1, dtype="f64").horizontal
        p = RaftTokenMixingParams(vertical, horizontal)
        x = Tensor(rng.normal(size=(6, 4)), dtype="f64")
        with pytest.raises(ShapeError, match="^raft_token_mixing"):
            raft_token_mixing(x, p, grid)

    @pytest.mark.parametrize("grid", [PatchGrid(3, 3, 4), PatchGrid(2, 3, 3)])
    def test_rejects_weights_that_do_not_fit_the_grid(self, grid):
        # Built for a 2x3 grid with r=2: the vertical width 4 is no multiple
        # of h'=3, and 3 channels do not split into two subgroups.
        rng = np.random.default_rng(12)
        p = init_raft_token_mixing(rng, PatchGrid(2, 3, 4), raft_size=2, dtype="f64")
        x = Tensor(rng.normal(size=(grid.tokens, grid.channels)), dtype="f64")
        with pytest.raises(ShapeError, match="^raft_token_mixing"):
            raft_token_mixing(x, p, grid)


class TestChannelMixing:
    def test_zero_fc2_is_identity(self):
        rng = np.random.default_rng(11)
        p = _zero_fc2(init_channel_mixing(rng, 6, dtype="f64"))
        x = Tensor(rng.normal(size=(9, 6)), dtype="f64")
        assert np.array_equal(channel_mixing(x, p).numpy(), x.numpy())

    @pytest.mark.parametrize("seed", range(10))
    def test_commutes_with_token_permutation(self, seed):
        rng = np.random.default_rng(500 + seed)
        p = init_channel_mixing(rng, 5, dtype="f64")
        x = rng.normal(size=(8, 5))
        perm = rng.permutation(8)
        a = channel_mixing(Tensor(x), p).numpy()[perm]
        b = channel_mixing(Tensor(x[perm]), p).numpy()
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_single_token_reduces_to_mixing_mlp(self):
        rng = np.random.default_rng(12)
        p = init_channel_mixing(rng, 4, dtype="f64")
        x = Tensor(rng.normal(size=(1, 4)), dtype="f64")
        assert np.array_equal(channel_mixing(x, p).numpy(), mixing_mlp(x, p).numpy())


class TestRaftMlpBlock:
    def test_all_zero_fc2_is_identity(self):
        rng = np.random.default_rng(13)
        grid = PatchGrid(3, 3, 4)
        tok = init_raft_token_mixing(rng, grid, raft_size=2, dtype="f64")
        tok = RaftTokenMixingParams(
            vertical=_zero_fc2(tok.vertical), horizontal=_zero_fc2(tok.horizontal)
        )
        chan = _zero_fc2(init_channel_mixing(rng, 4, dtype="f64"))
        x = Tensor(rng.normal(size=(9, 4)), dtype="f64")
        out = channel_mixing(raft_token_mixing(x, tok, grid), chan)
        assert np.array_equal(out.numpy(), x.numpy())

    def test_equals_manual_composition(self):
        rng = np.random.default_rng(14)
        grid = PatchGrid(2, 3, 6)
        tok = init_raft_token_mixing(rng, grid, raft_size=2, dtype="f64")
        chan = init_channel_mixing(rng, 6, dtype="f64")
        x = Tensor(rng.normal(size=(6, 6)), dtype="f64")
        a = channel_mixing(raft_token_mixing(x, tok, grid), chan).numpy()
        bind = {"h": grid.h_prime, "w": grid.w_prime, "r": 2}
        y = mixing_mlp(x, tok.vertical, parse_rearrange("(h w) (r o) -> (o w) (r h)", bind))
        y = mixing_mlp(y, tok.horizontal, parse_rearrange("(h w) (r o) -> (o h) (r w)", bind))
        b = mixing_mlp(y, chan).numpy()
        assert np.array_equal(a, b)


class TestMultiScalePatchEmbed:
    def test_scale_zero_equals_plain_patching(self):
        rng = np.random.default_rng(15)
        c_in, h, w, stride, c_out = 3, 8, 8, 4, 6
        p = init_embed(rng, c_in, c_out, stride=stride, scales=(0,), dtype="f64")
        x = rng.normal(size=(c_in, h, w))
        got = multi_scale_patch_embed(Tensor(x), p).numpy()

        rows = []
        for i in range(h // stride):
            for j in range(w // stride):
                rows.append(
                    x[:, i * stride : (i + 1) * stride, j * stride : (j + 1) * stride].reshape(-1)
                )
        want = np.stack(rows) @ p.projection.weight.numpy() + p.projection.bias.numpy()
        assert np.array_equal(got, want)

    def test_two_scales_equal_padded_patching_by_hand(self):
        # Each token's row is its scale-0 patch, then its scale-1 patch of
        # twice the side, zero-padded by stride / 2 around the image.
        rng = np.random.default_rng(21)
        c_in, h, w, stride, c_out = 2, 8, 12, 4, 6
        p = init_embed(rng, c_in, c_out, stride=stride, scales=(0, 1), dtype="f64")
        x = rng.normal(size=(c_in, h, w))
        got = multi_scale_patch_embed(Tensor(x), p).numpy()

        q = stride // 2
        padded = np.zeros((c_in, h + 2 * q, w + 2 * q))
        padded[:, q : q + h, q : q + w] = x
        rows = []
        for i in range(0, h, stride):
            for j in range(0, w, stride):
                scale0 = x[:, i : i + stride, j : j + stride].reshape(-1)
                scale1 = padded[:, i : i + 2 * stride, j : j + 2 * stride].reshape(-1)
                rows.append(np.concatenate([scale0, scale1]))
        want = np.stack(rows) @ p.projection.weight.numpy() + p.projection.bias.numpy()
        assert np.array_equal(got, want)

    def test_two_scale_shape_arithmetic(self):
        rng = np.random.default_rng(16)
        p = init_embed(rng, c_in=3, c_out=10, stride=4, scales=(0, 1), dtype="f64")
        # scale 0 contributes 3*16 = 48 channels, scale 1 contributes 3*64 = 192
        assert p.projection.d_in == 240
        x = Tensor(rng.normal(size=(3, 8, 8)), dtype="f64")
        assert multi_scale_patch_embed(x, p).shape == (4, 10)

    def test_scale_order_is_ascending(self):
        rng = np.random.default_rng(17)
        p = init_embed(rng, c_in=1, c_out=3, stride=2, scales=(1, 0), dtype="f64")
        assert p.scales == (0, 1)

    def test_zero_image_gives_replicated_bias(self):
        rng = np.random.default_rng(18)
        p = init_embed(rng, c_in=2, c_out=5, stride=2, scales=(0, 1), dtype="f64")
        out = multi_scale_patch_embed(Tensor(np.zeros((2, 6, 6))), p).numpy()
        assert np.array_equal(out, np.tile(p.projection.bias.numpy(), (9, 1)))

    def test_rejects_indivisible_image(self):
        rng = np.random.default_rng(19)
        p = init_embed(rng, c_in=1, c_out=2, stride=4, scales=(0,), dtype="f64")
        with pytest.raises(ShapeError):
            multi_scale_patch_embed(Tensor(np.zeros((1, 10, 8))), p)

    def test_rejects_odd_stride_with_multiscale(self):
        with pytest.raises(ValueError):
            init_embed(None, c_in=1, c_out=2, stride=3, scales=(0, 1))

    def test_odd_stride_fine_for_scale_zero_only(self):
        p = init_embed(None, c_in=1, c_out=2, stride=3, scales=(0,))
        assert p.stride == 3

    def test_rejects_projection_size_mismatch(self):
        p = EmbedParams(stride=2, scales=(0,), projection=init_linear(None, 8, 3))
        with pytest.raises(ShapeError):
            multi_scale_patch_embed(Tensor(np.zeros((3, 4, 4))), p)


class TestInitializers:
    def test_trunc_normal_resamples_tails(self):
        rng = np.random.default_rng(20)
        t = trunc_normal(rng, (200, 200), std=0.02)
        assert np.max(np.abs(t.numpy())) <= 0.04

    def test_zero_init_when_rng_is_none(self):
        p = init_linear(None, 3, 4)
        assert not p.weight.numpy().any()
        assert not p.bias.numpy().any()

    def test_seeded_builds_are_reproducible(self):
        a = init_mixing(np.random.default_rng(21), channels=4, dim=4, hidden=8)
        b = init_mixing(np.random.default_rng(21), channels=4, dim=4, hidden=8)
        assert np.array_equal(a.fc1.weight.numpy(), b.fc1.weight.numpy())
