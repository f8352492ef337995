"""Rearrangement DSL: parser errors, index-loop oracle, roundtrips."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raftmlp import rearrange as rearrange_module
from raftmlp.autograd import trace
from raftmlp.rearrange import (
    RearrangeError,
    RearrangeSpec,
    apply_rearrange,
    invert,
    parse_rearrange,
    rearrange,
)
from raftmlp.tensor import Tensor

# The four patterns the raft-token-mixing block uses, as forward/inverse pairs.
RAFT_PATTERNS = (
    ("b (h w) (r o) -> b (o w) (r h)", "b (o w) (r h) -> b (h w) (r o)"),
    ("b (h w) (r o) -> b (o h) (r w)", "b (o h) (r w) -> b (h w) (r o)"),
)


def _vertical_oracle(arr, h, w, r, o):
    """Copy scalars one at a time: 'b (h w) (r o) -> b (o w) (r h)'."""
    b = arr.shape[0]
    out = np.zeros((b, o * w, r * h), dtype=arr.dtype)
    for bi in range(b):
        for hi in range(h):
            for wi in range(w):
                for ri in range(r):
                    for oi in range(o):
                        out[bi, oi * w + wi, ri * h + hi] = arr[bi, hi * w + wi, ri * o + oi]
    return out


def _horizontal_oracle(arr, h, w, r, o):
    """'b (h w) (r o) -> b (o h) (r w)' by explicit index walking."""
    b = arr.shape[0]
    out = np.zeros((b, o * h, r * w), dtype=arr.dtype)
    for bi in range(b):
        for hi in range(h):
            for wi in range(w):
                for ri in range(r):
                    for oi in range(o):
                        out[bi, oi * h + hi, ri * w + wi] = arr[bi, hi * w + wi, ri * o + oi]
    return out


class TestParser:
    def test_identity_pattern(self):
        spec = parse_rearrange("a b -> a b")
        assert spec.lhs == (("a",), ("b",))
        assert spec.rhs == (("a",), ("b",))

    def test_groups_and_bindings(self):
        spec = parse_rearrange("b (h w) (r o) -> b (o w) (r h)", {"h": 2, "w": 3, "r": 2})
        assert spec.lhs == (("b",), ("h", "w"), ("r", "o"))
        assert dict(spec.bindings) == {"h": 2, "w": 3, "r": 2}

    def test_parsed_specs_are_shared_and_read_only(self):
        pattern = "(h w) (r o) -> (o w) (r h)"
        spec = parse_rearrange(pattern, {"h": 2, "w": 3, "r": 2})
        assert parse_rearrange(pattern, {"h": 2, "w": 3, "r": 2}) is spec
        with pytest.raises(TypeError):
            spec.bindings["h"] = 5
        mine = {"h": 2}
        direct = RearrangeSpec(spec.lhs, spec.rhs, mine)
        mine["h"] = 5
        assert dict(direct.bindings) == {"h": 2}

    def test_non_int_lengths_are_rejected_after_the_int_is_cached(self):
        parse_rearrange("a b -> b a", {"a": 2})
        for length in (np.int64(2), 2.0, True):
            with pytest.raises(RearrangeError, match="positive integer length"):
                parse_rearrange("a b -> b a", {"a": length})

    def test_pattern_roundtrips_through_repr(self):
        spec = parse_rearrange("b (h w) c -> (b c) h w", {"h": 2})
        assert spec.pattern == "b (h w) c -> (b c) h w"

    @pytest.mark.parametrize(
        "pattern, fragment",
        [
            ("a b -> a c", "'c'"),
            ("a b c -> a b", "'c'"),
            ("a a -> a a", "duplicate"),
            ("a (b -> a b", "unclosed"),
            ("a -> (a", "unclosed"),
            ("a b) -> a b", "')'"),
            ("a ((b c)) -> a b c", "nested"),
            ("a b -> a b -> a", "more than one"),
            ("a b", "missing '->'"),
            ("a $ -> a", "unexpected character"),
        ],
    )
    def test_syntax_errors(self, pattern, fragment):
        with pytest.raises(RearrangeError) as exc_info:
            parse_rearrange(pattern)
        assert fragment in str(exc_info.value)

    def test_syntax_error_reports_position(self):
        with pytest.raises(RearrangeError) as exc_info:
            parse_rearrange("ab %cd -> ab cd")
        assert exc_info.value.position == 3

    def test_unknown_binding_rejected(self):
        with pytest.raises(RearrangeError):
            parse_rearrange("a b -> b a", {"z": 3})

    def test_non_positive_binding_rejected(self):
        with pytest.raises(RearrangeError):
            parse_rearrange("(a b) -> a b", {"a": 0})

    def test_two_unbound_in_lhs_group_rejected(self):
        with pytest.raises(RearrangeError):
            parse_rearrange("(a b) c -> a b c")

    def test_one_unbound_per_group_ok(self):
        parse_rearrange("(a b) (c d) -> a b c d", {"a": 2, "c": 3})


class TestApply:
    def test_identity_is_bitwise(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        out = apply_rearrange(parse_rearrange("a b -> a b"), x)
        assert np.array_equal(out.numpy(), x.numpy())

    def test_transpose(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = rearrange(x, "a b -> b a")
        assert np.array_equal(out.numpy(), x.numpy().T)

    def test_inferred_axis_and_shape(self):
        spec = parse_rearrange("b (h w) (r o) -> b (o w) (r h)", {"h": 2, "w": 3, "r": 2})
        x = Tensor(np.zeros((1, 6, 8)))
        assert apply_rearrange(spec, x).shape == (1, 12, 4)

    @pytest.mark.parametrize("seed", range(3))
    def test_vertical_pattern_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        h, w, r, o = 2, 3, 2, 4
        x = rng.normal(size=(2, h * w, r * o))
        got = rearrange(Tensor(x), "b (h w) (r o) -> b (o w) (r h)", h=h, w=w, r=r).numpy()
        assert np.array_equal(got, _vertical_oracle(x, h, w, r, o))

    @pytest.mark.parametrize("seed", range(3))
    def test_horizontal_pattern_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        h, w, r, o = 3, 2, 2, 3
        x = rng.normal(size=(2, h * w, r * o))
        got = rearrange(Tensor(x), "b (h w) (r o) -> b (o h) (r w)", h=h, w=w, r=r).numpy()
        assert np.array_equal(got, _horizontal_oracle(x, h, w, r, o))

    def test_exhaustive_small_sizes_against_oracle(self):
        # Every (b, h, w, r, o) with each axis <= 4, checked scalar by scalar.
        for b, h, w, r, o in itertools.product((1, 2), (1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4)):
            x = np.arange(b * h * w * r * o, dtype=np.float64).reshape(b, h * w, r * o)
            got = rearrange(Tensor(x), "b (h w) (r o) -> b (o w) (r h)", h=h, w=w, r=r).numpy()
            assert np.array_equal(got, _vertical_oracle(x, h, w, r, o)), (b, h, w, r, o)

    def test_element_conservation(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 6, 6))
        out = rearrange(Tensor(x), "b (h w) (r o) -> b (o w) (r h)", h=2, w=3, r=2)
        assert sorted(out.numpy().reshape(-1).tolist()) == sorted(x.reshape(-1).tolist())

    def test_wrong_rank_rejected(self):
        spec = parse_rearrange("a b -> b a")
        with pytest.raises(RearrangeError):
            apply_rearrange(spec, Tensor(np.zeros((2, 2, 2))))

    def test_indivisible_shape_rejected(self):
        spec = parse_rearrange("(h w) c -> h w c", {"h": 3})
        with pytest.raises(RearrangeError):
            apply_rearrange(spec, Tensor(np.zeros((8, 2))))

    def test_fully_bound_group_must_match(self):
        spec = parse_rearrange("(h w) c -> h w c", {"h": 2, "w": 2})
        with pytest.raises(RearrangeError):
            apply_rearrange(spec, Tensor(np.zeros((6, 2))))


class TestPlans:
    """A plan is built once per (spec, shape), and two shapes never share one."""

    def test_one_spec_at_two_shapes_matches_the_loop_oracle(self):
        spec = parse_rearrange("b (h w) (r o) -> b (o w) (r h)", {"h": 2, "w": 3, "r": 2})
        rng = np.random.default_rng(21)
        # b and o are inferred, so the two shapes resolve to different sizes.
        shapes = ((2, 6, 8), (3, 6, 4), (2, 6, 8), (3, 6, 4))
        for b, hw, ro in shapes:
            x = rng.normal(size=(b, hw, ro))
            with trace() as tape:
                y = apply_rearrange(spec, Tensor(x))
            assert np.array_equal(y.numpy(), _vertical_oracle(x, 2, 3, 2, ro // 2))
            g = rng.normal(size=y.shape)
            back = tape.nodes[-1].vjp(g)[0]
            assert np.array_equal(back, apply_rearrange(invert(spec), Tensor(g)).numpy())

    def test_a_plan_is_built_once_per_spec_and_shape(self, monkeypatch):
        builds = []
        move = rearrange_module.Move

        def counted(*args):
            builds.append(args)
            return move(*args)

        rearrange_module._plan.cache_clear()
        monkeypatch.setattr(rearrange_module, "Move", counted)
        spec = parse_rearrange("(h w) c -> c h w", {"h": 2})
        for _ in range(3):
            apply_rearrange(spec, Tensor(np.zeros((6, 5))))
        # One plan holds both directions.
        assert len(builds) == 2
        apply_rearrange(spec, Tensor(np.zeros((8, 5))))
        assert len(builds) == 4

    def test_a_misfit_shape_raises_on_every_call(self):
        spec = parse_rearrange("(h w) c -> h w c", {"h": 3})
        for _ in range(2):
            with pytest.raises(RearrangeError, match="not divisible"):
                apply_rearrange(spec, Tensor(np.zeros((8, 2))))


class TestInvert:
    def test_identity_inverts_to_itself(self):
        spec = parse_rearrange("a b -> a b")
        assert invert(spec) == spec

    def test_double_inversion(self):
        spec = parse_rearrange("b (h w) (r o) -> b (o w) (r h)", {"h": 2, "w": 3, "r": 2})
        assert invert(invert(spec)) == spec

    def test_invert_equals_listed_inverse_pattern(self):
        bind = {"h": 2, "w": 3, "r": 2}
        fwd = parse_rearrange("b (h w) (r o) -> b (o w) (r h)", bind)
        listed = parse_rearrange("b (o w) (r h) -> b (h w) (r o)", bind)
        inv = invert(fwd)
        assert inv.lhs == listed.lhs
        assert inv.rhs == listed.rhs

    @pytest.mark.parametrize("fwd_pattern, inv_pattern", RAFT_PATTERNS)
    def test_roundtrip_bitwise(self, fwd_pattern, inv_pattern):
        rng = np.random.default_rng(11)
        bind = {"h": 2, "w": 3, "r": 2}
        x = Tensor(rng.normal(size=(2, 6, 8)))
        spec = parse_rearrange(fwd_pattern, bind)
        y = apply_rearrange(spec, x)
        assert np.array_equal(apply_rearrange(invert(spec), y).numpy(), x.numpy())
        assert np.array_equal(
            apply_rearrange(parse_rearrange(inv_pattern, bind), y).numpy(), x.numpy()
        )

    def test_underdetermined_inverse_fails_at_apply(self):
        spec = parse_rearrange("a b -> (a b)")
        y = apply_rearrange(spec, Tensor(np.zeros((2, 3))))
        with pytest.raises(RearrangeError):
            apply_rearrange(invert(spec), y)

    def test_explicit_bindings_make_inverse_total(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        spec = parse_rearrange("a b -> (a b)", {"a": 2, "b": 3})
        y = apply_rearrange(spec, x)
        back = apply_rearrange(invert(spec), y)
        assert np.array_equal(back.numpy(), x.numpy())


def _grouped(draw, order):
    """Split an axis order into consecutive groups at random cut points."""
    cuts = [i for i in range(1, len(order)) if draw(st.booleans())]
    bounds = [0, *cuts, len(order)]
    return tuple(tuple(order[a:b]) for a, b in zip(bounds, bounds[1:]))


def _side(groups):
    return " ".join(g[0] if len(g) == 1 else "(" + " ".join(g) + ")" for g in groups)


@st.composite
def _rearrange_cases(draw):
    names = [f"a{i}" for i in range(draw(st.integers(1, 4)))]
    sizes = {a: draw(st.integers(1, 4)) for a in names}
    lhs = _grouped(draw, draw(st.permutations(names)))
    rhs = _grouped(draw, draw(st.permutations(names)))
    # Leave the last axis of every input group to inference from the shape.
    bindings = {a: sizes[a] for g in lhs for a in g[:-1]}
    return lhs, rhs, sizes, bindings


class TestRandomPatterns:
    @settings(max_examples=300, deadline=None, database=None)
    @given(
        case=_rearrange_cases(),
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from(["f32", "f64"]),
    )
    def test_roundtrip_and_reshape_transpose_oracle(self, case, seed, dtype):
        lhs, rhs, sizes, bindings = case
        spec = parse_rearrange(f"{_side(lhs)} -> {_side(rhs)}", bindings)
        shape = tuple(math.prod(sizes[a] for a in g) for g in lhs)
        x = Tensor(np.random.default_rng(seed).normal(size=shape), dtype=dtype)

        y = apply_rearrange(spec, x)
        flat_lhs = [a for g in lhs for a in g]
        flat_rhs = [a for g in rhs for a in g]
        want = np.reshape(
            np.transpose(
                np.reshape(x.numpy(), [sizes[a] for a in flat_lhs]),
                [flat_lhs.index(a) for a in flat_rhs],
            ),
            [math.prod(sizes[a] for a in g) for g in rhs],
        )
        assert y.shape == want.shape
        assert y.numpy().tobytes() == want.tobytes()

        pinned = parse_rearrange(f"{_side(lhs)} -> {_side(rhs)}", sizes)
        back = apply_rearrange(invert(pinned), y)
        assert back.shape == x.shape
        assert back.numpy().tobytes() == x.numpy().tobytes()
