"""Reverse-mode differentiation and the finite-difference harness."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raftmlp import ops
from raftmlp.autograd import backward, grad_check, trace
from raftmlp.ops import LayerNormParams, LinearParams, bicubic_resize, gelu, layer_norm, linear, softmax
from raftmlp.rearrange import apply_rearrange, parse_rearrange, rearrange
from raftmlp.selftest import gradcheck_functional, gradcheck_suite
from raftmlp.tensor import Tensor, add, unfold, vdot
from test_rearrange import _rearrange_cases, _side

# d/dx gelu at 1, from the same 50-digit oracle as the forward table.
GELU_PRIME_AT_1 = 1.0833154705876862984


def _unit_ln(c):
    return LayerNormParams(gamma=Tensor(np.ones(c)), beta=Tensor(np.zeros(c)))


def _total(t):
    return vdot(t, Tensor.ones(t.shape, dtype=t.dtype))


def _grad_of(f, x):
    with trace() as tr:
        out = f(x)
    return backward(tr, out, wrt=[x])[x]


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        g = _grad_of(_total, x)
        assert np.array_equal(g.numpy(), np.ones((3, 4)))

    def test_linear_column_sums(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(4, 6))
        p = LinearParams(weight=Tensor(w), bias=Tensor(rng.normal(size=6)))
        x = Tensor(rng.normal(size=(2, 4)))
        g = _grad_of(lambda t: _total(linear(t, p)), x)
        want = np.tile(w.sum(axis=1), (2, 1))
        assert np.max(np.abs(g.numpy() - want)) < 1e-12

    def test_rearrange_adjoint_is_inverse_permutation(self):
        x = Tensor(np.random.default_rng(2).normal(size=(2, 6, 8)))
        g = _grad_of(
            lambda t: _total(rearrange(t, "b (h w) (r o) -> b (o w) (r h)", h=2, w=3, r=2)),
            x,
        )
        assert np.array_equal(g.numpy(), np.ones((2, 6, 8)))

    def test_gelu_derivative_value(self):
        x = Tensor([1.0], dtype="f64")
        g = _grad_of(lambda t: _total(gelu(t)), x)
        assert abs(g.numpy()[0] - GELU_PRIME_AT_1) < 1e-15

    def test_grad_wrt_weights_through_closure(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 3))
        w = Tensor(rng.normal(size=(3, 2)))
        b = Tensor(rng.normal(size=2))

        with trace() as tr:
            out = _total(linear(Tensor(x), LinearParams(weight=w, bias=b)))
        grads = backward(tr, out, wrt=[w, b])
        assert np.max(np.abs(grads[w].numpy() - x.T @ np.ones((5, 2)))) < 1e-12
        assert np.max(np.abs(grads[b].numpy() - 5.0)) < 1e-12

    def test_wrt_selects_leaves(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(2, 2)))
        b = Tensor(rng.normal(size=(2, 2)))
        with trace() as tr:
            out = vdot(a, b)
        grads = backward(tr, out, wrt=[a])
        assert set(map(id, grads)) == {id(a)}
        assert np.array_equal(grads[a].numpy(), b.numpy())

    def test_unused_leaf_gets_zeros(self):
        a = Tensor(np.ones((2, 2)))
        unused = Tensor(np.ones((3,)))
        with trace() as tr:
            out = _total(a)
        grads = backward(tr, out, wrt=[unused])
        assert np.array_equal(grads[unused].numpy(), np.zeros(3))

    def test_fan_out_accumulates(self):
        x = Tensor(np.full((2, 2), 3.0))
        g = _grad_of(lambda t: vdot(t, t), x)
        assert np.array_equal(g.numpy(), np.full((2, 2), 6.0))

    def test_non_scalar_output_rejected(self):
        x = Tensor(np.ones((2, 2)))
        with trace() as tr:
            out = add(x, x)
        with pytest.raises(ValueError):
            backward(tr, out, wrt=[x])


class TestTraceScope:
    @pytest.mark.parametrize("body_raises", [False, True])
    def test_inner_trace_records_alone_then_outer_resumes(self, body_raises):
        x = Tensor(np.ones(2))
        with trace() as outer:
            try:
                with trace() as inner:
                    add(x, x)
                    if body_raises:
                        raise RuntimeError("body failed")
            except RuntimeError:
                assert body_raises
            vdot(x, x)
        assert [n.op for n in inner.nodes] == ["add"]
        assert [n.op for n in outer.nodes] == ["vdot"]

    def test_a_trace_records_nothing_from_another_thread(self):
        x = Tensor(np.ones(2))
        other = []

        def work():
            add(x, x)
            with trace() as tr:
                vdot(x, x)
            other.append(tr)

        with trace() as tr:
            worker = threading.Thread(target=work)
            worker.start()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert tr.nodes == []
        assert [n.op for n in other[0].nodes] == ["vdot"]


def assert_adjoint(apply, x_shapes, seed):
    """<A x, g> = <x, A^T g> to f64 round-off, with A^T g from backward().

    ``apply`` is the linear map A, called with one tensor per shape in
    ``x_shapes``. Round-off is judged against the summed magnitudes of
    both inner products' terms.
    """
    rng = np.random.default_rng(seed)
    xs = [Tensor(rng.normal(size=shape), dtype="f64") for shape in x_shapes]
    with trace() as tr:
        ax = apply(*xs)
        g = Tensor(rng.normal(size=ax.shape), dtype="f64")
        out = vdot(ax, g)
    atg = backward(tr, out, wrt=xs)
    terms_a = (ax.numpy() * g.numpy()).ravel()
    terms_at = np.concatenate([(x.numpy() * atg[x].numpy()).ravel() for x in xs])
    gap = abs(math.fsum(terms_a) - math.fsum(terms_at))
    assert gap <= 1e-13 * (np.abs(terms_a).sum() + np.abs(terms_at).sum())


class TestAdjoints:
    """Dot-product tests of the hand-written VJPs of the pure linear maps."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        c=st.integers(1, 3),
        stride=st.integers(1, 3),
        halves=st.lists(st.integers(0, 2), min_size=1, max_size=2),
        n_h=st.integers(1, 3),
        n_w=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_unfold(self, c, stride, halves, n_h, n_w, seed):
        # One or two kernels stride + 2j, each padding j on every side.
        kernels = [stride + 2 * j for j in halves]
        shape = (c, n_h * stride, n_w * stride)
        assert_adjoint(lambda t: unfold(t, kernels, stride), [shape], seed)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        c=st.integers(1, 2),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        out_h=st.integers(1, 12),
        out_w=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bicubic_resize(self, c, h, w, out_h, out_w, seed):
        assert_adjoint(lambda t: bicubic_resize(t, out_h, out_w), [(c, h, w)], seed)

    @pytest.mark.parametrize("layout", ["planes", "tokens"])
    @pytest.mark.parametrize(
        "out_hw",
        [(3, 4), (9, 11), (6, 7), (6, 10), (4, 7)],
        ids=["down", "up", "same", "h-same", "w-same"],
    )
    def test_resize_grid(self, layout, out_hw):
        # The two-axis resample on [c, h, w] planes and on [h * w, c] tokens.
        h, w, c = 6, 7, 3
        if layout == "planes":
            shape, fn = (c, h, w), lambda t: bicubic_resize(t, *out_hw)
        else:
            shape, fn = (h * w, c), lambda t: ops._resize_grid(t, (h, w, c), *out_hw)
        assert_adjoint(fn, [shape], seed=sum(out_hw))

    @settings(max_examples=60, deadline=None, database=None)
    @given(case=_rearrange_cases(), seed=st.integers(0, 2**32 - 1))
    def test_apply_rearrange(self, case, seed):
        lhs, rhs, sizes, bindings = case
        spec = parse_rearrange(f"{_side(lhs)} -> {_side(rhs)}", bindings)
        shape = tuple(math.prod(sizes[a] for a in g) for g in lhs)
        assert_adjoint(lambda t: apply_rearrange(spec, t), [shape], seed)


class TestGradCheck:
    def test_linear_layer_tight(self):
        rng = np.random.default_rng(5)
        p = LinearParams(
            weight=Tensor(rng.normal(size=(4, 3)), dtype="f64"),
            bias=Tensor(rng.normal(size=3), dtype="f64"),
        )
        report = grad_check(lambda t: _total(linear(t, p)), Tensor(rng.normal(size=(5, 4)), dtype="f64"))
        assert report.max_rel_err < 1e-8

    def test_a_non_scalar_function_is_refused(self):
        with pytest.raises(ValueError, match="must return a scalar, got \\(3,\\)"):
            grad_check(lambda t: t, Tensor(np.ones(3), dtype="f64"))

    def test_constant_function_zero_error(self):
        k = Tensor(np.ones((2, 2)), dtype="f64")
        report = grad_check(lambda t: vdot(t, Tensor.zeros((2, 2), dtype="f64")), k)
        assert report.max_abs_err == 0.0
        assert report.max_rel_err == 0.0

    def test_layer_norm_analytic_adjoint(self):
        rng = np.random.default_rng(6)
        p = _unit_ln(7)
        probe = Tensor(rng.normal(size=(4, 7)), dtype="f64")
        report = grad_check(
            lambda t: vdot(layer_norm(t, p), probe),
            Tensor(rng.normal(size=(4, 7)), dtype="f64"),
        )
        assert report.max_rel_err < 1e-6

    def test_softmax_adjoint(self):
        rng = np.random.default_rng(7)
        probe = Tensor(rng.normal(size=9), dtype="f64")
        report = grad_check(
            lambda t: vdot(softmax(t), probe), Tensor(rng.normal(size=9), dtype="f64")
        )
        assert report.max_rel_err < 1e-6

    def test_two_kernel_unfold_adjoint(self):
        rng = np.random.default_rng(8)
        # 2 x 2 tokens, 3 * (4 + 16) columns
        probe = Tensor(rng.normal(size=(4, 60)), dtype="f64")
        report = grad_check(
            lambda t: vdot(unfold(t, [2, 4], stride=2), probe),
            Tensor(rng.normal(size=(3, 4, 4)), dtype="f64"),
        )
        assert report.max_rel_err < 1e-8

    def test_unfold_sums_the_kernels_cotangents_last_to_first(self):
        # Bitwise what backward gave when each kernel was its own unfold node;
        # three kernels, so the association of the sum shows in the bits.
        rng = np.random.default_rng(10)
        kernels = [2, 4, 6]
        x = Tensor(rng.normal(size=(2, 4, 6)), dtype="f64")
        g = rng.normal(size=(6, 2 * sum(k * k for k in kernels)))

        def cotangent(ks, g):
            with trace() as tr:
                unfold(x, ks, stride=2)
            (gx,) = tr.nodes[0].vjp(g)
            return gx

        starts = np.cumsum([0] + [2 * k * k for k in kernels])
        parts = [cotangent([k], g[:, a:b]) for k, a, b in zip(kernels, starts, starts[1:])]
        want = (parts[2] + parts[1]) + parts[0]
        assert cotangent(kernels, g).tobytes() == want.tobytes()

    def test_subset_of_coordinates(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(10, 10)), dtype="f64")
        report = grad_check(lambda t: vdot(t, t), x, max_coords=7, seed=3)
        assert report.coords_checked == 7

    @pytest.mark.parametrize("max_coords", [0, -1])
    def test_a_cap_below_one_is_rejected(self, max_coords):
        x = Tensor(np.ones(3), dtype="f64")
        with pytest.raises(ValueError, match="max_coords"):
            grad_check(lambda t: vdot(t, t), x, max_coords=max_coords)

    @pytest.mark.parametrize(
        "bad", [{"max_coords": 2.5}, {"max_coords": 2.0}, {"max_coords": True},
                {"seed": 1.5}, {"seed": True}, {"h": True}],
        ids=["max_coords=2.5", "max_coords=2.0", "max_coords=True", "seed=1.5", "seed=True", "h=True"],
    )
    def test_a_float_or_bool_where_an_int_or_a_step_belongs_is_rejected(self, bad):
        def f(t):
            raise AssertionError("grad_check ran f with a bad argument")

        (name,) = bad
        kwargs = {"max_coords": 2, **bad}
        with pytest.raises(ValueError, match="step h" if name == "h" else name):
            grad_check(f, Tensor(np.ones(3), dtype="f64"), **kwargs)

    @pytest.mark.parametrize("h", [0.0, -1e-5, math.nan, math.inf, "a", None, complex(1, 0)])
    def test_a_step_that_is_not_finite_and_positive_is_rejected(self, h):
        def f(t):
            raise AssertionError("grad_check ran f with a bad step")

        with pytest.raises(ValueError, match="step h"):
            grad_check(f, Tensor(np.ones(3), dtype="f64"), h=h)

    def test_a_numpy_float_step_is_accepted(self):
        x = Tensor(np.ones(3), dtype="f64")
        report = grad_check(lambda t: vdot(t, t), x, h=np.float32(1e-3))
        assert report.max_rel_err < 1e-6

    def test_a_negative_seed_is_rejected_before_f_runs(self):
        def f(t):
            raise AssertionError("grad_check ran f with a negative seed")

        # With max_coords above the size no seed is drawn, and the seed is still checked.
        for max_coords in (2, 40):
            with pytest.raises(ValueError, match="seed"):
                grad_check(f, Tensor(np.ones(3), dtype="f64"), max_coords=max_coords, seed=-1)

    def test_requires_f64(self):
        x = Tensor(np.ones((2, 2)), dtype="f32")
        with pytest.raises(ValueError):
            grad_check(_total, x)

    def test_report_fields(self):
        x = Tensor(np.ones(3), dtype="f64")
        report = grad_check(lambda t: vdot(t, t), x)
        assert report.step == 1e-5
        assert report.coords_checked == 3
        assert report.max_abs_err >= 0.0

    @pytest.mark.parametrize("block", ["channel", "raft"])
    def test_gelu_derivative_one_percent_off_fails(self, block, monkeypatch):
        derivative = ops._gelu_derivative
        monkeypatch.setattr(ops, "_gelu_derivative", lambda a: derivative(a) * 1.01)
        for seed in range(3):
            f, x = gradcheck_functional(block, seed)
            report = grad_check(f, x, h=1e-5, max_coords=40, seed=seed)
            assert report.max_rel_err > 1e-5, (block, seed)

    def test_near_zero_coordinate_is_judged_at_the_gradient_scale(self):
        # Seed 105004 has a raft input coordinate, (9, 2), whose gradient is
        # 3e-7 of the largest; its central-difference noise (5e-10) read as
        # a relative error of 3.8e-4 when each coordinate was its own scale.
        [(result, report)] = gradcheck_suite("raft", seeds=(105004,))
        assert result.ok, result.detail
        assert report.max_abs_err < 1e-8
