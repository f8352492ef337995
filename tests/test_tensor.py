"""Tensor value type and primitive ops against independent oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from raftmlp.autograd import backward, trace
from raftmlp.tensor import (
    PatchGrid,
    ShapeError,
    Tensor,
    add,
    seq_sum,
    unfold,
    vdot,
)


class TestTensorType:
    def test_copies_input_buffer(self):
        src = np.ones((2, 2))
        t = Tensor(src)
        src[0, 0] = 5.0
        assert t.numpy()[0, 0] == 1.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda dtype: Tensor(np.ones(2), dtype=dtype),
            lambda dtype: Tensor.zeros((2,), dtype=dtype),
            lambda dtype: Tensor.ones((2,), dtype=dtype),
            lambda dtype: Tensor(np.ones(2)).astype(dtype),
        ],
        ids=["init", "zeros", "ones", "astype"],
    )
    @pytest.mark.parametrize("dtype", ["f16", "float32", ["f32"]])
    def test_an_unknown_dtype_is_a_value_error(self, make, dtype):
        with pytest.raises(ValueError, match="unsupported dtype"):
            make(dtype)

    def test_is_immutable(self):
        t = Tensor([[1.0, 2.0]])
        with pytest.raises(ValueError):
            t.numpy()[0, 0] = 9.0

    def test_default_dtypes(self):
        assert Tensor(np.zeros(3, dtype=np.float32)).dtype == "f32"
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == "f64"
        assert Tensor([1, 2, 3]).dtype == "f64"

    def test_explicit_dtype_casts(self):
        t = Tensor(np.zeros(3, dtype=np.float64), dtype="f32")
        assert t.dtype == "f32"
        assert t.numpy().dtype == np.float32

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            Tensor([1.0, bad])

    @pytest.mark.parametrize("dtype", [None, "f32", "f64"])
    @pytest.mark.parametrize(
        "values",
        [np.array([1 + 2j]), np.array(["1.5"]), np.array(["2024-01-02"], dtype="datetime64[D]")],
        ids=["complex", "string", "datetime64"],
    )
    def test_rejects_values_that_are_not_real_numbers(self, values, dtype):
        # Converted, each would lose data: the imaginary part dropped, the
        # string parsed, the date turned into a day count.
        with pytest.raises(ValueError, match="real numbers"):
            Tensor(values, dtype=dtype)

    def test_accepts_bool_and_integer_values(self):
        assert Tensor(np.array([True, False])).tolist() == [1.0, 0.0]
        assert Tensor(np.array([3], dtype=np.uint8), dtype="f32").tolist() == [3.0]

    def test_rejects_zero_length_axis(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 0, 3)))

    def test_shape_rank_size(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.rank == 3
        assert t.size == 24

    def test_item_and_tolist(self):
        assert Tensor(np.array(2.5)).item() == 2.5
        assert Tensor([[1.0, 2.0]]).tolist() == [[1.0, 2.0]]

    def test_zeros_ones(self):
        assert np.array_equal(Tensor.zeros((2, 2)).numpy(), np.zeros((2, 2)))
        assert np.array_equal(Tensor.ones((3,), dtype="f64").numpy(), np.ones(3))

    @pytest.mark.parametrize("make", [Tensor.zeros, Tensor.ones], ids=["zeros", "ones"])
    @pytest.mark.parametrize(
        "shape", [(2.5,), True, (2, True), (-1,), (0, 3), (np.int64(2),), "ab", None]
    )
    def test_zeros_ones_reject_a_shape_entry_that_is_not_an_int_of_at_least_one(self, make, shape):
        with pytest.raises(ValueError, match="shape entries must be ints >= 1"):
            make(shape)


class TestPatchGrid:
    def test_tokens(self):
        assert PatchGrid(4, 7, 16).tokens == 28

    @pytest.mark.parametrize("h, w, c", [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-1, 2, 2)])
    def test_rejects_non_positive(self, h, w, c):
        with pytest.raises(ValueError):
            PatchGrid(h, w, c)

    @pytest.mark.parametrize("h, w, c", [(2.5, 3, 4), (2, 3.0, 4), (2, 3, True), (np.int64(2), 3, 4)])
    def test_rejects_sizes_that_are_not_exact_ints(self, h, w, c):
        with pytest.raises(ValueError, match="must be an int"):
            PatchGrid(h, w, c)


class TestElementwise:
    def test_add_zeros_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert np.array_equal(add(x, Tensor.zeros((2, 3), dtype="f64")).numpy(), x.numpy())

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


@st.composite
def _seq_sum_cases(draw):
    """(shape, dtype, transposed): 1-D, [n, 1] or N-D, n up to 3000.

    Sizes fall on both sides of 4,096 elements, the old cutover between
    accumulate and the row-order reduce.
    """
    n = draw(st.integers(1, 3000))
    rest = draw(
        st.one_of(st.just([]), st.just([1]), st.lists(st.integers(1, 6), min_size=1, max_size=3))
    )
    return (n, *rest), draw(st.sampled_from(["float32", "float64"])), draw(st.booleans())


class TestSeqSum:
    def test_left_to_right_order(self):
        # Summing left to right is a fixed, reproducible order: the result
        # must equal a hand-rolled sequential accumulation bit for bit.
        rng = np.random.default_rng(7)
        arr = rng.normal(size=17).astype(np.float32) * 1e3
        acc = np.float32(arr[0])
        for v in arr[1:]:
            acc = np.float32(acc + v)
        assert seq_sum(arr) == acc

    @settings(max_examples=150, deadline=None)
    @given(case=_seq_sum_cases(), seed=st.integers(0, 2**32 - 1))
    # Many columns, some all -0.0; few rows and columns; one output.
    @example(case=((2, 4096), "float32", False), seed=0)
    @example(case=((7, 9), "float64", True), seed=0)
    @example(case=((5000, 1), "float32", False), seed=0)
    def test_bitwise_equal_to_running_sum(self, case, seed):
        # The last running sum over axis 0 is the left-to-right sum by
        # definition; seq_sum must give its bits, signed zeros included, for
        # contiguous and transposed (non-contiguous) input alike.
        shape, dtype, transposed = case
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 6, shape)
        arr[rng.random(shape) < 0.05] = -0.0
        if len(shape) > 1:
            arr[:, rng.random(shape[1]) < 0.1] = -0.0
        arr = arr.astype(dtype)
        if transposed:
            arr = np.ascontiguousarray(arr.T).T
        want = np.add.accumulate(arr, axis=0)[-1]
        got = seq_sum(arr)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def _unfold_oracle(x, kernels, stride):
    """Token-major patches by a plain loop: one row per token, kernels side by side."""
    c, h, w = x.shape
    padded = []
    for k in kernels:
        q = (k - stride) // 2
        buf = np.zeros((c, h + 2 * q, w + 2 * q), dtype=x.dtype)
        buf[:, q : q + h, q : q + w] = x
        padded.append(buf)
    rows = []
    for i in range(0, h, stride):
        for j in range(0, w, stride):
            blocks = [p[:, i : i + k, j : j + k].reshape(-1) for k, p in zip(kernels, padded)]
            rows.append(np.concatenate(blocks))
    return np.stack(rows)


class TestUnfold:
    def test_single_full_patch(self):
        x = Tensor(np.arange(16.0).reshape(1, 4, 4))
        out = unfold(x, [4], stride=4)
        assert out.shape == (1, 16)
        assert np.array_equal(out.numpy()[0], np.arange(16.0))

    def test_shape_sums_the_kernels_columns(self):
        out = unfold(Tensor(np.zeros((3, 8, 12))), [4, 8], stride=4)
        # (8 / 4) * (12 / 4) = 6 tokens, 3 * (16 + 64) = 240 columns
        assert out.shape == (6, 240)

    def test_zero_input_zero_output(self):
        x = Tensor(np.zeros((2, 6, 6)))
        out = unfold(x, [2, 4], stride=2)
        assert not out.numpy().any()

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize(
        "kernels, stride", [((4, 8), 4), ((2, 4), 2), ((16,), 16), ((2,), 2), ((8, 4), 4)]
    )
    def test_matches_patch_loop_oracle(self, kernels, stride, dtype):
        # The presets' (kernels, stride) geometries, then kernels in descending
        # order, which keep the order given, on a non-square image.
        c, h, w = 2, 2 * stride, 3 * stride
        x = Tensor(np.random.default_rng(3).normal(size=(c, h, w)), dtype=dtype).numpy()
        got = unfold(Tensor(x), kernels, stride).numpy()
        want = _unfold_oracle(x, kernels, stride)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert np.array_equal(got, want)

    def test_tiling_is_bijective(self):
        # kernel == stride: every input element appears exactly once
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 8, 8))
        out = unfold(Tensor(x), [4], stride=4).numpy()
        assert out.size == x.size
        assert sorted(out.reshape(-1).tolist()) == sorted(x.reshape(-1).tolist())

    def test_rejects_a_tensor_that_is_not_rank_3(self):
        with pytest.raises(ShapeError, match=r"\[c, h, w\]"):
            unfold(Tensor(np.zeros((4, 4))), [2], stride=2)

    @pytest.mark.parametrize("kernels", [[], (), 2, None])
    def test_rejects_kernels_that_are_not_a_non_empty_list_or_tuple(self, kernels):
        with pytest.raises(ShapeError, match="non-empty list or tuple"):
            unfold(Tensor(np.zeros((1, 4, 4))), kernels, stride=2)

    @pytest.mark.parametrize(
        "kernels, stride",
        [([2.0], 2), ([2], 2.0), ([True], 1), ([2], True), ([np.int64(2)], 2), ([2, 4.0], 2)],
    )
    def test_rejects_non_int_sizes(self, kernels, stride):
        with pytest.raises(ShapeError, match="must be ints"):
            unfold(Tensor(np.zeros((1, 4, 4))), kernels, stride)

    @pytest.mark.parametrize(
        "kernels, stride",
        [([1], 2), ([2, 3], 2), ([5], 2), ([0], 0), ([2], 0), ([2], -2)],
        ids=["below-stride", "odd-after-even", "other-parity", "zero", "zero-stride", "neg-stride"],
    )
    def test_rejects_a_kernel_below_the_stride_or_of_the_other_parity(self, kernels, stride):
        with pytest.raises(ShapeError, match="of its parity"):
            unfold(Tensor(np.zeros((1, 4, 4))), kernels, stride)

    @pytest.mark.parametrize("h, w", [(7, 8), (8, 6)])
    def test_rejects_an_indivisible_image(self, h, w):
        with pytest.raises(ShapeError, match="not divisible by stride 4"):
            unfold(Tensor(np.zeros((1, h, w))), [4, 8], stride=4)

    @pytest.mark.parametrize("order", [("f32", "f64"), ("f64", "f32")])
    def test_one_shape_in_both_dtypes_in_turn_matches_the_oracle(self, order):
        # The window strides are in bytes, so a view built for one dtype's
        # itemsize must never serve the other's.
        x = np.random.default_rng(8).normal(size=(3, 8, 12))
        for dtype in order * 2:
            arr = Tensor(x, dtype=dtype).numpy()
            got = unfold(Tensor(arr), [4, 8], stride=4).numpy()
            want = _unfold_oracle(arr, (4, 8), 4)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()


class TestVdot:
    def test_value_is_a_rank_0_tensor(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        out = vdot(a, b)
        assert (out.shape, out.dtype, out.item()) == ((), "f64", 70.0)

    @settings(max_examples=60, deadline=None)
    @given(case=_seq_sum_cases(), seed=st.integers(0, 2**32 - 1))
    def test_bits_are_a_left_to_right_running_sum(self, case, seed):
        shape, dtype, _ = case
        rng = np.random.default_rng(seed)
        a = Tensor((rng.normal(size=shape) * 1e3).astype(dtype))
        b = Tensor(rng.normal(size=shape).astype(dtype))
        products = (a.numpy() * b.numpy()).reshape(-1)
        acc = products[0]
        for v in products[1:]:
            acc = acc + v
        got = vdot(a, b).numpy()
        assert got.dtype == products.dtype
        assert got.tobytes() == np.asarray(acc, dtype=products.dtype).tobytes()

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_gradients_are_the_other_operand_bit_for_bit(self, dtype):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(4, 3, 2)), dtype=dtype)
        b = Tensor(rng.normal(size=(4, 3, 2)), dtype=dtype)
        with trace() as tr:
            out = vdot(a, b)
        assert [node.op for node in tr.nodes] == ["vdot"]
        grads = backward(tr, out, wrt=[a, b])
        assert grads[a].numpy().tobytes() == b.numpy().tobytes()
        assert grads[b].numpy().tobytes() == a.numpy().tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="vdot: shape mismatch"):
            vdot(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_dtype_mismatch(self):
        with pytest.raises(ShapeError, match="vdot: dtype mismatch"):
            vdot(Tensor(np.zeros(3), dtype="f32"), Tensor(np.zeros(3), dtype="f64"))
