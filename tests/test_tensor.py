"""Tensor value type and primitive ops against independent oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from raftmlp.tensor import (
    PatchGrid,
    ShapeError,
    Tensor,
    add,
    concat,
    mul,
    seq_sum,
    sum_all,
    unfold,
)


class TestTensorType:
    def test_copies_input_buffer(self):
        src = np.ones((2, 2))
        t = Tensor(src)
        src[0, 0] = 5.0
        assert t.numpy()[0, 0] == 1.0

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

    def test_mul_is_elementwise(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert mul(a, b).tolist() == [[5.0, 12.0], [21.0, 32.0]]

    def test_sum_all_scalar(self):
        assert sum_all(Tensor([[1.0, 2.0], [3.0, 4.0]])).item() == 10.0


class TestConcat:
    def test_shape_arithmetic(self):
        out = concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 5)))], axis=1)
        assert out.shape == (2, 8)

    def test_prefix_preserved(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(4, 3)))
        b = Tensor(rng.normal(size=(4, 5)))
        out = concat([a, b], axis=1)
        assert np.array_equal(out.numpy()[:, :3], a.numpy())
        assert np.array_equal(out.numpy()[:, 3:], b.numpy())

    def test_mismatched_other_axes(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=1)


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


class TestUnfold:
    def test_single_full_patch(self):
        x = Tensor(np.arange(16.0).reshape(1, 4, 4))
        out = unfold(x, kernel=4, stride=4, padding=0)
        assert out.shape == (16, 1)
        assert np.array_equal(out.numpy()[:, 0], np.arange(16.0))

    def test_overlapping_with_padding_shape(self):
        x = Tensor(np.zeros((3, 8, 8)))
        out = unfold(x, kernel=8, stride=4, padding=2)
        # ((8 + 4 - 8) / 4 + 1)^2 = 4 tokens, 3 * 64 = 192 rows
        assert out.shape == (192, 4)

    def test_zero_input_zero_output(self):
        x = Tensor(np.zeros((2, 6, 6)))
        out = unfold(x, kernel=4, stride=2, padding=1)
        assert not out.numpy().any()

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("k, p, q", [(4, 4, 0), (8, 4, 2), (2, 2, 0), (4, 2, 1)])
    def test_matches_patch_loop_oracle(self, k, p, q, dtype):
        # The presets' (kernel, stride, padding) geometries on a non-square image.
        c, h, w = 2, 8, 12
        x = Tensor(np.random.default_rng(3).normal(size=(c, h, w)), dtype=dtype).numpy()
        got = unfold(Tensor(x), kernel=k, stride=p, padding=q).numpy()

        padded = np.zeros((c, h + 2 * q, w + 2 * q), dtype=x.dtype)
        padded[:, q : q + h, q : q + w] = x
        cols = []
        for i in range(0, h + 2 * q - k + 1, p):
            for j in range(0, w + 2 * q - k + 1, p):
                cols.append(padded[:, i : i + k, j : j + k].reshape(-1))
        want = np.stack(cols, axis=1)
        assert np.array_equal(got, want)

    def test_tiling_is_bijective(self):
        # kernel == stride, no padding: every input element appears exactly once
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 8, 8))
        out = unfold(Tensor(x), kernel=4, stride=4, padding=0).numpy()
        assert out.size == x.size
        assert sorted(out.reshape(-1).tolist()) == sorted(x.reshape(-1).tolist())

    def test_rejects_bad_geometry(self):
        # (7 + 0 - 4) = 3 is not divisible by the stride 2
        x = Tensor(np.zeros((1, 7, 7)))
        with pytest.raises(ShapeError):
            unfold(x, kernel=4, stride=2, padding=0)

    def test_rejects_non_positive_kernel(self):
        with pytest.raises(ShapeError):
            unfold(Tensor(np.zeros((1, 4, 4))), kernel=0, stride=1, padding=0)
