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
    """(shape, axis, dtype): 1-4 axes, one of them up to 3000 long."""
    shape = draw(st.lists(st.integers(1, 6), min_size=0, max_size=3))
    shape.insert(draw(st.integers(0, len(shape))), draw(st.integers(1, 3000)))
    axis = draw(st.integers(-len(shape), len(shape) - 1))
    return tuple(shape), axis, draw(st.sampled_from(["float32", "float64"]))


class TestSeqSum:
    def test_left_to_right_order(self):
        # Summing left to right is a fixed, reproducible order: the result
        # must equal a hand-rolled sequential accumulation bit for bit.
        rng = np.random.default_rng(7)
        arr = rng.normal(size=17).astype(np.float32) * 1e3
        acc = np.float32(arr[0])
        for v in arr[1:]:
            acc = np.float32(acc + v)
        assert seq_sum(arr, axis=0) == acc

    def test_matches_along_each_axis(self):
        rng = np.random.default_rng(8)
        arr = rng.normal(size=(3, 4, 5))
        for axis in range(3):
            got = seq_sum(arr, axis=axis)
            want = np.add.reduce(arr, axis=axis)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_keepdims(self):
        arr = np.ones((2, 3))
        assert seq_sum(arr, axis=1, keepdims=True).shape == (2, 1)

    @settings(max_examples=150, deadline=None)
    @given(case=_seq_sum_cases(), seed=st.integers(0, 2**32 - 1), keepdims=st.booleans())
    # Above the cutover, with some all -0.0 columns; below it; one output.
    @example(case=((2, 4096), 0, "float32"), seed=0, keepdims=False)
    @example(case=((7, 9), 0, "float64"), seed=0, keepdims=True)
    @example(case=((5000, 1), 0, "float32"), seed=0, keepdims=False)
    def test_bitwise_equal_to_running_sum(self, case, seed, keepdims):
        # The last running sum is the left-to-right sum by definition; both
        # code paths (small or 1-D input, and row order) must give its bits,
        # signed zeros included.
        shape, axis, dtype = case
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 6, shape)
        arr[rng.random(shape) < 0.05] = -0.0
        arr = arr.astype(dtype)
        want = np.add.accumulate(arr, axis=axis).take(-1, axis=axis)
        if keepdims:
            want = np.expand_dims(want, axis)
        got = seq_sum(arr, axis=axis, keepdims=keepdims)
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
