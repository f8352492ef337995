"""Neural primitives: linear, layer norm, GELU, pooling, softmax, bicubic."""

import itertools
import math

import numpy as np
import pytest
from scipy.special import erf

from raftmlp import ops
from raftmlp.ops import (
    LayerNormParams,
    LinearParams,
    bicubic_resize,
    gelu,
    global_avg_pool,
    layer_norm,
    linear,
    softmax,
)
from raftmlp.tensor import ShapeError, Tensor

# x * Phi(x) evaluated with 50-digit arithmetic and frozen here; the
# implementation must agree to f64 round-off.
GELU_TABLE = {
    0.0: 0.0,
    0.5: 0.34573123063700655182,
    1.0: 0.84134474606854294859,
    -1.0: -0.15865525393145705141,
    2.0: 1.9544997361036415856,
    -2.0: -0.045500263896358414401,
    0.1: 0.053982783727702898147,
    -0.1: -0.046017216272297101853,
    3.25: 3.2481246686122300071,
    -3.25: -0.0018753313877699928895,
}


def _matmul_oracle(a, b):
    """Naive triple loop, the slowest possible correct matmul."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=a.dtype)
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def _ln_params(c, gamma=None, beta=None, eps=1e-6, dtype="f64"):
    return LayerNormParams(
        gamma=Tensor(np.full(c, 1.0 if gamma is None else gamma), dtype=dtype),
        beta=Tensor(np.full(c, 0.0 if beta is None else beta), dtype=dtype),
        eps=eps,
    )


class TestLinear:
    def test_identity_weights(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        p = LinearParams(weight=Tensor(np.eye(3)), bias=Tensor.zeros((3,), dtype="f64"))
        assert np.array_equal(linear(x, p).numpy(), x.numpy())

    def test_hand_product(self):
        p = LinearParams(weight=Tensor([[3.0], [4.0]]), bias=Tensor([0.5]))
        out = linear(Tensor([[1.0, 2.0]]), p)
        assert out.tolist() == [[11.5]]

    def test_identity_input(self):
        # eye @ W + 0 returns W: identity as the left operand of the GEMM
        w = Tensor([[1.0, 2.0], [3.0, 4.0]])
        p = LinearParams(weight=w, bias=Tensor.zeros((2,), dtype="f64"))
        assert np.array_equal(linear(Tensor(np.eye(2)), p).numpy(), w.numpy())

    def test_hand_product_zero_bias(self):
        p = LinearParams(weight=Tensor([[3.0], [4.0]]), bias=Tensor([0.0]))
        out = linear(Tensor([[1.0, 2.0]]), p)
        assert out.tolist() == [[11.0]]

    def test_batched_equals_per_site_loop(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 7, 3))
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=5)
        p = LinearParams(weight=Tensor(w), bias=Tensor(b))
        got = linear(Tensor(x), p).numpy()
        for i in range(4):
            for j in range(7):
                want = x[i, j] @ w + b
                assert np.max(np.abs(got[i, j] - want)) < 1e-12

    def test_additivity(self):
        rng = np.random.default_rng(1)
        p = LinearParams(weight=Tensor(rng.normal(size=(4, 6))), bias=Tensor(rng.normal(size=6)))
        x = Tensor(rng.normal(size=(3, 4)))
        y = Tensor(rng.normal(size=(3, 4)))
        zero = Tensor.zeros((3, 4), dtype="f64")
        xy = Tensor(x.numpy() + y.numpy())
        lhs = linear(xy, p).numpy() - linear(y, p).numpy()
        rhs = linear(x, p).numpy() - linear(zero, p).numpy()
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_triple_loop_oracle(self, seed):
        # BLAS against a loop that calls no BLAS, with one-row and one-column
        # shapes that BLAS may route through its matrix-vector kernels.
        rng = np.random.default_rng(seed)
        for n, k, m in ((5, 7, 3), (1, 7, 3), (5, 7, 1), (1, 7, 1), (4, 1, 6)):
            x = rng.normal(size=(n, k))
            w = rng.normal(size=(k, m))
            b = rng.normal(size=m)
            got = linear(Tensor(x), LinearParams(weight=Tensor(w), bias=Tensor(b))).numpy()
            want = _matmul_oracle(x, w) + b
            assert np.max(np.abs(got - want)) <= 1e-12, (n, k, m)

    def test_dtype_mismatch(self):
        p = LinearParams(weight=Tensor(np.zeros((2, 2))), bias=Tensor(np.zeros(2)))
        with pytest.raises(ShapeError, match="dtype mismatch"):
            linear(Tensor(np.zeros((3, 2)), dtype="f32"), p)

    def test_dimension_mismatch(self):
        p = LinearParams(weight=Tensor(np.zeros((3, 2))), bias=Tensor(np.zeros(2)))
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros((5, 4))), p)

    def test_inner_dimension_mismatch(self):
        # (2, 3) @ (4, 2): inner dimensions 3 and 4 disagree
        p = LinearParams(weight=Tensor(np.zeros((4, 2))), bias=Tensor(np.zeros(2)))
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros((2, 3))), p)

    def test_params_validate_shapes(self):
        with pytest.raises(ShapeError):
            LinearParams(weight=Tensor(np.zeros((3, 2))), bias=Tensor(np.zeros(3)))


class TestLayerNorm:
    def test_constant_input_zeros(self):
        x = Tensor(np.full((4, 5), 3.7))
        out = layer_norm(x, _ln_params(5))
        assert np.max(np.abs(out.numpy())) < 1e-3  # eps keeps it finite, near zero

    def test_gamma_zero_gives_beta(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(3, 4)))
        out = layer_norm(x, _ln_params(4, gamma=0.0, beta=2.5))
        assert np.array_equal(out.numpy(), np.full((3, 4), 2.5))

    def test_two_point_hand_case(self):
        # mean 2, population std 1: [1, 3] -> [-1, 1] as eps -> 0
        out = layer_norm(Tensor([[1.0, 3.0]]), _ln_params(2, eps=1e-12))
        assert np.max(np.abs(out.numpy() - [[-1.0, 1.0]])) < 1e-9

    def test_population_variance_convention(self):
        # divisor c, not c-1: [0, 2, 4] has mean 2 and population var 8/3
        out = layer_norm(Tensor([[0.0, 2.0, 4.0]]), _ln_params(3, eps=0.0 + 1e-15))
        want = (np.array([0.0, 2.0, 4.0]) - 2.0) / math.sqrt(8.0 / 3.0)
        assert np.max(np.abs(out.numpy()[0] - want)) < 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_normalizes_mean_and_variance(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(6, 9)))
        out = layer_norm(x, _ln_params(9, eps=1e-12)).numpy()
        assert np.max(np.abs(out.mean(axis=-1))) < 1e-10
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-6

    def test_rejects_trailing_axis_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.zeros((2, 3))), _ln_params(4))

    # nan would fail far away as a non-finite output, inf would silently
    # turn every output into beta, and True would pass as 1.0.
    @pytest.mark.parametrize("eps", [0.0, -1e-6, math.nan, math.inf, True, "1e-6"])
    def test_params_reject_eps_that_is_not_a_finite_positive_real(self, eps):
        with pytest.raises(ValueError, match="eps must be a finite real > 0"):
            _ln_params(3, eps=eps)

    # The statistics are per-row sums, so a row's output and input cotangent
    # are the same bits alone, inside any batch, from a shifted buffer and in
    # the [h', w', c] layout vertical_mixing passes. A batched BLAS sum
    # (x @ ones) breaks this.
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_row_bits_do_not_depend_on_batch_offset_or_layout(self, dtype):
        rng = np.random.default_rng(7)
        c = 64
        p = LayerNormParams(
            gamma=Tensor(rng.normal(size=c), dtype=dtype),
            beta=Tensor(rng.normal(size=c), dtype=dtype),
        )
        x = (rng.normal(size=(3136, c)) * 3 + 1).astype(p.gamma.numpy().dtype)
        g = rng.normal(size=x.shape).astype(x.dtype)

        def norm_and_cotangent(rows, g_rows):
            y, xhat, inv = ops._layer_norm_forward(rows, p)
            return y, ops._layer_norm_vjp(g_rows, xhat, inv, p)[0]

        y, dx = norm_and_cotangent(x, g)
        for start, n in [(0, 1), (5, 1), (3135, 1), (7, 3), (100, 17), (64, 128), (1000, 333)]:
            rows = slice(start, start + n)
            y_rows, dx_rows = norm_and_cotangent(x[rows].copy(), g[rows].copy())
            assert y_rows.tobytes() == y[rows].tobytes()
            assert dx_rows.tobytes() == dx[rows].tobytes()

        def shifted(a):
            """a's values in a buffer that starts one element into its allocation."""
            out = np.empty(a.size + 1, a.dtype)[1:].reshape(a.shape)
            out[...] = a
            return out

        y_shifted, dx_shifted = norm_and_cotangent(shifted(x), shifted(g))
        assert y_shifted.tobytes() == y.tobytes() and dx_shifted.tobytes() == dx.tobytes()

        y_grid, dx_grid = norm_and_cotangent(x.reshape(56, 56, c), g.reshape(56, 56, c))
        assert y_grid.shape == (56, 56, c)
        assert y_grid.tobytes() == y.tobytes() and dx_grid.tobytes() == dx.tobytes()

    # The raftmlp-s level-1 tokens, the mixer-b16 tokens, and a row width
    # that is no power of two; inputs normal * 3 + 1.
    @pytest.mark.parametrize("shape", [(3136, 64), (196, 768), (1792, 112)])
    def test_f32_within_1e6_of_f64(self, shape):
        x = (np.random.default_rng(0).normal(size=shape) * 3 + 1).astype(np.float32)
        got = ops._layer_norm_forward(x, _ln_params(shape[1], dtype="f32"))[0]
        want = ops._layer_norm_forward(x.astype(np.float64), _ln_params(shape[1]))[0]
        assert got.dtype == np.float32
        assert np.max(np.abs(got - want)) <= 1e-6


class TestGelu:
    @pytest.mark.parametrize("x, want", sorted(GELU_TABLE.items()))
    def test_frozen_oracle_values(self, x, want):
        got = gelu(Tensor([x], dtype="f64")).numpy()[0]
        assert abs(got - want) < 5e-16 + 2e-16 * abs(want)

    def test_tail_vanishes(self):
        got = gelu(Tensor([-10.0], dtype="f64")).numpy()[0]
        assert abs(got) < 1e-12  # true value is about -7.6e-23

    def test_monotone_on_nonnegative(self):
        xs = np.linspace(0.0, 6.0, 200)
        ys = gelu(Tensor(xs)).numpy()
        assert (np.diff(ys) >= 0.0).all()

    def test_approaches_identity(self):
        xs = np.array([8.0, 12.0, 20.0])
        ys = gelu(Tensor(xs)).numpy()
        assert np.max(np.abs(ys - xs)) < 1e-12

    # f32 evaluates erf(x / sqrt 2) as tanh(x P(x^2)), x clamped to +-6; these
    # bound its error against the f64 path on the same f32 inputs.
    F32_GRID = np.linspace(-30.0, 30.0, 600_001).astype(np.float32)

    def test_f32_within_2e6_of_f64(self):
        got = gelu(Tensor(self.F32_GRID, dtype="f32")).numpy()
        want = gelu(Tensor(self.F32_GRID, dtype="f64")).numpy()
        assert got.dtype == np.float32
        assert np.max(np.abs(got - want)) <= 2e-6

    def test_f32_within_2e6_of_f64_over_wide_range(self):
        x = np.linspace(-1e4, 1e4, 2_000_001).astype(np.float32)
        got = ops._gelu_forward(x)
        want = ops._gelu_forward(x.astype(np.float64))
        assert np.max(np.abs(got - want)) <= 2e-6

    def test_f32_negative_tail_is_negative_zero(self):
        x = np.array([-3.4e38, -1e30, -1e4, -100.0, -67.0, -8.0], dtype=np.float32)
        got = gelu(Tensor(x, dtype="f32")).numpy()
        assert (got == 0.0).all() and np.signbit(got).all()

    def test_f32_positive_tail_is_identity(self):
        x = np.array([8.0, 100.0, 1e4, 1e30, 3.4e38], dtype=np.float32)
        got = gelu(Tensor(x, dtype="f32")).numpy()
        assert got.tobytes() == x.tobytes()

    def test_f32_derivative_within_1e6_of_f64(self):
        got = ops._gelu_derivative(self.F32_GRID)
        want = ops._gelu_derivative(self.F32_GRID.astype(np.float64))
        assert got.dtype == np.float32
        assert np.max(np.abs(got - want)) <= 1e-6

    def test_f32_derivative_is_f64_derivative_rounded(self):
        got = ops._gelu_derivative(self.F32_GRID)
        want = ops._gelu_derivative(self.F32_GRID.astype(np.float64)).astype(np.float32)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "size", [ops._BLOCK - 1, ops._BLOCK, ops._BLOCK + 1, 3 * ops._BLOCK + 5]
    )
    def test_f32_forward_blocks_match_unblocked(self, size):
        # The same ufunc sequence as one pass over the whole array: block
        # edges must leave no mark on the bits.
        x = np.random.default_rng(0).normal(scale=4.0, size=size).astype(np.float32)
        want = ops._gelu_f32(x, np.empty_like(x), np.empty_like(x), np.empty_like(x))
        assert ops._gelu_forward(x).tobytes() == want.tobytes()

    def test_f32_erf_within_8_ulp(self):
        # erf(z) = tanh(s P(s^2)) at s = sqrt(2) z, the kernel's Horner order.
        z = np.linspace(-4.0, 4.0, 2_000_001).astype(np.float32)
        s = (np.sqrt(2.0) * z.astype(np.float64)).astype(np.float32)
        t = s * s
        u = t * ops._GELU_P[0]
        u += ops._GELU_P[1]
        for c in ops._GELU_P[2:]:
            u *= t
            u += c
        got = np.tanh(u * s)
        want = erf(z.astype(np.float64)).astype(np.float32)
        assert got.dtype == np.float32

        def ordinal(a):
            # f32 bit patterns as integers that count ulps across zero.
            bits = a.view(np.int32).astype(np.int64)
            return np.where(bits < 0, -(bits & 0x7FFFFFFF), bits)

        assert np.max(np.abs(ordinal(got) - ordinal(want))) <= 8

    def test_f32_monotone_on_nonnegative(self):
        # [0, 12] spans the clamp at 6.
        xs = np.linspace(0.0, 12.0, 1_200_001).astype(np.float32)
        ys = gelu(Tensor(xs, dtype="f32")).numpy()
        assert (np.diff(ys) >= 0.0).all()


class TestGlobalAvgPool:
    def test_single_token(self):
        x = Tensor([[1.0, 2.0, 3.0]])
        assert global_avg_pool(x).tolist() == [1.0, 2.0, 3.0]

    def test_two_token_mean(self):
        x = Tensor([[0.0, 2.0], [2.0, 0.0]])
        assert global_avg_pool(x).tolist() == [1.0, 1.0]

    def test_matches_loop_mean(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(49, 16))
        got = global_avg_pool(Tensor(x)).numpy()
        want = np.zeros(16)
        for row in x:
            want += row
        want /= 49
        assert np.max(np.abs(got - want)) < 1e-12


class TestSoftmax:
    def test_uniform(self):
        out = softmax(Tensor([2.0, 2.0, 2.0, 2.0])).numpy()
        assert np.max(np.abs(out - 0.25)) < 1e-15

    def test_hand_case(self):
        out = softmax(Tensor([0.0, math.log(3.0)])).numpy()
        assert np.max(np.abs(out - [0.25, 0.75])) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=9)
        a = softmax(Tensor(x)).numpy()
        b = softmax(Tensor(x + 123.456)).numpy()
        assert np.max(np.abs(a - b)) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_probability_vector(self, seed):
        rng = np.random.default_rng(seed)
        out = softmax(Tensor(rng.normal(size=11) * 50)).numpy()
        assert (out >= 0).all()
        assert abs(out.sum() - 1.0) < 1e-12


def _cubic_weight(t, a=-0.75):
    """Reference cubic convolution kernel, evaluated longhand."""
    t = abs(t)
    if t < 1.0:
        return ((a + 2.0) * t - (a + 3.0)) * t * t + 1.0
    if t < 2.0:
        return (((t - 5.0) * t + 8.0) * t - 4.0) * a
    return 0.0


def _bicubic_oracle(arr, out_h, out_w):
    """Direct kernel-sum resampling with clamped borders; O(out * 16)."""
    c, h, w = arr.shape
    out = np.zeros((c, out_h, out_w), dtype=arr.dtype)
    for oy in range(out_h):
        sy = (oy + 0.5) * (h / out_h) - 0.5
        y0 = math.floor(sy)
        for ox in range(out_w):
            sx = (ox + 0.5) * (w / out_w) - 0.5
            x0 = math.floor(sx)
            for ci in range(c):
                acc = 0.0
                for dy in range(-1, 3):
                    wy = _cubic_weight(sy - (y0 + dy))
                    row = min(max(y0 + dy, 0), h - 1)
                    inner = 0.0
                    for dx in range(-1, 3):
                        wx = _cubic_weight(sx - (x0 + dx))
                        col = min(max(x0 + dx, 0), w - 1)
                        inner += wx * arr[ci, row, col]
                    acc += wy * inner
                out[ci, oy, ox] = acc
    return out


class TestBicubic:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 7, 5), (2, 13, 1), (5, 1, 9), (3, 31, 17)])
    def test_planes_move_to_hwc_as_the_transposed_copy(self, shape, dtype):
        planes = np.random.default_rng(9).normal(size=shape).astype(dtype)
        planes[0, 0, 0] = -0.0
        got = ops._planes_to_hwc(planes)
        want = np.ascontiguousarray(planes.transpose(1, 2, 0))
        assert got.flags.c_contiguous
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    def test_same_size_identity_exhaustive(self):
        rng = np.random.default_rng(5)
        for h in range(1, 17):
            for w in range(1, 17):
                x = rng.normal(size=(1, h, w))
                out = bicubic_resize(Tensor(x), h, w).numpy()
                assert np.array_equal(out, x), (h, w)

    def test_one_pixel_upsample_is_constant(self):
        out = bicubic_resize(Tensor(np.full((2, 1, 1), 3.5)), 4, 4).numpy()
        assert np.max(np.abs(out - 3.5)) < 1e-12

    def test_linear_ramp_exact_at_half_offsets(self):
        # 2x downsampling lands every sample at fractional offset 0.5,
        # where the four taps are weighted symmetrically and any kernel
        # parameter reproduces degree-1 polynomials exactly.
        w = 16
        ramp = np.tile(np.arange(w, dtype=np.float64), (1, 4, 1))
        out = bicubic_resize(Tensor(ramp), 4, w // 2).numpy()
        sx = (np.arange(w // 2) + 0.5) * 2.0 - 0.5
        interior = (sx >= 1.0) & (sx <= w - 2.0)
        assert interior.sum() >= 5
        assert np.max(np.abs(out[0, 1, interior] - sx[interior])) < 1e-12

    def test_linear_ramp_bias_at_quarter_offsets(self):
        # 2x upsampling lands at offsets 0.25/0.75, where the a = -0.75
        # kernel's first moment is -0.1875*a - 0.09375 = 0.046875: a unit
        # ramp comes back shifted by exactly that constant (only a = -0.5
        # zeroes the moment). Freezing the value documents the convention.
        w = 8
        ramp = np.tile(np.arange(w, dtype=np.float64), (1, 2, 1))
        out = bicubic_resize(Tensor(ramp), 2, 2 * w).numpy()
        sx = (np.arange(2 * w) + 0.5) * 0.5 - 0.5
        interior = (sx >= 1.0) & (sx <= w - 2.0)
        deviation = np.abs(out[0, 0, interior] - sx[interior])
        assert np.max(np.abs(deviation - 0.046875)) < 1e-12

    @pytest.mark.parametrize(
        "in_hw, out_hw",
        [((5, 7), (9, 4)), ((3, 3), (8, 8)), ((10, 6), (5, 11)), ((1, 9), (4, 3))],
    )
    def test_matches_kernel_sum_oracle(self, in_hw, out_hw):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, *in_hw))
        got = bicubic_resize(Tensor(x), *out_hw).numpy()
        want = _bicubic_oracle(x, *out_hw)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("dtype, bound", [("f32", 4e-7), ("f64", 1e-12)])
    @pytest.mark.parametrize(
        "in_hw, out_hw",
        [((7, 6), (4, 3)), ((7, 6), (13, 11)), ((7, 6), (7, 6)), ((80, 72), (56, 56))],
        ids=["down", "up", "same", "model-grid"],
    )
    def test_within_bound_of_kernel_sum_oracle(self, in_hw, out_hw, dtype, bound):
        # max|got - oracle| / max|oracle|, the oracle summing the kernel in
        # f64 on the same (f32-rounded) samples; the model grid is level 1
        # of raftmlp-s at a 320 x 288 input resampled to its 224 x 224 grid.
        x = Tensor(np.random.default_rng(9).normal(size=(2, *in_hw)), dtype=dtype).numpy()
        got = bicubic_resize(Tensor(x), *out_hw).numpy()
        want = _bicubic_oracle(x.astype(np.float64), *out_hw)
        assert got.dtype == x.dtype
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize(
        "out_hw",
        [(4, 3), (13, 11), (7, 6), (7, 10), (3, 6)],
        ids=["down", "up", "same", "h-same", "w-same"],
    )
    def test_token_layout_bitwise_equal_to_planes(self, out_hw, dtype):
        # A [h * w, c] token tensor resampled in its own layout gives the
        # bits of bicubic_resize on its [c, h, w] planes.
        h, w, c = 7, 6, 5
        tokens = np.random.default_rng(10).normal(size=(h * w, c))
        got = ops._resize_grid(Tensor(tokens, dtype=dtype), (h, w, c), *out_hw).numpy()
        planes = Tensor(tokens.T.reshape(c, h, w), dtype=dtype)
        want = bicubic_resize(planes, *out_hw).numpy().reshape(c, -1).T
        assert got.shape == (out_hw[0] * out_hw[1], c) and got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_same_size_skip_is_keyed_on_the_plan(self, monkeypatch):
        # A plan whose taps are shifted by one is not the identity, so a
        # same-size resize runs it instead of returning its input.
        x = Tensor(np.random.default_rng(11).normal(size=(2, 6, 5)))
        plan = ops._resize_plan

        def shifted(n_in, n_out):
            idx, weights = plan(n_in, n_out)
            return np.clip(idx + 1, 0, n_in - 1), weights

        monkeypatch.setattr(ops, "_resize_plan", shifted)
        out = bicubic_resize(x, 6, 5).numpy()
        assert not np.array_equal(out, x.numpy())
        assert np.array_equal(out, x.numpy()[:, [1, 2, 3, 4, 5, 5]][:, :, [1, 2, 3, 4, 4]])
        tokens = Tensor(x.numpy().reshape(2, -1).T)
        moved = ops._resize_grid(tokens, (6, 5, 2), 6, 5).numpy()
        assert np.array_equal(moved, out.reshape(2, -1).T)

    def test_plan_patched_after_a_warm_call_takes_effect(self, monkeypatch):
        # _resize_plan is looked up on every resample, so a fault planted in
        # it after a warm call shows in the next resample, in both layouts.
        x = Tensor(np.random.default_rng(12).normal(size=(2, 7, 6)))
        tokens = Tensor(x.numpy().reshape(2, -1).T)
        warm = bicubic_resize(x, 5, 4).numpy()
        ops._resize_grid(tokens, (7, 6, 2), 5, 4)
        plan = ops._resize_plan

        def shifted(n_in, n_out):
            idx, weights = plan(n_in, n_out)
            return np.clip(idx + 1, 0, n_in - 1), weights

        monkeypatch.setattr(ops, "_resize_plan", shifted)
        out = bicubic_resize(x, 5, 4).numpy()
        assert not np.array_equal(out, warm)
        moved = ops._resize_grid(tokens, (7, 6, 2), 5, 4).numpy()
        assert np.array_equal(moved, out.reshape(2, -1).T)

    def test_same_size_keeps_negative_zero(self):
        x = Tensor(np.array([[[1.0, -0.0, 2.0], [3.0, 4.0, 5.0]]]))
        out = bicubic_resize(x, 2, 3).numpy()
        assert np.array_equal(np.signbit(out), np.signbit(x.numpy()))
        assert np.array_equal(out, x.numpy())

    def test_resample_rejects_a_grid_of_another_size(self):
        with pytest.raises(ShapeError):
            ops._resize_grid(Tensor(np.zeros((12, 3))), (3, 3, 3), 2, 2)

    def test_constant_field_preserved(self):
        x = np.full((3, 6, 5), -1.25)
        out = bicubic_resize(Tensor(x), 13, 7).numpy()
        assert np.max(np.abs(out + 1.25)) < 1e-12

    def test_rejects_non_positive_target(self):
        with pytest.raises(ValueError):
            bicubic_resize(Tensor(np.zeros((1, 4, 4))), 0, 4)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            bicubic_resize(Tensor(np.zeros((4, 4))), 2, 2)

    @pytest.mark.parametrize("out_h, out_w", [(4.0, 4), (4, 4.0), (True, 4), (4, np.int64(4))])
    def test_rejects_non_int_target(self, out_h, out_w):
        with pytest.raises(ShapeError, match="must be ints"):
            bicubic_resize(Tensor(np.zeros((1, 4, 4))), out_h, out_w)
