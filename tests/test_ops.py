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

    def test_dimension_mismatch(self):
        p = LinearParams(weight=Tensor(np.zeros((3, 2))), bias=Tensor(np.zeros(2)))
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros((5, 4))), p)

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

    # f32 evaluates erf with a rational approximation; these bound its error
    # against the f64 path on the same f32 inputs.
    F32_GRID = np.linspace(-30.0, 30.0, 600_001).astype(np.float32)

    def test_f32_within_2e6_of_f64(self):
        got = gelu(Tensor(self.F32_GRID, dtype="f32")).numpy()
        want = gelu(Tensor(self.F32_GRID, dtype="f64")).numpy()
        assert got.dtype == np.float32
        assert np.max(np.abs(got - want)) <= 2e-6

    def test_f32_derivative_within_1e6_of_f64(self):
        got = ops._gelu_derivative(self.F32_GRID)
        want = ops._gelu_derivative(self.F32_GRID.astype(np.float64))
        assert got.dtype == np.float32
        assert np.max(np.abs(got - want)) <= 1e-6

    def test_f32_erf_within_8_ulp(self):
        z = np.linspace(-4.0, 4.0, 2_000_001).astype(np.float32)
        got = ops._erf_f32(z.copy(), np.empty_like(z), np.empty_like(z))
        want = erf(z.astype(np.float64)).astype(np.float32)

        def ordinal(a):
            # f32 bit patterns as integers that count ulps across zero.
            bits = a.view(np.int32).astype(np.int64)
            return np.where(bits < 0, -(bits & 0x7FFFFFFF), bits)

        assert np.max(np.abs(ordinal(got) - ordinal(want))) <= 8

    def test_f32_monotone_on_nonnegative(self):
        xs = np.linspace(0.0, 6.0, 600_001).astype(np.float32)
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
