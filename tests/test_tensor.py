import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmvg.tensor import (
    BNParams,
    ConvParams,
    ShapeError,
    activation,
    batchnorm_inference,
    conv2d,
    feature_map,
    global_avg_pool,
    maxpool1d,
    sobel,
    upsample,
)
from oracles import (
    bn_ref,
    conv2d_ref,
    gap_ref,
    maxpool1d_ref,
    sigmoid_ref,
    silu_ref,
    sobel_ref,
    upsample_bilinear_ref,
    upsample_nearest_ref,
)


class TestConv2d:
    def test_ones_depthwise_pad1_corner_edge_center(self):
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        p = ConvParams(kernel=np.ones((1, 1, 3, 3), dtype=np.float32), padding=1, groups=1)
        out = conv2d(x, p)[0, 0]
        assert out[0, 0] == 4.0
        assert out[0, 1] == 6.0
        assert out[1, 1] == 9.0

    def test_identity_pointwise(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        p = ConvParams(kernel=np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1))
        assert np.array_equal(conv2d(x, p), x)

    def test_group_independence(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        p = ConvParams(kernel=rng.standard_normal((2, 1, 3, 3)).astype(np.float32),
                       padding=1, groups=2)
        base = conv2d(x, p)
        bumped = x.copy()
        bumped[0, 0] += 1.0
        out = conv2d(bumped, p)
        assert np.array_equal(base[0, 1], out[0, 1])
        assert not np.array_equal(base[0, 0], out[0, 0])

    @pytest.mark.parametrize("groups,cin,cout", [(1, 3, 4), (4, 4, 4), (4, 4, 8), (2, 4, 6)])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 2)])
    def test_matches_loop_oracle(self, groups, cin, cout, stride, padding):
        rng = np.random.default_rng(groups * 100 + stride * 10 + padding)
        x = rng.standard_normal((2, cin, 6, 7)).astype(np.float32)
        kernel = rng.standard_normal((cout, cin // groups, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(cout).astype(np.float32)
        p = ConvParams(kernel=kernel, bias=bias, stride=stride, padding=padding, groups=groups)
        want = conv2d_ref(x, kernel, bias, stride, padding, groups)
        np.testing.assert_allclose(conv2d(x, p), want, atol=1e-5)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        y = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        p = ConvParams(kernel=rng.standard_normal((3, 2, 3, 3)).astype(np.float32), padding=1)
        lhs = conv2d(2.0 * x + 3.0 * y, p)
        rhs = 2.0 * conv2d(x, p) + 3.0 * conv2d(y, p)
        np.testing.assert_allclose(lhs, rhs, atol=1e-4)

    def test_channel_mismatch_rejected(self):
        p = ConvParams(kernel=np.ones((1, 3, 3, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            conv2d(np.ones((1, 2, 5, 5), dtype=np.float32), p)

    def test_kernel_larger_than_padded_input_rejected(self):
        p = ConvParams(kernel=np.ones((1, 1, 5, 5), dtype=np.float32))
        with pytest.raises(ShapeError):
            conv2d(np.ones((1, 1, 3, 3), dtype=np.float32), p)

    def test_groups_must_divide_out_channels(self):
        with pytest.raises(ShapeError):
            ConvParams(kernel=np.ones((3, 1, 1, 1), dtype=np.float32), groups=2)

    def test_output_dtype_float32(self):
        p = ConvParams(kernel=np.ones((1, 1, 1, 1), dtype=np.float32))
        assert conv2d(np.ones((1, 1, 2, 2), dtype=np.float32), p).dtype == np.float32


class TestBatchnorm:
    def test_identity_params(self):
        x = np.random.default_rng(3).standard_normal((1, 2, 3, 3)).astype(np.float32)
        p = BNParams(
            gamma=np.ones(2, dtype=np.float32),
            beta=np.zeros(2, dtype=np.float32),
            running_mean=np.zeros(2, dtype=np.float32),
            running_var=np.ones(2, dtype=np.float32),
            epsilon=0.0,
        )
        np.testing.assert_allclose(batchnorm_inference(x, p), x, atol=1e-7)

    def test_affine_arithmetic(self):
        x = np.full((1, 1, 1, 1), 3.0, dtype=np.float32)
        p = BNParams(
            gamma=np.array([2.0], dtype=np.float32),
            beta=np.array([1.0], dtype=np.float32),
            running_mean=np.array([0.0], dtype=np.float32),
            running_var=np.array([1.0], dtype=np.float32),
            epsilon=0.0,
        )
        assert batchnorm_inference(x, p)[0, 0, 0, 0] == 7.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 4, 3, 5)).astype(np.float32)
        g = rng.uniform(0.5, 1.5, 4).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        m = rng.standard_normal(4).astype(np.float32)
        v = rng.uniform(0.2, 2.0, 4).astype(np.float32)
        p = BNParams(gamma=g, beta=b, running_mean=m, running_var=v, epsilon=1e-5)
        np.testing.assert_allclose(
            batchnorm_inference(x, p), bn_ref(x, g, b, m, v, 1e-5), atol=1e-6
        )

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            BNParams(
                gamma=np.ones(1, dtype=np.float32),
                beta=np.zeros(1, dtype=np.float32),
                running_mean=np.zeros(1, dtype=np.float32),
                running_var=np.array([-0.1], dtype=np.float32),
            )

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            BNParams(
                gamma=np.ones(1, dtype=np.float32),
                beta=np.zeros(1, dtype=np.float32),
                running_mean=np.zeros(1, dtype=np.float32),
                running_var=np.ones(1, dtype=np.float32),
                epsilon=-1e-6,
            )


class TestActivation:
    def test_relu_values(self):
        out = activation(np.array([[[[-1.0, 2.0]]]], dtype=np.float32), "relu")
        assert out[0, 0, 0, 0] == 0.0 and out[0, 0, 0, 1] == 2.0

    def test_sigmoid_center_and_saturation(self):
        x = np.array([[[[0.0, 1000.0, -1000.0]]]], dtype=np.float32)
        out = activation(x, "sigmoid")
        assert out[0, 0, 0, 0] == 0.5
        assert out[0, 0, 0, 1] == 1.0
        assert out[0, 0, 0, 2] == 0.0
        assert np.isfinite(out).all()

    def test_silu_matches_composition(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32) * 3
        np.testing.assert_allclose(activation(x, "silu"), silu_ref(x), atol=1e-6)
        assert activation(np.zeros((1, 1, 1, 1), dtype=np.float32), "silu")[0, 0, 0, 0] == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            activation(np.zeros((1, 1, 1, 1), dtype=np.float32), "tanh")


class TestMaxpool1d:
    def test_hand_sequence(self):
        out = maxpool1d(np.array([[1.0, 5.0, 2.0, 4.0, 3.0]], dtype=np.float32))
        np.testing.assert_array_equal(out, [[5.0, 4.0]])

    def test_length_formula_50_to_24(self):
        out = maxpool1d(np.zeros((4, 50), dtype=np.float32))
        assert out.shape == (4, 24)

    def test_three_dim_input(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 9)).astype(np.float32)
        np.testing.assert_allclose(maxpool1d(x), maxpool1d_ref(x), atol=0)

    def test_short_sequence_rejected(self):
        with pytest.raises(ShapeError):
            maxpool1d(np.zeros((1, 2), dtype=np.float32))

    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_never_exceeds_input_max(self, seq):
        x = np.array([seq], dtype=np.float32)
        assert maxpool1d(x).max() <= x.max()


class TestSobel:
    def test_constant_interior_zero(self):
        out = sobel(np.full((1, 1, 6, 6), 3.7, dtype=np.float32))
        np.testing.assert_allclose(out[0, 0, 1:-1, 1:-1], 0.0, atol=1e-5)

    def test_ramp_interior_eight(self):
        x = np.tile(np.arange(7, dtype=np.float32), (7, 1))[None, None]
        out = sobel(x)
        np.testing.assert_allclose(out[0, 0, 1:-1, 1:-1], 8.0, atol=1e-4)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 5, 6)).astype(np.float32)
        np.testing.assert_allclose(sobel(x), sobel_ref(x), atol=1e-4)

    def test_small_extent_rejected(self):
        with pytest.raises(ShapeError):
            sobel(np.zeros((1, 1, 2, 5), dtype=np.float32))


class TestUpsample:
    def test_factor_one_identity(self):
        x = np.random.default_rng(8).standard_normal((1, 2, 3, 3)).astype(np.float32)
        for mode in ("nearest", "bilinear"):
            np.testing.assert_array_equal(upsample(x, 1, mode), x)

    def test_nearest_block_replication(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
        want = np.array(
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=np.float32
        )
        np.testing.assert_array_equal(upsample(x, 2, "nearest")[0, 0], want)

    def test_nearest_matches_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 2, 3, 4)).astype(np.float32)
        np.testing.assert_allclose(upsample(x, 3, "nearest"), upsample_nearest_ref(x, 3), atol=0)

    def test_bilinear_matches_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 3, 4, 5)).astype(np.float32)
        for factor in (2, 4):
            np.testing.assert_allclose(
                upsample(x, factor, "bilinear"), upsample_bilinear_ref(x, factor), atol=1e-5
            )

    def test_bad_factor_and_mode_rejected(self):
        x = np.zeros((1, 1, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            upsample(x, 0, "nearest")
        with pytest.raises(ValueError):
            upsample(x, 2, "bicubic")


class TestGlobalAvgPool:
    def test_constant(self):
        assert global_avg_pool(np.full((1, 1, 4, 4), 2.5, dtype=np.float32))[0, 0] == 2.5

    def test_hand_grid(self):
        x = np.array([[[[1.0, 3.0], [5.0, 7.0]]]], dtype=np.float32)
        assert global_avg_pool(x)[0, 0] == 4.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 4, 5, 6)).astype(np.float32)
        np.testing.assert_allclose(global_avg_pool(x), gap_ref(x), atol=1e-6)


class TestFeatureMap:
    def test_validates_rank(self):
        with pytest.raises(ShapeError):
            feature_map(np.zeros((3, 4, 5), dtype=np.float32))

    def test_read_only(self):
        fm = feature_map(np.zeros((1, 1, 2, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            fm[0, 0, 0, 0] = 1.0

    def test_sigmoid_saturation_no_overflow_warning(self):
        x = np.array([[[[-500.0, 500.0]]]], dtype=np.float32)
        with np.errstate(over="raise"):
            out = activation(x, "sigmoid")
        np.testing.assert_array_equal(out[0, 0, 0], [0.0, 1.0])


def test_sigmoid_matches_reference_midrange():
    rng = np.random.default_rng(12)
    x = (8 * rng.standard_normal((1, 1, 10, 10))).astype(np.float32)
    np.testing.assert_allclose(activation(x, "sigmoid"), sigmoid_ref(x), atol=1e-6)
