import tracemalloc

import numpy as np
import pytest

from nmvg.enmoe import MIN_EXTENT, EnMoeParams, enmoe_forward
from nmvg.tensor import BNParams, ConvParams, ShapeError
from oracles import enmoe_ref, enmoe_steps, rand_bn, rand_conv, rand_enmoe, read_only


def _identity_bn(c):
    return BNParams(
        gamma=np.ones(c, dtype=np.float32),
        beta=np.zeros(c, dtype=np.float32),
        running_mean=np.zeros(c, dtype=np.float32),
        running_var=np.ones(c, dtype=np.float32),
        epsilon=0.0,
    )


def _neutral_params(c, *, gate_bias=0.0, theta=0.0, w_o_kernel=None):
    """Zero gate logits, identity mixing by default."""
    if w_o_kernel is None:
        w_o_kernel = np.eye(c, dtype=np.float32).reshape(c, c, 1, 1)
    zero_gate = ConvParams(
        kernel=np.zeros((c, c, 1, 1), dtype=np.float32),
        bias=np.full(c, gate_bias, dtype=np.float32),
    )
    return EnMoeParams(
        edge_conv=ConvParams(kernel=np.ones((c, 1, 1, 1), dtype=np.float32), groups=c),
        edge_bn=_identity_bn(c),
        nbr_conv=ConvParams(
            kernel=np.zeros((c, 1, 5, 5), dtype=np.float32), padding=2, groups=c
        ),
        nbr_bn=_identity_bn(c),
        gate_high=zero_gate,
        gate_low=zero_gate,
        w_o=ConvParams(kernel=w_o_kernel),
        theta1_raw=theta,
        theta2_raw=theta,
    )


class TestEnmoeForward:
    def test_neutral_gates_give_exact_closed_form(self):
        """Zero gate logits and zero mix logits: both sigmoids are exactly
        0.5, so the output is f + 0.5 * (w_o f) with no rounding slack."""
        rng = np.random.default_rng(0)
        c = 4
        p = rand_enmoe(rng, c)
        p = EnMoeParams(
            edge_conv=p.edge_conv, edge_bn=p.edge_bn, nbr_conv=p.nbr_conv,
            nbr_bn=p.nbr_bn,
            gate_high=ConvParams(kernel=np.zeros((c, c, 1, 1), dtype=np.float32),
                                 bias=np.zeros(c, dtype=np.float32)),
            gate_low=ConvParams(kernel=np.zeros((c, c, 1, 1), dtype=np.float32),
                                bias=np.zeros(c, dtype=np.float32)),
            w_o=p.w_o, theta1_raw=0.0, theta2_raw=0.0,
        )
        f = rng.standard_normal((2, c, 6, 6)).astype(np.float32)
        from nmvg.tensor import conv2d

        want = f + np.float32(0.5) * conv2d(f, p.w_o)
        assert np.array_equal(enmoe_forward(f, p), want)

    def test_identity_mix_neutral_gates_is_one_and_a_half(self):
        c = 3
        p = _neutral_params(c)
        f = np.random.default_rng(1).standard_normal((1, c, 5, 5)).astype(np.float32)
        np.testing.assert_allclose(enmoe_forward(f, p), 1.5 * f, atol=1e-7)

    def test_saturated_closed_gates_pass_input_through(self):
        """Driving every gate to sigma(-100) ~= 0 leaves only the residual."""
        rng = np.random.default_rng(2)
        c = 4
        p = rand_enmoe(rng, c)
        closed = ConvParams(
            kernel=np.zeros((c, c, 1, 1), dtype=np.float32),
            bias=np.full(c, -100.0, dtype=np.float32),
        )
        p = EnMoeParams(
            edge_conv=p.edge_conv, edge_bn=p.edge_bn, nbr_conv=p.nbr_conv,
            nbr_bn=p.nbr_bn, gate_high=closed, gate_low=closed,
            w_o=p.w_o, theta1_raw=-100.0, theta2_raw=-100.0,
        )
        f = rng.standard_normal((1, c, 7, 7)).astype(np.float32)
        assert np.array_equal(enmoe_forward(f, p), f)

    def test_gates_bounded(self):
        rng = np.random.default_rng(3)
        c = 3
        p = rand_enmoe(rng, c)
        f = rng.standard_normal((1, c, 5, 5)).astype(np.float32)
        # reconstruct the gate maps the forward pass uses
        from nmvg.tensor import activation, batchnorm_inference, conv2d, sobel

        f_h = activation(batchnorm_inference(conv2d(sobel(f), p.edge_conv), p.edge_bn), "silu")
        f_l = activation(batchnorm_inference(conv2d(f, p.nbr_conv), p.nbr_bn), "silu")
        for src, gate in ((f_h, p.gate_high), (f_l, p.gate_low)):
            g = activation(conv2d(src, gate), "sigmoid")
            assert (g > 0).all() and (g < 1).all()

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_step_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        c = int(rng.integers(2, 6))
        p = rand_enmoe(rng, c)
        f = rng.standard_normal((2, c, 6, 7)).astype(np.float32)
        np.testing.assert_allclose(enmoe_forward(f, p), enmoe_ref(f, p), atol=1e-5)

    def test_read_only_input_gives_the_out_of_place_result(self, cores):
        """The 1x1 convs write over the maps they read and the blend runs in
        the projection's tiles, all on maps the layer made: a read-only
        input is left alone and the output equals the out-of-place
        composition bit for bit, on one core and on three."""
        rng = np.random.default_rng(9)
        p = rand_enmoe(rng, 5)
        f = rng.standard_normal((2, 5, 9, 8)).astype(np.float32)
        (frozen,) = read_only(f)
        want = enmoe_steps(f, p)
        for k in (1, 3):
            cores(k)
            got = enmoe_forward(frozen, p)
            assert np.array_equal(frozen, f)
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), k

    def test_frame640_level0_peak_memory(self, cores):
        """The 1x1 convs write over their inputs and the projection is
        blended into the edge gate tile by tile, so neither the projection
        nor a second gate-sized map is ever made: above its output, a 640
        level-0 forward peaks under 2.25 input-sized maps (2.63 while the
        gates and the projection were maps of their own)."""
        rng = np.random.default_rng(8)
        p = rand_enmoe(rng, 64)
        f = rng.standard_normal((1, 64, 160, 160)).astype(np.float32)
        cores(2)
        tracemalloc.start()
        try:
            out = enmoe_forward(f, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 2.25 * f.nbytes

    def test_small_extent_rejected(self):
        rng = np.random.default_rng(4)
        p = rand_enmoe(rng, 2)
        f = rng.standard_normal((1, 2, MIN_EXTENT - 1, 8)).astype(np.float32)
        with pytest.raises(ShapeError):
            enmoe_forward(f, p)

    def test_constant_input_stays_finite(self):
        rng = np.random.default_rng(5)
        c = 3
        p = rand_enmoe(rng, c)
        f = np.full((1, c, 5, 5), 2.5, dtype=np.float32)
        out = enmoe_forward(f, p)
        assert np.isfinite(out).all()

    def test_channel_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        p = rand_enmoe(rng, 3)
        with pytest.raises(ShapeError):
            enmoe_forward(rng.standard_normal((1, 4, 6, 6)).astype(np.float32), p)

    def test_gate_width_validation(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ShapeError):
            EnMoeParams(
                edge_conv=rand_conv(rng, 3, 1, 1, 1, groups=3),
                edge_bn=rand_bn(rng, 3),
                nbr_conv=rand_conv(rng, 3, 1, 5, 5, padding=2, groups=3),
                nbr_bn=rand_bn(rng, 3),
                gate_high=rand_conv(rng, 4, 3, 1, 1, bias=True),
                gate_low=rand_conv(rng, 3, 3, 1, 1, bias=True),
                w_o=rand_conv(rng, 3, 3, 1, 1, bias=True),
            )
