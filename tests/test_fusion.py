import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmvg.fusion import (
    DeformParams,
    EcaParams,
    deform_conv,
    eca,
    flatten_spatial,
    scaled_attend,
    sinusoidal_encoding,
    tmdf_fuse,
    unflatten_spatial,
)
from nmvg import tensor
from nmvg.tensor import ConvParams, ShapeError, conv2d
from oracles import deform_ref, eca_ref, rand_tmdf, sinusoid_ref, tmdf_ref


class TestEca:
    def test_zero_weights_halve(self):
        x = np.random.default_rng(0).standard_normal((1, 4, 3, 3)).astype(np.float32)
        out = eca(x, EcaParams(weights=np.zeros(3, dtype=np.float32)))
        np.testing.assert_allclose(out, x / 2, atol=1e-7)

    def test_saturated_gate_passthrough(self):
        x = np.abs(np.random.default_rng(1).standard_normal((1, 1, 3, 3))).astype(np.float32) + 1
        out = eca(x, EcaParams(weights=np.array([0.0, 1000.0, 0.0], dtype=np.float32)))
        np.testing.assert_array_equal(out, x)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_composition_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal((2, 6, 4, 5)).astype(np.float32)
        w = rng.standard_normal(3).astype(np.float32)
        np.testing.assert_allclose(eca(x, EcaParams(weights=w)), eca_ref(x, w), atol=1e-6)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            EcaParams(weights=np.zeros(4, dtype=np.float32))


def _deform_params(rng, c, offset_scale=0.1, zero=False):
    if zero:
        off_k = np.zeros((18, c, 3, 3), dtype=np.float32)
        off_b = np.zeros(18, dtype=np.float32)
    else:
        off_k = (offset_scale * rng.standard_normal((18, c, 3, 3))).astype(np.float32)
        off_b = (offset_scale * rng.standard_normal(18)).astype(np.float32)
    return DeformParams(
        offset_conv=ConvParams(kernel=off_k, bias=off_b, padding=1),
        main=ConvParams(
            kernel=rng.standard_normal((c, c, 3, 3)).astype(np.float32),
            bias=rng.standard_normal(c).astype(np.float32),
            padding=1,
        ),
    )


class TestDeformConv:
    def test_empty_batch_rejected(self):
        """Its offset conv refuses N = 0 before any sampling runs."""
        p = _deform_params(np.random.default_rng(1), 3)
        with pytest.raises(ShapeError, match="empty batch"):
            deform_conv(np.zeros((0, 3, 6, 6), dtype=np.float32), p)

    def test_zero_offsets_reduce_to_standard_conv(self):
        rng = np.random.default_rng(2)
        p = _deform_params(rng, 3, zero=True)
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        np.testing.assert_allclose(deform_conv(x, p), conv2d(x, p.main), atol=1e-6)

    def test_integer_offset_shifts_one_column(self):
        """Offset (0, +1) on every tap samples the next column, so the
        result equals a standard conv over the column-shifted input."""
        rng = np.random.default_rng(3)
        c = 2
        off_b = np.zeros(18, dtype=np.float32)
        off_b[1::2] = 1.0  # odd slots are column shifts
        p = DeformParams(
            offset_conv=ConvParams(
                kernel=np.zeros((18, c, 3, 3), dtype=np.float32), bias=off_b, padding=1
            ),
            main=ConvParams(
                kernel=rng.standard_normal((c, c, 3, 3)).astype(np.float32), padding=1
            ),
        )
        x = rng.standard_normal((1, c, 5, 7)).astype(np.float32)
        shifted = np.zeros_like(x)
        shifted[..., :-1] = x[..., 1:]
        got = deform_conv(x, p)
        want = conv2d(shifted, p.main)
        # column 0 differs by construction: the shifted input has padding
        # where the offset taps still see real data
        np.testing.assert_allclose(got[..., 1:], want[..., 1:], atol=1e-5)

    def test_fractional_offset_reads_midpoints(self):
        """On a column ramp, a +0.5 column offset reads interior values
        halfway between neighbours."""
        ramp = np.tile(np.arange(8, dtype=np.float32), (8, 1))[None, None]
        off_b = np.zeros(2, dtype=np.float32)
        off_b[1] = 0.5
        center_only = np.zeros((1, 1, 1, 1), dtype=np.float32)
        center_only[0, 0, 0, 0] = 1.0
        p = DeformParams(
            offset_conv=ConvParams(
                kernel=np.zeros((2, 1, 1, 1), dtype=np.float32), bias=off_b
            ),
            main=ConvParams(kernel=center_only),
        )
        out = deform_conv(ramp, p)
        np.testing.assert_allclose(out[0, 0, :, 2], 2.5, atol=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bilinear_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        c = 3
        p = _deform_params(rng, c, offset_scale=0.7)
        x = rng.standard_normal((2, c, 5, 5)).astype(np.float32)
        want = deform_ref(
            x, p.offset_conv.kernel, p.offset_conv.bias, p.main.kernel, p.main.bias
        )
        np.testing.assert_allclose(deform_conv(x, p), want, atol=1e-4)

    def test_batch_equals_stacked_single_samples(self):
        rng = np.random.default_rng(7)
        p = _deform_params(rng, 3, offset_scale=0.7)
        x = rng.standard_normal((3, 3, 5, 6)).astype(np.float32)
        singles = np.concatenate([deform_conv(x[i : i + 1], p) for i in range(3)])
        assert np.array_equal(deform_conv(x, p), singles)

    def test_huge_offsets_read_zero_without_warning(self):
        """Offsets far outside the map sample only padding, and the
        coordinate cast stays finite (no invalid-value warning)."""
        c = 2
        off_b = np.full(18, 1e20, dtype=np.float32)
        off_b[::3] = -1e20
        main_b = np.array([0.5, -1.5], dtype=np.float32)
        p = DeformParams(
            offset_conv=ConvParams(
                kernel=np.zeros((18, c, 3, 3), dtype=np.float32), bias=off_b, padding=1
            ),
            main=ConvParams(
                kernel=np.ones((c, c, 3, 3), dtype=np.float32), bias=main_b, padding=1
            ),
        )
        x = np.random.default_rng(8).standard_normal((1, c, 5, 5)).astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = deform_conv(x, p)
        assert np.array_equal(out, np.broadcast_to(main_b[None, :, None, None], out.shape))

    def test_small_tiles_match_bilinear_oracle(self, monkeypatch):
        rng = np.random.default_rng(11)
        c = 3
        p = _deform_params(rng, c, offset_scale=0.7)
        x = rng.standard_normal((2, c, 9, 6)).astype(np.float32)
        whole = deform_conv(x, p)
        # Two output rows per tile: five tiles, the last one ragged.
        monkeypatch.setattr(tensor, "_TILE", 2 * 2 * c * 9 * 6)
        tiled = deform_conv(x, p)
        want = deform_ref(
            x, p.offset_conv.kernel, p.offset_conv.bias, p.main.kernel, p.main.bias
        )
        np.testing.assert_allclose(tiled, want, atol=1e-4)
        assert np.array_equal(tiled, whole)

    @pytest.mark.parametrize(
        "k,stride,groups", [(3, 2, 1), (3, 1, 2), (5, 1, 1), (3, 1, 4)]
    )
    def test_small_tiles_equal_whole(self, monkeypatch, k, stride, groups):
        """Strided, grouped, depthwise and 5x5 deforms tile bit for bit."""
        rng = np.random.default_rng(12 + k + stride + groups)
        c, n, h, w = 4, 2, 13, 7
        pad = k // 2
        p = DeformParams(
            offset_conv=ConvParams(
                kernel=(0.3 * rng.standard_normal((2 * k * k, c, k, k))).astype(np.float32),
                bias=(0.7 * rng.standard_normal(2 * k * k)).astype(np.float32),
                stride=stride,
                padding=pad,
            ),
            main=ConvParams(
                kernel=rng.standard_normal((4, c // groups, k, k)).astype(np.float32),
                bias=rng.standard_normal(4).astype(np.float32),
                stride=stride,
                padding=pad,
                groups=groups,
            ),
        )
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        whole = deform_conv(x, p)
        _, _, ho, wo = whole.shape
        assert ho >= 5
        monkeypatch.setattr(tensor, "_TILE", 2 * n * c * k * k * wo)
        assert np.array_equal(deform_conv(x, p), whole)

    def test_frame640_stage0_equal_across_core_counts(self, cores):
        rng = np.random.default_rng(15)
        p = _deform_params(rng, 16, offset_scale=0.3)
        x = rng.standard_normal((1, 16, 160, 160)).astype(np.float32)
        outs = []
        for k in (1, 2, 3):
            cores(k)
            outs.append(deform_conv(x, p))
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])

    def test_offset_channel_count_enforced(self):
        with pytest.raises(ShapeError):
            DeformParams(
                offset_conv=ConvParams(kernel=np.zeros((10, 1, 3, 3), dtype=np.float32), padding=1),
                main=ConvParams(kernel=np.zeros((1, 1, 3, 3), dtype=np.float32), padding=1),
            )


class TestPositionalCodes:
    def test_sinusoid_matches_reference(self):
        np.testing.assert_allclose(sinusoidal_encoding(8, 11), sinusoid_ref(8, 11), atol=1e-6)

    def test_first_channel_is_sine_of_position(self):
        enc = sinusoidal_encoding(4, 6)
        np.testing.assert_allclose(enc[0], np.sin(np.arange(6)), atol=1e-6)
        np.testing.assert_allclose(enc[1], np.cos(np.arange(6)), atol=1e-6)

    @given(
        st.integers(1, 4), st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)
    )
    @settings(max_examples=40, deadline=None)
    def test_flatten_unflatten_bijection(self, n, c, h, w):
        x = np.random.default_rng(n * 1000 + c * 100 + h * 10 + w).standard_normal(
            (n, c, h, w)
        ).astype(np.float32)
        q = flatten_spatial(x)
        assert q.shape == (n, h * w, c)
        assert np.array_equal(unflatten_spatial(q, h, w), x)


class TestScaledAttend:
    def test_hand_dot_product(self):
        d = 9
        q = np.ones((1, 1, d), dtype=np.float32)
        kv = np.concatenate([np.ones((d, 1)), 2 * np.ones((d, 1))], axis=1).astype(np.float32)
        ctx, sim = scaled_attend(q, kv, kv, d=d)
        np.testing.assert_allclose(sim[0, 0], [3.0, 6.0], atol=1e-6)
        np.testing.assert_allclose(ctx[0, 0], 3.0 * kv[:, 0] + 6.0 * kv[:, 1], atol=1e-5)

    def test_normalize_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((2, 5, 4)).astype(np.float32)
        kv = rng.standard_normal((4, 3)).astype(np.float32)
        _, sim = scaled_attend(q, kv, kv, d=4, normalize=True)
        np.testing.assert_allclose(sim.sum(axis=2), 1.0, atol=1e-5)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            scaled_attend(
                np.zeros((1, 2, 3), dtype=np.float32),
                np.zeros((4, 2), dtype=np.float32),
                np.zeros((4, 2), dtype=np.float32),
                d=3,
            )


class TestTmdfFuse:
    def test_zero_text_zero_ape_annihilates(self):
        rng = np.random.default_rng(5)
        p = rand_tmdf(rng, 4, 3, 3, 8)
        p = type(p)(
            w_img=p.w_img, w_radar=p.w_radar, eca=p.eca, deform=p.deform, lpe=p.lpe,
            w_text=p.w_text, w_text_bias=np.zeros(4, dtype=np.float32),
            ape=np.zeros((4, 8), dtype=np.float32), d=4,
        )
        out = tmdf_fuse(
            rng.standard_normal((2, 4, 3, 3)).astype(np.float32),
            rng.standard_normal((2, 4, 3, 3)).astype(np.float32),
            np.zeros((4, 8), dtype=np.float32),
            p,
        )
        assert not out.any()

    def test_single_position_hand_case(self):
        """H=W=1, pooled length 1: similarity collapses to q.k/sqrt(d)."""
        c = 4
        ident = np.eye(c, dtype=np.float32)
        p = rand_tmdf(np.random.default_rng(6), c, 1, 1, 3)
        p = type(p)(
            w_img=ConvParams(kernel=np.ones((c, 1, 1, 1), dtype=np.float32), groups=c),
            w_radar=ConvParams(kernel=np.ones((c, 1, 1, 1), dtype=np.float32), groups=c),
            eca=EcaParams(weights=np.zeros(3, dtype=np.float32)),
            deform=DeformParams(
                offset_conv=ConvParams(
                    kernel=np.zeros((18, c, 3, 3), dtype=np.float32),
                    bias=np.zeros(18, dtype=np.float32),
                    padding=1,
                ),
                # center-tap identity: deform output == its input
                main=ConvParams(kernel=_center_identity(c), padding=1),
            ),
            lpe=np.zeros((1, c, 1, 1), dtype=np.float32),
            w_text=ident,
            w_text_bias=np.zeros(c, dtype=np.float32),
            ape=np.zeros((c, 3), dtype=np.float32),
            d=c,
        )
        # image 2s and radar 2s: q = 2 + 0.5*2 = 3 per channel (eca gate 0.5)
        f_img = np.full((1, c, 1, 1), 2.0, dtype=np.float32)
        f_radar = np.full((1, c, 1, 1), 2.0, dtype=np.float32)
        f_text = np.ones((c, 3), dtype=np.float32)
        out = tmdf_fuse(f_img, f_radar, f_text, p)
        # pooled text is ones, sim = (3*c)/sqrt(c), out = sim * 1
        want = 3.0 * c / np.sqrt(c)
        np.testing.assert_allclose(out, want, rtol=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_step_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        c, h, w, length = 4, 3, 4, 9
        p = rand_tmdf(rng, c, h, w, length)
        f_img = rng.standard_normal((2, c, h, w)).astype(np.float32)
        f_radar = rng.standard_normal((2, c, h, w)).astype(np.float32)
        f_text = rng.standard_normal((c, length)).astype(np.float32)
        for normalize in (False, True):
            got = tmdf_fuse(f_img, f_radar, f_text, p, normalize=normalize)
            want = tmdf_ref(f_img, f_radar, f_text, p, normalize=normalize)
            np.testing.assert_allclose(got, want, atol=2e-4)

    def test_modality_symmetry_with_forced_gate(self):
        """Shared projection, gate pinned at 1: swapping which sensor
        carries each signal leaves the fused output unchanged."""
        rng = np.random.default_rng(7)
        c, h, w, length = 3, 3, 3, 6
        p = rand_tmdf(rng, c, h, w, length)
        # positive kernel keeps projected channel means positive so the
        # saturated eca gate lands on 1, not 0
        shared = ConvParams(
            kernel=(rng.random((c, 1, 1, 1), dtype=np.float32) + 0.5), groups=c
        )
        p = type(p)(
            w_img=shared, w_radar=shared,
            eca=EcaParams(weights=np.array([0.0, 1000.0, 0.0], dtype=np.float32)),
            deform=p.deform, lpe=np.zeros((1, c, h, w), dtype=np.float32),
            w_text=p.w_text, w_text_bias=p.w_text_bias, ape=p.ape, d=c,
        )
        # positive features keep the pooled channel means positive, so the
        # saturated gate really is 1 rather than 0
        a = (rng.random((1, c, h, w), dtype=np.float32) + 1.0)
        b = (rng.random((1, c, h, w), dtype=np.float32) + 1.0)
        text = rng.standard_normal((c, length)).astype(np.float32)
        np.testing.assert_allclose(
            tmdf_fuse(a, b, text, p), tmdf_fuse(b, a, text, p), atol=1e-5
        )

    def test_value_path_scales_linearly_in_oracle(self):
        rng = np.random.default_rng(8)
        c, h, w, length = 3, 2, 2, 7
        p = rand_tmdf(rng, c, h, w, length)
        f_img = rng.standard_normal((1, c, h, w)).astype(np.float32)
        f_radar = rng.standard_normal((1, c, h, w)).astype(np.float32)
        f_text = rng.standard_normal((c, length)).astype(np.float32)
        base = tmdf_ref(f_img, f_radar, f_text, p)
        doubled = _tmdf_ref_scaled_v(f_img, f_radar, f_text, p, 2.0)
        np.testing.assert_allclose(doubled, 2.0 * base, atol=1e-6)

    def test_short_text_rejected(self):
        rng = np.random.default_rng(9)
        p = rand_tmdf(rng, 2, 2, 2, 2)
        with pytest.raises(ShapeError):
            tmdf_fuse(
                np.zeros((1, 2, 2, 2), dtype=np.float32),
                np.zeros((1, 2, 2, 2), dtype=np.float32),
                np.zeros((2, 2), dtype=np.float32),
                p,
            )

    def test_mismatched_stages_rejected(self):
        rng = np.random.default_rng(10)
        p = rand_tmdf(rng, 2, 3, 3, 6)
        with pytest.raises(ShapeError):
            tmdf_fuse(
                np.zeros((1, 2, 3, 3), dtype=np.float32),
                np.zeros((1, 2, 4, 4), dtype=np.float32),
                np.zeros((2, 6), dtype=np.float32),
                p,
            )


def _center_identity(c):
    k = np.zeros((c, c, 3, 3), dtype=np.float32)
    for i in range(c):
        k[i, i, 1, 1] = 1.0
    return k


def _tmdf_ref_scaled_v(f_img, f_radar, f_text, p, v_scale):
    """Oracle decomposition with only the value path scaled."""
    import math

    from oracles import conv2d_ref, deform_ref, eca_ref, maxpool1d_ref

    f_img = np.asarray(f_img, dtype=np.float64)
    f_radar = np.asarray(f_radar, dtype=np.float64)
    f_text = np.asarray(f_text, dtype=np.float64)
    n, c, h, w = f_img.shape
    mixed = conv2d_ref(f_img, p.w_img.kernel, None, 1, 0, groups=c) + eca_ref(
        conv2d_ref(f_radar, p.w_radar.kernel, None, 1, 0, groups=c), p.eca.weights
    )
    sampled = deform_ref(
        mixed, p.deform.offset_conv.kernel, p.deform.offset_conv.bias,
        p.deform.main.kernel, p.deform.main.bias,
    )
    q_grid = sampled + np.asarray(p.lpe, dtype=np.float64)
    t_hat = (
        np.asarray(p.w_text, dtype=np.float64) @ (f_text + np.asarray(p.ape, dtype=np.float64))
        + np.asarray(p.w_text_bias, dtype=np.float64)[:, None]
    )
    pooled = maxpool1d_ref(t_hat)
    out = np.empty((n, c, h, w))
    for b in range(n):
        q = q_grid[b].reshape(c, -1).T
        sim = (q @ pooled) / math.sqrt(p.d)
        ctx = sim @ (v_scale * pooled).T
        out[b] = ctx.T.reshape(c, h, w)
    return out
