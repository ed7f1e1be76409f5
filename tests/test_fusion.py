import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from nmvg.fusion import (
    DeformParams,
    EcaParams,
    deform_conv,
    eca,
    scaled_attend,
    sinusoidal_encoding,
    tmdf_fuse,
)
import oracles
from nmvg import fusion, tensor
from nmvg.tensor import ConvParams, ShapeError, conv2d
from oracles import deform_ref, eca_ref, rand_tmdf, read_only, sinusoid_ref, tmdf_ref


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

    def test_logits_formed_in_float64(self):
        """The 3-tap logits are float64 sums of the float32 pooled values
        times the weights, rounded once to float32; the gate and product
        follow the runtime's own steps."""
        rng = np.random.default_rng(12)
        x = (10 * rng.standard_normal((2, 64, 3, 4))).astype(np.float32)
        w = rng.standard_normal(3).astype(np.float32)
        padded = np.pad(tensor.global_avg_pool(x), ((0, 0), (1, 1))).tolist()
        logits = np.float32(
            [[math.fsum(np.multiply(row[ch : ch + 3], w.tolist())) for ch in range(64)] for row in padded]
        )
        want = x * tensor.activation(logits, "sigmoid")[:, :, None, None]
        assert eca(x, EcaParams(weights=w)).tobytes() == want.tobytes()


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

    def test_sums_in_float64_and_rounds_once(self):
        """With zero offsets the centre output's taps are (a, -b, a) times
        (a, 2, a), a = 1 + 2^-12 and b = 1 + 2^-11, plus the zero border:
        only float64 products and sums give the exact 2^-23 (see
        ``TestConv2d.test_sums_in_float64_and_rounds_once``)."""
        a, b = 1 + 2.0**-12, 1 + 2.0**-11
        x = np.float32([a, -b, a]).reshape(1, 1, 1, 3)
        kernel = np.zeros((1, 1, 3, 3), np.float32)
        kernel[0, 0, 1] = [a, 2.0, a]
        p = DeformParams(
            offset_conv=ConvParams(np.zeros((18, 1, 3, 3), np.float32), padding=1),
            main=ConvParams(kernel, padding=1),
        )
        assert deform_conv(x, p)[0, 0, 0, 1] == 2.0**-23

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

    @pytest.mark.parametrize("k", [1, 2])
    def test_batch_frames_get_their_solo_bits(self, cores, k):
        rng = np.random.default_rng(33)
        p = _deform_params(rng, 16, offset_scale=0.7)
        x = rng.standard_normal((3, 16, 40, 40)).astype(np.float32)
        cores(k)
        batch = deform_conv(x, p)
        for i in range(3):
            assert batch[i].tobytes() == deform_conv(x[i : i + 1], p)[0].tobytes()

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("case", ["batch3", "beyond_map", "huge", "on_pixel"])
    def test_sampling_equals_fresh_formula(self, monkeypatch, cores, case, k):
        """Sampling the zero-bordered copy equals the per-corner clip-and-mask
        formula with fresh temporaries bit for bit, on one chunk and on two."""
        rng = np.random.default_rng(31)
        c, n = 3, 3 if case == "batch3" else 2
        p = _deform_params(rng, c, offset_scale=0.7)
        if case in ("beyond_map", "huge"):
            # Biases of a few pixels push many samples past the border;
            # 1e20 pushes every one far outside it.
            scale = 1e20 if case == "huge" else 4.0
            bias = (scale * np.sign(rng.standard_normal(18))).astype(np.float32)
            p = DeformParams(ConvParams(p.offset_conv.kernel, bias, padding=1), p.main)
        elif case == "on_pixel":
            # Integer offsets: every fraction is 0, so on-map corners of
            # weight 0 meet pixels of either sign.
            bias = rng.integers(-3, 4, 18).astype(np.float32)
            p = DeformParams(ConvParams(np.zeros_like(p.offset_conv.kernel), bias, padding=1), p.main)
        x = rng.standard_normal((n, c, 11, 7)).astype(np.float32)
        x[:, :, ::3] *= -1e-30  # negative pixels under zero weights make -0.0 products
        x[:, :, 1::3, ::2] = -0.0  # a corner of weight 1 on these reads -0.0
        # Two output rows per block: six blocks, the last one ragged.
        monkeypatch.setattr(tensor, "_TILE", 2 * n * (9 * c + c) * 7)
        cores(k)
        # The im2col columns of each block, by its first row: the GEMM and
        # the bias would hide a -0.0 column that should be +0.0.
        columns = {}
        contract_rows = tensor._contract_rows

        def contract_spy(shape, main, make_fill, make_emit):
            def make_fill_spy(rows):
                fill = make_fill(rows)

                def fill_spy(cols, r0, r1):
                    fill(cols, r0, r1)
                    columns[r0] = cols.tobytes()

                return fill_spy

            contract_rows(shape, main, make_fill_spy, make_emit)

        monkeypatch.setattr(tensor, "_contract_rows", contract_spy)
        want = oracles.deform_conv_fresh(x, p)
        want_columns, columns = columns, {}
        monkeypatch.setattr(fusion, "_contract_rows", contract_spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = deform_conv(x, p)
        assert got.tobytes() == want.tobytes()
        assert columns == want_columns

    def test_tiles_allocate_less_than_a_coordinate_array(self, monkeypatch, cores):
        """Once every thread's buffers exist, running the tiles allocates
        less than one block's float64 coordinate array (N * taps * rows *
        W_out values), on one thread or two: the sampling works in buffers
        made by ``make_fill``, and numpy's ufunc buffers in the tiles hold
        ``_BUFSIZE`` elements."""
        rng = np.random.default_rng(32)
        p = _deform_params(rng, 16, offset_scale=0.3)
        x = rng.standard_normal((1, 16, 80, 80)).astype(np.float32)
        block_rows, declared = [], []
        contract_rows, map_tiles = fusion._contract_rows, tensor._map_tiles

        def contract_spy(shape, main, make_fill, make_emit):
            def make_fill_spy(rows):
                block_rows.append(rows)
                return make_fill(rows)

            contract_rows(shape, main, make_fill_spy, make_emit)

        def map_spy(tiles, make_tile):
            def make_tile_spy():
                tile = make_tile()
                # The input, output, offsets and every thread's buffers so far.
                declared.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
                return tile

            map_tiles(tiles, make_tile_spy)

        monkeypatch.setattr(fusion, "_contract_rows", contract_spy)
        monkeypatch.setattr(tensor, "_map_tiles", map_spy)
        for k in (1, 2):
            cores(k)
            block_rows[:], declared[:] = [], []
            tracemalloc.start()
            try:
                deform_conv(x, p)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            coords = 8 * 9 * block_rows[0] * 80
            assert 80 // block_rows[0] >= 3  # several blocks reuse the buffers
            assert peak - declared[-1] < coords, k

    def test_offset_channel_count_enforced(self):
        with pytest.raises(ShapeError):
            DeformParams(
                offset_conv=ConvParams(kernel=np.zeros((10, 1, 3, 3), dtype=np.float32), padding=1),
                main=ConvParams(kernel=np.zeros((1, 1, 3, 3), dtype=np.float32), padding=1),
            )


class TestPositionalCodes:
    def test_sinusoid_matches_reference(self):
        np.testing.assert_allclose(sinusoidal_encoding(8, 11), sinusoid_ref(8, 11), atol=1e-6)

    @pytest.mark.parametrize(
        "channels,length", [(16, 50), (32, 50), (64, 50), (96, 50), (1, 50), (7, 3), (33, 20), (129, 77)]
    )
    def test_equals_per_channel_loop(self, channels, length):
        want = oracles.sinusoidal_encoding_loop(channels, length)
        assert sinusoidal_encoding(channels, length).tobytes() == want.tobytes()

    def test_first_channel_is_sine_of_position(self):
        enc = sinusoidal_encoding(4, 6)
        np.testing.assert_allclose(enc[0], np.sin(np.arange(6)), atol=1e-6)
        np.testing.assert_allclose(enc[1], np.cos(np.arange(6)), atol=1e-6)


class TestScaledAttend:
    def test_hand_dot_product(self):
        d = 9
        q = np.ones((1, d, 1), dtype=np.float32)
        kv = np.concatenate([np.ones((d, 1)), 2 * np.ones((d, 1))], axis=1).astype(np.float32)
        ctx, sim = scaled_attend(q, kv)
        np.testing.assert_allclose(sim[0, 0], [3.0, 6.0], atol=1e-6)
        np.testing.assert_allclose(ctx[0, :, 0], 3.0 * kv[:, 0] + 6.0 * kv[:, 1], atol=1e-5)

    def test_normalize_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((2, 4, 5)).astype(np.float32)
        kv = rng.standard_normal((4, 3)).astype(np.float32)
        _, sim = scaled_attend(q, kv, normalize=True)
        np.testing.assert_allclose(sim.sum(axis=2), 1.0, atol=1e-5)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            scaled_attend(np.zeros((1, 3, 2), dtype=np.float32), np.zeros((4, 2), dtype=np.float32))

    def test_similarity_and_context_formed_in_float64(self):
        """Query (a, -b, a) against the key (a, 2, a), a = 1 + 2^-12 and
        b = 1 + 2^-11: only a float64 dot product gives the exact 2^-23
        (then / sqrt(3)), and the context scales the value by that float64
        similarity before it rounds."""
        a, b = 1 + 2.0**-12, 1 + 2.0**-11
        q = np.float32([a, -b, a]).reshape(1, 3, 1)
        kv = np.float32([a, 2.0, a]).reshape(3, 1)
        ctx, sim = scaled_attend(q, kv)
        s = 2.0**-23 / math.sqrt(3.0)
        assert sim.ravel().tolist() == [np.float32(s)]
        assert ctx.ravel().tolist() == [np.float32(v * s) for v in kv.ravel().tolist()]

    def test_softmax_at_extreme_similarities(self):
        """Similarities near +-1e4 overflow exp unless each row is shifted
        by its maximum first."""
        q = np.full((2, 4, 6), 100.0, dtype=np.float32)
        kv = np.tile(np.float32([50.0, -50.0, 49.9, 0.0, -25.0]), (4, 1))  # 1e4, -1e4, 9980, 0, -5e3
        with np.errstate(all="ignore"):
            ctx, sim = scaled_attend(q, kv, normalize=True)
        assert np.isfinite(sim).all() and np.isfinite(ctx).all()
        np.testing.assert_allclose(sim.astype(np.float64).sum(axis=2), 1.0, atol=1e-6)


class TestTmdfFuse:
    def test_zero_text_zero_ape_annihilates(self):
        rng = np.random.default_rng(5)
        p = rand_tmdf(rng, 4, 3, 3, 8)
        p = type(p)(
            w_img=p.w_img, w_radar=p.w_radar, eca=p.eca, deform=p.deform, lpe=p.lpe,
            w_text=p.w_text, w_text_bias=np.zeros(4, dtype=np.float32),
            ape=np.zeros((4, 8), dtype=np.float32),
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

    @pytest.mark.parametrize("normalize", [False, True])
    def test_read_only_inputs_give_the_out_of_place_result(self, normalize):
        """The sums run in place on the stage's own conv outputs, never on
        the inputs or the positional grid, and match the old glue."""
        rng = np.random.default_rng(310)
        c, h, w, length = 4, 6, 5, 9
        p = rand_tmdf(rng, c, h, w, length)
        f_img = rng.standard_normal((2, c, h, w)).astype(np.float32)
        f_radar = rng.standard_normal((2, c, h, w)).astype(np.float32)
        f_text = rng.standard_normal((c, length)).astype(np.float32)
        lpe = p.lpe.copy()
        p.lpe.flags.writeable = False
        frozen = read_only(f_img, f_radar, f_text)
        got = tmdf_fuse(*frozen, p, normalize=normalize)
        want = oracles.tmdf_fuse_tokens(f_img, f_radar, f_text, p, normalize=normalize)
        assert all(np.array_equal(a, b) for a, b in zip(frozen, (f_img, f_radar, f_text)))
        assert np.array_equal(p.lpe, lpe)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize(
        "c,side,length",
        # The four stages of a 64 forward (text_len 50 pools to 24 slots),
        # shorter texts pooling to 3 and 1, and stage 0 of a 640 forward.
        [(16, 16, 50), (32, 8, 50), (64, 4, 50), (96, 2, 50), (16, 16, 7), (32, 8, 3), (16, 160, 50)],
    )
    def test_equals_token_major_attention(self, c, side, length, n, normalize):
        """Attending on the channel-major query map gives the bits of the
        old glue: flatten to (N, H*W, C), attend per position, unflatten."""
        rng = np.random.default_rng(c + side + n + length)
        p = rand_tmdf(rng, c, side, side, length, offset_scale=0.3, scale=0.5)
        f_img, f_radar = rng.standard_normal((2, n, c, side, side)).astype(np.float32)
        f_text = rng.standard_normal((c, length)).astype(np.float32)
        got = tmdf_fuse(f_img, f_radar, f_text, p, normalize=normalize)
        want = oracles.tmdf_fuse_tokens(f_img, f_radar, f_text, p, normalize=normalize)
        assert got.tobytes() == want.tobytes()

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
            w_text=p.w_text, w_text_bias=p.w_text_bias, ape=p.ape,
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

    @pytest.mark.parametrize(
        "field,kernel",
        [
            ("w_img", (8, 4, 1, 1)),
            ("w_radar", (8, 4, 1, 1)),
            ("deform.main", (8, 4, 3, 3)),
            ("deform.offset_conv", (18, 8, 3, 3)),
        ],
    )
    def test_conv_widths_checked_against_lpe(self, field, kernel):
        """An lpe of (1, 4, 8, 8) fixes C = 4: a conv that emits 8 channels,
        or an offset conv that takes 8, is refused when the bundle is built,
        with ShapeError naming the field."""
        p = rand_tmdf(np.random.default_rng(14), 4, 8, 8, 6)
        conv = ConvParams(np.ones(kernel, dtype=np.float32), padding=kernel[2] // 2)
        parts = {"w_img": p.w_img, "w_radar": p.w_radar, "deform": p.deform}
        if field.startswith("deform."):
            parts["deform"] = dataclasses.replace(p.deform, **{field.split(".")[1]: conv})
        else:
            parts[field] = conv
        with pytest.raises(ShapeError, match=f"^{field} maps"):
            dataclasses.replace(p, **parts)

    def test_eight_channel_convs_refused_before_any_conv_runs(self):
        """w_img, w_radar and deform.main of an 8-channel stage with the
        arrays of a 4-channel one: refused at construction, not by a
        broadcast error after three convs."""
        rng = np.random.default_rng(15)
        p, wide = rand_tmdf(rng, 4, 8, 8, 6), rand_tmdf(rng, 8, 8, 8, 6)
        with pytest.raises(ShapeError, match="^w_img maps 8 to 8 channels, lpe has 4$"):
            dataclasses.replace(p, w_img=wide.w_img, w_radar=wide.w_radar, deform=wide.deform)

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
        sim = (q @ pooled) / math.sqrt(c)
        ctx = sim @ (v_scale * pooled).T
        out[b] = ctx.T.reshape(c, h, w)
    return out
