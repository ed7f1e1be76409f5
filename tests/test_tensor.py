import ctypes
import math
import os
import select
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmvg import tensor
from nmvg.encoders import TextEncoderParams, TokenSequence
from nmvg.fusion import DeformParams, EcaParams, TmdfParams
from nmvg.heads import BinaryMask
from nmvg.metrics import EnergyTrace
from nmvg.tensor import (
    BNParams,
    ConvParams,
    ShapeError,
    _as_real,
    _sigmoid,
    activation,
    batchnorm_inference,
    conv2d,
    global_avg_pool,
    maxpool1d,
    sobel,
    upsample,
)
from oracles import (
    bn_expr,
    bn_ref,
    conv2d_ref,
    conv_steps,
    gap_ref,
    maxpool1d_ref,
    read_only,
    sigmoid_ref,
    sigmoid_where,
    silu_ref,
    sobel_ref,
    upsample_bilinear_corners,
    upsample_bilinear_ref,
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

    @pytest.mark.parametrize("groups", [1, 4], ids=["dense", "depthwise"])
    def test_empty_batch_rejected(self, groups):
        """N = 0 would otherwise reach the tile sizing, which divides by N."""
        p = ConvParams(kernel=np.ones((4, 4 // groups, 3, 3), dtype=np.float32), padding=1, groups=groups)
        with pytest.raises(ShapeError, match="empty batch"):
            conv2d(np.ones((0, 4, 8, 8), dtype=np.float32), p)

    def test_groups_must_divide_out_channels(self):
        with pytest.raises(ShapeError):
            ConvParams(kernel=np.ones((3, 1, 1, 1), dtype=np.float32), groups=2)

    @pytest.mark.parametrize(
        "field,value", [("stride", 1.5), ("padding", True), ("groups", 1.0), ("stride", "2"), ("padding", None)]
    )
    def test_non_integer_geometry_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ConvParams(np.ones((2, 1, 3, 3), dtype=np.float32), **{field: value})

    def test_numpy_integer_geometry_stored_as_int(self):
        p = ConvParams(np.ones((2, 1, 3, 3), dtype=np.float32), stride=np.int64(2), padding=np.uint8(1), groups=np.int32(2))
        assert (p.stride, p.padding, p.groups) == (2, 1, 2)
        assert {type(v) for v in (p.stride, p.padding, p.groups)} == {int}

    @pytest.mark.parametrize("groups", [1, 3], ids=["dense", "depthwise"])
    def test_sums_in_float64_and_rounds_once(self, groups):
        """Inputs (a, -b, a) times weights (a, 2, a) with a = 1 + 2^-12 and
        b = 1 + 2^-11: a*a = b + 2^-24 needs 25 bits, so the exact sum
        2^-23 comes only from float64 products and sums rounded once; in
        float32, in any order and with or without FMA, it is 0 or 2^-24.
        Dense: three input channels of a 1x1 conv (one GEMM entry);
        depthwise: the taps of a 1x3 kernel."""
        a, b = 1 + 2.0**-12, 1 + 2.0**-11
        x, w = np.float32([a, -b, a]), np.float32([a, 2.0, a])
        if groups == 1:
            x, kernel = x.reshape(1, 3, 1, 1), w.reshape(1, 3, 1, 1)
        else:
            x, kernel = np.tile(x, (1, 3, 1, 1)), np.tile(w, (3, 1, 1, 1))
        out = conv2d(x, ConvParams(kernel, groups=groups))
        assert out.ravel().tolist() == [2.0**-23] * kernel.shape[0]

    def test_output_dtype_float32(self):
        p = ConvParams(kernel=np.ones((1, 1, 1, 1), dtype=np.float32))
        assert conv2d(np.ones((1, 1, 2, 2), dtype=np.float32), p).dtype == np.float32


def _ragged_tile(n, cin, cout, groups, k, stride, ho, wo):
    """A ``_TILE`` that splits a conv into blocks of r output rows, r >= 2 not
    dividing ho, so the last block is ragged.  Depthwise blocks hold one
    channel (accumulator, tap product and phase planes per row), or two
    channels of a one-row map; dense blocks are sized by the im2col depth
    plus C_out and then balanced to ceil(ho / blocks) rows, so r is the
    first balanced block size that does not divide ho."""
    if groups == cin:
        r = next(r for r in range(2, ho + 2) if ho % r)
        wq = wo + (k - 1) // stride
        return r * n * wq * (2 * (cout // cin) + stride**2)
    r = next(r for r in range(2, ho) if ho % r and r == -(-ho // -(-ho // r)))
    return r * n * (cin * k * k + cout) * wo


class TestConvTiles:
    """Tiling is invisible: small tiles match the loop oracle, and equal the
    single-tile result bit for bit."""

    # (batch, C_in, H, W, C_out, groups, k, stride, padding)
    @pytest.mark.parametrize(
        "n,cin,h,w,cout,groups,k,stride,padding",
        [
            (2, 3, 7, 6, 4, 1, 3, 1, 1),  # batch 2
            (2, 4, 13, 9, 3, 1, 3, 2, 1),  # stride 2
            (1, 4, 9, 8, 6, 2, 3, 1, 1),  # groups 2
            (2, 3, 9, 9, 4, 1, 5, 1, 2),  # 5x5
            (2, 5, 8, 7, 10, 5, 3, 1, 1),  # depthwise, channel multiplier 2
            (1, 7, 11, 11, 7, 7, 5, 2, 2),  # depthwise 5x5 stride 2
            (1, 3, 13, 9, 3, 3, 3, 2, 1),  # depthwise stride 2
            (1, 3, 13, 10, 3, 3, 3, 3, 1),  # depthwise stride 3
            (1, 2, 14, 11, 2, 2, 5, 3, 2),  # depthwise 5x5 stride 3
            (1, 2, 11, 8, 5, 1, 3, 3, 2),  # dense stride 3, padding > k // 2
            (1, 3, 9, 8, 3, 3, 3, 1, 0),  # depthwise 3x3 unpadded: flat tail
            (1, 2, 11, 9, 2, 2, 5, 1, 0),  # depthwise 5x5 unpadded
            (1, 2, 11, 7, 3, 1, 5, 1, 0),  # dense 5x5 unpadded
            (1, 3, 7, 7, 3, 3, 3, 1, 3),  # depthwise, padding 3 > k // 2
            (1, 5, 1, 9, 5, 5, 3, 1, 1),  # depthwise, one-row map
            (1, 5, 1, 7, 10, 5, 3, 2, 1),  # depthwise multiplier 2, one row, stride 2
            (1, 2, 9, 1, 3, 1, 3, 1, 1),  # dense, one-column map
            (2, 3, 9, 7, 6, 3, 3, 2, 1),  # batch 2, depthwise multiplier 2
            (2, 4, 11, 7, 6, 2, 3, 2, 2),  # batch 2, grouped dense, padding 2
            (1, 3, 9, 8, 3, 3, 1, 2, 0),  # depthwise 1x1 stride 2
            (1, 3, 11, 8, 4, 1, 1, 2, 1),  # dense 1x1 stride 2, padded
            (1, 3, 7, 5, 4, 1, 1, 1, 0),  # dense 1x1: planes are a view of x
            (1, 2, 40, 5, 3, 1, 3, 1, 1),  # dense, tall and narrow: many tiles
            (1, 2, 21, 41, 3, 1, 3, 2, 1),  # dense stride 2, many tiles
        ],
    )
    def test_small_tiles_match_loop_oracle(
        self, monkeypatch, cores, n, cin, h, w, cout, groups, k, stride, padding
    ):
        rng = np.random.default_rng(n * 1000 + cin * 100 + groups * 10 + k)
        x = rng.standard_normal((n, cin, h, w)).astype(np.float32)
        kernel = rng.standard_normal((cout, cin // groups, k, k)).astype(np.float32)
        bias = rng.standard_normal(cout).astype(np.float32)
        p = ConvParams(kernel=kernel, bias=bias, stride=stride, padding=padding, groups=groups)
        ref = conv2d_ref(x, kernel, bias, stride, padding, groups)
        whole = conv2d(x, p)
        _, _, ho, wo = whole.shape
        tiles = []  # channels x output rows of each tile
        planes, contract = tensor._planes, tensor._contract_rows

        def planes_spy(xb, conv, r0, r1, buf):
            if groups == cin:
                tiles.append(xb.shape[1] * (r1 - r0))
            return planes(xb, conv, r0, r1, buf)

        def contract_spy(shape, conv, make_fill, *rest):
            def make_fill_spy(rows):
                fill = make_fill(rows)

                def fill_spy(cols, r0, r1):
                    tiles.append(cin * (r1 - r0))
                    fill(cols, r0, r1)

                return fill_spy

            contract(shape, conv, make_fill_spy, *rest)

        def no_pad(*args, **kwargs):
            raise AssertionError("conv2d padded its whole input")

        monkeypatch.setattr(tensor, "_planes", planes_spy)
        monkeypatch.setattr(tensor, "_contract_rows", contract_spy)
        monkeypatch.setattr(tensor, "_TILE", _ragged_tile(n, cin, cout, groups, k, stride, ho, wo))
        monkeypatch.setattr(np, "pad", no_pad)
        cores(1)
        tiled = conv2d(x, p)
        assert len(tiles) >= 3 and tiles[-1] < tiles[0]  # the last tile is ragged
        serial, tiles[:] = list(tiles), []
        cores(3)
        pooled = conv2d(x, p)
        monkeypatch.undo()
        assert sorted(tiles) == sorted(serial)  # the pool runs the same tiles
        np.testing.assert_allclose(tiled, ref, atol=1e-5)
        assert np.array_equal(tiled, whole)
        assert np.array_equal(pooled, whole)

    @pytest.mark.parametrize(
        "shape,cout,starts",
        [
            ((1, 16, 80, 80), 32, [0, 40]),  # 640 radar pointwise: 40 + 40, not 68 + 12
            ((1, 64, 160, 160), 64, list(range(0, 160, 12))),  # 12 rows fit, 14 blocks
            ((1, 64, 80, 80), 64, [0, 20, 40, 60]),  # 25 rows fit: four blocks of 20
        ],
    )
    def test_dense_row_blocks_are_balanced(self, monkeypatch, shape, cout, starts):
        """Dense row blocks hold ceil(H_out / blocks) rows."""
        blocks = []
        map_tiles = tensor._map_tiles

        def spy(tiles, make_tile):
            blocks.append(tiles)
            map_tiles(tiles, make_tile)

        monkeypatch.setattr(tensor, "_map_tiles", spy)
        x = np.ones(shape, dtype=np.float32)
        conv2d(x, ConvParams(np.ones((cout, shape[1], 1, 1), dtype=np.float32)))
        assert blocks == [starts]

    def test_depthwise_channel_blocks_are_balanced(self, monkeypatch):
        """A 64-channel depthwise 3x3 at 40x40 fits 52 channels a block; its
        two blocks hold ceil(64 / 2) channels each, so two cores split 32 +
        32, not 52 + 12."""
        blocks = []
        map_tiles = tensor._map_tiles

        def spy(tiles, make_tile):
            blocks.append(tiles)
            map_tiles(tiles, make_tile)

        monkeypatch.setattr(tensor, "_map_tiles", spy)
        x = np.ones((1, 64, 40, 40), dtype=np.float32)
        conv2d(x, ConvParams(np.ones((64, 1, 3, 3), dtype=np.float32), padding=1, groups=64))
        assert blocks == [[(0, 0), (32, 0)]]

    def test_taps_of_padding_alone_sum_to_positive_zero(self):
        """With padding 3 a 3x3 kernel's corner outputs read only padding:
        each tap adds 0 * k, -0.0 for k < 0, to an accumulator that starts
        at +0.0, as the loop oracle's does."""
        x = np.ones((1, 2, 3, 3), dtype=np.float32)
        kernel = -np.ones((2, 1, 3, 3), dtype=np.float32)
        out = conv2d(x, ConvParams(kernel, padding=3, groups=2))
        ref = conv2d_ref(x, kernel, padding=3, groups=2).astype(np.float32)
        assert out[0, 0, 0, 0] == 0.0
        assert np.array_equal(np.signbit(out), np.signbit(ref))

    def test_one_element_tiles_equal_whole(self, monkeypatch):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 4, 6, 5)).astype(np.float32)
        dense = ConvParams(rng.standard_normal((4, 4, 3, 3)).astype(np.float32), padding=1)
        dw = ConvParams(rng.standard_normal((4, 1, 3, 3)).astype(np.float32), padding=1, groups=4)
        whole = [conv2d(x, dense), conv2d(x, dw)]
        monkeypatch.setattr(tensor, "_TILE", 1)
        assert np.array_equal(conv2d(x, dense), whole[0])
        assert np.array_equal(conv2d(x, dw), whole[1])

    def test_transient_memory_stays_near_output_size(self):
        """A 64->64 3x3 conv at 160x160 (the largest FPN smooth at 640)
        never holds a whole-map float64 temporary."""
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 64, 160, 160)).astype(np.float32)
        p = ConvParams(
            rng.standard_normal((64, 64, 3, 3)).astype(np.float32),
            rng.standard_normal(64).astype(np.float32),
            padding=1,
        )
        tracemalloc.start()
        try:
            out = conv2d(x, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * out.nbytes

    def test_wide_pointwise_result_buffer_stays_within_tile(self, cores):
        """The 640 image stem's pointwise 3->16 conv at 320x320: row blocks
        are sized by C_out as well as the im2col depth, so each thread's
        im2col and GEMM result buffers hold at most about ``_TILE`` float64
        each."""
        rng = np.random.default_rng(12)
        x = rng.standard_normal((1, 3, 320, 320)).astype(np.float32)
        p = ConvParams(rng.standard_normal((16, 3, 1, 1)).astype(np.float32))
        cores(2)
        tracemalloc.start()
        try:
            out = conv2d(x, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 2 * 2 * 8 * tensor._TILE


def _thread_spy(monkeypatch):
    """Record, for every ``_map_tiles`` call, its tiles, the threads that
    built each tile thread's buffers, the threads that ran its tiles and
    every tile run, in the order run.

    Each tile thread holds its first tile until every tile thread holds
    one, so on a busy host no thread can take every tile (with at least one
    tile per thread, every thread then runs a tile)."""
    calls = []
    map_tiles = tensor._map_tiles

    def spy(tiles, make_tile):
        made, ran, barriers, done = [], set(), {}, []

        def make_tile_spy():
            made.append(threading.get_ident())
            tile = make_tile()
            held = []

            def tile_spy(t):
                ran.add(threading.get_ident())
                done.append(t)  # list.append is atomic under the GIL
                if not held:
                    held.append(t)
                    # Every tile thread is made before any tile runs, and
                    # setdefault is atomic, so all threads share one barrier.
                    barriers.setdefault(0, threading.Barrier(len(made), timeout=60)).wait()
                tile(t)

            return tile_spy

        calls.append((list(tiles), made, ran, done))
        map_tiles(tiles, make_tile_spy)

    monkeypatch.setattr(tensor, "_map_tiles", spy)
    return calls


class TestCorePool:
    """Each conv's tiles run on one thread per core, the calling thread one
    of them; the split changes no output bit."""

    # frame640 shapes: (input, kernel, stride, padding, groups)
    @pytest.mark.parametrize(
        "shape,kernel,stride,padding,groups",
        [
            ((1, 64, 160, 160), (64, 64, 1, 1), 1, 0, 1),  # dense 1x1
            ((1, 64, 160, 160), (64, 64, 3, 3), 1, 1, 1),  # dense 3x3
            ((1, 64, 160, 160), (64, 1, 3, 3), 1, 1, 64),  # depthwise 3x3
            ((1, 16, 320, 320), (16, 1, 3, 3), 2, 1, 16),  # depthwise 3x3 stride 2
            ((1, 64, 160, 160), (64, 1, 5, 5), 1, 2, 64),  # depthwise 5x5
            ((1, 64, 160, 160), (64, 1, 1, 1), 1, 0, 64),  # depthwise 1x1
        ],
        ids=["dense1x1", "dense3x3", "dw3x3s1", "dw3x3s2", "dw5x5", "dw1x1"],
    )
    def test_frame640_convs_equal_across_core_counts(
        self, monkeypatch, cores, shape, kernel, stride, padding, groups
    ):
        rng = np.random.default_rng(sum(shape) + sum(kernel))
        x = rng.standard_normal(shape).astype(np.float32)
        p = ConvParams(
            rng.standard_normal(kernel).astype(np.float32),
            rng.standard_normal(kernel[0]).astype(np.float32),
            stride,
            padding,
            groups,
        )
        calls = _thread_spy(monkeypatch)
        outs = []
        for k in (1, 2, 3):
            cores(k)
            outs.append(conv2d(x, p))
        main = threading.get_ident()
        (t1, made1, ran1, _), (t2, made2, ran2, _), (t3, made3, ran3, _) = calls
        assert t1 == t2 == t3 and len(t1) >= 3
        assert made1 == [main] and made2 == [main] * 2 and made3 == [main] * 3
        assert ran1 == {main} and len(ran2) == 2 and len(ran3) == 3 and main in ran2 & ran3
        # Each tile ran exactly once: equal bits cannot show a tile run twice.
        assert all(Counter(done) == Counter(tiles) for tiles, _, _, done in calls)
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])

    @pytest.mark.parametrize("k", [1, 2])
    def test_batch_frames_get_their_solo_bits(self, cores, k):
        """A dense 3x3 64->64 conv (GEMM depth 576) of a batch of three, four
        6-row blocks of one GEMM each, gives every frame the bits it gets
        alone, in two 12-row blocks."""
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 64, 24, 20)).astype(np.float32)
        p = ConvParams(
            rng.standard_normal((64, 64, 3, 3)).astype(np.float32),
            rng.standard_normal(64).astype(np.float32),
            padding=1,
        )
        cores(k)
        batch = conv2d(x, p)
        for i in range(3):
            assert batch[i].tobytes() == conv2d(x[i : i + 1], p)[0].tobytes()

    def test_shared_queue_hands_out_each_tile_once(self, cores):
        """Four threads on a host with fewer cores, switching every few
        microseconds, pull 3000 tiles from the one queue: each runs once."""
        cores(4)
        ran = []

        def make_tile():
            return ran.append

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            tensor._map_tiles(list(range(3000)), make_tile)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran) == list(range(3000))

    def test_one_tile_runs_inline(self, monkeypatch, cores):
        cores(3)
        calls = _thread_spy(monkeypatch)
        x = np.ones((1, 2, 4, 4), dtype=np.float32)
        conv2d(x, ConvParams(np.ones((2, 2, 3, 3), dtype=np.float32), padding=1))
        assert calls == [([0], [threading.get_ident()], {threading.get_ident()}, [0])]

    @pytest.mark.parametrize("failing", [0, 1])
    def test_error_raised_once_every_chunk_finished(self, cores, failing):
        """Twelve tiles on three threads: tiles 0-2 start, one per
        thread.  Then the tile on the calling thread (failing 0) or on a
        pool thread (failing 1) raises KeyError at once, another raises
        IndexError after 0.05 s and the third returns after 0.1 s.  The
        KeyError is raised, once the last tile has returned, and no tile
        starts after the failure."""
        cores(3)
        main = threading.get_ident()
        started, done, roles = [], [], []
        barrier = threading.Barrier(3, timeout=30)
        lock = threading.Lock()

        def make_tile():
            def tile(t):
                started.append(t)
                barrier.wait()  # all three threads hold a tile
                with lock:
                    key = (threading.get_ident() == main) == (failing == 0) and "key" not in roles
                    role = "key" if key else ["index", "finish"][len(set(roles) - {"key"})]
                    roles.append(role)
                if role == "key":
                    raise KeyError(t)
                time.sleep(0.05 if role == "index" else 0.1)
                if role == "index":
                    raise IndexError(t)
                done.append(t)

            return tile

        with pytest.raises(KeyError):
            tensor._map_tiles(list(range(12)), make_tile)
        assert sorted(started) == [0, 1, 2] and sorted(roles) == ["finish", "index", "key"]
        assert len(done) == 1

    def test_pool_chunks_run_in_the_callers_error_state(self, monkeypatch, cores):
        """A dense 1x1 conv on two threads whose rows 4-7 overflow when
        rounded to float32.  np.errstate is per context, so a pool thread
        that takes them must run in a copy of the caller's (that every tile
        thread does is checked with the buffer size below)."""
        cores(2)
        monkeypatch.setattr(tensor, "_TILE", 8)  # tiles of one or two rows
        x = np.ones((1, 1, 8, 4), dtype=np.float32)
        p = ConvParams(np.full((1, 1, 1, 1), 10.0, dtype=np.float32))
        with np.errstate(over="raise"):
            assert np.array_equal(conv2d(x, p), np.full(x.shape, 10.0, dtype=np.float32))
            x[:, :, 4:] = 3e38
            with pytest.raises(FloatingPointError):
                conv2d(x, p)

    @pytest.mark.parametrize("k", [1, 2])
    def test_tiles_leave_the_callers_buffer_size_and_error_state(self, monkeypatch, cores, k):
        """Every tile thread runs with ufunc buffers of ``_BUFSIZE`` elements
        and the caller's error state, and the caller's buffer size and error
        state are the same after the conv, also after a tile raises."""
        cores(k)
        monkeypatch.setattr(tensor, "_TILE", 8)  # tiles of one or two rows
        x = np.ones((1, 1, 8, 4), dtype=np.float32)
        p = ConvParams(np.full((1, 1, 1, 1), 10.0, dtype=np.float32))
        barrier = threading.Barrier(k, timeout=30)
        seen = {}

        def hook(y, cs, rs):
            if threading.get_ident() not in seen:
                seen[threading.get_ident()] = (np.getbufsize(), np.geterr()["over"])
                barrier.wait()  # each thread holds its first tile until all have one

        with np.errstate(over="raise", under="warn"):
            np.setbufsize(4096)
            want = (np.geterr(), np.getbufsize())
            conv2d(x, p, hook=hook)
            assert len(seen) == k and set(seen.values()) == {(tensor._BUFSIZE, "raise")}
            assert (np.geterr(), np.getbufsize()) == want
            x[:, :, 4:] = 3e38
            with pytest.raises(FloatingPointError):
                conv2d(x, p)
            assert (np.geterr(), np.getbufsize()) == want

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_a_working_pool(self, monkeypatch, cores):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((1, 4, 12, 9)).astype(np.float32)
        p = ConvParams(rng.standard_normal((4, 4, 3, 3)).astype(np.float32), padding=1)
        monkeypatch.setattr(tensor, "_TILE", 4 * 9 * 9 * 2)
        cores(2)
        want = conv2d(x, p)  # the pool now has a running thread
        parent_pool = tensor._POOL
        read_end, write_end = os.pipe()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            ok = False
            try:
                ok = tensor._POOL is not parent_pool and np.array_equal(conv2d(x, p), want)
            finally:
                os.write(write_end, b"1" if ok else b"0")
                os._exit(0)
        os.close(write_end)
        try:
            ready, _, _ = select.select([read_end], [], [], 60)
            if not ready:
                os.kill(pid, 9)
            assert ready, "the forked child hung on the parent's pool"
            assert os.read(read_end, 1) == b"1"
        finally:
            os.close(read_end)
            os.waitpid(pid, 0)

    def test_import_leaves_the_pool_unmade(self):
        src = str(Path(tensor.__file__).parents[1])
        code = "import sys, nmvg; print('concurrent.futures' in sys.modules, nmvg.tensor._POOL)"
        env = dict(os.environ, PYTHONPATH=src)
        args = [sys.executable, "-c", code]
        done = subprocess.run(args, env=env, capture_output=True, text=True, check=True, timeout=60)
        assert done.stdout.split() == ["False", "None"]

    def test_pool_made_by_the_first_multi_chunk_conv(self, monkeypatch):
        monkeypatch.setattr(tensor, "_CORES", 2)
        monkeypatch.setattr(tensor, "_POOL", None)
        x = np.ones((1, 2, 4, 4), dtype=np.float32)
        p = ConvParams(np.ones((2, 2, 3, 3), dtype=np.float32), padding=1)
        conv2d(x, p)
        assert tensor._POOL is None  # one tile
        monkeypatch.setattr(tensor, "_TILE", 2 * 9 * 4)
        want = conv2d_ref(x, p.kernel, padding=1)
        got = conv2d(x, p)
        pool = tensor._POOL
        try:
            assert pool is not None and pool is tensor._pool()
            np.testing.assert_allclose(got, want, atol=1e-5)
        finally:
            if pool is not None:
                pool.shutdown()

    def test_threads_racing_to_make_the_pool_share_one(self, monkeypatch):
        monkeypatch.setattr(tensor, "_CORES", 2)
        monkeypatch.setattr(tensor, "_POOL", None)
        barrier = threading.Barrier(8)
        pools = []

        def make():
            barrier.wait(timeout=30)
            pools.append(tensor._pool())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=make) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
            for pool in set(pools):
                pool.shutdown()
        assert not any(t.is_alive() for t in threads)
        assert len(pools) == 8 and len(set(pools)) == 1

    @pytest.mark.skipif(tensor._CORES < 2, reason="needs two cores")
    def test_openblas_runs_on_one_thread(self):
        libs = Path(np.__file__).parent.parent / "numpy.libs"
        getters = (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        )
        for lib in libs.glob("*openblas*"):
            handle = ctypes.CDLL(str(lib))
            for fn in getters:
                if hasattr(handle, fn):
                    assert getattr(handle, fn)() == 1
                    return
        pytest.skip("no OpenBLAS thread-count getter in numpy's bundled libraries")

    def test_blas_library_that_fails_to_load_is_skipped(self, monkeypatch):
        def fail(path):
            raise OSError(f"{path}: cannot open shared object file")

        monkeypatch.setattr(tensor.ctypes, "CDLL", fail)
        tensor._pin_blas()


class TestAsReal:
    @pytest.mark.parametrize("value", [0, -3, 0.5, np.float32(0.25), np.int64(7), 5e-324])
    def test_finite_reals_stored_as_float(self, value):
        got = _as_real("x", value)
        assert type(got) is float and got == value

    @pytest.mark.parametrize("value", ["0.5", True, np.True_, None, np.array(0.5), 1j])
    def test_non_real_rejected(self, value):
        with pytest.raises(ValueError, match="x must be a real number"):
            _as_real("x", value)

    @pytest.mark.parametrize("value", [math.nan, -math.inf, np.float32(np.inf), 10**400])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="x must be finite"):
            _as_real("x", value)


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

    def test_nan_variance_rejected(self):
        """A NaN variance would fold into a kernel without a word."""
        with pytest.raises(ValueError, match="running_var contains negative or NaN entries"):
            BNParams(
                gamma=np.ones(2, dtype=np.float32),
                beta=np.zeros(2, dtype=np.float32),
                running_mean=np.zeros(2, dtype=np.float32),
                running_var=np.array([1.0, np.nan], dtype=np.float32),
            )

    @pytest.mark.parametrize("field", ["gamma", "beta", "running_mean", "running_var"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_statistic_rejected(self, field, bad):
        """Only a NaN running_var was refused; the rest folded into a NaN kernel."""
        vectors = {name: np.ones(2, dtype=np.float32) for name in ("gamma", "beta", "running_mean", "running_var")}
        vectors[field][1] = bad
        nan_var = field == "running_var" and np.isnan(bad)
        message = "running_var contains negative or NaN" if nan_var else "running_mean and running_var must be finite"
        with pytest.raises(ValueError, match=message):
            BNParams(**vectors)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, "1e-5", True])
    def test_non_real_or_non_finite_epsilon_rejected(self, bad):
        """epsilon=nan passed the `epsilon < 0` check."""
        ones = np.ones(1, dtype=np.float32)
        with pytest.raises(ValueError, match="epsilon must be"):
            BNParams(gamma=ones, beta=ones, running_mean=ones, running_var=ones, epsilon=bad)

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


# Signed zeros, the smallest float32 subnormal and a larger one, where
# exp(-|x|) leaves the normal range (88.7) and flushes to zero (104).
_SPECIAL = [0.0, 1e-45, 1e-40, 1.0, 88.7, 104.0, 1e30]
_SPECIAL_F32 = np.array(_SPECIAL + [-v for v in _SPECIAL], dtype=np.float32)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint32)


class TestElementwiseBits:
    """Sigmoid, SiLU and batchnorm equal their out-of-place numpy forms bit
    for bit, signed zeros included."""

    def test_sigmoid(self):
        x = np.concatenate([_SPECIAL_F32, np.float32([np.inf, -np.inf])]).reshape(1, 1, 2, -1)
        got = activation(x, "sigmoid")
        assert got.dtype == np.float32
        assert np.array_equal(_bits(got), _bits(sigmoid_where(x)))

    @pytest.mark.parametrize("v", [0.0, -0.0, 5e-324, 1.0, -1.0, 709.8, -745.2, np.inf, -np.inf])
    def test_sigmoid_0d_float64(self, v):
        x = np.array(v, dtype=np.float64)
        got = _sigmoid(x)
        assert np.asarray(got).dtype == np.float64
        assert np.float64(got).tobytes() == np.float64(sigmoid_where(x)).tobytes()

    def test_silu(self):
        normal = 8 * np.random.default_rng(15).standard_normal(50).astype(np.float32)
        x = np.concatenate([_SPECIAL_F32, normal]).reshape(1, 2, 1, -1)
        assert np.array_equal(_bits(activation(x, "silu")), _bits(x * sigmoid_where(x)))

    def test_batchnorm(self):
        normal = np.random.default_rng(14).standard_normal(50).astype(np.float32)
        x = np.tile(np.concatenate([_SPECIAL_F32, normal]), (1, 4, 1, 1))
        # Means hit the inputs exactly (signed-zero differences), gammas of
        # both signs, betas of +0 and -0.
        g = np.float32([1.5, -0.75, 2.0, -1.0])
        b = np.float32([0.0, -0.0, 0.25, -0.0])
        m = np.float32([0.0, 1.0, -0.0, 88.7])
        v = np.float32([1.0, 0.5, 3.0, 0.0])
        p = BNParams(gamma=g, beta=b, running_mean=m, running_var=v, epsilon=1e-5)
        got = batchnorm_inference(x, p)
        assert np.array_equal(_bits(got), _bits(bn_expr(x, g, b, m, v, 1e-5)))



def _signed_bn(c, rng=None):
    """BN over c channels with gammas of both signs, betas of +0 and -0,
    means of 0 and -0 and a zero variance; random stats when rng is given."""
    if rng is not None:
        return BNParams(
            gamma=rng.uniform(-1.5, 1.5, c).astype(np.float32),
            beta=rng.standard_normal(c).astype(np.float32),
            running_mean=rng.standard_normal(c).astype(np.float32),
            running_var=rng.uniform(0.0, 2.0, c).astype(np.float32),
        )
    return BNParams(
        gamma=np.resize(np.float32([1.5, -0.75, 2.0, -1.0]), c),
        beta=np.resize(np.float32([0.0, -0.0, 0.25, -0.0]), c),
        running_mean=np.resize(np.float32([0.0, 1.0, -0.0, 88.7]), c),
        running_var=np.resize(np.float32([1.0, 0.5, 3.0, 0.0]), c),
        epsilon=1e-5,
    )


def _epilogues(bn):
    """BN alone, each activation alone and each behind BN."""
    kinds = ("relu", "silu", "sigmoid")
    return [(bn, None)] + [(None, k) for k in kinds] + [(bn, k) for k in kinds]


def _unfused(y, bn, act):
    if bn is not None:
        y = batchnorm_inference(y, bn)
    return y if act is None else activation(y, act)


class TestConvEpilogue:
    """conv2d(x, p, bn, act) finishes each tile in place and equals
    activation(batchnorm_inference(conv2d(x, p), bn), act) bit for bit."""

    # (batch, C_in, H, W, C_out, groups, k, stride, padding)
    @pytest.mark.parametrize(
        "n,cin,h,w,cout,groups,k,stride,padding",
        [
            (1, 3, 9, 8, 4, 1, 3, 1, 1),  # dense 3x3
            (2, 4, 11, 7, 6, 2, 3, 2, 1),  # grouped, batch 2, stride 2
            (1, 5, 8, 7, 5, 5, 3, 1, 1),  # depthwise 3x3
            (2, 3, 9, 7, 6, 3, 3, 2, 1),  # depthwise multiplier 2, batch 2, stride 2
            (1, 4, 10, 9, 4, 4, 5, 1, 2),  # depthwise 5x5
            (1, 4, 9, 8, 6, 1, 1, 1, 0),  # dense 1x1: planes are a view of x
            (2, 3, 9, 8, 3, 3, 1, 2, 0),  # depthwise 1x1 stride 2, batch 2
            (1, 3, 11, 9, 4, 1, 5, 2, 2),  # dense 5x5 stride 2
        ],
    )
    @pytest.mark.parametrize("tile", [None, 1, 37, 700])
    def test_equals_unfused(
        self, monkeypatch, cores, tile, n, cin, h, w, cout, groups, k, stride, padding
    ):
        rng = np.random.default_rng(n * 1000 + cin * 100 + groups * 10 + k)
        x = (3 * rng.standard_normal((n, cin, h, w))).astype(np.float32)
        p = ConvParams(
            rng.standard_normal((cout, cin // groups, k, k)).astype(np.float32),
            rng.standard_normal(cout).astype(np.float32),
            stride,
            padding,
            groups,
        )
        if tile is not None:
            monkeypatch.setattr(tensor, "_TILE", tile)
        epilogues = _epilogues(_signed_bn(cout, rng))
        for c in (1, 2, 3):
            cores(c)
            plain = conv2d(x, p)
            for bn, act in epilogues:
                want = _unfused(plain, bn, act)
                assert np.array_equal(_bits(conv2d(x, p, bn, act)), _bits(want)), (c, act)

    # frame640 shapes: (input, C_out, k, stride, groups); the kernel passes
    # its input through, so every tile slice holds _SPECIAL_F32 values.
    @pytest.mark.parametrize(
        "shape,cout,k,stride,groups",
        [
            ((1, 64, 160, 160), 64, 1, 1, 1),  # ENMoE gates, rec pw
            ((1, 64, 160, 160), 1, 1, 1, 1),  # rec conf projection
            ((1, 64, 160, 160), 64, 3, 1, 1),  # dense 3x3
            ((1, 64, 160, 160), 64, 3, 1, 64),  # rec dw, msrep conv3
            ((1, 16, 320, 320), 16, 3, 2, 16),  # separable down dw
            ((1, 64, 160, 160), 64, 5, 1, 64),  # ENMoE neighbour expert
            ((1, 64, 160, 160), 64, 1, 1, 64),  # ENMoE edge expert, msrep conv1
        ],
        ids=["dense1x1", "dense1x1to1", "dense3x3", "dw3x3s1", "dw3x3s2", "dw5x5", "dw1x1"],
    )
    def test_frame640_tile_slices_hold_special_values(self, shape, cout, k, stride, groups):
        c = shape[1]
        normal = 8 * np.random.default_rng(16).standard_normal(97).astype(np.float32)
        x = np.resize(np.concatenate([_SPECIAL_F32, normal]), shape)
        kernel = np.zeros((cout, c // groups, k, k), dtype=np.float32)
        for o in range(cout):
            kernel[o, 0 if groups > 1 else o, k // 2, k // 2] = 1.0
        p = ConvParams(kernel, stride=stride, padding=k // 2, groups=groups)
        plain = conv2d(x, p)
        assert np.isin(_SPECIAL_F32[1:], plain).all()  # the values reach the epilogue
        for bn, act in _epilogues(_signed_bn(cout)):
            got = conv2d(x, p, bn, act)
            assert np.array_equal(_bits(got), _bits(_unfused(plain, bn, act))), act

    @pytest.mark.parametrize("groups", [1, 3])
    def test_bad_epilogue_rejected_before_any_tile(self, monkeypatch, groups):
        def no_tiles(*args):
            raise AssertionError("a tile ran")

        monkeypatch.setattr(tensor, "_map_tiles", no_tiles)
        x = np.ones((1, 3, 6, 6), dtype=np.float32)
        p = ConvParams(np.ones((3, 3 // groups, 3, 3), dtype=np.float32), padding=1, groups=groups)
        with pytest.raises(ShapeError, match="batchnorm expects 4"):
            conv2d(x, p, _signed_bn(4), "relu")
        with pytest.raises(ValueError, match="unknown activation kind"):
            conv2d(x, p, _signed_bn(3), "tanh")
        with pytest.raises(ValueError, match="unknown activation kind"):
            conv2d(x, p, act="tanh")

    @pytest.mark.parametrize("groups", [1, 64])
    def test_epilogue_holds_no_whole_map_temporary(self, cores, groups):
        """With BN and SiLU a 640 conv peaks as high as without them: the
        epilogue works in the tile's own buffers.  The slack, a tenth of the
        output, covers the buffers of numpy's ufunc iterators (8192 elements
        per operand per call, 192 KB here)."""
        rng = np.random.default_rng(17)
        x = rng.standard_normal((1, 64, 160, 160)).astype(np.float32)
        kernel = rng.standard_normal((64, 64 // groups, 3, 3)).astype(np.float32)
        p = ConvParams(kernel, padding=1, groups=groups)
        bn = _signed_bn(64, rng)
        cores(2)
        peaks = []
        for args in ((), (bn, "silu")):
            tracemalloc.start()
            try:
                out = conv2d(x, p, *args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + out.nbytes // 10


class TestConvOut:
    """conv2d(..., out=x) writes a 1x1 conv over its own input, and a tile
    hook gets every finished tile once; both equal the out-of-place conv
    bit for bit."""

    @pytest.mark.parametrize("groups", [1, 6], ids=["dense", "depthwise"])
    @pytest.mark.parametrize("tile", [None, 1, 37, 700])
    def test_in_place_equals_out_of_place(self, monkeypatch, cores, tile, groups):
        rng = np.random.default_rng(20 + groups)
        p = ConvParams(
            rng.standard_normal((6, 6 // groups, 1, 1)).astype(np.float32),
            rng.standard_normal(6).astype(np.float32),
            groups=groups,
        )
        if tile is not None:
            monkeypatch.setattr(tensor, "_TILE", tile)
        for n in (1, 2):
            x = (3 * rng.standard_normal((n, 6, 9, 7))).astype(np.float32)
            for c in (1, 2, 3):
                cores(c)
                for bn, act in [(None, None)] + _epilogues(_signed_bn(6, rng)):
                    want = conv_steps(x, p, bn, act)
                    y = x.copy()
                    assert conv2d(y, p, bn, act, out=y) is y
                    assert np.array_equal(_bits(y), _bits(want)), (n, c, act)

    def test_out_receives_the_result(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        p = ConvParams(rng.standard_normal((4, 3, 3, 3)).astype(np.float32), padding=1)
        out = np.full((1, 4, 8, 8), np.nan, dtype=np.float32)
        assert conv2d(x, p, act="relu", out=out) is out
        assert np.array_equal(out, conv_steps(x, p, act="relu"))

    @pytest.mark.parametrize(
        "case",
        [
            "3x3 over its input",
            "1x1 into a shifted view of its input",
            "1x1 into another view of its input",
            "read-only out",
            "out of the wrong shape",
            "float64 out",
            "out and hook",
        ],
    )
    def test_bad_out_rejected_before_any_tile(self, monkeypatch, case):
        def no_tiles(*args):
            raise AssertionError("a tile ran")

        monkeypatch.setattr(tensor, "_map_tiles", no_tiles)
        rng = np.random.default_rng(22)
        big = rng.standard_normal((1, 4, 9, 6)).astype(np.float32)
        x = big[:, :, :8]
        one = ConvParams(rng.standard_normal((4, 4, 1, 1)).astype(np.float32))
        three = ConvParams(rng.standard_normal((4, 1, 3, 3)).astype(np.float32), padding=1, groups=4)
        p, out, hook = one, None, None
        if case == "3x3 over its input":
            p, out = three, x
        elif case == "1x1 into a shifted view of its input":
            out = big[:, :, 1:]
        elif case == "1x1 into another view of its input":
            out = x[...]
        elif case == "read-only out":
            (out,) = read_only(np.empty((1, 4, 8, 6), dtype=np.float32))
        elif case == "out of the wrong shape":
            out = np.empty((1, 4, 8, 5), dtype=np.float32)
        elif case == "float64 out":
            out = np.empty((1, 4, 8, 6))
        else:
            out, hook = np.empty((1, 4, 8, 6), dtype=np.float32), lambda y, cs, rs: None
        before = big.copy()
        with pytest.raises(ValueError):
            conv2d(x, p, out=out, hook=hook)
        assert np.array_equal(big, before)

    # (batch, C_in, H, W, C_out, groups, k, stride, padding)
    @pytest.mark.parametrize(
        "n,cin,h,w,cout,groups,k,stride,padding",
        [
            (1, 4, 9, 8, 4, 1, 1, 1, 0),  # dense 1x1, the ENMoE projection
            (2, 3, 9, 7, 5, 1, 3, 2, 1),  # dense 3x3 stride 2, batch 2
            (2, 3, 9, 7, 6, 3, 3, 1, 1),  # depthwise multiplier 2, batch 2
        ],
    )
    @pytest.mark.parametrize("tile", [None, 1, 37, 700])
    def test_hook_gets_every_output_element_once(
        self, monkeypatch, cores, tile, n, cin, h, w, cout, groups, k, stride, padding
    ):
        rng = np.random.default_rng(23 + groups + k)
        x = rng.standard_normal((n, cin, h, w)).astype(np.float32)
        p = ConvParams(
            rng.standard_normal((cout, cin // groups, k, k)).astype(np.float32),
            rng.standard_normal(cout).astype(np.float32),
            stride,
            padding,
            groups,
        )
        bn = _signed_bn(cout, rng)
        want = conv_steps(x, p, bn, "silu")
        if tile is not None:
            monkeypatch.setattr(tensor, "_TILE", tile)
        # Up to three tile threads, switching threads as often as the
        # interpreter allows: a tile handed over twice, or with the wrong
        # window, breaks the counts.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for c in (1, 2, 3):
                cores(c)
                got = np.full(want.shape, np.nan, dtype=np.float32)
                seen = np.zeros(want.shape, dtype=np.int64)

                def hook(y, cs, rs):
                    got[:, cs, rs] = y
                    seen[:, cs, rs] += 1

                assert conv2d(x, p, bn, "silu", hook=hook) is None
                assert (seen == 1).all()
                assert np.array_equal(_bits(got), _bits(want)), c
        finally:
            sys.setswitchinterval(interval)


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
        np.testing.assert_array_equal(upsample(x, 1), x)

    def test_bilinear_matches_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 3, 4, 5)).astype(np.float32)
        for factor in (2, 4):
            np.testing.assert_allclose(upsample(x, factor), upsample_bilinear_ref(x, factor), atol=1e-5)

    @pytest.mark.parametrize("factor", [2, 3, 4, 8])
    @pytest.mark.parametrize("n", [1, 4])
    def test_separable_bilinear_equals_four_corner_form(self, n, factor):
        """Three channels on a non-square 5x7 map, with magnitudes from 1e-30
        to 1e30 so any change in the float32 steps shows."""
        rng = np.random.default_rng(100 * n + factor)
        x = (rng.standard_normal((n, 3, 5, 7)) * 10.0 ** rng.integers(-30, 31, (n, 3, 5, 7)))
        x = x.astype(np.float32)
        assert np.array_equal(upsample(x, factor), upsample_bilinear_corners(x, factor))

    def test_read_only_input_left_as_it_was(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 4, 6)).astype(np.float32)
        (frozen,) = read_only(x)
        got = upsample(frozen, 2)
        assert np.array_equal(frozen, x)
        assert np.array_equal(got, upsample_bilinear_corners(x, 2))

    @pytest.mark.parametrize("factor", [math.inf, math.nan, 2.5, 2.0, True, "2"])
    def test_non_integer_factor_rejected(self, factor):
        """upsample(x, inf) raised OverflowError."""
        with pytest.raises(ValueError, match="factor must be an integer"):
            upsample(np.zeros((1, 1, 2, 2), dtype=np.float32), factor)

    def test_bad_factor_and_mode_rejected(self):
        """Upsampling is bilinear only: a mode argument is not accepted."""
        x = np.zeros((1, 1, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            upsample(x, 0)
        with pytest.raises(TypeError):
            upsample(x, 2, "nearest")


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

    def test_sums_in_float64(self):
        """One 2^25 and 2047 ones per channel: a float32 sum drops ones
        (2^25 + 1 rounds to 2^25), so only a float64 sum gives the exact
        mean, rounded once to float32."""
        x = np.ones((2, 3, 32, 64), dtype=np.float32)
        for ch, (r, c) in enumerate(((0, 0), (5, 17), (31, 63))):
            x[:, ch, r, c] = 2.0**25
        want = [np.float32(math.fsum(m.ravel().tolist()) / m.size) for m in x.reshape(6, 32, 64)]
        assert global_avg_pool(x).ravel().tolist() == want


class TestFeatureMap:
    def test_inputs_pass_through_unchanged(self):
        """Read-only maps are accepted, and no layer writes into its input."""
        rng = np.random.default_rng(13)
        (fm,) = read_only(rng.standard_normal((2, 4, 7, 6)).astype(np.float32))
        kernels = {
            "dense 3x3": ConvParams(rng.standard_normal((3, 4, 3, 3)).astype(np.float32), padding=1),
            "dense 1x1": ConvParams(rng.standard_normal((3, 4, 1, 1)).astype(np.float32)),
            "dw 3x3 s2": ConvParams(
                rng.standard_normal((4, 1, 3, 3)).astype(np.float32), stride=2, padding=1, groups=4
            ),
            "dw 1x1": ConvParams(rng.standard_normal((4, 1, 1, 1)).astype(np.float32), groups=4),
        }
        bn = BNParams(
            gamma=np.float32([1.0, 2.0, -1.0, 0.5]),
            beta=np.float32([0.0, 1.0, 0.0, -1.0]),
            running_mean=np.float32([0.1, 0.0, -0.2, 0.0]),
            running_var=np.float32([1.0, 0.5, 2.0, 1.0]),
        )
        for x in (fm, fm.copy()):
            outs = [conv2d(x, k) for k in kernels.values()]
            outs += [batchnorm_inference(x, bn), sobel(x)]
            outs += [activation(x, kind) for kind in ("relu", "silu", "sigmoid")]
            assert np.array_equal(x, fm)
            assert all(not np.shares_memory(o, x) for o in outs)
        assert not fm.flags.writeable

    def test_sigmoid_saturation_no_overflow_warning(self):
        x = np.array([[[[-500.0, 500.0]]]], dtype=np.float32)
        with np.errstate(over="raise"):
            out = activation(x, "sigmoid")
        np.testing.assert_array_equal(out[0, 0, 0], [0.0, 1.0])


def test_sigmoid_matches_reference_midrange():
    rng = np.random.default_rng(12)
    x = (8 * rng.standard_normal((1, 1, 10, 10))).astype(np.float32)
    np.testing.assert_allclose(activation(x, "sigmoid"), sigmoid_ref(x), atol=1e-6)


def _bundle_fields():
    """Every array field of the eight bundles: (bundle, valid arguments,
    field, stored dtype, a value with a wrong leading length or None for a
    field with no leading dims)."""
    c, f32, bn = 4, np.float32, {n: np.ones(4) for n in ("gamma", "beta", "running_mean", "running_var")}
    dw = ConvParams(np.ones((c, 1, 1, 1)), groups=c)
    offset, main = (ConvParams(np.ones((co, c, 3, 3)), padding=1) for co in (18, c))
    tmdf = dict(
        w_img=dw, w_radar=dw, eca=EcaParams(np.ones(3)), deform=DeformParams(offset, main),
        lpe=np.ones((1, c, 5, 5)), w_text=np.ones((c, c)), w_text_bias=np.ones(c), ape=np.ones((c, 6)),
    )
    energy = dict(sample_ids=("a", "b", "c"), trained=np.full(3, 2.0), untrained=np.ones(3), tau_evals=3)
    tokens = dict(ids=np.arange(5), padding_mask=np.zeros(5, dtype=bool))
    conv = dict(kernel=np.ones((c, 2, 3, 3)), bias=np.ones(c))
    cases = [
        (ConvParams, conv, "kernel", f32, None),
        (ConvParams, conv, "bias", f32, np.ones(3)),
        (BNParams, bn, "gamma", f32, None),
        *((BNParams, bn, n, f32, np.ones(3)) for n in ("beta", "running_mean", "running_var")),
        (EcaParams, dict(weights=np.ones(3)), "weights", f32, None),
        (TmdfParams, tmdf, "lpe", f32, np.ones((2, c, 5, 5))),
        (TmdfParams, tmdf, "w_text", f32, np.ones((3, c))),
        (TmdfParams, tmdf, "w_text_bias", f32, np.ones(3)),
        (TmdfParams, tmdf, "ape", f32, np.ones((3, 6))),
        (TextEncoderParams, dict(embedding=np.ones((7, c))), "embedding", f32, None),
        (TokenSequence, tokens, "ids", np.int64, None),
        (TokenSequence, tokens, "padding_mask", bool, np.zeros(4, dtype=bool)),
        (BinaryMask, dict(bitmap=np.eye(3)), "bitmap", np.uint8, None),
        (EnergyTrace, energy, "trained", np.float64, None),
        (EnergyTrace, energy, "untrained", np.float64, np.ones(2)),
    ]
    return [pytest.param(*case, id=f"{case[0].__name__}.{case[2]}") for case in cases]


@pytest.mark.parametrize("bundle, kwargs, field, dtype, wrong_lead", _bundle_fields())
def test_bundle_field_follows_the_one_rule(bundle, kwargs, field, dtype, wrong_lead):
    """Each array field is cast to its dtype and stored C-contiguous, and a
    wrong ndim or leading length raises ShapeError naming the field.  The
    float64 input is Fortran-ordered, or for a 1-D field a strided view,
    since a 1-D array is in both orders."""
    valid = kwargs[field]
    for value in (valid[..., None], wrong_lead):
        if value is not None:
            with pytest.raises(ShapeError, match=f"^{field} must be {valid.ndim}-D"):
                bundle(**{**kwargs, field: value})
    src = np.asfortranarray(valid.astype(np.float64))
    if src.ndim == 1:
        src = np.stack([src, src], axis=1)[:, 0]
    assert not src.flags.c_contiguous
    stored = getattr(bundle(**{**kwargs, field: src}), field)
    assert stored.dtype == dtype and stored.flags.c_contiguous
    np.testing.assert_array_equal(stored, valid.astype(dtype))
