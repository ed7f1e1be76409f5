import ctypes
import os
import select
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmvg import tensor
from nmvg.tensor import (
    BNParams,
    ConvParams,
    ShapeError,
    _sigmoid,
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
    bn_expr,
    bn_ref,
    conv2d_ref,
    gap_ref,
    maxpool1d_ref,
    sigmoid_ref,
    sigmoid_where,
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

    @pytest.mark.parametrize("groups", [1, 4], ids=["dense", "depthwise"])
    def test_empty_batch_rejected(self, groups):
        """N = 0 would otherwise reach the tile sizing, which divides by N."""
        p = ConvParams(kernel=np.ones((4, 4 // groups, 3, 3), dtype=np.float32), padding=1, groups=groups)
        with pytest.raises(ShapeError, match="empty batch"):
            conv2d(np.ones((0, 4, 8, 8), dtype=np.float32), p)

    def test_groups_must_divide_out_channels(self):
        with pytest.raises(ShapeError):
            ConvParams(kernel=np.ones((3, 1, 1, 1), dtype=np.float32), groups=2)

    def test_output_dtype_float32(self):
        p = ConvParams(kernel=np.ones((1, 1, 1, 1), dtype=np.float32))
        assert conv2d(np.ones((1, 1, 2, 2), dtype=np.float32), p).dtype == np.float32


def _ragged_tile(n, cin, cout, groups, k, stride, ho, wo):
    """A ``_TILE`` that splits a conv into blocks of r output rows, r >= 2 not
    dividing ho, so the last block is ragged.  Depthwise blocks hold one
    channel (accumulator, tap product and phase planes per row), or two
    channels of a one-row map; dense blocks are sized by the larger of
    the im2col depth and C_out."""
    r = next(r for r in range(2, ho + 2) if ho % r)
    if groups == cin:
        wq = wo + (k - 1) // stride
        return r * n * wq * (2 * (cout // cin) + stride**2)
    return r * n * max(cin * k * k, cout) * wo


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
            (1, 2, 40, 5, 3, 1, 3, 1, 1),  # dense, three plane blocks of several tiles
            (1, 2, 21, 41, 3, 1, 3, 2, 1),  # dense stride 2, two tiles per plane block
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

        def contract_spy(out, conv, make_fill, *rest):
            def make_fill_spy(rows):
                fill = make_fill(rows)

                def fill_spy(cols, r0, r1):
                    tiles.append(cin * (r1 - r0))
                    fill(cols, r0, r1)

                return fill_spy

            contract(out, conv, make_fill_spy, *rest)

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
        are sized by C_out as well as the im2col depth, so each chunk's
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
    """Record, for every ``_map_tiles`` call, the threads that built each
    chunk's buffers and the threads that ran its tiles."""
    calls = []
    map_tiles = tensor._map_tiles

    def spy(tiles, make_tile):
        made, ran = [], set()

        def make_tile_spy():
            made.append(threading.get_ident())
            tile = make_tile()

            def tile_spy(t):
                ran.add(threading.get_ident())
                tile(t)

            return tile_spy

        calls.append((len(tiles), made, ran))
        map_tiles(tiles, make_tile_spy)

    monkeypatch.setattr(tensor, "_map_tiles", spy)
    return calls


class TestCorePool:
    """Each conv's tiles run in one chunk per core, the first on the calling
    thread; the split changes no output bit."""

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
        (n1, made1, ran1), (n2, made2, ran2), (n3, made3, ran3) = calls
        assert n1 == n2 == n3 >= 3
        assert made1 == [main] and made2 == [main] * 2 and made3 == [main] * 3
        # Which pool thread takes which chunk is up to the pool.
        assert ran1 == {main} and len(ran2) == 2 and len(ran3) >= 2 and main in ran2 & ran3
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])

    def test_one_tile_runs_inline(self, monkeypatch, cores):
        cores(3)
        calls = _thread_spy(monkeypatch)
        x = np.ones((1, 2, 4, 4), dtype=np.float32)
        conv2d(x, ConvParams(np.ones((2, 2, 3, 3), dtype=np.float32), padding=1))
        assert calls == [(1, [threading.get_ident()], {threading.get_ident()})]

    @pytest.mark.parametrize("failing", [0, 1])
    def test_error_raised_once_every_chunk_finished(self, cores, failing):
        """Chunks [0, 1], [2, 3], [4, 5]: the first tile of chunk `failing`
        raises while the other chunks are still sleeping."""
        cores(3)
        done = []

        def make_tile():
            def tile(t):
                if t == 2 * failing:
                    raise KeyError(t)
                time.sleep(0.05)
                done.append(t)

            return tile

        with pytest.raises(KeyError):
            tensor._map_tiles(list(range(6)), make_tile)
        assert sorted(done) == [t for t in range(6) if t // 2 != failing]

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

    def test_inputs_pass_through_unchanged(self):
        """Read-only maps are accepted, and no layer writes into its input."""
        rng = np.random.default_rng(13)
        fm = feature_map(rng.standard_normal((2, 4, 7, 6)).astype(np.float32))
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
