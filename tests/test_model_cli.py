import argparse
import dataclasses
import filecmp
import hashlib
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import forward_reference

import nmvg.model as model_mod
from nmvg import tensor
from nmvg.archive import (
    ArchiveError,
    MissingParameterError,
    NonFiniteError,
    WeightArchive,
    load_archive,
    save_archive,
)
from nmvg.cli import build_parser, main
from nmvg.encoders import TokenSequence, tokenize
from nmvg.model import (
    DEFAULT_VOCAB,
    Model,
    NonFiniteOutputError,
    RunConfig,
    fuse_archive,
    generate_archive,
    generate_fixtures,
    parameter_shapes,
    run_infer,
)
from nmvg.rasters import (
    RasterError,
    read_boxes,
    read_image,
    read_mask,
    read_radar,
    write_boxes,
    write_mask,
    write_ppm,
)
from nmvg.heads import DetectionBox, MsRepParams
from nmvg.tensor import ConvParams, ShapeError


SMALL = RunConfig(input_size=64, seed=11)


@pytest.fixture(scope="module")
def small_archive():
    return generate_archive(SMALL)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    generate_fixtures(out, SMALL)
    return out


class TestRunConfig:
    def test_stage_sizes_follow_quarter_then_halving(self):
        cfg = RunConfig(input_size=640)
        assert [cfg.stage_size(i) for i in range(4)] == [160, 80, 40, 20]

    def test_input_size_must_be_multiple_of_32(self):
        with pytest.raises(ValueError, match="multiple of 32"):
            RunConfig(input_size=100)

    def test_head_scale_range(self):
        with pytest.raises(ValueError, match="head_scale"):
            RunConfig(head_scale=6)

    def test_from_file_round_trip(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text(
            "input_size = 64\n"
            "attention_normalize = true\n"
            "score_thresh = 0.4  # comment\n"
        )
        cfg = RunConfig.from_file(f)
        assert cfg.input_size == 64
        assert cfg.attention_normalize is True
        assert cfg.score_thresh == 0.4

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text(
            "# run settings\n"
            "vocab_path = /tmp/a#b/vocab.txt\n"
            "score_thresh = 0.4  # comment\n"
            "topk = 3\t# tab before the comment\n"
        )
        cfg = RunConfig.from_file(f)
        assert cfg.vocab_path == "/tmp/a#b/vocab.txt"
        assert cfg.score_thresh == 0.4
        assert cfg.topk == 3

    @pytest.mark.parametrize(
        "line,message",
        [
            ("score_thresh = nan", "score_thresh must be finite"),
            ("text_len = 2", "text_len must be >= 3"),
        ],
    )
    def test_out_of_range_value_names_its_line(self, tmp_path, line, message):
        f = tmp_path / "run.cfg"
        f.write_text(f"input_size = 64\n{line}\n")
        key = line.split()[0]
        with pytest.raises(ValueError, match=f"run.cfg:2: {key}: {message}"):
            RunConfig.from_file(f)

    def test_text_vocab_setting_rejected(self, tmp_path):
        """The vocabulary alone sizes the token table."""
        f = tmp_path / "run.cfg"
        f.write_text("input_size = 64\ntext_vocab = 26\n")
        with pytest.raises(ValueError, match="run.cfg:2: unknown setting 'text_vocab'"):
            RunConfig.from_file(f)

    @pytest.mark.parametrize(
        "line", ["stage_channels = 16, 32, 64, 96", "fpn_channels = 64", "embed_dim = 64"]
    )
    def test_width_setting_rejected(self, tmp_path, line):
        """The model's widths are fixed: no file sets them, not even to
        their own values."""
        f = tmp_path / "run.cfg"
        f.write_text(f"input_size = 64\n{line}\n")
        with pytest.raises(ValueError, match=f"run.cfg:2: unknown setting '{line.split()[0]}'"):
            RunConfig.from_file(f)

    def test_from_file_rejects_bare_line(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("input_size = 64\ntopk\n")
        with pytest.raises(ValueError, match="run.cfg:2: expected `key = value`, got 'topk'"):
            RunConfig.from_file(f)

    def test_vocab_read_once(self, tmp_path):
        f = tmp_path / "vocab.txt"
        f.write_text("<pad>\nboat\n")
        cfg = RunConfig(vocab_path=str(f))
        assert cfg.vocab == ("<pad>", "boat")
        f.unlink()
        assert cfg.vocab == ("<pad>", "boat")
        assert RunConfig().vocab is DEFAULT_VOCAB

    def test_from_file_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("flux_capacitor = 1\n")
        with pytest.raises(ValueError, match="flux_capacitor"):
            RunConfig.from_file(f)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            RunConfig(seed=-1)

    @pytest.mark.parametrize("name", ["score_thresh", "mask_thresh"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RunConfig(**{name: value})


class TestParameterShapes:
    def test_required_names_present(self):
        shapes = parameter_shapes(SMALL)
        for name in (
            "tmdf.stage0.lpe",
            "tmdf.stage0.deform.offset.kernel",
            "enmoe.stage0.theta1_raw",
            "enmoe.stage0.theta2_raw",
            "fpn.lateral2.kernel",
            "fpn.smooth5.kernel",
            "rec.conf.proj.kernel",
            "res.msrep5.conv3.kernel",
        ):
            assert name in shapes, name

    def test_scalars_are_one_element(self):
        shapes = parameter_shapes(SMALL)
        assert shapes["enmoe.stage0.theta1_raw"] == (1,)

    def test_offset_conv_emits_eighteen_channels(self):
        shapes = parameter_shapes(SMALL)
        assert shapes["tmdf.stage0.deform.offset.kernel"][0] == 18

    def test_every_shape_positive(self):
        for name, shape in parameter_shapes(SMALL).items():
            assert all(d >= 1 for d in shape), name


class TestGenerateArchive:
    def test_deterministic_per_seed(self, small_archive):
        again = generate_archive(SMALL)
        assert set(again.entries) == set(small_archive.entries)
        for name, arr in small_archive.entries.items():
            np.testing.assert_array_equal(arr, again.get(name), err_msg=name)

    def test_seed_changes_weights(self, small_archive):
        other = generate_archive(RunConfig(input_size=64, seed=12))
        diff = any(
            not np.array_equal(arr, other.get(name))
            for name, arr in small_archive.entries.items()
        )
        assert diff

    def test_position_and_offset_tables_start_at_zero(self, small_archive):
        assert not small_archive.get("tmdf.stage0.lpe").any()
        assert not small_archive.get("tmdf.stage1.deform.offset.kernel").any()
        assert not small_archive.get("enmoe.stage0.theta1_raw").any()

    @pytest.mark.parametrize("seed,message", [(1.5, "seed must be an integer"), (True, "seed must be an integer"), (-1, "seed must be >= 0")])
    def test_bad_seed_rejected(self, seed, message):
        """seed=1.5 raised numpy's TypeError and seed=-1 numpy's ValueError."""
        with pytest.raises(ValueError, match=message):
            generate_archive(SMALL, seed)

    def test_covers_declared_shapes_exactly(self, small_archive):
        shapes = parameter_shapes(SMALL)
        assert set(small_archive.entries) == set(shapes)
        for name, arr in small_archive.entries.items():
            assert arr.shape == shapes[name], name


class TestArchiveLayout:
    """sha256 of the saved bytes: pins manifest order, names, shapes and values."""

    TRAIN_64 = "44b031a9d3f84c68173181156bdc21e3fa567f5d8baf8f721b9a02dbb0ed000a"
    FUSED_64 = "8063b803cb5287257dad44a539842068e6ac5070182a329ae3e8f177cb6a2100"

    @staticmethod
    def _digest(archive, path):
        save_archive(archive, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_generated_archive_bytes_pinned(self, small_archive, tmp_path):
        assert self._digest(small_archive, tmp_path / "w.nmvg") == self.TRAIN_64

    def test_fused_archive_bytes_pinned(self, small_archive, tmp_path):
        assert self._digest(fuse_archive(small_archive), tmp_path / "w.nmvg") == self.FUSED_64


class TestModelBinding:
    def test_missing_parameter_names_the_key(self, small_archive):
        entries = dict(small_archive.entries)
        del entries["rec.conf.proj.kernel"]
        broken = WeightArchive(entries=entries)
        with pytest.raises(MissingParameterError, match="rec.conf.proj.kernel"):
            Model.from_archive(SMALL, broken)

    def test_wrong_shape_rejected(self, small_archive):
        """An archive of another pyramid width fails at its first entry of
        that width, named with both shapes."""
        wrong = np.zeros((32, 16, 1, 1), dtype=np.float32)
        broken = WeightArchive(entries={**small_archive.entries, "fpn.lateral2.kernel": wrong})
        message = r"entry 'fpn.lateral2.kernel' has shape \(32, 16, 1, 1\), the model expects \(64, 16, 1, 1\)"
        with pytest.raises(ArchiveError, match=message):
            Model.from_archive(SMALL, broken)

    def test_archive_form_picks_block_type(self, small_archive):
        trainable = Model.from_archive(SMALL, small_archive).res_p.blocks
        folded = Model.from_archive(SMALL, fuse_archive(small_archive)).res_p.blocks
        assert all(isinstance(block, MsRepParams) for block in trainable)
        assert all(isinstance(block, ConvParams) for block in folded)

    def test_half_folded_archive_names_missing_block(self, small_archive):
        """Only res.msrep5 folded: the archive reads as folded, so the bind
        asks for the next block's folded kernel and finds none."""
        fused = fuse_archive(small_archive)
        entries = {k: v for k, v in small_archive.entries.items() if not k.startswith("res.msrep5.")}
        entries.update({k: fused.get(k) for k in ("res.msrep5.fused.kernel", "res.msrep5.fused.bias")})
        with pytest.raises(MissingParameterError, match="res.msrep4.fused.kernel"):
            Model.from_archive(SMALL, WeightArchive(entries=entries))

    def test_bind_copies_no_weight(self, small_archive):
        """At 64 every array a bundle holds is its archive entry itself, and
        every entry but the two ENMoE scalars per level is held: binding
        adds no copy of any weight.  The positional code ape is computed,
        not bound."""
        names = {id(a): name for name, a in small_archive.entries.items()}
        held = set()

        def walk(obj, where):
            if isinstance(obj, np.ndarray) and not where.endswith(".ape"):
                assert id(obj) in names, where
                held.add(names[id(obj)])
            elif isinstance(obj, tuple):
                for i, item in enumerate(obj):
                    walk(item, f"{where}[{i}]")
            elif dataclasses.is_dataclass(obj):
                for field in dataclasses.fields(obj):
                    walk(getattr(obj, field.name), f"{where}.{field.name}")

        walk(Model.from_archive(SMALL, small_archive), "model")
        assert set(small_archive.entries) - held == {n for n in small_archive.entries if "theta" in n}

    def test_non_finite_weight_rejected_at_bind(self, small_archive):
        """The archive rejects the entry when it is built, so no bind sees it."""
        kernel = small_archive.get("fpn.smooth2.kernel").copy()
        kernel[0, 0, 1, 1] = np.nan
        with pytest.raises(NonFiniteError, match="fpn.smooth2.kernel"):
            WeightArchive(entries={**small_archive.entries, "fpn.smooth2.kernel": kernel})


class TestForward:
    def test_output_shapes(self, small_archive):
        model = Model.from_archive(SMALL, small_archive)
        rng = np.random.default_rng(0)
        image = rng.random((1, 3, 64, 64), dtype=np.float32)
        radar = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
        tokens = tokenize("the red boat", list(DEFAULT_VOCAB), SMALL.text_len)
        out = model.forward(image, radar, tokens)
        assert out.heatmap.shape == (1, 1, 16, 16)
        assert out.sizes.shape == (1, 2, 16, 16)
        assert out.offsets.shape == (1, 2, 16, 16)
        assert out.mask_logits.shape == (1, 1, 64, 64)
        assert out.masks[0].bitmap.shape == (64, 64)
        assert out.downsample_ratio == 4
        assert np.isfinite(out.mask_logits).all()

    def test_enmoe_routes_a_level_of_exactly_min_extent(self, monkeypatch):
        """At input 160 stage 3 is 5x5, exactly ENMoE's MIN_EXTENT, so all
        four levels are routed."""
        cfg = RunConfig(input_size=160, text_len=8)
        model = Model.from_archive(cfg, generate_archive(cfg))
        routed, enmoe_forward = [], model_mod.enmoe_forward

        def spy(f, p):
            routed.append(f.shape[2:])
            return enmoe_forward(f, p)

        monkeypatch.setattr(model_mod, "enmoe_forward", spy)
        rng = np.random.default_rng(5)
        model.forward(
            rng.random((1, 3, 160, 160), dtype=np.float32),
            rng.standard_normal((1, 3, 160, 160)).astype(np.float32),
            tokenize("the red buoy", list(DEFAULT_VOCAB), cfg.text_len),
        )
        assert routed == [(40, 40), (20, 20), (10, 10), (5, 5)]

    @given(
        size=st.sampled_from([32, 64, 96, 128, 160]),
        text_len=st.integers(3, 12),
        head_scale=st.integers(2, 5),
        normalize=st.booleans(),
    )
    @example(size=160, text_len=3, head_scale=5, normalize=False)
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_valid_configs_run_on_both_archive_forms(self, size, text_len, head_scale, normalize):
        """Any valid config, on its generated archive and on the fold of it,
        gives finite outputs of the stated shapes, the bits of the plain
        layer composition, and a batch of two frames gives each frame the
        bits it gets alone.  At input 160 stage 3 is exactly ENMoE's
        MIN_EXTENT."""
        cfg = RunConfig(input_size=size, text_len=text_len, head_scale=head_scale, attention_normalize=normalize)
        archive = generate_archive(cfg)
        rng = np.random.default_rng(size + text_len)
        image = rng.random((2, 3, size, size), dtype=np.float32)
        radar = rng.standard_normal((2, 3, size, size)).astype(np.float32)
        tokens = tokenize("the red buoy near the dock", list(DEFAULT_VOCAB), text_len)
        ratio = 4 << (head_scale - 2)
        grid = size // ratio
        shapes = {
            "heatmap": (2, 1, grid, grid),
            "sizes": (2, 2, grid, grid),
            "offsets": (2, 2, grid, grid),
            "mask_logits": (2, 1, size, size),
        }
        for form in (archive, fuse_archive(archive)):
            model = Model.from_archive(cfg, form)
            batch = model.forward(image, radar, tokens)
            assert batch.downsample_ratio == ratio
            assert [m.bitmap.shape for m in batch.masks] == [(size, size)] * 2
            for name, shape in shapes.items():
                assert getattr(batch, name).shape == shape, name
                assert np.isfinite(getattr(batch, name)).all(), name
            for name, want in zip(shapes, forward_reference(model, image, radar, tokens)):
                assert np.array_equal(getattr(batch, name), want), name
            for i in range(2):
                alone = model.forward(image[i : i + 1], radar[i : i + 1], tokens)
                for name in shapes:
                    assert np.array_equal(getattr(batch, name)[i : i + 1], getattr(alone, name)), (i, name)

    @pytest.mark.parametrize("tiled", [False, True], ids=["default-tiles", "small-tiles-two-cores"])
    @pytest.mark.parametrize("fold", [False, True], ids=["train", "folded"])
    def test_forward_is_the_plain_layer_composition(self, small_archive, cores, monkeypatch, fold, tiled):
        """A batch of two through ``Model.forward`` gives the bits of
        ``forward_reference``: every conv unfused, whole-map adds, nearest
        steps made whole and every map kept.  So the in-place glue, the
        fused epilogues, the ENMoE blend hook and the map drops change no
        bit, also when the convs run many tiles on two threads."""
        archive = fuse_archive(small_archive) if fold else small_archive
        model = Model.from_archive(SMALL, archive)
        rng = np.random.default_rng(12)
        image = rng.random((2, 3, 64, 64), dtype=np.float32)
        radar = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
        tokens = tokenize("the small green buoy near the dock", list(DEFAULT_VOCAB), SMALL.text_len)
        want = forward_reference(model, image, radar, tokens)
        tiles, map_tiles = [], tensor._map_tiles

        def count_tiles(t, make_tile):
            tiles.append(len(t))
            map_tiles(t, make_tile)

        if tiled:
            cores(2)
            monkeypatch.setattr(tensor, "_TILE", 1 << 12)
            monkeypatch.setattr(tensor, "_map_tiles", count_tiles)
        out = model.forward(image, radar, tokens)
        for name, a in zip(("heatmap", "sizes", "offsets", "mask_logits"), want):
            assert np.array_equal(getattr(out, name), a), name
        # All but the convs on the coarsest maps run several tiles (71 of 82).
        assert not tiled or sum(t > 1 for t in tiles) > 3 * len(tiles) // 4

    def test_deterministic_forward(self, small_archive):
        model = Model.from_archive(SMALL, small_archive)
        rng = np.random.default_rng(1)
        image = rng.random((1, 3, 64, 64), dtype=np.float32)
        radar = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
        tokens = tokenize("a white ship", list(DEFAULT_VOCAB), SMALL.text_len)
        a = model.forward(image, radar, tokens)
        b = model.forward(image, radar, tokens)
        assert np.array_equal(a.heatmap, b.heatmap)
        assert np.array_equal(a.mask_logits, b.mask_logits)

    def test_batch_gives_each_frame_its_own_bits(self, small_archive):
        """A batch of three frames gives each frame the four outputs it gets
        alone, bit for bit.  The batch widens every conv's GEMM, so a BLAS
        whose summation order followed the column count would break this."""
        model = Model.from_archive(SMALL, small_archive)
        rng = np.random.default_rng(6)
        image = rng.random((3, 3, 64, 64), dtype=np.float32)
        radar = rng.standard_normal((3, 3, 64, 64)).astype(np.float32)
        tokens = tokenize("a red buoy near the small boat", list(DEFAULT_VOCAB), SMALL.text_len)
        batch = model.forward(image, radar, tokens)
        for i in range(3):
            alone = model.forward(image[i : i + 1], radar[i : i + 1], tokens)
            for name in ("heatmap", "sizes", "offsets", "mask_logits"):
                assert np.array_equal(getattr(batch, name)[i : i + 1], getattr(alone, name)), (i, name)

    def test_concurrent_forwards_give_the_serial_outputs(self, small_archive):
        """Four threads calling one model's forward at once, each on its own
        frame, get the outputs a serial run gives, bit for bit."""
        model = Model.from_archive(SMALL, small_archive)
        rng = np.random.default_rng(7)
        tokens = tokenize("the white ship", list(DEFAULT_VOCAB), SMALL.text_len)
        frames = [
            (rng.random((1, 3, 64, 64), dtype=np.float32), rng.standard_normal((1, 3, 64, 64)).astype(np.float32))
            for _ in range(4)
        ]
        serial = [model.forward(image, radar, tokens) for image, radar in frames]
        start = threading.Barrier(len(frames))

        def run(frame):
            start.wait(timeout=60)
            return model.forward(*frame, tokens)

        for _ in range(2):
            with ThreadPoolExecutor(len(frames)) as pool:
                threaded = list(pool.map(run, frames))
            for want, got in zip(serial, threaded):
                for name in ("heatmap", "sizes", "offsets", "mask_logits"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_head_scale_moves_detection_grid(self, small_archive):
        cfg = RunConfig(input_size=64, seed=11, head_scale=3)
        model = Model.from_archive(cfg, generate_archive(cfg))
        rng = np.random.default_rng(2)
        out = model.forward(
            rng.random((1, 3, 64, 64), dtype=np.float32),
            rng.standard_normal((1, 3, 64, 64)).astype(np.float32),
            tokenize("the dock", list(DEFAULT_VOCAB), cfg.text_len),
        )
        assert out.heatmap.shape == (1, 1, 8, 8)
        assert out.downsample_ratio == 8

    def test_frame640_peak_memory(self, cores):
        """Only maps a later layer reads stay live through a 640 forward, and
        ENMoE and the rec head write their 1x1 convs over their own inputs.
        The peak, outputs included, is ENMoE level 0 (its input, both gates
        and two chunks of tile work): under 4.25 level-0 maps, where holding
        every stage to the end took 7.4 and a whole projection map 4.96."""
        cfg = RunConfig(input_size=640)
        model = Model.from_archive(cfg, generate_archive(cfg, 0))
        rng = np.random.default_rng(5)
        image = rng.random((1, 3, 640, 640), dtype=np.float32)
        radar = rng.standard_normal((1, 3, 640, 640)).astype(np.float32)
        tokens = tokenize("a red buoy near the small boat", list(DEFAULT_VOCAB), cfg.text_len)
        cores(2)
        tracemalloc.start()
        try:
            model.forward(image, radar, tokens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        level0 = 64 * 160 * 160 * np.dtype(np.float32).itemsize
        assert peak <= 4.25 * level0

    def test_64_forward_keeps_every_conv_off_the_pool(self, monkeypatch, cores, small_archive):
        """At 64 every conv is one tile, so none is split into chunks: a
        pool dispatch would cost more than a conv that small saves."""
        from nmvg import tensor

        model = Model.from_archive(SMALL, small_archive)
        rng = np.random.default_rng(4)
        cores(2)
        tiles = []
        map_tiles = tensor._map_tiles

        def spy(ts, make_tile):
            tiles.append(len(ts))
            map_tiles(ts, make_tile)

        monkeypatch.setattr(tensor, "_map_tiles", spy)
        model.forward(
            rng.random((1, 3, 64, 64), dtype=np.float32),
            rng.standard_normal((1, 3, 64, 64)).astype(np.float32),
            tokenize("a red buoy near the small boat", list(DEFAULT_VOCAB), SMALL.text_len),
        )
        assert len(tiles) > 50 and set(tiles) == {1}

    @pytest.mark.parametrize("which", ["image", "radar"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, small_archive, which, bad):
        model = Model.from_archive(SMALL, small_archive)
        rng = np.random.default_rng(3)
        inputs = {
            "image": rng.random((1, 3, 64, 64), dtype=np.float32),
            "radar": rng.standard_normal((1, 3, 64, 64)).astype(np.float32),
        }
        inputs[which][0, 1, 5, 7] = bad
        tokens = tokenize("the red boat", list(DEFAULT_VOCAB), SMALL.text_len)
        with pytest.raises(ValueError, match=f"{which} input"):
            model.forward(inputs["image"], inputs["radar"], tokens)

    @pytest.mark.parametrize("which", ["image", "radar"])
    def test_input_extent_must_match_config(self, small_archive, which):
        model = Model.from_archive(SMALL, small_archive)
        rng = np.random.default_rng(4)
        inputs = {
            "image": rng.random((1, 3, 64, 64), dtype=np.float32),
            "radar": rng.standard_normal((1, 3, 64, 64)).astype(np.float32),
        }
        inputs[which] = np.zeros((1, 3, 96, 96), dtype=np.float32)
        tokens = tokenize("the red boat", list(DEFAULT_VOCAB), SMALL.text_len)
        with pytest.raises(ShapeError, match=rf"{which} input extent \(96, 96\).*\(64, 64\)"):
            model.forward(inputs["image"], inputs["radar"], tokens)


def _frame(n=1, c=3, side=64, fill=0.5):
    return np.full((n, c, side, side), fill, dtype=np.float32)


def _ids(length=SMALL.text_len, first=1):
    ids = np.zeros(length, dtype=np.int64)
    ids[0] = first
    return TokenSequence(ids=ids, padding_mask=ids == 0)


def _nan_at(x, index=(0, 1, 5, 7), bad=np.nan):
    x[index] = bad
    return x


# (image, radar, tokens, error, message) per rejected input; every check runs
# before the first encoder.
REJECTED = {
    "empty batch": (_frame(0), _frame(0), _ids(), ShapeError, "image input batch 0"),
    "batch mismatch": (_frame(2), _frame(1), _ids(), ShapeError, "radar input batch 1 .* image's 2"),
    "image channels": (_frame(c=1), _frame(), _ids(), ShapeError, r"image input must be \(N, 3, H, W\)"),
    "radar channels": (_frame(), _frame(c=4), _ids(), ShapeError, r"radar input must be \(N, 3, H, W\)"),
    "image 3-D": (_frame()[0], _frame(), _ids(), ShapeError, r"image input must be \(N, 3, H, W\)"),
    "image extent": (_frame(side=96), _frame(), _ids(), ShapeError, r"image input extent \(96, 96\)"),
    "radar extent": (_frame(), _frame(side=32), _ids(), ShapeError, r"radar input extent \(32, 32\)"),
    "image nan": (_nan_at(_frame()), _frame(), _ids(), ValueError, "image input contains non-finite"),
    "radar inf": (_frame(), _nan_at(_frame(), bad=np.inf), _ids(), ValueError, "radar input contains non-"),
    "radar -inf": (_frame(), _nan_at(_frame(), bad=-np.inf), _ids(), ValueError, "radar input contains"),
    "tokens short": (_frame(), _frame(), _ids(SMALL.text_len - 1), ShapeError, "49 ids.*text_len 50"),
    "tokens long": (_frame(), _frame(), _ids(SMALL.text_len + 1), ShapeError, "51 ids.*text_len 50"),
    "id at vocab": (_frame(), _frame(), _ids(first=len(SMALL.vocab)), ValueError, "token id 26 "),
    "id above vocab": (_frame(), _frame(), _ids(first=999), ValueError, "token id 999 "),
}


class TestForwardBoundary:
    """``Model.forward`` decides every input once, before any layer runs,
    and refuses to hand back a non-finite output."""

    @pytest.fixture
    def guarded(self, small_archive, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("an encoder ran on a rejected input")

        for name in ("image_encoder", "radar_encoder", "text_encoder"):
            monkeypatch.setattr(model_mod, name, never)
        return Model.from_archive(SMALL, small_archive)

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejected_before_any_encoder(self, guarded, case):
        image, radar, tokens, error, message = REJECTED[case]
        with pytest.raises(error, match=message) as info:
            guarded.forward(image, radar, tokens)
        assert isinstance(info.value, ShapeError) == (error is ShapeError)

    def test_valid_batch_reaches_the_encoders(self, guarded):
        with pytest.raises(AssertionError, match="an encoder ran"):
            guarded.forward(_frame(2), _frame(2), _ids(first=len(SMALL.vocab) - 1))

    @pytest.mark.parametrize(
        "poisoned,named",
        [
            (("heatmap", "mask_logits"), "heatmap"),
            (("sizes",), "sizes"),
            (("offsets", "mask_logits"), "offsets"),
            (("mask_logits",), "mask_logits"),
        ],
        ids=["heatmap and mask_logits", "sizes", "offsets and mask_logits", "mask_logits"],
    )
    def test_non_finite_output_named_in_order(self, small_archive, monkeypatch, poisoned, named):
        rec, res = model_mod.rec_head_forward, model_mod.res_head_forward

        def poison(arrays, names):
            for a, name in zip(arrays, names):
                if name in poisoned:
                    a[0, 0, 1, 2] = np.nan
            return arrays

        monkeypatch.setattr(
            model_mod, "rec_head_forward", lambda *a: poison(rec(*a), ("heatmap", "sizes", "offsets"))
        )
        monkeypatch.setattr(model_mod, "res_head_forward", lambda *a: poison(res(*a), ("mask_logits",)))
        model = Model.from_archive(SMALL, small_archive)
        with pytest.raises(NonFiniteOutputError, match=f"output {named} holds non-finite"):
            model.forward(_frame(), _frame(), _ids())

    def test_non_finite_output_error_is_exported_value_error(self):
        import nmvg

        assert nmvg.NonFiniteOutputError is NonFiniteOutputError
        assert issubclass(NonFiniteOutputError, ValueError)


class TestFuseArchive:
    def test_branch_keys_swap_for_fused_keys(self, small_archive):
        fused = fuse_archive(small_archive)
        for level in (5, 4, 3):
            assert f"res.msrep{level}.fused.kernel" in fused
            assert f"res.msrep{level}.fused.bias" in fused
            assert f"res.msrep{level}.conv3.kernel" not in fused
            assert f"res.msrep{level}.bnid.gamma" not in fused

    def test_untouched_entries_identical(self, small_archive):
        fused = fuse_archive(small_archive)
        np.testing.assert_array_equal(
            fused.get("rec.conf.proj.kernel"), small_archive.get("rec.conf.proj.kernel")
        )

    def test_fold_shares_unchanged_entries(self):
        """At 320 the fold copies no entry it keeps: its tracemalloc peak is
        a small fraction of the 2.6 MB archive, where a second copy of
        every entry would peak above 2.60 MB."""
        archive = generate_archive(RunConfig(input_size=320), 0)
        size = sum(a.nbytes for a in archive.entries.values())
        tracemalloc.start()
        try:
            fused = fuse_archive(archive)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fused.get("rec.conf.proj.kernel") is archive.get("rec.conf.proj.kernel")
        assert peak <= 2.60e6 and peak < size / 10

    def test_fusing_twice_rejected(self, small_archive):
        fused = fuse_archive(small_archive)
        with pytest.raises(ArchiveError, match="already"):
            fuse_archive(fused)

    def test_fused_and_train_inference_agree(self, fixture_dir, tmp_path):
        cfg = RunConfig.from_file(fixture_dir / "run.cfg")
        train_arch = load_archive(fixture_dir / "weights.nmvg")
        fused_arch = fuse_archive(train_arch)
        a = run_infer(cfg, train_arch, fixture_dir / "image.ppm", fixture_dir / "radar.f32",
                      fixture_dir / "prompt.txt", tmp_path / "train")
        b = run_infer(cfg, fused_arch, fixture_dir / "image.ppm", fixture_dir / "radar.f32",
                      fixture_dir / "prompt.txt", tmp_path / "fused")
        assert len(a.boxes) == len(b.boxes)
        for x, y in zip(a.boxes, b.boxes):
            assert (x.cx, x.cy, x.w, x.h) == pytest.approx((y.cx, y.cy, y.w, y.h), abs=1e-2)
        agree = (a.mask.bitmap == b.mask.bitmap).mean()
        assert agree > 0.99


class TestRunInfer:
    def test_bitwise_repeatable_outputs(self, fixture_dir, tmp_path):
        cfg = RunConfig.from_file(fixture_dir / "run.cfg")
        archive = load_archive(fixture_dir / "weights.nmvg")
        for sub in ("a", "b"):
            run_infer(cfg, archive, fixture_dir / "image.ppm", fixture_dir / "radar.f32",
                      fixture_dir / "prompt.txt", tmp_path / sub)
        assert filecmp.cmp(tmp_path / "a" / "boxes.txt", tmp_path / "b" / "boxes.txt", shallow=False)
        assert filecmp.cmp(tmp_path / "a" / "mask.pgm", tmp_path / "b" / "mask.pgm", shallow=False)

    def test_mask_covers_full_input(self, fixture_dir, tmp_path):
        cfg = RunConfig.from_file(fixture_dir / "run.cfg")
        archive = load_archive(fixture_dir / "weights.nmvg")
        res = run_infer(cfg, archive, fixture_dir / "image.ppm", fixture_dir / "radar.f32",
                        fixture_dir / "prompt.txt", tmp_path / "out")
        assert read_mask(res.mask_path).shape == (64, 64)
        assert read_boxes(res.boxes_path) == res.boxes

    def test_vocab_size_mismatch_rejected(self, fixture_dir, tmp_path, small_archive):
        """The binder names the token table and both shapes."""
        short_vocab = tmp_path / "tiny.txt"
        short_vocab.write_text("<pad>\nboat\n")
        cfg = RunConfig(input_size=64, seed=11, vocab_path=str(short_vocab))
        message = r"entry 'text_enc.embedding' has shape \(26, 64\), the model expects \(2, 64\)"
        with pytest.raises(ArchiveError, match=message):
            run_infer(cfg, small_archive, fixture_dir / "image.ppm", fixture_dir / "radar.f32",
                      fixture_dir / "prompt.txt", tmp_path / "out")


class TestBoxFileRoundTrip:
    def test_clipped_score_survives(self, tmp_path):
        b = DetectionBox(1.25, 2.5, 3.0, 4.0, float(np.float32(1.0 - 1e-7)))
        p = tmp_path / "boxes.txt"
        write_boxes(p, [b])
        (back,) = read_boxes(p)
        assert back == b

    def test_scoreless_read_yields_tuples(self, tmp_path):
        p = tmp_path / "boxes.txt"
        write_boxes(p, [DetectionBox(1, 2, 3, 4, 0.5)])
        assert read_boxes(p, with_scores=False) == [(1.0, 2.0, 3.0, 4.0)]

    def test_empty_file_round_trips(self, tmp_path):
        p = tmp_path / "boxes.txt"
        write_boxes(p, [])
        assert read_boxes(p) == []

    @pytest.mark.parametrize("with_scores", [True, False])
    @pytest.mark.parametrize("line", ["nan 2 3 4 0.5", "1 inf 3 4 0.5", "1 2 3 -inf 0.5", "1 2 3 4 nan"])
    def test_non_finite_field_rejected(self, tmp_path, line, with_scores):
        p = tmp_path / "boxes.txt"
        p.write_text("1 2 3 4 0.5\n" + line + "\n")
        with pytest.raises(RasterError, match=r"boxes.txt:2: non-finite"):
            read_boxes(p, with_scores=with_scores)


class TestNetpbmHeader:
    @pytest.mark.parametrize("header", [b"P5 -1 -1 255\n", b"P5 -2 -3 255\n"])
    def test_negative_size_rejected(self, tmp_path, header):
        path = tmp_path / "mask.pgm"
        path.write_bytes(header + b"\0" * 6)
        with pytest.raises(RasterError, match="negative netpbm size"):
            read_mask(path)


class TestMaskFile:
    def test_non_binary_mask_not_written(self, tmp_path):
        """An array of 2s would be written as 254, which read_mask reads back as 1."""
        path = tmp_path / "mask.pgm"
        with pytest.raises(ValueError, match="0 or 1"):
            write_mask(path, np.full((4, 4), 2))
        assert not path.exists()


def _infer_argv(fixture_dir, out_dir, *extra):
    return [
        "infer",
        "--weights", str(fixture_dir / "weights.nmvg"),
        "--image", str(fixture_dir / "image.ppm"),
        "--radar", str(fixture_dir / "radar.f32"),
        "--prompt", str(fixture_dir / "prompt.txt"),
        "--out-dir", str(out_dir),
        *extra,
    ]


def _scaled_radar(fixture_dir, work, scale):
    path = work / "radar_scaled.f32"
    (np.fromfile(fixture_dir / "radar.f32", dtype="<f4") * np.float32(scale)).astype("<f4").tofile(path)
    return path


class TestCli:
    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_file_exits_two(self, tmp_path, capsys):
        rc = main([
            "infer", "--weights", str(tmp_path / "nope.nmvg"),
            "--image", str(tmp_path / "nope.ppm"),
            "--radar", str(tmp_path / "nope.f32"),
            "--prompt", str(tmp_path / "nope.txt"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_infer_fused_flag_is_unknown(self, fixture_dir, tmp_path, capsys):
        """The archive alone picks the segmentation blocks' form."""
        assert main(_infer_argv(fixture_dir, tmp_path / "out", "--fused")) == 1
        assert "unrecognized arguments: --fused" in capsys.readouterr().err

    def test_infer_seed_flag_is_unknown(self, fixture_dir, tmp_path, capsys):
        """infer generates nothing, so it takes no seed."""
        assert main(_infer_argv(fixture_dir, tmp_path / "out", "--seed", "3")) == 1
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_infer_short_text_len_names_config_line(self, fixture_dir, tmp_path, capsys):
        config = tmp_path / "short.cfg"
        config.write_text("input_size = 64\ntext_len = 2\n")
        assert main(_infer_argv(fixture_dir, tmp_path / "out", "--config", str(config))) == 2
        assert "short.cfg:2: text_len: text_len must be >= 3" in capsys.readouterr().err

    def test_infer_vocab_flag_sizes_the_table(self, tmp_path, capsys):
        """A run file that sets only vocab_path binds an archive generated
        for that vocabulary; without it the default vocabulary does not fit."""
        vocab = tmp_path / "v.txt"
        vocab.write_text("<pad>\nthe\nkayak\n")
        config = tmp_path / "run.cfg"
        config.write_text(f"vocab_path = {vocab}\n")
        save_archive(generate_archive(RunConfig(vocab_path=str(vocab))), tmp_path / "w.nmvg")
        frame = np.random.default_rng(2).integers(0, 256, size=(3, 640, 640)).astype(np.uint8)
        for name in ("image.ppm", "radar.ppm"):
            write_ppm(tmp_path / name, frame)
        (tmp_path / "prompt.txt").write_text("the kayak\n")
        argv = [
            "infer", "--weights", str(tmp_path / "w.nmvg"), "--image", str(tmp_path / "image.ppm"),
            "--radar", str(tmp_path / "radar.ppm"), "--prompt", str(tmp_path / "prompt.txt"),
            "--out-dir", str(tmp_path / "out"),
        ]
        assert main([*argv, "--config", str(config)]) == 0
        assert (tmp_path / "out" / "mask.pgm").exists()
        assert main(argv) == 2
        assert "'text_enc.embedding' has shape (3, 64), the model expects (26, 64)" in capsys.readouterr().err

    def test_gen_fixtures_for_a_config_vocab(self, tmp_path):
        """The fixtures carry the vocabulary their archive was made for."""
        vocab = tmp_path / "v.txt"
        vocab.write_text("\n".join([*DEFAULT_VOCAB, "kayak"]) + "\n")
        config = tmp_path / "gen.cfg"
        config.write_text(f"input_size = 64\nvocab_path = {vocab}\n")
        fix = tmp_path / "fix"
        assert main(["gen-fixtures", "--out-dir", str(fix), "--config", str(config)]) == 0
        assert (fix / "vocab.txt").read_text() == vocab.read_text()
        assert load_archive(fix / "weights.nmvg").get("text_enc.embedding").shape == (27, 64)
        assert main(_infer_argv(fix, tmp_path / "out", "--config", str(fix / "run.cfg"))) == 0

    def test_gen_fixtures_write_the_config_they_were_made_for(self, tmp_path):
        """Every setting of the config reads back from the written run.cfg;
        only vocab_path names the vocab.txt written beside it."""
        config = tmp_path / "gen.cfg"
        config.write_text(
            "input_size = 64\ntopk = 3\ntext_len = 20\nhead_scale = 3\nmask_thresh = 0.25\n"
            "attention_normalize = true\nscore_thresh = 0.35\nseed = 4\n"
        )
        fix = tmp_path / "fix"
        assert main(["gen-fixtures", "--out-dir", str(fix), "--config", str(config)]) == 0
        want = dataclasses.replace(RunConfig.from_file(config), vocab_path=str((fix / "vocab.txt").resolve()))
        assert RunConfig.from_file(fix / "run.cfg") == want

    def test_gen_fixtures_seed_flag(self, tmp_path):
        """The run file's seed picks the generated weights."""
        config = tmp_path / "gen.cfg"
        config.write_text("input_size = 64\nseed = 5\n")
        assert main(["gen-fixtures", "--out-dir", str(tmp_path / "fix"), "--config", str(config)]) == 0
        save_archive(generate_archive(RunConfig(input_size=64, seed=5)), tmp_path / "want.nmvg")
        assert filecmp.cmp(tmp_path / "fix" / "weights.nmvg", tmp_path / "want.nmvg", shallow=False)

    def test_gen_fixtures_default_is_the_64_pixel_seed_0_demo(self, tmp_path):
        assert main(["gen-fixtures", "--out-dir", str(tmp_path / "fix")]) == 0
        save_archive(generate_archive(RunConfig(input_size=64)), tmp_path / "want.nmvg")
        assert filecmp.cmp(tmp_path / "fix" / "weights.nmvg", tmp_path / "want.nmvg", shallow=False)

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("infer", "--topk 3"),
            ("infer", "--score-thresh 0.5"),
            ("infer", "--mask-thresh 0.25"),
            ("infer", "--attention-normalize"),
            ("infer", "--vocab vocab.txt"),
            ("gen-fixtures", "--size 96"),
            ("gen-fixtures", "--seed 5"),
        ],
    )
    def test_setting_flags_are_unknown(self, fixture_dir, tmp_path, capsys, command, flag):
        """Every run setting comes from the --config file or the defaults."""
        out = tmp_path / "out"
        if command == "infer":
            argv = _infer_argv(fixture_dir, out, "--config", str(fixture_dir / "run.cfg"), *flag.split())
        else:
            argv = ["gen-fixtures", "--out-dir", str(out), *flag.split()]
        assert main(argv) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_fixtures_then_infer(self, tmp_path, capsys):
        fix = tmp_path / "fix"
        assert main(["gen-fixtures", "--out-dir", str(fix)]) == 0
        rc = main([
            "infer",
            "--config", str(fix / "run.cfg"),
            "--weights", str(fix / "weights.nmvg"),
            "--image", str(fix / "image.ppm"),
            "--radar", str(fix / "radar.f32"),
            "--prompt", str(fix / "prompt.txt"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "boxes ->" in out and "mask ->" in out
        assert (tmp_path / "out" / "boxes.txt").exists()
        assert (tmp_path / "out" / "mask.pgm").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_infer_non_finite_weights_exits_two(self, fixture_dir, tmp_path, capsys, bad):
        raw = bytearray((fixture_dir / "weights.nmvg").read_bytes())
        (manifest_len,) = struct.unpack_from("<I", raw, 8)
        manifest = raw[12 : 12 + manifest_len].decode()
        _, _, dims, offset = next(
            line.split() for line in manifest.splitlines() if line.startswith("fpn.smooth2.kernel ")
        )
        flat = np.ravel_multi_index((0, 0, 1, 1), tuple(int(d) for d in dims.split(",")))
        struct.pack_into("<f", raw, 12 + manifest_len + int(offset) + 4 * int(flat), bad)
        weights = tmp_path / "bad.nmvg"
        weights.write_bytes(bytes(raw))
        rc = main([
            "infer",
            "--config", str(fixture_dir / "run.cfg"),
            "--weights", str(weights),
            "--image", str(fixture_dir / "image.ppm"),
            "--radar", str(fixture_dir / "radar.f32"),
            "--prompt", str(fixture_dir / "prompt.txt"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "fpn.smooth2.kernel" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_infer_overflowing_radar_exits_two(self, fixture_dir, tmp_path, capsys):
        """Raw radar x1e20 is finite, so the reader and the entry check take
        it, but it overflows float32 inside the model."""
        radar = _scaled_radar(fixture_dir, tmp_path, 1e20)
        config = str(fixture_dir / "run.cfg")
        assert main(_infer_argv(fixture_dir, tmp_path / "out", "--config", config, "--radar", str(radar))) == 2
        assert "output heatmap holds non-finite values" in capsys.readouterr().err
        assert not (tmp_path / "out" / "boxes.txt").exists()
        assert not (tmp_path / "out" / "mask.pgm").exists()

    def test_infer_overflowing_radar_prints_only_the_error(self, fixture_dir, tmp_path):
        """In a fresh interpreter, where numpy's overflow warnings would print
        (some from pool threads), stderr holds the error line alone."""
        radar = _scaled_radar(fixture_dir, tmp_path, 1e20)
        config = str(fixture_dir / "run.cfg")
        argv = _infer_argv(fixture_dir, tmp_path / "out", "--config", config, "--radar", str(radar))
        code = "import sys; from nmvg.cli import main; sys.exit(main(sys.argv[1:]))"
        env = dict(os.environ, PYTHONPATH=str(Path(model_mod.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 2
        assert done.stderr.splitlines() == ["error: forward output heatmap holds non-finite values"]

    @pytest.mark.parametrize("flag", ["--image", "--radar"])
    def test_infer_rejected_raster_exits_two(self, fixture_dir, tmp_path, capsys, flag):
        """A 96 px image at input size 64, or raw radar holding a NaN."""
        bad = tmp_path / "bad"
        if flag == "--image":
            write_ppm(bad, np.zeros((3, 96, 96), dtype=np.uint8))
        else:
            planes = np.fromfile(fixture_dir / "radar.f32", dtype="<f4")
            planes[123] = np.nan
            planes.tofile(bad)
        config = str(fixture_dir / "run.cfg")
        assert main(_infer_argv(fixture_dir, tmp_path / "out", "--config", config, flag, str(bad))) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @given(k=st.integers(0, 25))
    @example(k=20)
    @settings(max_examples=26, deadline=None)
    def test_scaled_radar_never_exits_zero_with_non_finite_output(self, fixture_dir, tmp_path_factory, k):
        """Raw radar scaled by 10**k: exit 0 only with finite outputs, else
        exit 2 with nothing written."""
        work = tmp_path_factory.mktemp("scaled")
        radar = _scaled_radar(fixture_dir, work, 10.0**k)
        config = fixture_dir / "run.cfg"
        rc = main(_infer_argv(fixture_dir, work / "out", "--config", str(config), "--radar", str(radar)))
        cfg = RunConfig.from_file(config)
        model = Model.from_archive(cfg, load_archive(fixture_dir / "weights.nmvg"))
        inputs = (
            read_image(fixture_dir / "image.ppm", cfg.input_size)[None],
            read_radar(radar, cfg.input_size)[None],
            tokenize((fixture_dir / "prompt.txt").read_text(), list(DEFAULT_VOCAB), cfg.text_len),
        )
        if rc == 0:
            out = model.forward(*inputs)
            for a in (out.heatmap, out.sizes, out.offsets, out.mask_logits):
                assert np.isfinite(a).all()
            assert (work / "out" / "boxes.txt").exists()
        else:
            assert rc == 2
            assert not (work / "out").exists()
            with pytest.raises(NonFiniteOutputError):
                model.forward(*inputs)

    def test_fuse_rep_round_trip(self, fixture_dir, tmp_path, capsys):
        dst = tmp_path / "fused.nmvg"
        rc = main(["fuse-rep", str(fixture_dir / "weights.nmvg"), str(dst)])
        assert rc == 0
        assert "res.msrep5.fused.kernel" in load_archive(dst)

    def test_eval_self_match_prints_hundreds(self, tmp_path, capsys):
        boxes = [DetectionBox(10, 10, 4, 4, 0.9), DetectionBox(30, 20, 6, 2, 0.8)]
        pred = tmp_path / "pred.txt"
        gt = tmp_path / "gt.txt"
        write_boxes(pred, boxes)
        write_boxes(gt, boxes)
        mask = np.zeros((16, 16), dtype=np.uint8)
        mask[4:9, 2:11] = 1
        pm = tmp_path / "pred.pgm"
        gm = tmp_path / "gt.pgm"
        write_mask(pm, mask)
        write_mask(gm, mask)
        rc = main([
            "eval",
            "--pred-boxes", str(pred), "--gt-boxes", str(gt),
            "--pred-mask", str(pm), "--gt-mask", str(gm),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("100.00") == 4

    @pytest.mark.parametrize(
        "pairs,message",
        [
            ("pred-boxes", "2 prediction lists but 1 ground-truth lists"),
            ("pred-mask", "2 predictions but 1 ground-truth masks"),
            ("gt-mask", "1 predictions but 2 ground-truth masks"),
        ],
    )
    def test_eval_unpaired_files_exit_two(self, tmp_path, capsys, pairs, message):
        """The library checks the pairing, once, for boxes and masks alike."""
        write_boxes(tmp_path / "b.txt", [DetectionBox(10, 10, 4, 4, 0.9)])
        write_mask(tmp_path / "m.pgm", np.ones((4, 4), dtype=np.uint8))
        files = {"pred-boxes": "b.txt", "gt-boxes": "b.txt", "pred-mask": "m.pgm", "gt-mask": "m.pgm"}
        argv = ["eval"] + [arg for flag, name in files.items() for arg in (f"--{flag}", str(tmp_path / name))]
        assert main([*argv, f"--{pairs}", str(tmp_path / files[pairs])]) == 2
        assert message in capsys.readouterr().err

    def test_mept_prints_expected_value(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "sample_id,energy_trained,energy_untrained\n"
            + "".join(f"s{i},50.0,22.0\n" for i in range(10))
        )
        rc = main(["mept", "--trace", str(trace), "--perf", "70.0", "--tau", "10"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "2.5"

    @pytest.mark.parametrize(
        "reading,perf", [("nan", "70.0"), ("inf", "70.0"), ("50.0", "nan"), ("50.0", "inf")]
    )
    def test_mept_non_finite_input_exits_two(self, tmp_path, capsys, reading, perf):
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "sample_id,energy_trained,energy_untrained\n"
            + "".join(f"s{i},{reading if i == 3 else 50.0},22.0\n" for i in range(10))
        )
        assert main(["mept", "--trace", str(trace), "--perf", perf]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    @pytest.mark.parametrize(
        "row,message",
        [
            ("s0", "expected 3 fields"),
            ("s0,10.0", "expected 3 fields"),
            ("s0,50.0,22.0,9.0", "expected 3 fields"),
            ("s0,50.0,lots", "non-numeric energy reading"),
        ],
    )
    def test_mept_malformed_trace_row_exits_two(self, tmp_path, capsys, row, message):
        trace = tmp_path / "trace.csv"
        trace.write_text(f"sample_id,energy_trained,energy_untrained\ns1,50.0,22.0\n{row}\n")
        assert main(["mept", "--trace", str(trace), "--perf", "70.0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{trace}:3: {message}" in captured.err

    def test_mept_corrupt_trace_exits_two(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("sample_id,energy_trained,energy_untrained\ns0,10.0,20.0\n")
        assert main(["mept", "--trace", str(trace), "--perf", "70.0"]) == 2
        assert "corrupt" in capsys.readouterr().err

    def test_config_flag_overrides(self, fixture_dir, tmp_path, capsys):
        """The --config file's topk caps the boxes written."""
        config = tmp_path / "run.cfg"
        config.write_text("input_size = 64\ntopk = 3\n")
        rc = main([
            "infer",
            "--config", str(config),
            "--weights", str(fixture_dir / "weights.nmvg"),
            "--image", str(fixture_dir / "image.ppm"),
            "--radar", str(fixture_dir / "radar.f32"),
            "--prompt", str(fixture_dir / "prompt.txt"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 0
        assert capsys.readouterr().out.startswith("3 boxes")
        assert len(read_boxes(tmp_path / "out" / "boxes.txt")) == 3

    @pytest.mark.parametrize(
        "line,message",
        [
            ("score_thresh = nan", "score_thresh must be finite"),
            ("mask_thresh = inf", "run.cfg:{lineno}: mask_thresh: mask_thresh must be finite, got inf"),
            ("topk = abc", "run.cfg:{lineno}: topk: invalid literal"),
            ("loss_config_path = x", "run.cfg:{lineno}: unknown setting 'loss_config_path'"),
        ],
    )
    def test_bad_config_setting_exits_two(self, fixture_dir, tmp_path, capsys, line, message):
        text = (fixture_dir / "run.cfg").read_text() + line + "\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(_infer_argv(fixture_dir, tmp_path / "out", "--config", str(cfg))) == 2
        assert message.format(lineno=text.count("\n")) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_of_range_config_setting_exits_two_naming_its_line(self, fixture_dir, tmp_path, capsys):
        text = (fixture_dir / "run.cfg").read_text() + "score_thresh = nan\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(_infer_argv(fixture_dir, tmp_path / "out", "--config", str(cfg))) == 2
        err = capsys.readouterr().err
        assert f"run.cfg:{text.count(chr(10))}: score_thresh: score_thresh must be finite" in err
        assert not (tmp_path / "out").exists()

    def test_selftest_passes_every_check(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "21/21 checks passed" in out


class TestOptionSurface:
    """The pinned option surface: a new flag or config field has to be added
    here in the same change, so it is seen in review."""

    FLAGS = {
        "infer": {"--weights", "--image", "--radar", "--prompt", "--out-dir", "--config"},
        "fuse-rep": {"src", "dst"},
        "eval": {"--pred-boxes", "--gt-boxes", "--pred-mask", "--gt-mask"},
        "mept": {"--trace", "--perf", "--tau"},
        "selftest": set(),
        "gen-fixtures": {"--out-dir", "--config"},
    }

    def test_subcommand_flags_pinned(self):
        (commands,) = (a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        got = {
            name: {s for a in p._actions for s in (a.option_strings or [a.dest])} - {"-h", "--help"}
            for name, p in commands.items()
        }
        assert got == self.FLAGS

    def test_run_config_fields_pinned(self):
        assert list(RunConfig.__dataclass_fields__) == [
            "input_size", "text_len", "attention_normalize", "head_scale", "topk",
            "score_thresh", "mask_thresh", "seed", "vocab_path",
        ]


class TestConfigDocs:
    """Every setting a config file accepts is documented in the README."""

    @staticmethod
    def _section() -> str:
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        return readme.split("## Configuration files", 1)[1].split("\n## ", 1)[0]

    @pytest.mark.parametrize("name", RunConfig.__dataclass_fields__)
    def test_setting_listed_in_readme(self, name):
        assert f"{name} = " in self._section()
