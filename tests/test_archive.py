import struct

import numpy as np
import pytest

from nmvg.archive import (
    MAGIC,
    VERSION,
    BadMagicError,
    BlobBoundsError,
    ManifestError,
    MissingParameterError,
    NonFiniteError,
    OffsetOverlapError,
    WeightArchive,
    load_archive,
    save_archive,
)


def _raw(manifest: bytes, blob: bytes, magic=MAGIC, version=VERSION) -> bytes:
    return magic + struct.pack("<II", version, len(manifest)) + manifest + blob


class TestWeightArchive:
    def test_round_trip_preserves_values_and_shapes(self, tmp_path):
        rng = np.random.default_rng(0)
        entries = {
            "a.kernel": rng.standard_normal((3, 2, 3, 3)).astype(np.float32),
            "a.bias": rng.standard_normal(3).astype(np.float32),
            "b.gamma": rng.standard_normal((7,)).astype(np.float32),
        }
        path = tmp_path / "w.nmvg"
        save_archive(WeightArchive(entries=dict(entries)), path)
        back = load_archive(path)
        assert len(back) == 3
        for name, arr in entries.items():
            got = back.get(name)
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, arr)

    def test_scalar_promoted_to_one_element_vector(self, tmp_path):
        a = WeightArchive(entries={"theta": np.float32(0.25)})
        assert a.get("theta").shape == (1,)
        path = tmp_path / "w.nmvg"
        save_archive(a, path)
        assert load_archive(path).get("theta").shape == (1,)

    def test_float64_input_narrowed(self):
        a = WeightArchive(entries={"x": np.array([1.0, 2.0])})
        assert a.get("x").dtype == np.float32

    def test_missing_name_raises_with_key(self):
        a = WeightArchive(entries={"present": np.zeros(1)})
        with pytest.raises(MissingParameterError, match="absent.name"):
            a.get("absent.name")

    def test_contains_and_len(self):
        a = WeightArchive(entries={"x": np.zeros(2)})
        assert "x" in a and "y" not in a
        assert len(a) == 1

    def test_owns_a_copy_of_each_entry(self):
        src = np.zeros(2, dtype=np.float32)
        a = WeightArchive(entries={"x": src})
        src[0] = 5.0
        assert a.get("x")[0] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected_when_built(self, bad):
        with pytest.raises(NonFiniteError, match="'w'"):
            WeightArchive(entries={"ok": np.zeros(2), "w": np.array([0.0, bad])})

    def test_assigning_an_entry_raises(self):
        a = WeightArchive(entries={"x": np.zeros(2)})
        with pytest.raises(TypeError):
            a.entries["y"] = np.zeros(1)
        assert "y" not in a

    def test_deleting_an_entry_raises(self):
        a = WeightArchive(entries={"x": np.zeros(2)})
        with pytest.raises(TypeError):
            del a.entries["x"]
        assert "x" in a

    def test_writing_into_an_entry_raises(self):
        a = WeightArchive(entries={"x": np.zeros(2)})
        with pytest.raises(ValueError, match="read-only"):
            a.get("x")[0] = np.nan
        assert np.isfinite(a.get("x")).all()

    def test_replace_entries_shares_the_kept_entries(self):
        a = WeightArchive(entries={"x": np.zeros(2), "y": np.ones(3), "z": np.zeros(1)})
        src = np.full(2, 5.0, dtype=np.float32)
        b = a._replace_entries(["y"], {"w": src})
        assert list(b.entries) == ["x", "z", "w"] and "y" in a
        assert b.get("x") is a.get("x") and b.get("z") is a.get("z")
        src[0] = 0.0
        assert b.get("w")[0] == 5.0
        with pytest.raises(ValueError, match="read-only"):
            b.get("w")[1] = 0.0
        with pytest.raises(TypeError):
            b.entries["v"] = np.zeros(1)

    def test_replace_entries_checks_the_added_entries(self):
        a = WeightArchive(entries={"x": np.zeros(2)})
        with pytest.raises(NonFiniteError, match="'w'"):
            a._replace_entries([], {"w": np.array([0.0, np.nan])})

    def test_whitespace_name_rejected_on_save(self, tmp_path):
        a = WeightArchive(entries={"bad name": np.zeros(1)})
        with pytest.raises(ManifestError, match="whitespace"):
            save_archive(a, tmp_path / "w.nmvg")


class TestLoadErrors:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "w.nmvg"
        p.write_bytes(_raw(b"", b"", magic=b"JUNK"))
        with pytest.raises(BadMagicError):
            load_archive(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "w.nmvg"
        p.write_bytes(MAGIC + b"\x01")
        with pytest.raises(BadMagicError):
            load_archive(p)

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "w.nmvg"
        p.write_bytes(_raw(b"x f32 1 0\n", b"\0" * 4, version=9))
        with pytest.raises(ManifestError, match="version"):
            load_archive(p)

    def test_manifest_length_beyond_file(self, tmp_path):
        p = tmp_path / "w.nmvg"
        p.write_bytes(MAGIC + struct.pack("<II", VERSION, 1000) + b"short")
        with pytest.raises(ManifestError, match="length"):
            load_archive(p)

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "w.nmvg"
        p.write_bytes(_raw(b"x f32 1\n", b"\0" * 4))
        with pytest.raises(ManifestError, match="4 fields"):
            load_archive(p)

    def test_unsupported_dtype(self, tmp_path):
        p = tmp_path / "w.nmvg"
        p.write_bytes(_raw(b"x f64 1 0\n", b"\0" * 8))
        with pytest.raises(ManifestError, match="dtype"):
            load_archive(p)

    def test_duplicate_names(self, tmp_path):
        p = tmp_path / "w.nmvg"
        p.write_bytes(_raw(b"x f32 1 0\nx f32 1 4\n", b"\0" * 8))
        with pytest.raises(ManifestError, match="duplicate"):
            load_archive(p)

    def test_malformed_shape(self, tmp_path):
        p = tmp_path / "w.nmvg"
        p.write_bytes(_raw(b"x f32 1,a 0\n", b"\0" * 8))
        with pytest.raises(ManifestError, match="bad shape"):
            load_archive(p)

    def test_zero_dimension_rejected(self, tmp_path):
        p = tmp_path / "w.nmvg"
        p.write_bytes(_raw(b"x f32 0 0\n", b""))
        with pytest.raises(ManifestError, match="invalid shape"):
            load_archive(p)

    def test_negative_offset_rejected(self, tmp_path):
        p = tmp_path / "w.nmvg"
        p.write_bytes(_raw(b"x f32 1 -4\n", b"\0" * 4))
        with pytest.raises(ManifestError):
            load_archive(p)

    def test_blob_out_of_bounds(self, tmp_path):
        p = tmp_path / "w.nmvg"
        p.write_bytes(_raw(b"x f32 4 0\n", b"\0" * 8))
        with pytest.raises(BlobBoundsError, match="out of bounds"):
            load_archive(p)

    @pytest.mark.parametrize("shape", [b"3,4611686018427387904", b"4611686018427387904,4"])
    def test_shape_past_int64_is_out_of_bounds(self, tmp_path, shape):
        # 3 * 2**62 and 4 * 2**62 wrap to negative and zero in int64.
        p = tmp_path / "w.nmvg"
        p.write_bytes(_raw(b"x f32 " + shape + b" 0\n", b"\0" * 16))
        with pytest.raises(BlobBoundsError, match="out of bounds"):
            load_archive(p)

    def test_overlapping_entries(self, tmp_path):
        p = tmp_path / "w.nmvg"
        p.write_bytes(_raw(b"x f32 2 0\ny f32 2 4\n", b"\0" * 12))
        with pytest.raises(OffsetOverlapError, match="overlap"):
            load_archive(p)

    def test_adjacent_entries_allowed(self, tmp_path):
        p = tmp_path / "w.nmvg"
        blob = struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)
        p.write_bytes(_raw(b"x f32 2 0\ny f32 2 8\n", blob))
        a = load_archive(p)
        np.testing.assert_array_equal(a.get("x"), [1.0, 2.0])
        np.testing.assert_array_equal(a.get("y"), [3.0, 4.0])

    def test_out_of_order_offsets_allowed(self, tmp_path):
        """Manifest order need not follow blob order."""
        p = tmp_path / "w.nmvg"
        blob = struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)
        p.write_bytes(_raw(b"hi f32 2 8\nlo f32 2 0\n", blob))
        a = load_archive(p)
        np.testing.assert_array_equal(a.get("lo"), [1.0, 2.0])
        np.testing.assert_array_equal(a.get("hi"), [3.0, 4.0])

    def test_blank_manifest_lines_skipped(self, tmp_path):
        p = tmp_path / "w.nmvg"
        blob = struct.pack("<f", 5.0)
        p.write_bytes(_raw(b"\nx f32 1 0\n\n", blob))
        assert load_archive(p).get("x")[0] == 5.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_entry_rejected_by_name(self, tmp_path, bad):
        p = tmp_path / "w.nmvg"
        blob = struct.pack("<4f", 1.0, 2.0, bad, 4.0)
        p.write_bytes(_raw(b"ok f32 2 0\nbad.kernel f32 2 8\n", blob))
        with pytest.raises(NonFiniteError, match="bad.kernel"):
            load_archive(p)

    def test_non_finite_bytes_in_a_gap_are_legal(self, tmp_path):
        """Only entry ranges are checked; unreferenced blob bytes are free."""
        p = tmp_path / "w.nmvg"
        blob = struct.pack("<3f", 1.0, float("nan"), 3.0)
        p.write_bytes(_raw(b"x f32 1 0\ny f32 1 8\n", blob))
        a = load_archive(p)
        assert a.get("x")[0] == 1.0 and a.get("y")[0] == 3.0

    def test_error_hierarchy(self):
        for exc in (BadMagicError, ManifestError, BlobBoundsError, OffsetOverlapError, MissingParameterError):
            assert issubclass(exc, ValueError)


class TestEndianness:
    def test_blob_is_little_endian(self, tmp_path):
        p = tmp_path / "w.nmvg"
        save_archive(WeightArchive(entries={"x": np.array([1.0], dtype=np.float32)}), p)
        raw = p.read_bytes()
        # 1.0f little-endian is 00 00 80 3f at the end of the file
        assert raw.endswith(b"\x00\x00\x80\x3f")

    def test_header_fields_little_endian(self, tmp_path):
        p = tmp_path / "w.nmvg"
        save_archive(WeightArchive(entries={"x": np.zeros(1, dtype=np.float32)}), p)
        raw = p.read_bytes()
        assert raw[:4] == MAGIC
        assert struct.unpack("<I", raw[4:8])[0] == VERSION
