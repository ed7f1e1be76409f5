"""Property tests for the input parsers: arbitrary bytes, alone or behind a
valid prefix (archive magic, netpbm header, CSV header, config key), are
either parsed or rejected with the documented error type (``ArchiveError``,
``RasterError`` or another ``ValueError``, which the CLI maps to exit 2),
never with ``IndexError``, ``struct.error``, ``TypeError`` or
``MemoryError``.  Every float setting accepts exactly the finite values in
its range."""

import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmvg.archive import MAGIC, VERSION, ArchiveError, load_archive
from nmvg.encoders import load_vocab
from nmvg.losses import LossConfig
from nmvg.metrics import EnergyTrace
from nmvg.model import RunConfig
from nmvg.rasters import RasterError, read_boxes, read_image, read_mask, read_radar

DOCUMENTED = (ArchiveError, RasterError, ValueError)
# Bounded, not derandomized: each run draws fresh examples.
FUZZ = settings(max_examples=100, deadline=None)
SIZE = 4


def _fuzz_bytes(*prefixes: bytes):
    return st.tuples(st.sampled_from(prefixes), st.binary(max_size=96)).map(b"".join)


_ARCHIVE = _fuzz_bytes(
    b"",
    MAGIC,
    MAGIC + struct.pack("<II", VERSION, 20),
    MAGIC + struct.pack("<II", VERSION, 12) + b"w f32 2,2 0\n",
)
_NETPBM = _fuzz_bytes(
    b"",
    b"P5",
    b"P6",
    b"P5 4 4 255\n",
    b"P6 4 4 255\n",
    b"P5\n# comment\n4 4\n255\n",
)
_BOXES = _fuzz_bytes(b"", b"1 2 3 4 0.5\n", b"1 2 3 4\n")
_TRACE = _fuzz_bytes(b"", b"sample_id,energy_trained,energy_untrained\n", b"sample_id,energy_trained,energy_untrained\ns0,5,")
_CONFIG = _fuzz_bytes(b"", *(f"{k} = ".encode() for k in RunConfig.__dataclass_fields__))


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _parse(path, data: bytes, parser) -> None:
    path.write_bytes(data)
    try:
        parser(path)
    except DOCUMENTED:
        pass


@FUZZ
@given(data=_ARCHIVE)
def test_load_archive(fuzz_file, data):
    _parse(fuzz_file, data, load_archive)


@FUZZ
@given(data=_NETPBM)
def test_read_image(fuzz_file, data):
    _parse(fuzz_file, data, lambda p: read_image(p, SIZE))


@FUZZ
@given(data=_NETPBM | st.binary(min_size=3 * SIZE * SIZE * 4, max_size=3 * SIZE * SIZE * 4))
def test_read_radar(fuzz_file, data):
    _parse(fuzz_file, data, lambda p: read_radar(p, SIZE))


@FUZZ
@given(data=_NETPBM)
def test_read_mask(fuzz_file, data):
    _parse(fuzz_file, data, read_mask)


@FUZZ
@given(data=_BOXES, with_scores=st.booleans())
def test_read_boxes(fuzz_file, data, with_scores):
    _parse(fuzz_file, data, lambda p: read_boxes(p, with_scores=with_scores))


@FUZZ
@given(data=_TRACE)
def test_energy_trace_from_csv(fuzz_file, data):
    _parse(fuzz_file, data, EnergyTrace.from_csv)


@FUZZ
@given(data=_CONFIG)
def test_run_config_from_file(fuzz_file, data):
    _parse(fuzz_file, data, RunConfig.from_file)


_NON_NEGATIVE = ("alpha_conf", "beta_conf", "alpha_res", "gamma_res")
#: Every float setting, with the least value it accepts.
_FLOAT_SETTINGS = [
    (RunConfig, "score_thresh", -math.inf),
    (RunConfig, "mask_thresh", -math.inf),
    *((LossConfig, name, 0.0 if name in _NON_NEGATIVE else -math.inf) for name in LossConfig.__dataclass_fields__),
]


@pytest.mark.parametrize("cls,name,least", _FLOAT_SETTINGS)
@FUZZ
@given(value=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=5e-324)
def test_float_setting_accepts_exactly_finite_values(cls, name, least, value):
    if math.isfinite(value) and value >= least:
        assert getattr(cls(**{name: value}), name) == value
    else:
        with pytest.raises(ValueError, match=name):
            cls(**{name: value})


@FUZZ
@given(data=_fuzz_bytes(b""))
def test_load_vocab(fuzz_file, data):
    _parse(fuzz_file, data, load_vocab)
