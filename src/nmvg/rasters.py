"""Raster, box-list and mask file I/O.

Images arrive as binary netpbm (P6 color, P5 gray, 8-bit) and are scaled
to [0, 1].  Radar additionally accepts a raw little-endian float32 file
holding three planes (range, velocity, power) in channel-major order.
Boxes serialize one per line as `cx cy w h score`; masks serialize as P5
with foreground 255.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .heads import BinaryMask, DetectionBox


class RasterError(ValueError):
    """A raster or box file cannot be interpreted."""


def _read_netpbm(data: bytes, path) -> tuple[str, int, int, np.ndarray]:
    if len(data) < 2 or data[:1] != b"P" or data[1:2] not in (b"5", b"6"):
        raise RasterError(f"{path}: not a binary P5/P6 netpbm file")
    magic = data[:2].decode()
    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(data):
            raise RasterError(f"{path}: truncated netpbm header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError:
        raise RasterError(f"{path}: malformed netpbm header") from None
    if width < 0 or height < 0:
        raise RasterError(f"{path}: negative netpbm size {width}x{height}")
    if maxval != 255:
        raise RasterError(f"{path}: only maxval 255 is supported, got {maxval}")
    channels = 3 if magic == "P6" else 1
    need = width * height * channels
    raw = data[pos : pos + need]
    if len(raw) != need:
        raise RasterError(f"{path}: expected {need} pixel bytes, found {len(raw)}")
    pixels = np.frombuffer(raw, dtype=np.uint8)
    return magic, width, height, pixels


def _write_netpbm(path: str | Path, magic: str, pixels: np.ndarray) -> None:
    """Write (H, W) gray or (H, W, 3) color values as 8-bit P5/P6, rounded
    and clipped to [0, 255]."""
    h, w = pixels.shape[:2]
    body = np.clip(np.rint(pixels), 0, 255).astype(np.uint8).tobytes()
    Path(path).write_bytes(f"{magic}\n{w} {h}\n255\n".encode() + body)


def write_ppm(path: str | Path, rgb: np.ndarray) -> None:
    arr = np.asarray(rgb)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise RasterError(f"write_ppm expects (3, H, W), got shape {arr.shape}")
    _write_netpbm(path, "P6", arr.transpose(1, 2, 0))


def _netpbm_planes(data: bytes, path, size: int, what: str) -> np.ndarray:
    """Decode a P6/P5 raster as (3, size, size) in [0, 1]; gray replicates."""
    magic, w, h, px = _read_netpbm(data, path)
    if (h, w) != (size, size):
        raise RasterError(f"{path}: {what} is {w}x{h}, run configuration wants {size}x{size}")
    if magic == "P6":
        arr = px.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float32)
    else:
        arr = np.broadcast_to(px.reshape(1, h, w), (3, h, w)).astype(np.float32)
    return arr / 255.0


def read_image(path: str | Path, size: int) -> np.ndarray:
    """Load the camera raster as (3, size, size); P5 replicates to 3 planes."""
    return _netpbm_planes(Path(path).read_bytes(), path, size, "image")


def read_radar(path: str | Path, size: int) -> np.ndarray:
    """Load radar planes as (3, size, size).

    Netpbm inputs scale to [0, 1] (gray replicates across the planes); any
    other file is treated as raw little-endian float32 with exactly
    3 * size * size values.
    """
    data = Path(path).read_bytes()
    if data[:2] in (b"P5", b"P6"):
        return _netpbm_planes(data, path, size, "radar")
    need = 3 * size * size * 4
    if len(data) != need:
        raise RasterError(
            f"{path}: raw radar must hold exactly {need} bytes (3 x {size} x {size} float32), found {len(data)}"
        )
    arr = np.frombuffer(data, dtype="<f4").reshape(3, size, size).astype(np.float32)
    if not np.isfinite(arr).all():
        raise RasterError(f"{path}: raw radar contains non-finite values")
    return arr


def write_radar_raw(path: str | Path, planes: np.ndarray) -> None:
    arr = np.asarray(planes, dtype=np.float32)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise RasterError(f"raw radar must be (3, H, W), got shape {arr.shape}")
    Path(path).write_bytes(arr.astype("<f4").tobytes())


def write_mask(path: str | Path, mask) -> None:
    """Write a BinaryMask, or an array it accepts, as P5 with foreground 255."""
    bitmap = (mask if isinstance(mask, BinaryMask) else BinaryMask(mask)).bitmap
    _write_netpbm(path, "P5", bitmap * 255)


def read_mask(path: str | Path) -> np.ndarray:
    """Read a P5 mask back to a {0, 1} uint8 bitmap (any non-zero is 1)."""
    magic, w, h, px = _read_netpbm(Path(path).read_bytes(), path)
    if magic != "P5":
        raise RasterError(f"{path}: expected a P5 gray image")
    return (px.reshape(h, w) > 0).astype(np.uint8)


def write_boxes(path: str | Path, boxes) -> None:
    # repr gives the shortest decimal that parses back to the same float,
    # so a clipped score like 1 - 1e-7 survives the round trip.
    lines = [
        f"{b.cx!r} {b.cy!r} {b.w!r} {b.h!r} {b.score!r}" for b in boxes
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_boxes(path: str | Path, with_scores: bool = True) -> list:
    """Parse box lines.  With scores the result is DetectionBox objects;
    without, plain (cx, cy, w, h) tuples (a trailing score column is
    tolerated and ignored)."""
    out = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        try:
            vals = [float(v) for v in parts]
        except ValueError:
            raise RasterError(f"{path}:{lineno}: non-numeric box field") from None
        if not np.isfinite(vals).all():
            raise RasterError(f"{path}:{lineno}: non-finite box field")
        if with_scores:
            if len(vals) != 5:
                raise RasterError(f"{path}:{lineno}: expected `cx cy w h score`")
            out.append(DetectionBox(*vals))
        else:
            if len(vals) not in (4, 5):
                raise RasterError(f"{path}:{lineno}: expected `cx cy w h`")
            out.append(tuple(vals[:4]))
    return out
