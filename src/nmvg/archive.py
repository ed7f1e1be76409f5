"""Flat binary weight archives.

Layout:

  bytes 0..3   magic "NMVG"
  bytes 4..7   format version, little-endian u32 (currently 1)
  bytes 8..11  manifest length in bytes, little-endian u32
  manifest     UTF-8 text, one entry per line:
                 <name> f32 <d0,d1,...> <byte offset into blob>
  blob         little-endian float32 payload

Offsets index the blob (not the file).  Entries may not overlap, must
stay inside the blob and must hold only finite values (WeightArchive
checks that); every lookup of an absent name fails loudly.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

MAGIC = b"NMVG"
VERSION = 1


class ArchiveError(ValueError):
    """Base class for weight archive problems."""


class BadMagicError(ArchiveError):
    """The file does not start with the archive magic."""


class ManifestError(ArchiveError):
    """The manifest text or header fields cannot be interpreted."""


class BlobBoundsError(ArchiveError):
    """An entry points outside the stored blob."""


class OffsetOverlapError(ArchiveError):
    """Two entries claim overlapping blob ranges."""


class NonFiniteError(ArchiveError):
    """An entry holds a NaN or an infinity."""


class MissingParameterError(ArchiveError):
    """A required parameter name is absent from the archive."""


@dataclass(frozen=True, eq=False)
class WeightArchive:
    """Named float32 tensors; the unit every model binds its weights from.

    Building one is the only finiteness check of weights, from a file or
    from memory: an entry holding a NaN or an infinity raises
    NonFiniteError naming it. Afterwards the archive cannot change:
    `entries` is a read-only mapping of read-only float32 copies that the
    archive owns.
    """

    entries: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        owned = {}
        for name, arr in self.entries.items():
            a = np.array(arr, dtype=np.float32, order="C", ndmin=1)
            if not np.isfinite(a).all():
                raise NonFiniteError(f"entry {name!r} holds NaN or infinite values")
            a.flags.writeable = False
            owned[str(name)] = a
        object.__setattr__(self, "entries", MappingProxyType(owned))

    def get(self, name: str) -> np.ndarray:
        try:
            return self.entries[name]
        except KeyError:
            raise MissingParameterError(f"weight archive has no entry {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def save_archive(archive: WeightArchive, path: str | Path) -> None:
    lines = []
    blob = bytearray()
    for name, arr in archive.entries.items():
        if any(ch.isspace() for ch in name):
            raise ManifestError(f"entry name {name!r} contains whitespace")
        shape = ",".join(str(d) for d in arr.shape)
        lines.append(f"{name} f32 {shape} {len(blob)}")
        blob += arr.astype("<f4").tobytes()
    manifest = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(manifest)))
        fh.write(manifest)
        fh.write(bytes(blob))


def load_archive(path: str | Path) -> WeightArchive:
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != MAGIC:
        raise BadMagicError(f"{path} is not a weight archive (bad magic)")
    version, manifest_len = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise ManifestError(f"unsupported archive version {version}")
    if 12 + manifest_len > len(data):
        raise ManifestError("manifest length exceeds the file size")
    manifest = data[12 : 12 + manifest_len].decode("utf-8")
    blob = memoryview(data)[12 + manifest_len :]

    spans = []
    entries: dict[str, np.ndarray] = {}
    for lineno, raw in enumerate(manifest.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ManifestError(f"manifest line {lineno}: expected 4 fields, got {len(parts)}")
        name, dtype, shape_s, offset_s = parts
        if dtype != "f32":
            raise ManifestError(f"manifest line {lineno}: unsupported dtype {dtype!r}")
        if name in entries:
            raise ManifestError(f"manifest line {lineno}: duplicate entry {name!r}")
        try:
            shape = tuple(int(d) for d in shape_s.split(","))
            offset = int(offset_s)
        except ValueError:
            raise ManifestError(f"manifest line {lineno}: bad shape or offset") from None
        if not shape or any(d < 1 for d in shape):
            raise ManifestError(f"manifest line {lineno}: invalid shape {shape}")
        if offset < 0:
            raise ManifestError(f"manifest line {lineno}: negative offset")
        count = math.prod(shape)  # exact: an int64 product can wrap past the bounds check
        end = offset + 4 * count
        if end > len(blob):
            raise BlobBoundsError(
                f"entry {name!r}: blob out of bounds (needs bytes up to {end}, blob has {len(blob)})"
            )
        spans.append((offset, end, name))
        entries[name] = np.frombuffer(blob, dtype="<f4", count=count, offset=offset).reshape(shape)
    spans.sort()
    for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise OffsetOverlapError(f"entries {n0!r} and {n1!r} claim overlapping offsets")
    return WeightArchive(entries=entries)
