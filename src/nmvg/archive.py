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
import os
import struct
from collections.abc import Iterable, Mapping
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

    An archive owns one private, aligned float32 buffer and marks it
    read-only; every entry is a read-only view of it.  `load_archive`
    reads the blob bytes its entries cover from the file into it in one
    read, and the constructor concatenates its cast entries into it, so
    the archive never aliases its input.
    Both ways share one finiteness rule: the buffer is scanned once, and
    only when that scan finds a NaN or an infinity are the entries checked
    in order, so NonFiniteError names the first bad entry and bytes that no
    entry covers are not checked.  `entries` is a read-only mapping.
    """

    entries: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        cast = {str(name): np.asarray(arr, dtype=np.float32) for name, arr in self.entries.items()}
        table, start = {}, 0
        for name, a in cast.items():
            table[name] = (start, a.shape or (1,))
            start += a.size
        buf = np.concatenate([a.ravel() for a in cast.values()]) if cast else np.empty(0, np.float32)
        object.__setattr__(self, "entries", MappingProxyType(_views(buf, table)))

    @classmethod
    def _of(cls, entries: Mapping[str, np.ndarray]) -> WeightArchive:
        """An archive holding ``entries`` as given: read-only arrays that
        are already checked."""
        archive = cls.__new__(cls)
        object.__setattr__(archive, "entries", MappingProxyType(entries))
        return archive

    def _replace_entries(self, drop: Iterable[str], add: Mapping[str, np.ndarray]) -> WeightArchive:
        """A new archive without the entries named in ``drop`` and with the
        entries of ``add``, which are copied and checked as the constructor
        does. The entries kept from this archive are shared, not copied."""
        added = WeightArchive(entries=add).entries
        drop = set(drop)
        kept = {name: arr for name, arr in self.entries.items() if name not in drop}
        return WeightArchive._of({**kept, **added})

    def get(self, name: str) -> np.ndarray:
        try:
            return self.entries[name]
        except KeyError:
            raise MissingParameterError(f"weight archive has no entry {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def _views(buf: np.ndarray, table: Mapping[str, tuple[int, tuple[int, ...]]]) -> dict[str, np.ndarray]:
    """Read-only views of ``buf``, a 1-D float32 array the archive takes
    over, one per ``name -> (first element, shape)`` of ``table`` and in
    its order.  The finiteness rule of every archive: one scan of ``buf``,
    and only when it fails, one scan per entry to name the first bad one;
    values outside every entry may be anything."""
    buf.flags.writeable = False
    views = {name: buf[start : start + math.prod(shape)].reshape(shape) for name, (start, shape) in table.items()}
    if not np.isfinite(buf).all():
        for name, view in views.items():
            if not np.isfinite(view).all():
                raise NonFiniteError(f"entry {name!r} holds NaN or infinite values")
    return views


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
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) < 12 or head[:4] != MAGIC:
            raise BadMagicError(f"{path} is not a weight archive (bad magic)")
        version, manifest_len = struct.unpack_from("<II", head, 4)
        if version != VERSION:
            raise ManifestError(f"unsupported archive version {version}")
        base = 12 + manifest_len
        blob_len = os.fstat(fh.fileno()).st_size - base
        if blob_len < 0:
            raise ManifestError("manifest length exceeds the file size")
        entries, spans = _parse_manifest(fh.read(manifest_len).decode("utf-8"), blob_len)
        if not spans:
            return WeightArchive()
        # One read of the bytes the entries cover, from the first entry's
        # start, into a float32 buffer: an entry starting a multiple of 4
        # bytes after it is an aligned view.  When no one buffer aligns
        # every entry, the bytes are read as they are and the constructor
        # copies each entry.
        lo, hi = spans[0][0], spans[-1][1]
        misaligned = any((offset - lo) % 4 for offset, _, _ in spans)
        buf = np.empty(hi - lo, np.uint8) if misaligned else np.empty((hi - lo) // 4, "<f4")
        fh.seek(base + lo)
        if fh.readinto(buf) != hi - lo:
            raise BlobBoundsError(f"{path} ended before its blob did")
    if misaligned:
        return WeightArchive(
            entries={
                name: np.frombuffer(buf, "<f4", math.prod(shape), offset - lo).reshape(shape)
                for name, (offset, shape) in entries.items()
            }
        )
    table = {name: ((offset - lo) // 4, shape) for name, (offset, shape) in entries.items()}
    return WeightArchive._of(_views(buf.astype(np.float32, copy=False), table))


def _parse_manifest(manifest: str, blob_len: int) -> tuple[dict, list]:
    """``name -> (byte offset, shape)`` in manifest order, and the entries'
    ``(offset, end, name)`` spans in blob order, checked not to overlap."""
    spans = []
    entries: dict[str, tuple[int, tuple[int, ...]]] = {}
    for lineno, raw in enumerate(manifest.splitlines(), 1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 4:
            raise ManifestError(f"manifest line {lineno}: expected 4 fields, got {len(parts)}")
        name, dtype, shape_s, offset_s = parts
        if dtype != "f32":
            raise ManifestError(f"manifest line {lineno}: unsupported dtype {dtype!r}")
        if name in entries:
            raise ManifestError(f"manifest line {lineno}: duplicate entry {name!r}")
        try:
            shape = tuple(map(int, shape_s.split(",")))
            offset = int(offset_s)
        except ValueError:
            raise ManifestError(f"manifest line {lineno}: bad shape or offset") from None
        if min(shape) < 1:
            raise ManifestError(f"manifest line {lineno}: invalid shape {shape}")
        if offset < 0:
            raise ManifestError(f"manifest line {lineno}: negative offset")
        end = offset + 4 * math.prod(shape)  # exact: an int64 product can wrap past the bounds check
        if end > blob_len:
            raise BlobBoundsError(
                f"entry {name!r}: blob out of bounds (needs bytes up to {end}, blob has {blob_len})"
            )
        spans.append((offset, end, name))
        entries[name] = (offset, shape)
    spans.sort()
    for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise OffsetOverlapError(f"entries {n0!r} and {n1!r} claim overlapping offsets")
    return entries, spans
