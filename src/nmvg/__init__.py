"""Desk-scale inference runtime for grounding objects from image, radar
and a text prompt.  Pure numpy, deterministic, file-driven."""

from .archive import (
    ArchiveError,
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
from .heads import BinaryMask, DetectionBox, decode_boxes, msrep_fuse
from .losses import LossConfig, UncertaintyWeights, total_loss
from .metrics import EnergyTrace, EvalResult, average_precision, box_iou, mask_miou, mept
from .model import (
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
from .tensor import ShapeError

__version__ = "0.1.0"

__all__ = [
    "ArchiveError",
    "BadMagicError",
    "BinaryMask",
    "BlobBoundsError",
    "DEFAULT_VOCAB",
    "DetectionBox",
    "EnergyTrace",
    "EvalResult",
    "LossConfig",
    "ManifestError",
    "MissingParameterError",
    "NonFiniteError",
    "NonFiniteOutputError",
    "Model",
    "OffsetOverlapError",
    "RunConfig",
    "ShapeError",
    "UncertaintyWeights",
    "WeightArchive",
    "average_precision",
    "box_iou",
    "decode_boxes",
    "fuse_archive",
    "generate_archive",
    "generate_fixtures",
    "load_archive",
    "mask_miou",
    "mept",
    "msrep_fuse",
    "parameter_shapes",
    "run_infer",
    "save_archive",
    "total_loss",
    "__version__",
]
