"""Command line front end.

Exit codes: 0 on success, 1 for usage problems, 2 when an input file or
value cannot be used.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import selftest as selftest_mod
from .archive import load_archive, save_archive
from .metrics import EnergyTrace, average_precision, mask_miou, mept
from .model import RunConfig, fuse_archive, generate_fixtures, run_infer
from .rasters import read_boxes, read_mask


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cmd_infer(args) -> int:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    # An input that overflows inside the model ends in NonFiniteOutputError,
    # so the numpy warnings on the way there would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_infer(cfg, load_archive(args.weights), args.image, args.radar, args.prompt, args.out_dir)
    print(f"{len(result.boxes)} boxes -> {result.boxes_path}")
    print(f"mask -> {result.mask_path}")
    return 0


def _cmd_fuse_rep(args) -> int:
    fused = fuse_archive(load_archive(args.src))
    save_archive(fused, args.dst)
    print(f"fused archive -> {args.dst}")
    return 0


def _cmd_eval(args) -> int:
    preds = [read_boxes(p, with_scores=True) for p in args.pred_boxes]
    gts = [read_boxes(p, with_scores=False) for p in args.gt_boxes]
    result = average_precision(preds, gts)
    print(f"AP50     {result.ap50:8.2f}")
    print(f"AP50:95  {result.ap50_95:8.2f}")
    print(f"AR50:95  {result.ar50_95:8.2f}")
    if args.pred_mask or args.gt_mask:
        miou = mask_miou(
            [read_mask(p) for p in args.pred_mask],
            [read_mask(p) for p in args.gt_mask],
        )
        print(f"mIoU     {miou:8.2f}")
    return 0


def _cmd_mept(args) -> int:
    trace = EnergyTrace.from_csv(args.trace, tau=args.tau)
    value = mept(args.perf, trace)
    print(f"{value:g}")
    return 0


def _cmd_selftest(args) -> int:
    return 0 if selftest_mod.run() == 0 else 2


def _cmd_gen_fixtures(args) -> int:
    # Small default extent keeps the demo pipeline quick on a laptop.
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig(input_size=64)
    paths = generate_fixtures(args.out_dir, cfg)
    for name, path in paths.items():
        print(f"{name:8s} {path}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="nmvg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", help="run the pipeline on one image/radar/prompt triple")
    p.add_argument("--weights", required=True, help="weight archive (.nmvg)")
    p.add_argument("--image", required=True, help="P6 or P5 raster at the configured size")
    p.add_argument("--radar", required=True, help="raster or raw float32 planes at the configured size")
    p.add_argument("--prompt", required=True, help="text file with the grounding phrase")
    p.add_argument("--out-dir", default="out", help="directory for boxes.txt and mask.pgm")
    p.add_argument("--config", help="key = value run configuration file; defaults without one")
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("fuse-rep", help="fold multi-branch segmentation blocks into single convs")
    p.add_argument("src", help="trainable-form archive")
    p.add_argument("dst", help="output path for the fused archive")
    p.set_defaults(fn=_cmd_fuse_rep)

    p = sub.add_parser("eval", help="score prediction files against ground truth")
    p.add_argument("--pred-boxes", action="append", default=[], help="predicted box file (repeatable)")
    p.add_argument("--gt-boxes", action="append", default=[], help="ground-truth box file (repeatable)")
    p.add_argument("--pred-mask", action="append", default=[], help="predicted mask PGM (repeatable)")
    p.add_argument("--gt-mask", action="append", default=[], help="ground-truth mask PGM (repeatable)")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("mept", help="energy-scaled performance from a trace file")
    p.add_argument("--trace", required=True, help="CSV with sample_id,energy_trained,energy_untrained")
    p.add_argument("--perf", type=float, action="append", required=True, help="performance value (repeatable)")
    p.add_argument("--tau", type=int, help="evaluation count; defaults to the trace row count")
    p.set_defaults(fn=_cmd_mept)

    p = sub.add_parser("selftest", help="run the built-in oracle checks")
    p.set_defaults(fn=_cmd_selftest)

    p = sub.add_parser("gen-fixtures", help="write seeded demo weights, inputs and annotations")
    p.add_argument("--out-dir", default="fixtures", help="destination directory")
    p.add_argument("--config", help="run configuration to generate for; input size 64, seed 0 without one")
    p.set_defaults(fn=_cmd_gen_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors and --help; keep main() returning
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
