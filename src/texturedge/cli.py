"""Command-line interface.

Subcommands mirror the pipeline stages so each is independently runnable:
``enhance``, ``texture``, ``segment``, ``eval``, ``pipeline`` and
``experiment``. They call the same stage functions of ``pipeline`` that
``run_pipeline`` calls.

Exit codes: 0 success, 1 usage error (bad flags, config values out of
range), 2 data error (unreadable inputs, missing records, degenerate data),
3 internal invariant violation.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import re
import sys
from pathlib import Path

from .errors import InternalInvariantError, TexturedgeError
from .evalmetrics import roc_points_csv
from .imgio import parse_mias_index, read_pgm, write_pgm
from .pipeline import (
    PipelineConfig,
    ThresholdSpec,
    enhance_image,
    evaluate,
    from_plain,
    load_config,
    read_index,
    run_experiment,
    run_pipeline,
    segment_map,
    select_record,
    serialize_config,
    texture_maps,
    to_plain,
    write_maps,
    write_segmentation,
)
from .segment import read_mask
from .texture import Descriptor, decode_texture_map

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

DATASET_ENV_VAR = "TEXTUREDGE_MIAS_DIR"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Python 3.13's rule, so "--center -5,3" reads -5,3 as the value
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _StderrHandler(logging.Handler):
    """Prints log records to the current ``sys.stderr``, as the CLI prints errors."""

    def emit(self, record):
        try:
            print(f"texturedge: {self.format(record)}", file=sys.stderr)
        except Exception:
            self.handleError(record)


_LOG_HANDLER = _StderrHandler()


def _parse_threshold(text: str) -> ThresholdSpec:
    if text == "otsu":
        return ThresholdSpec("otsu")
    for name in ("fixed", "percentile"):
        if text.startswith(name + ":"):
            try:
                return ThresholdSpec(name, float(text[len(name) + 1:]))
            except ValueError as exc:  # argparse would print only the flag's text
                raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(
        f"threshold must be 'otsu', 'fixed:T', or 'percentile:P', got {text!r}")


def _parse_center(text: str) -> tuple[float, float]:
    try:
        cx, cy = (float(tok) for tok in text.split(","))
        if math.isfinite(cx) and math.isfinite(cy):
            return cx, cy
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"center must be two finite numbers X,Y, got {text!r}")


# (flag, dotted config field, argparse keywords); a flag left out parses to None
_SRAD_CLAHE = (
    ("--srad-iterations", "srad.iterations", {"type": int}),
    ("--srad-time-step", "srad.time_step", {"type": float}),
    ("--clahe-clip", "clahe.clip_limit", {"type": float}),
)
_GLCM = (
    ("--levels", "glcm.levels", {"type": int}),
    ("--window", "glcm.window_side", {"type": int}),
    ("--distance", "glcm.distance", {"type": int}),
)
_SEGMENTING = (
    ("--threshold", "segment.threshold_method", {"type": _parse_threshold}),
    ("--close-radius", "segment.close_radius", {"type": int}),
    ("--no-fill-holes", "segment.fill_holes", {"action": "store_const", "const": False}),
)
_ROI = (("--margin", "roi.margin_factor", {"type": float}),)
_CONFIG_FLAGS = _SRAD_CLAHE + _GLCM + _SEGMENTING + _ROI


def _add_config_flags(p: argparse.ArgumentParser, flags):
    p.add_argument("--config", help="pipeline config JSON file")
    for flag, _, kwargs in flags:
        p.add_argument(flag, **kwargs)


def _build_config(args) -> PipelineConfig:
    """``--config`` (or the defaults) with each given flag written over its
    field, checked by the same schema walk as a config file's values."""
    doc = to_plain(load_config(args.config) if args.config else PipelineConfig())
    for flag, dotted, _ in _CONFIG_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            section, name = dotted.split(".")
            doc[section][name] = to_plain(value)
    return from_plain(PipelineConfig, doc, "config")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="texturedge",
                     description="Texture-based mammographic mass segmentation")
    parser.add_argument("--print-defaults", action="store_true",
                        help="print the default config JSON and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("enhance", help="SRAD + CLAHE on a whole image")
    p.set_defaults(run=_cmd_enhance)
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    _add_config_flags(p, _SRAD_CLAHE)

    p = sub.add_parser("texture", help="direction contrast maps of a ROI image")
    p.set_defaults(run=_cmd_texture)
    p.add_argument("-i", "--input", required=True, help="ROI image (PGM)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--descriptor", default="contrast",
                   choices=[d.value for d in Descriptor])
    p.add_argument("--symmetric", action="store_true",
                   help="also tally each pair reversed; changes the entropy and asm maps "
                        "only")
    _add_config_flags(p, _GLCM)

    p = sub.add_parser("segment", help="mask + contours from a texture map")
    p.set_defaults(run=_cmd_segment)
    p.add_argument("-i", "--input", required=True, help="texture map (.f64)")
    p.add_argument("--center", required=True, type=_parse_center,
                   help="mass center as X,Y in map coords")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p, _SEGMENTING)

    p = sub.add_parser("eval", help="metrics of a predicted mask vs. a reference mask")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--pred", required=True, help="predicted mask (0/255 PGM)")
    p.add_argument("--truth", required=True, help="reference mask (0/255 PGM)")
    p.add_argument("--scores", help="texture map (.f64) for the ROC area")
    p.add_argument("--roc-csv", help="also dump the ROC points as CSV here")
    p.add_argument("-o", "--output", help="write the report JSON here instead of stdout")

    p = sub.add_parser("pipeline", help="full run on one annotated image")
    p.set_defaults(run=_cmd_pipeline)
    p.add_argument("--image", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--record", help="annotation line, e.g. 'mdb005 F CIRC B 477 133 30'")
    group.add_argument("--id", dest="ref_id", help="record id resolved from --dataset")
    p.add_argument("--dataset", help=f"dataset dir (default ${DATASET_ENV_VAR})")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p, _CONFIG_FLAGS)

    p = sub.add_parser("experiment", help="batch run over dataset ids")
    p.set_defaults(run=_cmd_experiment)
    p.add_argument("--dataset", help=f"dataset dir (default ${DATASET_ENV_VAR})")
    p.add_argument("--ids", nargs="*", default=[], help="record ids (empty: no rows)")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p, _CONFIG_FLAGS)

    return parser


def _dataset_dir(args) -> Path:
    value = getattr(args, "dataset", None) or os.environ.get(DATASET_ENV_VAR)
    if not value:
        raise ValueError(f"no dataset directory: pass --dataset or set ${DATASET_ENV_VAR}")
    return Path(value)


def _cmd_enhance(args) -> int:
    config = _build_config(args)
    write_pgm(args.output, enhance_image(read_pgm(args.input), config))
    return EXIT_OK


def _cmd_texture(args) -> int:
    config = _build_config(args)
    maps, total = texture_maps(read_pgm(args.input), config.glcm, args.descriptor, args.symmetric)
    write_maps(Path(args.out), args.descriptor, maps, total)
    return EXIT_OK


def _cmd_segment(args) -> int:
    config = _build_config(args)
    sum_map = decode_texture_map(Path(args.input).read_bytes())
    threshold, mask, contours = segment_map(sum_map, args.center, config.segment)
    write_segmentation(Path(args.out), mask, contours)
    print(f"threshold {threshold!r}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.roc_csv and not args.scores:
        raise ValueError("--roc-csv needs --scores")
    pred, truth = read_mask(args.pred), read_mask(args.truth)
    scores = decode_texture_map(Path(args.scores).read_bytes()) if args.scores else None
    report, curve = evaluate(pred, truth, scores)
    text = json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    _write_all({args.roc_csv: roc_points_csv(curve) if args.roc_csv else None, args.output: text})
    if not args.output:
        sys.stdout.write(text)
    return EXIT_OK


def _write_all(texts: dict) -> None:
    """Write each given path's text, or none: every path is opened (an
    existing file without truncation) before the first write, and a file
    created here is removed again when a later path will not open."""
    with contextlib.ExitStack() as undo, contextlib.ExitStack() as files:
        opened = []
        for path, text in [(Path(p), t) for p, t in texts.items() if p]:
            if not path.exists():
                undo.callback(path.unlink, missing_ok=True)
            opened.append((files.enter_context(open(path, "a")), text))
        undo.pop_all()  # every path opened: nothing to undo
        for f, text in opened:
            f.truncate(0)
            f.write(text)


def _record_for(args):
    if args.record is not None:
        records = parse_mias_index(args.record)
        if len(records) != 1:
            raise ValueError(f"--record must hold one annotation line, got {len(records)}")
        return records[0]
    return select_record(read_index(_dataset_dir(args)), args.ref_id)


def _cmd_pipeline(args) -> int:
    config = _build_config(args)
    result = run_pipeline(args.image, _record_for(args), config, out_dir=args.out)
    print(f"{result.record.ref_id} dice {result.report.dice!r} az {result.report.az!r}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    config = _build_config(args)
    for row in run_experiment(_dataset_dir(args), args.ids, config, out_dir=args.out):
        print(f"{row.ref_id} {row.tissue} dice {row.report.dice!r} az {row.report.az!r}")
    return EXIT_OK


def main(argv=None) -> int:
    logging.getLogger("texturedge").addHandler(_LOG_HANDLER)  # a no-op once attached
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_defaults:
        sys.stdout.write(serialize_config(PipelineConfig()))
        return EXIT_OK
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.run(args)
    except InternalInvariantError as exc:
        print(f"texturedge: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, TexturedgeError, OSError) as exc:
        print(f"texturedge: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ValueError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
