"""End-to-end orchestration: enhance -> ROI -> texture -> segment -> evaluate.

Each stage is one function here (``enhance_image``, ``crop_roi``,
``texture_maps``, ``segment_map``, ``evaluate``, ``score_point`` and the
``write_*`` writers), called by ``run_pipeline``, ``run_experiment`` and the
CLI's stage subcommands alike. One JSON config document drives every stage;
identical inputs and config produce byte-identical output trees. Batch
experiments aggregate per tissue class.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import logging
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import segment as seg
from .enhance import ClaheParams, SradParams, clahe, srad
from .errors import InternalInvariantError, TexturedgeError
from .evalmetrics import (
    ConfusionCounts,
    EvalReport,
    RocCurve,
    circle_mask,
    confusion,
    metrics,
    reference_counts,
    roc_az,
    roc_points_csv,
)
from .imgio import (MiasRecord, RoiCrop, RoiSpec, check_geometry, check_margin_factor,
                    extract_roi, parse_mias_index, read_pgm, write_pgm)
from .texture import (
    ANGLES,
    Descriptor,
    check_levels,
    check_window_side,
    directional_sum,
    encode_texture_map,
    offsets_for_distance,
    quantize,
    texture_map_sliding,
    texture_map_to_gray,
)

logger = logging.getLogger(__name__)

THRESHOLD_METHODS = ("otsu", "fixed", "percentile")


@dataclass(frozen=True)
class ThresholdSpec:
    """Binarization rule: ``otsu``, ``fixed`` (value = threshold in map
    units), or ``percentile`` (value in [0, 100])."""

    method: str = "otsu"
    value: Optional[float] = None

    def __post_init__(self):
        if self.method not in THRESHOLD_METHODS:
            raise ValueError(f"unknown threshold method {self.method!r}")
        if self.method == "otsu" and self.value is not None:
            raise ValueError("otsu takes no value")
        if self.method in ("fixed", "percentile") and self.value is None:
            raise ValueError(f"{self.method} threshold needs a value")
        if self.method == "fixed":
            seg.check_threshold(self.value)
        if self.method == "percentile" and not (0.0 <= self.value <= 100.0):
            raise ValueError(f"percentile must be in [0, 100], got {self.value}")


@dataclass(frozen=True)
class GlcmConfig:
    levels: int = 8
    window_side: int = 7
    distance: int = 1

    def __post_init__(self):
        check_levels(self.levels)
        check_window_side(self.window_side)
        offsets_for_distance(self.distance)
        if self.distance >= self.window_side:  # no pair would fit a window
            raise ValueError(f"distance must be < window_side {self.window_side}, "
                             f"got {self.distance}")


@dataclass(frozen=True)
class SegmentConfig:
    threshold_method: ThresholdSpec = field(default_factory=ThresholdSpec)
    close_radius: int = 3
    fill_holes: bool = True

    def __post_init__(self):
        seg.check_close_radius(self.close_radius)


@dataclass(frozen=True)
class RoiConfig:
    """``margin_factor`` m >= 1; the crop holds a radius-r circle that the
    image edge does not clip only from m >= 1 + 1/(2r) on (``extract_roi``)."""

    margin_factor: float = 1.5

    def __post_init__(self):
        check_margin_factor(self.margin_factor)


@dataclass(frozen=True)
class PipelineConfig:
    srad: SradParams = field(default_factory=SradParams)
    clahe: ClaheParams = field(default_factory=ClaheParams)
    glcm: GlcmConfig = field(default_factory=GlcmConfig)
    segment: SegmentConfig = field(default_factory=SegmentConfig)
    roi: RoiConfig = field(default_factory=RoiConfig)


def to_plain(value):
    """A config object as JSON-ready dicts, lists and scalars."""
    if dataclasses.is_dataclass(value):
        return {f.name: to_plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [to_plain(v) for v in value]
    return value


def from_plain(tp, value, where: str):
    """Check ``value`` (parsed JSON) against the annotation ``tp`` and build it.

    bool is never a number and a float never fits an int field; a JSON int
    widens to float, and a float field takes no NaN, ±Infinity or int past
    the float range. Omitted dataclass fields keep their defaults; unknown
    ones raise. Errors name the dotted field, e.g. ``config.glcm.levels``.
    """
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be an object, got {value!r}")
        hints = typing.get_type_hints(tp)
        unknown = set(value) - {f.name for f in dataclasses.fields(tp)}
        if unknown:
            raise ValueError(f"unknown fields in {where}: {sorted(unknown)}")
        return tp(**{k: from_plain(hints[k], v, f"{where}.{k}") for k, v in value.items()})
    args = typing.get_args(tp)
    if typing.get_origin(tp) is typing.Union:
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return from_plain(tp, value, where)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list) or len(value) != len(args):
            raise ValueError(f"{where} must be a list of {len(args)} values, got {value!r}")
        return tuple(from_plain(a, v, f"{where}[{i}]")
                     for i, (a, v) in enumerate(zip(args, value)))
    accepted = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}[tp]
    if isinstance(value, bool) != (tp is bool) or not isinstance(value, accepted):
        raise ValueError(f"{where} must be {tp.__name__}, got {value!r}")
    if tp is float and not abs(value) <= sys.float_info.max:  # false for NaN too
        raise ValueError(f"{where} must be a finite float, got {value!r}")
    return float(value) if tp is float else value


def serialize_config(config: PipelineConfig) -> str:
    return json.dumps(to_plain(config), indent=2, sort_keys=True) + "\n"


def parse_config(text: str) -> PipelineConfig:
    return from_plain(PipelineConfig, json.loads(text), "config")


def load_config(path) -> PipelineConfig:
    return parse_config(Path(path).read_text())


# ---------------------------------------------------------------------------
# Single-image pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PipelineResult:
    record: MiasRecord
    enhanced: np.ndarray
    roi: RoiCrop
    direction_maps: dict[int, np.ndarray]
    sum_map: np.ndarray
    threshold: float
    mask: np.ndarray
    contours: list[list[tuple[int, int]]]
    report: EvalReport
    roc: RocCurve


def enhance_image(img, config: PipelineConfig) -> np.ndarray:
    """SRAD then CLAHE on the whole image."""
    return clahe(srad(img, config.srad), config.clahe)


def crop_roi(enhanced: np.ndarray, record: MiasRecord,
             roi: RoiConfig) -> tuple[RoiCrop, tuple[int, int], np.ndarray]:
    """The square crop around the record's mass, the mass center (x, y) in
    that crop and the record's circle over it (the proxy ground truth), which
    must lie whole in the crop, clipped to the image, and not cover it: away
    from the image edge, that needs ``margin_factor >= 1 + 1/(2r)``."""
    spec = RoiSpec.from_mias(record, enhanced.shape[0], roi.margin_factor)
    crop = extract_roi(enhanced, spec)
    height, width = enhanced.shape
    x, y, r = spec.center_x, spec.center_y, record.radius
    # the circle's image pixels span its centre's row and column, clipped
    if (max(0, x - r) < crop.x0 or min(width - 1, x + r) >= crop.x0 + crop.width
            or max(0, y - r) < crop.y0 or min(height - 1, y + r) >= crop.y0 + crop.height):
        raise TexturedgeError(f"the crop at margin_factor {roi.margin_factor} "
                              f"leaves out part of the radius-{r} circle")
    cx, cy = x - crop.x0, y - crop.y0
    truth = circle_mask(crop.width, crop.height, cx, cy, r)
    reference_counts(truth)
    return crop, (cx, cy), truth


def texture_maps(roi_image, glcm: GlcmConfig, kind=Descriptor.CONTRAST,
                 symmetric: bool = False) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """One descriptor map per direction in ``ANGLES`` and their sum.
    ``symmetric`` also tallies each pair reversed, which leaves a contrast
    map as it is, so the pipeline's contrast maps do not take it."""
    q = quantize(roi_image, glcm.levels)
    offsets = offsets_for_distance(glcm.distance)
    maps = {angle: texture_map_sliding(q, kind, glcm.window_side, offsets[angle], symmetric)
            for angle in ANGLES}
    return maps, directional_sum([maps[a] for a in ANGLES])


def segment_map(sum_map: np.ndarray, center, segment: SegmentConfig):
    """Threshold, refined mask and outer contours of the component nearest
    ``center`` (x, y in map coordinates)."""
    spec = segment.threshold_method
    if spec.method == "otsu":
        threshold = seg.otsu_threshold(sum_map)
    elif spec.method == "fixed":
        threshold = float(spec.value)
    else:
        threshold = float(np.percentile(sum_map, spec.value))
    mask = seg.refine_mask(seg.binarize(sum_map, threshold), center,
                           segment.close_radius, segment.fill_holes)
    return threshold, mask, seg.trace_contour(mask)


def evaluate(mask, truth, scores=None) -> tuple[EvalReport, Optional[RocCurve]]:
    """The scores of ``mask`` against the boolean reference ``truth`` and,
    given a score map, its ROC curve, whose area is the report's ``az``."""
    report = metrics(confusion(mask, truth))
    if scores is None:
        return report, None
    curve = roc_az(scores, truth)
    return dataclasses.replace(report, az=curve.az), curve


def select_record(records: Sequence[MiasRecord], ref_id: str) -> MiasRecord:
    """The first record for ``ref_id`` carrying circle geometry, else its
    first record. Only one lesion per id is scored: further geometry records
    are ignored, and a ``WARNING`` names the id and how many."""
    matches = [r for r in records if r.ref_id == ref_id]
    if not matches:
        raise TexturedgeError(f"no annotation record for id {ref_id!r}")
    located = [r for r in matches if r.has_geometry]
    if len(located) > 1:
        logger.warning("id %s: %d more geometry record(s) ignored; only the first is scored",
                       ref_id, len(located) - 1)
    return located[0] if located else matches[0]


@contextlib.contextmanager
def _film(image, record: MiasRecord):
    """The film's pixels: ``image`` decoded if it is a PGM path, else as
    given. A missing image file or a record without a circle is refused
    first; from the decoding on, an error raised inside gets the film's id
    and file in front and keeps its exit code's class."""
    path = Path(image) if isinstance(image, (str, Path)) else None
    if path is not None and not path.is_file():
        raise TexturedgeError(f"no image file at {path}")
    check_geometry(record)
    where = f"id {record.ref_id}" + (f" ({path})" if path is not None else "")
    try:
        yield image if path is None else read_pgm(image)
    except InternalInvariantError as exc:
        raise InternalInvariantError(f"{where}: {exc}") from None
    except TexturedgeError as exc:
        raise TexturedgeError(f"{where}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def score_point(enhanced: np.ndarray, record: MiasRecord,
                config: PipelineConfig) -> PipelineResult:
    """Every step after enhancement, scored by ``evaluate`` against the
    circle; no I/O. The result carries ``record``, from which the artifact
    tree, ``report.json`` and the experiment rows read its id and classes.

    Confusion metrics and the ROC area are taken over the ROI crop, the only
    place texture scores exist. Its only check is ``crop_roi``'s, which
    refuses a crop that would leave out an image pixel of the circle, so the
    whole image would change only tn and specificity: ``report.json``
    carries those as ``image_tn`` and ``image_specificity``.

    ``report.az`` is ``roc_az(sum_map, filled circle)`` over the crop: it
    asks how well the summed contrast map ranks mass pixels above the rest.
    The map peaks on the mass border, not inside it, so ``az`` stays near or
    below chance even when the mask is good: 0.253/0.530/0.434 against Dice
    0.64/0.80/0.77 on the three synthetic test cases.
    """
    crop, center, truth = crop_roi(enhanced, record, config.roi)
    direction_maps, sum_map = texture_maps(crop.image, config.glcm)
    threshold, mask, contours = segment_map(sum_map, center, config.segment)
    return PipelineResult(record, enhanced, crop, direction_maps, sum_map, threshold, mask,
                          contours, *evaluate(mask, truth, sum_map))


def _run_films(films: Sequence[tuple], config: PipelineConfig, out_dir):
    """Check every ``(image, record)`` pair, then run, write and yield each."""
    for image, record in films:
        with _film(image, record) as img:
            # enhancement keeps the shape, so this is score_point's crop
            crop_roi(img, record, config.roi)
            height, width = img.shape
            config.srad.check_fits(width, height)
            config.clahe.check_fits(width, height)
    for image, record in films:
        with _film(image, record) as img:
            result = score_point(enhance_image(img, config), record, config)
            if out_dir is not None:
                write_artifacts(result, out_dir)
        yield result


def run_pipeline(image, record: MiasRecord, config: PipelineConfig = PipelineConfig(),
                 out_dir=None) -> PipelineResult:
    """Run every stage on one image as ``run_experiment`` runs each film,
    score the mask against the record's circle and, if ``out_dir`` is given,
    write the full artifact set under ``out_dir/<ref_id>/``; the result
    carries the record.

    ``image`` may be a PGM path or a 2-D uint8 array. The record must carry
    circle geometry (it defines the ROI and the proxy ground truth);
    otherwise ``TexturedgeError`` is raised.
    """
    (result,) = _run_films([(image, record)], config, out_dir)
    return result


def write_maps(dest: Path, name: str, maps: dict[int, np.ndarray], sum_map: np.ndarray) -> None:
    """``<name>_<angle>.pgm`` per direction and ``<name>_sum.pgm``, each with
    its ``.minmax.txt`` scale, plus the exact sum map as ``<name>_sum.f64``."""
    dest.mkdir(parents=True, exist_ok=True)
    for label, m in [(a, maps[a]) for a in ANGLES] + [("sum", sum_map)]:
        path = dest / f"{name}_{label}.pgm"
        gray, lo, hi = texture_map_to_gray(m)
        write_pgm(path, gray)
        path.with_suffix(".minmax.txt").write_text(f"min {lo!r}\nmax {hi!r}\n")
    (dest / f"{name}_sum.f64").write_bytes(encode_texture_map(sum_map))


def write_segmentation(dest: Path, mask: np.ndarray, contours) -> None:
    """``mask.pgm`` (0/255) and ``contours.txt``."""
    dest.mkdir(parents=True, exist_ok=True)
    write_pgm(dest / "mask.pgm", seg.mask_to_gray(mask))
    (dest / "contours.txt").write_text(seg.contours_to_text(contours))


def write_artifacts(result: PipelineResult, out_dir) -> None:
    """Deterministic artifact tree for one pipeline run."""
    dest = Path(out_dir) / result.record.ref_id
    dest.mkdir(parents=True, exist_ok=True)
    write_pgm(dest / "enhanced.pgm", result.enhanced)
    write_pgm(dest / "roi.pgm", result.roi.image)
    write_maps(dest, "contrast", result.direction_maps, result.sum_map)
    write_segmentation(dest, result.mask, result.contours)
    write_pgm(dest / "overlay.pgm", seg.make_overlay(result.roi.image, result.mask))
    (dest / "roc_points.csv").write_text(roc_points_csv(result.roc))
    (dest / "report.json").write_text(_report_json(result))


def _report_json(result: PipelineResult) -> str:
    # the crop holds the mask and all of the circle (crop_roi): the rest is true negatives
    c, record = result.report.counts, result.record
    image = metrics(dataclasses.replace(c, tn=result.enhanced.size - c.tp - c.fp - c.fn))
    return json.dumps({
        **_row_doc(ExperimentRow(record.ref_id, record.tissue, result.report)),
        "abnormality": record.abnormality,
        "roi_offset": [result.roi.x0, result.roi.y0],
        "threshold": result.threshold,
        "image_tn": image.counts.tn,
        "image_specificity": image.specificity,
    }, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Batch experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentRow:
    ref_id: str
    tissue: str
    report: EvalReport


# every score of EvalReport and every count, in declared order
_METRIC_FIELDS = tuple(f.name for f in dataclasses.fields(EvalReport)
                       if f.name not in ("counts", "zero_denominator"))
_COUNT_FIELDS = tuple(f.name for f in dataclasses.fields(ConfusionCounts))
CSV_COLUMNS = ("ref_id", "tissue") + _COUNT_FIELDS + _METRIC_FIELDS


def read_index(dataset_dir) -> list[MiasRecord]:
    index = Path(dataset_dir) / "Info.txt"
    if not index.is_file():
        raise TexturedgeError(f"no annotation index at {index}")
    return parse_mias_index(index.read_text())


def run_experiment(dataset_dir, ids: Sequence[str], config: PipelineConfig = PipelineConfig(),
                   out_dir=None) -> list[ExperimentRow]:
    """Run and score the pipeline for each id in a dataset directory, with
    ``config`` for every image. Each row is read from its film's result
    alone: the id and tissue from its record, and ``report``, its
    ``EvalReport`` over the crop (``az`` included), from which the CSV, JSONL
    and per-tissue means take every score.

    The directory must hold ``<id>.pgm`` images and the index ``Info.txt``.
    When an id has several annotation lines, the first one carrying circle
    geometry is used. Rows come back sorted by ref_id; images are processed
    sequentially so output ordering never depends on scheduling. Every id's
    record, image file, PGM decoding, circle, crop and fit to the SRAD and
    CLAHE settings are checked once, before the first image runs, so a refused
    id leaves nothing written. Each film, and ``run_pipeline``'s from a path,
    is then decoded again rather than kept from the check: on a 1024² P5 film
    (2 vCPUs) under 2 ms against a run of about 0.4 s, where keeping them
    would hold 1 MB per id. A later data or usage error names its id and file
    and stops the batch; earlier trees stay. Given ``out_dir``, each id's
    tree goes to ``out_dir/<id>/`` and, after the last film, ``report.csv``
    and ``report.jsonl`` (``experiment_csv``, ``experiment_jsonl``) to it.
    """
    root = Path(dataset_dir)
    records = read_index(root)
    runs = [(root / f"{ref}.pgm", select_record(records, ref)) for ref in sorted(set(ids))]
    rows = [ExperimentRow(result.record.ref_id, result.record.tissue, result.report)
            for result in _run_films(runs, config, out_dir)]
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)  # only now: a refused id leaves nothing
        Path(out_dir, "report.csv").write_text(experiment_csv(rows))
        Path(out_dir, "report.jsonl").write_text(experiment_jsonl(rows))
    return rows


def _row_doc(row: ExperimentRow) -> dict:
    """One row's fields: its CSV columns, its JSONL line, what aggregates
    average, and the id, tissue and scores of ``report.json``."""
    return {"ref_id": row.ref_id, "tissue": row.tissue, **row.report.as_dict()}


def tissue_aggregates(rows: Sequence[ExperimentRow]) -> dict[str, dict[str, float]]:
    """Mean of each metric per tissue class, keyed by tissue letter."""
    out = {}
    for tissue in sorted({row.tissue for row in rows}):
        docs = [_row_doc(row) for row in rows if row.tissue == tissue]
        out[tissue] = {name: float(np.mean([doc[name] for doc in docs]))
                       for name in _METRIC_FIELDS}
        out[tissue]["count"] = len(docs)
    return out


def experiment_csv(rows: Sequence[ExperimentRow]) -> str:
    """CSV with one row per image plus per-tissue aggregate mean rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([doc[k] for k in CSV_COLUMNS] for doc in map(_row_doc, rows))
    for tissue, agg in tissue_aggregates(rows).items():
        writer.writerow([f"mean:{tissue}", tissue, *[""] * len(_COUNT_FIELDS)]
                        + [agg[name] for name in _METRIC_FIELDS])
    return buf.getvalue()


def experiment_jsonl(rows: Sequence[ExperimentRow]) -> str:
    lines = [json.dumps(_row_doc(row), sort_keys=True) for row in rows]
    for tissue, agg in tissue_aggregates(rows).items():
        lines.append(json.dumps({"aggregate": tissue, **agg}, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")

