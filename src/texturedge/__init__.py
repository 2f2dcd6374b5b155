"""texturedge: texture-based mammographic mass segmentation.

Enhancement (SRAD + CLAHE), per-pixel directional co-occurrence contrast
maps, mask/contour extraction, and the evaluation harness (Dice,
precision/recall/F-measure, ROC area), exposed as a library and a CLI.
"""

from .enhance import ClaheParams, SradParams, clahe, srad
from .evalmetrics import (
    ConfusionCounts,
    EvalReport,
    RocCurve,
    circle_mask,
    confusion,
    f_measure_from_precision_recall,
    metrics,
    roc_az,
)
from .imgio import (
    MiasRecord,
    RoiCrop,
    RoiSpec,
    decode_pgm,
    encode_pgm,
    extract_roi,
    mias_to_image_y,
    parse_mias_index,
    read_pgm,
    write_pgm,
)
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    ThresholdSpec,
    load_config,
    parse_config,
    run_experiment,
    run_pipeline,
    serialize_config,
)
from .segment import binarize, otsu_threshold, refine_mask, trace_contour
from .texture import (
    ANGLES,
    Descriptor,
    Offset,
    QuantizedImage,
    contrast,
    descriptor,
    directional_sum,
    glcm_window,
    offsets_for_distance,
    quantize,
    texture_map_naive,
    texture_map_sliding,
)

__version__ = "0.1.0"

__all__ = [
    "ANGLES", "ClaheParams", "ConfusionCounts", "Descriptor", "EvalReport",
    "MiasRecord", "Offset", "PipelineConfig", "PipelineResult",
    "QuantizedImage", "RocCurve", "RoiCrop", "RoiSpec", "SradParams",
    "ThresholdSpec", "binarize", "circle_mask", "clahe", "confusion",
    "contrast", "decode_pgm", "descriptor", "directional_sum", "encode_pgm",
    "extract_roi", "f_measure_from_precision_recall", "glcm_window",
    "load_config", "metrics", "mias_to_image_y", "offsets_for_distance",
    "otsu_threshold",
    "parse_config", "parse_mias_index", "quantize", "read_pgm", "refine_mask",
    "roc_az", "run_experiment", "run_pipeline", "serialize_config", "srad",
    "texture_map_naive", "texture_map_sliding", "trace_contour", "write_pgm",
]
