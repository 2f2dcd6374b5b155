"""Segmentation evaluation: confusion counts, Dice, precision/recall/
F-measure/specificity, and ROC area.

The annotated circle (center + radius) stands in as ground truth when no
expert mask exists. Metrics with a zero denominator report 0 and are
listed in ``EvalReport.zero_denominator`` instead of raising, so batch
runs stay total.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import TexturedgeError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class EvalReport:
    """All ratio metrics are in [0, 1]. ``f_measure`` is computed from the
    counts (2tp / (2tp + fp + fn)), which is algebraically the harmonic mean
    of precision and recall and exactly equals Dice."""

    dice: float
    precision: float
    recall: float
    specificity: float
    f_measure: float
    counts: ConfusionCounts
    zero_denominator: tuple[str, ...] = field(default=())

    def as_dict(self) -> dict:
        """Every field by name, the counts flattened in and ``zero_denominator``
        as a list: the keys of ``report.json``, a JSONL row and ``eval``'s output."""
        doc = dataclasses.asdict(self)
        return {**doc.pop("counts"), **doc, "zero_denominator": list(self.zero_denominator)}


@dataclass(frozen=True, eq=False)
class RocCurve:
    """(fpr, tpr) points sorted by fpr from (0, 0) to (1, 1), and the
    trapezoidal area under them."""

    points: np.ndarray  # (n, 2) float64
    az: float


def circle_mask(width: int, height: int, cx: float, cy: float, r: float) -> np.ndarray:
    """Boolean disk: bit set iff (x-cx)^2 + (y-cy)^2 <= r^2."""
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    return (np.arange(width) - cx) ** 2 + (np.arange(height)[:, None] - cy) ** 2 <= r * r


def confusion(pred, truth) -> ConfusionCounts:
    """Per-pixel tally of the prediction against the reference mask."""
    p = np.asarray(pred, dtype=bool)
    t = np.asarray(truth, dtype=bool)
    if p.shape != t.shape:
        raise TexturedgeError(f"mask shapes differ: {p.shape} vs {t.shape}")
    tp = int(np.count_nonzero(p & t))
    fp = int(np.count_nonzero(p & ~t))
    fn = int(np.count_nonzero(~p & t))
    tn = int(np.count_nonzero(~p & ~t))
    return ConfusionCounts(tp, fp, fn, tn)


def _ratio(num: int, den: int, name: str, flags: list[str]) -> float:
    if den == 0:
        flags.append(name)
        return 0.0
    return num / den


def metrics(c: ConfusionCounts) -> EvalReport:
    """Dice, precision, recall (= TPR), specificity (= 1 - FPR), F-measure."""
    flags: list[str] = []
    precision = _ratio(c.tp, c.tp + c.fp, "precision", flags)
    recall = _ratio(c.tp, c.tp + c.fn, "recall", flags)
    if c.fp + c.tn == 0:
        flags.append("specificity")
        specificity = 0.0
    else:
        specificity = 1.0 - c.fp / (c.fp + c.tn)
    dice = _ratio(2 * c.tp, 2 * c.tp + c.fp + c.fn, "dice", flags)
    f_measure = _ratio(2 * c.tp, 2 * c.tp + c.fp + c.fn, "f_measure", flags)
    return EvalReport(dice, precision, recall, specificity, f_measure, c, tuple(flags))


def f_measure_from_precision_recall(precision: float, recall: float) -> float:
    """Harmonic mean 2 / (1/precision + 1/recall); 0 if either input is 0."""
    if precision <= 0.0 or recall <= 0.0:
        return 0.0
    return 2.0 / (1.0 / precision + 1.0 / recall)


def reference_counts(truth: np.ndarray) -> tuple[int, int]:
    """Positive and negative pixels of a boolean reference; ROC needs one of each."""
    n_pos = int(np.count_nonzero(truth))
    for count, kind in ((n_pos, "positive"), (truth.size - n_pos, "negative")):
        if count == 0:
            raise TexturedgeError(f"reference has no {kind} pixels in the evaluated region")
    return n_pos, truth.size - n_pos


def roc_az(scores, truth) -> RocCurve:
    """ROC curve from per-pixel scores against a boolean reference.

    Thresholds sweep the distinct score values (plus sentinels at both
    ends); a pixel is classified positive when its score >= threshold, so
    tied scores, ``-0.0`` and ``0.0`` or two infinities included, form one
    threshold and one point. The area is the trapezoidal integral of the
    (fpr, tpr) points. Each point's counts come from one sort of all scores
    and one of the positives' scores. Raises ``TexturedgeError`` on a NaN
    score, which no threshold orders.
    """
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(truth, dtype=bool)
    if s.shape != t.shape:
        raise TexturedgeError(f"score/truth shapes differ: {s.shape} vs {t.shape}")
    s, t = s.ravel(), t.ravel()
    n_pos, n_neg = reference_counts(t)

    ascending = np.sort(s)
    if np.isnan(ascending[-1]):  # NaN sorts last
        raise TexturedgeError("scores hold a NaN")
    # first index of each distinct score, highest score first
    firsts = np.concatenate([[0], np.flatnonzero(ascending[1:] != ascending[:-1]) + 1])[::-1]
    cum_tp = n_pos - np.searchsorted(np.sort(s[t]), ascending[firsts], side="left")
    cum_fp = (s.size - firsts) - cum_tp
    tpr = np.concatenate([[0.0], cum_tp / n_pos, [1.0]])
    fpr = np.concatenate([[0.0], cum_fp / n_neg, [1.0]])
    az = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) * 0.5))
    return RocCurve(np.stack([fpr, tpr], axis=1), az)


def roc_points_csv(curve: RocCurve) -> str:
    """The curve's (fpr, tpr) points as CSV."""
    lines = ["fpr,tpr"]
    lines += [f"{float(fpr)!r},{float(tpr)!r}" for fpr, tpr in curve.points]
    return "\n".join(lines) + "\n"
