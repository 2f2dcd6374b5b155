"""The three workloads: their set-up, one operation, and its output checks.

``film`` runs the whole paper pipeline per film, so enhancement (SRAD and
CLAHE) dominates it. ``roi_sweep`` enhances once in set-up and then runs
only the steps after enhancement over a grid of crops and GLCM settings,
so the contrast maps dominate it. ``descriptor_maps`` runs the texture
command's flow for the other three descriptors and writes the maps, so it
uses the same texture layer through the joint pair histogram. Library
functions are always looked up on their module at call time, so the
tracer's wrappers see every call.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from texturedge import enhance, evalmetrics, imgio, pipeline, segment, texture
from texturedge.imgio import MiasRecord, RoiSpec

import films

DEFAULTS = pipeline.PipelineConfig()

# Dice each film must reach against its circle proxy
FILM_MIN_DICE = 0.5

# Levels per multi-mass crop, smallest crop first. Larger crops at higher
# levels cost seconds per case (the sliding kernel's cost grows with
# rows x columns x levels^2) and would leave too few operations per run.
SWEEP_LEVELS = ((8, 16, 32), (8, 16, 32), (8, 16), (8, 16), (8,), (8,), (8,))
SWEEP_WINDOWS = (5, 9, 13)
SWEEP_PAIRINGS = ((1, False), (2, True), (1, True), (2, False))  # (distance, symmetric)
SWEEP_THRESHOLDS = (None, 70.0)  # None: Otsu; a number: percentile
DESCRIPTORS = ("entropy", "asm", "idm")
NAIVE_SAMPLE = 3
# three timed passes are over 100 operations, so the 90th percentile has
# more than ten operations beyond it
SWEEP_MIN_PASSES = 3
# a few untimed operations take the first calls into SciPy and NumPy
# routines out of the timed ones; a film operation has no such cost
SWEEP_WARMUP = 4
# every film, then the first again, whose artifact tree is compared with
# the one from its first run
FILM_MIN_OPS = 4


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass(frozen=True)
class FilmCase:
    path: str
    record: MiasRecord


@dataclass(frozen=True, eq=False)
class CropCase:
    roi: np.ndarray
    center: tuple[int, int]  # mass centre inside the crop (x, y)
    radius: int
    levels: int
    window: int
    distance: int
    symmetric: bool
    descriptor: str = "contrast"
    percentile: Optional[float] = None

    @property
    def cost(self) -> int:
        """Approximate histogram cells of the four maps, for ranking cases."""
        h, w = self.roi.shape
        return (4 * h * (w + self.window) * self.levels ** 2
                * (2 if self.symmetric else 1))


@dataclass
class Job:
    """Everything an operation loop needs; pickled to the worker process."""

    workload: str
    cases: list
    out_dir: str
    warmup: int         # untimed operations before timing starts
    pass_len: int       # timed operations between stop checks
    min_ops: int        # timed operations to run at least
    naive_sample: list  # case indices compared with texture_map_naive


class Workload(NamedTuple):
    setup: Callable[[int, Path], Job]
    op: Callable
    # (case, output, out_dir) -> (digest, Dice or None); raises CheckFailed
    check: Callable


# ---------------------------------------------------------------------------
# film
# ---------------------------------------------------------------------------

def film_setup(seed: int, work: Path) -> Job:
    film_dir = work / "films"
    film_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for film in films.single_mass_films(seed):
        imgio.write_pgm(film_dir / f"{film.ref_id}.pgm", film.image)
        lines += film.index_lines()
    (film_dir / "Info.txt").write_text("\n".join(lines) + "\n")
    records = imgio.parse_mias_index((film_dir / "Info.txt").read_text())
    cases = [FilmCase(str(film_dir / f"{r.ref_id}.pgm"), r) for r in records]
    return Job("film", cases, str(work / "out"), 0, 1, FILM_MIN_OPS, [])


def film_op(case: FilmCase, out_dir: str):
    return pipeline.run_pipeline(case.path, case.record, DEFAULTS, out_dir)


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def film_check(case: FilmCase, result, out_dir: str):
    dice = result.report.dice
    if not dice >= FILM_MIN_DICE:
        raise CheckFailed(f"{case.record.ref_id}: dice {dice!r} < {FILM_MIN_DICE}")
    return _tree_digest(Path(out_dir) / case.record.ref_id), dice


# ---------------------------------------------------------------------------
# roi_sweep and descriptor_maps
# ---------------------------------------------------------------------------

def _crops(film: films.Film, image: np.ndarray) -> list:
    """(crop, centre in crop, radius) per mass, through the index parser."""
    out = []
    for record in imgio.parse_mias_index("\n".join(film.index_lines())):
        spec = RoiSpec.from_mias(record, image.shape[0], DEFAULTS.roi.margin_factor)
        crop = imgio.extract_roi(image, spec)
        out.append((crop.image, (spec.center_x - crop.x0, spec.center_y - crop.y0),
                    record.radius))
    return out


def _grid(crops: list, seed: int, descriptor_maps: bool) -> list:
    cases = []
    g = 0
    for (roi, center, radius), levels_set in zip(crops, SWEEP_LEVELS):
        for levels in levels_set:
            for window in SWEEP_WINDOWS:
                distance, symmetric = SWEEP_PAIRINGS[g % len(SWEEP_PAIRINGS)]
                if descriptor_maps:
                    extra = {"descriptor": DESCRIPTORS[(g // 3) % len(DESCRIPTORS)]}
                else:
                    extra = {"percentile": SWEEP_THRESHOLDS[(g // 4) % len(SWEEP_THRESHOLDS)]}
                cases.append(CropCase(roi, center, radius, levels, window, distance,
                                      symmetric, **extra))
                g += 1
    order = np.random.default_rng([seed, 3]).permutation(len(cases))
    return [cases[i] for i in order]


def _naive_sample(cases: list, seed: int) -> list:
    """A seeded few of the cheapest third of the cases."""
    by_cost = sorted(range(len(cases)), key=lambda i: cases[i].cost)
    pool = by_cost[:len(cases) // 3]
    rng = np.random.default_rng([seed, 4])
    return sorted(int(i) for i in rng.choice(pool, size=NAIVE_SAMPLE, replace=False))


def sweep_setup(seed: int, work: Path) -> Job:
    film = films.multi_mass_film(seed)
    enhanced = enhance.clahe(enhance.srad(film.image, DEFAULTS.srad), DEFAULTS.clahe)
    cases = _grid(_crops(film, enhanced), seed, descriptor_maps=False)
    return Job("roi_sweep", cases, str(work / "out"), SWEEP_WARMUP, len(cases),
               SWEEP_MIN_PASSES * len(cases), _naive_sample(cases, seed))


def _maps(case: CropCase, q):
    offsets = texture.offsets_for_distance(case.distance)
    return [texture.texture_map_sliding(q, case.descriptor, case.window, offsets[a],
                                        case.symmetric)
            for a in texture.ANGLES]


def _truth(case: CropCase):
    h, w = case.roi.shape
    return evalmetrics.circle_mask(w, h, case.center[0], case.center[1], case.radius)


def _mask(case: CropCase, total):
    if case.percentile is None:
        threshold = segment.otsu_threshold(total)
    else:
        threshold = float(np.percentile(total, case.percentile))
    return segment.refine_mask(segment.binarize(total, threshold), case.center,
                               DEFAULTS.segment.close_radius, DEFAULTS.segment.fill_holes)


def sweep_op(case: CropCase, out_dir: str):
    q = texture.quantize(case.roi, case.levels)
    maps = _maps(case, q)
    total = texture.directional_sum(maps)
    mask = _mask(case, total)
    segment.trace_contour(mask)
    truth = _truth(case)
    evalmetrics.roc_az(total, truth)
    report = evalmetrics.metrics(evalmetrics.confusion(mask, truth))
    return maps, total, mask, report.dice


def _finite(maps) -> None:
    for m in maps:
        if not np.isfinite(m).all():
            raise CheckFailed("texture map holds non-finite values")


def sweep_check(case: CropCase, output, out_dir: str):
    maps, total, mask, dice = output
    _finite(maps + [total])
    return hashlib.sha256(total.tobytes() + mask.tobytes()).hexdigest(), dice


def descriptor_setup(seed: int, work: Path) -> Job:
    # crops of the raw film: this workload measures the texture layer only
    film = films.multi_mass_film(seed)
    cases = _grid(_crops(film, film.image), seed, descriptor_maps=True)
    return Job("descriptor_maps", cases, str(work / "out"), SWEEP_WARMUP, len(cases),
               SWEEP_MIN_PASSES * len(cases), _naive_sample(cases, seed))


def _write_map(path: Path, m) -> None:
    """The texture command's map output: 8-bit PGM plus its min/max sidecar."""
    gray, lo, hi = texture.texture_map_to_gray(m)
    imgio.write_pgm(path, gray)
    path.with_suffix(".minmax.txt").write_text(f"min {lo!r}\nmax {hi!r}\n")


def descriptor_op(case: CropCase, out_dir: str):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    q = texture.quantize(case.roi, case.levels)
    maps = _maps(case, q)
    for angle, m in zip(texture.ANGLES, maps):
        _write_map(out / f"{case.descriptor}_{angle}.pgm", m)
    total = texture.directional_sum(maps)
    _write_map(out / f"{case.descriptor}_sum.pgm", total)
    (out / f"{case.descriptor}_sum.f64").write_bytes(texture.encode_texture_map(total))
    return maps, total


def descriptor_check(case: CropCase, output, out_dir: str):
    maps, total = output
    _finite(maps + [total])
    out = Path(out_dir)
    stored = (out / f"{case.descriptor}_sum.f64").read_bytes()
    if not np.array_equal(texture.decode_texture_map(stored), total):
        raise CheckFailed("written .f64 map differs from the computed sum map")
    h = hashlib.sha256(stored)
    for angle in list(texture.ANGLES) + ["sum"]:
        h.update((out / f"{case.descriptor}_{angle}.pgm").read_bytes())
        h.update((out / f"{case.descriptor}_{angle}.minmax.txt").read_bytes())
    return h.hexdigest(), None


def naive_check(case: CropCase, maps) -> None:
    """The sliding kernel's maps must equal the reference kernel's exactly."""
    q = texture.quantize(case.roi, case.levels)
    offsets = texture.offsets_for_distance(case.distance)
    for angle, got in zip(texture.ANGLES, maps):
        want = texture.texture_map_naive(q, case.descriptor, case.window, offsets[angle],
                                         case.symmetric)
        if not np.array_equal(got, want):
            raise CheckFailed(f"{case.descriptor} map at {angle} degrees differs from "
                              f"texture_map_naive")


WORKLOADS = {
    "film": Workload(film_setup, film_op, film_check),
    "roi_sweep": Workload(sweep_setup, sweep_op, sweep_check),
    "descriptor_maps": Workload(descriptor_setup, descriptor_op, descriptor_check),
}
