"""Seeded synthetic films with mini-MIAS geometry.

A film is a 1024 x 1024 8-bit image: a dark background, a breast region
bounded by a half-ellipse against the left or right edge, tissue texture
whose brightness and graininess follow the F/G/D class, multiplicative
speckle, and bright round masses. Each mass is described by an index line
in the mini-MIAS text format, whose circle centre uses a bottom-left
origin, so the geometry goes through the library's own index parser and
y flip.

Everything here depends only on the seed; nothing imports the library's
tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage, special

FILM_SIDE = 1024

# (base intensity, texture amplitude) per tissue class
TISSUE_LOOK = {"F": (85.0, 3.0), "G": (100.0, 4.0), "D": (115.0, 5.0)}
MASS_BOOST = 60.0

# radius bands (pixels) for the single-mass films: small, medium, large
RADIUS_BANDS = ((18, 28), (40, 60), (75, 105))

# radii of the multi-mass film: crop sides run from 60 to 330. They do not
# depend on the seed, so every seed sweeps crops of the same sizes.
MULTI_RADII = (20, 30, 40, 50, 70, 90, 110)


@dataclass(frozen=True)
class Mass:
    cx: int          # image column
    cy: int          # image row, top-left origin
    radius: int


@dataclass(frozen=True)
class Film:
    ref_id: str
    tissue: str
    image: np.ndarray
    masses: tuple[Mass, ...]

    def index_lines(self) -> list[str]:
        """mini-MIAS index rows; the centre row is stored bottom-left."""
        return [f"{self.ref_id} {self.tissue} CIRC B {m.cx} {FILM_SIDE - 1 - m.cy} {m.radius}"
                for m in self.masses]


def _breast_region(rng: np.random.Generator, left: bool) -> np.ndarray:
    yy, xx = np.mgrid[0:FILM_SIDE, 0:FILM_SIDE].astype(np.float64)
    depth = rng.uniform(0.78, 0.88) * FILM_SIDE
    half_height = rng.uniform(0.44, 0.49) * FILM_SIDE
    x = xx if left else (FILM_SIDE - 1 - xx)
    return (x / depth) ** 2 + ((yy - FILM_SIDE / 2) / half_height) ** 2 <= 1.0


def _render(rng: np.random.Generator, tissue: str, masses: tuple[Mass, ...],
            left: bool) -> np.ndarray:
    base, amplitude = TISSUE_LOOK[tissue]
    breast = _breast_region(rng, left)
    texture = ndimage.gaussian_filter(rng.normal(0.0, 1.0, (FILM_SIDE, FILM_SIDE)), 10.0)
    texture *= amplitude / max(float(texture.std()), 1e-9)
    img = np.where(breast, base + texture, 8.0)
    yy, xx = np.mgrid[0:FILM_SIDE, 0:FILM_SIDE]
    for m in masses:
        dist = np.sqrt((xx - m.cx) ** 2 + (yy - m.cy) ** 2)
        # soft 3-pixel edge so the border is a ridge, not a single step
        img += MASS_BOOST * special.expit((m.radius - dist) / 1.5)
    img *= rng.gamma(400.0, 1.0 / 400.0, (FILM_SIDE, FILM_SIDE))  # speckle, mean 1
    return np.clip(np.floor(img + 0.5), 0, 255).astype(np.uint8)


def single_mass_films(seed: int) -> list[Film]:
    """One film per tissue class, masses from small (F) to large (D)."""
    rng = np.random.default_rng([seed, 1])
    films = []
    for k, (tissue, (r_lo, r_hi)) in enumerate(zip("FGD", RADIUS_BANDS)):
        left = bool(rng.integers(0, 2))
        r = int(rng.integers(r_lo, r_hi + 1))
        # keep the mass and its crop inside the breast's inner part
        x_in = int(rng.integers(160, 300))
        cx = x_in if left else FILM_SIDE - 1 - x_in
        cy = int(rng.integers(330, 694))
        films.append(Film(f"bf{seed % 1000:03d}{k}", tissue,
                          _render(rng, tissue, (Mass(cx, cy, r),), left), (Mass(cx, cy, r),)))
    return films


def multi_mass_film(seed: int, tissue: str = "G") -> Film:
    """One film carrying one mass per ``MULTI_RADII`` entry, placed so that
    no crop reaches into another mass's crop."""
    rng = np.random.default_rng([seed, 2])
    left = bool(rng.integers(0, 2))
    # (distance from the chest edge, row) per radius band; no two crops overlap
    slots = ((330, 850), (330, 170), (120, 860), (120, 160), (520, 680), (520, 360), (180, 512))
    masses = []
    for (x_in, cy), radius in zip(slots, MULTI_RADII):
        jitter = rng.integers(-6, 7, size=2)
        cx = x_in + int(jitter[0])
        masses.append(Mass(cx if left else FILM_SIDE - 1 - cx, cy + int(jitter[1]), radius))
    return Film(f"mm{seed % 1000:03d}", tissue, _render(rng, tissue, tuple(masses), left),
                tuple(masses))
