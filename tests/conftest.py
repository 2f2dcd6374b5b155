import shutil

import numpy as np
import pytest

from texturedge import write_pgm

SYNTH_SIZE = 128

# (ref_id, tissue, center_x, center_y_image, radius, seed)
SYNTH_CASES = [
    ("sy001", "D", 64, 64, 14, 11),
    ("sy002", "F", 58, 70, 16, 22),
    ("sy003", "G", 70, 60, 12, 33),
]


def synth_mass_image(seed: int, cx: int, cy: int, r: int, size: int = SYNTH_SIZE) -> np.ndarray:
    """Bright disk on a noisy gradient background: a stand-in mass whose
    border produces a strong co-occurrence contrast ridge."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size]
    base = 70.0 + 40.0 * (yy / size) + rng.normal(0.0, 4.0, (size, size))
    disk = (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
    img = base + np.where(disk, 55.0 + rng.normal(0.0, 3.0, (size, size)), 0.0)
    return np.clip(img, 0, 255).astype(np.uint8)


def synth_index_line(ref: str, tissue: str, cx: int, cy: int, r: int,
                     size: int = SYNTH_SIZE) -> str:
    # the index stores bottom-left-origin rows
    return f"{ref} {tissue} CIRC B {cx} {size - 1 - cy} {r}"


@pytest.fixture(scope="session")
def synth_dataset(tmp_path_factory):
    """A three-image annotated dataset (one per tissue class) on disk."""
    root = tmp_path_factory.mktemp("synth_mias")
    lines = []
    for ref, tissue, cx, cy, r, seed in SYNTH_CASES:
        write_pgm(root / f"{ref}.pgm", synth_mass_image(seed, cx, cy, r))
        lines.append(synth_index_line(ref, tissue, cx, cy, r))
    # a normal (mass-free) image: annotation carries no geometry
    rng = np.random.default_rng(44)
    write_pgm(root / "sy004.pgm",
              rng.integers(60, 120, size=(SYNTH_SIZE, SYNTH_SIZE), dtype=np.uint8))
    lines.append("sy004 D NORM")
    (root / "Info.txt").write_text("\n".join(lines) + "\n")
    return root


@pytest.fixture()
def refusal_dataset(synth_dataset, tmp_path):
    """The synthetic dataset plus an annotated id, sy005, whose image is
    missing. With sy004 (NORM) and an unknown id, the three ids that an
    experiment refuses; each sorts after sy001..sy003."""
    root = tmp_path / "refusals"
    shutil.copytree(synth_dataset, root)
    with open(root / "Info.txt", "a") as index:
        index.write(synth_index_line("sy005", "F", 64, 64, 14) + "\n")
    return root


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)
