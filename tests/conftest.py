import faulthandler
import importlib.util
import os
import shutil
import sys
from pathlib import Path

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

# Seconds one test may take, its fixtures' set-up and tear-down included,
# before the run ends with every thread's traceback: about six times the
# slowest test (20 s). SRAD's forked bands block on pipe reads, so a fault
# in their protocol would otherwise hang the suite.
TEST_TIME_LIMIT_S = 120
_TRACEBACK_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of the real stderr, taken before output capture redirects fd 2,
    # so that the traceback of a run ended mid-test reaches the terminal
    config.stash[_TRACEBACK_FD] = os.dup(sys.stderr.fileno())


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    # a hook, not an autouse fixture: module- and session-scoped fixtures,
    # such as test_pipeline's whole run and test_enhance's 20 s SRAD oracle,
    # are set up before any function-scoped one
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True,
                                      file=item.config.stash[_TRACEBACK_FD])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


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


def load_benchmark_films(seed: int):
    """``single_mass_films(seed)`` of the benchmark's ``perfbench/films.py``:
    seeded 1024x1024 films, one per tissue class."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "films.py"
    spec = importlib.util.spec_from_file_location("perfbench_films", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up while its classes are made
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.single_mass_films(seed)


@pytest.fixture(scope="session")
def benchmark_films():
    return load_benchmark_films(5)


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
    """The synthetic dataset plus five annotated ids that an experiment
    refuses: sy005, whose image is missing, sy008, whose PGM is cut short,
    sy009, whose circle centre lies outside its 128x128 image, sy010, whose
    radius-200 circle covers its whole crop, and sy011, whose 6x6 image is
    too small for the default 8x8 CLAHE tiles. A sixth, sy012, passes every
    check but its constant film leaves a constant map, which has no
    threshold. With sy004 (NORM) and an unknown id, each sorts after
    sy001..sy003."""
    root = tmp_path / "refusals"
    shutil.copytree(synth_dataset, root)
    pgm = (root / "sy001.pgm").read_bytes()
    (root / "sy008.pgm").write_bytes(pgm[:len(pgm) // 2])
    (root / "sy009.pgm").write_bytes(pgm)
    (root / "sy010.pgm").write_bytes(pgm)
    write_pgm(root / "sy011.pgm", synth_mass_image(11, 3, 3, 1, size=6))
    write_pgm(root / "sy012.pgm", np.full((SYNTH_SIZE, SYNTH_SIZE), 100, dtype=np.uint8))
    with open(root / "Info.txt", "a") as index:
        index.write(synth_index_line("sy005", "F", 64, 64, 14) + "\n")
        index.write(synth_index_line("sy008", "G", 64, 64, 14) + "\n")
        index.write("sy009 F CIRC B 500 20 10\n")
        index.write(synth_index_line("sy010", "D", 64, 64, 200) + "\n")
        index.write(synth_index_line("sy011", "F", 3, 3, 1, size=6) + "\n")
        index.write(synth_index_line("sy012", "G", 64, 64, 14) + "\n")
    return root


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)
