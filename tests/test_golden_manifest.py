"""Byte identity of the CLI's outputs against ``tests/golden_manifest.json``.

The manifest holds the NumPy version and one SHA-256 per file written by:

- ``experiment`` over the three synthetic test cases plus the first film of
  the benchmark's ``single_mass_films(5)``, once with the default config and
  once with ``--distance 2``, each run's stdout included;
- ``texture`` on sy001's ``roi.pgm`` from the default run, for every
  descriptor, without and with ``--symmetric``;

and by the dataset those runs read. A change that alters an output byte
fails here and lists the changed, missing and extra files. A change that
alters output bits on purpose rewrites the manifest, from the repo root:

    PYTHONPATH=src python tests/test_golden_manifest.py

which prints the files changed, missing and extra against the manifest it
replaces, for the change to name.

SRAD's float64 ``exp`` and entropy's ``log2`` may round differently under
another NumPy, so the test skips on any version but the manifest's.
"""
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import SYNTH_CASES, load_benchmark_films, synth_index_line, synth_mass_image
from texturedge import Descriptor, write_pgm
from texturedge.cli import main

MANIFEST = Path(__file__).with_name("golden_manifest.json")
EXPERIMENTS = {"defaults": [], "distance_2": ["--distance", "2"]}


def _cli(*argv: str) -> str:
    """The stdout of one CLI run, which must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"texturedge {' '.join(argv)} exited {code}")
    return out.getvalue()


def build(work: Path, film) -> dict[str, str]:
    """Run the manifest's commands under ``work`` and return the SHA-256 of
    every file there, keyed by its path relative to ``work``."""
    data = work / "dataset"
    data.mkdir(parents=True)
    lines = []
    for ref, tissue, cx, cy, r, seed in SYNTH_CASES:
        write_pgm(data / f"{ref}.pgm", synth_mass_image(seed, cx, cy, r))
        lines.append(synth_index_line(ref, tissue, cx, cy, r))
    write_pgm(data / f"{film.ref_id}.pgm", film.image)
    (data / "Info.txt").write_text("\n".join(lines + film.index_lines()) + "\n")
    ids = [case[0] for case in SYNTH_CASES] + [film.ref_id]
    for name, flags in EXPERIMENTS.items():
        stdout = _cli("experiment", "--dataset", str(data), "--ids", *ids,
                      "--out", str(work / name), *flags)
        (work / f"{name}.stdout").write_text(stdout)
    roi = work / "defaults" / SYNTH_CASES[0][0] / "roi.pgm"
    for kind in Descriptor:
        for suffix, flags in (("", []), ("_symmetric", ["--symmetric"])):
            out = work / "texture" / (kind.value + suffix)
            _cli("texture", "-i", str(roi), "--out", str(out), "--descriptor", kind.value,
                 *flags)
    return {p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.rglob("*")) if p.is_file()}


def differences(want: dict[str, str], got: dict[str, str]) -> dict[str, list[str]]:
    """The files of ``got`` whose hash differs from ``want``'s, those only in
    ``want`` and those only in ``got``."""
    return {"changed": sorted(k for k in want.keys() & got.keys() if want[k] != got[k]),
            "missing": sorted(want.keys() - got.keys()),
            "extra": sorted(got.keys() - want.keys())}


def test_outputs_match_the_golden_manifest(tmp_path, benchmark_films):
    golden = json.loads(MANIFEST.read_text())
    if golden["numpy"] != np.__version__:
        pytest.skip(f"the manifest pins NumPy {golden['numpy']}; this is {np.__version__}")
    diff = differences(golden["files"], build(tmp_path, benchmark_films[0]))
    assert not any(diff.values()), "\n".join(f"{k}: {v}" for k, v in diff.items())


if __name__ == "__main__":
    old = json.loads(MANIFEST.read_text())["files"] if MANIFEST.is_file() else {}
    with tempfile.TemporaryDirectory() as work:
        files = build(Path(work), load_benchmark_films(5)[0])
    MANIFEST.write_text(json.dumps({"numpy": np.__version__, "files": files},
                                   indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(files)} hashes to {MANIFEST}")
    for label, keys in differences(old, files).items():
        print(f"{label} ({len(keys)}):", *keys, sep="\n  ")
