"""The benchmark tracer's wrap sites exist in the library.

``perfbench/spans.py`` wraps library functions by module attribute. A
refactor that drops one of those names, or calls a stage through a module
the tracer does not patch, would otherwise fail only in traced benchmark
runs.
"""
import importlib.util
from pathlib import Path

import pytest

from conftest import SYNTH_CASES, synth_index_line
from texturedge import PipelineConfig, parse_mias_index, pipeline

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sites(spans):
    return [(module, attr) for _, _, pairs in spans.LAYER_FUNCTIONS for module, attr in pairs]


def test_every_site_resolves(spans):
    for module, attr in sites(spans):
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_installed_wraps_and_restores_every_site(spans):
    originals = [getattr(module, attr) for module, attr in sites(spans)]
    with spans.Tracer().installed():
        for (module, attr), original in zip(sites(spans), originals):
            wrapped = getattr(module, attr)
            assert wrapped is not original and wrapped.__wrapped__ is original, attr
    for (module, attr), original in zip(sites(spans), originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"


def test_pipeline_run_passes_every_layer(spans, synth_dataset, tmp_path):
    ref, tissue, cx, cy, r, _ = SYNTH_CASES[0]
    record = parse_mias_index(synth_index_line(ref, tissue, cx, cy, r))[0]
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.unit(0, pipeline.run_pipeline, synth_dataset / f"{ref}.pgm", record,
                    PipelineConfig(), tmp_path)
    seen = {span.name for span in tracer.spans}
    assert seen == {"op"} | {name for name, _, _ in spans.LAYER_FUNCTIONS}
