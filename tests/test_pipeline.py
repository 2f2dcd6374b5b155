import dataclasses
import hashlib
import json
import re
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SYNTH_CASES, synth_index_line, synth_mass_image
from texturedge import (
    PipelineConfig,
    ThresholdSpec,
    parse_config,
    parse_mias_index,
    quantize,
    run_experiment,
    run_pipeline,
    serialize_config,
)
from texturedge import pipeline
from texturedge.errors import TexturedgeError
from texturedge.pipeline import (
    EvalConfig,
    experiment_csv,
    experiment_jsonl,
    tissue_aggregates,
    to_plain,
)
from texturedge.texture import directional_sum, offsets_for_distance, texture_map_naive

ARTIFACT_NAMES = {
    "enhanced.pgm", "roi.pgm",
    "contrast_0.pgm", "contrast_45.pgm", "contrast_90.pgm", "contrast_135.pgm",
    "contrast_0.minmax.txt", "contrast_45.minmax.txt",
    "contrast_90.minmax.txt", "contrast_135.minmax.txt",
    "contrast_sum.pgm", "contrast_sum.minmax.txt", "contrast_sum.f64",
    "mask.pgm", "contours.txt", "overlay.pgm", "roc_points.csv", "report.json",
}


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def first_case_record():
    ref, tissue, cx, cy, r, _ = SYNTH_CASES[0]
    return parse_mias_index(synth_index_line(ref, tissue, cx, cy, r))[0]


# any JSON value: NaN, ±Infinity and ints past the float range included
_json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.integers(min_value=2 ** 1024)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)


def _config_shaped(tp):
    """JSON values shaped like the annotation ``tp``, or any JSON value in
    place of it or of any field inside it."""
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        shaped = st.fixed_dictionaries({}, optional={
            f.name: _config_shaped(hints[f.name]) for f in dataclasses.fields(tp)})
    elif typing.get_origin(tp) is typing.Union:  # Optional[X]
        shaped = st.none() | _config_shaped(typing.get_args(tp)[0])
    elif typing.get_origin(tp) is tuple:
        shaped = st.tuples(*map(_config_shaped, typing.get_args(tp))).map(list)
    else:
        shaped = {bool: st.booleans(), int: st.integers(), str: st.text(max_size=8),
                  float: st.floats() | st.integers(min_value=2 ** 1024)}[tp]
    return shaped | _json_values


class TestConfig:
    def test_default_round_trip(self):
        config = PipelineConfig()
        assert parse_config(serialize_config(config)) == config

    def test_custom_round_trip(self):
        config = parse_config(json.dumps({
            "srad": {"iterations": 7, "homogeneous_region": [1, 2, 3, 4]},
            "glcm": {"levels": 16},
            "segment": {"threshold_method": {"method": "percentile", "value": 90.0}},
            "roi": {"margin_factor": 2.0},
        }))
        assert config.srad.iterations == 7
        assert config.srad.homogeneous_region == (1, 2, 3, 4)
        assert config.glcm.levels == 16
        assert config.segment.threshold_method == ThresholdSpec("percentile", 90.0)
        assert parse_config(serialize_config(config)) == config

    def test_settable_values(self):
        # every value a config file can set, so that a new knob is an edit here
        def leaves(doc, prefix=""):
            for key, value in doc.items():
                if isinstance(value, dict):
                    yield from leaves(value, f"{prefix}{key}.")
                else:
                    yield prefix + key

        assert sorted(leaves(to_plain(PipelineConfig()))) == [
            "clahe.clip_limit", "clahe.tiles_x", "clahe.tiles_y",
            "eval.full_image",
            "glcm.distance", "glcm.levels", "glcm.window_side",
            "roi.margin_factor",
            "segment.close_radius", "segment.fill_holes",
            "segment.threshold_method.method", "segment.threshold_method.value",
            "srad.homogeneous_region", "srad.iterations", "srad.q0_decay_rho",
            "srad.time_step",
        ]

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError):
            parse_config('{"bogus": {}}')

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            parse_config('{"glcm": {"depth": 3}}')

    def test_threshold_must_be_object(self):
        with pytest.raises(ValueError):
            parse_config('{"segment": {"threshold_method": "otsu"}}')

    @pytest.mark.parametrize("doc,field", [
        ({"glcm": {"window_side": "no"}}, "config.glcm.window_side"),
        ({"srad": {"iterations": True}}, "config.srad.iterations"),
        ({"eval": {"full_image": 0}}, "config.eval.full_image"),
        ({"glcm": {"levels": 8.0}}, "config.glcm.levels"),
        ({"roi": {"margin_factor": None}}, "config.roi.margin_factor"),
        ({"segment": {"threshold_method": {"method": "fixed", "value": "0.4"}}},
         "config.segment.threshold_method.value"),
        ({"srad": {"homogeneous_region": [1, 2, 3]}}, "config.srad.homogeneous_region"),
        ({"srad": {"homogeneous_region": [1, 2, 3, 4.5]}},
         "config.srad.homogeneous_region[3]"),
        ({"glcm": 8}, "config.glcm"),
        ([], "config"),
        ({"roi": {"margin_factor": float("inf")}}, "config.roi.margin_factor"),
        ({"clahe": {"clip_limit": float("nan")}}, "config.clahe.clip_limit"),
        ({"segment": {"threshold_method": {"method": "fixed", "value": float("-inf")}}},
         "config.segment.threshold_method.value"),
        ({"srad": {"time_step": 10 ** 400}}, "config.srad.time_step"),
    ])
    def test_mistyped_value_rejected(self, doc, field):
        with pytest.raises(ValueError, match=re.escape(field)):
            parse_config(json.dumps(doc))

    @given(_config_shaped(PipelineConfig))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_json_parses_or_raises_value_error(self, value):
        try:
            config = parse_config(json.dumps(value))
        except ValueError:
            return
        assert parse_config(serialize_config(config)) == config

    def test_int_widens_and_null_value_parses(self):
        config = parse_config('{"roi": {"margin_factor": 2}, "clahe": {"clip_limit": 3}}')
        assert type(config.roi.margin_factor) is float and config.roi.margin_factor == 2.0
        assert type(config.clahe.clip_limit) is float
        for threshold in ('{"method": "otsu"}', '{"method": "otsu", "value": null}'):
            doc = '{"segment": {"threshold_method": %s}}' % threshold
            assert parse_config(doc) == PipelineConfig()

    @pytest.mark.parametrize("method,value", [
        ("fixed", None), ("percentile", None), ("percentile", 150.0), ("magic", 1.0),
    ])
    def test_threshold_validation(self, method, value):
        with pytest.raises(ValueError):
            ThresholdSpec(method, value)

    def test_otsu_takes_no_value(self):
        with pytest.raises(ValueError):
            ThresholdSpec("otsu", 0.3)


@pytest.fixture(scope="module")
def result():
    ref, tissue, cx, cy, r, seed = SYNTH_CASES[0]
    img = synth_mass_image(seed, cx, cy, r)
    return run_pipeline(img, first_case_record(), PipelineConfig())


class TestRunPipeline:
    def test_dice_against_circle_proxy(self, result):
        assert result.report.dice >= 0.5

    def test_sum_map_composes(self, result):
        maps = [result.direction_maps[a] for a in (0, 45, 90, 135)]
        assert np.array_equal(result.sum_map, directional_sum(maps))

    def test_direction_maps_match_naive_kernel(self, result):
        q = quantize(result.roi.image, 8)
        offs = offsets_for_distance(1)
        for angle in (0, 45, 90, 135):
            want = texture_map_naive(q, "contrast", 7, offs[angle])
            assert np.array_equal(result.direction_maps[angle], want)

    def test_mask_dims_match_roi(self, result):
        assert result.mask.shape == result.roi.image.shape
        assert len(result.contours) >= 1

    def test_norm_record_rejected(self):
        rec = parse_mias_index("sy009 D NORM")[0]
        with pytest.raises(TexturedgeError, match="record sy009 has no center/radius annotation"):
            run_pipeline(np.zeros((64, 64), dtype=np.uint8), rec)

    def test_missing_image_path(self, tmp_path):
        missing = tmp_path / "nope.pgm"
        with pytest.raises(TexturedgeError, match=re.escape(f"no image file at {missing}")):
            run_pipeline(tmp_path / "nope.pgm", first_case_record())

    def test_crop_inside_circle_has_no_negatives(self):
        ref, tissue, cx, cy, r, seed = SYNTH_CASES[0]
        # radius 200: the crop clamps to the whole 128x128 image, which the circle covers
        record = parse_mias_index(synth_index_line(ref, tissue, cx, cy, 200))[0]
        with pytest.raises(TexturedgeError, match="reference has no negative pixels"):
            run_pipeline(synth_mass_image(seed, cx, cy, r), record)

    def test_full_image_eval_scope(self, result):
        ref, tissue, cx, cy, r, seed = SYNTH_CASES[0]
        img = synth_mass_image(seed, cx, cy, r)
        full = run_pipeline(img, first_case_record(), dataclasses.replace(
            PipelineConfig(), eval=EvalConfig(full_image=True)))
        assert full.eval_scope == "full" and result.eval_scope == "roi"
        # whole-image scoring adds only true negatives for this centered mass
        assert full.report.counts.tn > result.report.counts.tn
        assert full.report.counts.tp == result.report.counts.tp
        assert full.report.dice == result.report.dice
        assert full.report.counts.total == img.size

    @pytest.mark.parametrize("spec", [
        ThresholdSpec("percentile", 75.0),
        ThresholdSpec("fixed", 5.0),
    ])
    def test_alternate_threshold_methods(self, spec):
        ref, tissue, cx, cy, r, seed = SYNTH_CASES[0]
        img = synth_mass_image(seed, cx, cy, r)
        config = PipelineConfig()
        config = dataclasses.replace(
            config, segment=dataclasses.replace(config.segment, threshold_method=spec))
        result = run_pipeline(img, first_case_record(), config)
        if spec.method == "fixed":
            assert result.threshold == 5.0
        assert result.mask.shape == result.roi.image.shape

    def test_artifact_tree_and_determinism(self, tmp_path):
        ref, tissue, cx, cy, r, seed = SYNTH_CASES[0]
        img = synth_mass_image(seed, cx, cy, r)
        rec = first_case_record()
        run_pipeline(img, rec, PipelineConfig(), out_dir=tmp_path / "a")
        run_pipeline(img, rec, PipelineConfig(), out_dir=tmp_path / "b")
        produced = {p.name for p in (tmp_path / "a" / ref).iterdir()}
        assert produced == ARTIFACT_NAMES
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
        report = json.loads((tmp_path / "a" / ref / "report.json").read_text())
        assert report["ref_id"] == ref
        assert 0.0 <= report["dice"] <= 1.0
        assert report["tp"] + report["fp"] + report["fn"] + report["tn"] == \
            np.prod(run_pipeline(img, rec).mask.shape)


class TestExperiment:
    def test_three_ids_three_rows_plus_aggregates(self, synth_dataset, caplog):
        ids = [case[0] for case in SYNTH_CASES]
        rows = run_experiment(synth_dataset, ids)
        assert caplog.records == []  # one geometry record per id: nothing ignored
        assert [row.ref_id for row in rows] == sorted(ids)
        assert all(row.report.dice >= 0.5 for row in rows)
        aggs = tissue_aggregates(rows)
        assert sorted(aggs) == ["D", "F", "G"]
        assert all(agg["count"] == 1 for agg in aggs.values())

    def test_empty_ids(self, synth_dataset):
        assert run_experiment(synth_dataset, []) == []
        assert experiment_csv([]).splitlines()[0].startswith("ref_id,")
        assert experiment_jsonl([]) == ""

    def test_unknown_id(self, synth_dataset):
        with pytest.raises(TexturedgeError, match="no annotation record for id 'zz999'"):
            run_experiment(synth_dataset, ["zz999"])

    def test_norm_only_record(self, synth_dataset):
        with pytest.raises(TexturedgeError, match="record sy004 has no center/radius annotation"):
            run_experiment(synth_dataset, ["sy004"])

    def test_missing_image(self, tmp_path):
        (tmp_path / "Info.txt").write_text("sy010 F CIRC B 20 20 5\n")
        with pytest.raises(TexturedgeError, match="no image file at .*sy010.pgm"):
            run_experiment(tmp_path, ["sy010"])

    @pytest.mark.parametrize("bad,message", [
        pytest.param("zz999", "no annotation record for id 'zz999'",
                     id="zz999-MissingRecordError"),
        pytest.param("sy004", "record sy004 has no center/radius annotation",
                     id="sy004-NoGroundTruthError"),
        pytest.param("sy005", "no image file at .*sy005.pgm", id="sy005-MissingImageError"),
    ])
    def test_refused_id_stops_the_run_before_any_image(self, bad, message, refusal_dataset,
                                                       tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "srad", lambda *args: calls.append(args))
        with pytest.raises(TexturedgeError, match=message):
            run_experiment(refusal_dataset, ["sy001", "sy002", bad], out_dir=tmp_path / "out")
        assert calls == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad,message", [
        pytest.param("sy008", "raster has 8184 of 16384 bytes", id="sy008-TruncatedDataError"),
        pytest.param("sy009", "center (500, 107) outside 128x128 image",
                     id="sy009-CenterOutOfBoundsError"),
        pytest.param("sy010", "reference has no negative pixels in the evaluated region",
                     id="sy010-CircleCoversCrop"),
    ])
    def test_bad_image_or_circle_stops_the_run_before_any_image(
            self, bad, message, refusal_dataset, tmp_path, monkeypatch):
        # a PGM that does not decode, a circle outside its image and one
        # that leaves its crop no negative pixel to score are found before
        # the first film, not after sy001's tree is written; the refusal
        # names the id and its file
        calls = []
        monkeypatch.setattr(pipeline, "srad", lambda *args: calls.append(args))
        where = f"id {bad} ({refusal_dataset / f'{bad}.pgm'}): "
        with pytest.raises(TexturedgeError, match=re.escape(where + message)):
            run_experiment(refusal_dataset, ["sy001", "sy002", bad], out_dir=tmp_path / "out")
        assert calls == [] and not (tmp_path / "out").exists()

    def test_missing_index(self, tmp_path):
        with pytest.raises(TexturedgeError, match="no annotation index at"):
            run_experiment(tmp_path, ["sy001"])
        # the index is Info.txt: a file under another name is not read
        (tmp_path / "index.txt").write_text("sy001 F CIRC B 20 20 5\n")
        with pytest.raises(TexturedgeError, match="Info.txt"):
            run_experiment(tmp_path, ["sy001"])

    def test_csv_layout(self, synth_dataset):
        rows = run_experiment(synth_dataset, ["sy001", "sy002"])
        text = experiment_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == ("ref_id,tissue,tp,fp,fn,tn,dice,precision,recall,"
                            "specificity,f_measure,az")
        assert lines[1].startswith("sy001,D,")
        assert lines[-1].startswith("mean:")

    def test_jsonl_layout(self, synth_dataset):
        rows = run_experiment(synth_dataset, ["sy001"])
        docs = [json.loads(line) for line in experiment_jsonl(rows).splitlines()]
        assert docs[0]["ref_id"] == "sy001"
        assert docs[-1]["aggregate"] == "D"

