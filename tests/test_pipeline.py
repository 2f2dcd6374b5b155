import collections
import dataclasses
import hashlib
import json
import math
import re
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import SYNTH_CASES, synth_index_line, synth_mass_image
from test_evalmetrics import oracle_concordance_az, oracle_roc_points
from test_segment import oracle_otsu_threshold, oracle_refine_mask, oracle_trace_contour
from test_texture import oracle_texture_map
from texturedge import (
    ANGLES,
    ConfusionCounts,
    Descriptor,
    MiasRecord,
    PipelineConfig,
    QuantizedImage,
    ThresholdSpec,
    parse_config,
    parse_mias_index,
    quantize,
    run_experiment,
    run_pipeline,
    serialize_config,
)
from texturedge import pipeline
from texturedge.enhance import SradParams, srad
from texturedge.errors import InternalInvariantError, TexturedgeError
from texturedge.evalmetrics import circle_mask, confusion, metrics
from texturedge.pipeline import (
    GlcmConfig,
    RoiConfig,
    SegmentConfig,
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
        ({"segment": {"fill_holes": 0}}, "config.segment.fill_holes"),
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
        ("fixed", math.inf), ("fixed", -math.inf), ("fixed", math.nan),
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

    def test_full_image_eval_scope(self, benchmark_films, tmp_path):
        # report.json's image_tn and image_specificity against the mask and
        # circle scored on the whole image, as the former full-image scope did
        cases = [(synth_mass_image(seed, cx, cy, r), synth_index_line(ref, tissue, cx, cy, r))
                 for ref, tissue, cx, cy, r, seed in SYNTH_CASES]
        film = benchmark_films[0]
        cases.append((film.image, film.index_lines()[0]))
        image_tns = []
        for img, line in cases:
            record = parse_mias_index(line)[0]
            result = run_pipeline(img, record, out_dir=tmp_path)
            report = json.loads((tmp_path / record.ref_id / "report.json").read_text())
            crop, (cx, cy), truth = pipeline.crop_roi(img, record, RoiConfig())
            h, w = img.shape
            full_truth = circle_mask(w, h, crop.x0 + cx, crop.y0 + cy, record.radius)
            assert np.array_equal(
                full_truth[crop.y0:crop.y0 + crop.height, crop.x0:crop.x0 + crop.width], truth)
            full_mask = np.zeros((h, w), dtype=bool)
            full_mask[crop.y0:crop.y0 + crop.height, crop.x0:crop.x0 + crop.width] = result.mask
            want = metrics(confusion(full_mask, full_truth))
            assert [report[k] for k in ("tp", "fp", "fn")] == [
                want.counts.tp, want.counts.fp, want.counts.fn]
            assert report["image_tn"] == want.counts.tn
            assert report["image_specificity"] == want.specificity
            assert report["tn"] == result.report.counts.tn < want.counts.tn
            assert "eval_scope" not in report
            image_tns.append(report["image_tn"])
        assert image_tns == [15070, 15181, 15680, 1044582]

    @given(st.integers(8, 40), st.integers(8, 40), st.integers(1, 16), st.floats(1.0, 4.0),
           st.integers(0, 39), st.integers(0, 39))
    # only the east end cut (the south end is clipped by the image), and only the south
    @example(40, 40, 5, 1.0, 10, 35)
    @example(40, 40, 5, 1.0, 35, 10)
    @settings(max_examples=300, deadline=None)
    def test_crop_holds_the_circle_or_is_refused(self, w, h, r, margin, cx, cy):
        # the refusal fires exactly when the crop leaves out an image pixel
        # of the circle, and never from margin 1.5 on
        cx, cy = cx % w, cy % h
        record = MiasRecord("p1", "F", "CIRC", "B", cx, h - 1 - cy, r)
        img = np.zeros((h, w), dtype=np.uint8)
        crop, (x, y), truth = pipeline.crop_roi(img, record, RoiConfig(margin))
        in_crop = np.count_nonzero(truth)
        in_image = np.count_nonzero(circle_mask(w, h, cx, cy, r))
        config = dataclasses.replace(PipelineConfig(), roi=RoiConfig(margin))
        try:
            pipeline._check_run_input(img, record, config)
            refused = False
        except TexturedgeError as exc:
            refused = "leaves out part of the radius" in str(exc)
        assert refused == (in_crop < in_image)
        assert not (refused and margin >= 1.5)

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

    @pytest.mark.parametrize("from_file", [True, False])
    def test_data_error_after_the_check_names_the_film(self, from_file, refusal_dataset):
        # sy012's constant film passes the check; its map has no threshold
        path = refusal_dataset / "sy012.pgm"
        record = parse_mias_index(synth_index_line("sy012", "G", 64, 64, 14))[0]
        where = f"id sy012 ({path})" if from_file else "id sy012"
        with pytest.raises(TexturedgeError, match=re.escape(
                f"{where}: map is constant; no threshold exists")):
            run_pipeline(path if from_file else pipeline.read_pgm(path), record)


# --- score_point against the tests' oracles ------------------------------------

@pytest.fixture(scope="module")
def enhanced_cases():
    """The three synthetic cases, each enhanced once, with their records."""
    return [(pipeline.enhance_image(synth_mass_image(seed, cx, cy, r), PipelineConfig()),
             parse_mias_index(synth_index_line(ref, tissue, cx, cy, r))[0])
            for ref, tissue, cx, cy, r, seed in SYNTH_CASES]


def oracle_score_point(enhanced, record, config):
    """``score_point`` written out from the library's crop on: the
    quantization ``(v * L) // 256``, one per-pixel oracle map per direction
    and their sum, the oracle threshold, mask and contours, and the circle
    truth with its confusion counts as boolean sums."""
    crop, (cx, cy), _ = pipeline.crop_roi(enhanced, record, config.roi)
    glcm, segment = config.glcm, config.segment
    q = QuantizedImage((crop.image.astype(np.int64) * glcm.levels // 256).astype(np.uint8),
                       glcm.levels)
    offsets = offsets_for_distance(glcm.distance)
    maps = {angle: oracle_texture_map(q, Descriptor.CONTRAST, glcm.window_side, offsets[angle])
            for angle in ANGLES}
    sum_map = maps[0] + maps[45] + maps[90] + maps[135]
    spec = segment.threshold_method
    if spec.method == "otsu":
        threshold = oracle_otsu_threshold(sum_map)
    elif spec.method == "fixed":
        threshold = spec.value
    else:
        threshold = float(np.percentile(sum_map, spec.value))
    mask = oracle_refine_mask(sum_map >= threshold, (cx, cy), segment.close_radius,
                              segment.fill_holes)
    yy, xx = np.mgrid[0:crop.height, 0:crop.width]
    truth = (xx - cx) ** 2 + (yy - cy) ** 2 <= record.radius ** 2
    counts = ConfusionCounts(int(np.sum(mask & truth)), int(np.sum(mask & ~truth)),
                             int(np.sum(~mask & truth)), int(np.sum(~mask & ~truth)))
    return maps, sum_map, threshold, mask, oracle_trace_contour(mask), truth, counts


def assert_score_point_matches_oracle(enhanced, record, config):
    result = pipeline.score_point(enhanced, record, config)
    maps, sum_map, threshold, mask, contours, truth, counts = oracle_score_point(
        enhanced, record, config)
    for angle in ANGLES:
        assert np.array_equal(result.direction_maps[angle], maps[angle]), angle
    assert np.array_equal(result.sum_map, sum_map)
    assert result.threshold == threshold
    assert np.array_equal(result.mask, mask)
    assert result.contours == contours
    assert result.report.counts == counts
    assert np.array_equal(result.roc.points, oracle_roc_points(sum_map, truth))
    assert abs(result.roc.az - oracle_concordance_az(sum_map, truth)) <= 1e-12


class TestScorePoint:
    @pytest.mark.parametrize("case", range(len(SYNTH_CASES)))
    def test_default_config_matches_oracle_chain(self, case, enhanced_cases):
        assert_score_point_matches_oracle(*enhanced_cases[case], PipelineConfig())

    @given(case=st.integers(0, len(SYNTH_CASES) - 1), levels=st.integers(2, 16),
           window=st.sampled_from([3, 5, 7, 9]), distance=st.integers(1, 3),
           close_radius=st.integers(0, 4), fill_holes=st.booleans(),
           threshold=st.one_of(
               st.just(ThresholdSpec()),
               st.builds(ThresholdSpec, st.just("fixed"), st.floats(0.0, 50.0)),
               st.builds(ThresholdSpec, st.just("percentile"), st.floats(0.0, 100.0))))
    @settings(max_examples=15, deadline=None)
    def test_settings_match_oracle_chain(self, enhanced_cases, case, levels, window, distance,
                                         close_radius, fill_holes, threshold):
        # the settings that act after enhancement, on the images enhanced once
        assume(distance < window)
        config = PipelineConfig(glcm=GlcmConfig(levels, window, distance),
                                segment=SegmentConfig(threshold, close_radius, fill_holes))
        assert_score_point_matches_oracle(*enhanced_cases[case], config)

    @given(size=st.integers(64, 96), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    @settings(max_examples=50, deadline=None)  # about 4 s on 2 vCPUs
    def test_seeded_film_matches_oracle_chain(self, size, seed, data):
        # a new film per example: enhance_image, then score_point on its
        # output, against the oracles on that same enhanced image
        r = data.draw(st.integers(6, 16), label="radius")
        cx = data.draw(st.integers(r, size - 1 - r), label="cx")
        cy = data.draw(st.integers(r, size - 1 - r), label="cy")
        config = PipelineConfig()
        enhanced = pipeline.enhance_image(synth_mass_image(seed, cx, cy, r, size), config)
        record = parse_mias_index(synth_index_line("sy100", "F", cx, cy, r, size))[0]
        assert_score_point_matches_oracle(enhanced, record, config)


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

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_fixed_threshold_runs_no_srad(self, value, synth_dataset, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "srad", lambda *args: calls.append(args) or srad(*args))
        with pytest.raises(ValueError, match="threshold must be finite"):
            run_experiment(synth_dataset, [SYNTH_CASES[0][0]], PipelineConfig(
                segment=SegmentConfig(ThresholdSpec("fixed", value))))
        assert calls == []

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
        pytest.param("sy011", "8x8 tiles do not fit a 6x6 image", id="sy011-TilesDoNotFit"),
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

    def test_homogeneous_region_outside_an_image_stops_the_run_before_any_image(
            self, refusal_dataset, tmp_path, monkeypatch):
        # the region fits sy001's 128x128 image but not sy011's 6x6 one; the
        # refusal names the id and its file
        calls = []
        monkeypatch.setattr(pipeline, "srad", lambda *args: calls.append(args))
        config = PipelineConfig(srad=SradParams(homogeneous_region=(0, 0, 8, 8)))
        where = f"id sy011 ({refusal_dataset / 'sy011.pgm'}): "
        with pytest.raises(ValueError, match=re.escape(
                where + "homogeneous_region (0, 0, 8, 8) is not inside the 6x6 image")):
            run_experiment(refusal_dataset, ["sy001", "sy011"], config, out_dir=tmp_path / "out")
        assert calls == [] and not (tmp_path / "out").exists()

    def test_data_error_while_a_film_runs_names_it_and_stops_the_batch(
            self, refusal_dataset, tmp_path):
        # sy012 passes the check and fails at its threshold, after sy001's
        # tree is written: that tree stays and the error names the film
        where = f"id sy012 ({refusal_dataset / 'sy012.pgm'}): "
        with pytest.raises(TexturedgeError, match=re.escape(
                where + "map is constant; no threshold exists")):
            run_experiment(refusal_dataset, ["sy001", "sy012"], out_dir=tmp_path / "out")
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["sy001"]

    def test_internal_invariant_while_a_film_runs_keeps_its_class(self, synth_dataset,
                                                                 monkeypatch):
        # named like a data error, but still exit 3's class, not exit 2's
        def broken_srad(*args):
            raise InternalInvariantError("SRAD band 1 ended with exit status 7")

        monkeypatch.setattr(pipeline, "srad", broken_srad)
        where = f"id sy001 ({synth_dataset / 'sy001.pgm'}): "
        with pytest.raises(InternalInvariantError, match=re.escape(
                where + "SRAD band 1 ended with exit status 7")):
            run_experiment(synth_dataset, ["sy001"])

    def test_each_film_is_checked_once_and_enhanced_once(self, synth_dataset, monkeypatch):
        # counted by wrapping the names pipeline calls, as perfbench/spans.py
        # does: one check and one crop per film before the first film runs,
        # one crop and one SRAD per film while it runs
        calls = collections.Counter()

        def counting(name, original):
            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return counted

        for name in ("_check_run_input", "extract_roi", "srad"):
            monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
        run_experiment(synth_dataset, [case[0] for case in SYNTH_CASES])
        assert calls == {"_check_run_input": 3, "extract_roi": 6, "srad": 3}

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

