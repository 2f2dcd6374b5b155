import dataclasses
import json
import logging
import shlex
from pathlib import Path

import numpy as np
import pytest

from conftest import SYNTH_CASES, synth_index_line, synth_mass_image
from texturedge import (
    ConfusionCounts,
    EvalReport,
    PipelineConfig,
    ThresholdSpec,
    circle_mask,
    parse_config,
    parse_mias_index,
    quantize,
    read_pgm,
    run_experiment,
    run_pipeline,
    write_pgm,
)
from texturedge import cli, pipeline
from texturedge.cli import DATASET_ENV_VAR, _build_config, build_parser, main
from texturedge.errors import InternalInvariantError
from texturedge.pipeline import crop_roi
from texturedge.segment import mask_to_gray
from texturedge.texture import (
    ANGLES,
    decode_texture_map,
    directional_sum,
    encode_texture_map,
    offsets_for_distance,
    texture_map_naive,
)


def run_cli(*argv) -> int:
    return main(list(argv))


class TestTopLevel:
    def test_print_defaults_round_trips(self, capsys):
        assert run_cli("--print-defaults") == 0
        out = capsys.readouterr().out
        assert parse_config(out) == PipelineConfig()

    def test_no_command_is_usage_error(self):
        assert run_cli() == 1

    def test_unknown_flag_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("pipeline", "--bogus")
        assert excinfo.value.code == 1

    def test_readme_cli_examples_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        examples = [argv for argv in (shlex.split(line, comments=True) for line in lines)
                    if argv[:1] == ["texturedge"]]
        commands = set()
        for argv in examples:
            try:
                commands.add(build_parser().parse_args(argv[1:]).command)
            except SystemExit:
                pytest.fail(f"README example does not parse: {shlex.join(argv)}")
        assert commands >= {"enhance", "texture", "segment", "eval", "pipeline", "experiment"}


# (flags, config section, field, value), spelled out here rather than read
# from the CLI's table, so that a wrong dotted path there fails
CONFIG_FLAG_CASES = {
    "srad_clahe": [
        (["--srad-iterations", "7"], "srad", "iterations", 7),
        (["--srad-time-step", "0.125"], "srad", "time_step", 0.125),
        (["--clahe-clip", "3.5"], "clahe", "clip_limit", 3.5),
    ],
    "glcm": [
        (["--levels", "16"], "glcm", "levels", 16),
        (["--window", "9"], "glcm", "window_side", 9),
        (["--distance", "2"], "glcm", "distance", 2),
    ],
    "segmenting": [
        (["--threshold", "percentile:80"], "segment", "threshold_method",
         ThresholdSpec("percentile", 80.0)),
        (["--threshold", "fixed:2"], "segment", "threshold_method", ThresholdSpec("fixed", 2.0)),
        (["--close-radius", "1"], "segment", "close_radius", 1),
        (["--no-fill-holes"], "segment", "fill_holes", False),
    ],
    "roi": [(["--margin", "2.5"], "roi", "margin_factor", 2.5)],
}
# each subcommand's required arguments and the flag sets it takes
SUBCOMMAND_FLAG_SETS = {
    "enhance": (["-i", "in.pgm", "-o", "out.pgm"], ["srad_clahe"]),
    "texture": (["-i", "roi.pgm", "--out", "tex"], ["glcm"]),
    "segment": (["-i", "sum.f64", "--center", "1,2", "--out", "seg"], ["segmenting"]),
    "pipeline": (["--image", "a.pgm", "--record", "a D CIRC B 1 2 3", "--out", "o"],
                 list(CONFIG_FLAG_CASES)),
    "experiment": (["--out", "o"], list(CONFIG_FLAG_CASES)),
}


def _flag_cases():
    for command, (required, flag_sets) in SUBCOMMAND_FLAG_SETS.items():
        for flag_set in flag_sets:
            for flags, section, name, value in CONFIG_FLAG_CASES[flag_set]:
                yield pytest.param(command, required + flags, section, name, value,
                                   id="_".join([command, *flags]))


class TestConfigFlags:
    @pytest.mark.parametrize("command,argv,section,name,value", list(_flag_cases()))
    def test_each_flag_changes_exactly_its_field(self, command, argv, section, name, value):
        config = _build_config(build_parser().parse_args([command, *argv]))
        defaults = PipelineConfig()
        want = dataclasses.replace(defaults, **{section: dataclasses.replace(
            getattr(defaults, section), **{name: value})})
        assert want != defaults and config == want

    def test_flag_overrides_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"glcm": {"levels": 4, "window_side": 5}}')
        config = _build_config(build_parser().parse_args(
            ["texture", "-i", "roi.pgm", "--out", "tex", "--config", str(path),
             "--levels", "16"]))
        assert (config.glcm.levels, config.glcm.window_side) == (16, 5)

    def test_otsu_flag_overrides_config_threshold(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"segment": {"threshold_method": {"method": "percentile", "value": 80}}}')
        config = _build_config(build_parser().parse_args(
            ["segment", *SUBCOMMAND_FLAG_SETS["segment"][0], "--config", str(path),
             "--threshold", "otsu"]))
        assert config.segment.threshold_method == ThresholdSpec("otsu")

    def test_flag_outside_its_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("enhance", "-i", "in.pgm", "-o", "out.pgm", "--levels", "4")
        assert excinfo.value.code == 1

    @pytest.mark.parametrize("command", ["enhance", "texture", "segment"])
    def test_eval_flag_only_on_scoring_subcommands(self, command, capsys):
        # the non-scoring subcommands never took the flag; the scoring ones no
        # longer take it either (TestEvalScopeAndRoc.test_full_image_flag)
        with pytest.raises(SystemExit) as excinfo:
            run_cli(command, *SUBCOMMAND_FLAG_SETS[command][0], "--eval-full-image")
        assert excinfo.value.code == 1
        assert "unrecognized arguments: --eval-full-image" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,field", [
        ("--margin", "inf", "config.roi.margin_factor"),
        ("--clahe-clip", "inf", "config.clahe.clip_limit"),
        ("--srad-time-step", "nan", "config.srad.time_step"),
    ])
    def test_non_finite_float_flag_is_usage_error(self, flag, value, field, tmp_path, capsys):
        ref, tissue, cx, cy, r, seed = SYNTH_CASES[0]
        image = tmp_path / f"{ref}.pgm"
        write_pgm(image, synth_mass_image(seed, cx, cy, r))
        assert run_cli("pipeline", "--image", str(image),
                       "--record", synth_index_line(ref, tissue, cx, cy, r),
                       "--out", str(tmp_path / "out"), flag, value) == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_close_radius_is_usage_error(self, tmp_path, capsys):
        ramp = tmp_path / "ramp.f64"
        ramp.write_bytes(encode_texture_map(np.arange(64.0).reshape(8, 8)))
        assert run_cli("segment", "-i", str(ramp), "--center", "4,4",
                       "--out", str(tmp_path / "seg"), "--close-radius", "-2") == 1
        assert "close_radius must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value,message", [
        ("percentile:101", "percentile must be in [0, 100], got 101.0"),
        ("fixed:abc", "could not convert string to float: 'abc'"),
        ("median", "threshold must be 'otsu', 'fixed:T', or 'percentile:P', got 'median'"),
        ("fixed:inf", "threshold must be finite, got inf"),
        ("fixed:-inf", "threshold must be finite, got -inf"),
        ("fixed:nan", "threshold must be finite, got nan"),
    ])
    def test_bad_threshold_flag_names_its_fault(self, value, message, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("segment", "-i", str(tmp_path / "sum.f64"), "--center", "4,4",
                    "--out", str(tmp_path / "seg"), "--threshold", value)
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert f"argument --threshold: {message}" in err
        assert "invalid _parse_threshold value" not in err

    @pytest.mark.parametrize("flags,doc,message", [
        (["--window", "4"], None, "window_side must be odd and >= 3, got 4"),
        (["--distance", "0"], None, "distance must be >= 1, got 0"),
        (["--srad-iterations", "-1"], None, "iterations must be >= 0, got -1"),
        (["--clahe-clip", "0"], None, "clip_limit must be > 0, got 0.0"),
        # a config saved by --print-defaults while CLAHE still had a bins field
        ([], {"clahe": {"bins": 1}}, "unknown fields in config.clahe: ['bins']"),
        (["--levels", "1"], None, "levels must be in [2, 256], got 1"),
        (["--levels", "300"], None, "levels must be in [2, 256], got 300"),
        ([], {"glcm": {"levels": 1}}, "levels must be in [2, 256], got 1"),
        (["--srad-time-step", "0.3"], None, "time_step must be in (0, 0.25], got 0.3"),
        ([], {"srad": {"time_step": 0.3}}, "time_step must be in (0, 0.25], got 0.3"),
        (["--margin", "0.5"], None, "margin_factor must be >= 1, got 0.5"),
        # glcm.symmetric cannot change a contrast map, the only map pipeline makes
        ([], {"glcm": {"symmetric": True}}, "unknown fields in config.glcm: ['symmetric']"),
        ([], {"srad": {"q0_decay_rho": -0.05}}, "q0_decay_rho must be finite and >= 0, got -0.05"),
        # no pair fits a window at distance >= window_side, so every map is zero
        (["--distance", "7"], None, "distance must be < window_side 7, got 7"),
        ([], {"glcm": {"window_side": 3, "distance": 3}},
         "distance must be < window_side 3, got 3"),
    ])
    def test_out_of_range_value_is_usage_error(self, flags, doc, message, tmp_path, monkeypatch,
                                               capsys):
        calls = []
        monkeypatch.setattr(pipeline, "srad", lambda *args: calls.append(args))
        ref, tissue, cx, cy, r, seed = SYNTH_CASES[0]
        image = tmp_path / f"{ref}.pgm"
        write_pgm(image, synth_mass_image(seed, cx, cy, r))
        if doc is not None:
            (tmp_path / "config.json").write_text(json.dumps(doc))
            flags = ["--config", str(tmp_path / "config.json")]
        assert run_cli("pipeline", "--image", str(image),
                       "--record", synth_index_line(ref, tissue, cx, cy, r),
                       "--out", str(tmp_path / "out"), *flags) == 1
        assert f"texturedge: {message}" in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [
        ["--srad-iterations", "-1"], ["--srad-time-step", "0.3"], ["--clahe-clip", "0"],
        ["--margin", "0.5"], ["--levels", "1"], ["--window", "4"], ["--distance", "0"],
        ["--close-radius", "-1"], ["--distance", "7"], ["--window", "3", "--distance", "3"],
    ])
    def test_refused_before_the_first_srad_pass(self, flags, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "srad", lambda *args: calls.append(args))
        ref, tissue, cx, cy, r, seed = SYNTH_CASES[0]
        image = tmp_path / f"{ref}.pgm"
        write_pgm(image, synth_mass_image(seed, cx, cy, r))
        assert run_cli("pipeline", "--image", str(image),
                       "--record", synth_index_line(ref, tissue, cx, cy, r),
                       "--out", str(tmp_path / "out"), *flags) == 1
        assert calls == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["pipeline", "experiment"])
    def test_symmetric_is_a_texture_flag_only(self, command, capsys):
        # it cannot change a contrast map, the only map these commands make
        with pytest.raises(SystemExit) as excinfo:
            run_cli(command, *SUBCOMMAND_FLAG_SETS[command][0], "--symmetric")
        assert excinfo.value.code == 1
        assert "unrecognized arguments: --symmetric" in capsys.readouterr().err

    def test_tiles_too_many_for_the_image_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        write_pgm(src, np.zeros((6, 6), dtype=np.uint8))
        config = tmp_path / "config.json"
        config.write_text('{"clahe": {"tiles_x": 8}}')
        assert run_cli("enhance", "-i", str(src), "-o", str(tmp_path / "out.pgm"),
                       "--config", str(config)) == 2
        assert "tiles do not fit a 6x6 image" in capsys.readouterr().err


class TestEnhanceCommand:
    def test_writes_enhanced_image(self, tmp_path, rng):
        src = tmp_path / "in.pgm"
        write_pgm(src, rng.integers(0, 256, size=(48, 48), dtype=np.uint8))
        dst = tmp_path / "out.pgm"
        assert run_cli("enhance", "-i", str(src), "-o", str(dst),
                       "--srad-iterations", "5") == 0
        assert read_pgm(dst).shape == (48, 48)

    def test_missing_input_is_data_error(self, tmp_path):
        assert run_cli("enhance", "-i", str(tmp_path / "none.pgm"),
                       "-o", str(tmp_path / "out.pgm")) == 2

    def test_mistyped_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"glcm": {"window_side": "no"}}')
        assert run_cli("enhance", "-i", str(tmp_path / "none.pgm"),
                       "-o", str(tmp_path / "out.pgm"), "--config", str(config)) == 1
        assert "config.glcm.window_side" in capsys.readouterr().err

    def test_out_of_range_flag_is_refused_before_the_input_is_read(self, tmp_path, capsys):
        assert run_cli("enhance", "-i", str(tmp_path / "none.pgm"),
                       "-o", str(tmp_path / "out.pgm"), "--srad-time-step", "0.3") == 1
        assert "time_step must be in (0, 0.25], got 0.3" in capsys.readouterr().err


class TestTextureSegmentEvalChain:
    def test_stagewise_run(self, tmp_path):
        ref, tissue, cx, cy, r, seed = SYNTH_CASES[0]
        roi = synth_mass_image(seed, cx, cy, r)[cy - 21:cy + 21, cx - 21:cx + 21]
        roi_path = tmp_path / "roi.pgm"
        write_pgm(roi_path, roi)

        tex_dir = tmp_path / "tex"
        assert run_cli("texture", "-i", str(roi_path), "--out", str(tex_dir)) == 0
        sum_path = tex_dir / "contrast_sum.f64"
        assert sum_path.is_file()
        assert decode_texture_map(sum_path.read_bytes()).shape == roi.shape

        seg_dir = tmp_path / "seg"
        assert run_cli("segment", "-i", str(sum_path), "--center", "21,21",
                       "--out", str(seg_dir)) == 0
        mask = read_pgm(seg_dir / "mask.pgm") >= 128
        assert mask.any()

        truth_path = tmp_path / "truth.pgm"
        yy, xx = np.mgrid[0:roi.shape[0], 0:roi.shape[1]]
        write_pgm(truth_path, mask_to_gray((xx - 21) ** 2 + (yy - 21) ** 2 <= r * r))
        report_path = tmp_path / "report.json"
        assert run_cli("eval", "--pred", str(seg_dir / "mask.pgm"),
                       "--truth", str(truth_path), "--scores", str(sum_path),
                       "-o", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert set(report) >= {"dice", "precision", "recall", "az"}

    def test_segment_constant_map_is_data_error(self, tmp_path):
        flat = tmp_path / "flat.f64"
        flat.write_bytes(encode_texture_map(np.ones((8, 8))))
        assert run_cli("segment", "-i", str(flat), "--center", "4,4",
                       "--out", str(tmp_path / "seg")) == 2


    @pytest.mark.parametrize("descriptor", ["contrast", "idm"])
    def test_symmetric_leaves_linear_descriptor_trees_unchanged(self, descriptor, tmp_path):
        # a reversed pair has the same gray-level difference, so the flag
        # doubles every difference count and the pair count alike
        ref, _, cx, cy, r, seed = SYNTH_CASES[2]
        roi = tmp_path / "roi.pgm"
        write_pgm(roi, synth_mass_image(seed, cx, cy, r)[cy - 30:cy + 30, cx - 30:cx + 30])
        trees = []
        for flags in ([], ["--symmetric"]):
            out = tmp_path / ("tree" + "".join(flags))
            assert run_cli("texture", "-i", str(roi), "--out", str(out),
                           "--descriptor", descriptor, *flags) == 0
            trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(trees[0]) == 11 and trees[0] == trees[1]


class TestStagesMatchLibrary:
    """The stage subcommands reproduce ``run_pipeline``'s artifacts."""

    def test_texture_and_segment_equal_write_artifacts(self, synth_dataset, tmp_path):
        ref, tissue, cx, cy, r, _ = SYNTH_CASES[1]
        record = parse_mias_index(synth_index_line(ref, tissue, cx, cy, r))[0]
        result = run_pipeline(synth_dataset / f"{ref}.pgm", record, PipelineConfig(),
                              out_dir=tmp_path / "lib")
        lib = tmp_path / "lib" / ref

        tex = tmp_path / "tex"
        assert run_cli("texture", "-i", str(lib / "roi.pgm"), "--out", str(tex)) == 0
        labels = [str(a) for a in ANGLES] + ["sum"]
        names = ([f"contrast_{x}.pgm" for x in labels]
                 + [f"contrast_{x}.minmax.txt" for x in labels] + ["contrast_sum.f64"])

        _, (mx, my), _ = crop_roi(result.enhanced, record, PipelineConfig().roi)
        seg_dir = tmp_path / "seg"
        assert run_cli("segment", "-i", str(tex / "contrast_sum.f64"),
                       "--center", f"{mx},{my}", "--out", str(seg_dir)) == 0
        for name in names:
            assert (tex / name).read_bytes() == (lib / name).read_bytes(), name
        for name in ("mask.pgm", "contours.txt"):
            assert (seg_dir / name).read_bytes() == (lib / name).read_bytes(), name

        idm = tmp_path / "idm"
        assert run_cli("texture", "-i", str(lib / "roi.pgm"), "--out", str(idm),
                       "--descriptor", "idm", "--symmetric") == 0
        glcm = PipelineConfig().glcm
        q = quantize(result.roi.image, glcm.levels)
        want = directional_sum([texture_map_naive(q, "idm", glcm.window_side, off, True)
                                for off in offsets_for_distance(glcm.distance).values()])
        assert np.array_equal(decode_texture_map((idm / "idm_sum.f64").read_bytes()), want)

    def test_pipeline_id_and_experiment_pick_the_same_record(self, tmp_path, caplog):
        # a NORM line, then two geometry lines: the first geometry line wins,
        # and each pick warns that the second one is not scored
        ref, tissue, cx, cy, r, seed = SYNTH_CASES[0]
        data = tmp_path / "data"
        data.mkdir()
        write_pgm(data / f"{ref}.pgm", synth_mass_image(seed, cx, cy, r))
        (data / "Info.txt").write_text("\n".join([
            f"{ref} F NORM",
            synth_index_line(ref, tissue, cx, cy, r),
            synth_index_line(ref, "G", cx + 6, cy - 6, r + 4),
        ]) + "\n")
        assert run_cli("pipeline", "--image", str(data / f"{ref}.pgm"), "--id", ref,
                       "--dataset", str(data), "--out", str(tmp_path / "cli")) == 0
        run_experiment(data, [ref], out_dir=tmp_path / "exp")
        report = (tmp_path / "cli" / ref / "report.json").read_bytes()
        assert report == (tmp_path / "exp" / ref / "report.json").read_bytes()
        assert json.loads(report)["tissue"] == tissue
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [f"id {ref}: 1 more geometry record(s) ignored; "
                            "only the first is scored"] * 2

    def test_ignored_geometry_warning_is_one_prefixed_stderr_line(self, tmp_path, capfd):
        ref, tissue, cx, cy, r, seed = SYNTH_CASES[0]
        data = tmp_path / "data"
        data.mkdir()
        write_pgm(data / f"{ref}.pgm", synth_mass_image(seed, cx, cy, r))
        (data / "Info.txt").write_text(synth_index_line(ref, tissue, cx, cy, r) + "\n"
                                       + synth_index_line(ref, "G", cx + 6, cy - 6, r + 4)
                                       + "\n")
        for _ in range(2):  # a second main() must not stack a second handler
            assert run_cli("pipeline", "--image", str(data / f"{ref}.pgm"), "--id", ref,
                           "--dataset", str(data), "--out", str(tmp_path / "cli")) == 0
            assert capfd.readouterr().err.splitlines() == [
                f"texturedge: id {ref}: 1 more geometry record(s) ignored; "
                "only the first is scored"]


class TestPipelineCommand:
    def test_inline_record(self, synth_dataset, tmp_path):
        ref, tissue, cx, cy, r, _ = SYNTH_CASES[0]
        line = synth_index_line(ref, tissue, cx, cy, r)
        assert run_cli("pipeline", "--image", str(synth_dataset / f"{ref}.pgm"),
                       "--record", line, "--out", str(tmp_path)) == 0
        assert (tmp_path / ref / "report.json").is_file()

    def test_record_id_cannot_write_outside_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_pgm("img.pgm", synth_mass_image(11, 64, 64, 14))
        assert run_cli("pipeline", "--image", "img.pgm",
                       "--record", "../../escaped F CIRC B 64 63 14", "--out", "a/b/out") == 2
        assert [p.name for p in tmp_path.rglob("*")] == ["img.pgm"]

    @pytest.mark.parametrize("record,count", [
        ("x1 F CIRC B 32 32 8\nx2 F CIRC B 1 1 2", 2),
        ("", 0),
    ])
    def test_record_must_be_one_line(self, record, count, tmp_path, capsys):
        write_pgm(tmp_path / "img.pgm", synth_mass_image(11, 64, 64, 14))
        assert run_cli("pipeline", "--image", str(tmp_path / "img.pgm"), "--record", record,
                       "--out", str(tmp_path / "out")) == 1
        assert f"--record must hold one annotation line, got {count}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_id_resolved_from_dataset(self, synth_dataset, tmp_path):
        assert run_cli("pipeline", "--image", str(synth_dataset / "sy002.pgm"),
                       "--id", "sy002", "--dataset", str(synth_dataset),
                       "--out", str(tmp_path)) == 0

    def test_missing_dataset_is_usage_error(self, synth_dataset, tmp_path, monkeypatch):
        monkeypatch.delenv(DATASET_ENV_VAR, raising=False)
        assert run_cli("pipeline", "--image", str(synth_dataset / "sy002.pgm"),
                       "--id", "sy002", "--out", str(tmp_path)) == 1


class TestExperimentCommand:
    def test_batch_with_env_dataset(self, synth_dataset, tmp_path, monkeypatch):
        monkeypatch.setenv(DATASET_ENV_VAR, str(synth_dataset))
        out = tmp_path / "exp"
        ids = [case[0] for case in SYNTH_CASES]
        assert run_cli("experiment", "--ids", *ids, "--out", str(out)) == 0
        assert (out / "report.csv").is_file()
        assert (out / "report.jsonl").is_file()
        for ref in ids:
            assert (out / ref / "mask.pgm").is_file()

    def test_library_and_cli_write_the_same_tree(self, synth_dataset, tmp_path):
        # run_experiment writes the reports too, so both trees are whole
        ids = [case[0] for case in SYNTH_CASES]
        run_experiment(synth_dataset, ids, out_dir=tmp_path / "a")
        assert run_cli("experiment", "--dataset", str(synth_dataset), "--ids", *ids,
                       "--out", str(tmp_path / "b")) == 0
        trees = [{p.relative_to(root).as_posix(): p.read_bytes()
                  for p in root.rglob("*") if p.is_file()}
                 for root in (tmp_path / "a", tmp_path / "b")]
        assert {"report.csv", "report.jsonl"} <= trees[0].keys()
        assert trees[0] == trees[1]

    def test_unknown_id_is_data_error(self, synth_dataset, tmp_path):
        assert run_cli("experiment", "--dataset", str(synth_dataset),
                       "--ids", "zz001", "--out", str(tmp_path / "x")) == 2

    def test_margin_refused_with_no_ids(self, synth_dataset, tmp_path, capsys):
        # no id makes no crop: RoiConfig's own rule refuses the margin
        out = tmp_path / "x"
        assert run_cli("experiment", "--dataset", str(synth_dataset), "--ids",
                       "--margin", "0.5", "--out", str(out)) == 1
        assert "texturedge: margin_factor must be >= 1, got 0.5" in capsys.readouterr().err
        assert not out.exists()

    def test_index_id_cannot_leave_the_dataset_or_out(self, tmp_path):
        dataset = tmp_path / "data" / "set"
        dataset.mkdir(parents=True)
        # the image the id points at, two levels above the dataset
        write_pgm(tmp_path / "escaped.pgm", synth_mass_image(11, 64, 64, 14))
        (dataset / "Info.txt").write_text("../../escaped F CIRC B 64 63 14\n")
        assert run_cli("experiment", "--dataset", str(dataset), "--ids", "../../escaped",
                       "--out", str(tmp_path / "a" / "b" / "out")) == 2
        # the index is refused before any image runs or --out is made
        written = sorted(p.name for p in tmp_path.rglob("*") if p.is_file())
        assert written == ["Info.txt", "escaped.pgm"]

    @pytest.mark.parametrize("bad", ["zz999", "sy004", "sy005"])
    def test_refused_id_runs_nothing_and_writes_nothing(self, bad, refusal_dataset, tmp_path,
                                                        monkeypatch, capsys):
        # no record, a NORM record and a missing image, after two good ids
        calls = []
        monkeypatch.setattr(pipeline, "srad", lambda *args: calls.append(args))
        out = tmp_path / "a" / "out"
        assert run_cli("experiment", "--dataset", str(refusal_dataset),
                       "--ids", "sy001", "sy002", bad, "--out", str(out)) == 2
        assert bad in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "a").exists()

    @pytest.mark.parametrize("bad,message", [
        ("sy008", "raster has 8184 of 16384 bytes"),
        ("sy009", "center (500, 107) outside 128x128 image"),
        ("sy010", "reference has no negative pixels in the evaluated region"),
        ("sy011", "8x8 tiles do not fit a 6x6 image"),
    ])
    def test_bad_image_or_circle_runs_nothing_and_writes_nothing(
            self, bad, message, refusal_dataset, tmp_path, monkeypatch, capsys):
        # a PGM that does not decode, a circle outside its image, one that
        # covers its whole crop and an image too small for the CLAHE tiles,
        # after two good ids: each is found before the first film runs
        calls = []
        monkeypatch.setattr(pipeline, "srad", lambda *args: calls.append(args))
        out = tmp_path / "a" / "out"
        assert run_cli("experiment", "--dataset", str(refusal_dataset),
                       "--ids", "sy001", "sy002", bad, "--out", str(out)) == 2
        where = f"id {bad} ({refusal_dataset / f'{bad}.pgm'})"
        assert f"texturedge: {where}: {message}" in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "a").exists()

    def test_homogeneous_region_outside_an_image_runs_nothing_and_writes_nothing(
            self, refusal_dataset, tmp_path, monkeypatch, capsys):
        # the region fits sy001's 128x128 image but not sy011's 6x6 one, on
        # tiles that fit both: a usage error that names the id and its file
        calls = []
        monkeypatch.setattr(pipeline, "srad", lambda *args: calls.append(args))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"srad": {"homogeneous_region": [0, 0, 8, 8]},
                                      "clahe": {"tiles_x": 2, "tiles_y": 2}}))
        out = tmp_path / "a" / "out"
        assert run_cli("experiment", "--dataset", str(refusal_dataset), "--ids", "sy001",
                       "sy011", "--config", str(config), "--out", str(out)) == 1
        where = f"id sy011 ({refusal_dataset / 'sy011.pgm'})"
        assert (f"texturedge: {where}: homogeneous_region (0, 0, 8, 8) is not inside "
                "the 6x6 image") in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "a").exists()

    def test_data_error_while_a_film_runs_names_it_and_stops_the_batch(
            self, refusal_dataset, tmp_path, capsys):
        # sy012 passes the check and fails at its threshold, after sy001's
        # tree is written: that tree stays, and no report.csv or .jsonl
        out = tmp_path / "out"
        assert run_cli("experiment", "--dataset", str(refusal_dataset),
                       "--ids", "sy001", "sy012", "--out", str(out)) == 2
        captured = capsys.readouterr()
        where = f"id sy012 ({refusal_dataset / 'sy012.pgm'})"
        assert captured.err == f"texturedge: {where}: map is constant; no threshold exists\n"
        assert captured.out == ""
        assert [p.name for p in out.iterdir()] == ["sy001"]

    def test_full_image_from_config_file_equals_flag(self, synth_dataset, tmp_path,
                                                     monkeypatch, capsys):
        # every run is scored over its crop: the former config section is an
        # unknown field, as the former flag is an unknown argument
        calls = []
        monkeypatch.setattr(pipeline, "srad", lambda *args: calls.append(args))
        config = tmp_path / "config.json"
        config.write_text('{"eval": {"full_image": true}}')
        out = tmp_path / "a" / "out"
        assert run_cli("experiment", "--dataset", str(synth_dataset), "--ids", "sy001",
                       "--config", str(config), "--out", str(out)) == 1
        assert "texturedge: unknown fields in config: ['eval']" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            run_cli("experiment", "--dataset", str(synth_dataset), "--ids", "sy001",
                    "--out", str(out), "--eval-full-image")
        assert excinfo.value.code == 1
        assert "unrecognized arguments: --eval-full-image" in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "a").exists()

    def test_crop_that_cuts_its_circle_runs_nothing_and_writes_nothing(
            self, synth_dataset, tmp_path, monkeypatch, capsys):
        # at margin 1.0 sy001's crop spans columns and rows [50, 78), which
        # leaves out the radius-14 circle's east and south ends at 78
        calls = []
        monkeypatch.setattr(pipeline, "srad", lambda *args: calls.append(args))
        out = tmp_path / "a" / "out"
        assert run_cli("experiment", "--dataset", str(synth_dataset), "--ids", "sy001",
                       "--margin", "1.0", "--out", str(out)) == 2
        where = f"id sy001 ({synth_dataset / 'sy001.pgm'})"
        assert (f"texturedge: {where}: the crop at margin_factor 1.0 leaves out part of the "
                "radius-14 circle") in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "a").exists()


class TestSegmentCommand:
    def _ramp(self, tmp_path):
        path = tmp_path / "ramp.f64"
        path.write_bytes(encode_texture_map(np.arange(64.0).reshape(8, 8)))
        return path

    def test_internal_invariant_exits_3(self, tmp_path, monkeypatch):
        def broken_segment_map(*args, **kwargs):
            raise InternalInvariantError("boundary trace failed to close")

        monkeypatch.setattr(cli, "segment_map", broken_segment_map)
        assert run_cli("segment", "-i", str(self._ramp(tmp_path)), "--center", "4,4",
                       "--out", str(tmp_path / "seg")) == 3

    def test_type_error_is_a_library_bug_and_propagates(self, tmp_path, monkeypatch):
        def broken_segment_map(*args, **kwargs):
            raise TypeError("unsupported operand type(s)")

        monkeypatch.setattr(cli, "segment_map", broken_segment_map)
        with pytest.raises(TypeError, match="unsupported operand"):
            run_cli("segment", "-i", str(self._ramp(tmp_path)), "--center", "4,4",
                    "--out", str(tmp_path / "seg"))

    @pytest.mark.parametrize("argv,center", [
        (["--center", "-5,3"], (-5.0, 3.0)),
        (["--center", "-5.5,-3"], (-5.5, -3.0)),
        (["--center=-5,3"], (-5.0, 3.0)),
    ])
    def test_negative_center_parses_in_both_forms(self, argv, center):
        args = build_parser().parse_args(["segment", "-i", "m.f64", *argv, "--out", "seg"])
        assert args.center == center

    @pytest.mark.parametrize("argv", [["--center", "--out", "seg"], ["--out", "seg", "--center"]])
    def test_missing_center_value_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("segment", "-i", "m.f64", *argv)
        assert excinfo.value.code == 1
        assert "argument --center: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("center", ["nan,nan", "inf,3", "1,2,3", "4"])
    def test_bad_center_is_usage_error(self, center, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("segment", "-i", str(self._ramp(tmp_path)), "--center", center,
                    "--out", str(tmp_path / "seg"))
        assert excinfo.value.code == 1
        assert "center must be two finite numbers X,Y" in capsys.readouterr().err
        assert not (tmp_path / "seg").exists()

    def test_range_wider_than_a_float_is_data_error(self, tmp_path, capsys):
        m = np.zeros((20, 20))
        m[0, 0] = -1e308
        m[5:10, 5:10] = 1e308
        (tmp_path / "wide.f64").write_bytes(encode_texture_map(m))
        assert run_cli("segment", "-i", str(tmp_path / "wide.f64"), "--center", "7,7",
                       "--out", str(tmp_path / "seg")) == 2
        assert "map range [-1e+308, 1e+308] has no finite width" in capsys.readouterr().err
        assert not (tmp_path / "seg").exists()

    @pytest.mark.parametrize("width,height", [(0, 3), (3, 0)])
    def test_zero_sized_map_is_data_error(self, width, height, tmp_path, capsys):
        empty = tmp_path / "empty.f64"
        empty.write_bytes(encode_texture_map(np.ones((1, 1)))[:4]
                          + width.to_bytes(4, "little") + height.to_bytes(4, "little"))
        assert run_cli("segment", "-i", str(empty), "--center", "0,0",
                       "--out", str(tmp_path / "seg")) == 2
        assert "holds no samples" in capsys.readouterr().err


def _bad_maps():
    ramp = np.arange(64.0).reshape(8, 8)
    for sample in (np.nan, np.inf, -np.inf):
        m = ramp.copy()
        m[3, 3] = sample
        yield pytest.param(encode_texture_map(m), "non-finite sample", id=f"sample_{sample}")
    yield pytest.param(encode_texture_map(ramp) + bytes(40), "has 552 of 512 bytes",
                       id="trailing_bytes")


class TestBadMapIsDataError:
    @pytest.mark.parametrize("data,message", list(_bad_maps()))
    def test_segment(self, data, message, tmp_path, capsys):
        (tmp_path / "bad.f64").write_bytes(data)
        assert run_cli("segment", "-i", str(tmp_path / "bad.f64"), "--center", "4,4",
                       "--out", str(tmp_path / "seg")) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "seg").exists()

    @pytest.mark.parametrize("data,message", list(_bad_maps()))
    def test_eval_scores(self, data, message, tmp_path, capsys):
        (tmp_path / "bad.f64").write_bytes(data)
        write_pgm(tmp_path / "m.pgm", mask_to_gray(np.arange(64).reshape(8, 8) > 30))
        assert run_cli("eval", "--pred", str(tmp_path / "m.pgm"),
                       "--truth", str(tmp_path / "m.pgm"),
                       "--scores", str(tmp_path / "bad.f64")) == 2
        assert message in capsys.readouterr().err


class TestEvalScopeAndRoc:
    def test_full_image_flag(self, capsys):
        # scoring has no scope setting: no subcommand takes the former flag
        required = {command: argv for command, (argv, _) in SUBCOMMAND_FLAG_SETS.items()}
        required["eval"] = ["--pred", "p.pgm", "--truth", "t.pgm"]
        assert set(required) == {"enhance", "texture", "segment", "eval", "pipeline",
                                 "experiment"}
        for command, argv in required.items():
            with pytest.raises(SystemExit) as excinfo:
                run_cli(command, *argv, "--eval-full-image")
            assert excinfo.value.code == 1
            assert "unrecognized arguments: --eval-full-image" in capsys.readouterr().err

    def test_eval_roc_csv(self, tmp_path, rng):
        mask = rng.random((12, 12)) > 0.5
        write_pgm(tmp_path / "pred.pgm", mask_to_gray(mask))
        write_pgm(tmp_path / "truth.pgm", mask_to_gray(rng.random((12, 12)) > 0.5))
        (tmp_path / "scores.f64").write_bytes(encode_texture_map(rng.random((12, 12))))
        roc_csv = tmp_path / "roc.csv"
        assert run_cli("eval", "--pred", str(tmp_path / "pred.pgm"),
                       "--truth", str(tmp_path / "truth.pgm"),
                       "--scores", str(tmp_path / "scores.f64"),
                       "--roc-csv", str(roc_csv),
                       "-o", str(tmp_path / "rep.json")) == 0
        assert roc_csv.read_text().startswith("fpr,tpr\n")

    def test_eval_without_output_writes_the_report_to_stdout(self, tmp_path, rng, capsys):
        write_pgm(tmp_path / "pred.pgm", mask_to_gray(rng.random((12, 12)) > 0.5))
        write_pgm(tmp_path / "truth.pgm", mask_to_gray(rng.random((12, 12)) > 0.5))
        masks = ["--pred", str(tmp_path / "pred.pgm"), "--truth", str(tmp_path / "truth.pgm")]
        assert run_cli("eval", *masks, "-o", str(tmp_path / "rep.json")) == 0
        assert capsys.readouterr().out == ""
        assert run_cli("eval", *masks) == 0
        assert capsys.readouterr().out == (tmp_path / "rep.json").read_text()

    def test_roc_csv_without_scores_is_usage_error(self, tmp_path, rng):
        write_pgm(tmp_path / "m.pgm", mask_to_gray(rng.random((6, 6)) > 0.5))
        assert run_cli("eval", "--pred", str(tmp_path / "m.pgm"),
                       "--truth", str(tmp_path / "m.pgm"),
                       "--roc-csv", str(tmp_path / "roc.csv")) == 1

    def test_roc_csv_without_scores_is_refused_before_the_masks_are_read(self, tmp_path, capsys):
        assert run_cli("eval", "--pred", str(tmp_path / "missing.pgm"),
                       "--truth", str(tmp_path / "missing.pgm"),
                       "--roc-csv", str(tmp_path / "roc.csv")) == 1
        assert "--roc-csv needs --scores" in capsys.readouterr().err
        assert not (tmp_path / "roc.csv").exists()

    @pytest.mark.parametrize("bad", ["--roc-csv", "-o"])
    @pytest.mark.parametrize("existing", [False, True])
    def test_an_output_that_will_not_open_writes_neither(self, bad, existing, tmp_path, rng,
                                                         capsys):
        # either output in a missing directory: exit 2 naming it, no file
        # made and an existing other output byte for byte as it was
        write_pgm(tmp_path / "m.pgm", mask_to_gray(rng.random((12, 12)) > 0.5))
        (tmp_path / "s.f64").write_bytes(encode_texture_map(rng.random((12, 12))))
        outputs = {"--roc-csv": tmp_path / "roc.csv", "-o": tmp_path / "rep.json"}
        outputs[bad] = tmp_path / "nodir" / outputs[bad].name
        if existing:
            for path in outputs.values():
                if path.parent == tmp_path:
                    path.write_bytes(b"before\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert run_cli("eval", "--pred", str(tmp_path / "m.pgm"), "--truth",
                       str(tmp_path / "m.pgm"), "--scores", str(tmp_path / "s.f64"),
                       *[arg for flag, path in outputs.items() for arg in (flag, str(path))]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"texturedge: [Errno 2] No such file or directory: '{outputs[bad]}'\n"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_outputs_overwrite_existing_files_whole(self, tmp_path, rng):
        # an existing output, longer than its new text, is replaced whole
        write_pgm(tmp_path / "m.pgm", mask_to_gray(rng.random((12, 12)) > 0.5))
        (tmp_path / "s.f64").write_bytes(encode_texture_map(rng.random((12, 12))))
        argv = ["eval", "--pred", str(tmp_path / "m.pgm"), "--truth", str(tmp_path / "m.pgm"),
                "--scores", str(tmp_path / "s.f64")]
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        fresh.mkdir()
        reused.mkdir()
        for name in ("roc.csv", "rep.json"):
            (reused / name).write_text("x" * 100_000)
        for d in (fresh, reused):
            assert run_cli(*argv, "--roc-csv", str(d / "roc.csv"), "-o", str(d / "rep.json")) == 0
        for name in ("roc.csv", "rep.json"):
            assert (reused / name).read_bytes() == (fresh / name).read_bytes()


class TestEvalMasks:
    """``eval`` reads only the 0/255 masks that ``mask_to_gray`` writes."""

    @pytest.mark.parametrize("flag", ["--pred", "--truth"])
    @pytest.mark.parametrize("bad,value", [("zero_one", 1), ("one_pixel_128", 128)])
    def test_other_values_are_a_data_error(self, flag, bad, value, tmp_path, capsys):
        m = np.zeros((20, 20), dtype=bool)
        m[5:15, 5:15] = True
        write_pgm(tmp_path / "good.pgm", mask_to_gray(m))
        if bad == "zero_one":  # a common mask export
            gray = m.astype(np.uint8)
        else:
            gray = mask_to_gray(m)
            gray[7, 3] = 128
        write_pgm(tmp_path / "bad.pgm", gray)
        masks = {"--pred": tmp_path / "good.pgm", "--truth": tmp_path / "good.pgm"}
        masks[flag] = tmp_path / "bad.pgm"
        assert run_cli("eval", "--pred", str(masks["--pred"]),
                       "--truth", str(masks["--truth"])) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"texturedge: {tmp_path / 'bad.pgm'}: a mask holds only 0 and 255, "
                       f"found {value}\n")

    def test_0_255_masks_are_scored_as_before(self, tmp_path, capsys):
        write_pgm(tmp_path / "pred.pgm", np.array([[255, 0], [255, 255]], dtype=np.uint8))
        write_pgm(tmp_path / "truth.pgm", np.array([[255, 255], [0, 255]], dtype=np.uint8))
        assert run_cli("eval", "--pred", str(tmp_path / "pred.pgm"),
                       "--truth", str(tmp_path / "truth.pgm")) == 0
        assert json.loads(capsys.readouterr().out) == {
            "tp": 2, "fp": 1, "fn": 1, "tn": 0, "dice": 2 / 3, "precision": 2 / 3,
            "recall": 2 / 3, "specificity": 0.0, "f_measure": 2 / 3, "zero_denominator": []}


class TestEvalIsThePipelinesScore:
    """``eval`` and ``score_point`` build the same ``EvalReport``."""

    @pytest.mark.parametrize("case", SYNTH_CASES, ids=[case[0] for case in SYNTH_CASES])
    def test_eval_of_a_pipeline_tree_equals_its_report(self, case, synth_dataset, tmp_path):
        ref, tissue, cx, cy, r, _ = case
        assert run_cli("pipeline", "--image", str(synth_dataset / f"{ref}.pgm"),
                       "--record", synth_index_line(ref, tissue, cx, cy, r),
                       "--out", str(tmp_path)) == 0
        tree = tmp_path / ref
        report = json.loads((tree / "report.json").read_text())
        x0, y0 = report["roi_offset"]
        height, width = read_pgm(tree / "mask.pgm").shape
        write_pgm(tmp_path / "circle.pgm",
                  mask_to_gray(circle_mask(width, height, cx - x0, cy - y0, r)))
        assert run_cli("eval", "--pred", str(tree / "mask.pgm"),
                       "--truth", str(tmp_path / "circle.pgm"),
                       "--scores", str(tree / "contrast_sum.f64"),
                       "--roc-csv", str(tmp_path / "r.csv"), "-o", str(tmp_path / "e.json")) == 0
        scored = json.loads((tmp_path / "e.json").read_text())
        assert scored == {key: report[key] for key in scored}
        assert (tmp_path / "r.csv").read_bytes() == (tree / "roc_points.csv").read_bytes()

    def test_every_score_reaches_every_output(self, synth_dataset, tmp_path, capsys):
        counts = {f.name for f in dataclasses.fields(ConfusionCounts)}
        scores = {f.name for f in dataclasses.fields(EvalReport)} - {"counts", "zero_denominator"}
        fields = counts | scores | {"zero_denominator"}  # a flag list, no CSV column
        ids = [case[0] for case in SYNTH_CASES]
        out = tmp_path / "exp"
        assert run_cli("experiment", "--dataset", str(synth_dataset), "--ids", *ids,
                       "--out", str(out)) == 0
        for ref in ids:
            assert fields <= json.loads((out / ref / "report.json").read_text()).keys()
        docs = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
        rows = [doc for doc in docs if "aggregate" not in doc]
        aggregates = [doc for doc in docs if "aggregate" in doc]
        assert len(rows) == len(aggregates) == 3
        assert all(fields <= row.keys() for row in rows)
        assert all(scores <= aggregate.keys() for aggregate in aggregates)
        header, *lines = (out / "report.csv").read_text().splitlines()
        columns = header.split(",")
        assert counts | scores <= set(columns)
        for line in lines[3:]:  # the per-tissue means
            mean = dict(zip(columns, line.split(",")))
            assert all(mean[name] for name in scores)

        tree = out / ids[0]
        masks = ["--pred", str(tree / "mask.pgm"), "--truth", str(tree / "mask.pgm")]
        capsys.readouterr()
        assert run_cli("eval", *masks, "--scores", str(tree / "contrast_sum.f64")) == 0
        assert json.loads(capsys.readouterr().out).keys() == fields
        assert run_cli("eval", *masks) == 0
        assert json.loads(capsys.readouterr().out).keys() == fields - {"az"}

    def test_scores_are_decoded_before_the_mask_shapes_are_compared(self, tmp_path, capsys):
        write_pgm(tmp_path / "a.pgm", mask_to_gray(np.eye(8, dtype=bool)))
        write_pgm(tmp_path / "b.pgm", mask_to_gray(np.eye(6, dtype=bool)))
        masks = ["--pred", str(tmp_path / "a.pgm"), "--truth", str(tmp_path / "b.pgm")]
        assert run_cli("eval", *masks) == 2
        assert "mask shapes differ" in capsys.readouterr().err
        (tmp_path / "bad.f64").write_bytes(b"not a map")
        assert run_cli("eval", *masks, "--scores", str(tmp_path / "bad.f64")) == 2
        assert capsys.readouterr().err == (
            "texturedge: not a texture map stream (starts with b'not ')\n")
