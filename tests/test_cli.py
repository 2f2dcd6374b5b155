import dataclasses
import json
import logging

import numpy as np
import pytest

from conftest import SYNTH_CASES, synth_index_line, synth_mass_image
from texturedge import (
    PipelineConfig,
    ThresholdSpec,
    parse_config,
    parse_mias_index,
    quantize,
    read_pgm,
    run_experiment,
    run_pipeline,
    write_pgm,
)
from texturedge.cli import _build_config, build_parser, main
from texturedge.pipeline import DATASET_ENV_VAR, crop_roi
from texturedge.segment import mask_to_gray
from texturedge.texture import (
    ANGLES,
    decode_texture_map,
    directional_sum,
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
        (["--symmetric"], "glcm", "symmetric", True),
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

    def test_flag_outside_its_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("enhance", "-i", "in.pgm", "-o", "out.pgm", "--levels", "4")
        assert excinfo.value.code == 1

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
        from texturedge.texture import encode_texture_map
        ramp = tmp_path / "ramp.f64"
        ramp.write_bytes(encode_texture_map(np.arange(64.0).reshape(8, 8)))
        assert run_cli("segment", "-i", str(ramp), "--center", "4,4",
                       "--out", str(tmp_path / "seg"), "--close-radius", "-2") == 1
        assert "close_radius must be >= 0" in capsys.readouterr().err


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
        config.write_text('{"glcm": {"symmetric": "no"}}')
        assert run_cli("enhance", "-i", str(tmp_path / "none.pgm"),
                       "-o", str(tmp_path / "out.pgm"), "--config", str(config)) == 1
        assert "config.glcm.symmetric" in capsys.readouterr().err


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
        from texturedge.texture import encode_texture_map
        flat = tmp_path / "flat.f64"
        flat.write_bytes(encode_texture_map(np.ones((8, 8))))
        assert run_cli("segment", "-i", str(flat), "--center", "4,4",
                       "--out", str(tmp_path / "seg")) == 2


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

        _, (mx, my) = crop_roi(result.enhanced, record, PipelineConfig().roi)
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

    def test_unknown_id_is_data_error(self, synth_dataset, tmp_path):
        assert run_cli("experiment", "--dataset", str(synth_dataset),
                       "--ids", "zz001", "--out", str(tmp_path / "x")) == 2


class TestBenchCommand:
    def test_csv_to_file(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--sizes", "16", "--windows", "3",
                       "--levels", "8", "--repeats", "1", "-o", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2 and lines[1].endswith(",true")

    def test_kernel_disagreement_exits_3(self, monkeypatch):
        from texturedge import cli
        from texturedge.errors import InternalInvariantError

        def broken_bench(*args, **kwargs):
            raise InternalInvariantError("kernel outputs differ")

        monkeypatch.setattr(cli, "bench", broken_bench)
        assert run_cli("bench", "--sizes", "16", "--windows", "3") == 3


class TestEvalScopeAndRoc:
    def test_full_image_flag(self, synth_dataset, tmp_path):
        ref = SYNTH_CASES[0][0]
        assert run_cli("pipeline", "--image", str(synth_dataset / f"{ref}.pgm"),
                       "--id", ref, "--dataset", str(synth_dataset),
                       "--out", str(tmp_path), "--eval-full-image") == 0
        report = json.loads((tmp_path / ref / "report.json").read_text())
        assert report["eval_scope"] == "full"

    def test_eval_roc_csv(self, tmp_path, rng):
        from texturedge.texture import encode_texture_map
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

    def test_roc_csv_without_scores_is_usage_error(self, tmp_path, rng):
        write_pgm(tmp_path / "m.pgm", mask_to_gray(rng.random((6, 6)) > 0.5))
        assert run_cli("eval", "--pred", str(tmp_path / "m.pgm"),
                       "--truth", str(tmp_path / "m.pgm"),
                       "--roc-csv", str(tmp_path / "roc.csv")) == 1
