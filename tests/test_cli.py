from __future__ import annotations

import json

import pytest

from relapsekit.cli import build_parser, main


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    assert main(["synth", "--patients", "8", "--days", "100", "--seed", "11", "--out", str(out)]) == 0
    return out


def test_synth_writes_four_files(tmp_path):
    out = tmp_path / "cohort"
    code = main(["synth", "--patients", "4", "--days", "60", "--seed", "5", "--out", str(out)])
    assert code == 0
    for name in ("sensors.csv", "ema.csv", "patients.csv", "relapses.csv"):
        assert (out / name).exists()


def test_unknown_flag_exits_2(capsys):
    assert main(["evaluate", "--bogus"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_input_exits_1(tmp_path, capsys):
    code = main(["evaluate", "--data", str(tmp_path / "nope"), "--metrics", str(tmp_path / "m.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_no_data_flags_exits_1(tmp_path, capsys):
    assert main(["evaluate", "--metrics", str(tmp_path / "m.json")]) == 1
    assert "missing input paths" in capsys.readouterr().err


def test_help_lists_defaults(capsys):
    assert main(["evaluate", "--help"]) == 0
    text = capsys.readouterr().out
    for fragment in (
        "--window-days",
        "default: 28",
        "--selection-n",
        "default: 100",
        "--selection-m",
        "default: 5",
        "--bins",
        "default: 15",
        "--cooloff-days",
    ):
        assert fragment in text


def test_evaluate_rerun_is_byte_identical(cohort_dir, tmp_path, capsys):
    outputs = []
    for name in ("x", "y"):
        metrics = tmp_path / f"{name}.json"
        predictions = tmp_path / f"{name}.csv"
        code = main(
            [
                "evaluate",
                "--data",
                str(cohort_dir),
                "--classifier",
                "nb",
                "--seed",
                "7",
                "--threads",
                "1",
                "--metrics",
                str(metrics),
                "--predictions",
                str(predictions),
            ]
        )
        assert code == 0
        outputs.append((metrics.read_bytes(), predictions.read_bytes()))
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_evaluate_thread_count_does_not_change_metrics(cohort_dir, tmp_path, capsys):
    digests = []
    for threads in ("1", "3"):
        metrics = tmp_path / f"t{threads}.json"
        code = main(
            [
                "evaluate",
                "--data",
                str(cohort_dir),
                "--seed",
                "7",
                "--threads",
                threads,
                "--metrics",
                str(metrics),
                "--predictions",
                str(tmp_path / f"t{threads}.csv"),
            ]
        )
        assert code == 0
        digests.append(metrics.read_bytes())
    capsys.readouterr()
    assert digests[0] == digests[1]


def test_evaluate_stdout_key_value_lines(cohort_dir, tmp_path, capsys):
    main(
        [
            "evaluate",
            "--data",
            str(cohort_dir),
            "--seed",
            "7",
            "--metrics",
            str(tmp_path / "m.json"),
            "--predictions",
            str(tmp_path / "p.csv"),
        ]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    keys = [line.split("=")[0] for line in lines]
    for expected in ("ingest_excluded", "classifier", "windows", "tp", "precision", "recall", "f2"):
        assert expected in keys


def test_features_dump(cohort_dir, tmp_path, capsys):
    out = tmp_path / "features.csv"
    exclusions = tmp_path / "exclusions.csv"
    code = main(
        ["features", "--data", str(cohort_dir), "--out", str(out), "--exclusions", str(exclusions)]
    )
    assert code == 0
    capsys.readouterr()
    header = out.read_text().splitlines()[0].split(",")
    assert len(header) == 103
    assert header[:3] == ["patient_id", "window_start", "label"]
    assert exclusions.read_text().splitlines()[0] == "patient_id,window_start,reason"


def test_no_selection_flag_reproduces_table_shape(cohort_dir, tmp_path, capsys):
    metrics = tmp_path / "m.json"
    code = main(
        [
            "evaluate",
            "--data",
            str(cohort_dir),
            "--no-selection",
            "--seed",
            "7",
            "--metrics",
            str(metrics),
            "--predictions",
            str(tmp_path / "p.csv"),
        ]
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(metrics.read_text())
    assert doc["config"]["selection"] is False
    assert doc["classifier"] == "nb"
    assert {"tp", "fp", "fn", "tn", "precision", "recall", "f2", "seed"} <= set(doc)


def test_compare_classifiers_writes_five_arms(cohort_dir, tmp_path, capsys):
    metrics = tmp_path / "cmp.json"
    code = main(
        [
            "compare-classifiers",
            "--data",
            str(cohort_dir),
            "--seed",
            "7",
            "--threads",
            "2",
            "--metrics",
            str(metrics),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    doc = json.loads(metrics.read_text())
    assert [entry["arm"] for entry in doc] == ["nb", "brf", "ee", "iforest", "random"]
    assert "nb.f2=" in out and "random.f2=" in out


def test_ablate_selection_writes_three_arms(cohort_dir, tmp_path, capsys):
    metrics = tmp_path / "sel.json"
    code = main(
        ["ablate-selection", "--data", str(cohort_dir), "--seed", "7", "--metrics", str(metrics)]
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(metrics.read_text())
    assert len(doc) == 3


def test_parser_enumerates_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("synth", "features", "evaluate", "compare-classifiers", "ablate-modality", "ablate-selection"):
        assert name in text


def test_ingest_exclusions_are_counted_on_stdout(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "patients.csv").write_text(
        "patient_id,age,education_years,observation_start,observation_end\n"
        "pa,40,10,2021-01-04,2021-01-31\n"
    )
    (data / "sensors.csv").write_text(
        "patient_id,date,hour,signal,value\n"
        "pa,2021-01-04,3,call_duration,1\n"
        "pa,2021-02-10,3,call_duration,1\n"  # after the declared span
    )
    (data / "ema.csv").write_text(
        "patient_id,date," + ",".join(f"item_{i}" for i in range(1, 11)) + "\n"
        "pa,2021-01-03,0,0,0,0,0,0,0,0,0,0\n"  # before the declared span
        "pa,2021-01-05,0,0,0,0,0,0,0,0,0,0\n"
    )
    (data / "relapses.csv").write_text("patient_id,relapse_date\n")
    code = main(
        [
            "features",
            "--data",
            str(data),
            "--out",
            str(tmp_path / "f.csv"),
            "--exclusions",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 0
    assert "ingest_excluded=2" in capsys.readouterr().out.splitlines()
