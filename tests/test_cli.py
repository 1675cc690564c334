from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relapsekit
import relapsekit.features
from relapsekit.cli import build_parser, main
from relapsekit.windowing import enumerate_windows


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


def test_evaluate_threads_one_matches_default(cohort_dir, tmp_path, capsys):
    # --threads 1 is kept only so scripts that pass it still run; it changes nothing
    outputs = []
    for name, threads in (("default", []), ("one", ["--threads", "1"])):
        metrics, predictions = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        argv = ["evaluate", "--data", str(cohort_dir), "--seed", "7", *threads]
        assert main([*argv, "--metrics", str(metrics), "--predictions", str(predictions)]) == 0
        outputs.append((metrics.read_bytes(), predictions.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]


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


def test_features_enumerates_each_patients_windows_once(cohort_dir, tmp_path, capsys, monkeypatch):
    calls = []

    def counted(patient, *args):
        calls.append(patient.patient_id)
        return enumerate_windows(patient, *args)

    monkeypatch.setattr(relapsekit.features, "enumerate_windows", counted)
    argv = ["features", "--data", str(cohort_dir), "--out", str(tmp_path / "f.csv")]
    assert main([*argv, "--exclusions", str(tmp_path / "x.csv")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert sorted(calls) == calls and len(set(calls)) == len(calls) == 8
    excluded = len((tmp_path / "x.csv").read_text().splitlines()) - 1
    assert f"excluded={excluded}" in out


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


@pytest.mark.parametrize(
    "command, flag, field",
    [
        ("ablate-selection", "--no-selection", "selection"),
        ("ablate-selection", "--no-demographics", "include_demographics"),
        ("ablate-modality", "--no-demographics", "include_demographics"),
        ("ablate-modality", "--no-selection", None),
        ("compare-classifiers", "--no-selection", None),
        ("compare-classifiers", "--no-demographics", None),
        ("ablate-modality", "--modality ema", "modality"),
        ("ablate-modality", "--modality all", None),  # the default
        ("compare-classifiers", "--modality ema", None),
        ("ablate-selection", "--modality ema", None),
    ],
)
def test_grid_warns_once_about_a_flag_every_arm_overrides(tmp_path, caplog, command, flag, field):
    # The warning comes before the inputs are read, so a missing directory will do.
    assert main([command, *flag.split(), "--data", str(tmp_path / "missing")]) == 1
    messages = [r.getMessage() for r in caplog.records if r.name == "relapsekit.cli"]
    assert messages == ([f"{flag.split()[0]} is ignored by {command}: every arm sets {field}"] if field else [])


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


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--brf-trees", "0", "brf_trees"),
        ("--iforest-trees", "0", "iforest_trees"),
        ("--ee-bags", "0", "ee_bags"),
        ("--ee-rounds", "0", "ee_rounds"),
        ("--iforest-subsample", "0", "iforest_subsample"),
        ("--baseline-runs", "0", "baseline_runs"),
        ("--bins", "0", "bins"),
        ("--selection-n", "0", "selection_pool"),
        ("--selection-m", "0", "selection_top"),
        ("--nb-alpha", "0", "nb_alpha"),
        ("--nb-alpha", "-1.5", "nb_alpha"),
    ],
)
def test_non_positive_counts_exit_1_naming_the_field(cohort_dir, tmp_path, capsys, flag, value, field):
    metrics, predictions = tmp_path / "m.json", tmp_path / "p.csv"
    argv = ["--data", str(cohort_dir), flag, value, "--metrics", str(metrics), "--predictions", str(predictions)]
    assert main(["evaluate", *argv]) == 1
    assert f"{field} must be positive" in capsys.readouterr().err
    assert not metrics.exists() and not predictions.exists()


@pytest.mark.parametrize("command", ["evaluate", "compare-classifiers", "ablate-modality", "ablate-selection"])
@pytest.mark.parametrize("threads", ["0", "-1", "2"])
def test_thread_count_other_than_one_exits_2_before_loading(
    cohort_dir, tmp_path, capsys, monkeypatch, command, threads
):
    monkeypatch.chdir(tmp_path)  # default output paths land here
    extra = ["--predictions-dir", str(tmp_path / "arms")] if command != "evaluate" else []
    assert main([command, "--data", str(cohort_dir), "--threads", threads, *extra]) == 2
    out, err = capsys.readouterr()
    assert "--threads: invalid choice" in err
    assert "ingest_excluded=" not in out
    assert list(tmp_path.iterdir()) == []


def test_synth_negative_onset_days_exits_1_naming_the_field(tmp_path, capsys):
    out = tmp_path / "cohort"
    assert main(["synth", "--patients", "2", "--days", "40", "--onset-days", "-3", "--out", str(out)]) == 1
    assert "onset_days must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def _imports_module(module: str, argv: list[str]) -> bool:
    """Whether `module` is in `sys.modules` after `main(argv)` in a fresh interpreter."""
    script = f"import sys; from relapsekit.cli import main; main(sys.argv[1:]); print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(relapsekit.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("command", ["compare-classifiers", "ablate-modality"])
def test_commands_do_not_import_numpy_ma(cohort_dir, tmp_path, command):
    # numpy.ma costs start-up time and memory; `import numpy` leaves it out,
    # but some calls import it, such as np.unique's hash path
    argv = [command, "--data", str(cohort_dir), "--seed", "7", "--threads", "1", "--metrics", str(tmp_path / "m.json")]
    assert not _imports_module("numpy.ma", argv)


@pytest.mark.parametrize(
    "command, draws",
    [("evaluate", False), ("ablate-modality", False), ("ablate-selection", False), ("compare-classifiers", True)],
)
def test_only_runs_that_draw_import_numpy_random(cohort_dir, tmp_path, command, draws):
    # numpy.random costs start-up time and memory; Naive Bayes draws nothing,
    # so its runs build no seed
    outputs = ["--predictions", str(tmp_path / "p.csv")] if command == "evaluate" else []
    argv = [command, "--data", str(cohort_dir), "--seed", "7", "--metrics", str(tmp_path / "m.json"), *outputs]
    assert _imports_module("numpy.random", argv) is draws


@pytest.mark.parametrize("command", ["evaluate", "ablate-selection"])
def test_outputs_into_missing_directories_are_created(cohort_dir, tmp_path, capsys, command):
    metrics = tmp_path / "new" / "deeper" / "m.json"
    if command == "evaluate":
        outputs, written = ["--predictions", str(tmp_path / "preds" / "p.csv")], [tmp_path / "preds" / "p.csv"]
    else:
        outputs = ["--predictions-dir", str(tmp_path / "arms")]
        written = [tmp_path / "arms" / f"{arm}.csv" for arm in ("selection_with_demographics", "no_feature_selection")]
    assert main([command, "--data", str(cohort_dir), "--seed", "7", "--metrics", str(metrics), *outputs]) == 0
    capsys.readouterr()
    assert json.loads(metrics.read_text())
    assert all(path.is_file() for path in written)


@pytest.mark.parametrize(
    "command, first, second",
    [
        ("evaluate", "--metrics", "--predictions"),
        ("features", "--out", "--exclusions"),
        ("compare-classifiers", "--metrics", "--predictions-dir"),
    ],
)
def test_output_path_under_a_file_exits_1_before_loading(cohort_dir, tmp_path, capsys, command, first, second):
    # mkdir under a regular file raises an OSError, reported before ingest;
    # the directory made for the first output is removed again.
    blocker = tmp_path / "file"
    blocker.write_text("")
    outputs = [first, str(tmp_path / "new" / "x"), second, str(blocker / "sub" / "x")]
    assert main([command, "--data", str(cohort_dir), *outputs]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and str(blocker) in err
    assert "ingest_excluded=" not in out
    assert list(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--threshold=nan", "decision_threshold must be finite"),
        ("--threshold=inf", "decision_threshold must be finite"),
        ("--threshold=-inf", "decision_threshold must be finite"),
        ("--seed=-1", "seed must be non-negative"),  # also for Naive Bayes, which builds no seed
    ],
)
def test_invalid_config_exits_1_before_loading(cohort_dir, tmp_path, capsys, flag, message):
    metrics, predictions = tmp_path / "m.json", tmp_path / "p.csv"
    argv = ["--data", str(cohort_dir), flag, "--metrics", str(metrics), "--predictions", str(predictions)]
    assert main(["evaluate", *argv]) == 1
    out, err = capsys.readouterr()
    assert message in err
    assert "ingest_excluded=" not in out
    assert not metrics.exists() and not predictions.exists()
