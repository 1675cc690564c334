from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import weakref
from contextlib import nullcontext
from dataclasses import asdict, is_dataclass
from pathlib import Path

import pytest

import relapsekit
import relapsekit.features
from relapsekit import cli, evaluate
from relapsekit.cli import build_parser, main
from relapsekit.evaluate import GRIDS, ExperimentConfig
from relapsekit.model import SIGNALS, Signal
from relapsekit.synth import ProdromalSpec, SynthConfig
from relapsekit.windowing import WindowingConfig, enumerate_windows


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


# Every settings flag and the config field it sets, written out here rather
# than read from the flag tables, so that the tables are checked against it.
WINDOWING = {
    "--window-days": "window_days",
    "--horizon-days": "horizon_days",
    "--stride-days": "stride_days",
    "--cooloff-days": "cooloff_days",
    "--min-days-with-data": "min_days_with_data",
}
PIPELINE = {
    "--bins": "bins",
    "--selection-n": "selection_pool",
    "--selection-m": "selection_top",
    "--no-selection": "selection",
    "--no-demographics": "include_demographics",
    "--modality": "modality",
    "--nb-alpha": "nb_alpha",
    "--brf-trees": "brf_trees",
    "--ee-bags": "ee_bags",
    "--ee-rounds": "ee_rounds",
    "--iforest-trees": "iforest_trees",
    "--iforest-subsample": "iforest_subsample",
    "--threshold": "decision_threshold",
    "--baseline-runs": "baseline_runs",
    "--seed": "seed",
    **{flag: f"windowing.{name}" for flag, name in WINDOWING.items()},
}
SETTINGS = {
    "synth": {
        "--patients": "patient_count",
        "--days": "days_per_patient",
        "--relapse-fraction": "relapse_fraction",
        "--shift-magnitude": "prodrome.magnitude",
        "--onset-days": "prodrome.onset_days",
        "--peak-shift": "prodrome.peak_shift_hours",
        "--ema-per-week": "ema_per_week",
        "--missing-rate": "missing_rate",
        "--seed": "seed",
    },
    "features": WINDOWING,
    "evaluate": {"--classifier": "classifier", **PIPELINE},
    **dict.fromkeys(GRIDS, PIPELINE),
}
DEFAULT_CONFIGS = {
    "synth": SynthConfig(),
    "features": WindowingConfig(),
    **dict.fromkeys(("evaluate", *GRIDS), ExperimentConfig()),
}


def test_settings_name_every_row_of_the_flag_tables():
    tables = (cli.WINDOWING_FLAGS, cli.EXPERIMENT_FLAGS, cli.SYNTH_FLAGS, cli.PRODROME_FLAGS)
    rows = {flag for table in tables for flag, _, _ in table}
    assert rows == {flag for flags in SETTINGS.values() for flag in flags}


def _config_of(monkeypatch, argv: list[str]):
    """The config `main(argv)` hands to the first stage it calls."""
    seen = []

    def stop(*args, **kwargs):
        seen.extend(arg for arg in args if is_dataclass(arg))
        raise ValueError("stopped")

    monkeypatch.setattr(cli, "_files", lambda args, outputs: nullcontext())
    monkeypatch.setattr(cli, "_load", lambda paths: None)
    monkeypatch.setattr(relapsekit.features, "extract_all", lambda dataset, windowing: None)
    monkeypatch.setattr(relapsekit.features, "extract_cohort", stop)
    monkeypatch.setattr(evaluate, "run_grid", stop)
    for stage in ("generate", "run_lopo"):
        monkeypatch.setattr(cli, stage, stop)
    assert main(argv) == 1
    (config,) = seen
    return config


@pytest.mark.parametrize(
    "command, flag, field",
    [(command, flag, field) for command, flags in SETTINGS.items() for flag, field in flags.items()],
)
def test_each_settings_flag_sets_its_field_and_no_other(tmp_path, monkeypatch, capsys, command, flag, field):
    monkeypatch.chdir(tmp_path)  # default output paths land here
    expected = asdict(DEFAULT_CONFIGS[command])
    parent, _, name = field.rpartition(".")
    holder = expected[parent] if parent else expected
    default = holder[name]
    if isinstance(default, bool):  # a switch turns its field off
        value = False
    elif isinstance(default, str):  # one of the flag's choices
        value = {"classifier": "brf", "modality": "ema"}[name]
    else:
        value = default + (0.25 if isinstance(default, float) else 1)
    holder[name] = value
    argv = [command, flag] if isinstance(default, bool) else [command, flag, str(value)]
    if command == "synth":
        argv += ["--out", str(tmp_path / "cohort")]
    assert asdict(_config_of(monkeypatch, argv)) == expected
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags, signals",
    [
        ([], ProdromalSpec().signals),
        (["--shift-signals", " light_level, ,sound_level,"], (Signal.LIGHT_LEVEL, Signal.SOUND_LEVEL)),
    ],
    ids=["default", "spaces_and_empty_entries"],
)
def test_shift_signals_sets_the_prodrome_signals(tmp_path, monkeypatch, capsys, flags, signals):
    assert _config_of(monkeypatch, ["synth", *flags, "--out", str(tmp_path)]).prodrome.signals == signals
    capsys.readouterr()


def test_unknown_shift_signal_is_a_usage_error(tmp_path, capsys):
    assert main(["synth", "--shift-signals", "light_level,bogus", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "argument --shift-signals: invalid choice: 'bogus'" in err
    assert all(repr(signal.value) in err for signal in SIGNALS)
    assert not any(tmp_path.iterdir())


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


def test_evaluate_random_prints_the_windows_it_evaluated(tmp_path, capsys):
    cohort = tmp_path / "cohort"
    assert main(["synth", "--patients", "4", "--days", "60", "--seed", "1", "--out", str(cohort)]) == 0
    printed = {}
    for kind in ("nb", "random"):
        capsys.readouterr()
        argv = ["evaluate", "--data", str(cohort), "--classifier", kind, "--metrics", str(tmp_path / f"{kind}.json")]
        assert main([*argv, "--predictions", str(tmp_path / f"{kind}.csv")]) == 0
        printed[kind] = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert printed["random"]["windows"] == printed["nb"]["windows"] == "13"
    # the baseline's mean counts cover the same windows
    assert sum(float(printed["random"][key]) for key in ("tp", "fp", "fn", "tn")) == pytest.approx(13)


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


def test_features_exclusions_default_next_to_out(cohort_dir, tmp_path, capsys, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = tmp_path / "elsewhere" / "f.csv"
    assert main(["features", "--data", str(cohort_dir), "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out.parent / "exclusions.csv").read_text().splitlines()[0] == "patient_id,window_start,reason"
    assert list(workdir.iterdir()) == []


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


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--onset-days", "-3", "onset_days must be >= 0"),
        ("--shift-magnitude", "inf", "magnitude must be finite"),
        ("--shift-magnitude", "nan", "magnitude must be finite"),
        ("--peak-shift", "nan", "peak_shift_hours must be finite"),
        ("--peak-shift", "inf", "peak_shift_hours must be finite"),
    ],
)
def test_synth_negative_onset_days_exits_1_naming_the_field(tmp_path, capsys, flag, value, message):
    out = tmp_path / "cohort"
    assert main(["synth", "--patients", "2", "--days", "40", flag, value, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, row", [("sensors.csv", "p1,2021-01-04,3,call_duration,{}"), ("ema.csv", "p1,2021-01-04,{}" + ",0" * 9)]
)
def test_a_field_over_the_csv_limit_exits_1_naming_file_and_row(tmp_path, capsys, name, row):
    data = tmp_path / "cohort"
    assert main(["synth", "--patients", "2", "--days", "40", "--seed", "3", "--out", str(data)]) == 0
    path = data / name
    rows = len(path.read_text().splitlines())
    with path.open("a") as handle:
        handle.write(row.format("1" * (csv.field_size_limit() + 1)) + "\n")
    capsys.readouterr()
    assert main(["features", "--data", str(data), "--out", str(tmp_path / "f.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:{rows + 1}: field larger than field limit")


@pytest.mark.parametrize("name", ["sensors.csv", "ema.csv", "patients.csv", "relapses.csv"])
def test_a_zero_byte_input_file_exits_1_naming_it(cohort_dir, tmp_path, capsys, name):
    data = tmp_path / "cohort"
    shutil.copytree(cohort_dir, data)
    (data / name).write_bytes(b"")
    assert main(["features", "--data", str(data), "--out", str(tmp_path / "f.csv")]) == 1
    assert capsys.readouterr().err == f"error: {data / name}: empty file\n"


@pytest.mark.parametrize(
    "name, quoted",
    [("sensors.csv", False), ("sensors.csv", True), ("ema.csv", False), ("patients.csv", False), ("relapses.csv", False)],
)
def test_an_undecodable_byte_exits_1_naming_file_and_line(cohort_dir, tmp_path, capsys, name, quoted):
    # The quoted row sends its sensors.csv block through `csv.reader`'s rows;
    # the blocks after it still name the undecodable byte's line.
    data = tmp_path / "cohort"
    shutil.copytree(cohort_dir, data)
    lines = (data / name).read_bytes().split(b"\n")
    if quoted:
        lines[1] = b'"' + lines[1].replace(b",", b'",', 1)
    bad = len(lines) // 2
    lines[bad] = lines[bad][:1] + b"\xff" + lines[bad][1:]
    (data / name).write_bytes(b"\n".join(lines))
    assert main(["features", "--data", str(data), "--out", str(tmp_path / "f.csv")]) == 1
    assert capsys.readouterr().err == f"error: {data / name}:{bad + 1}: invalid UTF-8\n"


@pytest.mark.parametrize(
    "name, field_line, field, value, byte_line, message",
    [
        ("ema.csv", 2, 0, b"px", 4, "2: unknown patient_id px"),
        ("sensors.csv", 2, 2, b"24", 4, "2: hour out of range: 24"),
        ("sensors.csv", 4, 2, b"24", 2, "2: invalid UTF-8"),
    ],
)
def test_the_first_fault_in_file_order_wins_against_an_undecodable_byte(
    cohort_dir, tmp_path, capsys, name, field_line, field, value, byte_line, message
):
    # Both faults fall in one block of the file; the row or byte that comes
    # first is reported, whichever kind it is.
    data = tmp_path / "cohort"
    shutil.copytree(cohort_dir, data)
    lines = (data / name).read_bytes().split(b"\n")
    fields = lines[field_line - 1].split(b",")
    fields[field] = value
    lines[field_line - 1] = b",".join(fields)
    lines[byte_line - 1] = lines[byte_line - 1][:1] + b"\xff" + lines[byte_line - 1][1:]
    (data / name).write_bytes(b"\n".join(lines))
    assert main(["features", "--data", str(data), "--out", str(tmp_path / "f.csv")]) == 1
    assert capsys.readouterr().err == f"error: {data / name}:{message}\n"


def _imports_module(module: str, argv: list[str]) -> bool:
    """Whether `module` is in `sys.modules` after `main(argv)` in a fresh interpreter."""
    script = f"import sys; from relapsekit.cli import main; main(sys.argv[1:]); print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(relapsekit.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize(
    "command, runs, unused",
    [
        ("synth", "relapsekit.synth", ("evaluate", "classifiers", "features", "transform", "templates", "ingest")),
        ("features", "relapsekit.features", ("evaluate", "classifiers")),
    ],
)
def test_commands_import_only_the_modules_they_run(cohort_dir, tmp_path, command, runs, unused):
    # Every CLI run is a fresh interpreter that compiles what it imports, so
    # synth and features leave the modules they never call unloaded
    if command == "synth":
        argv = ["synth", "--patients", "2", "--days", "30", "--seed", "3", "--out", str(tmp_path / "cohort")]
    else:
        argv = ["features", "--data", str(cohort_dir), "--out", str(tmp_path / "features.csv")]
    assert _imports_module(runs, argv)
    assert [name for name in unused if _imports_module(f"relapsekit.{name}", argv)] == []


@pytest.mark.parametrize("command", ["features", "evaluate", "ablate-selection"])
def test_commands_that_read_a_cohort_import_the_reader(cohort_dir, tmp_path, command):
    outputs = {
        "features": ["--out", str(tmp_path / "features.csv")],
        "evaluate": ["--metrics", str(tmp_path / "m.json"), "--predictions", str(tmp_path / "p.csv")],
        "ablate-selection": ["--metrics", str(tmp_path / "m.json")],
    }
    assert _imports_module("relapsekit.ingest", [command, "--data", str(cohort_dir), *outputs[command]])


def test_importing_the_package_imports_no_submodule():
    script = "import sys, relapsekit; print(sorted(name for name in sys.modules if name.startswith('relapsekit.')))"
    env = {**os.environ, "PYTHONPATH": str(Path(relapsekit.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["evaluate", "ablate-modality"])
def test_classifiers_load_after_the_window_table(cohort_dir, tmp_path, command):
    # classifiers is a large module: imported before the table exists, it
    # would add to the memory held at the end of extraction
    script = (
        "import sys; import relapsekit.evaluate as ev; from relapsekit.cli import main\n"
        "plan = ev._plan_folds\n"
        "def planning(*args):\n"
        "    print('at plan', 'relapsekit.classifiers' in sys.modules); return plan(*args)\n"
        "ev._plan_folds = planning; main(sys.argv[1:])\n"
        "print('at end', 'relapsekit.classifiers' in sys.modules)\n"
    )
    outputs = ["--predictions", str(tmp_path / "p.csv")] if command == "evaluate" else []
    argv = [command, "--data", str(cohort_dir), "--metrics", str(tmp_path / "m.json"), *outputs]
    env = {**os.environ, "PYTHONPATH": str(Path(relapsekit.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, check=True)
    assert [line for line in done.stdout.splitlines() if line.startswith("at ")] == ["at plan False", "at end True"]


@pytest.mark.parametrize("command", ["compare-classifiers", "ablate-modality"])
def test_commands_do_not_import_numpy_ma(cohort_dir, tmp_path, command):
    # numpy.ma costs start-up time and memory; `import numpy` leaves it out,
    # but some calls import it, such as np.unique's hash path
    argv = [command, "--data", str(cohort_dir), "--seed", "7", "--threads", "1", "--metrics", str(tmp_path / "m.json")]
    assert not _imports_module("numpy.ma", argv)


@pytest.mark.parametrize("command", ["compare-classifiers", "ablate-modality"])
def test_grid_frees_the_dataset_before_the_fold_plan(cohort_dir, tmp_path, capsys, monkeypatch, command):
    # The arms read the window table alone, so the Dataset and its sensor
    # arrays must be gone once the table exists, not held until the last arm.
    loaded, alive = [], []
    load, plan = cli.load_dataset, evaluate._plan_folds

    def loading(*paths):
        dataset = load(*paths)
        loaded.append(weakref.ref(dataset))
        return dataset

    def planning(*args, **kwargs):
        alive.append(loaded[0]() is not None)
        return plan(*args, **kwargs)

    monkeypatch.setattr(cli, "load_dataset", loading)
    monkeypatch.setattr(evaluate, "_plan_folds", planning)
    small = ["--brf-trees", "3", "--ee-bags", "3", "--iforest-trees", "3", "--baseline-runs", "10"]
    assert main([command, "--data", str(cohort_dir), *small, "--metrics", str(tmp_path / "m.json")]) == 0
    capsys.readouterr()
    assert alive == [False]


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
    "command, paths, same",
    [
        ("features", ["--out", "{d}/exclusions.csv"], "--out and --exclusions"),
        ("features", ["--out", "{d}/f.csv", "--exclusions", "{d}/../d/f.csv"], "--out and --exclusions"),
        ("evaluate", ["--metrics", "{d}/f", "--predictions", "{d}/f"], "--metrics and --predictions"),
        (
            "compare-classifiers",
            ["--metrics", "{d}/nb.csv", "--predictions-dir", "{d}"],
            "--metrics and --predictions-dir/nb.csv",
        ),
        (
            "ablate-modality",
            ["--predictions-dir", "{c}", "--metrics", "{d}/m.json"],
            "--ema and --predictions-dir/ema.csv",
        ),
        ("features", ["--out", "{c}/sensors.csv", "--exclusions", "{d}/x.csv"], "--sensors and --out"),
        ("evaluate", ["--metrics", "{c}/patients.csv", "--predictions", "{d}/p.csv"], "--patients and --metrics"),
        (
            "evaluate",
            ["--relapses", "{t}/r.csv", "--predictions", "{t}/r.csv", "--metrics", "{d}/m.json"],
            "--relapses and --predictions",
        ),
        ("features", ["--sensors", "{t}/s.csv", "--ema", "{t}/s.csv", "--out", "{d}/f.csv"], "--sensors and --ema"),
    ],
    ids=[
        "features-default-exclusions",
        "features-exclusions",
        "evaluate",
        "grid-arm",
        "grid-arm-over-input",
        "features-over-input",
        "metrics-over-input",
        "output-over-input-flag",
        "two-inputs",
    ],
)
def test_one_file_named_twice_exits_1_before_loading(cohort_dir, tmp_path, capsys, command, paths, same):
    # A second output or an output over an input would overwrite that file,
    # and one file read as two inputs is a mistake: the command refuses
    # before it reads any input or makes a directory, and every input keeps
    # its bytes. `c` is a copy of the cohort; `d` does not exist.
    shutil.copytree(cohort_dir, tmp_path / "c")
    shutil.copy(cohort_dir / "relapses.csv", tmp_path / "r.csv")
    shutil.copy(cohort_dir / "sensors.csv", tmp_path / "s.csv")
    before = {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")}
    paths = [arg.format(c=tmp_path / "c", d=tmp_path / "d", t=tmp_path) for arg in paths]
    assert main([command, "--data", str(tmp_path / "c"), *paths]) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {same} name the same file: ")
    assert "ingest_excluded=" not in out
    assert {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")} == before


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--threshold=nan", "decision_threshold must be finite"),
        ("--threshold=inf", "decision_threshold must be finite"),
        ("--threshold=-inf", "decision_threshold must be finite"),
        ("--nb-alpha=inf", "nb_alpha must be finite"),
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
