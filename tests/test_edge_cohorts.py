"""Edge cohorts: a signal with no rows at all, a patient too short for any
window, a single relapsing patient, and a relapse past the data of an
inferred span."""

from __future__ import annotations

import csv
import json
import logging
import shutil
from datetime import date as Date
from datetime import timedelta
from pathlib import Path

import numpy as np

from conftest import day
from relapsekit.cli import main
from relapsekit.features import extract_all
from relapsekit.ingest import load_dataset
from relapsekit.model import SIGNALS, Signal, feature_indices_for_modality
from relapsekit.synth import SynthConfig, generate
from relapsekit.windowing import WindowingConfig


def load_dir(path):
    return load_dataset(
        path / "sensors.csv", path / "ema.csv", path / "patients.csv", path / "relapses.csv"
    )


def test_signal_without_rows_is_missing_and_touches_only_its_13_features(tmp_path):
    full_dir, gap_dir = tmp_path / "full", tmp_path / "gap"
    generate(SynthConfig(patient_count=3, days_per_patient=70, seed=5), out_dir=full_dir)
    shutil.copytree(full_dir, gap_dir)
    lines = (full_dir / "sensors.csv").read_text().splitlines(keepends=True)
    (gap_dir / "sensors.csv").write_text(
        "".join(line for line in lines if not line.startswith("p1,") or ",light_level," not in line)
    )
    full, gap = load_dir(full_dir), load_dir(gap_dir)
    light = SIGNALS.index(Signal.LIGHT_LEVEL)
    assert np.isnan(gap.sensors["p1"][:, light]).all()
    assert not np.isnan(full.sensors["p1"][:, light]).all()

    config = WindowingConfig()
    a, b = extract_all(full, config), extract_all(gap, config)
    assert a.specs == b.specs
    own = list(feature_indices_for_modality(Signal.LIGHT_LEVEL.value, False))
    others = [i for i in range(a.values.shape[1]) if i not in own]
    assert len(own) == 13 and len(others) == 87
    gap_windows = 0
    for spec, fa, fb in zip(b.specs, a.values, b.values):
        if spec.patient_id == "p1":
            assert np.isnan(fb[own]).all()
            gap_windows += 1
        else:
            np.testing.assert_array_equal(fb[own], fa[own])
        np.testing.assert_array_equal(fb[others], fa[others])
    assert gap_windows > 0


def test_patient_shorter_than_window_plus_horizon_changes_no_output(tmp_path):
    base, extended = tmp_path / "base", tmp_path / "extended"
    assert main(["synth", "--patients", "6", "--days", "90", "--seed", "21", "--out", str(base)]) == 0
    shutil.copytree(base, extended)
    # p0 sorts first and spans 34 days: one short of a 28-day window plus a
    # 7-day horizon. It has sensor rows, self-reports and a relapse.
    with (extended / "patients.csv").open("a") as f:
        f.write(f"p0,30,12,{day(0).isoformat()},{day(33).isoformat()}\n")
    with (extended / "sensors.csv").open("a") as f:
        for d in range(34):
            f.write(f"p0,{day(d).isoformat()},12,call_duration,1.5\n")
    with (extended / "ema.csv").open("a") as f:
        f.write(f"p0,{day(0).isoformat()},1,1,1,1,1,1,1,1,1,1\n")
    with (extended / "relapses.csv").open("a") as f:
        f.write(f"p0,{day(20).isoformat()}\n")

    outputs = []
    for data in (base, extended):
        metrics, predictions = tmp_path / f"{data.name}.json", tmp_path / f"{data.name}.csv"
        code = main(
            [
                "evaluate",
                "--data",
                str(data),
                "--seed",
                "9",
                "--metrics",
                str(metrics),
                "--predictions",
                str(predictions),
            ]
        )
        assert code == 0
        outputs.append((metrics.read_bytes(), predictions.read_bytes()))
    assert len(load_dir(extended).patients) == 7
    assert outputs[0] == outputs[1]


def test_single_relapse_patient_trains_its_own_fold_single_class_and_is_byte_stable(tmp_path, caplog):
    data = tmp_path / "data"
    synth = ["synth", "--patients", "5", "--days", "120", "--relapse-fraction", "0.2", "--seed", "3"]
    assert main([*synth, "--out", str(data)]) == 0
    relapsing = {row[0] for row in csv.reader((data / "relapses.csv").read_text().splitlines()[1:])}
    assert len(relapsing) == 1
    (pid,) = relapsing

    warning = f"fold {pid}: training windows are single-class; predicting majority"
    common = ["--data", str(data), "--seed", "9", "--threads", "1"]
    runs = []
    for run in ("first", "second"):
        out = tmp_path / run
        out.mkdir()
        with caplog.at_level(logging.WARNING, logger="relapsekit.evaluate"):
            caplog.clear()
            argv = ["evaluate", *common, "--metrics", str(out / "e.json")]
            assert main([*argv, "--predictions", str(out / "e.csv")]) == 0
            assert [record.getMessage() for record in caplog.records] == [warning]
            caplog.clear()
            argv = ["compare-classifiers", *common, "--metrics", str(out / "c.json")]
            assert main([*argv, "--predictions-dir", str(out / "c")]) == 0
            assert [record.getMessage() for record in caplog.records] == [warning]  # once per fold, not per arm
        runs.append({path.relative_to(out): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()})

    assert len(runs[0]) == 8  # evaluate: metrics, predictions; compare: metrics, five prediction files
    assert runs[0] == runs[1]
    labelled = [row for row in csv.DictReader(runs[0][Path("e.csv")].decode().splitlines()) if row["label"] == "1"]
    assert labelled and {row["patient_id"] for row in labelled} == {pid}


def test_every_arm_reports_the_same_training_counts_per_fold_on_a_single_relapse_cohort(tmp_path):
    data, metrics = tmp_path / "data", tmp_path / "metrics.json"
    synth = ["synth", "--patients", "5", "--days", "120", "--relapse-fraction", "0.2", "--seed", "3"]
    assert main([*synth, "--out", str(data)]) == 0
    small = ["--brf-trees", "5", "--ee-bags", "3", "--ee-rounds", "2", "--iforest-trees", "5", "--baseline-runs", "20"]
    assert main(["compare-classifiers", "--data", str(data), *small, "--metrics", str(metrics)]) == 0
    table = extract_all(load_dir(data), WindowingConfig())
    expected = [
        (pid, int((table.patients != k).sum()), int(table.labels[table.patients != k].sum()))
        for k, pid in enumerate(table.patient_ids)
    ]
    assert [count for _, _, count in expected].count(0) == 1  # the relapsing patient's fold is single-class
    doc = json.loads(metrics.read_text())
    assert [arm["arm"] for arm in doc] == ["nb", "brf", "ee", "iforest", "random"]
    for arm in doc:
        folds = [(f["patient_id"], f["train_windows"], f["train_relapse_windows"]) for f in arm["folds"]]
        assert folds == expected, arm["arm"]


def test_relapse_after_last_data_row_of_an_inferred_span_names_its_line(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--patients", "3", "--days", "60", "--seed", "4", "--out", str(data)]) == 0
    # Drop the declared spans, so each is inferred from the patient's rows.
    patients = [row[:3] for row in csv.reader((data / "patients.csv").read_text().splitlines())]
    (data / "patients.csv").write_text("".join(",".join(row) + "\n" for row in patients))
    pid = patients[1][0]
    last = max(
        Date.fromisoformat(row[1])
        for name in ("sensors.csv", "ema.csv")
        for row in csv.reader((data / name).read_text().splitlines()[1:])
        if row[0] == pid
    )
    relapses = (data / "relapses.csv").read_text()
    late = last + timedelta(days=1)
    (data / "relapses.csv").write_text(relapses + f"{pid},{late.isoformat()}\n")
    line = len(relapses.splitlines()) + 1

    errors = []
    for run in ("first", "second"):
        argv = ["evaluate", "--data", str(data), "--metrics", str(tmp_path / run / "m.json")]
        assert main(argv) == 1
        errors.append(capsys.readouterr().err)
        assert not (tmp_path / run).exists()
    expected = f"error: {data / 'relapses.csv'}:{line}: relapse date {late} outside observation span\n"
    assert errors == [expected, expected]
