"""Edge cohorts: a signal with no rows at all, and a patient too short for any window."""

from __future__ import annotations

import shutil

import numpy as np

from conftest import day
from relapsekit.cli import main
from relapsekit.dataio import load_dataset
from relapsekit.features import extract_all
from relapsekit.model import SIGNALS, Signal, signal_feature_indices
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
    assert [fw.spec for fw in a] == [fw.spec for fw in b]
    own = list(signal_feature_indices(Signal.LIGHT_LEVEL))
    others = [i for i in range(len(a[0].values)) if i not in own]
    assert len(own) == 13 and len(others) == 87
    gap_windows = 0
    for fa, fb in zip(a, b):
        if fb.spec.patient_id == "p1":
            assert np.isnan(fb.values[own]).all()
            gap_windows += 1
        else:
            np.testing.assert_array_equal(fb.values[own], fa.values[own])
        np.testing.assert_array_equal(fb.values[others], fa.values[others])
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
