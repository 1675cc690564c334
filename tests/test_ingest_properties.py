"""Property tests for CSV ingest: write/load round trip and row-order independence."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_patient
from relapsekit.dataio import Dataset, load_dataset, write_dataset

SETTINGS = settings(max_examples=15, deadline=None, derandomize=True)

VALUES = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def cohorts(draw) -> Dataset:
    """One to three patients with random sparse sensor arrays, plus the edge
    cases every example carries: an all-NaN day, an all-NaN signal, and a
    patient with no sensor rows at all."""
    n_patients = draw(st.integers(1, 3))
    patients, sensors = [], {}
    for i in range(n_patients):
        n_days = draw(st.integers(2, 6))
        shape = (n_days, 6, 24)
        values = draw(arrays(np.float64, shape, elements=VALUES))
        present = draw(arrays(np.bool_, shape))
        cube = np.where(present, values, np.nan)
        cube[draw(st.integers(0, n_days - 1))] = np.nan
        cube[:, draw(st.integers(0, 5))] = np.nan
        pid = f"p{i}"
        patients.append(make_patient(pid=pid, n_days=n_days))
        sensors[pid] = cube
    patients.append(make_patient(pid="pz", n_days=3))
    sensors["pz"] = np.full((3, 6, 24), np.nan)
    return Dataset(patients=tuple(patients), sensors=sensors, ema={})


def load_dir(path) -> Dataset:
    return load_dataset(
        path / "sensors.csv", path / "ema.csv", path / "patients.csv", path / "relapses.csv"
    )


def assert_same_sensors(a: Dataset, b: Dataset) -> None:
    assert a.sensors.keys() == b.sensors.keys()
    for pid, cube in a.sensors.items():
        assert np.array_equal(cube, b.sensors[pid], equal_nan=True), pid


@SETTINGS
@given(ds=cohorts())
def test_write_then_load_returns_the_same_sensor_arrays(tmp_path_factory, ds):
    out = tmp_path_factory.mktemp("roundtrip")
    write_dataset(ds, out)
    again = load_dir(out)
    assert again.patients == ds.patients
    assert again.ingest_exclusions == ()
    assert_same_sensors(again, ds)


def excluded_rows(ds: Dataset, path) -> set[tuple[str, str]]:
    lines = (path / "sensors.csv").read_text().splitlines()
    return {(lines[e.line - 1], e.reason) for e in ds.ingest_exclusions}


@SETTINGS
@given(ds=cohorts(), data=st.data())
def test_sensor_row_order_does_not_change_the_dataset(tmp_path_factory, ds, data):
    out = tmp_path_factory.mktemp("ordered")
    write_dataset(ds, out)
    # p0's declared span starts 2021-01-04 and lasts at most six days, so
    # these two rows are excluded.
    sensors = out / "sensors.csv"
    extra = ["p0,2021-01-03,5,light_level,1.5", "p0,2021-03-01,7,sound_level,2.0"]
    header, *rows = sensors.read_text().splitlines()
    rows += extra
    sensors.write_text("\n".join([header, *rows]) + "\n")
    ordered = load_dir(out)

    shuffled_dir = tmp_path_factory.mktemp("shuffled")
    for name in ("ema.csv", "patients.csv", "relapses.csv"):
        (shuffled_dir / name).write_bytes((out / name).read_bytes())
    shuffled_rows = data.draw(st.permutations(rows))
    (shuffled_dir / "sensors.csv").write_text("\n".join([header, *shuffled_rows]) + "\n")
    shuffled = load_dir(shuffled_dir)

    assert_same_sensors(shuffled, ordered)
    assert len(ordered.ingest_exclusions) == len(extra)
    assert excluded_rows(shuffled, shuffled_dir) == excluded_rows(ordered, out)
