from __future__ import annotations

import csv
import io
from datetime import date as Date

import numpy as np
import pytest

from conftest import day, make_patient
from relapsekit.dataio import (
    Dataset,
    IngestError,
    load_dataset,
    write_dataset,
    write_metrics,
    write_predictions,
)
from relapsekit.evaluate import EvalReport, PredictionRow
from relapsekit.model import SIGNALS, EmaRecord, Signal
from relapsekit.windowing import WindowingConfig, window_at

SENSOR_HEADER = "patient_id,date,hour,signal,value\n"
EMA_HEADER = "patient_id,date," + ",".join(f"item_{i}" for i in range(1, 11)) + "\n"
PATIENT_HEADER = "patient_id,age,education_years\n"
RELAPSE_HEADER = "patient_id,relapse_date\n"
CALL = SIGNALS.index(Signal.CALL_DURATION)


def write_fixture(
    tmp_path,
    sensors: str = "",
    ema: str = "",
    patients: str = "pa,40,10\npb,55,8\n",
    relapses: str = "",
    patient_header: str = PATIENT_HEADER,
):
    paths = {
        "sensors": tmp_path / "sensors.csv",
        "ema": tmp_path / "ema.csv",
        "patients": tmp_path / "patients.csv",
        "relapses": tmp_path / "relapses.csv",
    }
    paths["sensors"].write_text(SENSOR_HEADER + sensors)
    paths["ema"].write_text(EMA_HEADER + ema)
    paths["patients"].write_text(patient_header + patients)
    paths["relapses"].write_text(RELAPSE_HEADER + relapses)
    return paths


def load(paths) -> Dataset:
    return load_dataset(paths["sensors"], paths["ema"], paths["patients"], paths["relapses"])


def test_well_formed_fixture_roundtrip(tmp_path):
    sensors = "".join(
        f"pa,2021-01-{4 + d:02d},{h},call_duration,1.5\n" for d in range(10) for h in (8, 9)
    ) + "pb,2021-01-04,3,sound_level,2.25\npb,2021-01-13,3,sound_level,4.0\n"
    ema = "pa,2021-01-05,0,1,2,3,0,1,2,3,0,1\n"
    ds = load(write_fixture(tmp_path, sensors=sensors, ema=ema))

    assert [p.patient_id for p in ds.patients] == ["pa", "pb"]
    pa = ds.patient("pa")
    assert pa.observation_start == Date(2021, 1, 4)
    assert pa.observation_end == Date(2021, 1, 13)  # inferred from data
    values = ds.sensors["pa"][0, CALL]
    assert ds.sensors["pa"].shape == (10, 6, 24)
    assert values[8] == 1.5 and values[9] == 1.5 and np.isnan(values[0])
    assert ds.ema_records("pa")[Date(2021, 1, 5)].items == (0, 1, 2, 3, 0, 1, 2, 3, 0, 1)


def test_duplicate_sensor_rows_mean_aggregated(tmp_path):
    sensors = "pa,2021-01-04,3,call_duration,2\npa,2021-01-04,3,call_duration,4\n"
    ds = load(write_fixture(tmp_path, sensors=sensors, patients="pa,40,10\n"))
    assert ds.sensors["pa"][0, CALL, 3] == 3.0


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("pa,2021-01-04,24,call_duration,1\n", "hour out of range"),
        ("pa,2021-01-04,3,step_count,1\n", "unknown signal"),
        ("pa,2021-01-04,3,call_duration,-1\n", "finite and >= 0"),
        ("pa,2021-01-04,3,call_duration,nan\n", "finite and >= 0"),
        ("px,2021-01-04,3,call_duration,1\n", "unknown patient_id"),
        ("pa,2021-13-04,3,call_duration,1\n", "invalid date"),
    ],
)
def test_sensor_row_errors_name_file_and_line(tmp_path, row, fragment):
    paths = write_fixture(tmp_path, sensors="pa,2021-01-04,3,call_duration,1\n" + row)
    with pytest.raises(IngestError) as err:
        load(paths)
    assert fragment in str(err.value)
    assert err.value.file.endswith("sensors.csv")
    assert err.value.line == 3


def test_ema_item_out_of_range(tmp_path):
    paths = write_fixture(
        tmp_path,
        sensors="pa,2021-01-04,3,call_duration,1\n",
        ema="pa,2021-01-04,0,1,2,3,0,1,2,3,0,4\n",
    )
    with pytest.raises(IngestError, match="item_10 out of range"):
        load(paths)


def test_duplicate_ema_record_rejected(tmp_path):
    ema = "pa,2021-01-04,0,0,0,0,0,0,0,0,0,0\npa,2021-01-04,1,1,1,1,1,1,1,1,1,1\n"
    paths = write_fixture(tmp_path, sensors="pa,2021-01-04,3,call_duration,1\n", ema=ema)
    with pytest.raises(IngestError, match="duplicate EMA record"):
        load(paths)


def test_malformed_header_rejected(tmp_path):
    paths = write_fixture(tmp_path, sensors="pa,2021-01-04,3,call_duration,1\n")
    paths["sensors"].write_text("patient,day,h,sig,v\npa,2021-01-04,3,call_duration,1\n")
    with pytest.raises(IngestError, match="malformed header"):
        load(paths)


def test_relapse_outside_span_rejected(tmp_path):
    paths = write_fixture(
        tmp_path,
        sensors="pa,2021-01-04,3,call_duration,1\npa,2021-01-20,3,call_duration,1\n",
        patients="pa,40,10\n",
        relapses="pa,2021-03-01\n",
    )
    with pytest.raises(IngestError, match="outside observation span"):
        load(paths)


def test_unknown_relapse_patient_rejected(tmp_path):
    paths = write_fixture(
        tmp_path, sensors="pa,2021-01-04,3,call_duration,1\n", relapses="zz,2021-01-04\n"
    )
    with pytest.raises(IngestError, match="unknown patient_id"):
        load(paths)


def test_patient_without_span_or_data_rejected(tmp_path):
    paths = write_fixture(tmp_path, sensors="pa,2021-01-04,3,call_duration,1\n")
    with pytest.raises(IngestError, match="no data rows to infer"):
        load(paths)  # pb has no rows anywhere


def test_explicit_span_rows_outside_are_excluded_not_dropped_silently(tmp_path):
    patients = "pa,40,10,2021-01-04,2021-01-31\n"
    sensors = "pa,2021-01-04,3,call_duration,1\npa,2021-02-10,3,call_duration,1\n"
    ema = "pa,2021-02-10,0,0,0,0,0,0,0,0,0,0\n"
    paths = write_fixture(
        tmp_path,
        sensors=sensors,
        ema=ema,
        patients=patients,
        patient_header="patient_id,age,education_years,observation_start,observation_end\n",
    )
    ds = load(paths)
    assert ds.sensors["pa"].shape == (28, 6, 24)  # the declared span, nothing beyond it
    assert ds.ema_records("pa") == {}
    reasons = {(e.file.split("/")[-1], e.line, e.reason) for e in ds.ingest_exclusions}
    assert ("sensors.csv", 3, "outside_observation_span") in reasons
    assert ("ema.csv", 2, "outside_observation_span") in reasons


def test_bad_demographics_reported_with_patients_line(tmp_path):
    paths = write_fixture(
        tmp_path,
        sensors="pa,2021-01-04,3,call_duration,1\npq,2021-01-04,3,call_duration,1\n",
        patients="pa,40,10\npq,17,10\n",
    )
    with pytest.raises(IngestError) as err:
        load(paths)
    assert err.value.file.endswith("patients.csv")
    assert err.value.line == 3


def test_write_dataset_roundtrip_is_lossless(tmp_path):
    patient = make_patient(pid="pa", n_days=5, relapse_days=(3,))
    sensors = np.full((5, 6, 24), np.nan)
    sensors[0, CALL, 3] = 1.125
    sensors[2, CALL] = 0.1
    ds = Dataset(
        patients=(patient,),
        sensors={"pa": sensors},
        ema={"pa": {day(1): EmaRecord("pa", day(1), (0, 1, 2, 3, 0, 1, 2, 3, 0, 1))}},
    )
    paths = write_dataset(ds, tmp_path / "out")
    again = load_dataset(paths["sensors"], paths["ema"], paths["patients"], paths["relapses"])

    assert again.patients == ds.patients
    np.testing.assert_array_equal(again.sensors["pa"], sensors)
    assert again.ema_records("pa") == ds.ema_records("pa")


def test_sensor_writer_formats_rows_as_csv_writer_does(tmp_path):
    # Ids that csv.writer must quote, and one patient without any sample.
    ids = ["p,1", 'p"2', "p\n3", "p4"]
    sensors = {pid: np.full((2, 6, 24), np.nan) for pid in ids}
    sensors["p,1"][0, CALL, 3] = 1.125
    sensors["p,1"][1, 0, 0] = 0.1
    sensors['p"2'][1, 5, 23] = 2.5e-8
    sensors["p\n3"][0, CALL, 3] = 7.0
    ds = Dataset(patients=tuple(make_patient(pid=pid, n_days=2) for pid in ids), sensors=sensors, ema={})
    paths = write_dataset(ds, tmp_path)

    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["patient_id", "date", "hour", "signal", "value"])
    for pid in sorted(ids):
        present = ~np.isnan(sensors[pid])
        for (d, si, hour), value in zip(np.argwhere(present).tolist(), sensors[pid][present].tolist()):
            writer.writerow([pid, day(d).isoformat(), hour, SIGNALS[si].value, repr(value)])
    assert paths["sensors"].read_bytes() == expected.getvalue().encode("utf-8")
    again = load_dataset(paths["sensors"], paths["ema"], paths["patients"], paths["relapses"])
    for pid in ids:
        np.testing.assert_array_equal(again.sensors[pid], sensors[pid])


def make_report(rows) -> EvalReport:
    return EvalReport(
        experiment="evaluate",
        arm="nb",
        classifier="nb",
        rows=rows,
        tp=1,
        fp=0,
        fn=0,
        tn=len(rows) - 1 if rows else 0,
        precision=1.0,
        recall=1.0,
        f2=1.0,
        folds=[],
        config={"seed": 7},
        seed=7,
    )


def prediction_rows(n: int) -> list[PredictionRow]:
    config = WindowingConfig()
    return [
        PredictionRow(
            spec=window_at("pa", day(7 * i), (), config), label=i == 0, predicted=0, score=0.25
        )
        for i in range(n)
    ]


def test_write_predictions_empty_report_is_header_only(tmp_path):
    path = tmp_path / "pred.csv"
    write_predictions(make_report([]), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("patient_id,window_start,")


def test_write_predictions_row_count_and_determinism(tmp_path):
    report = make_report(prediction_rows(3))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_predictions(report, a)
    write_predictions(report, b)
    assert len(a.read_text().splitlines()) == 4
    assert a.read_bytes() == b.read_bytes()


def test_write_metrics_determinism(tmp_path):
    report = make_report(prediction_rows(2))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_metrics(report, a)
    write_metrics(report, b)
    assert a.read_bytes() == b.read_bytes()
    write_metrics([report, report], tmp_path / "list.json")
    assert (tmp_path / "list.json").read_text().lstrip().startswith("[")
