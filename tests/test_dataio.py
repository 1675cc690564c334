from __future__ import annotations

import csv
import io
import shutil
import tracemalloc
from datetime import date as Date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import day, make_patient, no_answers
from relapsekit import features, ingest
from relapsekit.dataio import (
    Dataset,
    write_dataset,
    write_metrics,
    write_predictions,
)
from relapsekit.cli import main
from relapsekit.evaluate import EvalReport
from relapsekit.features import extract_cohort
from relapsekit.ingest import IngestError, load_dataset
from relapsekit.model import SIGNALS, Signal
from relapsekit.synth import SynthConfig, generate
from relapsekit.templates import HOURS_PER_DAY
from relapsekit.windowing import WindowingConfig, WindowSpec, window_at

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
    pa = ds.patients[0]
    assert pa.observation_start == Date(2021, 1, 4)
    assert pa.observation_end == Date(2021, 1, 13)  # inferred from data
    values = ds.sensors["pa"][0, CALL]
    assert ds.sensors["pa"].shape == (10, 6, 24)
    assert values[8] == 1.5 and values[9] == 1.5 and np.isnan(values[0])
    # One row per day of the span, -1 on the nine days without a record.
    assert ds.ema["pa"].dtype == np.int8 and ds.ema["pa"].shape == (10, 10)
    assert ds.ema["pa"][1].tolist() == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]
    assert (np.delete(ds.ema["pa"], 1, axis=0) == -1).all()
    assert ds.ema["pb"].shape == (10, 10) and (ds.ema["pb"] == -1).all()


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


@pytest.mark.parametrize(
    "name, header, message",
    [
        (
            "patients",
            "patient_id,age,years\n",
            "patient_id,age,education_years with optional observation_start,observation_end",
        ),
        ("ema", EMA_HEADER.replace("item_10", "item_11"), EMA_HEADER.rstrip("\n")),
        ("relapses", "patient_id,date\n", "patient_id,relapse_date"),
    ],
)
def test_malformed_small_file_header_names_line_1(tmp_path, name, header, message):
    paths = write_fixture(tmp_path)
    paths[name].write_text(header)
    with pytest.raises(IngestError) as err:
        load(paths)
    assert str(err.value) == f"{paths[name]}:1: malformed header: expected {message}"


@pytest.mark.parametrize(
    "name, rows, line, message",
    [
        ("patients", "pa,40,10\n\npb,55\n", 4, "expected 3 fields, got 2"),
        ("patients", "pa,40,10\n\n\npa,55,8\n", 5, "duplicate patient_id pa"),
        ("ema", "pa,2021-01-04" + ",0" * 10 + "\n\npa,2021-01-05,0\n", 4, "expected 12 fields, got 3"),
        ("ema", "\n\npx,2021-01-04" + ",0" * 10 + "\n", 4, "unknown patient_id px"),
        ("relapses", "pa,2021-01-04\n\npa\n", 4, "expected 2 fields, got 1"),
        ("relapses", "pa,2021-01-04\n \n", 3, "expected 2 fields, got 1"),
        ("relapses", "\npa,2021-02-30\n", 3, "invalid relapse_date '2021-02-30'"),
    ],
)
def test_small_file_row_errors_count_blank_rows_in_the_line(tmp_path, name, rows, line, message):
    # A blank row is skipped but keeps its line; a row of spaces is not blank.
    paths = write_fixture(tmp_path, **{name: rows})
    with pytest.raises(IngestError) as err:
        load(paths)
    assert str(err.value) == f"{paths[name]}:{line}: {message}"


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


def test_inferred_span_reaches_ema_dates_beyond_the_sensor_rows(tmp_path):
    # pa's EMA answers come two days before its first sensor row and three
    # days after its last: those days are in the span, with no samples.
    sensors = "pa,2021-01-06,3,call_duration,1.5\npa,2021-01-08,3,call_duration,2.5\n"
    ema = "pa,2021-01-04,0,0,0,0,0,0,0,0,0,0\npa,2021-01-11,0,0,0,0,0,0,0,0,0,0\n"
    ds = load(write_fixture(tmp_path, sensors=sensors, ema=ema, patients="pa,40,10\n"))
    (pa,) = ds.patients
    assert (pa.observation_start, pa.observation_end) == (Date(2021, 1, 4), Date(2021, 1, 11))
    cube = ds.sensors["pa"]
    assert cube.shape == (8, 6, 24)
    assert np.isnan(cube[[0, 1, 3, 5, 6, 7]]).all()
    assert cube[2, CALL, 3] == 1.5 and cube[4, CALL, 3] == 2.5
    assert np.isnan(cube[[2, 4]]).sum() == 2 * 6 * 24 - 2
    assert ds.ema["pa"].shape == (8, 10)
    assert (ds.ema["pa"][[0, 7]] == 0).all() and (ds.ema["pa"][1:7] == -1).all()


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
    assert ds.ema["pa"].shape == (28, 10) and (ds.ema["pa"] == -1).all()
    reasons = {(e.file.split("/")[-1], e.line, e.reason) for e in ds.ingest_exclusions}
    assert ("sensors.csv", 3, "outside_observation_span") in reasons
    assert ("ema.csv", 2, "outside_observation_span") in reasons


def test_ema_features_do_not_depend_on_ema_csv_row_order(tmp_path, capsys):
    # Answers are laid out by date, so shuffled ema.csv rows give the same
    # arrays and the same feature bytes, std sums included.
    cohort, shuffled = tmp_path / "cohort", tmp_path / "shuffled"
    synth = ["synth", "--patients", "40", "--days", "84", "--missing-rate", "0.85", "--seed", "7"]
    assert main([*synth, "--out", str(cohort)]) == 0
    shutil.copytree(cohort, shuffled)
    header, *rows = (cohort / "ema.csv").read_text().splitlines(keepends=True)
    order = np.random.default_rng(7).permutation(len(rows))
    (shuffled / "ema.csv").write_text(header + "".join(rows[i] for i in order))

    files = ("sensors", "ema", "patients", "relapses")
    a, b = (load_dataset(*(root / f"{name}.csv" for name in files)) for root in (cohort, shuffled))
    assert a.ema.keys() == b.ema.keys()
    for pid in a.ema:
        np.testing.assert_array_equal(a.ema[pid], b.ema[pid])
    for root in (cohort, shuffled):
        outputs = ["--out", str(root / "features.csv"), "--exclusions", str(root / "exclusions.csv")]
        assert main(["features", "--data", str(root), *outputs]) == 0
    assert (cohort / "features.csv").read_bytes() == (shuffled / "features.csv").read_bytes()


def test_load_dataset_peak_memory_stays_near_the_arrays_it_returns(tmp_path):
    # With declared spans ingest holds each patient's sums, which become its
    # means, and uint8 counts of an eighth of their bytes; the blocks in flight
    # add a little (1.44x in all). int16 counts would take the peak past 1.5x,
    # and int32 ones to 1.81x.
    generate(SynthConfig(patient_count=10, days_per_patient=180, seed=7), out_dir=tmp_path)
    paths = {name: tmp_path / f"{name}.csv" for name in ("sensors", "ema", "patients", "relapses")}
    tracemalloc.start()
    try:
        ds = load(paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(cube.nbytes for cube in ds.sensors.values())
    assert peak < 1.5 * held, f"peak {peak / held:.2f}x the returned arrays"


def cr_only_copy(lf, cr) -> None:
    """A copy of the cohort at `lf` whose every "\\n" is a bare "\\r"."""
    shutil.copytree(lf, cr)
    for path in cr.glob("*.csv"):
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))


def quoted_copy(lf, quoted) -> None:
    """A copy of the cohort at `lf` whose sensors.csv quotes every field,
    the header's too, so that every block takes `csv.reader`'s rows."""
    shutil.copytree(lf, quoted)
    lines = (lf / "sensors.csv").read_text().splitlines()
    (quoted / "sensors.csv").write_text("".join(",".join(f'"{f}"' for f in line.split(",")) + "\n" for line in lines))


@pytest.mark.parametrize("copy", [cr_only_copy, quoted_copy], ids=["cr", "quoted"])
@pytest.mark.parametrize("block_bytes", [64, 1 << 17])
@pytest.mark.parametrize("bad", [False, True])
def test_a_cr_only_cohort_loads_as_its_lf_copy(tmp_path, copy, block_bytes, bad):
    # Two rows outside p1's declared span, then (if `bad`) an hour 24, so the
    # exclusions and the error carry line numbers from the middle of the file.
    lf = tmp_path / "lf"
    generate(SynthConfig(patient_count=2, days_per_patient=12, seed=5), out_dir=lf)
    lines = (lf / "sensors.csv").read_text().splitlines(keepends=True)
    odd = ["p1,2020-12-31,3,light_level,1.5\n", "p1,2021-01-16,4,light_level,2.5\n"]
    odd += ["p2,2021-01-05,24,light_level,1\n"] if bad else []
    (lf / "sensors.csv").write_text("".join(lines[:1000] + odd + lines[1000:]))
    copy(lf, tmp_path / "copy")
    outcomes = []
    with mock.patch.object(ingest, "SENSOR_BLOCK_BYTES", block_bytes):
        for root in (lf, tmp_path / "copy"):
            try:
                ds = load({name: root / f"{name}.csv" for name in ("sensors", "ema", "patients", "relapses")})
            except IngestError as exc:
                outcomes.append((Path(exc.file).name, exc.line, exc.reason))
            else:
                outcomes.append((
                    ds.patients,
                    {pid: cube.tobytes() for pid, cube in ds.sensors.items()},
                    {pid: answers.tobytes() for pid, answers in ds.ema.items()},
                    [(Path(e.file).name, e.line, e.reason) for e in ds.ingest_exclusions],
                ))
    if bad:
        assert outcomes[0] == ("sensors.csv", 1003, "hour out of range: 24")
    else:
        assert [line for _, line, _ in outcomes[0][3]] == [1001, 1002]
    assert outcomes[1] == outcomes[0]


@pytest.mark.parametrize("block_bytes", [64, 1 << 17])
def test_an_undecodable_byte_in_a_cr_only_cohort_names_its_line(tmp_path, block_bytes):
    # A bare CR ends a line as "\n" does, so both copies name line 501.
    lf = tmp_path / "lf"
    generate(SynthConfig(patient_count=2, days_per_patient=12, seed=5), out_dir=lf)
    lines = (lf / "sensors.csv").read_bytes().splitlines(keepends=True)
    lines[500] = lines[500].replace(b",", b",\xff", 4)
    (lf / "sensors.csv").write_bytes(b"".join(lines))
    cr_only_copy(lf, tmp_path / "cr")
    with mock.patch.object(ingest, "SENSOR_BLOCK_BYTES", block_bytes):
        for root in (lf, tmp_path / "cr"):
            with pytest.raises(IngestError) as err:
                load({name: root / f"{name}.csv" for name in ("sensors", "ema", "patients", "relapses")})
            assert (Path(err.value.file).name, err.value.line, err.value.reason) == ("sensors.csv", 501, "invalid UTF-8")


def test_the_row_path_parses_each_distinct_sensor_date_once(tmp_path):
    # Every block of a quoted copy takes `csv.reader`'s rows; each row looks
    # its date up among those already parsed, as the C parser's blocks do.
    lf = tmp_path / "lf"
    generate(SynthConfig(patient_count=4, days_per_patient=60, seed=1), out_dir=lf)
    quoted_copy(lf, tmp_path / "quoted")
    rows = (lf / "sensors.csv").read_text().splitlines()[1:]
    parsed, parse_date = [], ingest._parse_date

    def counting(path, line, text, what="date"):
        if Path(path).name == "sensors.csv":
            parsed.append(text)
        return parse_date(path, line, text, what)

    with mock.patch.object(ingest, "_parse_date", counting):
        load({name: tmp_path / "quoted" / f"{name}.csv" for name in ("sensors", "ema", "patients", "relapses")})
    assert sorted(parsed) == sorted({row.split(",")[1] for row in rows})


def _quote_fields(text: bytes) -> bytes:
    return b"".join(b",".join(b'"%s"' % field for field in line.split(b",")) + b"\n" for line in text.splitlines())


@pytest.mark.parametrize(
    "encode", [lambda text: text.replace(b"\n", b"\r"), _quote_fields], ids=["cr_only", "quoted"]
)
def test_sensors_peak_memory_does_not_grow_with_the_file(tmp_path, encode):
    # A CR-only file (the C parser) and a quoted one (the row path) are read
    # a block at a time, like an LF one: four copies of the rows (the same
    # cells) peak where one does. Read as one line, or with every block's
    # rows held, the copies would take the peak up about fourfold.
    generate(SynthConfig(patient_count=2, days_per_patient=30, seed=5), out_dir=tmp_path)
    header, *rows = (tmp_path / "sensors.csv").read_bytes().splitlines(keepends=True)
    patients = ingest._read_patients(tmp_path / "patients.csv")
    peaks = []
    for copies in (1, 4):
        path = tmp_path / f"sensors{copies}.csv"
        path.write_bytes(encode(header + b"".join(rows) * copies))
        tracemalloc.start()
        try:
            ingest._read_sensors(path, patients, [])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0], f"peak {peaks[1] / peaks[0]:.2f}x with four copies of the rows"


def test_extraction_peak_memory_stays_near_the_table_it_returns():
    # Each block gathers one signal's days at a time, a `(days, starts, 24)`
    # stack of at most BLOCK_STARTS starts; the block's template stacks and
    # the reductions' work take about two more. Gathering all of this
    # cohort's 350 starts at once would take the peak past 14 stacks.
    cohort = generate(SynthConfig(patient_count=20, days_per_patient=180, seed=7))
    config = WindowingConfig()
    tracemalloc.start()
    try:
        table, candidates = extract_cohort(cohort, config)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack = config.window_days * features.BLOCK_STARTS * HOURS_PER_DAY * 8
    assert len(table) > 2 * features.BLOCK_STARTS  # three blocks at least
    assert peak - held < 4 * stack, f"peak {(peak - held) / stack:.2f} gathered stacks above what is returned"


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
    answers = no_answers(5)
    answers[1] = (0, 1, 2, 3, 0, 1, 2, 3, 0, 1)
    ds = Dataset(patients=(patient,), sensors={"pa": sensors}, ema={"pa": answers})
    paths = write_dataset(ds, tmp_path / "out")
    again = load_dataset(paths["sensors"], paths["ema"], paths["patients"], paths["relapses"])

    assert again.patients == ds.patients
    np.testing.assert_array_equal(again.sensors["pa"], sensors)
    np.testing.assert_array_equal(again.ema["pa"], answers)
    assert again.ema["pa"].dtype == np.int8


def test_sensor_writer_formats_rows_as_csv_writer_does(tmp_path):
    # Ids that csv.writer must quote, and one patient without any sample.
    ids = ["p,1", 'p"2', "p\n3", "p4"]
    sensors = {pid: np.full((2, 6, 24), np.nan) for pid in ids}
    sensors["p,1"][0, CALL, 3] = 1.125
    sensors["p,1"][1, 0, 0] = 0.1
    sensors['p"2'][1, 5, 23] = 2.5e-8
    sensors["p\n3"][0, CALL, 3] = 7.0
    patients = tuple(make_patient(pid=pid, n_days=2) for pid in ids)
    ds = Dataset(patients=patients, sensors=sensors, ema={pid: no_answers(2) for pid in ids})
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


def test_ema_writer_formats_rows_as_csv_writer_does(tmp_path):
    # Ids that csv.writer must quote, or that hold a NUL, days without
    # answers, and a patient without any; every answer 0..3 appears.
    ids = ["p,1", 'p"2', "p\r3", "p4", "", "p\x005"]
    ema = {pid: no_answers(3) for pid in ids}
    ema["p,1"][0] = (0, 1, 2, 3, 0, 1, 2, 3, 0, 1)
    ema["p,1"][2] = 3
    ema['p"2'][1] = (3, 2, 1, 0, 3, 2, 1, 0, 3, 2)
    ema[""][2] = 0
    ema["p\x005"][0] = 1
    patients = tuple(make_patient(pid=pid, n_days=3) for pid in ids)
    sensors = {pid: np.full((3, 6, 24), np.nan) for pid in ids}
    paths = write_dataset(Dataset(patients=patients, sensors=sensors, ema=ema), tmp_path)

    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["patient_id", "date", *(f"item_{i}" for i in range(1, 11))])
    for pid in sorted(ids):
        for d in range(3):
            if ema[pid][d, 0] >= 0:
                writer.writerow([pid, day(d).isoformat(), *ema[pid][d].tolist()])
    assert paths["ema"].read_bytes() == expected.getvalue().encode("utf-8")


def make_report(specs: tuple[WindowSpec, ...]) -> EvalReport:
    return EvalReport(
        experiment="evaluate",
        arm="nb",
        classifier="nb",
        specs=specs,
        predicted=np.zeros(len(specs), dtype=np.int64),
        scores=np.full(len(specs), 0.25),
        tp=1,
        fp=0,
        fn=0,
        tn=len(specs) - 1 if specs else 0,
        precision=1.0,
        recall=1.0,
        f2=1.0,
        folds=[],
        config={"seed": 7},
        seed=7,
    )


def prediction_rows(n: int) -> tuple[WindowSpec, ...]:
    config = WindowingConfig()
    return tuple(window_at("pa", day(7 * i), (), config) for i in range(n))


def test_write_predictions_empty_report_is_header_only(tmp_path):
    path = tmp_path / "pred.csv"
    write_predictions(make_report(()), path)
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
