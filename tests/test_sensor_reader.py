"""The block reader of sensors.csv against the row-by-row reader it replaced.

`oracle_read_sensors` is that reader, kept as the reference: one
`csv.reader` row at a time, one `+=` per row. With the block size cut to
64 bytes, a (patient, date, signal, hour) cell's rows fall in different
blocks, and every sum and count in the block reader's per-patient arrays,
every exclusion and every error message must still be the oracle's.
"""

from __future__ import annotations

import csv
import math
from datetime import date as Date
from datetime import timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relapsekit import dataio
from relapsekit.dataio import (
    EXCLUDED_OUTSIDE_SPAN,
    IngestError,
    IngestExclusion,
    _check_header,
    _open_rows,
    _outside_span,
    _parse_date,
    _RawPatient,
)
from relapsekit.model import SIGNALS
from relapsekit.templates import HOURS_PER_DAY

HEADER = "patient_id,date,hour,signal,value"
FIRST_DAY = Date(2021, 1, 2)
# "pa" declares 2021-01-04..2021-01-08, so rows drawn from 2021-01-02..10
# fall on both sides of it; "pb" and "p,c" have spans inferred from data.
PATIENTS = {
    "pa": _RawPatient(40, 10, (Date(2021, 1, 4), Date(2021, 1, 8)), 2),
    "pb": _RawPatient(50, 12, None, 3),
    "p,c": _RawPatient(60, 8, None, 4),
}


def oracle_read_sensors(
    path: Path, patients: dict[str, _RawPatient], exclusions: list[IngestExclusion]
) -> dict[str, dict[Date, np.ndarray]]:
    """Per patient and date, a `(2, 6, 24)` array of hourly sums and counts."""
    days: dict[str, dict[Date, np.ndarray]] = {}
    signal_index = {s.value: i for i, s in enumerate(SIGNALS)}

    for line_no, row in _open_rows(path):
        if line_no == 1:
            _check_header(path, row, dataio._SENSOR_HEADER)
            continue
        if not row:
            continue
        if len(row) != 5:
            raise IngestError(str(path), line_no, f"expected 5 fields, got {len(row)}")
        pid, date_text, hour_text, signal_text, value_text = row
        if pid not in patients:
            raise IngestError(str(path), line_no, f"unknown patient_id {pid}")
        date = _parse_date(path, line_no, date_text)
        try:
            hour = int(hour_text)
        except ValueError as exc:
            raise IngestError(str(path), line_no, f"non-integer hour {hour_text!r}") from exc
        if not 0 <= hour <= HOURS_PER_DAY - 1:
            raise IngestError(str(path), line_no, f"hour out of range: {hour}")
        if signal_text not in signal_index:
            raise IngestError(str(path), line_no, f"unknown signal name {signal_text!r}")
        try:
            value = float(value_text)
        except ValueError as exc:
            raise IngestError(str(path), line_no, f"non-numeric value {value_text!r}") from exc
        if not math.isfinite(value) or value < 0:
            raise IngestError(str(path), line_no, f"value must be finite and >= 0, got {value_text}")
        if _outside_span(patients[pid], date):
            exclusions.append(IngestExclusion(str(path), line_no, EXCLUDED_OUTSIDE_SPAN))
            continue

        by_date = days.setdefault(pid, {})
        acc = by_date.get(date)
        if acc is None:
            acc = by_date[date] = np.zeros((2, len(SIGNALS), HOURS_PER_DAY))
        si = signal_index[signal_text]
        acc[0, si, hour] += value
        acc[1, si, hour] += 1

    return days


def days_with_rows(sums: dataio._SensorSums) -> dict[str, dict[Date, np.ndarray]]:
    """The block reader's per-patient arrays in the oracle's form: per
    patient and date with rows, a `(2, 6, 24)` array of sums and counts.
    Every other day of the arrays must hold no sums and no counts."""
    days: dict[str, dict[Date, np.ndarray]] = {}
    for pid, first in sums.first.items():
        total, count = sums.sums[pid], sums.counts[pid]
        # Below 2**31 bytes no cell can reach 2**31 rows, so int32 counts are exact.
        count_dtype = np.int32 if sums.path.stat().st_size < 2**31 else np.int64
        assert total.dtype == np.float64 and count.dtype == count_dtype and total.shape == count.shape
        assert total.shape[1:] == (len(SIGNALS), HOURS_PER_DAY)
        has_rows = count.any(axis=(1, 2))
        assert not total[~has_rows].any() and not count[~has_rows].any()
        for d in np.flatnonzero(has_rows).tolist():
            days.setdefault(pid, {})[Date.fromordinal(first + d)] = np.stack([total[d], count[d]])
    return days


def read_both(path: Path, block_bytes: int = 64, patients: dict[str, _RawPatient] = PATIENTS) -> list[tuple]:
    """What the oracle and the block reader each return or raise."""
    outcomes = []
    with mock.patch.object(dataio, "SENSOR_BLOCK_BYTES", block_bytes):
        for reader in (oracle_read_sensors, lambda *args: days_with_rows(dataio._read_sensors(*args))):
            exclusions: list[IngestExclusion] = []
            try:
                days = reader(path, patients, exclusions)
            except (IngestError, csv.Error) as exc:
                outcomes.append(("raised", type(exc), str(exc)))
            else:
                sums = {pid: {d: acc.tolist() for d, acc in by_date.items()} for pid, by_date in days.items()}
                outcomes.append((sums, exclusions))
    return outcomes


# Values whose sums depend on the order they are added in.
VALUES = st.one_of(
    st.sampled_from([0.1, 0.2, 0.3, 1e16, 1.0, 2.5e-8, 0.0]),
    st.floats(0.0, 1e6, allow_subnormal=False),
)


@st.composite
def sensor_rows(draw, pids: list[str]) -> list[str]:
    """The five fields of one valid row, in the odd forms `Date.fromisoformat`,
    `int` and `float` also accept; few cells, so cells repeat."""
    pid = draw(st.sampled_from(pids))
    date = (FIRST_DAY + timedelta(days=draw(st.integers(0, 8)))).isoformat()
    hour = draw(st.integers(0, 3))
    value = draw(VALUES)
    return [
        pid,
        draw(st.sampled_from([date, date.replace("-", "")])),
        draw(st.sampled_from([str(hour), f" {hour}", f"0_{hour}"])),
        draw(st.sampled_from(["call_duration", "light_level"])),
        draw(st.sampled_from([repr(value), f" {value!r}", "1_0"])),
    ]


@st.composite
def sensor_files(draw) -> str:
    """A sensors.csv text. Some files quote a patient id that holds a comma,
    end lines in CRLF or lack the final newline; most have blank lines."""
    quoted = draw(st.booleans())
    pids = ["pa", "pb", "p,c"] if quoted else ["pa", "pb"]
    rows = draw(st.lists(sensor_rows(pids), max_size=60))
    for i in range(1, len(rows)):
        if draw(st.booleans()):  # the previous row's cell again, with its own value
            rows[i][:4] = rows[i - 1][:4]
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    lines = [HEADER] + [",".join(f'"{f}"' if "," in f else f for f in row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    text = newline.join(lines)
    if draw(st.booleans()):
        text += newline
    return text


def write(tmp_path_factory, text: str) -> Path:
    path = tmp_path_factory.mktemp("sensors") / "sensors.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


# With 64-byte blocks, 0.1 is read in one block and 0.2, 0.3 in the next:
# file order gives (0.1 + 0.2) + 0.3, summing the second block first gives
# 0.1 + (0.2 + 0.3), one ulp less.
SPLIT_CELL = HEADER + "".join(f"\npb,20210105,1,light_level,{v}" for v in ("0.1", "0.2", "0.3")) + "\n"
# pb's span is inferred. Its rows come latest date first, about two to a
# 64-byte block, so its arrays keep growing toward earlier dates.
DESCENDING = HEADER + "".join(f"\npb,2021-01-{d:02d},{h},light_level,{d * h / 3!r}" for d in range(10, 1, -1) for h in (0, 3)) + "\n"


@SETTINGS
@example(text=SPLIT_CELL)
@example(text=DESCENDING)
@given(text=sensor_files())
def test_block_reader_equals_row_by_row_reader(tmp_path_factory, text):
    oracle, blocks = read_both(write(tmp_path_factory, text))
    assert oracle[0] != "raised"
    assert blocks == oracle


# One invalid row of each kind the reader rejects, as (fields, message fragment).
BAD_ROWS = [
    (["pa", "2021-01-04", "24", "call_duration", "1"], "hour out of range"),
    (["pa", "2021-01-04", "3", "step_count", "1"], "unknown signal"),
    (["pa", "2021-01-04", "3", "call_duration", "-1"], "finite and >= 0"),
    (["pa", "2021-01-04", "3", "call_duration", "nan"], "finite and >= 0"),
    (["px", "2021-01-04", "3", "call_duration", "1"], "unknown patient_id"),
    (["pa", "2021-13-04", "3", "call_duration", "1"], "invalid date"),
    (["pa", "2021-01-04", "3.0", "call_duration", "1"], "non-integer hour"),
    (["pa", "2021-01-04", "3", "call_duration", "1,5"], "expected 5 fields"),
    (["pa", "2021-01-04", "3", "call_duration", "x"], "non-numeric value"),
]


@SETTINGS
@given(rows=st.lists(sensor_rows(["pa", "pb"]), min_size=1, max_size=40), data=st.data())
def test_one_bad_row_raises_the_row_by_row_message(tmp_path_factory, rows, data):
    at = data.draw(st.integers(0, len(rows) - 1))
    bad, fragment = data.draw(st.sampled_from(BAD_ROWS))
    rows[at] = bad
    text = "\n".join([HEADER] + [",".join(row) for row in rows]) + "\n"
    oracle, blocks = read_both(write(tmp_path_factory, text))
    assert oracle[0] == "raised" and fragment in oracle[2] and f"sensors.csv:{at + 2}:" in oracle[2]
    assert blocks == oracle


@pytest.mark.parametrize("text", ["", HEADER, HEADER + "\n", HEADER + "\n\n", "\n" + HEADER + "\n"])
def test_empty_and_header_only_files_read_as_row_by_row(tmp_path_factory, text):
    oracle, blocks = read_both(write(tmp_path_factory, text))
    assert blocks == oracle


def test_zero_byte_sensor_file_loads_with_no_rows(tmp_path):
    (tmp_path / "sensors.csv").write_bytes(b"")
    (tmp_path / "ema.csv").write_text("patient_id,date," + ",".join(f"item_{i}" for i in range(1, 11)) + "\n")
    (tmp_path / "patients.csv").write_text(
        "patient_id,age,education_years,observation_start,observation_end\npa,40,10,2021-01-04,2021-01-10\n"
    )
    (tmp_path / "relapses.csv").write_text("patient_id,relapse_date\n")
    ds = dataio.load_dataset(*(tmp_path / name for name in ("sensors.csv", "ema.csv", "patients.csv", "relapses.csv")))
    assert ds.sensors["pa"].shape == (7, 6, 24) and np.isnan(ds.sensors["pa"]).all()
    assert ds.ingest_exclusions == ()


def test_line_over_the_csv_field_limit_raises_as_row_by_row(tmp_path_factory):
    # csv.reader rejects a field longer than its limit; a field of exactly
    # the limit is read.
    limit = csv.field_size_limit()
    for width in (limit - 1, limit + 1):
        value = "0" * (width - 3) + "1.5"
        text = f"{HEADER}\npa,2021-01-04,3,call_duration,1\npb,2021-01-04,3,call_duration,{value}\n"
        oracle, blocks = read_both(write(tmp_path_factory, text), block_bytes=1 << 16)
        assert (oracle[0] == "raised") == (width > limit)
        assert blocks == oracle


# -- numpy's C parser ------------------------------------------------------------
#
# Blocks of plain lines are read by `np.loadtxt` into fixed-width `S` fields.
# Each form below parts from `str.split` with `float`/`int` somewhere: the C
# float parser rejects what `float()` accepts (underscores, non-ASCII digits
# and spaces), `S` fields cut long text short, and `loadtxt` skips blank
# lines. A block holding one must read exactly as the oracle reads it.

# "p01" declares 2021-01-04..2021-01-08; "p0123" is the longest id, so the
# patient_id field is 6 bytes wide; "pé" is 3 bytes of UTF-8.
FAST_PATIENTS = {
    "p01": _RawPatient(40, 10, (Date(2021, 1, 4), Date(2021, 1, 8)), 2),
    "p0123": _RawPatient(50, 12, None, 3),
    "pé": _RawPatient(60, 8, None, 4),
}
ODD_PIDS = [" p01 ", "p01 ", " p01", "p01#", "p01234", "p012345", "p012", "pé ", "é", "p0\x1c"]
ODD_DATES = ["2021-01-04 ", " 2021-01-04", "20210105", "2021-W01-1", "2021-01-04T00", "2021-01-04#", ""]
# "0007" would read as hour 0 if its field were cut to "000".
ODD_HOURS = [" 7 ", " 7", "07", "+7", "٧", "0_7", "7 ", "123", "0007", "", "#"]
ODD_SIGNALS = [
    "light_level ",
    " light_level",
    "conversation_duration",
    "conversation_durationX",
    "conversation_durationXY",
    "light_levé",
    "light_level#",
]
ODD_VALUES = [
    "1_0",
    "7_0",
    "٣",
    "1.5\xa0",
    "1#x",
    "#1",
    "Infinity",
    "inf",
    "1e999",
    "nan",
    " 1.5 ",
    "+1.5",
    ".5",
    "-0.0",
    "-1",
    "0x10",
    "1.5\x1c",
    "1.5\x0b",
    "1 5",
    "",
]
ODD_LINES = ["", " ", "#", "p01,2021-01-05,3,light_level", "p01,2021-01-05,3,light_level,1,2"]
# Characters the two float parsers treat differently, for values drawn at random.
VALUE_CHARS = "0123456789.eE+-_ #infatyINFATYx\t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u3000٣１"


@st.composite
def fast_rows(draw) -> str:
    """One line: a valid row, sometimes with one field in an odd form, or an odd line."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(ODD_LINES))
    row = [
        draw(st.sampled_from(sorted(FAST_PATIENTS))),
        (FIRST_DAY + timedelta(days=draw(st.integers(0, 8)))).isoformat(),
        str(draw(st.integers(0, 3))),
        draw(st.sampled_from(["call_duration", "light_level", "conversation_duration"])),
        repr(draw(VALUES)),
    ]
    if draw(st.integers(0, 3)) == 0:
        field = draw(st.integers(0, 4))
        row[field] = draw(st.sampled_from([ODD_PIDS, ODD_DATES, ODD_HOURS, ODD_SIGNALS, ODD_VALUES][field]))
    elif draw(st.integers(0, 7)) == 0:
        row[4] = draw(st.text(VALUE_CHARS, min_size=1, max_size=6))
    return ",".join(row)


@SETTINGS
@given(lines=st.lists(fast_rows(), min_size=1, max_size=40), block_bytes=st.sampled_from([64, 256, 1 << 16]))
def test_c_parser_blocks_read_as_row_by_row(tmp_path_factory, lines, block_bytes):
    text = "\n".join([HEADER, *lines]) + "\n"
    oracle, blocks = read_both(write(tmp_path_factory, text), block_bytes, FAST_PATIENTS)
    assert blocks == oracle


VALID = "p01,2021-01-05,3,light_level,1.5"


@pytest.mark.parametrize(
    "line",
    [VALID.replace("1.5", odd) for odd in ODD_VALUES]
    + [VALID.replace("p01", odd, 1) for odd in ODD_PIDS]
    + [VALID.replace("2021-01-05", odd) for odd in ODD_DATES]
    + [VALID.replace(",3,", f",{odd},") for odd in ODD_HOURS]
    + [VALID.replace("light_level", odd) for odd in ODD_SIGNALS]
    + [VALID.replace("p01", "pé")],
)
@pytest.mark.parametrize("alone", [True, False])
def test_each_odd_field_reads_as_row_by_row(tmp_path_factory, line, alone):
    # Alone, the row is a block of one; otherwise it sits inside a block of valid rows.
    lines = [line] if alone else [VALID, VALID, line, VALID]
    text = "\n".join([HEADER, *lines]) + "\n"
    oracle, blocks = read_both(write(tmp_path_factory, text), 1 << 16, FAST_PATIENTS)
    assert blocks == oracle


@pytest.mark.parametrize("blank", ["\n", "\n\n", "\n \n"])
@pytest.mark.parametrize("last", [VALID, VALID.replace(",3,", ",24,")])
def test_blank_lines_inside_a_block_keep_line_numbers(tmp_path_factory, blank, last):
    # The middle row is outside p01's span: its exclusion, and the last
    # row's error, carry line numbers past the blank lines.
    outside = VALID.replace("2021-01-05", "2021-01-09")
    text = f"{HEADER}\n{VALID}\n{blank}{outside}\n{blank}{last}\n"
    oracle, blocks = read_both(write(tmp_path_factory, text), 1 << 16, FAST_PATIENTS)
    assert oracle[0] == "raised" or oracle[1][0].line == 3 + blank.count("\n")
    assert blocks == oracle


def test_plain_blocks_take_the_c_parser(tmp_path):
    # The fast path must actually run on a plain file, and give the columns
    # the split lines give.
    # "pééé", the longest id, is 7 bytes of UTF-8 and fits its field.
    patients = {**FAST_PATIENTS, "pééé": _RawPatient(30, 9, None, 5)}
    (tmp_path / "sensors.csv").touch()  # its size picks the counts dtype
    sums = dataio._SensorSums(tmp_path / "sensors.csv", patients)
    block = "".join(f"{pid},2021-01-0{d},{h},call_duration,{d * h / 7!r}\n" for pid in patients for d in (4, 5) for h in (0, 23))
    fast = sums._parse(block.encode("utf-8"))
    assert fast is not None and [c.dtype.kind for c in fast] == ["S", "S", "S", "S", "f"]
    text = dataio._text_columns(dataio._split_lines(block.encode("utf-8")))
    for got, want in zip(fast[:4], text[:4]):
        assert [b.decode("utf-8") for b in got.tolist()] == want.tolist()
    assert fast[4].tobytes() == text[4].tobytes()


def test_declared_spans_share_one_buffer_per_array_allocated_once(tmp_path):
    # Every patient declares a span: their sums are disjoint views of one
    # buffer and their counts of another, both allocated before the first
    # row and never regrown.
    patients = {pid: _RawPatient(40, 10, (Date(2021, 1, 4), Date(2021, 1, 4 + i)), 2 + i) for i, pid in enumerate(["pa", "pb"])}
    (tmp_path / "sensors.csv").touch()  # its size picks the counts dtype
    sums = dataio._SensorSums(tmp_path / "sensors.csv", patients)
    held = {pid: (sums.sums[pid], sums.counts[pid]) for pid in patients}
    for arrays in (sums.sums, sums.counts):
        assert len({id(array.base) for array in arrays.values()}) == 1
        assert arrays["pa"].base.shape == (1 + 2, len(SIGNALS), HOURS_PER_DAY)
        assert not np.shares_memory(arrays["pa"], arrays["pb"])
    block = "".join(f"{pid},2021-01-0{d},3,light_level,1\n" for pid in patients for d in (4, 5, 9))
    exclusions: list[IngestExclusion] = []
    assert sums.add(block.encode("utf-8"), 2, exclusions) == 8
    assert all(sums.sums[pid] is s and sums.counts[pid] is c for pid, (s, c) in held.items())
    assert [e.line for e in exclusions] == [3, 4, 7]
    light = dataio._SIGNAL_INDEX["light_level"]
    assert sums.counts["pa"].sum() == 1 and sums.counts["pb"][:, light, 3].tolist() == [1, 1]


def test_inferred_span_grows_toward_earlier_dates_at_least_doubling(tmp_path):
    # One row per block, latest date first: the arrays keep their last day
    # and grow only toward earlier dates, each time to at least twice their
    # length, so 40 days take 7 allocations.
    (tmp_path / "sensors.csv").touch()  # its size picks the counts dtype
    sums = dataio._SensorSums(tmp_path / "sensors.csv", {"pb": _RawPatient(50, 12, None, 2)})
    last = Date(2021, 2, 10)
    held = []
    for d in range(40):
        row = f"pb,{(last - timedelta(days=d)).isoformat()},3,light_level,{d}\n"
        sums.add(row.encode("utf-8"), 2 + d, [])
        assert sums.first["pb"] + len(sums.sums["pb"]) - 1 == last.toordinal()
        if not held or len(sums.sums["pb"]) != held[-1]:
            held.append(len(sums.sums["pb"]))
    assert held == [1, 2, 4, 8, 16, 32, 64]
    light = dataio._SIGNAL_INDEX["light_level"]
    assert sums.sums["pb"][-40:, light, 3].tolist() == list(range(39, -1, -1))
    assert sums.counts["pb"].sum() == 40


@pytest.mark.parametrize("size, dtype", [(0, np.int32), (2**31 - 1, np.int32), (2**31, np.int64)])
def test_counts_dtype_follows_the_file_size(tmp_path, size, dtype):
    # A row takes at least one byte, so below 2**31 bytes no cell reaches
    # 2**31 rows. The file is sparse: sizing it reads and writes nothing.
    path = tmp_path / "sensors.csv"
    with path.open("wb") as handle:
        handle.truncate(size)
    sums = dataio._SensorSums(path, {"pb": _RawPatient(50, 12, (Date(2021, 1, 4), Date(2021, 1, 5)), 2)})
    assert sums.counts["pb"].dtype == dtype
    sums.add(b"pb,2021-01-05,3,light_level,2.5\n", 2, [])
    light = dataio._SIGNAL_INDEX["light_level"]
    assert sums.counts["pb"].dtype == dtype and sums.means("pb", Date(2021, 1, 5), Date(2021, 1, 5))[0, light, 3] == 2.5
