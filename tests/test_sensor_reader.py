"""The block reader of sensors.csv against the row-by-row reader it replaced.

`oracle_read_sensors` is that reader, kept as the reference: one
`csv.reader` row at a time, one `+=` per row. With the block size cut to
64 bytes, a (patient, date, signal, hour) cell's rows fall in different
blocks, and every sum and count in the block reader's per-patient arrays,
every exclusion and every error message must still be the oracle's.
"""

from __future__ import annotations

import csv
import io
import math
from datetime import date as Date
from datetime import timedelta
from pathlib import Path
from typing import Iterator
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


def read_rows(path: Path) -> Iterator[tuple[int, list[str]]]:
    """Each row of a file as `csv.reader` reads it opened with `newline=""`,
    numbered from 1, read a block at a time by `_CsvReader`."""
    reader = dataio._CsvReader(path)
    for block in reader:
        yield from enumerate(reader.rows(block, reader.next_row), start=reader.next_row)


def oracle_read_sensors(
    path: Path, patients: dict[str, _RawPatient], exclusions: list[IngestExclusion]
) -> dict[str, dict[Date, np.ndarray]]:
    """Per patient and date, a `(2, 6, 24)` array of hourly sums and counts."""
    days: dict[str, dict[Date, np.ndarray]] = {}
    signal_index = {s.value: i for i, s in enumerate(SIGNALS)}

    for line_no, row in read_rows(path):
        if line_no == 1:
            if row != dataio._SENSOR_HEADER:
                raise IngestError(str(path), 1, f"malformed header: expected {','.join(dataio._SENSOR_HEADER)}")
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
        # Counts are uint8 until a block could take a cell past 255, which
        # takes more than 255 of the patient's rows; then int64.
        assert count.dtype == np.uint8 or (count.dtype == np.int64 and count.sum() > 255)
        assert total.dtype == np.float64 and total.shape == count.shape
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


@pytest.mark.parametrize("end", ["", "\n"])
def test_header_only_files_load_with_no_rows(tmp_path, end):
    (tmp_path / "sensors.csv").write_text(HEADER + end)
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


def test_bad_row_before_a_line_over_the_csv_field_limit_raises_first(tmp_path_factory):
    # Both rows fall in one block of csv rows; the bad hour on line 2 comes first.
    value = "0" * csv.field_size_limit() + "1.5"
    text = f"{HEADER}\npa,2021-01-04,24,call_duration,1\npb,2021-01-04,3,call_duration,{value}\n"
    path = write(tmp_path_factory, text)
    oracle, blocks = read_both(path, block_bytes=1 << 16)
    assert oracle == ("raised", IngestError, f"{path}:2: hour out of range: 24")
    assert blocks == oracle


# -- `read_rows` against `csv.reader` over the whole file -------------------------
#
# The oracle reads through `read_rows`, which reads a block at a time, so
# `read_rows` is checked here on its own, against `csv.reader` over the file.


def csv_reader_rows(path: Path) -> tuple[list[list[str]], tuple[int, str] | None]:
    """The rows `csv.reader` gives, and the row and message of its error."""
    rows: list[list[str]] = []
    with path.open(newline="", encoding="utf-8") as handle:
        try:
            for row in csv.reader(handle):
                rows.append(row)
        except csv.Error as exc:
            return rows, (len(rows) + 1, str(exc))
    return rows, None


def open_rows(path: Path) -> tuple[list[list[str]], tuple[int, str] | None]:
    """The rows `read_rows` gives, and the line and reason of its error."""
    rows: list[list[str]] = []
    try:
        for line_no, row in read_rows(path):
            assert line_no == len(rows) + 1
            rows.append(row)
    except IngestError as exc:
        return rows, (exc.line, exc.reason)
    return rows, None


LIMIT = csv.field_size_limit()
CSV_TEXTS = [
    'a,"b\nc",d\ne,f\n',  # a quoted field holding "\n"
    'a,"b\r\nc",d\r\ne,f\r\n',  # ... and "\r\n"
    'a,"b\n\n\nc\n"\n"d\ne"',  # several lines, and no final newline
    'a,"b\nc',  # a quote left open at the end
    "a,b\rc,d\ne\n",  # a bare CR in the middle of a line
    "a,b\nc,d\r",  # ... and at the end
    "a\r\rb\r\n\rc\n",
    "a,\0b\nc\0\n",  # NUL
    "a,b\r\nc,d\r\ne\r\n",  # CRLF
    "a\n\n\nb\n\r\n\n",  # blank lines
    *(f"a,b\nc,{'x' * width}\nd\n" for width in (LIMIT - 1, LIMIT, LIMIT + 1)),
    f'a\n"{"x" * LIMIT}\n"\nb\n',  # a quoted field over the limit across lines
]


@pytest.mark.parametrize("text", CSV_TEXTS, ids=range(len(CSV_TEXTS)))
@pytest.mark.parametrize("block_bytes", [1, 5, 64, 1 << 17])
def test_open_rows_reads_as_csv_reader_over_the_file(tmp_path, text, block_bytes):
    path = tmp_path / "rows.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(dataio, "SENSOR_BLOCK_BYTES", block_bytes):
        assert open_rows(path) == csv_reader_rows(path)


# A quoted patient id that holds a newline, and a bare CR, which `csv.reader`
# takes as a line end, on each side of a 64-byte block's cut: each row starts
# one byte later than in the file before, over more than 64 bytes.
CUT_PATIENTS = {**PATIENTS, "p\nd": _RawPatient(70, 9, None, 5), "p\r\ne": _RawPatient(70, 9, None, 6)}


@pytest.mark.parametrize("block_bytes", [64, 1 << 16])
@pytest.mark.parametrize("pid", ["p\nd", "p\r\ne"])
def test_rows_across_a_block_cut_read_as_row_by_row(tmp_path_factory, block_bytes, pid):
    for shift in range(80):
        rows = [
            f"pa,2021-01-05,1,light_level,{'0' * shift}1.5",
            f'"{pid}",2021-01-05,2,light_level,2.5',
            "pb,2021-01-06,3,light_level,0.1\rpb,2021-01-06,3,light_level,0.2",
            f'"{pid}",2021-01-07,2,light_level,3.5\r',
        ]
        path = write(tmp_path_factory, "\n".join([HEADER, *rows, "pb,2021-01-06,3,light_level,0.3\r"]))
        oracle = read_both(path, 1 << 20, CUT_PATIENTS)[0]
        assert oracle[0] != "raised"
        assert read_both(path, block_bytes, CUT_PATIENTS)[1] == oracle


@pytest.mark.parametrize("block_bytes", [64, 1 << 16])
@pytest.mark.parametrize(
    "last, message",
    [
        (b"pb,2021-01-06,3,light_level,\xff1", "{line}: invalid UTF-8"),
        # A bare CR ends the bad row before the byte's line does.
        (b"pb,2021-01-06,24,light_level,1\rpb,2021-01-06,3,light_level,\xff1", "{row}: hour out of range: 24"),
    ],
)
def test_an_undecodable_byte_names_its_line_counted_at_newlines(tmp_path, block_bytes, last, message):
    # Quoted newlines in the blocks before it leave six more lines than csv
    # rows. A bare CR ends a line, as it ends a row.
    rows = [f'"p\nd",2021-01-05,{h},light_level,1' for h in range(6)] + ["pb,2021-01-06,1,light_level,1\rpb,2021-01-06,2,light_level,1"] * 2
    data = "\n".join([HEADER, *rows, ""]).encode("utf-8") + last + b"\n"
    path = tmp_path / "sensors.csv"
    path.write_bytes(data)
    first = data[: -len(last) - 1]  # the lines before `last`'s
    line = first.count(b"\n") + first.count(b"\r") + 1
    assert line == 2 + 6 + 2 * 2 + 6
    expected = message.format(line=line, row=2 + 6 + 2 * 2)
    oracle, blocks = read_both(path, block_bytes, CUT_PATIENTS)
    assert oracle == ("raised", IngestError, f"{path}:{expected}")
    assert blocks == oracle


@pytest.mark.parametrize("end", ["\r\r\n", "\r\n\r\n", "\r"])
def test_a_cr_ends_a_row_that_counts_for_line_numbers(tmp_path_factory, end):
    # csv reads the line a second CR or CRLF ends as a blank row, so the
    # excluded row after it is on line 4; a lone CR only ends its row.
    outside = VALID.replace("2021-01-05", "2021-01-09")
    path = write(tmp_path_factory, f"{HEADER}\n{VALID}{end}{outside}\n")
    oracle, blocks = read_both(path, 1 << 16, FAST_PATIENTS)
    assert [e.line for e in oracle[1]] == [3 if end == "\r" else 4]
    assert blocks == oracle


def test_a_header_that_reads_as_a_data_row_is_malformed(tmp_path_factory):
    row = "pa,2021-01-04,3,call_duration,1"
    path = write(tmp_path_factory, f"{row}\n{row}\n")
    oracle, blocks = read_both(path, 1 << 16)
    assert oracle == ("raised", IngestError, f"{path}:1: malformed header: expected {HEADER}")
    assert blocks == oracle


@pytest.mark.parametrize("value", [b"1.5\x85", b"\xa01.5", b"1.5\xa0"])
def test_a_lone_byte_that_loadtxt_strips_is_invalid_utf8(tmp_path, value):
    # loadtxt reads latin1 and strips 0x85 and 0xA0 around a number, but
    # neither byte is UTF-8 on its own. The row comes after 8 KiB of valid ones.
    rows = [VALID] * 300 + [VALID.replace("1.5", value.decode("latin1"))]
    path = tmp_path / "sensors.csv"
    path.write_bytes("\n".join([HEADER, *rows, ""]).encode("latin1"))
    oracle, blocks = read_both(path, 1 << 16, FAST_PATIENTS)
    assert oracle == ("raised", IngestError, f"{path}:{len(rows) + 1}: invalid UTF-8")
    assert blocks == oracle


# -- numpy's C parser ------------------------------------------------------------
#
# Blocks of plain lines are read by `np.loadtxt` into fixed-width `S` fields.
# Each form below parts from `csv.reader` with `float`/`int` somewhere: the C
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


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@SETTINGS
@given(lines=st.lists(fast_rows(), min_size=1, max_size=40), block_bytes=st.sampled_from([64, 256, 1 << 16]))
def test_c_parser_blocks_read_as_row_by_row(tmp_path_factory, newline, lines, block_bytes):
    text = newline.join([HEADER, *lines]) + newline
    oracle, blocks = read_both(write(tmp_path_factory, text), block_bytes, FAST_PATIENTS)
    assert blocks == oracle


VALID = "p01,2021-01-05,3,light_level,1.5"
OUTSIDE = VALID.replace("2021-01-05", "2021-01-09")  # of p01's span


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


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_plain_blocks_take_the_c_parser(tmp_path, newline):
    # The fast path must actually run on a plain file, LF or CRLF, and give
    # the columns the block's `csv.reader` rows give.
    # "pééé", the longest id, is 7 bytes of UTF-8 and fits its field.
    patients = {**FAST_PATIENTS, "pééé": _RawPatient(30, 9, None, 5)}
    sums = dataio._SensorSums(tmp_path / "sensors.csv", patients)
    block = "".join(f"{pid},2021-01-0{d},{h},call_duration,{d * h / 7!r}{newline}" for pid in patients for d in (4, 5) for h in (0, 23))
    fast = sums._parse(block.encode("utf-8"))
    assert fast is not None and [c.dtype.kind for c in fast] == ["S", "S", "S", "S", "f"]
    rows = list(csv.reader(io.StringIO(block)))
    for got, want in zip(fast[:4], zip(*rows)):
        assert [b.decode("utf-8") for b in got.tolist()] == list(want)
    assert fast[4].tobytes() == np.array([float(row[4]) for row in rows]).tobytes()


@pytest.mark.parametrize("block_bytes", [64, 1 << 16])
@pytest.mark.parametrize("last", [VALID, VALID.replace(",3,", ",24,")])
def test_crlf_rows_across_a_block_cut_read_as_row_by_row(tmp_path_factory, block_bytes, last):
    # Each file's rows start one byte later than the file before's, over
    # more than 64 bytes, so a 64-byte read ends at every byte of a row, its
    # CR and its LF among them. Blank lines and rows outside p01's span come
    # on both sides of the cut.
    for shift in range(80):
        lines = [VALID.replace("1.5", "0" * shift + "1.5"), "", OUTSIDE, VALID, "", OUTSIDE, VALID, last]
        path = write(tmp_path_factory, "\r\n".join([HEADER, *lines, ""]))
        oracle, blocks = read_both(path, block_bytes, FAST_PATIENTS)
        assert oracle[0] == "raised" or [e.line for e in oracle[1]] == [4, 7]
        assert blocks == oracle


@pytest.mark.parametrize("block_bytes", [64, 1 << 16])
@pytest.mark.parametrize(
    "first, second",
    [
        ("\r", "\n"),  # a bare CR inside a block ends a line
        ("\n\n", "\r"),  # and so does a block's final CR
        ("\r\n\r\n", "\r"),
        ("\r\r\n", "\r\n"),
    ],
)
def test_bare_crs_end_lines_on_both_paths(tmp_path_factory, block_bytes, first, second):
    # The C parser reads a block's CRs as line ends, as csv does, so it
    # numbers the excluded row and the rows after the block as csv does.
    # A blank line, which loadtxt skips, still sends its block to csv. Each
    # file's rows start one byte later than the file before's, so a 64-byte
    # block ends at each of the CRs.
    body = f"{VALID}{first}{OUTSIDE}{second}"
    columns = dataio._SensorSums(Path("sensors.csv"), FAST_PATIENTS)._parse(body.encode("utf-8"))
    if first == "\r":
        assert columns[1].tolist() == [b"2021-01-05", b"2021-01-09"]
    else:
        assert columns is None
    for shift in range(80):
        text = f"{HEADER}\n{VALID.replace('1.5', '0' * shift + '1.5')}{first}{OUTSIDE}{second}{OUTSIDE}\n"
        oracle, blocks = read_both(write(tmp_path_factory, text), block_bytes, FAST_PATIENTS)
        assert blocks == oracle


def test_declared_spans_share_one_buffer_per_array_allocated_once(tmp_path):
    # Every patient declares a span: their sums are disjoint views of one
    # buffer and their counts of another, both allocated before the first
    # row and never regrown.
    patients = {pid: _RawPatient(40, 10, (Date(2021, 1, 4), Date(2021, 1, 4 + i)), 2 + i) for i, pid in enumerate(["pa", "pb"])}
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


def crowded_cells(rows: int) -> str:
    """`rows` rows in one cell of p01 (declared span) and in one of p0123
    (inferred span), between rows of other cells; values whose sums depend
    on the order they are added in."""
    lines = [HEADER]
    for i in range(rows):
        value = (0.1, 0.2, 0.3, 1e16)[i % 4]
        lines.append(f"p01,2021-01-05,3,light_level,{value!r}")
        lines.append(f"p0123,2021-01-0{2 + i % 3},{i % 24},call_duration,{value!r}")
        lines.append(f"p0123,2021-01-07,5,light_level,{value!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rows", [255, 256, 600])
@pytest.mark.parametrize("block_bytes", [64, 1 << 20])
def test_more_than_255_rows_in_a_cell_read_as_row_by_row(tmp_path_factory, rows, block_bytes):
    # 64-byte blocks split a cell's rows over hundreds of blocks; a 1 MiB
    # block holds all of them.
    path = write(tmp_path_factory, crowded_cells(rows))
    oracle, blocks = read_both(path, block_bytes, FAST_PATIENTS)
    assert oracle[0]["p01"][Date(2021, 1, 5)][1][dataio._SIGNAL_INDEX["light_level"]][3] == rows
    assert blocks == oracle
    with mock.patch.object(dataio, "SENSOR_BLOCK_BYTES", block_bytes):
        sums = dataio._read_sensors(path, FAST_PATIENTS, [])
    if rows > 255:
        assert sums.counts["p01"].dtype == sums.counts["p0123"].dtype == np.int64
    elif block_bytes == 1 << 20:  # 0 + 255 rows of a cell in one block fit in uint8
        assert sums.counts["p01"].dtype == sums.counts["p0123"].dtype == np.uint8


@pytest.mark.parametrize("rows", [255, 256, 600])
@pytest.mark.parametrize("block_bytes", [64, 1 << 20])
def test_more_than_255_rows_in_a_cell_load_the_row_by_row_means(tmp_path, rows, block_bytes):
    (tmp_path / "sensors.csv").write_text(crowded_cells(rows))
    (tmp_path / "ema.csv").write_text("patient_id,date," + ",".join(f"item_{i}" for i in range(1, 11)) + "\n")
    (tmp_path / "patients.csv").write_text("patient_id,age,education_years\np01,40,10\np0123,50,12\n")
    (tmp_path / "relapses.csv").write_text("patient_id,relapse_date\n")
    patients = {pid: _RawPatient(40, 10, None, 2) for pid in ("p01", "p0123")}
    expected = oracle_read_sensors(tmp_path / "sensors.csv", patients, [])
    with mock.patch.object(dataio, "SENSOR_BLOCK_BYTES", block_bytes):
        ds = dataio.load_dataset(*(tmp_path / name for name in ("sensors.csv", "ema.csv", "patients.csv", "relapses.csv")))
    for patient in ds.patients:
        by_date = expected[patient.patient_id]
        assert (patient.observation_start, patient.observation_end) == (min(by_date), max(by_date))
        total, count = np.zeros((2, *ds.sensors[patient.patient_id].shape))
        for date, acc in by_date.items():
            day = (date - patient.observation_start).days
            total[day], count[day] = acc
        with np.errstate(invalid="ignore"):  # 0/0, as in the reader: NaN with the same bits
            assert ds.sensors[patient.patient_id].tobytes() == (total / count).tobytes()


def test_counts_widen_only_when_a_block_could_pass_255(tmp_path):
    # The largest count at a block's cells plus the most rows it gives one
    # cell decide: 200 + 55 and 0 + 255 stay in uint8, 255 + 1 widens.
    sums = dataio._SensorSums(tmp_path / "sensors.csv", {"pb": _RawPatient(50, 12, (Date(2021, 1, 4), Date(2021, 1, 5)), 2)})
    sums.add(b"pb,2021-01-05,3,light_level,1\n" * 200, 2, [])
    sums.add(b"pb,2021-01-05,3,light_level,1\n" * 55, 202, [])
    sums.add(b"pb,2021-01-04,3,light_level,1\n" * 255, 257, [])
    assert sums.counts["pb"].dtype == np.uint8
    sums.add(b"pb,2021-01-04,3,light_level,1\npb,2021-01-05,4,light_level,1\n", 512, [])
    assert sums.counts["pb"].dtype == np.int64
    light = dataio._SIGNAL_INDEX["light_level"]
    assert sums.counts["pb"][:, light, 3].tolist() == [256, 255] and sums.counts["pb"][1, light, 4] == 1


def test_widened_counts_of_an_inferred_span_stay_int64_as_it_grows(tmp_path):
    sums = dataio._SensorSums(tmp_path / "sensors.csv", {"pb": _RawPatient(50, 12, None, 2)})
    sums.add(b"pb,2021-02-10,3,light_level,0.1\n" * 300, 2, [])
    assert sums.counts["pb"].dtype == np.int64 and len(sums.counts["pb"]) == 1
    sums.add(b"pb,2021-01-01,4,light_level,2.5\n", 302, [])  # 40 days earlier: the arrays grow
    light = dataio._SIGNAL_INDEX["light_level"]
    assert sums.counts["pb"].dtype == np.int64 and len(sums.counts["pb"]) == 41
    assert sums.counts["pb"][[0, -1], light].tolist() == [[0] * 4 + [1] + [0] * 19, [0] * 3 + [300] + [0] * 20]
    means = sums.means("pb", Date(2021, 1, 1), Date(2021, 2, 10))
    assert means[0, light, 4] == 2.5 and means[-1, light, 3] == sum([0.1] * 300) / 300
