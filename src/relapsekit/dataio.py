"""Reading the four interchange files and writing all pipeline outputs.

Input files are UTF-8 CSV with a header row and ISO-8601 dates:

    sensors.csv   patient_id,date,hour,signal,value
    ema.csv       patient_id,date,item_1,...,item_10
    patients.csv  patient_id,age,education_years[,observation_start,observation_end]
    relapses.csv  patient_id,relapse_date

Validation failures raise IngestError naming the file and line. Rows that
are valid but fall outside an explicitly declared observation span are
excluded as they are read, never silently: each exclusion is recorded, in
file order, with a reason code. Sensor rows are averaged per
(patient, date, signal, hour) into one dense `(days, 6, 24)` array per
patient (`Dataset.sensors`). All writers are deterministic — the same
in-memory object always produces byte-identical files.

sensors.csv, by far the largest file, is read in blocks of
`SENSOR_BLOCK_BYTES` cut at their last newline. numpy's C parser
(`np.loadtxt`, no comments, no quoting) reads a block into fixed-width `S`
fields for patient_id, date, hour and signal, and float64 values. Each `S`
field is one byte wider than its longest valid text (the longest declared
id in UTF-8 bytes, the longest signal name, "YYYY-MM-DD", "23"), so a field
that fills its width may have been cut short. A block takes the `str.split`
path instead (decode, split at newlines and commas, `float()` per value)
when loadtxt rejects it (as it does "1_0" and "٣", which `float()` reads),
when a field fills its width, when it has a blank line (which loadtxt
skips, shifting line numbers), when it holds a byte 0x1C-0x1F (which
loadtxt strips around a number and `float()` rejects), or when any row
fails its checks. Both paths feed one resolver, so every block gives the
`str.split` path's result or IngestError. A file holding a quote, CR or NUL
byte (which change how `csv.reader` splits rows) or a line longer than
csv's field limit takes its rows from `csv.reader`, in blocks of rows.

Each distinct date, hour and signal string is parsed once, with the same
calls a row-by-row reader makes. A patient's rows are summed into a float64
`(days, 6, 24)` array, the layout of its hourly means, and counted in an
integer one, with `np.add.at`: int32 when sensors.csv is smaller than 2**31
bytes, so that no cell can reach 2**31 rows, and int64 otherwise. It adds
in file order, so every hourly sum is the one a row-by-row `+=` gives (a
per-block `np.bincount` would sum one cell's rows of a block before adding
earlier blocks' rows). Declared spans
are disjoint views of one sums buffer and one counts buffer, allocated
before the first row; an inferred span grows toward the side a row falls
on, at least doubling. A block that fails on both paths is walked again row
by row through `_check_sensor_row`, which raises the IngestError of its
first bad row. Blocks are small, because a block's parsed fields and index
arrays are alive at once; 128 KiB is also the largest block
`_needs_csv_reader` can scan against csv's default field limit.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from datetime import date as Date
from datetime import timedelta
from itertools import accumulate, islice, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .model import EMA_ITEM_COUNT, FEATURE_NAMES, SIGNALS, EmaRecord, Patient
from .templates import HOURS_PER_DAY
from .windowing import WindowSpec

if TYPE_CHECKING:  # pragma: no cover
    from .evaluate import EvalReport
    from .features import WindowTable

SENSORS_FILE = "sensors.csv"
EMA_FILE = "ema.csv"
PATIENTS_FILE = "patients.csv"
RELAPSES_FILE = "relapses.csv"

_SENSOR_HEADER = ["patient_id", "date", "hour", "signal", "value"]
_EMA_HEADER = ["patient_id", "date"] + [f"item_{i}" for i in range(1, EMA_ITEM_COUNT + 1)]
_PATIENT_HEADER = ["patient_id", "age", "education_years"]
_PATIENT_HEADER_FULL = _PATIENT_HEADER + ["observation_start", "observation_end"]
_RELAPSE_HEADER = ["patient_id", "relapse_date"]

EXCLUDED_OUTSIDE_SPAN = "outside_observation_span"


class IngestError(Exception):
    """A rejected input row or file, located by file name and line number."""

    def __init__(self, file: str, line: int | None, reason: str) -> None:
        self.file = file
        self.line = line
        self.reason = reason
        where = f"{file}:{line}" if line is not None else file
        super().__init__(f"{where}: {reason}")


@dataclass(frozen=True)
class IngestExclusion:
    file: str
    line: int
    reason: str


@dataclass(eq=False)
class Dataset:
    """The validated in-memory cohort.

    `sensors` maps each patient_id to one `(days, 6, 24)` float array of
    hourly means: day 0 is the patient's observation_start, signals are in
    `SIGNALS` order, and NaN marks an hour with no samples, so an all-NaN day
    is a day without data. Duplicate rows are already averaged. As loaded
    with declared spans, the arrays are disjoint views of one buffer. Treat
    instances as immutable.
    """

    patients: tuple[Patient, ...]
    sensors: dict[str, np.ndarray]
    ema: dict[str, dict[Date, EmaRecord]]
    ingest_exclusions: tuple[IngestExclusion, ...] = field(default_factory=tuple)
    _by_id: dict[str, Patient] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._by_id = {p.patient_id: p for p in self.patients}

    def patient(self, patient_id: str) -> Patient:
        return self._by_id[patient_id]

    def sensor_dates(self, patient_id: str) -> set[Date]:
        """Dates on which the patient has at least one hourly sample of any signal."""
        start = self.patient(patient_id).observation_start
        has_data = ~np.isnan(self.sensors[patient_id]).all(axis=(1, 2))
        return {start + timedelta(days=d) for d in np.flatnonzero(has_data).tolist()}

    def ema_records(self, patient_id: str) -> dict[Date, EmaRecord]:
        return self.ema.get(patient_id, {})


def load_dataset(
    sensors_path: str | Path,
    ema_path: str | Path,
    patients_path: str | Path,
    relapses_path: str | Path,
) -> Dataset:
    """Read and cross-validate the four interchange files.

    Observation spans omitted from patients.csv are inferred as the min/max
    date over that patient's sensor and EMA rows.
    """
    raw_patients = _read_patients(Path(patients_path))
    exclusions: list[IngestExclusion] = []
    sums = _read_sensors(Path(sensors_path), raw_patients, exclusions)
    ema = _read_ema(Path(ema_path), raw_patients, exclusions)
    relapses = _read_relapses(Path(relapses_path), set(raw_patients))

    # Resolve spans: explicit where declared, otherwise inferred from data.
    spans: dict[str, tuple[Date, Date]] = {}
    for pid, raw in raw_patients.items():
        if raw.span is not None:
            spans[pid] = raw.span
            continue
        dates = set(sums.row_dates(pid)) | set(ema.get(pid, ()))
        if not dates:
            raise IngestError(
                str(patients_path),
                raw.line,
                f"patient {pid} has no observation span and no data rows to infer one",
            )
        spans[pid] = (min(dates), max(dates))

    patients = []
    for pid in sorted(raw_patients):
        raw = raw_patients[pid]
        start, end = spans[pid]
        patient_relapses = tuple(d for d, _ in relapses.get(pid, ()))
        for date, line in relapses.get(pid, ()):
            if not start <= date <= end:
                raise IngestError(
                    str(relapses_path), line, f"relapse date {date} outside observation span"
                )
        try:
            patients.append(
                Patient(
                    patient_id=pid,
                    age=raw.age,
                    education_years=raw.education_years,
                    relapse_dates=patient_relapses,
                    observation_start=start,
                    observation_end=end,
                )
            )
        except ValueError as exc:
            raise IngestError(str(patients_path), raw.line, str(exc)) from exc

    return Dataset(
        patients=tuple(patients),
        sensors={pid: sums.means(pid, *spans[pid]) for pid in sorted(spans)},
        ema=ema,
        ingest_exclusions=tuple(exclusions),
    )


@dataclass
class _RawPatient:
    age: int
    education_years: int
    span: tuple[Date, Date] | None
    line: int


def _open_rows(path: Path) -> Iterable[tuple[int, list[str]]]:
    with path.open(newline="", encoding="utf-8") as handle:
        for line_no, row in enumerate(csv.reader(handle), start=1):
            yield line_no, row


def _outside_span(raw: _RawPatient, date: Date) -> bool:
    """True for a date outside a declared span; inferred spans exclude nothing."""
    return raw.span is not None and not raw.span[0] <= date <= raw.span[1]


def _check_header(path: Path, row: list[str], expected: list[str]) -> None:
    if row != expected:
        raise IngestError(str(path), 1, f"malformed header: expected {','.join(expected)}")


def _parse_date(path: Path, line: int, text: str, what: str = "date") -> Date:
    try:
        return Date.fromisoformat(text)
    except ValueError as exc:
        raise IngestError(str(path), line, f"invalid {what} {text!r}") from exc


def _read_patients(path: Path) -> dict[str, _RawPatient]:
    patients: dict[str, _RawPatient] = {}
    has_span: bool | None = None
    for line_no, row in _open_rows(path):
        if line_no == 1:
            if row == _PATIENT_HEADER_FULL:
                has_span = True
            elif row == _PATIENT_HEADER:
                has_span = False
            else:
                raise IngestError(
                    str(path),
                    1,
                    f"malformed header: expected {','.join(_PATIENT_HEADER)}"
                    " with optional observation_start,observation_end",
                )
            continue
        if not row:
            continue
        expected_len = 5 if has_span else 3
        if len(row) != expected_len:
            raise IngestError(str(path), line_no, f"expected {expected_len} fields, got {len(row)}")
        pid = row[0]
        if pid in patients:
            raise IngestError(str(path), line_no, f"duplicate patient_id {pid}")
        try:
            age = int(row[1])
            education = int(row[2])
        except ValueError as exc:
            raise IngestError(str(path), line_no, f"non-integer age/education: {exc}") from exc
        span = None
        if has_span:
            start = _parse_date(path, line_no, row[3], "observation_start")
            end = _parse_date(path, line_no, row[4], "observation_end")
            if start > end:
                raise IngestError(str(path), line_no, "observation_start after observation_end")
            span = (start, end)
        patients[pid] = _RawPatient(age, education, span, line_no)
    if has_span is None:
        raise IngestError(str(path), None, "empty file")
    return patients


SENSOR_BLOCK_BYTES = 1 << 17
_SIGNAL_INDEX = {s.value: i for i, s in enumerate(SIGNALS)}
_DAY_CELLS = len(SIGNALS) * HOURS_PER_DAY  # one day of a patient's (days, 6, 24) arrays
# loadtxt strips these around a number as whitespace; float() rejects them.
_INFO_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _read_sensors(
    path: Path, patients: dict[str, _RawPatient], exclusions: list[IngestExclusion]
) -> _SensorSums:
    """The hourly sums and counts of sensors.csv, per patient."""
    sums = _SensorSums(path, patients)
    line_no = 1
    for block in _sensor_blocks(path):
        if line_no == 1:
            if isinstance(block, bytes):
                cut = block.index(b"\n") + 1
                header, block = _split_lines(block[:cut])[0], block[cut:]
            else:
                header, block = block[0], block[1:]
            _check_header(path, header, _SENSOR_HEADER)
            line_no = 2
        line_no = sums.add(block, line_no, exclusions)
    return sums


def _sensor_blocks(path: Path) -> Iterator[bytes | list[list[str]]]:
    """sensors.csv a block at a time: whole lines of bytes or, from a file
    that `_split_lines` could split otherwise, rows as `csv.reader` gives them."""
    if _needs_csv_reader(path):
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            while rows := list(islice(reader, max(SENSOR_BLOCK_BYTES // 64, 1))):
                yield rows
        return
    with path.open("rb") as handle:
        tail = b""
        while block := handle.read(SENSOR_BLOCK_BYTES):
            block = tail + block
            cut = block.rfind(b"\n") + 1
            tail = block[cut:]
            if cut:
                yield block[:cut]
        if tail:
            yield tail + b"\n"


def _split_lines(block: bytes) -> list[list[str]]:
    """Whole lines as `csv.reader` splits them when nothing is quoted; a
    blank line is the empty row []."""
    lines = block.decode("utf-8").split("\n")
    lines.pop()
    if "" in lines:
        return [line.split(",") if line else [] for line in lines]
    return list(map(str.split, lines, repeat(",")))


def _needs_csv_reader(path: Path) -> bool:
    """True if splitting lines at newlines and fields at commas could give
    other rows than `csv.reader`: the file holds a quote, CR or NUL byte, or
    a line longer than csv's field limit (which csv rejects)."""
    limit = csv.field_size_limit()
    if limit < SENSOR_BLOCK_BYTES:
        return True
    run = 0  # bytes since the last newline
    with path.open("rb") as handle:
        while block := handle.read(SENSOR_BLOCK_BYTES):
            if b'"' in block or b"\r" in block or b"\0" in block:
                return True
            first = block.find(b"\n")
            if first < 0:
                run += len(block)
            elif run + first > limit:
                return True
            else:
                run = len(block) - block.rfind(b"\n") - 1
    return run > limit


def _text_columns(rows: list[list[str]]) -> tuple[np.ndarray, ...] | None:
    """Rows' five columns, four of str objects and the float values; None
    if a row lacks five fields or a value is not a float."""
    if set(map(len, rows)) != {5}:
        return None
    *texts, value_texts = zip(*rows)
    try:
        values = np.fromiter(map(float, value_texts), float, len(rows))
    except ValueError:
        return None
    return (*(np.array(column, dtype=object) for column in texts), values)


def _texts(column: np.ndarray) -> list[str]:
    """A column's entries as str; `S` bytes are UTF-8."""
    if column.dtype.kind == "S":
        return [text.decode("utf-8") for text in column.tolist()]
    return column.tolist()


class _SensorSums:
    """Per patient, `(days, 6, 24)` hourly sums and counts of sensors.csv
    rows, day 0 at the date ordinal `first[pid]` (see the module docstring)."""

    def __init__(self, path: Path, patients: dict[str, _RawPatient]) -> None:
        self.path = path
        self.patients = patients
        self.dates: dict[str, int] = {}  # date ordinals, parsed once per distinct string
        self.hours: dict[str, int] = {}
        # An inferred span holds no days until `_cover` grows it.
        days = [(raw.span[1] - raw.span[0]).days + 1 if raw.span else 0 for raw in patients.values()]
        ends = list(accumulate(days, initial=0))
        sums = np.zeros((ends[-1], len(SIGNALS), HOURS_PER_DAY))
        counts = np.zeros(sums.shape, np.int32 if path.stat().st_size < 2**31 else np.int64)
        self.first = {pid: raw.span[0].toordinal() if raw.span else 0 for pid, raw in patients.items()}
        self.sums = {pid: sums[lo:hi] for pid, lo, hi in zip(patients, ends, ends[1:])}
        self.counts = {pid: counts[lo:hi] for pid, lo, hi in zip(patients, ends, ends[1:])}
        # Each `S` field is a byte wider than any declared patient id, any
        # signal name, "YYYY-MM-DD" and "23", so a field that fills its width
        # may have been cut short.
        widths = [max((len(pid.encode("utf-8")) for pid in patients), default=0) + 1, 11, 3]
        widths.append(max(map(len, _SIGNAL_INDEX)) + 1)
        self.fields = np.dtype([*((name, f"S{width}") for name, width in zip(_SENSOR_HEADER, widths)), ("value", "f8")])
        self.last_bytes = np.cumsum(widths) - 1  # of each `S` field in a parsed row

    def add(self, block: bytes | list[list[str]], first_line: int, exclusions: list[IngestExclusion]) -> int:
        """Add one block, whole lines of bytes or csv rows, the first on csv
        row `first_line`; return the csv row after the block."""
        columns = self._parse(block) if isinstance(block, bytes) and block else None
        resolved = None if columns is None else self._resolve(*columns)
        if resolved is not None:
            end = first_line + len(columns[4])
            line_nos = np.arange(first_line, end)
        else:  # the `str.split` path, and its errors
            rows = _split_lines(block) if isinstance(block, bytes) else block
            end = first_line + len(rows)
            line_nos = np.arange(first_line, end)
            if [] in rows:  # blank rows count for line numbers only
                kept = [i for i, row in enumerate(rows) if row]
                rows, line_nos = [rows[i] for i in kept], line_nos[kept]
            if not rows:
                return end
            columns = _text_columns(rows)
            resolved = None if columns is None else self._resolve(*columns)
            if resolved is None:
                for line_no, row in zip(line_nos.tolist(), rows):
                    _check_sensor_row(self.path, line_no, row, self.patients)
                raise AssertionError(f"{self.path}: block at line {first_line} failed in bulk but not row by row")
        pid_texts, pid_of_row, day_of_row, cells, values = resolved
        outside = np.zeros(len(values), dtype=bool)
        for k, pid in enumerate(pid_texts):
            rows = np.flatnonzero(pid_of_row == k)
            days = day_of_row[rows]
            if self.patients[pid].span is None:  # an inferred span takes every row
                self._cover(pid, days.min(), days.max())
            days -= self.first[pid]
            out = (days < 0) | (days >= len(self.sums[pid]))
            outside[rows[out]] = True
            at = days[~out] * _DAY_CELLS + cells[rows[~out]]
            np.add.at(self.sums[pid].reshape(-1), at, values[rows[~out]])
            counts = self.counts[pid]
            np.add.at(counts.reshape(-1), at, counts.dtype.type(1))  # a Python 1 leaves numpy's fast path
        exclusions.extend(
            IngestExclusion(str(self.path), line_no, EXCLUDED_OUTSIDE_SPAN)
            for line_no in line_nos[outside].tolist()
        )
        return end

    def _parse(self, block: bytes) -> tuple[np.ndarray, ...] | None:
        """A block's five columns as numpy's C parser reads them, four of
        `S` bytes and the float values; None where they could differ from
        `_text_columns` on `_split_lines`."""
        lines = np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n"))  # faster than bytes.count
        if lines == len(block) or any(byte in block for byte in _INFO_SEPARATORS):
            return None  # all lines blank (loadtxt would warn), or a separator byte
        try:  # latin1 keeps every byte, so a non-ASCII field holds its UTF-8 bytes
            table = np.loadtxt(
                io.BytesIO(block), self.fields, delimiter=",", comments=None, quotechar=None, encoding="latin1", ndmin=1
            )
        except ValueError:
            return None
        if len(table) != lines:  # loadtxt skipped a blank line
            return None
        if table.view(np.uint8).reshape(len(table), -1)[:, self.last_bytes].any():
            return None
        return tuple(table[name] for name in self.fields.names)

    def _resolve(
        self, pids: np.ndarray, dates: np.ndarray, hours: np.ndarray, signals: np.ndarray, values: np.ndarray
    ) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """The block's patient ids, and each row's index into them, date
        ordinal, `signal * 24 + hour` cell and value, from five columns of
        `_parse` or `_text_columns`; None if any row fails `_check_sensor_row`."""
        if not (np.isfinite(values) & (values >= 0)).all():
            return None
        # Rows of one (patient, date), and of one signal, mostly come in runs:
        # resolve each run once.
        run_start = np.ones(len(values), dtype=bool)
        run_start[1:] = (pids[1:] != pids[:-1]) | (dates[1:] != dates[:-1])
        starts = np.flatnonzero(run_start)
        pid_keys, pid_of_run = np.unique(pids[starts], return_inverse=True)
        signal_runs = np.flatnonzero(np.r_[True, signals[1:] != signals[:-1]])
        signal_keys, signal_of_run = np.unique(signals[signal_runs], return_inverse=True)
        signal_of_row = np.repeat(signal_of_run, np.diff(signal_runs, append=len(values)))
        if hours.dtype.kind == "S":  # `_parse`'s `S3`: group by the bytes as one integer, not by a string sort
            codes, hour_of_row = np.unique(hours.astype("S4").view(">u4"), return_inverse=True)
            hour_keys = codes.view("S4")
        else:
            hour_keys, hour_of_row = np.unique(hours, return_inverse=True)
        try:  # a UnicodeDecodeError is a ValueError
            pid_texts, run_dates = _texts(pid_keys), _texts(dates[starts])
            signal_texts, hour_texts = _texts(signal_keys), _texts(hour_keys)
            if not self.patients.keys() >= set(pid_texts):
                return None
            signal_index = np.array([_SIGNAL_INDEX[text] for text in signal_texts])
            for text in set(run_dates).difference(self.dates):
                self.dates[text] = Date.fromisoformat(text).toordinal()
            for text in set(hour_texts).difference(self.hours):
                hour = int(text)
                if not 0 <= hour <= HOURS_PER_DAY - 1:
                    return None
                self.hours[text] = hour
        except (KeyError, ValueError):
            return None
        hour_index = np.array([self.hours[text] for text in hour_texts])
        run_lengths = np.diff(starts, append=len(values))
        day_of_row = np.repeat(np.array([self.dates[text] for text in run_dates]), run_lengths)
        cells = signal_index[signal_of_row] * HOURS_PER_DAY + hour_index[hour_of_row]
        return pid_texts, np.repeat(pid_of_run, run_lengths), day_of_row, cells, values

    def _cover(self, pid: str, lo: int, hi: int) -> None:
        """Grow a patient's arrays to hold days `lo..hi` (date ordinals): empty
        ones to just those days, others toward the side that lacks days, at
        least doubling."""
        held = len(self.sums[pid])
        first = self.first[pid] if held else lo
        last = first + held - 1
        if first <= lo and hi <= last:
            return
        size = max(2 * held, max(hi, last) - min(lo, first) + 1)
        start = first if first <= lo else max(hi, last) - size + 1
        for arrays in (self.sums, self.counts):
            grown = np.zeros((size, len(SIGNALS), HOURS_PER_DAY), arrays[pid].dtype)
            grown[first - start : first - start + held] = arrays[pid]
            arrays[pid] = grown
        self.first[pid] = start

    def row_dates(self, pid: str) -> list[Date]:
        """The dates on which a patient has rows."""
        days = np.flatnonzero(self.counts[pid].any(axis=(1, 2))) + self.first[pid]
        return [Date.fromordinal(day) for day in days.tolist()]

    def means(self, pid: str, start: Date, end: Date) -> np.ndarray:
        """A patient's hourly means from `start` to `end`, divided in place
        when its arrays hold just those days. No samples give 0/0, NaN."""
        lo, hi = start.toordinal(), end.toordinal()
        self._cover(pid, lo, hi)
        span = slice(lo - self.first[pid], hi + 1 - self.first[pid])
        sums = self.sums[pid]
        with np.errstate(invalid="ignore"):  # 0/0 -> NaN: no samples in that hour
            return np.divide(sums[span], self.counts[pid][span], out=sums[span] if len(sums) == hi + 1 - lo else None)


def _check_sensor_row(path: Path, line_no: int, row: list[str], patients: dict[str, _RawPatient]) -> None:
    """Raise the IngestError of one non-blank sensors.csv row, if it has one."""
    if len(row) != 5:
        raise IngestError(str(path), line_no, f"expected 5 fields, got {len(row)}")
    pid, date_text, hour_text, signal_text, value_text = row
    if pid not in patients:
        raise IngestError(str(path), line_no, f"unknown patient_id {pid}")
    _parse_date(path, line_no, date_text)
    try:
        hour = int(hour_text)
    except ValueError as exc:
        raise IngestError(str(path), line_no, f"non-integer hour {hour_text!r}") from exc
    if not 0 <= hour <= HOURS_PER_DAY - 1:
        raise IngestError(str(path), line_no, f"hour out of range: {hour}")
    if signal_text not in _SIGNAL_INDEX:
        raise IngestError(str(path), line_no, f"unknown signal name {signal_text!r}")
    try:
        value = float(value_text)
    except ValueError as exc:
        raise IngestError(str(path), line_no, f"non-numeric value {value_text!r}") from exc
    if not math.isfinite(value) or value < 0:
        raise IngestError(str(path), line_no, f"value must be finite and >= 0, got {value_text}")


def _read_ema(
    path: Path, patients: dict[str, _RawPatient], exclusions: list[IngestExclusion]
) -> dict[str, dict[Date, EmaRecord]]:
    records: dict[str, dict[Date, EmaRecord]] = {}
    seen: set[tuple[str, Date]] = set()
    for line_no, row in _open_rows(path):
        if line_no == 1:
            _check_header(path, row, _EMA_HEADER)
            continue
        if not row:
            continue
        if len(row) != 2 + EMA_ITEM_COUNT:
            raise IngestError(
                str(path), line_no, f"expected {2 + EMA_ITEM_COUNT} fields, got {len(row)}"
            )
        pid = row[0]
        if pid not in patients:
            raise IngestError(str(path), line_no, f"unknown patient_id {pid}")
        date = _parse_date(path, line_no, row[1])
        items = []
        for i, text in enumerate(row[2:], start=1):
            try:
                answer = int(text)
            except ValueError as exc:
                raise IngestError(
                    str(path), line_no, f"non-integer item_{i} value {text!r}"
                ) from exc
            if answer not in (0, 1, 2, 3):
                raise IngestError(str(path), line_no, f"item_{i} out of range 0..3: {answer}")
            items.append(answer)
        if (pid, date) in seen:
            raise IngestError(str(path), line_no, f"duplicate EMA record for {pid} on {date}")
        seen.add((pid, date))
        if _outside_span(patients[pid], date):
            exclusions.append(IngestExclusion(str(path), line_no, EXCLUDED_OUTSIDE_SPAN))
            continue
        records.setdefault(pid, {})[date] = EmaRecord(pid, date, tuple(items))
    return records


def _read_relapses(path: Path, known: set[str]) -> dict[str, list[tuple[Date, int]]]:
    relapses: dict[str, list[tuple[Date, int]]] = {}
    for line_no, row in _open_rows(path):
        if line_no == 1:
            _check_header(path, row, _RELAPSE_HEADER)
            continue
        if not row:
            continue
        if len(row) != 2:
            raise IngestError(str(path), line_no, f"expected 2 fields, got {len(row)}")
        pid, date_text = row
        if pid not in known:
            raise IngestError(str(path), line_no, f"unknown patient_id {pid}")
        date = _parse_date(path, line_no, date_text, "relapse_date")
        relapses.setdefault(pid, []).append((date, line_no))
    for entries in relapses.values():
        entries.sort(key=lambda pair: pair[0])
    return relapses


# ---------------------------------------------------------------------------
# Writers. All output is deterministic: fixed ordering, fixed formatting.
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    """Shortest round-trip decimal form, so re-loading is lossless."""
    return repr(float(value))


def _csv_field(text: str) -> str:
    """`text` as `csv.writer` writes it in a row of several fields."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow([text, ""])
    return line.getvalue()[:-2]


def write_dataset(dataset: Dataset, out_dir: str | Path) -> dict[str, Path]:
    """Emit the four interchange files for a dataset; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "sensors": out / SENSORS_FILE,
        "ema": out / EMA_FILE,
        "patients": out / PATIENTS_FILE,
        "relapses": out / RELAPSES_FILE,
    }

    with paths["patients"].open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_PATIENT_HEADER_FULL)
        for p in sorted(dataset.patients, key=lambda p: p.patient_id):
            writer.writerow(
                [
                    p.patient_id,
                    p.age,
                    p.education_years,
                    p.observation_start.isoformat(),
                    p.observation_end.isoformat(),
                ]
            )

    with paths["sensors"].open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerow(_SENSOR_HEADER)
        cells = [f",{hour},{s.value}," for s in SIGNALS for hour in range(HOURS_PER_DAY)]
        for p in sorted(dataset.patients, key=lambda p: p.patient_id):
            cube = dataset.sensors[p.patient_id]
            present = ~np.isnan(cube)
            if not present.any():
                continue
            pid = _csv_field(p.patient_id)
            days = [f"{pid},{(p.observation_start + timedelta(days=d)).isoformat()}" for d in range(len(cube))]
            # Flat C order is (date, signal, hour): the file order.
            day, cell = np.divmod(np.flatnonzero(present), len(cells))
            prefixes = map(str.__add__, map(days.__getitem__, day.tolist()), map(cells.__getitem__, cell.tolist()))
            handle.write("\n".join(map(str.__add__, prefixes, map(repr, cube[present].tolist()))) + "\n")

    with paths["ema"].open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_EMA_HEADER)
        for p in sorted(dataset.patients, key=lambda p: p.patient_id):
            for date in sorted(dataset.ema_records(p.patient_id)):
                record = dataset.ema_records(p.patient_id)[date]
                writer.writerow([p.patient_id, date.isoformat(), *record.items])

    with paths["relapses"].open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_RELAPSE_HEADER)
        for p in sorted(dataset.patients, key=lambda p: p.patient_id):
            for date in p.relapse_dates:
                writer.writerow([p.patient_id, date.isoformat()])

    return paths


def write_predictions(report: "EvalReport", path: str | Path) -> None:
    """One row per evaluated window: identity, dates, label, prediction, score."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            [
                "patient_id",
                "window_start",
                "window_end",
                "prediction_date_range",
                "label",
                "predicted",
                "score",
            ]
        )
        for row in report.rows:
            spec = row.spec
            writer.writerow(
                [
                    spec.patient_id,
                    spec.feature_start.isoformat(),
                    spec.feature_end.isoformat(),
                    f"{spec.predict_start.isoformat()}/{spec.predict_end.isoformat()}",
                    row.label,
                    row.predicted,
                    _fmt(row.score),
                ]
            )


def write_metrics(report: "EvalReport | Sequence[EvalReport]", path: str | Path) -> None:
    """Structured metrics document (JSON); accepts one report or a list of arms."""
    if isinstance(report, Sequence):
        doc: object = [r.to_dict() for r in report]
    else:
        doc = report.to_dict()
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def write_feature_matrix(table: "WindowTable", path: str | Path) -> None:
    """Delimited dump of a window table's rows; missing values become empty fields."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["patient_id", "window_start", "label", *FEATURE_NAMES])
        for spec, row in zip(table.specs, table.values):
            cells = ["" if np.isnan(v) else _fmt(v) for v in row]
            writer.writerow([spec.patient_id, spec.feature_start.isoformat(), spec.label, *cells])


def write_exclusions(windows: Iterable[WindowSpec], path: str | Path) -> None:
    """Sidecar log of excluded candidate windows and their reason codes."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["patient_id", "window_start", "reason"])
        for w in windows:
            if not w.evaluable:
                writer.writerow([w.patient_id, w.feature_start.isoformat(), w.exclusion])
