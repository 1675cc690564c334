"""Reading the four interchange files (`dataio`) into a `Dataset`.

Every file is read in blocks of whole lines (`_CsvReader`), into the rows
of one `csv.reader` over the file. A line, and so a block, ends at "\n"
or at a "\r" that no "\n" follows, so LF, CRLF and CR-only files are all
read a block at a time and numbered alike. One generator,
`_CsvReader.records`, checks every file's header, field counts and blank
rows, a block at a time. Validation failures, a zero-byte file and a byte
that is not UTF-8 raise IngestError naming the file and line of the first
fault. Rows that are valid but fall outside an explicitly declared
observation span are excluded as they are read, never silently: each
exclusion is recorded, in file order, with a reason code.
Sensor rows are averaged per (patient, date, signal, hour) into one dense
`(days, 6, 24)` array per patient (`Dataset.sensors`), and EMA answers are
laid into one `(days, 10)` array per patient (`Dataset.ema`) with the same
days, once the spans are known.

In sensors.csv, by far the largest file, a block after the header's is
`SENSOR_BLOCK_BYTES` and the rest of the line they end in. It takes one of
two paths. numpy's C parser (`np.loadtxt`, no comments, no quoting) reads
it into fixed-width `S` fields for patient_id, date, hour and signal, and
float64 values. A block takes its rows from `csv.reader` instead when
loadtxt rejects it (as it does "1_0" and "٣", which `float()` reads), when
a field fills its width and so may have been cut short, when it has a
blank line (which loadtxt skips, shifting line numbers) or no final
newline, when it holds a byte 0x1C-0x1F (which loadtxt strips around a
number and `float()` rejects), a quote, NUL or non-UTF-8 byte, when a line
could pass csv's field limit, or when any row fails its checks. Before
loadtxt reads a block, each CRLF and bare CR in it becomes "\n": each ends
one line, as "\n" does, so LF, CRLF and CR-only lines all take the C
parser and are numbered alike. On the row path, `_parse_row` reads each
row in file order and raises the IngestError of the first bad one, so
every block gives the result of its `csv.reader` rows or that error. On
the C parser's path, each distinct date, hour and signal string is parsed
once, with the same calls `_parse_row` makes.

A patient's rows are summed into a float64 `(days, 6, 24)` array, the
layout of its hourly means, and counted in a uint8 one, with `np.add.at`.
Nearly every count is 0 or 1, so uint8 keeps the counts at an eighth of
the sums. Before a block's rows are counted, a patient's counts are
widened to int64 if the block could take a cell past 255: the largest
count at the block's cells plus the most rows the block gives one cell (a
`np.bincount` over the block's cells) decide it. A widened patient stays
int64. Sums add in file order, so every hourly sum is the one a row-by-row
`+=` gives (a per-block `np.bincount` would sum one cell's rows of a block
before adding earlier blocks' rows), and every mean is unchanged by the
counts' dtype. Declared spans are disjoint views of one sums buffer and
one counts buffer, allocated before the first row; an inferred span grows
toward the side a row falls on, at least doubling. Blocks are small,
because a block's parsed fields and index arrays are alive at once.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date as Date
from itertools import accumulate, chain
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .dataio import DAY_CELLS, EMA_HEADER, PATIENT_HEADER, PATIENT_HEADER_FULL, RELAPSE_HEADER, SENSOR_HEADER
from .dataio import EXCLUDED_OUTSIDE_SPAN, Dataset, IngestExclusion
from .model import EMA_ITEM_COUNT, HOURS_PER_DAY, SIGNALS, Patient


class IngestError(ValueError):
    """A rejected input row or file, located by file name and line number."""

    def __init__(self, file: str, line: int | None, reason: str) -> None:
        self.file = file
        self.line = line
        self.reason = reason
        where = f"{file}:{line}" if line is not None else file
        super().__init__(f"{where}: {reason}")


def load_dataset(
    sensors_path: str | Path,
    ema_path: str | Path,
    patients_path: str | Path,
    relapses_path: str | Path,
) -> Dataset:
    """Read and cross-validate the four interchange files.

    Observation spans omitted from patients.csv are inferred as the min/max
    date over that patient's sensor and EMA rows. A patient's EMA answers
    are laid into its day array once its span is known.
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
        days = sums.row_days(pid)
        if pid in ema:
            days = np.concatenate([days, ema[pid][0]])
        if not len(days):
            raise IngestError(
                str(patients_path),
                raw.line,
                f"patient {pid} has no observation span and no data rows to infer one",
            )
        spans[pid] = (Date.fromordinal(int(days.min())), Date.fromordinal(int(days.max())))

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
        ema={pid: _ema_days(ema.get(pid), *spans[pid]) for pid in sorted(spans)},
        ingest_exclusions=tuple(exclusions),
    )


@dataclass
class _RawPatient:
    age: int
    education_years: int
    span: tuple[Date, Date] | None
    line: int


class _CsvReader:
    """A CSV file, open while iterated, in blocks of whole lines: the first
    line (and any others in its first few bytes), then blocks of
    `SENSOR_BLOCK_BYTES` and the rest of their last line. A line ends at
    "\n", or at a "\r" that no "\n" follows, so a file of bare CRs is cut as
    often as one of LFs. `rows` gives a block's rows as `csv.reader` gives
    them from the whole file, and `records` the rows after the header, one
    of `headers`."""

    handle: BinaryIO

    def __init__(self, path: Path, *headers: list[str]) -> None:
        self.path = path
        self.headers = headers
        self.width = 0  # fields in the header, once read
        self.skew = 0  # lines less csv rows before the next block
        self.next_row = 1  # the csv row after the last block `rows` read
        self.held = b""  # read past the last block's end

    def __iter__(self) -> Iterator[bytes]:
        with self.path.open("rb") as self.handle:
            yield self._whole_lines(1)  # the header, perhaps with a row: the C parser rejects it
            while block := self._whole_lines(SENSOR_BLOCK_BYTES):
                yield block

    def _whole_lines(self, size: int) -> bytes:
        """At least `size` more bytes, cut after their last line end, or the
        rest of the file. A final "\r" waits for the byte after it, which
        may be its "\n"; what follows the cut is held for the next call."""
        data = self.held
        while chunk := self.handle.read(max(size, len(data))):
            data += chunk
            if end := max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1:
                self.held = data[end:]
                return data[:end]
        self.held = b""
        return data

    def rows(self, block: bytes, first_row: int) -> Iterator[list[str]]:
        """The rows of `block`, whose first row is `first_row`, read on
        through the line that ends a quoted field crossing its end. A row
        csv rejects or with a non-UTF-8 byte raises IngestError."""
        if not block:  # the first block of a zero-byte file
            raise IngestError(str(self.path), None, "empty file")
        line = first_row + self.skew + _line_ends(block)  # the line after the block
        row_start = 0  # `reader.line_num` as the current row starts

        def more() -> Iterator[str]:  # while a quoted field crosses the block's end
            nonlocal line
            while reader.line_num > row_start and (text := self._whole_lines(1)):
                yield from self._lines(text, line)
                line += _line_ends(text)

        reader = csv.reader(chain(self._lines(block, first_row + self.skew), more()))
        row = first_row
        try:
            for fields in reader:
                yield fields
                row, row_start = row + 1, reader.line_num
        except csv.Error as exc:
            raise IngestError(str(self.path), row, str(exc)) from exc
        self.skew, self.next_row = line - row, row

    def records(self, block: bytes, first_row: int) -> Iterator[tuple[int, list[str]]]:
        """The non-blank rows of `block` after the header, numbered from
        `first_row`, each with as many fields as the header. Row 1 is the
        header, which must be one of `headers`."""
        for row_no, row in enumerate(self.rows(block, first_row), start=first_row):
            if row_no == 1:
                _check_header(self.path, row, *self.headers)
                self.width = len(row)
            elif row:
                if len(row) != self.width:
                    raise IngestError(str(self.path), row_no, f"expected {self.width} fields, got {len(row)}")
                yield row_no, row

    def _lines(self, data: bytes, line: int) -> Iterator[str]:
        """`data`'s lines, as a `newline=""` file splits them; reading the
        one with a non-UTF-8 byte raises IngestError naming it, counted
        from `line`."""
        good, error = len(data), None
        if not data.isascii():
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                good = max(data.rfind(b"\n", 0, exc.start), data.rfind(b"\r", 0, exc.start)) + 1
                error = IngestError(str(self.path), line + _line_ends(data, exc.start), "invalid UTF-8")
        yield from io.TextIOWrapper(io.BytesIO(data[:good]), encoding="utf-8", newline="")
        if error:
            raise error


def _line_ends(data: bytes, end: int | None = None) -> int:
    """The line ends in `data[:end]`: each "\n", and each "\r" that no "\n"
    follows. A block or a cut before a bad byte never splits a CRLF."""
    ends = data.count(b"\n", 0, end)
    if crs := data.count(b"\r", 0, end):
        ends += crs - data.count(b"\r\n", 0, end)
    return ends


def _check_header(path: Path, row: list[str], *headers: list[str]) -> None:
    """Raise unless `row` is one of `headers`; a second one adds optional columns."""
    if row not in headers:
        expected = ",".join(headers[0])
        if len(headers) > 1:
            expected += f" with optional {','.join(headers[1][len(headers[0]) :])}"
        raise IngestError(str(path), 1, f"malformed header: expected {expected}")


def _records(path: Path, *headers: list[str]) -> Iterator[tuple[int, list[str]]]:
    """`_CsvReader.records` of every block of a CSV file, numbered from 1
    as `csv.reader` counts rows."""
    reader = _CsvReader(path, *headers)
    for block in reader:
        yield from reader.records(block, reader.next_row)


def _outside_span(raw: _RawPatient, date: Date) -> bool:
    """True for a date outside a declared span; inferred spans exclude nothing."""
    return raw.span is not None and not raw.span[0] <= date <= raw.span[1]


def _parse_date(path: Path, line: int, text: str, what: str = "date") -> Date:
    try:
        return Date.fromisoformat(text)
    except ValueError as exc:
        raise IngestError(str(path), line, f"invalid {what} {text!r}") from exc


def _read_patients(path: Path) -> dict[str, _RawPatient]:
    patients: dict[str, _RawPatient] = {}
    for line_no, row in _records(path, PATIENT_HEADER, PATIENT_HEADER_FULL):
        pid = row[0]
        if pid in patients:
            raise IngestError(str(path), line_no, f"duplicate patient_id {pid}")
        try:
            age = int(row[1])
            education = int(row[2])
        except ValueError as exc:
            raise IngestError(str(path), line_no, f"non-integer age/education: {exc}") from exc
        span = None
        if len(row) == len(PATIENT_HEADER_FULL):
            start = _parse_date(path, line_no, row[3], "observation_start")
            end = _parse_date(path, line_no, row[4], "observation_end")
            if start > end:
                raise IngestError(str(path), line_no, "observation_start after observation_end")
            span = (start, end)
        patients[pid] = _RawPatient(age, education, span, line_no)
    return patients


SENSOR_BLOCK_BYTES = 1 << 17
_SIGNAL_INDEX = {s.value: i for i, s in enumerate(SIGNALS)}
# A block holding one of these takes `csv.reader`: loadtxt strips 0x1C-0x1F
# around a number, and reads a quote or NUL otherwise than csv.
_CSV_ONLY_BYTES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f", b'"', b"\0")
# A row `_SensorSums._parse_row` read: its line, patient (an index into the
# block's ids), date ordinal, `signal * 24 + hour` cell and value.
_PARSED_ROW = np.dtype([("line", "i8"), ("pid", "i8"), ("day", "i8"), ("cell", "i8"), ("value", "f8")])


def _read_sensors(
    path: Path, patients: dict[str, _RawPatient], exclusions: list[IngestExclusion]
) -> _SensorSums:
    """The hourly sums and counts of sensors.csv, per patient."""
    sums = _SensorSums(path, patients)
    line_no = 1
    for block in sums.reader:
        line_no = sums.add(block, line_no, exclusions)
    return sums


def _texts(column: np.ndarray) -> list[str]:
    """An `S` column's UTF-8 entries as str."""
    return [text.decode("utf-8") for text in column.tolist()]


class _SensorSums:
    """Per patient, `(days, 6, 24)` hourly sums and counts of sensors.csv
    rows, day 0 at the date ordinal `first[pid]` (see the module docstring)."""

    def __init__(self, path: Path, patients: dict[str, _RawPatient]) -> None:
        self.path = path
        self.patients = patients
        self.reader = _CsvReader(path, SENSOR_HEADER)
        self.dates: dict[str, int] = {}  # date ordinals, parsed once per distinct string
        self.hours: dict[str, int] = {}
        # An inferred span holds no days until `_cover` grows it.
        days = [(raw.span[1] - raw.span[0]).days + 1 if raw.span else 0 for raw in patients.values()]
        ends = list(accumulate(days, initial=0))
        sums = np.zeros((ends[-1], len(SIGNALS), HOURS_PER_DAY))
        counts = np.zeros(sums.shape, np.uint8)  # widened per patient by `_counts_for`
        self.first = {pid: raw.span[0].toordinal() if raw.span else 0 for pid, raw in patients.items()}
        self.sums = {pid: sums[lo:hi] for pid, lo, hi in zip(patients, ends, ends[1:])}
        self.counts = {pid: counts[lo:hi] for pid, lo, hi in zip(patients, ends, ends[1:])}
        # Each `S` field is a byte wider than any declared patient id, any
        # signal name, "YYYY-MM-DD" and "23", so a field that fills its width
        # may have been cut short.
        widths = [max((len(pid.encode("utf-8")) for pid in patients), default=0) + 1, 11, 3]
        widths.append(max(map(len, _SIGNAL_INDEX)) + 1)
        self.fields = np.dtype([*((name, f"S{width}") for name, width in zip(SENSOR_HEADER, widths)), ("value", "f8")])
        self.last_bytes = np.cumsum(widths) - 1  # of each `S` field in a parsed row

    def add(self, block: bytes, first_line: int, exclusions: list[IngestExclusion]) -> int:
        """Add one block of whole lines, the first on csv row `first_line`;
        return the csv row after the block. Row 1 is the header."""
        columns = self._parse(block) if first_line > 1 else None
        resolved = None if columns is None else self._resolve(*columns)
        if resolved is not None:
            end = first_line + len(columns[4])
            line_nos = np.arange(first_line, end)
        else:  # `csv.reader` rows, parsed in file order: the first fault raises
            pids: dict[str, int] = {}
            records = self.reader.records(block, first_line)
            parsed = np.fromiter((self._parse_row(line_no, row, pids) for line_no, row in records), _PARSED_ROW)
            end, line_nos = self.reader.next_row, parsed["line"]
            resolved = list(pids), parsed["pid"], parsed["day"], parsed["cell"], parsed["value"]
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
            at = days[~out] * DAY_CELLS + cells[rows[~out]]
            np.add.at(self.sums[pid].reshape(-1), at, values[rows[~out]])
            counts = self._counts_for(pid, at)
            np.add.at(counts.reshape(-1), at, counts.dtype.type(1))  # a Python 1 leaves numpy's fast path
        exclusions.extend(
            IngestExclusion(str(self.path), line_no, EXCLUDED_OUTSIDE_SPAN)
            for line_no in line_nos[outside].tolist()
        )
        return end

    def _parse(self, block: bytes) -> tuple[np.ndarray, ...] | None:
        """A block's five columns as numpy's C parser reads them, four of
        `S` bytes and the float values; None where they could differ from
        the block's `csv.reader` rows."""
        if b"\r" in block:  # a CR ends a line, as "\n" does (`_CsvReader`); loadtxt rejects a bare one
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        lines = np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n"))  # faster than bytes.count
        if lines == len(block) or any(byte in block for byte in _CSV_ONLY_BYTES):
            return None  # all lines blank (loadtxt would warn), or a byte above
        try:  # latin1 keeps every byte, so a non-ASCII field holds its UTF-8 bytes
            if not block.isascii():  # loadtxt strips latin1 0x85 and 0xA0
                block.decode("utf-8")  # a UnicodeDecodeError is a ValueError
            table = np.loadtxt(
                io.BytesIO(block), self.fields, delimiter=",", comments=None, quotechar=None, encoding="latin1", ndmin=1
            )
        except ValueError:
            return None
        if len(table) != lines:  # loadtxt skipped a blank line, or the last lacks "\n"
            return None
        # No line is longer than this, as every other one holds four commas and
        # a value; csv rejects a field over its limit.
        if len(block) - 6 * (lines - 1) > csv.field_size_limit():
            return None
        if table.view(np.uint8).reshape(len(table), -1)[:, self.last_bytes].any():
            return None
        return tuple(table[name] for name in self.fields.names)

    def _resolve(
        self, pids: np.ndarray, dates: np.ndarray, hours: np.ndarray, signals: np.ndarray, values: np.ndarray
    ) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """The block's patient ids, and each row's index into them, date
        ordinal, `signal * 24 + hour` cell and value, from `_parse`'s five
        columns; None if any row fails `_parse_row`."""
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
        # Group the `S3` hours by their bytes as one integer, not by a string sort.
        codes, hour_of_row = np.unique(hours.astype("S4").view(">u4"), return_inverse=True)
        hour_keys = codes.view("S4")
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

    def _parse_row(self, line_no: int, row: list[str], pids: dict[str, int]) -> tuple[int, int, int, int, float]:
        """A sensors.csv row's line, patient (its index in `pids`, added if
        new), date ordinal, cell and value; raise the row's IngestError if
        it has one."""
        pid, date_text, hour_text, signal_text, value_text = row
        if pid not in self.patients:
            raise IngestError(str(self.path), line_no, f"unknown patient_id {pid}")
        day = self.dates.get(date_text)
        if day is None:
            day = self.dates[date_text] = _parse_date(self.path, line_no, date_text).toordinal()
        try:
            hour = int(hour_text)
        except ValueError as exc:
            raise IngestError(str(self.path), line_no, f"non-integer hour {hour_text!r}") from exc
        if not 0 <= hour <= HOURS_PER_DAY - 1:
            raise IngestError(str(self.path), line_no, f"hour out of range: {hour}")
        if signal_text not in _SIGNAL_INDEX:
            raise IngestError(str(self.path), line_no, f"unknown signal name {signal_text!r}")
        try:
            value = float(value_text)
        except ValueError as exc:
            raise IngestError(str(self.path), line_no, f"non-numeric value {value_text!r}") from exc
        if not math.isfinite(value) or value < 0:
            raise IngestError(str(self.path), line_no, f"value must be finite and >= 0, got {value_text}")
        cell = _SIGNAL_INDEX[signal_text] * HOURS_PER_DAY + hour
        return line_no, pids.setdefault(pid, len(pids)), day, cell, value

    def _counts_for(self, pid: str, at: np.ndarray) -> np.ndarray:
        """A patient's counts, widened from uint8 to int64 first if one more
        row at each flat cell of `at` could take a cell past 255: if the
        largest count at those cells plus the most entries `at` has for one
        cell is over 255."""
        counts = self.counts[pid]
        if counts.dtype == np.uint8 and len(at):
            most = int(counts.reshape(-1)[at].max()) + int(np.bincount(at - at.min()).max())
            if most > np.iinfo(np.uint8).max:
                counts = self.counts[pid] = counts.astype(np.int64)
        return counts

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

    def row_days(self, pid: str) -> np.ndarray:
        """The dates on which a patient has rows, as ordinals."""
        return np.flatnonzero(self.counts[pid].any(axis=(1, 2))) + self.first[pid]

    def means(self, pid: str, start: Date, end: Date) -> np.ndarray:
        """A patient's hourly means from `start` to `end`, divided in place
        when its arrays hold just those days. No samples give 0/0, NaN."""
        lo, hi = start.toordinal(), end.toordinal()
        self._cover(pid, lo, hi)
        span = slice(lo - self.first[pid], hi + 1 - self.first[pid])
        sums = self.sums[pid]
        with np.errstate(invalid="ignore"):  # 0/0 -> NaN: no samples in that hour
            return np.divide(sums[span], self.counts[pid][span], out=sums[span] if len(sums) == hi + 1 - lo else None)


def _read_ema(
    path: Path, patients: dict[str, _RawPatient], exclusions: list[IngestExclusion]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each patient's answered dates, as ordinals, and their `(records, 10)`
    int8 answers, in file order."""
    days: dict[str, list[int]] = {}
    answers: dict[str, list[int]] = {}
    seen: set[tuple[str, Date]] = set()
    for line_no, row in _records(path, EMA_HEADER):
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
        days.setdefault(pid, []).append(date.toordinal())
        answers.setdefault(pid, []).extend(items)
    return {
        pid: (np.array(days[pid]), np.array(answers[pid], dtype=np.int8).reshape(-1, EMA_ITEM_COUNT))
        for pid in days
    }


def _ema_days(answered: tuple[np.ndarray, np.ndarray] | None, start: Date, end: Date) -> np.ndarray:
    """One patient's `(days, 10)` EMA array from `start` to `end`, -1 on a
    day without a record; `answered` is what `_read_ema` read for it."""
    out = np.full((end.toordinal() - start.toordinal() + 1, EMA_ITEM_COUNT), -1, dtype=np.int8)
    if answered is not None:
        days, answers = answered
        out[days - start.toordinal()] = answers
    return out


def _read_relapses(path: Path, known: set[str]) -> dict[str, list[tuple[Date, int]]]:
    relapses: dict[str, list[tuple[Date, int]]] = {}
    for line_no, row in _records(path, RELAPSE_HEADER):
        pid, date_text = row
        if pid not in known:
            raise IngestError(str(path), line_no, f"unknown patient_id {pid}")
        date = _parse_date(path, line_no, date_text, "relapse_date")
        relapses.setdefault(pid, []).append((date, line_no))
    for entries in relapses.values():
        entries.sort(key=lambda pair: pair[0])
    return relapses
