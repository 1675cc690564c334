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
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import date as Date
from datetime import timedelta
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .model import EMA_ITEM_COUNT, FEATURE_NAMES, SIGNALS, EmaRecord, Patient
from .templates import HOURS_PER_DAY
from .windowing import WindowSpec

if TYPE_CHECKING:  # pragma: no cover
    from .evaluate import EvalReport
    from .features import FeatureWindow

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
    is a day without data. Duplicate rows are already averaged. Treat
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
    sensor_days = _read_sensors(Path(sensors_path), raw_patients, exclusions)
    ema = _read_ema(Path(ema_path), raw_patients, exclusions)
    relapses = _read_relapses(Path(relapses_path), set(raw_patients))

    # Resolve spans: explicit where declared, otherwise inferred from data.
    spans: dict[str, tuple[Date, Date]] = {}
    for pid, raw in raw_patients.items():
        if raw.span is not None:
            spans[pid] = raw.span
            continue
        dates = set(sensor_days.get(pid, ())) | set(ema.get(pid, ()))
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
        sensors={pid: _hourly_means(sensor_days.get(pid, {}), *spans[pid]) for pid in sorted(spans)},
        ema=ema,
        ingest_exclusions=tuple(exclusions),
    )


def _hourly_means(days: dict[Date, np.ndarray], start: Date, end: Date) -> np.ndarray:
    """Lay per-day `(2, 6, 24)` sums/counts on the span's day axis and divide."""
    acc = np.zeros(((end - start).days + 1, 2, len(SIGNALS), HOURS_PER_DAY))
    for date, day_acc in days.items():
        acc[(date - start).days] = day_acc
    with np.errstate(invalid="ignore"):  # 0/0 -> NaN: no samples in that hour
        return acc[:, 0] / acc[:, 1]


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


def _read_sensors(
    path: Path, patients: dict[str, _RawPatient], exclusions: list[IngestExclusion]
) -> dict[str, dict[Date, np.ndarray]]:
    """Per patient and date, a `(2, 6, 24)` array of hourly sums and counts."""
    days: dict[str, dict[Date, np.ndarray]] = {}
    signal_index = {s.value: i for i, s in enumerate(SIGNALS)}

    for line_no, row in _open_rows(path):
        if line_no == 1:
            _check_header(path, row, _SENSOR_HEADER)
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
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_SENSOR_HEADER)
        signal_names = [s.value for s in SIGNALS]
        for p in sorted(dataset.patients, key=lambda p: p.patient_id):
            cube = dataset.sensors[p.patient_id]
            dates = [(p.observation_start + timedelta(days=d)).isoformat() for d in range(len(cube))]
            present = ~np.isnan(cube)
            # argwhere walks C order, i.e. (date, signal, hour): the file order.
            writer.writerows(
                [p.patient_id, dates[d], hour, signal_names[si], _fmt(value)]
                for (d, si, hour), value in zip(np.argwhere(present).tolist(), cube[present].tolist())
            )

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


def write_feature_matrix(feature_windows: "Sequence[FeatureWindow]", path: str | Path) -> None:
    """Delimited dump of feature vectors; missing values become empty fields."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["patient_id", "window_start", "label", *FEATURE_NAMES])
        for fw in feature_windows:
            cells = ["" if np.isnan(v) else _fmt(v) for v in fw.values]
            writer.writerow(
                [fw.spec.patient_id, fw.spec.feature_start.isoformat(), fw.label, *cells]
            )


def write_exclusions(windows: Iterable[WindowSpec], path: str | Path) -> None:
    """Sidecar log of excluded candidate windows and their reason codes."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["patient_id", "window_start", "reason"])
        for w in windows:
            if not w.evaluable:
                writer.writerow([w.patient_id, w.feature_start.isoformat(), w.exclusion])
