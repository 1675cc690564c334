"""The cohort in memory, its interchange format, and every pipeline output.

The interchange format, declared here once for the reader (`ingest`) and
the writers, is four UTF-8 CSV files with a header row and ISO-8601 dates:

    sensors.csv   patient_id,date,hour,signal,value
    ema.csv       patient_id,date,item_1,...,item_10
    patients.csv  patient_id,age,education_years[,observation_start,observation_end]
    relapses.csv  patient_id,relapse_date

All writers are deterministic — the same in-memory object always produces
byte-identical files — and write what `csv.writer` writes, every file but
`sensors.csv` through `_write_csv`. `write_dataset` builds each patient's
`sensors.csv` lines as one `(rows, 4)` array of strings, joined once: the
day field (`patient_id,YYYY-MM-DD`, the id quoted as csv quotes it), one of
144 fixed `,hour,signal,` fields, `repr` of the value (the shortest string
that reads back as the same float, and the only per-row work left) and the
newline. The strings stay Python strings, so an id may hold any character.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .model import EMA_ITEM_COUNT, FEATURE_NAMES, HOURS_PER_DAY, SIGNALS, Patient
from .windowing import WindowSpec

if TYPE_CHECKING:  # pragma: no cover
    from .evaluate import EvalReport
    from .features import WindowTable

# In `load_dataset`'s argument order, keyed as `write_dataset`'s paths and the CLI's input flags.
COHORT_FILES = {"sensors": "sensors.csv", "ema": "ema.csv", "patients": "patients.csv", "relapses": "relapses.csv"}

SENSOR_HEADER = ["patient_id", "date", "hour", "signal", "value"]
EMA_HEADER = ["patient_id", "date"] + [f"item_{i}" for i in range(1, EMA_ITEM_COUNT + 1)]
PATIENT_HEADER = ["patient_id", "age", "education_years"]
PATIENT_HEADER_FULL = PATIENT_HEADER + ["observation_start", "observation_end"]
RELAPSE_HEADER = ["patient_id", "relapse_date"]
DAY_CELLS = len(SIGNALS) * HOURS_PER_DAY  # a day's cells, flat in (signal, hour) order: signal * 24 + hour

EXCLUDED_OUTSIDE_SPAN = "outside_observation_span"


@dataclass(frozen=True)
class IngestExclusion:
    file: str
    line: int
    reason: str


@dataclass(eq=False)
class Dataset:
    """The validated in-memory cohort, one day layout per patient: day 0 is
    the patient's observation_start, and both arrays have one row per day of
    its span.

    `sensors` maps each patient_id to one `(days, 6, 24)` float array of
    hourly means: signals are in `SIGNALS` order, and NaN marks an hour with
    no samples, so an all-NaN day is a day without data. Duplicate rows are
    already averaged. As loaded with declared spans, the arrays are disjoint
    views of one buffer. `ema` maps each patient_id to one `(days, 10)` int8
    array of that day's self-report answers (0..3), items in order; -1 fills
    the row of a day without a record. Treat instances as immutable.
    """

    patients: tuple[Patient, ...]
    sensors: dict[str, np.ndarray]
    ema: dict[str, np.ndarray]
    ingest_exclusions: tuple[IngestExclusion, ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# Writers. All output is deterministic: fixed ordering, fixed formatting.
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    """Shortest round-trip decimal form, so re-loading is lossless."""
    return repr(float(value))


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _csv_field(text: str) -> str:
    """`text` as `csv.writer` writes it in a row of several fields."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow([text, ""])
    return line.getvalue()[:-2]


# `,hour,signal,` for each cell of a day, in flat (signal, hour) order.
_CELL_FIELDS = np.array([f",{hour},{s.value}," for s in SIGNALS for hour in range(HOURS_PER_DAY)], dtype=object)


def _sensor_lines(patient: Patient, cube: np.ndarray) -> str:
    """One `sensors.csv` line per present hour of the patient's `cube`, in file order."""
    pid = _csv_field(patient.patient_id)
    start = patient.observation_start
    day_fields = np.array([f"{pid},{(start + timedelta(days=d)).isoformat()}" for d in range(len(cube))], dtype=object)
    at = np.flatnonzero(~np.isnan(cube))  # flat C order is (date, signal, hour): the file order
    day, cell = np.divmod(at, DAY_CELLS)
    lines = np.empty((at.size, 4), dtype=object)
    lines[:, 0] = day_fields[day]
    lines[:, 1] = _CELL_FIELDS[cell]
    lines[:, 2] = list(map(repr, np.take(cube, at).tolist()))
    lines[:, 3] = "\n"
    return "".join(lines.ravel().tolist())


def write_dataset(dataset: Dataset, out_dir: str | Path) -> dict[str, Path]:
    """Emit the four interchange files for a dataset; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / file for name, file in COHORT_FILES.items()}

    patients = sorted(dataset.patients, key=lambda p: p.patient_id)
    rows = (
        [p.patient_id, p.age, p.education_years, p.observation_start.isoformat(), p.observation_end.isoformat()]
        for p in patients
    )
    _write_csv(paths["patients"], PATIENT_HEADER_FULL, rows)

    with paths["sensors"].open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerow(SENSOR_HEADER)
        for p in patients:
            handle.write(_sensor_lines(p, dataset.sensors[p.patient_id]))

    rows = (
        [p.patient_id, (p.observation_start + timedelta(days=d)).isoformat(), *dataset.ema[p.patient_id][d].tolist()]
        for p in patients
        for d in np.flatnonzero(dataset.ema[p.patient_id][:, 0] >= 0).tolist()
    )
    _write_csv(paths["ema"], EMA_HEADER, rows)
    rows = ([p.patient_id, date.isoformat()] for p in patients for date in p.relapse_dates)
    _write_csv(paths["relapses"], RELAPSE_HEADER, rows)

    return paths


def write_predictions(report: "EvalReport", path: str | Path) -> None:
    """One row per evaluated window: identity, dates, label, prediction, score."""
    header = ["patient_id", "window_start", "window_end", "prediction_date_range", "label", "predicted", "score"]
    rows = (
        [
            spec.patient_id,
            spec.feature_start.isoformat(),
            spec.feature_end.isoformat(),
            f"{spec.predict_start.isoformat()}/{spec.predict_end.isoformat()}",
            spec.label,
            predicted,
            _fmt(score),
        ]
        for spec, predicted, score in zip(report.specs, report.predicted.tolist(), report.scores.tolist())
    )
    _write_csv(path, header, rows)


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
    rows = (
        [spec.patient_id, spec.feature_start.isoformat(), spec.label, *["" if np.isnan(v) else _fmt(v) for v in row]]
        for spec, row in zip(table.specs, table.values)
    )
    _write_csv(path, ["patient_id", "window_start", "label", *FEATURE_NAMES], rows)


def write_exclusions(windows: Iterable[WindowSpec], path: str | Path) -> None:
    """Sidecar log of excluded candidate windows and their reason codes."""
    rows = ([w.patient_id, w.feature_start.isoformat(), w.exclusion] for w in windows if not w.evaluable)
    _write_csv(path, ["patient_id", "window_start", "reason"], rows)
