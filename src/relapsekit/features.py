"""Assembling the 100-dimensional feature vector for each evaluable window.

Per signal: six statistics of the window's mean daily template, the mean of
the deviation template, the largest mean-to-maximum gap, three normalized
template distances against the previous window, and the mean/variability of
the daily averages (13 features x 6 signals). Per EMA item: mean and
population std of the answers inside the feature window (20). Plus age and
education years. Missing data yields NaN features, never zeros.

Extraction runs one patient at a time over all of that patient's windows:
one `(starts, 24)` stack of templates per signal covers every evaluable
window and every previous window, the statistics of `templates` reduce the
stacks, and the patient's `(windows, 100)` matrix is filled column block by
column block. Each value equals what the same statistic gives for the one
window alone, bit for bit. The cohort's windows are one `WindowTable`:
the patients' matrices stacked into one `(windows, 100)` matrix, with the
specs, labels and patient index of its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date as Date
from datetime import timedelta
from typing import Mapping, Sequence

import numpy as np

from .dataio import Dataset
from .model import (
    EMA_ITEM_COUNT,
    FEATURE_COUNT,
    FEATURES_PER_SIGNAL,
    SIGNALS,
    TEMPLATE_FEATURE_COUNT,
    EmaRecord,
    Patient,
    Signal,
)
from .templates import (
    DAYTIME_HOURS,
    WindowTemplates,
    average_stats,
    compute_window_templates,
    daily_averages,
    max_abs_diff,
    mdt_stats,
    normalize_template,
    present_groups,
    template_distance,
)
from .windowing import WindowingConfig, WindowSpec, enumerate_windows, evaluable_windows


@dataclass(frozen=True, eq=False)
class WindowTable:
    """The prediction instances of a cohort: one row per evaluable window,
    in (patient_id, window_start) order.

    `values` is the `(windows, 100)` feature matrix. `labels` (int64),
    `patients` (each row's index into `patient_ids`, the sorted ids of the
    patients with a window) follow from `specs`.
    """

    specs: tuple[WindowSpec, ...]
    values: np.ndarray
    labels: np.ndarray = field(init=False)
    patients: np.ndarray = field(init=False)
    patient_ids: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.values.shape != (len(self.specs), FEATURE_COUNT):
            raise ValueError(f"expected ({len(self.specs)}, {FEATURE_COUNT}) feature values, got {self.values.shape}")
        keys = [(spec.patient_id, spec.feature_start) for spec in self.specs]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("window rows must be in strictly increasing (patient_id, window_start) order")
        ids = [spec.patient_id for spec in self.specs]
        index = {pid: k for k, pid in enumerate(dict.fromkeys(ids))}
        object.__setattr__(self, "labels", np.array([spec.label for spec in self.specs], dtype=np.int64))
        object.__setattr__(self, "patients", np.array([index[pid] for pid in ids], dtype=np.int64))
        object.__setattr__(self, "patient_ids", tuple(index))

    def __len__(self) -> int:
        return len(self.specs)


def _window_rows(dataset: Dataset, patient_id: str, starts: Sequence[Date], days: int) -> np.ndarray:
    """The `(starts, days)` day-axis rows of the windows [start, start + days).

    Evaluable windows and their previous windows lie inside the observation
    span, which the day axis covers; a window outside it is an error, never
    padded.
    """
    first = dataset.patient(patient_id).observation_start
    offsets = np.array([(start - first).days for start in starts], dtype=np.int64)
    n_days = len(dataset.sensors[patient_id])
    if offsets.size and (offsets.min() < 0 or offsets.max() + days > n_days):
        raise ValueError(f"patient {patient_id}: a {days}-day window leaves the {n_days}-day sensor array")
    return offsets[:, None] + np.arange(days)


def window_templates_for(
    dataset: Dataset, patient_id: str, signal: Signal, starts: Sequence[Date], days: int
) -> WindowTemplates:
    """The aggregates of one signal's daily templates over each window
    [start, start + days), as `(len(starts), 24)` arrays; days without data
    are all-missing rows.

    The days are gathered day-major, `(days, starts, 24)` in memory, and
    passed as a `(starts, days, 24)` view: each day's step of the day-axis
    reductions then runs over all windows at once, in the same day order.
    """
    daily = dataset.sensors[patient_id][:, SIGNALS.index(signal)]
    return compute_window_templates(daily[_window_rows(dataset, patient_id, starts, days).T].swapaxes(0, 1))


def _rhythm_features(
    dataset: Dataset, patient: Patient, specs: Sequence[WindowSpec], config: WindowingConfig
) -> np.ndarray:
    """The `(windows, 6, 13)` template features of one patient's windows."""
    pid = patient.patient_id
    stride = timedelta(days=config.stride_days)
    prev_starts = [spec.feature_start - stride for spec in specs]
    starts = sorted({spec.feature_start for spec in specs} | {s for s in prev_starts if s >= patient.observation_start})
    position = {start: i for i, start in enumerate(starts)}
    here = np.array([position[spec.feature_start] for spec in specs])
    prev = np.array([position.get(start, -1) for start in prev_starts])
    has_prev = prev >= 0

    # The daily averages first and the output last, so that neither is alive
    # next to the largest arrays, the gathered days of one signal.
    rows = _window_rows(dataset, pid, [spec.feature_start for spec in specs], config.window_days)
    daily_mean, daily_std = average_stats(daily_averages(dataset.sensors[pid])[rows].swapaxes(1, 2))

    built = [window_templates_for(dataset, pid, signal, starts, config.window_days) for signal in SIGNALS]
    mdt, ddt, mxdt = (np.stack([getattr(wt, name) for wt in built], axis=1) for name in ("mdt", "ddt", "mxdt"))
    del built  # (starts, signals, 24) stacks from here on

    out = np.full((len(specs), len(SIGNALS), FEATURES_PER_SIGNAL), np.nan)
    out[:, :, 0:6] = mdt_stats(mdt[here])
    out[:, :, 6] = daily_averages(ddt[here])
    out[:, :, 7] = max_abs_diff(mdt[here], mxdt[here])
    mdt_norm, mxdt_norm = normalize_template(mdt), normalize_template(mxdt)
    curr, before = here[has_prev], prev[has_prev]
    out[has_prev, :, 8] = template_distance(mdt_norm[curr], mdt_norm[before])
    out[has_prev, :, 9] = template_distance(mdt_norm[curr], mdt_norm[before], *DAYTIME_HOURS)
    out[has_prev, :, 10] = template_distance(mxdt_norm[curr], mdt_norm[before])
    out[:, :, 11], out[:, :, 12] = daily_mean, daily_std
    return out


def _ema_features(
    records: Mapping[Date, EmaRecord], specs: Sequence[WindowSpec], first: Date, days: int
) -> np.ndarray:
    """The `(windows, 20)` per-item mean and population std of the answers
    inside each feature window, in record order; NaN without answers."""
    out = np.full((len(specs), 2 * EMA_ITEM_COUNT), np.nan)
    if not records:
        return out
    answered = np.array([(d - first).days for d in records])
    answers = np.array([r.items for r in records.values()], dtype=float)
    lo = np.array([(spec.feature_start - first).days for spec in specs])[:, None]
    inside = (answered >= lo) & (answered < lo + days)
    record_index = np.broadcast_to(np.arange(len(answered)), inside.shape)
    # Windows grouped by answer count; each item's answers contiguous, (g, 10, n).
    for rows, picked in present_groups(record_index, inside):
        items = np.ascontiguousarray(answers[picked].transpose(0, 2, 1))
        out[rows, 0::2] = items.mean(axis=-1)
        out[rows, 1::2] = items.std(axis=-1)
    return out


def extract_cohort(dataset: Dataset, config: WindowingConfig) -> tuple[WindowTable, list[WindowSpec]]:
    """The window table of every evaluable window of every patient, and
    every candidate window (evaluable and excluded), each enumerated once.

    Both are ordered by (patient_id, window_start). The previous window for
    the distance features is the one exactly one stride earlier, whether or
    not that window itself was evaluable; a first window has none.
    """
    specs: list[WindowSpec] = []
    matrices: list[np.ndarray] = []
    candidates: list[WindowSpec] = []
    for patient in sorted(dataset.patients, key=lambda p: p.patient_id):
        pid = patient.patient_id
        own = enumerate_windows(patient, patient.relapse_dates, dataset.sensor_dates(pid), config)
        candidates.extend(own)
        evaluable = evaluable_windows(own)
        if not evaluable:
            continue
        n = len(evaluable)
        rhythm = _rhythm_features(dataset, patient, evaluable, config).reshape(n, TEMPLATE_FEATURE_COUNT)
        ema = _ema_features(dataset.ema_records(pid), evaluable, patient.observation_start, config.window_days)
        demographics = np.broadcast_to([float(patient.age), float(patient.education_years)], (n, 2))
        specs.extend(evaluable)
        matrices.append(np.concatenate([rhythm, ema, demographics], axis=1))
    values = np.concatenate(matrices) if matrices else np.empty((0, FEATURE_COUNT))
    return WindowTable(tuple(specs), values), candidates


def extract_all(dataset: Dataset, config: WindowingConfig) -> WindowTable:
    """The window table of `extract_cohort`."""
    return extract_cohort(dataset, config)[0]
