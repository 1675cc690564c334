"""Assembling the 100-dimensional feature vector for each evaluable window.

Per signal: six statistics of the window's mean daily template, the mean of
the deviation template, the largest mean-to-maximum gap, three normalized
template distances against the previous window, and the mean/variability of
the daily averages (13 features x 6 signals). Per EMA item: mean and
population std of the answers inside the feature window, in date order
(20). Plus age and education years. Missing data yields NaN features, never
zeros.

Extraction runs a block of patients at a time: consecutive patients, in
patient_id order, share a block while their window starts fit in
`BLOCK_STARTS`. The block's patients' days are laid end to end, and each
window is one row of day indices into them (`_block_days`). One
`(starts, 24)` stack of templates per signal covers every evaluable window
and every previous window of the block, the statistics of `templates`
reduce the stacks once per block, the EMA answers are gathered through the
same day rows, and the block's rows of the `(windows, 100)` matrix are
filled column block by column block.
Each value equals what the same statistic gives for the one window alone,
bit for bit. The cohort's windows are one `WindowTable`: that matrix, with
the specs, labels and patient index of its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .dataio import Dataset
from .model import (
    EMA_ITEM_COUNT,
    FEATURE_COUNT,
    FEATURES_PER_SIGNAL,
    SIGNALS,
    TEMPLATE_FEATURE_COUNT,
    Patient,
)
from .templates import (
    DAYTIME_HOURS,
    HOURS_PER_DAY,
    WindowTemplates,
    average_stats,
    compute_window_templates,
    daily_averages,
    max_abs_diff,
    mdt_stats,
    normalize_template,
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


# The most window starts, evaluable and previous, that one extraction block
# holds. Consecutive patients share a block while their starts fit; a patient
# with more starts is a block of its own. A block gathers its days one signal
# at a time as a `(days, starts, 24)` stack, so this bounds the transient:
# at 64 starts extraction fits in the memory ingest has freed, where 128 raised
# the peak RSS of a `wide-sparse-modality` run by about 0.5 MB.
BLOCK_STARTS = 64


@dataclass(frozen=True)
class _PatientWindows:
    """One patient's evaluable windows, each window's day offset from the
    observation start, and the sorted distinct offsets of the windows whose
    templates they read: their own and, inside the span, the one a stride
    earlier."""

    patient: Patient
    specs: list[WindowSpec]
    offsets: list[int]
    starts: np.ndarray


def _patient_windows(
    dataset: Dataset, patient: Patient, specs: list[WindowSpec], config: WindowingConfig
) -> _PatientWindows:
    """The starts of one patient's evaluable windows. They and their previous
    windows lie inside the observation span, which the day axis covers; a
    window outside it, or an EMA array whose days are not the sensors', is an
    error, never padded."""
    offsets = [(spec.feature_start - patient.observation_start).days for spec in specs]
    stride = config.stride_days
    starts = sorted(set(offsets).union(offset - stride for offset in offsets if offset >= stride))
    n_days = len(dataset.sensors[patient.patient_id])
    if starts[-1] + config.window_days > n_days:
        raise ValueError(
            f"patient {patient.patient_id}: a {config.window_days}-day window leaves the {n_days}-day sensor array"
        )
    if len(dataset.ema[patient.patient_id]) != n_days:
        raise ValueError(f"patient {patient.patient_id}: the EMA array does not have the {n_days} sensor days")
    return _PatientWindows(patient, specs, offsets, np.array(starts))


def _blocks(windows: Sequence[_PatientWindows]) -> Iterator[list[_PatientWindows]]:
    """Consecutive runs of whole patients of at most `BLOCK_STARTS` starts
    each, except a patient with more."""
    block: list[_PatientWindows] = []
    size = 0
    for own in windows:
        if block and size + len(own.starts) > BLOCK_STARTS:
            yield block
            block, size = [], 0
        block.append(own)
        size += len(own.starts)
    if block:
        yield block


def window_templates_for(daily: Sequence[np.ndarray], rows: np.ndarray) -> tuple[WindowTemplates, np.ndarray]:
    """The aggregates of one signal's daily templates over each window of
    the `(starts, days)` day rows `rows`, as `(starts, 24)` arrays, and each
    day's average (NaN: no data). `daily` holds `(n, 24)` runs of daily
    templates, whose days `rows` numbers end to end; each day is averaged
    once, however many windows hold it.

    The days are gathered day-major, `(days, starts, 24)` in memory, and
    passed as a `(starts, days, 24)` view: each day's step of the day-axis
    reductions then runs over all windows at once, in the same day order.
    """
    days = np.concatenate(daily)
    averages = daily_averages(days)
    gathered = days[rows.T]
    del days  # before the work buffers of the templates
    return compute_window_templates(gathered.swapaxes(0, 1), overwrite=True), averages


def _block_days(
    block: Sequence[_PatientWindows], config: WindowingConfig
) -> tuple[list[tuple[str, int, int]], np.ndarray, np.ndarray, np.ndarray]:
    """The days of one block, laid end to end: each patient's days from its
    first start to the end of its last window, as `(patient_id, lo, hi)`
    slices of its day arrays. With them, each start's `(window_days,)` day
    indices into that run, and for each evaluable window the index of its
    start and of the start one stride earlier (-1: none) in the block."""
    spans, first_rows, here, prev = [], [], [], []
    n_days = 0
    for own in block:
        lo, hi = int(own.starts[0]), int(own.starts[-1]) + config.window_days
        position = {start: len(first_rows) + i for i, start in enumerate(own.starts.tolist())}
        here += [position[offset] for offset in own.offsets]
        prev += [position.get(offset - config.stride_days, -1) for offset in own.offsets]
        first_rows += (own.starts + (n_days - lo)).tolist()
        spans.append((own.patient.patient_id, lo, hi))
        n_days += hi - lo
    rows = np.array(first_rows)[:, None] + np.arange(config.window_days)
    return spans, rows, np.array(here), np.array(prev)


def _rhythm_features(
    dataset: Dataset, spans: list[tuple[str, int, int]], rows: np.ndarray, here: np.ndarray, prev: np.ndarray
) -> np.ndarray:
    """The `(windows, 6, 13)` template features of one block's windows, in
    the layout of `_block_days`."""
    has_prev = prev >= 0

    mdt, ddt, mxdt = (np.empty((len(rows), len(SIGNALS), HOURS_PER_DAY)) for _ in range(3))
    averages = np.empty((len(here), len(SIGNALS), rows.shape[1]))
    for s in range(len(SIGNALS)):
        built, day_averages = window_templates_for([dataset.sensors[pid][lo:hi, s] for pid, lo, hi in spans], rows)
        mdt[:, s], ddt[:, s], mxdt[:, s] = built.mdt, built.ddt, built.mxdt
        averages[:, s] = day_averages[rows[here]]

    out = np.full((len(here), len(SIGNALS), FEATURES_PER_SIGNAL), np.nan)
    out[:, :, 0:6] = mdt_stats(mdt[here])
    out[:, :, 6] = daily_averages(ddt[here])
    out[:, :, 7] = max_abs_diff(mdt[here], mxdt[here])
    mdt_norm, mxdt_norm = normalize_template(mdt), normalize_template(mxdt)
    curr, before = here[has_prev], prev[has_prev]
    out[has_prev, :, 8] = template_distance(mdt_norm[curr], mdt_norm[before])
    out[has_prev, :, 9] = template_distance(mdt_norm[curr], mdt_norm[before], *DAYTIME_HOURS)
    out[has_prev, :, 10] = template_distance(mxdt_norm[curr], mdt_norm[before])
    out[:, :, 11], out[:, :, 12] = average_stats(averages)
    return out


def _ema_features(dataset: Dataset, spans: list[tuple[str, int, int]], window_rows: np.ndarray) -> np.ndarray:
    """The `(windows, 20)` per-item mean and population std of the answers
    on the `window_rows` days of each window of a block, in date order, by
    `average_stats` over the days with answers; NaN without answers."""
    answers = np.concatenate([dataset.ema[pid][lo:hi] for pid, lo, hi in spans]).astype(float)
    answers[answers[:, 0] < 0] = np.nan  # a day without an answer
    mean, std = average_stats(answers[window_rows].transpose(0, 2, 1))  # per (window, item)
    return np.stack((mean, std), axis=-1).reshape(len(window_rows), 2 * EMA_ITEM_COUNT)


def extract_cohort(dataset: Dataset, config: WindowingConfig) -> tuple[WindowTable, list[WindowSpec]]:
    """The window table of every evaluable window of every patient, and
    every candidate window (evaluable and excluded), each enumerated once.

    Both are ordered by (patient_id, window_start). The previous window for
    the distance features is the one exactly one stride earlier, whether or
    not that window itself was evaluable; a first window has none.
    """
    windows: list[_PatientWindows] = []
    candidates: list[WindowSpec] = []
    for patient in sorted(dataset.patients, key=lambda p: p.patient_id):
        has_data = ~np.isnan(dataset.sensors[patient.patient_id]).all(axis=(1, 2))
        own = enumerate_windows(patient, has_data, config)
        candidates.extend(own)
        if evaluable := evaluable_windows(own):
            windows.append(_patient_windows(dataset, patient, evaluable, config))
    specs = tuple(spec for own in windows for spec in own.specs)
    values = np.empty((len(specs), FEATURE_COUNT))
    row = 0
    for block in _blocks(windows):
        spans, rows, here, prev = _block_days(block, config)
        rhythm = _rhythm_features(dataset, spans, rows, here, prev)
        n = len(rhythm)
        values[row : row + n, :TEMPLATE_FEATURE_COUNT] = rhythm.reshape(n, -1)
        values[row : row + n, TEMPLATE_FEATURE_COUNT:-2] = _ema_features(dataset, spans, rows[here])
        for own in block:
            values[row : row + len(own.specs), -2:] = float(own.patient.age), float(own.patient.education_years)
            row += len(own.specs)
    return WindowTable(specs, values), candidates


def extract_all(dataset: Dataset, config: WindowingConfig) -> WindowTable:
    """The window table of `extract_cohort`."""
    return extract_cohort(dataset, config)[0]
