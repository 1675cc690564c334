"""Per-window feature extraction, kept as the oracle of the batched path.

These are the scalar statistic bodies of `relapsekit.templates` and the
per-window `extract_features` loop of `relapsekit.features` as they were
before extraction was batched, first over each patient's windows and now
over blocks of patients. Each takes one window (one `(n, 24)` array of
daily templates, one `(24,)` template), so its sums are those of a single
window. The batched functions must return the same bytes, wherever the
block boundaries fall.
"""

from __future__ import annotations

import math
from datetime import date as Date
from datetime import timedelta
from typing import Mapping

import numpy as np

from relapsekit.dataio import Dataset
from relapsekit.features import WindowTable
from relapsekit.model import (
    EMA_ITEM_COUNT,
    FEATURE_COUNT,
    FEATURES_PER_SIGNAL,
    SIGNALS,
    TEMPLATE_FEATURE_COUNT,
    Patient,
    Signal,
)
from relapsekit.templates import DAYTIME_HOURS, HOURS_PER_DAY, WindowTemplates
from relapsekit.windowing import WindowingConfig, WindowSpec, enumerate_windows, evaluable_windows

# -- scalar statistics -------------------------------------------------------------


def window_templates(days: np.ndarray) -> WindowTemplates:
    """One window's `(n, 24)` daily templates aggregated hour by hour."""
    if len(days) == 0:
        empty = np.full(HOURS_PER_DAY, np.nan)
        return WindowTemplates(empty.copy(), empty.copy(), empty.copy())

    present = ~np.isnan(days)
    counts = present.sum(axis=0)
    filled = np.where(present, days, 0.0)

    with np.errstate(invalid="ignore", divide="ignore"):
        mdt = np.where(counts > 0, filled.sum(axis=0) / counts, np.nan)
        centered_sq = np.where(present, (days - mdt) ** 2, 0.0)
        ddt = np.where(counts > 0, np.sqrt(centered_sq.sum(axis=0) / counts), np.nan)
    mxdt = np.where(counts > 0, np.where(present, days, -np.inf).max(axis=0), np.nan)
    mdt = np.where(counts > 0, np.minimum(mdt, mxdt), np.nan)
    return WindowTemplates(mdt, ddt, mxdt)


def mdt_stats(template: np.ndarray) -> np.ndarray:
    values = template[~np.isnan(template)]
    if values.size == 0:
        return np.full(6, np.nan)
    mean = float(values.mean())
    maximum = float(values.max())
    minimum = float(values.min())
    rng = maximum - minimum
    if maximum == minimum:
        return np.array([mean, 0.0, maximum, 0.0, 0.0, 0.0])
    centered = values - mean
    m2 = max(float((centered**2).mean()), 0.0)
    if m2 == 0.0:
        return np.array([mean, 0.0, maximum, rng, 0.0, 0.0])
    skew = float((centered**3).mean()) / m2**1.5
    kurt = float((centered**4).mean()) / m2**2 - 3.0
    return np.array([mean, math.sqrt(m2), maximum, rng, skew, kurt])


def ddt_mean(template: np.ndarray) -> float:
    values = template[~np.isnan(template)]
    return float(values.mean()) if values.size else float("nan")


def max_abs_diff(mdt: np.ndarray, mxdt: np.ndarray) -> float:
    both = ~np.isnan(mdt) & ~np.isnan(mxdt)
    if not both.any():
        return float("nan")
    return float(np.abs(mdt[both] - mxdt[both]).max())


def normalize_template(template: np.ndarray) -> np.ndarray:
    out = template.astype(float).copy()
    present = ~np.isnan(out)
    if not present.any():
        return out
    peak = out[present].max()
    if peak <= 0:
        out[present] = 0.0
    else:
        out[present] = out[present] / peak
    return out


def template_distance(
    curr: np.ndarray, prev: np.ndarray, hour_lo: int = 0, hour_hi: int = HOURS_PER_DAY - 1
) -> float:
    if not 0 <= hour_lo <= hour_hi <= HOURS_PER_DAY - 1:
        raise ValueError(f"invalid hour range [{hour_lo}, {hour_hi}]")
    c = curr[hour_lo : hour_hi + 1]
    p = prev[hour_lo : hour_hi + 1]
    both = ~np.isnan(c) & ~np.isnan(p)
    if not both.any():
        return float("nan")
    diff = c[both] - p[both]
    return float((diff**2).sum())


def average_stats(averages: np.ndarray) -> tuple[float, float]:
    values = averages[~np.isnan(averages)]
    if not values.size:
        return float("nan"), float("nan")
    return float(values.mean()), float(values.std())


def daily_averages(days: np.ndarray) -> np.ndarray:
    """Each day's own `.mean()` over its present slots, one day at a time."""
    flat = days.reshape(-1, HOURS_PER_DAY)
    out = np.full(len(flat), np.nan)
    for i, row in enumerate(flat):
        values = row[~np.isnan(row)]
        if values.size:
            out[i] = values.mean()
    return out.reshape(days.shape[:-1])


# -- per-window extraction -----------------------------------------------------------


def _patient(dataset: Dataset, patient_id: str) -> Patient:
    return next(p for p in dataset.patients if p.patient_id == patient_id)


def _day_rows(patient: Patient, start: Date, days: int) -> slice:
    offset = (start - patient.observation_start).days
    return slice(max(offset, 0), max(offset + days, 0))


def window_templates_for(dataset: Dataset, patient_id: str, signal: Signal, start: Date, days: int) -> WindowTemplates:
    """One window's aggregates of one signal."""
    rows = _day_rows(_patient(dataset, patient_id), start, days)
    return window_templates(dataset.sensors[patient_id][rows, SIGNALS.index(signal)])


def extract_features(
    window: WindowSpec,
    dataset: Dataset,
    templates: Mapping[Signal, WindowTemplates],
    prev_templates: Mapping[Signal, WindowTemplates] | None,
    averages: np.ndarray,
) -> np.ndarray:
    """One window's feature vector; `prev_templates` is None for a first window."""
    patient = _patient(dataset, window.patient_id)
    window_days = (window.feature_end - window.feature_start).days + 1
    feature_days = _day_rows(patient, window.feature_start, window_days)
    window_averages = averages[feature_days]
    values = np.full(FEATURE_COUNT, np.nan)

    for si, signal in enumerate(SIGNALS):
        wt = templates[signal]
        base = si * FEATURES_PER_SIGNAL
        values[base : base + 6] = mdt_stats(wt.mdt)
        values[base + 6] = ddt_mean(wt.ddt)
        values[base + 7] = max_abs_diff(wt.mdt, wt.mxdt)
        if prev_templates is not None:
            prev_mdt_norm = normalize_template(prev_templates[signal].mdt)
            curr_mdt_norm = normalize_template(wt.mdt)
            curr_mxdt_norm = normalize_template(wt.mxdt)
            values[base + 8] = template_distance(curr_mdt_norm, prev_mdt_norm)
            values[base + 9] = template_distance(curr_mdt_norm, prev_mdt_norm, *DAYTIME_HOURS)
            values[base + 10] = template_distance(curr_mxdt_norm, prev_mdt_norm)
        values[base + 11], values[base + 12] = average_stats(window_averages[:, si])

    # The window's answered days, in date order.
    answers = [day for day in dataset.ema[window.patient_id][feature_days] if day[0] >= 0]
    if answers:
        matrix = np.array(answers, dtype=float)
        for item in range(EMA_ITEM_COUNT):
            values[TEMPLATE_FEATURE_COUNT + 2 * item] = matrix[:, item].mean()
            values[TEMPLATE_FEATURE_COUNT + 2 * item + 1] = matrix[:, item].std()

    values[FEATURE_COUNT - 2] = float(patient.age)
    values[FEATURE_COUNT - 1] = float(patient.education_years)
    return values


def extract_cohort(dataset: Dataset, config: WindowingConfig) -> tuple[WindowTable, list[WindowSpec]]:
    """Window by window, each window's and previous window's templates built once."""
    specs: list[WindowSpec] = []
    rows: list[np.ndarray] = []
    candidates: list[WindowSpec] = []
    for patient in sorted(dataset.patients, key=lambda p: p.patient_id):
        sensors = dataset.sensors[patient.patient_id]
        has_data = [not np.isnan(sensors[d]).all() for d in range(len(sensors))]
        own = enumerate_windows(patient, has_data, config)
        candidates.extend(own)
        averages = daily_averages(sensors)
        built: dict[Date, dict[Signal, WindowTemplates]] = {}
        for spec in evaluable_windows(own):
            prev_start = spec.feature_start - timedelta(days=config.stride_days)
            for start in (spec.feature_start, prev_start):
                if start >= patient.observation_start and start not in built:
                    built[start] = {
                        signal: window_templates_for(dataset, patient.patient_id, signal, start, config.window_days)
                        for signal in SIGNALS
                    }
            prev = built.get(prev_start)
            specs.append(spec)
            rows.append(extract_features(spec, dataset, built[spec.feature_start], prev, averages))
    return WindowTable(tuple(specs), np.array(rows).reshape(len(rows), FEATURE_COUNT)), candidates
