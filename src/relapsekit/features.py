"""Assembling the 100-dimensional feature vector for each evaluable window.

Per signal: six statistics of the window's mean daily template, the mean of
the deviation template, the largest mean-to-maximum gap, three normalized
template distances against the previous window, and the mean/variability of
the daily averages (13 features x 6 signals). Per EMA item: mean and
population std of the answers inside the feature window (20). Plus age and
education years. Missing data yields NaN features, never zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date as Date
from datetime import timedelta
from typing import Mapping

import numpy as np

from .dataio import Dataset
from .model import (
    EMA_ITEM_COUNT,
    FEATURE_COUNT,
    FEATURES_PER_SIGNAL,
    SIGNALS,
    TEMPLATE_FEATURE_COUNT,
    Patient,
    Signal,
)
from .templates import (
    DAYTIME_HOURS,
    WindowTemplates,
    compute_window_templates,
    daily_average_stats,
    ddt_mean,
    max_abs_diff,
    mdt_stats,
    normalize_template,
    template_distance,
)
from .windowing import WindowingConfig, WindowSpec, enumerate_windows, evaluable_windows


@dataclass(frozen=True)
class FeatureWindow:
    """One prediction instance: a window, its 100 feature values, its label."""

    spec: WindowSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (FEATURE_COUNT,):
            raise ValueError(f"expected {FEATURE_COUNT} features, got {self.values.shape}")

    @property
    def label(self) -> int:
        return self.spec.label


def _sensor_days(dataset: Dataset, patient: Patient, signal_index: int, start: Date, days: int) -> np.ndarray:
    """The `(n, 24)` daily templates of one signal for [start, start + days)
    within the observation span; days without data are all-missing rows."""
    offset = (start - patient.observation_start).days
    lo, hi = max(offset, 0), max(offset + days, 0)
    return dataset.sensors[patient.patient_id][lo:hi, signal_index]


def window_templates_for(
    dataset: Dataset, patient_id: str, signal: Signal, start: Date, days: int
) -> WindowTemplates:
    patient = dataset.patient(patient_id)
    return compute_window_templates(_sensor_days(dataset, patient, SIGNALS.index(signal), start, days))


def extract_features(
    window: WindowSpec,
    dataset: Dataset,
    templates: Mapping[Signal, WindowTemplates],
    prev_templates: Mapping[Signal, WindowTemplates] | None,
) -> FeatureWindow:
    """Build one window's feature vector.

    `templates` holds the window's own aggregates per signal and
    `prev_templates` those of the window one stride earlier; pass None for
    a patient's first window, which leaves the three distance features
    missing.
    """
    patient = dataset.patient(window.patient_id)
    window_days = (window.feature_end - window.feature_start).days + 1
    values = np.full(FEATURE_COUNT, np.nan)

    for si, signal in enumerate(SIGNALS):
        daily = _sensor_days(dataset, patient, si, window.feature_start, window_days)
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
        values[base + 11], values[base + 12] = daily_average_stats(daily)

    records = dataset.ema_records(window.patient_id)
    answers: list[tuple[int, ...]] = [
        records[d].items
        for d in records
        if window.feature_start <= d <= window.feature_end
    ]
    if answers:
        matrix = np.array(answers, dtype=float)
        for item in range(EMA_ITEM_COUNT):
            values[TEMPLATE_FEATURE_COUNT + 2 * item] = matrix[:, item].mean()
            values[TEMPLATE_FEATURE_COUNT + 2 * item + 1] = matrix[:, item].std()

    values[FEATURE_COUNT - 2] = float(patient.age)
    values[FEATURE_COUNT - 1] = float(patient.education_years)
    return FeatureWindow(spec=window, values=values)


def extract_cohort(dataset: Dataset, config: WindowingConfig) -> tuple[list[FeatureWindow], list[WindowSpec]]:
    """Feature windows for every evaluable window of every patient, and
    every candidate window (evaluable and excluded), each enumerated once.

    Both lists are ordered by (patient_id, window_start). The previous
    window for the distance features is the one exactly one stride earlier,
    whether or not that window itself was evaluable; a first window has none.
    """
    out: list[FeatureWindow] = []
    candidates: list[WindowSpec] = []
    for patient in sorted(dataset.patients, key=lambda p: p.patient_id):
        coverage = dataset.sensor_dates(patient.patient_id)
        own = enumerate_windows(patient, patient.relapse_dates, coverage, config)
        candidates.extend(own)
        built: dict[Date, dict[Signal, WindowTemplates]] = {}  # by window start, each built once
        for spec in evaluable_windows(own):
            prev_start = spec.feature_start - timedelta(days=config.stride_days)
            for start in (spec.feature_start, prev_start):
                if start >= patient.observation_start and start not in built:
                    built[start] = {
                        signal: window_templates_for(dataset, patient.patient_id, signal, start, config.window_days)
                        for signal in SIGNALS
                    }
            out.append(extract_features(spec, dataset, built[spec.feature_start], built.get(prev_start)))
    return out, candidates


def extract_all(dataset: Dataset, config: WindowingConfig) -> list[FeatureWindow]:
    """The feature windows of `extract_cohort`."""
    return extract_cohort(dataset, config)[0]
