"""Sliding-window enumeration, relapse labeling, and the cool-off rule.

Each patient's timeline is cut into candidate (feature window, prediction
window) pairs on a grid anchored at the patient's observation start. A
window is labeled relapse when a relapse date falls inside its prediction
week. Candidates can be excluded from evaluation for insufficient sensor
coverage or because they fall in the cool-off span after a relapse window.
Coverage is a per-day has-data vector in the cohort's day layout: entry 0
is the observation start.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date as Date
from datetime import timedelta
from itertools import count
from typing import Collection, Iterable, Sequence

import numpy as np

from .model import Patient

RELAPSE = 1
NON_RELAPSE = 0

EXCLUDED_INSUFFICIENT_DATA = "insufficient_data"
EXCLUDED_COOLOFF = "cooloff"


@dataclass(frozen=True)
class WindowingConfig:
    window_days: int = 28
    horizon_days: int = 7
    stride_days: int = 7
    cooloff_days: int = 28
    min_days_with_data: int = 7

    def __post_init__(self) -> None:
        for name in ("window_days", "horizon_days", "stride_days"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.cooloff_days < 0 or self.min_days_with_data < 0:
            raise ValueError("cooloff_days and min_days_with_data must be >= 0")


@dataclass(frozen=True)
class WindowSpec:
    """One candidate prediction instance for one patient.

    `exclusion` is None for evaluable windows, otherwise a reason code.
    """

    patient_id: str
    feature_start: Date
    feature_end: Date
    predict_start: Date
    predict_end: Date
    label: int
    exclusion: str | None = None

    @property
    def evaluable(self) -> bool:
        return self.exclusion is None


def window_at(
    patient_id: str,
    feature_start: Date,
    relapse_dates: Collection[Date],
    config: WindowingConfig,
) -> WindowSpec:
    """Lay out one candidate window starting at `feature_start` and label it."""
    feature_end = feature_start + timedelta(days=config.window_days - 1)
    predict_start = feature_end + timedelta(days=1)
    predict_end = predict_start + timedelta(days=config.horizon_days - 1)
    label = RELAPSE if any(predict_start <= d <= predict_end for d in relapse_dates) else NON_RELAPSE
    return WindowSpec(patient_id, feature_start, feature_end, predict_start, predict_end, label)


def enumerate_windows(
    patient: Patient, has_data: Sequence[bool] | np.ndarray, config: WindowingConfig
) -> list[WindowSpec]:
    """All candidate windows for one patient, in start order.

    Candidates advance from the observation start by the stride; those whose
    prediction window runs past the observation end are dropped. Each is
    labeled from `patient.relapse_dates`. `has_data[d]` is true when day `d`
    of the observation span has any sensor data; days past its end have
    none. A candidate is excluded (not evaluable) when fewer than
    `min_days_with_data` feature days have data, or when it starts inside
    the cool-off span of an earlier relapse-labeled candidate. With
    cooloff_days = 0 the cool-off rule is disabled entirely.
    """
    # covered[d]: days with data before day d, so a window's count is one difference.
    covered = np.concatenate(([0], np.cumsum(has_data))).tolist()
    last = len(covered) - 1
    windows: list[WindowSpec] = []
    cooloff_until: Date | None = None

    for offset in count(0, config.stride_days):
        start = patient.observation_start + timedelta(days=offset)
        spec = window_at(patient.patient_id, start, patient.relapse_dates, config)
        if spec.predict_end > patient.observation_end:
            break

        days_with_data = covered[min(offset + config.window_days, last)] - covered[min(offset, last)]
        if cooloff_until is not None and spec.feature_start < cooloff_until:
            spec = replace(spec, exclusion=EXCLUDED_COOLOFF)
        elif days_with_data < config.min_days_with_data:
            spec = replace(spec, exclusion=EXCLUDED_INSUFFICIENT_DATA)
        windows.append(spec)

        # Every relapse-labeled candidate opens a cool-off span, whether or
        # not it was itself evaluable: the relapse contaminates what follows.
        if spec.label == RELAPSE and config.cooloff_days > 0:
            boundary = spec.predict_end + timedelta(days=config.cooloff_days)
            if cooloff_until is None or boundary > cooloff_until:
                cooloff_until = boundary

    return windows


def evaluable_windows(windows: Iterable[WindowSpec]) -> list[WindowSpec]:
    return [w for w in windows if w.evaluable]

