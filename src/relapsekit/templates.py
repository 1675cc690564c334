"""Daily 24-point signal templates and their window-level aggregates.

A daily template holds the hourly averages of one signal for one
patient-day: one `(24,)` row of a patient's `(days, 6, 24)` sensor array
(see `Dataset.sensors`). Over a feature window the daily templates, an
`(n, 24)` array, are aggregated hour-by-hour into a mean template, a
deviation template, and a maximum template, from which all rhythm
statistics derive. Missing hours stay missing (NaN) throughout; statistics
use present slots only, so an all-missing day contributes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HOURS_PER_DAY = 24

# Inclusive hour bounds of the weighted (daytime) distance: 9 AM - 9 PM.
DAYTIME_HOURS = (9, 21)


@dataclass(frozen=True)
class WindowTemplates:
    """Per-hour mean / deviation / maximum templates over one feature window."""

    mdt: np.ndarray
    ddt: np.ndarray
    mxdt: np.ndarray
    days_present: int


def compute_window_templates(days: np.ndarray) -> WindowTemplates:
    """Aggregate a window's `(n, 24)` daily templates hour-by-hour.

    Per hour, over the days where that hour is present: mean, population
    standard deviation, and maximum. A slot is missing iff no day has it.
    No days yields all-missing templates.
    """
    if len(days) == 0:
        empty = np.full(HOURS_PER_DAY, np.nan)
        return WindowTemplates(empty.copy(), empty.copy(), empty.copy(), 0)

    present = ~np.isnan(days)
    counts = present.sum(axis=0)
    filled = np.where(present, days, 0.0)

    with np.errstate(invalid="ignore", divide="ignore"):
        mdt = np.where(counts > 0, filled.sum(axis=0) / counts, np.nan)
        centered_sq = np.where(present, (days - mdt) ** 2, 0.0)
        ddt = np.where(counts > 0, np.sqrt(centered_sq.sum(axis=0) / counts), np.nan)
    mxdt = np.where(counts > 0, np.where(present, days, -np.inf).max(axis=0), np.nan)
    # Hourly means can overshoot the hourly max by float rounding; clamp so
    # the mxdt >= mdt invariant holds exactly.
    mdt = np.where(counts > 0, np.minimum(mdt, mxdt), np.nan)

    days_present = int(present.any(axis=1).sum())
    return WindowTemplates(mdt, ddt, mxdt, days_present)


def mdt_stats(template: np.ndarray) -> np.ndarray:
    """Mean, population std, max, range, skewness, and excess kurtosis.

    Computed over present slots only; all six are NaN for an all-missing
    template. Skewness and kurtosis are 0 for a constant template.
    """
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
    """Mean of the deviation template over present slots; NaN if none."""
    values = template[~np.isnan(template)]
    return float(values.mean()) if values.size else float("nan")


def max_abs_diff(mdt: np.ndarray, mxdt: np.ndarray) -> float:
    """Largest |mdt - mxdt| over hours present in both; NaN if none shared."""
    both = ~np.isnan(mdt) & ~np.isnan(mxdt)
    if not both.any():
        return float("nan")
    return float(np.abs(mdt[both] - mxdt[both]).max())


def normalize_template(template: np.ndarray) -> np.ndarray:
    """Divide present slots by their maximum; a non-positive maximum maps
    every present slot to 0. Missing slots stay missing."""
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
    """Sum of squared slot differences over [hour_lo, hour_hi].

    Slots missing in either template contribute 0; NaN when the two
    templates share no present hour in the range. Inputs are expected to be
    normalized when used as distance features.
    """
    if not 0 <= hour_lo <= hour_hi <= HOURS_PER_DAY - 1:
        raise ValueError(f"invalid hour range [{hour_lo}, {hour_hi}]")
    c = curr[hour_lo : hour_hi + 1]
    p = prev[hour_lo : hour_hi + 1]
    both = ~np.isnan(c) & ~np.isnan(p)
    if not both.any():
        return float("nan")
    diff = c[both] - p[both]
    return float((diff**2).sum())


def daily_averages(days: np.ndarray) -> np.ndarray:
    """Each day's average over its present slots, for `(..., 24)` templates;
    NaN for a day without samples.

    Days are grouped by their count of present slots and each group's present
    values are packed to the front of a `(days, count)` array, so every
    average is the same `.mean()` a single day's present values give.
    """
    flat = days.reshape(-1, HOURS_PER_DAY)
    present = ~np.isnan(flat)
    counts = present.sum(axis=1)
    out = np.full(len(flat), np.nan)
    for count in np.unique(counts[counts > 0]).tolist():
        group = np.flatnonzero(counts == count)
        out[group] = flat[group][present[group]].reshape(-1, count).mean(axis=1)
    return out.reshape(days.shape[:-1])


def average_stats(averages: np.ndarray) -> tuple[float, float]:
    """Mean and population std of the non-NaN day averages; (NaN, NaN) if none."""
    values = averages[~np.isnan(averages)]
    if not values.size:
        return float("nan"), float("nan")
    return float(values.mean()), float(values.std())
