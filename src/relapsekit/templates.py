"""Daily 24-point signal templates and their window-level aggregates.

A daily template holds the hourly averages of one signal for one
patient-day: one `(24,)` row of a patient's `(days, 6, 24)` sensor array
(see `Dataset.sensors`). Over a feature window the daily templates, an
`(n, 24)` array, are aggregated hour-by-hour into a mean template, a
deviation template, and a maximum template, from which all rhythm
statistics derive. Missing hours stay missing (NaN) throughout; statistics
use present slots only, so an all-missing day contributes nothing.

Every function takes a batch: leading axes are independent windows (or
days, or signals), and the last axis (`compute_window_templates`: the last
two) is reduced, so a 1-D template gives a 0-d array. The
reductions keep the summation order of a single template, bit for bit:

- the day axis of `(..., n, 24)` daily templates is summed row by row, the
  hour axis staying contiguous (days never go on the last axis, where numpy
  would sum them pairwise);
- a reduction over the present slots of a row groups the rows by their
  count of present slots and packs each group's present values, in slot
  order, to the front of a `(rows, count)` array (`present_groups`), so
  each row gets the same contiguous pairwise `.mean()`/`.sum()`/`.std()`
  as its present values alone;
- `mdt_stats` raises the variance to its skewness and kurtosis powers in
  Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

HOURS_PER_DAY = 24

# Inclusive hour bounds of the weighted (daytime) distance: 9 AM - 9 PM.
DAYTIME_HOURS = (9, 21)


@dataclass(frozen=True)
class WindowTemplates:
    """Per-hour mean / deviation / maximum templates over one feature window,
    or `(..., 24)` stacks of them."""

    mdt: np.ndarray
    ddt: np.ndarray
    mxdt: np.ndarray


def compute_window_templates(days: np.ndarray, *, overwrite: bool = False) -> WindowTemplates:
    """Aggregate a window's `(n, 24)` daily templates hour-by-hour, or each
    window of a `(..., n, 24)` stack.

    Per hour, over the days where that hour is present: mean, population
    standard deviation, and maximum. A slot is missing iff no day has it.
    No days yields all-missing templates. With `overwrite`, `days` itself
    is the work buffer and holds scratch values afterwards.
    """
    missing = np.isnan(days)
    counts = days.shape[-2] - missing.sum(axis=-2)
    has = counts > 0

    # One work buffer, in the memory order of `days`: missing slots at -inf
    # for the maximum (`fmax` with -inf changes no other slot), then at 0 for
    # the sums. The means are subtracted in place, broadcast across the days.
    # The zeros are stored through views of both buffers in memory order,
    # where `putmask` runs a plain loop instead of a strided one.
    work = days if overwrite else days.copy(order="K")
    memory_order = np.argsort(work.strides, kind="stable")[::-1]
    work_stored, missing_stored = work.transpose(memory_order), missing.transpose(memory_order)
    np.fmax(work, -np.inf, out=work)
    mxdt = np.where(has, work.max(axis=-2, initial=-np.inf), np.nan)
    np.putmask(work_stored, missing_stored, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mdt = np.where(has, work.sum(axis=-2) / counts, np.nan)
        np.square(np.subtract(work, mdt[..., None, :], out=work), out=work)
        np.putmask(work_stored, missing_stored, 0.0)
        ddt = np.where(has, np.sqrt(work.sum(axis=-2) / counts), np.nan)
    # Hourly means can overshoot the hourly max by float rounding; clamp so
    # the mxdt >= mdt invariant holds exactly.
    mdt = np.where(has, np.minimum(mdt, mxdt), np.nan)
    return WindowTemplates(mdt, ddt, mxdt)


def present_groups(values: np.ndarray, present: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For each count of present slots a row of `values` (2-D) has, in
    increasing order, yield `(rows, packed)`: the indices of those rows, in
    increasing order, and their present values, in slot order, as a
    contiguous `(len(rows), count)` array. Rows without a present slot are
    never yielded; only one group is copied at a time."""
    counts = present.sum(axis=1)
    order = np.argsort(counts, kind="stable")
    row = 0
    for count, size in enumerate(np.bincount(counts).tolist()):
        if size and count:
            rows = order[row : row + size]
            yield rows, values[rows][present[rows]].reshape(size, count)
        row += size


def _rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`values` as a 2-D array of last-axis rows, and their present mask."""
    flat = values.reshape(math.prod(values.shape[:-1]), values.shape[-1])
    return flat, ~np.isnan(flat)


def mdt_stats(template: np.ndarray) -> np.ndarray:
    """Mean, population std, max, range, skewness, and excess kurtosis of
    each `(..., 24)` template, as a `(..., 6)` array.

    Computed over present slots only; all six are NaN for an all-missing
    template. Skewness and kurtosis are 0 for a constant template.
    """
    flat, present = _rows(template)
    # Each row's mean, max, min and 2nd-4th central moments, each reduced
    # over its present values alone; NaN for an all-missing row.
    moments = np.full((6, len(flat)), np.nan)
    for rows, values in present_groups(flat, present):
        mean = values.mean(axis=1)
        centered = values - mean[:, None]
        central = ((centered**k).mean(axis=1) for k in (2, 3, 4))
        moments[:, rows] = [mean, values.max(axis=1), values.min(axis=1), *central]
    mean, maximum, minimum, m2, m3, m4 = moments
    # A constant template, or one whose spread rounds to 0, has no shape.
    varies = maximum > minimum
    shaped = varies & (m2 != 0.0)
    out = np.zeros((len(flat), 6))
    out[:, 0], out[:, 2] = mean, maximum
    out[varies, 3] = (maximum - minimum)[varies]
    out[shaped, 1] = np.sqrt(m2[shaped])
    # Python floats for the powers: numpy's vectorized `** 1.5` and `** 2`
    # can differ from Python's in the last bit.
    spread = m2[shaped].tolist()
    out[shaped, 4] = m3[shaped] / np.array([m**1.5 for m in spread])
    out[shaped, 5] = m4[shaped] / np.array([m**2 for m in spread]) - 3.0
    out[~present.any(axis=1)] = np.nan
    return out.reshape(np.shape(template)[:-1] + (6,))


def max_abs_diff(mdt: np.ndarray, mxdt: np.ndarray) -> np.ndarray:
    """Largest |mdt - mxdt| over hours present in both; NaN if none shared."""
    both = ~np.isnan(mdt) & ~np.isnan(mxdt)
    gaps = np.where(both, np.abs(mdt - mxdt), -np.inf).max(axis=-1)
    return np.where(both.any(axis=-1), gaps, np.nan)


def normalize_template(template: np.ndarray) -> np.ndarray:
    """Divide each template's present slots by their maximum; a non-positive
    maximum maps every present slot to 0. Missing slots stay missing."""
    present = ~np.isnan(template)
    peak = np.where(present, template, -np.inf).max(axis=-1, keepdims=True)
    out = np.where(present, 0.0, template).astype(float, copy=False)
    np.divide(template, peak, out=out, where=present & (peak > 0))
    return out


def template_distance(
    curr: np.ndarray, prev: np.ndarray, hour_lo: int = 0, hour_hi: int = HOURS_PER_DAY - 1
) -> np.ndarray:
    """Sum of squared slot differences over [hour_lo, hour_hi], per pair of
    `(..., 24)` templates.

    Slots missing in either template contribute 0; NaN when the two
    templates share no present hour in the range. Inputs are expected to be
    normalized when used as distance features.
    """
    if not 0 <= hour_lo <= hour_hi <= HOURS_PER_DAY - 1:
        raise ValueError(f"invalid hour range [{hour_lo}, {hour_hi}]")
    c = curr[..., hour_lo : hour_hi + 1]
    p = prev[..., hour_lo : hour_hi + 1]
    both = (~np.isnan(c) & ~np.isnan(p)).reshape(-1, c.shape[-1])
    diff = (c - p).reshape(both.shape)
    out = np.full(len(diff), np.nan)
    for rows, values in present_groups(diff, both):
        out[rows] = (values**2).sum(axis=1)
    return out.reshape(c.shape[:-1])


def daily_averages(days: np.ndarray) -> np.ndarray:
    """Each day's average over its present slots, for `(..., 24)` templates;
    NaN for a day without samples.

    Every average is the same `.mean()` a single day's present values give
    (see `present_groups`).
    """
    flat, present = _rows(days)
    out = np.full(len(flat), np.nan)
    for rows, values in present_groups(flat, present):
        out[rows] = values.mean(axis=1)
    return out.reshape(days.shape[:-1])


def average_stats(averages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of the non-NaN day averages along the last
    axis; (NaN, NaN) where there are none."""
    flat, present = _rows(averages)
    mean = np.full(len(flat), np.nan)
    std = np.full(len(flat), np.nan)
    for rows, values in present_groups(flat, present):
        mean[rows] = values.mean(axis=1)
        std[rows] = values.std(axis=1)
    shape = np.shape(averages)[:-1]
    return mean.reshape(shape), std.reshape(shape)
