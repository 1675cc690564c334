from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from relapsekit.templates import (
    average_stats,
    compute_window_templates,
    daily_averages,
    ddt_mean,
    max_abs_diff,
    mdt_stats,
    normalize_template,
    template_distance,
)

def hours_array(present: dict[int, float]) -> np.ndarray:
    hours = np.full(24, np.nan)
    for h, v in present.items():
        hours[h] = v
    return hours


# -- compute_window_templates ------------------------------------------------


def test_two_day_aggregates_match_hand_computation():
    # hour 3 values {2, 4}: mean 3, population std 1, max 4
    wt = compute_window_templates(np.array([hours_array({3: 2.0}), hours_array({3: 4.0})]))
    assert wt.mdt[3] == 3.0
    assert wt.ddt[3] == 1.0
    assert wt.mxdt[3] == 4.0
    assert wt.days_present == 2
    assert np.isnan(wt.mdt[4])


def test_single_day_window_has_zero_deviation():
    wt = compute_window_templates(np.array([hours_array({3: 2.0, 9: 7.0})]))
    present = ~np.isnan(wt.ddt)
    assert (wt.ddt[present] == 0.0).all()
    assert np.array_equal(wt.mxdt[present], wt.mdt[present])


def test_empty_window_is_all_missing():
    wt = compute_window_templates(np.empty((0, 24)))
    assert np.isnan(wt.mdt).all() and np.isnan(wt.ddt).all() and np.isnan(wt.mxdt).all()
    assert wt.days_present == 0


# -- mdt_stats ----------------------------------------------------------------


def test_constant_template_stats():
    stats = mdt_stats(np.full(24, 5.0))
    assert stats.tolist() == [5.0, 0.0, 5.0, 0.0, 0.0, 0.0]


def test_hour_index_template_stats_match_direct_moments():
    # Oracle: direct moment computation on 0..23 with pure-python loops.
    values = list(range(24))
    mean = sum(values) / 24
    m2 = sum((v - mean) ** 2 for v in values) / 24
    m3 = sum((v - mean) ** 3 for v in values) / 24
    m4 = sum((v - mean) ** 4 for v in values) / 24
    expected = [mean, math.sqrt(m2), 23.0, 23.0, m3 / m2**1.5, m4 / m2**2 - 3.0]

    stats = mdt_stats(np.arange(24, dtype=float))
    assert stats[0] == pytest.approx(11.5)
    assert stats[2] == 23.0
    assert stats[3] == 23.0
    np.testing.assert_allclose(stats, expected, rtol=1e-12)


def test_single_slot_stats():
    stats = mdt_stats(hours_array({5: 7.0}))
    assert stats.tolist() == [7.0, 0.0, 7.0, 0.0, 0.0, 0.0]


def test_all_missing_stats_are_missing():
    assert np.isnan(mdt_stats(np.full(24, np.nan))).all()


# -- ddt_mean / max_abs_diff ---------------------------------------------------


def test_ddt_mean_examples():
    assert ddt_mean(np.zeros(24)) == 0.0
    assert ddt_mean(hours_array({0: 1.0, 1: 3.0})) == 2.0
    assert math.isnan(ddt_mean(np.full(24, np.nan)))


def test_max_abs_diff_examples():
    t = np.full(24, 3.0)
    assert max_abs_diff(t, t) == 0.0
    assert max_abs_diff(hours_array({3: 3.0}), hours_array({3: 4.0})) == 1.0
    assert math.isnan(max_abs_diff(hours_array({3: 3.0}), hours_array({5: 4.0})))


# -- normalize_template ---------------------------------------------------------


def test_normalize_examples():
    out = normalize_template(hours_array({0: 2.0, 1: 4.0}))
    assert out[0] == 0.5 and out[1] == 1.0
    assert np.isnan(out[2])

    assert (normalize_template(np.zeros(24)) == 0.0).all()
    assert (normalize_template(np.full(24, 3.0)) == 1.0).all()


def test_normalize_preserves_missing_and_input():
    t = hours_array({0: 2.0, 1: 4.0})
    before = t.copy()
    normalize_template(t)
    np.testing.assert_array_equal(np.isnan(t), np.isnan(before))
    np.testing.assert_array_equal(t[~np.isnan(t)], before[~np.isnan(before)])


# -- template_distance ----------------------------------------------------------


def test_distance_zero_for_identical():
    t = normalize_template(np.arange(24, dtype=float))
    assert template_distance(t, t) == 0.0


def test_distance_unit_terms():
    assert template_distance(np.ones(24), np.zeros(24)) == 24.0
    assert template_distance(np.ones(24), np.zeros(24), 9, 21) == 13.0


def test_distance_missing_slot_contributes_zero():
    curr = np.ones(24)
    prev = np.zeros(24)
    prev[5] = np.nan
    assert template_distance(curr, prev) == 23.0


def test_distance_no_overlap_is_missing():
    assert math.isnan(template_distance(hours_array({0: 1.0}), hours_array({1: 1.0})))


def test_distance_invalid_range_rejected():
    with pytest.raises(ValueError):
        template_distance(np.ones(24), np.ones(24), 5, 3)


# -- daily averages ---------------------------------------------------------------


def daily_average_stats(days: np.ndarray) -> tuple[float, float]:
    """Oracle: the per-day loop that extraction ran in every window before
    `daily_averages` computed each patient's day averages once."""
    averages = []
    for row in days:
        values = row[~np.isnan(row)]
        if values.size:
            averages.append(values.mean())
    if not averages:
        return float("nan"), float("nan")
    arr = np.array(averages)
    return float(arr.mean()), float(arr.std())


def test_daily_average_stats_examples():
    two = np.array([hours_array({0: 2.0}), hours_array({0: 4.0})])
    assert average_stats(daily_averages(two)) == (3.0, 1.0)

    one = np.array([hours_array({0: 2.0, 5: 4.0}), hours_array({})])  # a day without data is skipped
    assert average_stats(daily_averages(one)) == (3.0, 0.0)

    for no_data in (np.empty((0, 24)), np.full((3, 24), np.nan)):
        mean, std = average_stats(daily_averages(no_data))
        assert math.isnan(mean) and math.isnan(std)


@st.composite
def sensor_cubes(draw) -> np.ndarray:
    """A `(days, 6, 24)` array with a drawn missing rate from 0 to 100%, plus
    an all-missing and a single-hour day-signal row when there is room."""
    n_days = draw(st.integers(0, 40))
    shape = (n_days, 6, 24)
    values = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1e6, allow_subnormal=False)))
    draws = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
    cube = np.where(draws < draw(st.floats(0.0, 1.0)), np.nan, values)
    if n_days:
        cube[draw(st.integers(0, n_days - 1)), draw(st.integers(0, 5))] = np.nan
        d, s = draw(st.integers(0, n_days - 1)), draw(st.integers(0, 5))
        cube[d, s] = np.nan
        cube[d, s, draw(st.integers(0, 23))] = draw(st.floats(0.0, 1e6))
    return cube


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cube=sensor_cubes(), data=st.data())
def test_daily_averages_equal_each_rows_own_mean_bit_for_bit(cube, data):
    averages = daily_averages(cube)
    assert averages.shape == cube.shape[:2]
    for (d, s), average in np.ndenumerate(averages):
        values = cube[d, s][~np.isnan(cube[d, s])]
        assert average == values.mean() if values.size else np.isnan(average)
    lo = data.draw(st.integers(0, len(cube)))
    hi = data.draw(st.integers(lo, len(cube)))
    for s in range(6):
        got, want = average_stats(averages[lo:hi, s]), daily_average_stats(cube[lo:hi, s])
        assert got == want or (np.isnan(got).all() and np.isnan(want).all())


# -- randomized property suite -------------------------------------------------


def random_window(rng: np.random.Generator, n_days: int | None = None) -> np.ndarray:
    n_days = int(rng.integers(0, 29)) if n_days is None else n_days
    out = np.empty((n_days, 24))
    for d in range(n_days):
        out[d] = rng.gamma(2.0, 2.0, size=24)
        out[d, rng.random(24) < rng.uniform(0.0, 0.6)] = np.nan
    return out


def check_window_invariants(daily: np.ndarray) -> None:
    wt = compute_window_templates(daily)
    both = ~np.isnan(wt.mdt)
    assert np.array_equal(both, ~np.isnan(wt.ddt))
    assert np.array_equal(both, ~np.isnan(wt.mxdt))
    assert (wt.mxdt[both] >= wt.mdt[both]).all()
    assert (wt.mdt[both] >= 0.0).all()
    assert (wt.ddt[both] >= 0.0).all()

    norm = normalize_template(wt.mdt)
    present = ~np.isnan(norm)
    if present.any():
        assert (norm[present] >= 0.0).all() and (norm[present] <= 1.0).all()
        if np.nanmax(wt.mdt) > 0:
            assert norm[present].max() == 1.0


def test_randomized_window_invariants(rng):
    for _ in range(300):
        check_window_invariants(random_window(rng))


def test_distance_symmetry_and_zero_iff_equal(rng):
    for _ in range(200):
        a = normalize_template(random_window(rng, 5)[0] if rng.random() < 0.5 else rng.gamma(2, 2, 24))
        b = normalize_template(rng.gamma(2.0, 2.0, size=24))
        d_ab = template_distance(a, b)
        d_ba = template_distance(b, a)
        assert d_ab == d_ba
        overlap = ~np.isnan(a) & ~np.isnan(b)
        if overlap.any():
            agrees = np.array_equal(a[overlap], b[overlap])
            assert (d_ab == 0.0) == agrees
        w = template_distance(a, b, 9, 21)
        if not math.isnan(w) and not math.isnan(d_ab):
            assert w <= d_ab + 1e-12


def test_statistics_invariant_under_reordering(rng):
    # Reordering permutes float summation order, so compare at 1e-12 rather
    # than bit-for-bit; the pipeline itself always passes date-ordered days.
    daily = random_window(rng, 10)
    shuffled = daily.copy()
    rng.shuffle(shuffled)
    a = compute_window_templates(daily)
    b = compute_window_templates(shuffled)
    np.testing.assert_allclose(a.mdt, b.mdt, rtol=1e-12, equal_nan=True)
    np.testing.assert_allclose(a.ddt, b.ddt, rtol=1e-12, atol=1e-12, equal_nan=True)
    np.testing.assert_array_equal(a.mxdt, b.mxdt)
    assert a.days_present == b.days_present


def test_scaling_samples_scales_aggregates_but_not_normalized(rng):
    for _ in range(50):
        daily = random_window(rng, 8)
        c = float(rng.uniform(0.1, 10.0))
        a = compute_window_templates(daily)
        b = compute_window_templates(daily * c)
        np.testing.assert_allclose(b.mdt, a.mdt * c, rtol=1e-9, equal_nan=True)
        np.testing.assert_allclose(b.ddt, a.ddt * c, rtol=1e-9, atol=1e-12, equal_nan=True)
        np.testing.assert_allclose(b.mxdt, a.mxdt * c, rtol=1e-9, equal_nan=True)
        na = normalize_template(a.mdt)
        nb = normalize_template(b.mdt)
        np.testing.assert_allclose(nb, na, rtol=1e-9, equal_nan=True)
