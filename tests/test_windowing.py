from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import day, make_patient
from relapsekit.windowing import (
    EXCLUDED_COOLOFF,
    EXCLUDED_INSUFFICIENT_DATA,
    NON_RELAPSE,
    RELAPSE,
    WindowingConfig,
    enumerate_windows,
    evaluable_windows,
)

FULL = WindowingConfig()


def full_coverage(n_days: int) -> list[bool]:
    return [True] * n_days


def covering(n_days: int, covered_days) -> list[bool]:
    """The has-data vector of an `n_days` span with data on `covered_days`."""
    return [k in covered_days for k in range(n_days)]


def starts(windows) -> list[int]:
    return [(w.feature_start - day(0)).days for w in windows]


def test_window_geometry():
    patient = make_patient(n_days=40)
    windows = enumerate_windows(patient, full_coverage(40), FULL)
    w = windows[0]
    assert (w.feature_end - w.feature_start).days == 27
    assert (w.predict_start - w.feature_end).days == 1
    assert (w.predict_end - w.predict_start).days == 6


def test_relapse_at_day_70_hand_enumeration():
    """120 observed days, relapse on day 70, full data.

    Candidates start every 7 days; day 35 predicts days 63-69 (no relapse),
    day 42 predicts days 70-76 (relapse). Cool-off then blocks every start
    before day 76 + 28 = 104; the first aligned start at or past it is 105,
    whose prediction window (days 133-139) overruns day 119, so enumeration
    ends with the relapse window.
    """
    patient = make_patient(n_days=120, relapse_days=(70,))
    windows = enumerate_windows(patient, full_coverage(120), FULL)

    emitted = evaluable_windows(windows)
    assert starts(emitted) == [0, 7, 14, 21, 28, 35, 42]
    assert [w.label for w in emitted] == [NON_RELAPSE] * 6 + [RELAPSE]

    by_start = {(w.feature_start - day(0)).days: w for w in windows}
    assert (by_start[35].predict_start - day(0)).days == 63
    assert (by_start[35].predict_end - day(0)).days == 69
    assert (by_start[42].predict_start - day(0)).days == 70
    assert by_start[42].label == RELAPSE

    cooled = [w for w in windows if w.exclusion == EXCLUDED_COOLOFF]
    assert starts(cooled) == [49, 56, 63, 70, 77, 84]
    # Largest candidate start: prediction must fit inside 120 observed days.
    assert max(starts(windows)) == 84


def test_longer_observation_resumes_after_cooloff():
    patient = make_patient(n_days=150, relapse_days=(70,))
    windows = enumerate_windows(patient, full_coverage(150), FULL)
    emitted = starts(evaluable_windows(windows))
    assert [s for s in emitted if s > 42] == [105, 112]


def test_no_relapse_70_days_full_data_gives_six_windows():
    patient = make_patient(n_days=70)
    windows = enumerate_windows(patient, full_coverage(70), FULL)
    assert starts(windows) == [0, 7, 14, 21, 28, 35]
    assert all(w.evaluable and w.label == NON_RELAPSE for w in windows)


def test_early_relapse_never_labeled():
    # A 28-day feature window cannot precede a relapse on day 10.
    patient = make_patient(n_days=70, relapse_days=(10,))
    windows = enumerate_windows(patient, full_coverage(70), FULL)
    assert all(w.label == NON_RELAPSE for w in windows)


def test_cooloff_zero_and_no_min_days_gives_plain_grid():
    config = WindowingConfig(cooloff_days=0, min_days_with_data=0)
    patient = make_patient(n_days=120, relapse_days=(70,))
    windows = enumerate_windows(patient, [], config)
    assert starts(windows) == list(range(0, 85, 7))
    assert all(w.evaluable for w in windows)


def test_insufficient_data_exclusion():
    patient = make_patient(n_days=70)
    coverage = covering(70, range(40, 70))  # first windows nearly empty
    windows = enumerate_windows(patient, coverage, FULL)
    reasons = {s: w.exclusion for s, w in zip(starts(windows), windows)}
    assert reasons[0] == EXCLUDED_INSUFFICIENT_DATA
    assert reasons[35] is None  # feature days 35..62 has 23 covered days


def test_relapse_window_excluded_for_data_still_opens_cooloff():
    patient = make_patient(n_days=150, relapse_days=(70,))
    coverage = covering(150, set(range(150)) - set(range(42, 70)))  # starve window 42
    windows = enumerate_windows(patient, coverage, FULL)
    by_start = {s: w for s, w in zip(starts(windows), windows)}
    assert by_start[42].label == RELAPSE
    assert by_start[42].exclusion == EXCLUDED_INSUFFICIENT_DATA
    assert by_start[49].exclusion == EXCLUDED_COOLOFF
    emitted_after = [s for s in starts(evaluable_windows(windows)) if s > 42]
    assert emitted_after and min(emitted_after) == 105


def test_relapse_labels_bounded_by_relapse_dates(rng):
    for _ in range(50):
        n_days = int(rng.integers(40, 250))
        n_relapses = int(rng.integers(0, 4))
        relapse_days = tuple(sorted(rng.choice(n_days, size=n_relapses, replace=False).tolist()))
        patient = make_patient(n_days=n_days, relapse_days=relapse_days)
        windows = enumerate_windows(patient, full_coverage(n_days), FULL)
        emitted = evaluable_windows(windows)

        assert sum(w.label for w in emitted) <= len(relapse_days)
        for w in emitted:
            assert patient.observation_start <= w.predict_start
            assert w.predict_end <= patient.observation_end

        relapse_windows = [w for w in emitted if w.label == RELAPSE]
        for a, b in zip(relapse_windows, relapse_windows[1:]):
            assert a.predict_end < b.predict_start  # prediction windows disjoint


def test_exclusion_helpers_partition():
    patient = make_patient(n_days=120, relapse_days=(70,))
    windows = enumerate_windows(patient, full_coverage(120), FULL)
    assert len(evaluable_windows(windows)) + len([w for w in windows if not w.evaluable]) == len(windows)


def oracle_windows(n_days, relapse_days, covered_days, config):
    """Every candidate as (start, feature end, predict start, predict end,
    label, exclusion) in fixture day numbers, walking the calendar a day at
    a time. A relapse-labelled candidate cools every later start before its
    prediction end plus `cooloff_days`."""
    out, cooled = [], set()
    for start in range(0, n_days, config.stride_days):
        feature = list(range(start, start + config.window_days))
        predict = list(range(feature[-1] + 1, feature[-1] + 1 + config.horizon_days))
        if predict[-1] >= n_days:
            break
        label = RELAPSE if any(d in relapse_days for d in predict) else NON_RELAPSE
        exclusion = None
        if start in cooled:
            exclusion = EXCLUDED_COOLOFF
        elif sum(d in covered_days for d in feature) < config.min_days_with_data:
            exclusion = EXCLUDED_INSUFFICIENT_DATA
        out.append((start, feature[-1], predict[0], predict[-1], label, exclusion))
        if label == RELAPSE and config.cooloff_days > 0:
            cooled.update(range(start + 1, predict[-1] + config.cooloff_days))
    return out


@st.composite
def windowing_cases(draw):
    n_days = draw(st.integers(1, 80))
    window = draw(st.integers(1, 12))
    config = WindowingConfig(
        window_days=window,
        horizon_days=draw(st.integers(1, 6)),
        stride_days=draw(st.integers(1, 8)),
        cooloff_days=draw(st.integers(0, 20)),
        min_days_with_data=draw(st.integers(0, window + 1)),
    )
    days = st.integers(0, n_days - 1)
    relapse_days = tuple(sorted(draw(st.sets(days, max_size=4))))
    # As long as the span, or shorter (its tail has no data) or longer.
    length = draw(st.one_of(st.just(n_days), st.integers(0, n_days + 5)))
    has_data = draw(st.lists(st.booleans(), min_size=length, max_size=length))
    return n_days, relapse_days, has_data, config


@settings(derandomize=True, max_examples=300, deadline=None)
@given(windowing_cases())
def test_enumerate_windows_matches_day_by_day_oracle(case):
    n_days, relapse_days, has_data, config = case
    patient = make_patient(n_days=n_days, relapse_days=relapse_days)
    windows = enumerate_windows(patient, has_data, config)
    got = [
        (
            (w.feature_start - day(0)).days,
            (w.feature_end - day(0)).days,
            (w.predict_start - day(0)).days,
            (w.predict_end - day(0)).days,
            w.label,
            w.exclusion,
        )
        for w in windows
    ]
    covered_days = {k for k, covered in enumerate(has_data) if covered}
    assert got == oracle_windows(n_days, set(relapse_days), covered_days, config)
