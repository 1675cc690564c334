from __future__ import annotations

from datetime import timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extraction_oracle as oracle
from conftest import day, make_constant_dataset, make_patient, no_answers
from relapsekit import features
from relapsekit.dataio import Dataset
from relapsekit.features import extract_all, extract_cohort
from relapsekit.model import (
    FEATURE_INDEX,
    FEATURE_NAMES,
    SIGNALS,
    Signal,
    feature_indices_for_modality,
)
from relapsekit.windowing import EXCLUDED_INSUFFICIENT_DATA, WindowingConfig, window_at

CONFIG = WindowingConfig()


def feature(values: np.ndarray, name: str) -> float:
    return float(values[FEATURE_INDEX[name]])


def test_constant_signal_window_feature_pattern():
    """A signal pinned at 5 for every hour, previous window identical."""
    patient = make_patient(n_days=42)
    ds = make_constant_dataset([patient], value=5.0)
    second = extract_all(ds, CONFIG).values[1]  # has a previous window

    prefix = "call_duration_"
    assert feature(second, prefix + "mdt_mean") == 5.0
    assert feature(second, prefix + "mdt_std") == 0.0
    assert feature(second, prefix + "mdt_max") == 5.0
    assert feature(second, prefix + "mdt_range") == 0.0
    assert feature(second, prefix + "mdt_skewness") == 0.0
    assert feature(second, prefix + "mdt_kurtosis") == 0.0
    assert feature(second, prefix + "ddt_mean") == 0.0
    assert feature(second, prefix + "max_diff") == 0.0
    assert feature(second, prefix + "dist_mdt") == 0.0
    assert feature(second, prefix + "wdist_mdt") == 0.0
    assert feature(second, prefix + "dist_mxdt") == 0.0
    assert feature(second, prefix + "daily_mean") == 5.0
    assert feature(second, prefix + "daily_std") == 0.0


def test_vector_has_100_canonical_features():
    patient = make_patient(n_days=42)
    ds = make_constant_dataset([patient])
    table = extract_all(ds, CONFIG)
    assert table.values.shape == (len(table), 100)
    assert len(FEATURE_NAMES) == 100


def test_first_window_distance_features_missing():
    patient = make_patient(n_days=42)
    ds = make_constant_dataset([patient])
    first = extract_all(ds, CONFIG).values[0]
    for signal in Signal:
        prefix = signal.value
        assert np.isnan(feature(first, f"{prefix}_dist_mdt"))
        assert np.isnan(feature(first, f"{prefix}_wdist_mdt"))
        assert np.isnan(feature(first, f"{prefix}_dist_mxdt"))
        assert not np.isnan(feature(first, f"{prefix}_mdt_mean"))


def test_no_ema_records_leaves_all_20_missing():
    patient = make_patient(n_days=42)
    ds = make_constant_dataset([patient], ema_every_day=False)
    block = extract_all(ds, CONFIG).values[0, 78:98]
    assert np.isnan(block).all()


def test_single_ema_record_mean_and_zero_std():
    patient = make_patient(n_days=42)
    ds = make_constant_dataset([patient], ema_every_day=False)
    ds.ema["p1"][3] = 2
    row = extract_all(ds, CONFIG).values[0]
    for item in range(1, 11):
        assert feature(row, f"ema_{item:02d}_mean") == 2.0
        assert feature(row, f"ema_{item:02d}_std") == 0.0


def test_ema_outside_window_not_counted():
    patient = make_patient(n_days=42)
    ds = make_constant_dataset([patient], ema_every_day=False)
    ds.ema["p1"][0] = 0  # inside first feature window
    ds.ema["p1"][27] = 2  # boundary day, inside
    ds.ema["p1"][28] = 3  # prediction week, outside
    row = extract_all(ds, CONFIG).values[0]
    assert feature(row, "ema_01_mean") == 1.0  # mean of {0, 2}
    assert feature(row, "ema_01_std") == 1.0


def test_ema_days_are_not_sensor_coverage():
    # An answer every day, sensor data every fifth day: 5 or 6 days in each
    # 28-day window, under the 7 that make a window evaluable.
    patient = make_patient(n_days=70)
    ds = make_constant_dataset([patient], ema_every_day=True)
    ds.sensors["p1"][np.arange(70) % 5 != 0] = np.nan
    table, candidates = extract_cohort(ds, CONFIG)
    assert len(candidates) == 6 and len(table) == 0
    assert all(spec.exclusion == EXCLUDED_INSUFFICIENT_DATA for spec in candidates)


def test_demographics_always_present():
    patient = make_patient(n_days=42, age=61, education=7)
    ds = make_constant_dataset([patient])
    row = extract_all(ds, CONFIG).values[0]
    assert feature(row, "age") == 61.0
    assert feature(row, "education_years") == 7.0


def test_extract_all_window_count_and_order():
    patients = [make_patient(pid="pb", n_days=70), make_patient(pid="pa", n_days=70)]
    ds = make_constant_dataset(patients)
    table = extract_all(ds, CONFIG)
    assert len(table) == 12  # six windows per patient
    keys = [(spec.patient_id, spec.feature_start) for spec in table.specs]
    assert keys == sorted(keys)
    assert table.patient_ids == ("pa", "pb")
    assert table.patients.tolist() == [0] * 6 + [1] * 6


def test_extract_all_empty_dataset():
    ds = Dataset(patients=(), sensors={}, ema={})
    table = extract_all(ds, CONFIG)
    assert len(table) == 0 and table.values.shape == (0, 100) and table.patient_ids == ()


def test_labels_match_windowing():
    patient = make_patient(n_days=120, relapse_days=(70,))
    ds = make_constant_dataset([patient])
    table = extract_all(ds, CONFIG)
    assert table.labels.tolist() == [spec.label for spec in table.specs] == [0] * 6 + [1]
    assert table.labels.dtype == np.int64


def shift_dataset(ds: Dataset, days: int) -> Dataset:
    delta = timedelta(days=days)
    patients = tuple(
        type(p)(
            patient_id=p.patient_id,
            age=p.age,
            education_years=p.education_years,
            relapse_dates=tuple(d + delta for d in p.relapse_dates),
            observation_start=p.observation_start + delta,
            observation_end=p.observation_end + delta,
        )
        for p in ds.patients
    )
    # Day 0 of each day array is the (shifted) observation start.
    return Dataset(patients=patients, sensors=ds.sensors, ema=ds.ema)


def test_date_shift_leaves_feature_values_identical(rng):
    ds = varied_dataset(rng)
    shifted = shift_dataset(ds, 37)
    a = extract_all(ds, CONFIG)
    b = extract_all(shifted, CONFIG)
    assert len(a) == len(b)
    for sa, sb in zip(a.specs, b.specs):
        assert (sb.feature_start - sa.feature_start).days == 37
    np.testing.assert_array_equal(a.values, b.values)


def varied_dataset(rng, pid: str = "p1", n_days: int = 50) -> Dataset:
    patient = make_patient(pid=pid, n_days=n_days)
    sensors = np.empty((n_days, len(SIGNALS), 24))
    for si in range(len(SIGNALS)):
        for d in range(n_days):
            sensors[d, si] = rng.gamma(2.0, 2.0, size=24)
            sensors[d, si, rng.random(24) < 0.2] = np.nan
    answers = no_answers(n_days)
    for d in range(0, n_days, 3):
        answers[d] = rng.integers(0, 4, size=10)
    return Dataset(patients=(patient,), sensors={pid: sensors}, ema={pid: answers})


def test_scaling_one_signal_only_touches_its_non_distance_features(rng):
    ds = varied_dataset(rng)
    scaled_sensors = ds.sensors["p1"].copy()
    scaled_sensors[:, SIGNALS.index(Signal.SOUND_LEVEL)] *= 4.0
    scaled = Dataset(patients=ds.patients, sensors={"p1": scaled_sensors}, ema=ds.ema)

    a = extract_all(ds, CONFIG)
    b = extract_all(scaled, CONFIG)
    sound = set(feature_indices_for_modality(Signal.SOUND_LEVEL.value, False))
    distance_names = {"dist_mdt", "wdist_mdt", "dist_mxdt"}
    sound_distance = {
        i for i in sound if FEATURE_NAMES[i].removeprefix("sound_level_") in distance_names
    }
    for fa, fb in zip(a.values, b.values):
        for i in range(100):
            va, vb = fa[i], fb[i]
            if i not in sound or i in sound_distance:
                assert (np.isnan(va) and np.isnan(vb)) or va == vb, FEATURE_NAMES[i]
        # The scale-carrying features did move with the factor.
        mean_idx = FEATURE_INDEX["sound_level_mdt_mean"]
        np.testing.assert_allclose(fb[mean_idx], fa[mean_idx] * 4.0, rtol=1e-12)


def test_extract_features_prev_window_with_no_data_leaves_distances_missing():
    patient = make_patient(n_days=42)
    ds = make_constant_dataset([patient])
    # Second window starts day 7; its previous window spans days 0..27. Wipe
    # one signal there so that signal's previous templates are all-missing.
    ds.sensors["p1"][:28, SIGNALS.index(Signal.LIGHT_LEVEL)] = np.nan
    spec = window_at("p1", day(7), (), CONFIG)

    prev = {s: oracle.window_templates_for(ds, "p1", s, day(0), CONFIG.window_days) for s in Signal}
    templates = {s: oracle.window_templates_for(ds, "p1", s, day(7), CONFIG.window_days) for s in Signal}
    per_window = oracle.extract_features(spec, ds, templates, prev, oracle.daily_averages(ds.sensors["p1"]))
    table = extract_all(ds, CONFIG)
    assert table.specs[1] == spec
    batched = table.values[1]
    for row in (per_window, batched):
        assert np.isnan(feature(row, "light_level_dist_mdt"))
        assert np.isnan(feature(row, "light_level_dist_mxdt"))
        assert not np.isnan(feature(row, "light_level_mdt_mean"))  # days 28..34 still there
        assert feature(row, "call_duration_dist_mdt") == 0.0
    assert batched.tobytes() == per_window.tobytes()


def test_sensor_array_shorter_than_the_span_is_an_error_not_padding():
    patient = make_patient(n_days=42)
    ds = make_constant_dataset([patient])
    short = Dataset(patients=ds.patients, sensors={"p1": ds.sensors["p1"][:30]}, ema=ds.ema)
    with pytest.raises(ValueError, match="leaves the 30-day sensor array"):
        extract_all(short, CONFIG)


def test_ema_array_without_the_sensor_days_is_an_error_not_misaligned():
    # A second patient in the block: its answers would be read a day early.
    ds = make_constant_dataset([make_patient(pid="p1", n_days=42), make_patient(pid="p2", n_days=42)])
    short = Dataset(patients=ds.patients, sensors=ds.sensors, ema={**ds.ema, "p1": ds.ema["p1"][1:]})
    with pytest.raises(ValueError, match="p1: the EMA array does not have the 42 sensor days"):
        extract_all(short, CONFIG)


# -- batched extraction against the per-window oracle ------------------------------


def sensor_signal(rng: np.random.Generator, n_days: int, kind: str) -> np.ndarray:
    """One signal's `(days, 24)` hourly means of the drawn kind."""
    if kind == "all_missing":
        return np.full((n_days, 24), np.nan)
    if kind == "constant":
        out = np.full((n_days, 24), float(rng.gamma(2.0, 2.0)))
    elif kind == "signed_zeros":  # "-0" passes ingest's value >= 0 check
        out = rng.choice([0.0, -0.0, 1.0], size=(n_days, 24))
    elif kind == "ties":
        out = rng.integers(0, 3, size=(n_days, 24)) * 0.1
    else:
        out = rng.gamma(2.0, 2.0, size=(n_days, 24))
    if kind == "single_hour":
        keep = np.zeros(24, dtype=bool)
        keep[rng.integers(0, 24)] = True
        out[:, ~keep] = np.nan
    missing_rate = rng.choice([0.0, 0.5, 0.9, 0.99, 1.0])
    out[rng.random((n_days, 24)) < missing_rate] = np.nan
    return out


SIGNAL_KINDS = ("gamma", "all_missing", "constant", "signed_zeros", "ties", "single_hour")


@st.composite
def cohorts(draw) -> tuple[Dataset, WindowingConfig]:
    window = draw(st.integers(7, 35))
    config = WindowingConfig(
        window_days=window,
        horizon_days=draw(st.integers(1, 10)),
        stride_days=draw(st.integers(1, 14)),
        cooloff_days=draw(st.sampled_from([0, 14, 28])),
        min_days_with_data=draw(st.integers(0, window + 1)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    patients, sensors, ema = [], {}, {}
    for k in range(draw(st.integers(1, 6))):
        # Some patients are too short for any window, so none is evaluable.
        n_days = draw(st.one_of(st.integers(1, 90), st.integers(1, config.window_days + config.horizon_days - 1)))
        pid = f"p{k}"
        relapses = tuple(sorted(set(draw(st.lists(st.integers(0, n_days - 1), max_size=2)))))
        patients.append(make_patient(pid=pid, n_days=n_days, relapse_days=relapses, age=20 + k))
        kinds = [draw(st.sampled_from(SIGNAL_KINDS)) for _ in SIGNALS]
        sensors[pid] = np.stack([sensor_signal(rng, n_days, kind) for kind in kinds], axis=1)
        # Answers on a drawn subset of days.
        answered = rng.permutation(n_days)[: int(rng.integers(0, n_days + 1))].tolist()
        ema[pid] = no_answers(n_days)
        for d in answered:
            ema[pid][d] = rng.integers(0, 4, size=10)
    return Dataset(patients=tuple(patients), sensors=sensors, ema=ema), config


# Blocks of one start and of five put block boundaries between patients and
# inside no patient: a patient with more starts is a block of its own.
@pytest.mark.parametrize("block_starts", [1, 5, features.BLOCK_STARTS])
@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=cohorts())
def test_batched_extraction_equals_the_per_window_oracle_bit_for_bit(block_starts, case):
    ds, config = case
    with mock.patch.object(features, "BLOCK_STARTS", block_starts):
        got, got_candidates = extract_cohort(ds, config)
    want, want_candidates = oracle.extract_cohort(ds, config)
    assert got_candidates == want_candidates
    assert got.specs == want.specs
    for spec, g, w in zip(got.specs, got.values, want.values):
        assert g.tobytes() == w.tobytes(), spec


def test_blocks_hold_whole_patients_in_order_up_to_the_start_limit():
    patients = [make_patient(pid=f"p{k}", n_days=28 + 7 + 7 * (k % 4)) for k in range(6)]
    ds = make_constant_dataset(patients)
    sizes = []
    with mock.patch.object(features, "BLOCK_STARTS", 3):
        real = features._block_days

        def spy(block, config):
            sizes.append([(own.patient.patient_id, len(own.starts)) for own in block])
            return real(block, config)

        with mock.patch.object(features, "_block_days", spy):
            table = extract_all(ds, CONFIG)
    # One to four windows, and as many starts, each; p3's four are more than a block.
    assert sizes == [[("p0", 1), ("p1", 2)], [("p2", 3)], [("p3", 4)], [("p4", 1), ("p5", 2)]]
    assert table.values.tobytes() == oracle.extract_cohort(ds, CONFIG)[0].values.tobytes()
