from __future__ import annotations

from datetime import timedelta

import numpy as np

from conftest import day, make_constant_dataset, make_patient
from relapsekit.dataio import Dataset
from relapsekit.features import extract_all, extract_features
from relapsekit.model import (
    FEATURE_INDEX,
    FEATURE_NAMES,
    SIGNALS,
    EmaRecord,
    Signal,
    signal_feature_indices,
)
from relapsekit.windowing import WindowingConfig, window_at

CONFIG = WindowingConfig()


def feature(fw, name: str) -> float:
    return float(fw.values[FEATURE_INDEX[name]])


def test_constant_signal_window_feature_pattern():
    """A signal pinned at 5 for every hour, previous window identical."""
    patient = make_patient(n_days=42)
    ds = make_constant_dataset([patient], value=5.0)
    fws = extract_all(ds, CONFIG)
    second = fws[1]  # has a previous window

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
    fw = extract_all(ds, CONFIG)[0]
    assert fw.values.shape == (100,)
    assert len(FEATURE_NAMES) == 100


def test_first_window_distance_features_missing():
    patient = make_patient(n_days=42)
    ds = make_constant_dataset([patient])
    first = extract_all(ds, CONFIG)[0]
    for signal in Signal:
        prefix = signal.value
        assert np.isnan(feature(first, f"{prefix}_dist_mdt"))
        assert np.isnan(feature(first, f"{prefix}_wdist_mdt"))
        assert np.isnan(feature(first, f"{prefix}_dist_mxdt"))
        assert not np.isnan(feature(first, f"{prefix}_mdt_mean"))


def test_no_ema_records_leaves_all_20_missing():
    patient = make_patient(n_days=42)
    ds = make_constant_dataset([patient], ema_every_day=False)
    fw = extract_all(ds, CONFIG)[0]
    block = fw.values[78:98]
    assert np.isnan(block).all()


def test_single_ema_record_mean_and_zero_std():
    patient = make_patient(n_days=42)
    ds = make_constant_dataset([patient], ema_every_day=False)
    ds.ema["p1"] = {day(3): EmaRecord("p1", day(3), (2,) * 10)}
    fw = extract_all(ds, CONFIG)[0]
    for item in range(1, 11):
        assert feature(fw, f"ema_{item:02d}_mean") == 2.0
        assert feature(fw, f"ema_{item:02d}_std") == 0.0


def test_ema_outside_window_not_counted():
    patient = make_patient(n_days=42)
    ds = make_constant_dataset([patient], ema_every_day=False)
    ds.ema["p1"] = {
        day(0): EmaRecord("p1", day(0), (0,) * 10),  # inside first feature window
        day(27): EmaRecord("p1", day(27), (2,) * 10),  # boundary day, inside
        day(28): EmaRecord("p1", day(28), (3,) * 10),  # prediction week, outside
    }
    fw = extract_all(ds, CONFIG)[0]
    assert feature(fw, "ema_01_mean") == 1.0  # mean of {0, 2}
    assert feature(fw, "ema_01_std") == 1.0


def test_demographics_always_present():
    patient = make_patient(n_days=42, age=61, education=7)
    ds = make_constant_dataset([patient])
    fw = extract_all(ds, CONFIG)[0]
    assert feature(fw, "age") == 61.0
    assert feature(fw, "education_years") == 7.0


def test_extract_all_window_count_and_order():
    patients = [make_patient(pid="pb", n_days=70), make_patient(pid="pa", n_days=70)]
    ds = make_constant_dataset(patients)
    fws = extract_all(ds, CONFIG)
    assert len(fws) == 12  # six windows per patient
    keys = [(fw.spec.patient_id, fw.spec.feature_start) for fw in fws]
    assert keys == sorted(keys)


def test_extract_all_empty_dataset():
    ds = Dataset(patients=(), sensors={}, ema={})
    assert extract_all(ds, CONFIG) == []


def test_labels_match_windowing():
    patient = make_patient(n_days=120, relapse_days=(70,))
    ds = make_constant_dataset([patient])
    fws = extract_all(ds, CONFIG)
    labels = [fw.label for fw in fws]
    assert labels == [0] * 6 + [1]


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
    ema = {
        pid: {d + delta: EmaRecord(pid, d + delta, r.items) for d, r in records.items()}
        for pid, records in ds.ema.items()
    }
    # Day 0 of each sensor array is the (shifted) observation start.
    return Dataset(patients=patients, sensors=ds.sensors, ema=ema)


def test_date_shift_leaves_feature_values_identical(rng):
    ds = varied_dataset(rng)
    shifted = shift_dataset(ds, 37)
    a = extract_all(ds, CONFIG)
    b = extract_all(shifted, CONFIG)
    assert len(a) == len(b)
    for fa, fb in zip(a, b):
        assert (fb.spec.feature_start - fa.spec.feature_start).days == 37
        np.testing.assert_array_equal(fa.values, fb.values)


def varied_dataset(rng, pid: str = "p1", n_days: int = 50) -> Dataset:
    patient = make_patient(pid=pid, n_days=n_days)
    sensors = np.empty((n_days, len(SIGNALS), 24))
    for si in range(len(SIGNALS)):
        for d in range(n_days):
            sensors[d, si] = rng.gamma(2.0, 2.0, size=24)
            sensors[d, si, rng.random(24) < 0.2] = np.nan
    ema = {
        pid: {
            day(d): EmaRecord(pid, day(d), tuple(int(v) for v in rng.integers(0, 4, size=10)))
            for d in range(0, n_days, 3)
        }
    }
    return Dataset(patients=(patient,), sensors={pid: sensors}, ema=ema)


def test_scaling_one_signal_only_touches_its_non_distance_features(rng):
    ds = varied_dataset(rng)
    scaled_sensors = ds.sensors["p1"].copy()
    scaled_sensors[:, SIGNALS.index(Signal.SOUND_LEVEL)] *= 4.0
    scaled = Dataset(patients=ds.patients, sensors={"p1": scaled_sensors}, ema=ds.ema)

    a = extract_all(ds, CONFIG)
    b = extract_all(scaled, CONFIG)
    sound = set(signal_feature_indices(Signal.SOUND_LEVEL))
    distance_names = {"dist_mdt", "wdist_mdt", "dist_mxdt"}
    sound_distance = {
        i for i in sound if FEATURE_NAMES[i].removeprefix("sound_level_") in distance_names
    }
    for fa, fb in zip(a, b):
        for i in range(100):
            va, vb = fa.values[i], fb.values[i]
            if i not in sound or i in sound_distance:
                assert (np.isnan(va) and np.isnan(vb)) or va == vb, FEATURE_NAMES[i]
        # The scale-carrying features did move with the factor.
        mean_idx = FEATURE_INDEX["sound_level_mdt_mean"]
        np.testing.assert_allclose(fb.values[mean_idx], fa.values[mean_idx] * 4.0, rtol=1e-12)


def test_extract_features_prev_window_with_no_data_leaves_distances_missing():
    patient = make_patient(n_days=42)
    ds = make_constant_dataset([patient])
    # Second window starts day 7; its previous window spans days 0..27. Wipe
    # one signal there so that signal's previous templates are all-missing.
    ds.sensors["p1"][:28, SIGNALS.index(Signal.LIGHT_LEVEL)] = np.nan
    spec = window_at("p1", day(7), (), CONFIG)
    from relapsekit.features import window_templates_for
    from relapsekit.templates import daily_averages

    prev = {s: window_templates_for(ds, "p1", s, day(0), CONFIG.window_days) for s in Signal}
    templates = {s: window_templates_for(ds, "p1", s, day(7), CONFIG.window_days) for s in Signal}
    fw = extract_features(spec, ds, templates, prev, daily_averages(ds.sensors["p1"]))
    assert np.isnan(feature(fw, "light_level_dist_mdt"))
    assert np.isnan(feature(fw, "light_level_dist_mxdt"))
    assert not np.isnan(feature(fw, "light_level_mdt_mean"))  # days 28..34 still there
    assert feature(fw, "call_duration_dist_mdt") == 0.0
