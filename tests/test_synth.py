from __future__ import annotations

import numpy as np
import pytest

from relapsekit.dataio import load_dataset
from relapsekit.model import SIGNALS, Signal
from relapsekit.synth import DEFAULT_RHYTHMS, ProdromalSpec, RhythmSpec, SynthConfig, generate
from relapsekit.templates import HOURS_PER_DAY


def small_config(**overrides) -> SynthConfig:
    defaults = dict(patient_count=5, days_per_patient=60, seed=42)
    defaults.update(overrides)
    return SynthConfig(**defaults)


def test_same_seed_gives_byte_identical_files(tmp_path):
    for name in ("a", "b"):
        generate(small_config(), out_dir=tmp_path / name)
    for filename in ("sensors.csv", "ema.csv", "patients.csv", "relapses.csv"):
        assert (tmp_path / "a" / filename).read_bytes() == (tmp_path / "b" / filename).read_bytes()


def test_different_seed_differs(tmp_path):
    generate(small_config(), out_dir=tmp_path / "a")
    generate(small_config(seed=43), out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "sensors.csv").read_bytes() != (tmp_path / "b" / "sensors.csv").read_bytes()


def test_generated_files_pass_ingestion(tmp_path):
    generate(small_config(), out_dir=tmp_path)
    ds = load_dataset(
        tmp_path / "sensors.csv", tmp_path / "ema.csv", tmp_path / "patients.csv", tmp_path / "relapses.csv"
    )
    assert len(ds.patients) == 5
    assert ds.ingest_exclusions == ()


def test_roundtrip_matches_generated_dataset(tmp_path):
    config = small_config()
    ds = generate(config, out_dir=tmp_path)
    again = load_dataset(
        tmp_path / "sensors.csv", tmp_path / "ema.csv", tmp_path / "patients.csv", tmp_path / "relapses.csv"
    )
    assert again.patients == ds.patients
    assert again.sensors.keys() == ds.sensors.keys()
    for pid, sensors in ds.sensors.items():
        np.testing.assert_array_equal(again.sensors[pid], sensors)


def test_relapse_fraction_and_middle_placement():
    config = small_config(patient_count=10, days_per_patient=100, relapse_fraction=0.5)
    ds = generate(config)
    with_relapse = [p for p in ds.patients if p.relapse_dates]
    assert len(with_relapse) == 5
    for p in with_relapse:
        offset = (p.relapse_dates[0] - p.observation_start).days
        assert 20 <= offset < 80  # uniform in the middle 60% of a 100-day span


def test_sample_count_tracks_missing_rate():
    config = small_config(patient_count=3, days_per_patient=40, missing_rate=0.25)
    ds = generate(config)
    for p in ds.patients:
        for si in range(len(SIGNALS)):
            present = int((~np.isnan(ds.sensors[p.patient_id][:, si])).sum())
            total = 40 * HOURS_PER_DAY
            expected = total * 0.75
            sigma = (total * 0.25 * 0.75) ** 0.5
            assert abs(present - expected) <= 3 * sigma


def test_zero_noise_zero_missing_reproduces_base_rhythm_exactly():
    rhythms = {
        signal: RhythmSpec(
            base=spec.base,
            amplitude=spec.amplitude,
            peak_hour=spec.peak_hour,
            width_hours=spec.width_hours,
            noise_std=0.0,
        )
        for signal, spec in DEFAULT_RHYTHMS.items()
    }
    config = small_config(
        patient_count=2, days_per_patient=10, relapse_fraction=0.0, rhythms=rhythms, missing_rate=0.0
    )
    ds = generate(config)
    from relapsekit.synth import _rhythm_curve

    for si, signal in enumerate(SIGNALS):
        curve = _rhythm_curve(rhythms[signal])
        for values in ds.sensors["p1"][:, si]:
            np.testing.assert_array_equal(values, curve)


def test_ema_rate_roughly_three_per_week():
    config = small_config(patient_count=4, days_per_patient=70, ema_per_week=3.0)
    ds = generate(config)
    counts = [int((ds.ema[p.patient_id][:, 0] >= 0).sum()) for p in ds.patients]
    expected = 70 * 3 / 7
    sigma = (70 * (3 / 7) * (4 / 7)) ** 0.5
    for c in counts:
        assert abs(c - expected) <= 4 * sigma


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        small_config(relapse_fraction=1.5)
    with pytest.raises(ValueError):
        small_config(missing_rate=-0.1)
    with pytest.raises(ValueError):
        SynthConfig(patient_count=0)
    with pytest.raises(ValueError):
        small_config(prodrome=ProdromalSpec(magnitude=-1.0))
    with pytest.raises(ValueError, match="onset_days"):
        small_config(prodrome=ProdromalSpec(onset_days=-3))


def test_null_magnitude_keeps_prodromal_days_unshifted():
    base = small_config(patient_count=6, days_per_patient=80, relapse_fraction=0.5)
    null = small_config(
        patient_count=6,
        days_per_patient=80,
        relapse_fraction=0.5,
        prodrome=ProdromalSpec(magnitude=0.0),
    )
    ds_base = generate(base)
    ds_null = generate(null)
    # same seed, same draws: only the injected shift differs
    relapse_pid = next(p.patient_id for p in ds_base.patients if p.relapse_dates)
    changed = 0
    base_sensors, null_sensors = ds_base.sensors[relapse_pid], ds_null.sensors[relapse_pid]
    for signal in (Signal.CALL_DURATION, Signal.LIGHT_LEVEL):
        si = SIGNALS.index(signal)
        for values, other in zip(base_sensors[:, si], null_sensors[:, si]):
            if not np.array_equal(values, other, equal_nan=True):
                changed += 1
    assert changed > 0  # call_duration prodromal days moved
    light = SIGNALS.index(Signal.LIGHT_LEVEL)
    np.testing.assert_array_equal(base_sensors[:, light], null_sensors[:, light])
