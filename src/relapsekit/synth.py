"""Seeded synthetic cohorts with controllable rhythms and pre-relapse shifts.

Each patient gets a smooth 24-hour base rhythm per signal (a unimodal bump
at a signal-specific peak hour) plus Gaussian noise, hourly samples dropped
at the configured missing rate, and roughly-thrice-weekly self-reports. A
chosen fraction of patients receives one relapse date; in the days leading
up to it, affected signals shift upward by a multiple of their noise level
and self-report answers drift higher. Everything is a pure function of the
seed, so the same configuration always produces byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date as Date
from datetime import timedelta
from pathlib import Path
from typing import Mapping

import numpy as np

from .dataio import Dataset, write_dataset
from .model import EMA_ITEM_COUNT, HOURS_PER_DAY, SIGNALS, Patient, Signal


@dataclass(frozen=True)
class RhythmSpec:
    """One signal's daily shape: base + amplitude * bump(peak, width) + noise."""

    base: float
    amplitude: float
    peak_hour: float
    width_hours: float
    noise_std: float


@dataclass(frozen=True)
class ProdromalSpec:
    """Behavioral shift injected in the days before a relapse."""

    signals: tuple[Signal, ...] = (Signal.CALL_DURATION, Signal.DISTANCE_TRAVELED)
    onset_days: int = 21
    magnitude: float = 3.0  # mean shift in units of each signal's noise std
    peak_shift_hours: float = 0.0


DEFAULT_RHYTHMS: dict[Signal, RhythmSpec] = {
    Signal.ACCEL_MAGNITUDE: RhythmSpec(base=0.2, amplitude=1.0, peak_hour=14, width_hours=5, noise_std=0.3),
    Signal.LIGHT_LEVEL: RhythmSpec(base=5.0, amplitude=80.0, peak_hour=13, width_hours=4, noise_std=20.0),
    Signal.DISTANCE_TRAVELED: RhythmSpec(base=0.1, amplitude=2.0, peak_hour=17, width_hours=4, noise_std=0.6),
    Signal.CALL_DURATION: RhythmSpec(base=0.5, amplitude=6.0, peak_hour=19, width_hours=3, noise_std=2.0),
    Signal.SOUND_LEVEL: RhythmSpec(base=30.0, amplitude=25.0, peak_hour=12, width_hours=6, noise_std=8.0),
    Signal.CONVERSATION_DURATION: RhythmSpec(base=1.0, amplitude=10.0, peak_hour=18, width_hours=4, noise_std=3.0),
}


@dataclass(frozen=True)
class SynthConfig:
    patient_count: int = 20
    days_per_patient: int = 120
    relapse_fraction: float = 0.5
    rhythms: Mapping[Signal, RhythmSpec] = field(default_factory=lambda: dict(DEFAULT_RHYTHMS))
    prodrome: ProdromalSpec = field(default_factory=ProdromalSpec)
    ema_per_week: float = 3.0
    missing_rate: float = 0.1
    start_date: Date = Date(2021, 1, 4)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.patient_count < 1 or self.days_per_patient < 1:
            raise ValueError("patient_count and days_per_patient must be >= 1")
        if not 0.0 <= self.relapse_fraction <= 1.0:
            raise ValueError("relapse_fraction must be in [0, 1]")
        if not 0.0 <= self.missing_rate <= 1.0:
            raise ValueError("missing_rate must be in [0, 1]")
        if not 0.0 <= self.ema_per_week / 7.0 <= 1.0:
            raise ValueError("ema_per_week must be in [0, 7]")
        for name in ("magnitude", "peak_shift_hours"):
            if not math.isfinite(getattr(self.prodrome, name)):
                raise ValueError(f"prodromal {name} must be finite")
        if self.prodrome.magnitude < 0:
            raise ValueError("prodromal magnitude must be >= 0")
        if self.prodrome.onset_days < 0:
            raise ValueError("prodromal onset_days must be >= 0")


def _circular_hour_distance(hours: np.ndarray, peak: float) -> np.ndarray:
    """Each hour's distance from `peak` around the 24-hour clock, in [0, 12]
    for any finite `peak`, so a peak shift of s and of s + 24 are the same."""
    raw = np.abs(hours - peak) % HOURS_PER_DAY
    return np.minimum(raw, HOURS_PER_DAY - raw)


def _rhythm_curve(spec: RhythmSpec, peak_shift: float = 0.0) -> np.ndarray:
    hours = np.arange(HOURS_PER_DAY, dtype=float)
    dist = _circular_hour_distance(hours, spec.peak_hour + peak_shift)
    return spec.base + spec.amplitude * np.exp(-0.5 * (dist / spec.width_hours) ** 2)


def generate(config: SynthConfig, out_dir: str | Path | None = None) -> Dataset:
    """Build a synthetic Dataset; optionally also write the four interchange
    files to `out_dir`."""
    root = np.random.SeedSequence(config.seed)
    n = config.patient_count
    children = root.spawn(n + 1)
    cohort_rng = np.random.default_rng(children[0])
    patient_seeds = children[1:]

    n_relapse = int(round(config.relapse_fraction * n))
    relapse_patients = (
        set(cohort_rng.choice(n, size=n_relapse, replace=False).tolist()) if n_relapse else set()
    )
    width = len(str(max(n, 1)))
    patients: list[Patient] = []
    sensors: dict[str, np.ndarray] = {}
    ema: dict[str, np.ndarray] = {}

    days = config.days_per_patient
    start = config.start_date
    end = start + timedelta(days=days - 1)

    for p in range(n):
        pid = f"p{p + 1:0{width}d}"
        rng = np.random.default_rng(patient_seeds[p])
        age = int(rng.integers(18, 66))
        education = int(rng.integers(5, 15))

        relapse_dates: tuple[Date, ...] = ()
        prodromal = np.zeros(days, dtype=bool)
        if p in relapse_patients:
            lo = int(0.2 * days)
            hi = max(int(0.8 * days), lo + 1)
            relapse_day = int(rng.integers(lo, hi))
            relapse_dates = (start + timedelta(days=relapse_day),)
            onset = max(relapse_day - config.prodrome.onset_days, 0)
            prodromal[onset:relapse_day] = True

        cube = np.empty((days, len(SIGNALS), HOURS_PER_DAY))
        for si, signal in enumerate(SIGNALS):
            spec = config.rhythms[signal]
            curve = _rhythm_curve(spec)
            shifted_curve = _rhythm_curve(spec, config.prodrome.peak_shift_hours)
            affected = signal in config.prodrome.signals

            values = np.tile(curve, (days, 1))
            if affected and prodromal.any():
                values[prodromal] = shifted_curve + config.prodrome.magnitude * spec.noise_std
            if spec.noise_std > 0:
                values = values + rng.normal(0.0, spec.noise_std, size=(days, HOURS_PER_DAY))
            values = np.clip(values, 0.0, None)
            present = rng.random((days, HOURS_PER_DAY)) >= config.missing_rate
            cube[:, si] = np.where(present, values, np.nan)
        sensors[pid] = cube

        responded = rng.random(days) < config.ema_per_week / 7.0
        base_p = 0.25
        shift_p = min(0.1 * config.prodrome.magnitude, 1.0 - base_p)
        answers = np.full((days, EMA_ITEM_COUNT), -1, dtype=np.int8)
        # One draw for every answered day, row by row: the same stream as one call per day.
        p_item = np.where(prodromal[responded], base_p + shift_p, base_p)
        answers[responded] = rng.binomial(3, p_item[:, None], size=(p_item.size, EMA_ITEM_COUNT))
        ema[pid] = answers

        patients.append(
            Patient(
                patient_id=pid,
                age=age,
                education_years=education,
                relapse_dates=relapse_dates,
                observation_start=start,
                observation_end=end,
            )
        )

    dataset = Dataset(patients=tuple(patients), sensors=sensors, ema=ema)
    if out_dir is not None:
        write_dataset(dataset, out_dir)
    return dataset
