"""Shared builders for compact in-memory datasets."""

from __future__ import annotations

from datetime import date as Date
from datetime import timedelta

import numpy as np
import pytest

from relapsekit.dataio import Dataset
from relapsekit.model import SIGNALS, EmaRecord, Patient

BASE_DATE = Date(2021, 1, 4)


def day(k: int) -> Date:
    """k days after the common fixture start date."""
    return BASE_DATE + timedelta(days=k)


def make_patient(
    pid: str = "p1",
    n_days: int = 70,
    relapse_days: tuple[int, ...] = (),
    age: int = 40,
    education: int = 10,
    start: Date = BASE_DATE,
) -> Patient:
    return Patient(
        patient_id=pid,
        age=age,
        education_years=education,
        relapse_dates=tuple(start + timedelta(days=k) for k in relapse_days),
        observation_start=start,
        observation_end=start + timedelta(days=n_days - 1),
    )


def make_constant_dataset(
    patients: list[Patient],
    value: float = 5.0,
    ema_items: tuple[int, ...] = (2,) * 10,
    ema_every_day: bool = True,
) -> Dataset:
    """Every signal constant at `value` for every hour of every observed day."""
    sensors: dict[str, np.ndarray] = {}
    ema: dict[str, dict[Date, EmaRecord]] = {}
    for p in patients:
        n_days = (p.observation_end - p.observation_start).days + 1
        sensors[p.patient_id] = np.full((n_days, len(SIGNALS), 24), float(value))
        records = {}
        if ema_every_day:
            for d in range(n_days):
                when = p.observation_start + timedelta(days=d)
                records[when] = EmaRecord(p.patient_id, when, ema_items)
        ema[p.patient_id] = records
    return Dataset(patients=tuple(patients), sensors=sensors, ema=ema)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20210104)
