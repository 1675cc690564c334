"""Shared builders for compact in-memory datasets."""

from __future__ import annotations

from datetime import date as Date
from datetime import timedelta

import numpy as np
import pytest

from relapsekit.dataio import Dataset
from relapsekit.model import EMA_ITEM_COUNT, SIGNALS, Patient

BASE_DATE = Date(2021, 1, 4)


def pytest_report_header(config) -> str:
    """The numpy the exact-stream oracles run against: the isolation forest
    reads numpy's integer and uniform algorithms from raw generator words."""
    bit_generator = type(np.random.default_rng().bit_generator).__name__
    return f"numpy {np.__version__}, default bit generator {bit_generator}"


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
    ema: dict[str, np.ndarray] = {}
    for p in patients:
        n_days = (p.observation_end - p.observation_start).days + 1
        sensors[p.patient_id] = np.full((n_days, len(SIGNALS), 24), float(value))
        ema[p.patient_id] = no_answers(n_days)
        if ema_every_day:
            ema[p.patient_id][:] = ema_items
    return Dataset(patients=tuple(patients), sensors=sensors, ema=ema)


def no_answers(n_days: int) -> np.ndarray:
    """A `(n_days, 10)` EMA day array without a record."""
    return np.full((n_days, EMA_ITEM_COUNT), -1, dtype=np.int8)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20210104)
