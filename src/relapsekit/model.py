"""Core domain types and the canonical 100-feature naming scheme.

Everything downstream (windowing, feature extraction, transforms,
classifiers, evaluation) shares the types and the fixed feature ordering
defined here. All types are immutable value objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date as Date
from enum import Enum


class Signal(str, Enum):
    """The six hourly behavioral signals, in canonical feature order."""

    ACCEL_MAGNITUDE = "accel_magnitude"
    LIGHT_LEVEL = "light_level"
    DISTANCE_TRAVELED = "distance_traveled"
    CALL_DURATION = "call_duration"
    SOUND_LEVEL = "sound_level"
    CONVERSATION_DURATION = "conversation_duration"


SIGNALS: tuple[Signal, ...] = tuple(Signal)

# The candidate features an experiment arm may keep: all of them ("all"),
# the self-report ones ("ema"), or one signal's.
MODALITIES: tuple[str, ...] = ("all", "ema", *(signal.value for signal in SIGNALS))

EMA_ITEM_COUNT = 10

# Per-signal template feature suffixes, in canonical order: six statistics of
# the mean daily template, the mean of the deviation template, the largest
# gap between mean and maximum templates, three week-over-week template
# distances, and the mean/variability of the daily signal averages.
MDT_STATS: tuple[str, ...] = ("mean", "std", "max", "range", "skewness", "kurtosis")
TEMPLATE_FEATURES: tuple[str, ...] = tuple(f"mdt_{s}" for s in MDT_STATS) + (
    "ddt_mean",
    "max_diff",
    "dist_mdt",
    "wdist_mdt",
    "dist_mxdt",
    "daily_mean",
    "daily_std",
)

DEMOGRAPHIC_FEATURES: tuple[str, ...] = ("age", "education_years")

FEATURES_PER_SIGNAL = len(TEMPLATE_FEATURES)  # 13
TEMPLATE_FEATURE_COUNT = len(SIGNALS) * FEATURES_PER_SIGNAL  # 78
EMA_FEATURE_COUNT = 2 * EMA_ITEM_COUNT  # 20
FEATURE_COUNT = TEMPLATE_FEATURE_COUNT + EMA_FEATURE_COUNT + 2  # 100


def canonical_feature_names() -> tuple[str, ...]:
    """The fixed, ordered names of all 100 features.

    Ordering: 13 template features per signal (signals in canonical order),
    then mean/std per EMA item, then the two demographics. Idempotent.
    """
    names: list[str] = []
    for signal in SIGNALS:
        names.extend(f"{signal.value}_{suffix}" for suffix in TEMPLATE_FEATURES)
    for item in range(1, EMA_ITEM_COUNT + 1):
        names.append(f"ema_{item:02d}_mean")
        names.append(f"ema_{item:02d}_std")
    names.extend(DEMOGRAPHIC_FEATURES)
    return tuple(names)


FEATURE_NAMES: tuple[str, ...] = canonical_feature_names()
FEATURE_INDEX: dict[str, int] = {name: i for i, name in enumerate(FEATURE_NAMES)}
AGE_INDEX = FEATURE_INDEX["age"]
EDUCATION_INDEX = FEATURE_INDEX["education_years"]


def feature_indices_for_modality(modality: str, include_demographics: bool) -> tuple[int, ...]:
    """Candidate feature indices for one experiment arm.

    `modality` is "all" (every template and EMA feature), "ema" (the 20 EMA
    features), or one signal name (its 13 template features). Demographics
    are toggled independently of the modality filter.
    """
    if modality == "all":
        indices = range(TEMPLATE_FEATURE_COUNT + EMA_FEATURE_COUNT)
    elif modality == "ema":
        indices = range(TEMPLATE_FEATURE_COUNT, TEMPLATE_FEATURE_COUNT + EMA_FEATURE_COUNT)
    else:
        base = SIGNALS.index(Signal(modality)) * FEATURES_PER_SIGNAL
        indices = range(base, base + FEATURES_PER_SIGNAL)
    return (*indices, AGE_INDEX, EDUCATION_INDEX) if include_demographics else tuple(indices)


@dataclass(frozen=True)
class Patient:
    """Demographics, observation span, and annotated relapse dates."""

    patient_id: str
    age: int
    education_years: int
    relapse_dates: tuple[Date, ...]
    observation_start: Date
    observation_end: Date

    def __post_init__(self) -> None:
        if self.observation_start > self.observation_end:
            raise ValueError(
                f"observation_start {self.observation_start} after observation_end "
                f"{self.observation_end}"
            )
        if not 18 <= self.age <= 100:
            raise ValueError(f"age must be in [18, 100], got {self.age}")
        if not 0 <= self.education_years <= 30:
            raise ValueError(f"education_years must be in [0, 30], got {self.education_years}")
        for d in self.relapse_dates:
            if not self.observation_start <= d <= self.observation_end:
                raise ValueError(f"relapse date {d} outside observation span")
