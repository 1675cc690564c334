from __future__ import annotations

from datetime import date as Date

import pytest

from relapsekit.model import (
    EMA_FEATURE_COUNT,
    FEATURE_COUNT,
    FEATURES_PER_SIGNAL,
    SIGNALS,
    TEMPLATE_FEATURE_COUNT,
    Patient,
    canonical_feature_names,
    feature_indices_for_modality,
)


def test_signal_enum_has_exactly_six_canonical_values():
    assert [s.value for s in SIGNALS] == [
        "accel_magnitude",
        "light_level",
        "distance_traveled",
        "call_duration",
        "sound_level",
        "conversation_duration",
    ]


def test_feature_inventory_dimensions():
    assert FEATURE_COUNT == 100
    assert TEMPLATE_FEATURE_COUNT == 78 == len(SIGNALS) * FEATURES_PER_SIGNAL
    assert EMA_FEATURE_COUNT == 20
    assert FEATURES_PER_SIGNAL == 13


def test_canonical_names_length_and_uniqueness():
    names = canonical_feature_names()
    assert len(names) == 100
    assert len(set(names)) == 100


def test_canonical_names_idempotent():
    assert canonical_feature_names() == canonical_feature_names()


def test_first_thirteen_names_reference_accel_magnitude():
    names = canonical_feature_names()
    assert all(n.startswith("accel_magnitude_") for n in names[:13])


def test_last_two_names_are_demographics():
    assert canonical_feature_names()[-2:] == ("age", "education_years")


def test_signal_modalities_partition_template_block():
    seen: list[int] = []
    for signal in SIGNALS:
        seen.extend(feature_indices_for_modality(signal.value, False))
    assert seen == list(range(TEMPLATE_FEATURE_COUNT))


def test_ema_and_demographic_indices():
    assert feature_indices_for_modality("ema", False) == tuple(range(78, 98))
    assert feature_indices_for_modality("ema", True)[-2:] == (98, 99)
    assert feature_indices_for_modality("all", True) == tuple(range(100))


@pytest.mark.parametrize(
    "modality,with_demo,expected",
    [
        ("all", True, 100),
        ("all", False, 98),
        ("call_duration", True, 15),
        ("ema", True, 22),
        ("ema", False, 20),
    ],
)
def test_modality_candidate_counts(modality, with_demo, expected):
    assert len(feature_indices_for_modality(modality, with_demo)) == expected


def test_patient_validation():
    Patient("p", 18, 0, (), Date(2021, 1, 1), Date(2021, 1, 1))
    with pytest.raises(TypeError):  # relapse dates and the observation span are required
        Patient("p", 40, 10)  # type: ignore[call-arg]
    with pytest.raises(ValueError):
        Patient("p", 40, 10, (), Date(2021, 2, 1), Date(2021, 1, 1))
    with pytest.raises(ValueError):
        Patient("p", 17, 10, (), Date(2021, 1, 1), Date(2021, 6, 1))
    with pytest.raises(ValueError):
        Patient("p", 40, 31, (), Date(2021, 1, 1), Date(2021, 6, 1))
    with pytest.raises(ValueError):
        Patient("p", 40, 10, (Date(2021, 7, 1),), Date(2021, 1, 1), Date(2021, 6, 1))
