from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

from conftest import make_constant_dataset, make_patient
from relapsekit import classifiers, evaluate
from relapsekit.evaluate import (
    CLASSIFIER_KINDS,
    ExperimentConfig,
    f2_from_counts,
    run_grid,
    run_lopo,
)
from relapsekit.features import extract_all
from relapsekit.metrics import f2_score
from relapsekit.synth import SynthConfig, generate

BASE = ExperimentConfig(seed=13)


@pytest.fixture(scope="module")
def cohort():
    """Small separable synthetic cohort: prodromal shift in call + distance."""
    return generate(SynthConfig(patient_count=8, days_per_patient=100, seed=11))


@pytest.fixture(scope="module")
def table(cohort):
    return extract_all(cohort, BASE.windowing)


# -- metrics -----------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
def test_confusion_counts_match_the_four_masks(n):
    rng = np.random.default_rng(n)
    for labels in (np.zeros(n, np.int64), np.ones(n, np.int64), rng.integers(0, 2, n)):
        for predicted in (np.zeros(n, np.int64), np.ones(n, np.int64), labels, 1 - labels, rng.integers(0, 2, n)):
            counts = evaluate._confusion(labels, predicted)
            assert counts == (
                int(((labels == 1) & (predicted == 1)).sum()),
                int(((labels == 0) & (predicted == 1)).sum()),
                int(((labels == 1) & (predicted == 0)).sum()),
                int(((labels == 0) & (predicted == 0)).sum()),
            )
            assert all(type(c) is int for c in counts)


def test_f2_perfect_counts():
    assert f2_from_counts(5, 0, 0) == (1.0, 1.0, 1.0)


def test_f2_zero_tp_convention():
    assert f2_from_counts(0, 3, 2) == (0.0, 0.0, 0.0)


def test_f2_formula_value():
    assert f2_score(0.22, 0.086) == pytest.approx(0.09793, abs=1e-4)


def test_f2_monotone_in_tp():
    # fixed tp+fp and tp+fn totals: more true positives never hurts
    previous = -1.0
    for tp in range(0, 11):
        _, _, f2 = f2_from_counts(tp, 10 - tp, 10 - tp)
        assert f2 >= previous
        previous = f2


def test_f2_rejects_negative_counts():
    with pytest.raises(ValueError):
        f2_from_counts(-1, 0, 0)


# -- fold structure -----------------------------------------------------------


def two_patient_table():
    pa = make_patient(pid="pa", n_days=120, relapse_days=(70,))
    pb = make_patient(pid="pb", n_days=70)
    return extract_all(make_constant_dataset([pa, pb]), BASE.windowing)


def test_two_patient_fixture_gives_two_folds_each_window_once():
    table = two_patient_table()
    report = run_lopo(table, BASE)
    assert [f.patient_id for f in report.folds] == ["pa", "pb"]
    # pa emits 7 windows (relapse at 42 then cool-off), pb emits 6
    seen = [(spec.patient_id, spec.feature_start) for spec in report.specs]
    assert len(seen) == len(set(seen)) == 13
    assert report.specs == table.specs
    assert len(report.predicted) == len(report.scores) == len(table)


def test_training_never_includes_heldout_windows():
    report = run_lopo(two_patient_table(), BASE)
    windows_of = {"pa": 7, "pb": 6}
    for fold in report.folds:
        other = "pb" if fold.patient_id == "pa" else "pa"
        assert fold.train_windows == windows_of[other]


def test_pooled_counts_equal_fold_sums():
    report = run_lopo(two_patient_table(), BASE)
    assert report.tp == sum(f.tp for f in report.folds)
    assert report.fp == sum(f.fp for f in report.folds)
    assert report.fn == sum(f.fn for f in report.folds)
    assert report.tn == sum(f.tn for f in report.folds)
    assert report.tp + report.fn == sum(spec.label for spec in report.specs)


def test_no_positive_class_rejected():
    ds = make_constant_dataset([make_patient(pid="pa", n_days=70), make_patient(pid="pb", n_days=70)])
    with pytest.raises(ValueError, match="no_positive_class"):
        run_lopo(extract_all(ds, BASE.windowing), BASE)


def test_single_class_training_fold_degrades_with_warning():
    # pa holds every relapse window; its fold must fall back to majority.
    report = run_lopo(two_patient_table(), BASE)
    fold_pa = next(f for f in report.folds if f.patient_id == "pa")
    assert fold_pa.warning == "single_class_training"
    pa_rows = [p for spec, p in zip(report.specs, report.predicted) if spec.patient_id == "pa"]
    assert all(p == 0 for p in pa_rows)


def test_selection_on_uses_exactly_five_features_per_fold(table):
    report = run_lopo(table, BASE)
    for fold in report.folds:
        if fold.warning is None:
            assert len(fold.selected) == 5


def test_selection_off_completes_and_differs(table):
    on = run_lopo(table, BASE)
    off = run_lopo(table, ExperimentConfig(seed=13, selection=False))
    assert all(f.selected is None for f in off.folds)
    assert on.config["selection"] and not off.config["selection"]


def test_reports_deterministic_given_seed(table):
    a = run_lopo(table, BASE)
    b = run_lopo(table, BASE)
    assert a.to_dict() == b.to_dict()
    assert a.specs == b.specs
    np.testing.assert_array_equal(a.predicted, b.predicted)
    np.testing.assert_array_equal(a.scores, b.scores)


# -- experiments ----------------------------------------------------------------


def test_nb_beats_matched_random_baseline_on_separable_cohort(table):
    nb = run_lopo(table, BASE)
    baseline = run_lopo(table, ExperimentConfig(classifier="random", seed=13))
    assert baseline.metric_std is not None
    assert nb.f2 > baseline.f2 + 2 * baseline.metric_std["f2"]


def test_random_baseline_report_shape(table):
    report = run_lopo(table, ExperimentConfig(classifier="random", seed=13))
    assert report.specs == ()
    assert len(report.predicted) == len(report.scores) == 0
    assert set(report.metric_std) == {"precision", "recall", "f2"}
    assert np.isfinite([report.tp, report.fp, report.fn, report.tn]).all()
    # counts are means over runs; tp + fn still equals the relapse windows
    assert report.tp + report.fn == pytest.approx(table.labels.sum())


def test_classifier_comparison_has_five_rows(cohort):
    reports = run_grid("compare-classifiers", cohort, BASE)
    assert [r.arm for r in reports] == ["nb", "brf", "ee", "iforest", "random"]
    assert all(r.experiment == "compare-classifiers" for r in reports)


def test_all_classifiers_at_least_their_baseline_on_separable_cohort(cohort):
    reports = run_grid("compare-classifiers", cohort, BASE)
    by_arm = {r.arm: r for r in reports}
    for arm in ("nb", "brf", "ee", "iforest"):
        assert by_arm[arm].f2 >= by_arm["random"].f2


def test_modality_ablation_shape_and_ranking(cohort):
    reports = run_grid("ablate-modality", cohort, BASE)
    assert len(reports) == 7
    f2s = [r.f2 for r in reports]
    assert f2s == sorted(f2s, reverse=True)
    by_arm = {r.arm: r for r in reports}
    # the generator shifts call_duration; an unshifted signal cannot outrank it
    assert by_arm["call_duration"].f2 > by_arm["light_level"].f2
    assert "ema" in by_arm and len(by_arm) == 7


def test_modality_arm_candidate_counts(cohort):
    from relapsekit.model import feature_indices_for_modality

    assert len(feature_indices_for_modality("call_duration", True)) == 15
    assert len(feature_indices_for_modality("ema", True)) == 22


def test_selection_ablation_arms(cohort):
    reports = run_grid("ablate-selection", cohort, BASE)
    assert [r.arm for r in reports] == [
        "selection_with_demographics",
        "no_feature_selection",
        "no_demographics",
    ]
    no_demo = reports[2]
    for fold in no_demo.folds:
        if fold.selected is not None:
            assert "age" not in fold.selected
            assert "education_years" not in fold.selected


def test_unknown_classifier_rejected():
    with pytest.raises(ValueError, match="unknown classifier"):
        ExperimentConfig(classifier="svm")


def test_unknown_modality_rejected():
    with pytest.raises(ValueError, match="unknown modality"):
        ExperimentConfig(modality="gps")


# -- the classifier table ----------------------------------------------------


def test_classifier_table_names_config_fields_and_fit_keywords_without_defaults():
    config_fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert CLASSIFIER_KINDS == (*classifiers.KINDS, "random")
    for kind, (settings, draws) in classifiers.KINDS.items():
        assert set(settings.values()) <= config_fields
        params = inspect.signature(getattr(classifiers, f"{kind}_fit")).parameters
        assert list(params)[:2] == ["X", "y"]
        assert set(params) - {"X", "y"} == set(settings) | ({"seed"} if draws else set())
        assert all(p.default is inspect.Parameter.empty for p in params.values()), kind
        # Each kind exposes exactly one fit and one predict.
        assert [name for name in dir(classifiers) if name.startswith(f"{kind}_")] == [f"{kind}_fit", f"{kind}_predict_many"]


# Every setting off its default, so a keyword fed from the wrong field shows.
OFF_DEFAULT = ExperimentConfig(
    seed=3, bins=7, nb_alpha=0.25, brf_trees=5, ee_bags=6, ee_rounds=2, iforest_trees=9, iforest_subsample=11,
    decision_threshold=0.375,
)
FIT_SETTINGS = {
    "nb": {"alpha": 0.25, "n_categories": 7},
    "brf": {"trees": 5, "decision_threshold": 0.375},
    "ee": {"bags": 6, "rounds": 2, "decision_threshold": 0.375},
    "iforest": {"trees": 9, "subsample": 11},
}


@pytest.mark.parametrize("kind", sorted(FIT_SETTINGS))
def test_each_fit_gets_its_settings_from_the_config_and_a_fold_seed_if_it_draws(monkeypatch, kind):
    calls = []
    monkeypatch.setattr(classifiers, f"{kind}_fit", lambda X, y, **settings: calls.append(settings) or "model")
    monkeypatch.setattr(classifiers, f"{kind}_predict_many", lambda model, X: (model, X))
    Xte = np.zeros((2, 1), dtype=np.int64)
    config = dataclasses.replace(OFF_DEFAULT, classifier=kind)
    assert evaluate._fit_and_predict(config, np.zeros((4, 1)), np.array([0, 1, 0, 1]), Xte, 2) == ("model", Xte)
    (settings,) = calls
    seed = settings.pop("seed", None)
    assert settings == FIT_SETTINGS[kind]
    if kind == "nb":
        assert seed is None
    else:  # child 2 of SeedSequence(3)
        assert (seed.entropy, seed.spawn_key) == (3, (2,))
