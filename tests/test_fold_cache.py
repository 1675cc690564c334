"""Per-fold sharing across grid arms: a fold plan's bins and selection
subsample change no arm's result and never see the held-out patient."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from relapsekit import evaluate
from relapsekit.cli import main
from relapsekit.evaluate import GRIDS, ExperimentConfig, run_grid, run_lopo
from relapsekit.features import WindowTable, extract_all
from relapsekit.model import AGE_INDEX, FEATURE_NAMES, feature_indices_for_modality
from relapsekit.synth import SynthConfig, generate
from relapsekit.transform import apply_bins, build_selection_subsample, fit_bins, select_features

# Small forests: sharing is per fold, whatever the classifier's size.
BASE = ExperimentConfig(seed=3, brf_trees=5, ee_bags=3, ee_rounds=2, iforest_trees=5, baseline_runs=20)


@pytest.fixture(scope="module")
def cohort():
    return generate(SynthConfig(patient_count=6, days_per_patient=90, seed=4))


@pytest.fixture(scope="module")
def standalone(cohort):
    """Each arm of each grid run on its own, with its own extraction and fold plan."""
    return {
        (name, arm): run_lopo(
            extract_all(cohort, BASE.windowing), replace(BASE, **overrides), experiment=name, arm=arm
        )
        for name, grid in GRIDS.items()
        for arm, overrides in grid.arms
    }


def test_no_grid_arm_overrides_a_setting_the_fold_plan_depends_on():
    # `run_grid` plans the folds with the base config's `bins` and `selection_pool`.
    for name, grid in GRIDS.items():
        for arm, overrides in grid.arms:
            assert not {"bins", "selection_pool"} & set(overrides), (name, arm)


def test_ablate_selection_ignores_no_selection_flag(tmp_path, caplog):
    # Every arm sets `selection`, so the plan draws each fold's subsample
    # even when the base config has selection off.
    cohort = tmp_path / "cohort"
    assert main(["synth", "--patients", "6", "--days", "90", "--seed", "21", "--out", str(cohort)]) == 0
    outputs = []
    for extra in ([], ["--no-selection"]):
        out = tmp_path / f"out{len(outputs)}"
        out.mkdir()
        args = ["ablate-selection", "--data", str(cohort), "--seed", "9", "--threads", "1", *extra]
        assert main([*args, "--metrics", str(out / "metrics.json"), "--predictions-dir", str(out / "predictions")]) == 0
        outputs.append({path.relative_to(out): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()})
    assert len(outputs[0]) == 4  # metrics and three prediction files
    assert outputs[0] == outputs[1]
    ignored = [r.getMessage() for r in caplog.records if r.name == "relapsekit.cli"]
    assert ignored == ["--no-selection is ignored by ablate-selection: every arm sets selection"]


@pytest.mark.parametrize("experiment", sorted(GRIDS))
def test_every_grid_arm_equals_its_standalone_run(cohort, standalone, experiment, monkeypatch):
    fits = []
    fit_bins = evaluate.fit_bins
    monkeypatch.setattr(evaluate, "fit_bins", lambda *a, **k: fits.append(1) or fit_bins(*a, **k))
    reports = run_grid(experiment, cohort, BASE)
    assert sorted(r.arm for r in reports) == sorted(arm for arm, _ in GRIDS[experiment].arms)
    for report in reports:
        alone = standalone[(experiment, report.arm)]
        assert report.to_dict() == alone.to_dict()
        assert report.specs == alone.specs
        np.testing.assert_array_equal(report.predicted, alone.predicted)
        np.testing.assert_array_equal(report.scores, alone.scores)
    fitted = {f.patient_id for r in reports if r.classifier != "random" for f in r.folds if f.warning is None}
    assert len(fits) == len(fitted) > 0


def selection_oracle(table: WindowTable, config: ExperimentConfig, k: int) -> tuple[tuple, tuple]:
    """Fold k's selection ranked on its own: bins, subsample and only this arm's candidates."""
    train = table.patients != k
    matrix, labels = table.values[train], table.labels[train]
    age = table.values[table.patients == k][0, AGE_INDEX]
    picked = build_selection_subsample(matrix, labels, age, config.selection_pool)
    codes = apply_bins(fit_bins(matrix, config.bins), matrix[picked])
    candidates = feature_indices_for_modality(config.modality, config.include_demographics)
    model = select_features(codes, labels[picked], config.selection_top, candidates)
    return tuple(FEATURE_NAMES[f] for f in model.selected), tuple(float(model.scores[f]) for f in model.selected)


@pytest.mark.parametrize("experiment", ["ablate-modality", "ablate-selection"])
def test_each_arm_selects_as_if_ranking_its_candidates_on_the_fold_subsample(cohort, experiment):
    # A pool smaller than the training rows, so ranking on every training row would differ.
    base = replace(BASE, selection_pool=5)
    table = extract_all(cohort, base.windowing)
    checked = 0
    for report in run_grid(experiment, cohort, base):
        config = replace(base, **dict(GRIDS[experiment].arms)[report.arm])
        for k, fold in enumerate(report.folds):
            if config.selection and fold.warning is None:
                assert (fold.selected, fold.selected_scores) == selection_oracle(table, config, k)
                checked += 1
    assert checked > 0


def poison(table: WindowTable, patient_id: str, spare: tuple[int, ...] = ()) -> WindowTable:
    """That patient's feature values, but the `spare` columns, replaced by huge alternating values."""
    values = table.values.copy()
    rows = np.flatnonzero(table.patients == table.patient_ids.index(patient_id))
    columns = np.setdiff1d(np.arange(values.shape[1]), spare)
    values[np.ix_(rows, columns)] = np.where(columns % 2, -1e12, 1e12)
    return replace(table, values=values)


def grid_folds(experiment: str, table: WindowTable, base: ExperimentConfig = BASE) -> dict[str, dict]:
    """run_grid over a given table: every arm's folds by patient, one shared fold plan."""
    folds = evaluate._plan_folds(table, base)
    out = {}
    for arm, overrides in GRIDS[experiment].arms:
        report = run_lopo(table, replace(base, **overrides), folds=folds)
        out[arm] = {f.patient_id: f for f in report.folds}
    return out


@pytest.mark.parametrize("experiment", sorted(GRIDS))
def test_poisoned_patient_cannot_reach_its_own_folds_selection(cohort, experiment):
    clean = extract_all(cohort, BASE.windowing)
    patient_ids = clean.patient_ids
    # The last fold: a plan fitted on every row, or on another fold's
    # training rows, would hand this fold bins fitted with the poisoned values.
    target = patient_ids[-1]
    before = grid_folds(experiment, clean)
    after = grid_folds(experiment, poison(clean, target))
    assert any(before[arm][target].selected for arm in before)
    others_moved = False
    for arm in before:
        assert after[arm][target].selected == before[arm][target].selected
        assert after[arm][target].selected_scores == before[arm][target].selected_scores
        others_moved |= any(
            after[arm][pid].selected_scores != before[arm][pid].selected_scores
            for pid in patient_ids
            if pid != target
        )
    # The poison does reach the other folds' selection.
    assert others_moved


@pytest.mark.parametrize("experiment", sorted(GRIDS))
def test_poisoned_patient_cannot_reach_its_own_folds_subsample(cohort, experiment):
    # A pool of 5 draws a few of each fold's training rows, so the selection
    # also shows which rows the subsample drew, not only the bins. The
    # held-out patient's age stays clean: it is the one value of theirs a
    # fold plan reads, to match the subsample to it.
    base = replace(BASE, selection_pool=5)
    clean = extract_all(cohort, base.windowing)
    target = clean.patient_ids[-1]
    before = grid_folds(experiment, clean, base)
    after = grid_folds(experiment, poison(clean, target, spare=(AGE_INDEX,)), base)
    assert any(before[arm][target].selected for arm in before)
    for arm in before:
        assert after[arm][target].selected == before[arm][target].selected
        assert after[arm][target].selected_scores == before[arm][target].selected_scores
    assert any(
        after[arm][pid].selected_scores != before[arm][pid].selected_scores
        for arm in before
        for pid in clean.patient_ids
        if pid != target
    )
