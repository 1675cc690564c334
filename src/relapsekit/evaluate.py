"""Leave-one-patient-out evaluation and the experiment grids.

Every fold holds out all windows of one patient, fits the binning model,
the age-matched feature selection, and the classifier on the remaining
patients only, then predicts the held-out patient's windows sequentially.
Confusion counts are pooled over folds (micro-averaged) before computing
precision, recall, and F2. Folds run one after another, in patient order.
Reports are deterministic given (table, config, seed).

`run_lopo` builds every arm's report one way, the random baseline's too:
each fold's training window and relapse counts come from one `bincount`
of the table, and each `FoldReport` and the `EvalReport` are built in one
place. A classifier arm adds each fold's confusion counts and selection;
the baseline adds only its pooled mean counts and their `metric_std`.

Evaluation reads one `WindowTable` and nothing else: a fold's training rows
are those whose patient index is not the held-out patient's, and its test
rows are that patient's own, contiguous in the table. The age the selection
subsample matches is the held-out patient's `age` column, read from their
first row. A fold's binning model depends only on its training rows and
`bins`, and its selection subsample only on them, that age and
`selection_pool`; no grid arm changes those. So
`_plan_folds` fits each fold's bins and ranks every feature on its
subsample once, and `run_grid` hands that plan to every arm. An arm keeps
the head of that ranking among its candidates, which is what ranking them
alone gives: ties go by index, and no column's score depends on the
others. It then bins only the columns its classifier reads.

`ExperimentConfig`, `GRIDS` and `KINDS` are declared in `config`, which
imports no evaluation module; this module re-exports the first two. Each
fit reads the config fields `KINDS` names for its kind. Only the
classifiers that draw (`brf`, `ee`, `iforest` and the `random` baseline)
get a seed: fold k's is `SeedSequence(seed, spawn_key=(k,))`, which equals
child k of `SeedSequence(seed).spawn(...)`, and the baseline's is the
child after the last fold's. Each is built when its arm needs it, so a
Naive Bayes run never imports `numpy.random`.

`classifiers` is imported by the first fit or baseline, after the window
table is built and the commands have freed the `Dataset`, so importing
that large module (compiled from source where no bytecode is cached)
does not add to the process's memory peak at the end of extraction.
"""

from __future__ import annotations

import logging
from collections.abc import Collection
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .config import GRIDS, KINDS, ExperimentConfig
from .dataio import Dataset
from .features import WindowTable, extract_all
from .metrics import f2_from_counts
from .model import AGE_INDEX, FEATURE_COUNT, FEATURE_NAMES, feature_indices_for_modality
from .transform import BinningModel, SelectionModel, apply_bins, build_selection_subsample, fit_bins, select_features
from .windowing import WindowSpec

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class FoldReport:
    patient_id: str
    tp: int
    fp: int
    fn: int
    tn: int
    train_windows: int
    train_relapse_windows: int
    selected: tuple[str, ...] | None = None
    selected_scores: tuple[float, ...] | None = None
    warning: str | None = None


@dataclass
class EvalReport:
    experiment: str
    arm: str
    classifier: str
    specs: tuple[WindowSpec, ...]  # the evaluated windows, in table row order
    predicted: np.ndarray  # int64, one per window
    scores: np.ndarray  # float64, one per window
    tp: float
    fp: float
    fn: float
    tn: float
    precision: float
    recall: float
    f2: float
    folds: list[FoldReport]
    config: dict
    seed: int
    metric_std: dict | None = None

    def to_dict(self) -> dict:
        """Every field but the per-window predictions; `metric_std` only when set."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("specs", "predicted", "scores")}
        doc["folds"] = [dict(vars(fold)) for fold in self.folds]  # shallow: fields are immutable
        if self.metric_std is None:
            del doc["metric_std"]
        return doc


def _fold_seed(config: ExperimentConfig, k: int) -> np.random.SeedSequence:
    """Child k of `SeedSequence(config.seed)`, built on its own."""
    return np.random.SeedSequence(config.seed, spawn_key=(k,))


def _fit_and_predict(
    config: ExperimentConfig,
    Xtr: np.ndarray,
    ytr: np.ndarray,
    Xte: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Fit `config.classifier` on fold k's training rows with the settings
    `KINDS` names, and predict its test rows."""
    from . import classifiers as clf

    kind = config.classifier
    settings = {keyword: getattr(config, name) for keyword, name in KINDS[kind].settings.items()}
    if KINDS[kind].draws:
        settings["seed"] = _fold_seed(config, k)
    # Resolved on the module at call time, so wrappers installed on
    # `classifiers.<kind>_fit` / `_predict_many` see every call.
    model = getattr(clf, f"{kind}_fit")(Xtr, ytr, **settings)
    return getattr(clf, f"{kind}_predict_many")(model, Xte)


def _confusion(labels: np.ndarray, predicted: np.ndarray) -> tuple[int, int, int, int]:
    tn, fp, fn, tp = np.bincount(2 * labels + predicted, minlength=4).tolist()
    return tp, fp, fn, tn


FoldPlan = tuple[BinningModel, SelectionModel]  # bins, every feature ranked on the subsample


def _plan_folds(table: WindowTable, config: ExperimentConfig) -> list[FoldPlan | None]:
    """Each held-out patient's binning model and every feature ranked on its
    selection subsample, in table order, from that fold's training rows and
    the patient's age (the `age` column of their first row) only; None for a
    single-class fold, whose warning is logged here, once."""
    ages = table.values[np.searchsorted(table.patients, range(len(table.patient_ids))), AGE_INDEX]
    plan: list[FoldPlan | None] = []
    for k, patient_id in enumerate(table.patient_ids):
        train = table.patients != k
        ytr = table.labels[train]
        if ytr.size == 0 or ytr.min() == ytr.max():
            logger.warning("fold %s: training windows are single-class; predicting majority", patient_id)
            plan.append(None)
            continue
        train_matrix = table.values[train]
        # `fit_bins` and friends resolve on this module at call time.
        bins = fit_bins(train_matrix, config.bins)
        picked = build_selection_subsample(train_matrix, ytr, ages[k], config.selection_pool)
        codes = apply_bins(bins, train_matrix[picked])
        plan.append((bins, select_features(codes, ytr[picked], FEATURE_COUNT, range(FEATURE_COUNT))))
    return plan


def _run_fold(
    config: ExperimentConfig,
    table: WindowTable,
    k: int,
    fold: FoldPlan | None,
    candidates: Collection[int],
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...] | None, tuple[float, ...] | None, str | None]:
    """Patient k's predictions and scores, in table order, then the fold's
    selected features, their scores and its warning. `candidates` are the
    arm's features, in order, or as a set when the arm selects among them."""
    train = table.patients != k
    ytr = table.labels[train]
    size = len(table) - ytr.size
    if fold is None:
        # No second class to learn from: fall back to majority prediction.
        majority = int(np.bincount(ytr, minlength=2).argmax())
        score = float(ytr.mean()) if ytr.size else 0.0
        return np.full(size, majority, dtype=np.int64), np.full(size, score), None, None, "single_class_training"
    bins, ranking = fold
    if config.selection:
        chosen = [f for f in ranking.selected if f in candidates][: config.selection_top]
        names = tuple(FEATURE_NAMES[f] for f in chosen)
        chosen_scores = tuple(float(ranking.scores[f]) for f in chosen)
    else:
        chosen, names, chosen_scores = list(candidates), None, None
    chosen_bins = replace(bins, impute=bins.impute[chosen], lo=bins.lo[chosen], hi=bins.hi[chosen])
    codes = apply_bins(chosen_bins, table.values[:, chosen])
    return (*_fit_and_predict(config, codes[train], ytr, codes[~train], k), names, chosen_scores, None)


def run_lopo(
    table: WindowTable,
    config: ExperimentConfig,
    experiment: str = "evaluate",
    arm: str | None = None,
    folds: list[FoldPlan | None] | None = None,
) -> EvalReport:
    """Leave-one-patient-out evaluation of one experiment arm over the window
    table of `config.windowing`, its folds run in patient order.

    Every arm reports each fold's training window and relapse counts. A
    classifier arm predicts every window and adds each fold's confusion
    counts and selection. The `random` arm draws prevalence-matched coin
    flips, pooled per run across folds, and reports their mean counts and
    `metric_std` over `baseline_runs` runs, with no per-window predictions.

    `folds` may carry the `_plan_folds` plan of the same table, built with
    this config's `bins` and `selection_pool`, to share its bins and
    rankings across arms.
    """
    if not table.labels.any():
        raise ValueError("no_positive_class: dataset has no relapse-labeled windows")

    n_folds = len(table.patient_ids)
    # Each patient's (non-relapse, relapse) windows; a fold trains on everyone else's.
    held_out = np.bincount(2 * table.patients + table.labels, minlength=2 * n_folds).reshape(n_folds, 2)
    trained = held_out.sum(axis=0) - held_out
    train_windows, train_relapse = trained.sum(axis=1), trained[:, 1]
    if config.classifier == "random":
        from . import classifiers as clf

        prevalence = np.divide(train_relapse, train_windows, out=np.zeros(n_folds), where=train_windows > 0)
        rng = np.random.default_rng(_fold_seed(config, n_folds))
        ratios = np.repeat(prevalence, held_out.sum(axis=1))
        (tp, fp, fn, tn), (precision, recall, f2), metric_std = clf.baseline_over_runs(
            table.labels, ratios, config.baseline_runs, rng
        )
        specs, predicted, scores = (), np.empty(0, dtype=np.int64), np.empty(0)
        confusion, extras = [(0, 0, 0, 0)] * n_folds, [(None, None, None)] * n_folds
    else:
        if folds is None:
            folds = _plan_folds(table, config)
        candidates: Collection[int] = feature_indices_for_modality(config.modality, config.include_demographics)
        if config.selection:  # once per arm: membership is all that selection asks of them
            candidates = frozenset(candidates)
        specs, predicted, scores = table.specs, np.empty(len(table), dtype=np.int64), np.empty(len(table))
        confusion, extras, metric_std = [], [], None
        for k, fold in enumerate(folds):
            test = table.patients == k
            predicted[test], scores[test], *extra = _run_fold(config, table, k, fold, candidates)
            confusion.append(_confusion(table.labels[test], predicted[test]))
            extras.append(extra)
        tp, fp, fn, tn = (sum(counts) for counts in zip(*confusion))
        precision, recall, f2 = f2_from_counts(tp, fp, fn)
    fold_reports = [
        FoldReport(patient_id, *counts, windows, relapse, *extra)
        for patient_id, counts, windows, relapse, extra in zip(
            table.patient_ids, confusion, train_windows.tolist(), train_relapse.tolist(), extras
        )
    ]
    return EvalReport(
        experiment=experiment,
        arm=arm or config.classifier,
        classifier=config.classifier,
        specs=specs,
        predicted=predicted,
        scores=scores,
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        precision=precision,
        recall=recall,
        f2=f2,
        folds=fold_reports,
        config=asdict(config),
        seed=config.seed,
        metric_std=metric_std,
    )


def run_grid(experiment: str, dataset: Dataset, base_config: ExperimentConfig) -> list[EvalReport]:
    """Every arm of GRIDS[experiment], one `run_lopo` per arm in grid order,
    over one window table and one fold plan (each fold's bins and feature
    ranking). Its one `extract_all` call is the only place evaluation reads
    a `Dataset`, which it drops once the table exists."""
    grid = GRIDS[experiment]
    table = extract_all(dataset, base_config.windowing)
    # The CLI passes a Dataset it keeps no reference to: dropping this one
    # frees the sensor arrays before the fold plan and the arms allocate.
    del dataset
    # Without a relapse window the first arm raises before any fold is planned.
    folds = _plan_folds(table, base_config) if table.labels.any() else None
    reports = [
        run_lopo(table, replace(base_config, **overrides), experiment=experiment, arm=arm, folds=folds)
        for arm, overrides in grid.arms
    ]
    if grid.ranked:
        reports.sort(key=lambda r: -r.f2)
    return reports


__all__ = [
    "EvalReport",
    "ExperimentConfig",
    "FoldReport",
    "GRIDS",
    "f2_from_counts",
    "run_grid",
    "run_lopo",
]
