"""Leave-one-patient-out evaluation and the experiment grids.

Every fold holds out all windows of one patient, fits the binning model,
the age-matched feature selection, and the classifier on the remaining
patients only, then predicts the held-out patient's windows sequentially.
Confusion counts are pooled over folds (micro-averaged) before computing
precision, recall, and F2. Folds run one after another, in patient order.
Reports are deterministic given (dataset, config, seed).

Folds run over one `WindowTable`: a fold's training rows are those whose
patient index is not the held-out patient's. A fold's binning model
depends only on its training rows and `bins`, and its selection subsample
only on them and `selection_pool`; no grid arm changes those. So
`_plan_folds` fits each fold's bins and ranks every feature on its
subsample once, and `run_grid` hands that plan to every arm. An arm keeps
the head of that ranking among its candidates, which is what ranking them
alone gives: ties go by index, and no column's score depends on the
others. It then bins only the columns its classifier reads.

Only the classifiers that draw (`brf`, `ee`, `iforest` and the `random`
baseline) get a seed: fold k's is `SeedSequence(seed, spawn_key=(k,))`,
which equals child k of `SeedSequence(seed).spawn(...)`, and the baseline's
is the child after the last fold's. Each is built when its arm needs it, so
a Naive Bayes run never imports `numpy.random`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Callable, NamedTuple

import numpy as np

from . import classifiers as clf
from .dataio import Dataset
from .features import WindowTable, extract_all
from .metrics import f2_from_counts, f2_score
from .model import FEATURE_COUNT, FEATURE_NAMES, SIGNALS, feature_indices_for_modality
from .transform import BinningModel, SelectionModel, apply_bins, build_selection_subsample, fit_bins, select_features
from .windowing import WindowSpec, WindowingConfig

logger = logging.getLogger(__name__)

CLASSIFIER_KINDS = ("nb", "brf", "ee", "iforest", "random")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment arm; the defaults reproduce the main pipeline."""

    classifier: str = "nb"
    windowing: WindowingConfig = field(default_factory=WindowingConfig)
    bins: int = 15
    selection: bool = True
    selection_pool: int = 100  # non-relapse windows pooled for MI ranking
    selection_top: int = 5  # features kept per fold
    include_demographics: bool = True
    modality: str = "all"  # all | ema | one signal name
    seed: int = 0
    nb_alpha: float = 1.0
    brf_trees: int = 51
    ee_bags: int = 101
    ee_rounds: int = 10
    iforest_trees: int = 101
    iforest_subsample: int = 256
    decision_threshold: float = 0.5
    baseline_runs: int = 1000

    def __post_init__(self) -> None:
        if self.classifier not in CLASSIFIER_KINDS:
            raise ValueError(f"unknown classifier {self.classifier!r}")
        valid_modalities = {"all", "ema"} | {s.value for s in SIGNALS}
        if self.modality not in valid_modalities:
            raise ValueError(f"unknown modality {self.modality!r}")
        for name in ("bins", "selection_pool", "selection_top", "nb_alpha", "brf_trees", "ee_bags",
                     "ee_rounds", "iforest_trees", "iforest_subsample", "baseline_runs"):
            if not getattr(self, name) > 0:  # every count, and the Naive Bayes smoothing
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:  # as SeedSequence requires, checked here for the arms that draw nothing too
            raise ValueError("seed must be non-negative")
        if not math.isfinite(self.decision_threshold):
            raise ValueError("decision_threshold must be finite")


@dataclass(frozen=True)
class PredictionRow:
    spec: WindowSpec
    label: int
    predicted: int
    score: float


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
    rows: list[PredictionRow]
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
        """Every field but `rows`; `metric_std` only when set."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "rows"}
        doc["folds"] = [dict(vars(fold)) for fold in self.folds]  # shallow: fields are immutable
        if self.metric_std is None:
            del doc["metric_std"]
        return doc


def _fold_seed(config: ExperimentConfig, k: int) -> np.random.SeedSequence:
    """Child k of `SeedSequence(config.seed)`, built on its own."""
    return np.random.SeedSequence(config.seed, spawn_key=(k,))


# Fit keyword arguments per classifier kind, from the arm config and fold index.
FIT_KWARGS: dict[str, Callable[[ExperimentConfig, int], dict[str, Any]]] = {
    "nb": lambda c, k: {"alpha": c.nb_alpha, "n_categories": c.bins},
    "brf": lambda c, k: {"trees": c.brf_trees, "seed": _fold_seed(c, k), "decision_threshold": c.decision_threshold},
    "ee": lambda c, k: {
        "bags": c.ee_bags,
        "rounds": c.ee_rounds,
        "seed": _fold_seed(c, k),
        "decision_threshold": c.decision_threshold,
    },
    "iforest": lambda c, k: {"trees": c.iforest_trees, "subsample": c.iforest_subsample, "seed": _fold_seed(c, k)},
}


def _fit_and_predict(
    config: ExperimentConfig,
    Xtr: np.ndarray,
    ytr: np.ndarray,
    Xte: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    kind = config.classifier
    # Resolved on the module at call time, so wrappers installed on
    # `classifiers.<kind>_fit` / `_predict_many` see every call.
    model = getattr(clf, f"{kind}_fit")(Xtr, ytr, **FIT_KWARGS[kind](config, k))
    return getattr(clf, f"{kind}_predict_many")(model, Xte)


def _confusion(labels: np.ndarray, predicted: np.ndarray) -> tuple[int, int, int, int]:
    tp = int(((labels == 1) & (predicted == 1)).sum())
    fp = int(((labels == 0) & (predicted == 1)).sum())
    fn = int(((labels == 1) & (predicted == 0)).sum())
    tn = int(((labels == 0) & (predicted == 0)).sum())
    return tp, fp, fn, tn


FoldPlan = tuple[BinningModel, SelectionModel]  # bins, every feature ranked on the subsample


def _plan_folds(dataset: Dataset, table: WindowTable, config: ExperimentConfig) -> list[FoldPlan | None]:
    """Each held-out patient's binning model and every feature ranked on its
    selection subsample, in table order, from that fold's training rows only;
    None for a single-class fold, whose warning is logged here, once."""
    ages = {p.patient_id: float(p.age) for p in dataset.patients}
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
        picked = build_selection_subsample(train_matrix, ytr, ages[patient_id], config.selection_pool)
        codes = apply_bins(bins, train_matrix[picked])
        plan.append((bins, select_features(codes, ytr[picked], FEATURE_COUNT, range(FEATURE_COUNT))))
    return plan


def _run_fold(
    config: ExperimentConfig,
    table: WindowTable,
    k: int,
    fold: FoldPlan | None,
) -> tuple[list[PredictionRow], FoldReport]:
    patient_id = table.patient_ids[k]
    train = table.patients != k
    test = ~train
    ytr, yte = table.labels[train], table.labels[test]
    train_relapse = int(ytr.sum())
    selected_names: tuple[str, ...] | None = None
    selected_scores: tuple[float, ...] | None = None
    warning = None

    if fold is None:
        # No second class to learn from: fall back to majority prediction.
        majority = int(np.bincount(ytr, minlength=2).argmax())
        warning = "single_class_training"
        predicted = np.full(yte.size, majority, dtype=np.int64)
        scores = np.full(yte.size, float(ytr.mean()) if ytr.size else 0.0)
    else:
        bins, ranking = fold
        chosen = list(feature_indices_for_modality(config.modality, config.include_demographics))
        if config.selection:
            candidates = set(chosen)
            chosen = [f for f in ranking.selected if f in candidates][: config.selection_top]
            selected_names = tuple(FEATURE_NAMES[f] for f in chosen)
            selected_scores = tuple(float(ranking.scores[f]) for f in chosen)
        chosen_bins = replace(bins, impute=bins.impute[chosen], edges=bins.edges[chosen])
        codes = apply_bins(chosen_bins, table.values[:, chosen])
        predicted, scores = _fit_and_predict(config, codes[train], ytr, codes[test], k)

    test_specs = [table.specs[i] for i in np.flatnonzero(test)]
    rows = [
        PredictionRow(spec=spec, label=spec.label, predicted=int(p), score=float(s))
        for spec, p, s in zip(test_specs, predicted, scores)
    ]
    tp, fp, fn, tn = _confusion(yte, predicted)
    report = FoldReport(
        patient_id=patient_id,
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        train_windows=int(ytr.size),
        train_relapse_windows=train_relapse,
        selected=selected_names,
        selected_scores=selected_scores,
        warning=warning,
    )
    return rows, report


def run_lopo(
    dataset: Dataset,
    config: ExperimentConfig,
    experiment: str = "evaluate",
    arm: str | None = None,
    table: WindowTable | None = None,
    folds: list[FoldPlan | None] | None = None,
) -> EvalReport:
    """Leave-one-patient-out evaluation of one experiment arm, its folds run
    in patient order.

    `table` may carry a precomputed window table (matching
    config.windowing) to share extraction across arms. `folds` may carry
    the `_plan_folds` plan of the same dataset and table, built with this
    config's `bins` and `selection_pool`, to share its bins and rankings.
    """
    if table is None:
        table = extract_all(dataset, config.windowing)
    if not table.labels.any():
        raise ValueError("no_positive_class: dataset has no relapse-labeled windows")

    if config.classifier == "random":
        return _run_random_baseline(config, table, experiment, arm)
    if folds is None:
        folds = _plan_folds(dataset, table, config)

    rows: list[PredictionRow] = []
    reports: list[FoldReport] = []
    for k, fold in enumerate(folds):
        fold_rows, fold_report = _run_fold(config, table, k, fold)
        rows.extend(fold_rows)
        reports.append(fold_report)
    tp = sum(f.tp for f in reports)
    fp = sum(f.fp for f in reports)
    fn = sum(f.fn for f in reports)
    tn = sum(f.tn for f in reports)
    precision, recall, f2 = f2_from_counts(tp, fp, fn)
    return EvalReport(
        experiment=experiment,
        arm=arm or config.classifier,
        classifier=config.classifier,
        rows=rows,
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        precision=precision,
        recall=recall,
        f2=f2,
        folds=reports,
        config=asdict(config),
        seed=config.seed,
    )


def _run_random_baseline(
    config: ExperimentConfig,
    table: WindowTable,
    experiment: str,
    arm: str | None,
) -> EvalReport:
    """Prevalence-matched coin flips, pooled per run across folds, averaged over runs."""
    n_folds = len(table.patient_ids)
    test_windows = np.bincount(table.patients, minlength=n_folds)
    train_windows = len(table) - test_windows
    train_relapse = int(table.labels.sum()) - np.bincount(table.patients[table.labels == 1], minlength=n_folds)
    prevalence = np.divide(train_relapse, train_windows, out=np.zeros(n_folds), where=train_windows > 0)
    folds = [
        FoldReport(patient_id=pid, tp=0, fp=0, fn=0, tn=0, train_windows=windows, train_relapse_windows=relapse)
        for pid, windows, relapse in zip(table.patient_ids, train_windows.tolist(), train_relapse.tolist())
    ]

    rng = np.random.default_rng(_fold_seed(config, n_folds))
    result = clf.baseline_over_runs(table.labels, np.repeat(prevalence, test_windows), config.baseline_runs, rng)
    return EvalReport(
        experiment=experiment,
        arm=arm or "random",
        classifier="random",
        rows=[],
        tp=result.tp,
        fp=result.fp,
        fn=result.fn,
        tn=result.tn,
        precision=result.precision,
        recall=result.recall,
        f2=result.f2,
        folds=folds,
        config=asdict(config),
        seed=config.seed,
        metric_std={
            "precision": result.precision_std,
            "recall": result.recall_std,
            "f2": result.f2_std,
        },
    )


class Grid(NamedTuple):
    """One experiment grid: named arms as ExperimentConfig overrides."""

    help: str
    arms: tuple[tuple[str, dict[str, Any]], ...]
    ranked: bool = False  # reports sorted by F2, best first


GRIDS: dict[str, Grid] = {
    "compare-classifiers": Grid(
        "run every classifier plus the random baseline",
        tuple((kind, {"classifier": kind}) for kind in CLASSIFIER_KINDS),
    ),
    "ablate-modality": Grid(
        "run one arm per signal modality plus EMA",
        tuple(
            (modality, {"modality": modality, "include_demographics": True})
            for modality in [s.value for s in SIGNALS] + ["ema"]
        ),
        ranked=True,
    ),
    "ablate-selection": Grid(
        "toggle feature selection and demographics",
        (
            ("selection_with_demographics", {"selection": True, "include_demographics": True}),
            ("no_feature_selection", {"selection": False, "include_demographics": True}),
            ("no_demographics", {"selection": True, "include_demographics": False}),
        ),
    ),
}


def run_grid(experiment: str, dataset: Dataset, base_config: ExperimentConfig) -> list[EvalReport]:
    """Every arm of GRIDS[experiment], one `run_lopo` per arm in grid order,
    over one shared feature extraction and one fold plan (each fold's bins
    and feature ranking)."""
    grid = GRIDS[experiment]
    table = extract_all(dataset, base_config.windowing)
    # Without a relapse window the first arm raises before any fold is planned.
    folds = _plan_folds(dataset, table, base_config) if table.labels.any() else None
    reports = [
        run_lopo(
            dataset,
            replace(base_config, **overrides),
            experiment=experiment,
            arm=arm,
            table=table,
            folds=folds,
        )
        for arm, overrides in grid.arms
    ]
    if grid.ranked:
        reports.sort(key=lambda r: -r.f2)
    return reports


__all__ = [
    "CLASSIFIER_KINDS",
    "EvalReport",
    "ExperimentConfig",
    "FoldReport",
    "GRIDS",
    "PredictionRow",
    "f2_from_counts",
    "f2_score",
    "run_grid",
    "run_lopo",
]
