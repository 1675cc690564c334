"""Leave-one-patient-out evaluation and the experiment grids.

Every fold holds out all windows of one patient, fits the binning model,
the age-matched feature selection, and the classifier on the remaining
patients only, then predicts the held-out patient's windows sequentially.
Confusion counts are pooled over folds (micro-averaged) before computing
precision, recall, and F2. Reports are deterministic given (dataset,
config, seed) and independent of the thread count used for fold execution.

A fold's binning model depends only on its training windows and `bins`,
and its selection subsample only on them and `selection_pool`; no grid arm
changes those. `run_grid` therefore hands every arm one fold cache, so each
fold fits its bins and draws its subsample once per grid, not once per arm.
The cache holds only those two small objects (about 14 KB a fold), plus a
mark per fold whose single-class warning was logged, so a grid logs it once
per fold. The float and binned training matrices are rebuilt per arm:
cached for every fold they would cost megabytes of peak memory for a few
milliseconds.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from . import classifiers as clf
from .dataio import Dataset
from .features import FeatureWindow, extract_all
from .metrics import f2_from_counts, f2_score
from .model import SIGNALS, feature_indices_for_modality
from .transform import apply_bins, build_selection_subsample, fit_bins, select_features
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
        doc["folds"] = [asdict(f) for f in self.folds]
        if self.metric_std is None:
            del doc["metric_std"]
        return doc


# Fit keyword arguments per classifier kind, from the arm config and fold seed.
FIT_KWARGS: dict[str, Callable[[ExperimentConfig, np.random.SeedSequence], dict[str, Any]]] = {
    "nb": lambda c, seed: {"alpha": c.nb_alpha, "n_categories": c.bins},
    "brf": lambda c, seed: {"trees": c.brf_trees, "seed": seed, "decision_threshold": c.decision_threshold},
    "ee": lambda c, seed: {
        "bags": c.ee_bags,
        "rounds": c.ee_rounds,
        "seed": seed,
        "decision_threshold": c.decision_threshold,
    },
    "iforest": lambda c, seed: {"trees": c.iforest_trees, "subsample": c.iforest_subsample, "seed": seed},
}


def _fit_and_predict(
    config: ExperimentConfig,
    Xtr: np.ndarray,
    ytr: np.ndarray,
    Xte: np.ndarray,
    seed: np.random.SeedSequence,
) -> tuple[np.ndarray, np.ndarray]:
    kind = config.classifier
    # Resolved on the module at call time, so wrappers installed on
    # `classifiers.<kind>_fit` / `_predict_many` see every call.
    model = getattr(clf, f"{kind}_fit")(Xtr, ytr, **FIT_KWARGS[kind](config, seed))
    return getattr(clf, f"{kind}_predict_many")(model, Xte)


def _confusion(labels: np.ndarray, predicted: np.ndarray) -> tuple[int, int, int, int]:
    tp = int(((labels == 1) & (predicted == 1)).sum())
    fp = int(((labels == 0) & (predicted == 1)).sum())
    fn = int(((labels == 1) & (predicted == 0)).sum())
    tn = int(((labels == 0) & (predicted == 0)).sum())
    return tp, fp, fn, tn


def check_threads(threads: int) -> None:
    """Reject a fold thread count below one."""
    if threads < 1:
        raise ValueError("threads must be >= 1")


def _cached(cache: dict, key: tuple, make: Callable[[], Any]) -> Any:
    if key not in cache:
        cache[key] = make()
    return cache[key]


def _run_fold(
    config: ExperimentConfig,
    train: list[FeatureWindow],
    test: list[FeatureWindow],
    test_age: float,
    fold_seed: np.random.SeedSequence,
    fold_cache: dict,
) -> tuple[list[PredictionRow], FoldReport]:
    patient_id = test[0].spec.patient_id
    ytr = np.array([w.label for w in train], dtype=np.int64)
    yte = np.array([w.label for w in test], dtype=np.int64)
    train_relapse = int(ytr.sum())
    selected_names: tuple[str, ...] | None = None
    selected_scores: tuple[float, ...] | None = None
    warning = None

    if np.unique(ytr).size < 2:
        # No second class to learn from: fall back to majority prediction.
        majority = int(np.bincount(ytr, minlength=2).argmax())
        warning = "single_class_training"
        if ("warned", patient_id) not in fold_cache:
            fold_cache[("warned", patient_id)] = True
            logger.warning("fold %s: training windows are single-class; predicting majority", patient_id)
        predicted = np.full(yte.size, majority, dtype=np.int64)
        scores = np.full(yte.size, float(ytr.mean()) if ytr.size else 0.0)
    else:
        train_matrix = np.stack([w.values for w in train])
        # Keyed by the held-out patient and the one setting each depends on;
        # `fit_bins` and friends resolve on this module at call time.
        bins = _cached(
            fold_cache, ("bins", patient_id, config.bins), lambda: fit_bins(train_matrix, n_bins=config.bins)
        )
        candidates = feature_indices_for_modality(config.modality, config.include_demographics)
        if config.selection:
            subsample = _cached(
                fold_cache,
                ("subsample", patient_id, config.selection_pool),
                lambda: build_selection_subsample(train, test_age, config.selection_pool),
            )
            selection = select_features(subsample, bins, config.selection_top, candidates)
            chosen = selection.selected
            selected_names = selection.selected_names
            selected_scores = tuple(float(selection.scores[i]) for i in chosen)
        else:
            chosen = tuple(candidates)
        Xtr = apply_bins(bins, train_matrix)[:, chosen]
        Xte = apply_bins(bins, np.stack([w.values for w in test]))[:, chosen]
        predicted, scores = _fit_and_predict(config, Xtr, ytr, Xte, fold_seed)

    rows = [
        PredictionRow(spec=w.spec, label=int(w.label), predicted=int(p), score=float(s))
        for w, p, s in zip(test, predicted, scores)
    ]
    tp, fp, fn, tn = _confusion(yte, predicted)
    report = FoldReport(
        patient_id=patient_id,
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        train_windows=len(train),
        train_relapse_windows=train_relapse,
        selected=selected_names,
        selected_scores=selected_scores,
        warning=warning,
    )
    return rows, report


def run_lopo(
    dataset: Dataset,
    config: ExperimentConfig,
    threads: int = 1,
    experiment: str = "evaluate",
    arm: str | None = None,
    windows: Sequence[FeatureWindow] | None = None,
    fold_cache: dict | None = None,
) -> EvalReport:
    """Leave-one-patient-out evaluation of one experiment arm.

    `windows` may carry precomputed feature windows (matching
    config.windowing) to share extraction across arms. `fold_cache` shares
    each fold's binning model and selection subsample across arms; pass the
    same dict only to runs over the same dataset and windows.
    """
    check_threads(threads)
    if fold_cache is None:
        fold_cache = {}
    if windows is None:
        windows = extract_all(dataset, config.windowing)
    windows = list(windows)
    if sum(w.label for w in windows) == 0:
        raise ValueError("no_positive_class: dataset has no relapse-labeled windows")

    by_patient: dict[str, list[FeatureWindow]] = {}
    for w in windows:
        by_patient.setdefault(w.spec.patient_id, []).append(w)
    fold_ids = sorted(by_patient)
    ages = {p.patient_id: float(p.age) for p in dataset.patients}

    seeds = np.random.SeedSequence(config.seed).spawn(len(fold_ids) + 1)

    if config.classifier == "random":
        return _run_random_baseline(config, by_patient, fold_ids, seeds[-1], experiment, arm)

    def fold(i: int) -> tuple[list[PredictionRow], FoldReport]:
        pid = fold_ids[i]
        train = [w for w in windows if w.spec.patient_id != pid]
        return _run_fold(config, train, by_patient[pid], ages[pid], seeds[i], fold_cache)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(fold, range(len(fold_ids))))
    else:
        results = [fold(i) for i in range(len(fold_ids))]

    rows: list[PredictionRow] = []
    folds: list[FoldReport] = []
    for fold_rows, fold_report in results:
        rows.extend(fold_rows)
        folds.append(fold_report)
    tp = sum(f.tp for f in folds)
    fp = sum(f.fp for f in folds)
    fn = sum(f.fn for f in folds)
    tn = sum(f.tn for f in folds)
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
        folds=folds,
        config=asdict(config),
        seed=config.seed,
    )


def _run_random_baseline(
    config: ExperimentConfig,
    by_patient: dict[str, list[FeatureWindow]],
    fold_ids: list[str],
    seed: np.random.SeedSequence,
    experiment: str,
    arm: str | None,
) -> EvalReport:
    """Prevalence-matched coin flips, pooled per run across folds, averaged over runs."""
    all_labels: list[int] = []
    ratios: list[float] = []
    folds: list[FoldReport] = []
    total_relapse = sum(w.label for ws in by_patient.values() for w in ws)
    total_windows = sum(len(ws) for ws in by_patient.values())
    for pid in fold_ids:
        test = by_patient[pid]
        test_relapse = sum(w.label for w in test)
        train_windows = total_windows - len(test)
        train_relapse = total_relapse - test_relapse
        prevalence = train_relapse / train_windows if train_windows else 0.0
        all_labels.extend(w.label for w in test)
        ratios.extend([prevalence] * len(test))
        folds.append(
            FoldReport(
                patient_id=pid,
                tp=0,
                fp=0,
                fn=0,
                tn=0,
                train_windows=train_windows,
                train_relapse_windows=train_relapse,
            )
        )

    rng = np.random.default_rng(seed)
    result = clf.baseline_over_runs(
        np.array(all_labels, dtype=np.int64), np.array(ratios), config.baseline_runs, rng
    )
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


def run_grid(
    experiment: str, dataset: Dataset, base_config: ExperimentConfig, threads: int = 1
) -> list[EvalReport]:
    """Every arm of GRIDS[experiment] over one shared feature extraction
    and one fold cache (each fold's bins and selection subsample)."""
    check_threads(threads)
    grid = GRIDS[experiment]
    windows = extract_all(dataset, base_config.windowing)
    fold_cache: dict = {}
    reports = [
        run_lopo(
            dataset,
            replace(base_config, **overrides),
            threads=threads,
            experiment=experiment,
            arm=arm,
            windows=windows,
            fold_cache=fold_cache,
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
    "check_threads",
    "f2_from_counts",
    "f2_score",
    "run_grid",
    "run_lopo",
]
