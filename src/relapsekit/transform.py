"""Train-fitted categorical quantization and mutual-information selection.

Each feature is quantized into 15 equal-width bins spanning its training
range, after imputing missing values with the training mean, so no test
statistic ever leaks into the transform. Feature selection ranks candidate
features by plug-in mutual information with the label, computed on an
age-matched training subsample: all relapse windows plus the non-relapse
windows of the patients closest in age to the held-out patient.

Every function takes arrays: a float `(windows, features)` matrix and int64
labels, rows in the (patient, window start) order of a
`features.WindowTable`. The subsample is a vector of row indices, drawn by
one stable `np.argsort`. Neither `fit_bins` nor
`build_selection_subsample` depends on anything but the training fold, its
own count (`n_bins`, `n_nonrelapse`) and, for the subsample, the held-out
patient's age, which LOPO reads from that patient's `age` column in the
table. So LOPO fits each once per fold and shares it across experiment
arms (see `evaluate._plan_folds`).
`select_features` ranks `apply_bins` codes; LOPO ranks all 100 once per fold.
`mutual_information_columns` scores every candidate column in one pass;
its sums run in the same order as a per-column table over the present
levels, so each score is bit-identical to scoring the column alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import AGE_INDEX
from .templates import present_groups


@dataclass(frozen=True)
class BinningModel:
    """Per-feature imputation means and training ranges: n_bins equal-width
    bins span each feature's [lo, hi]."""

    impute: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    n_bins: int


@dataclass(frozen=True)
class SelectionModel:
    """Chosen feature indices (canonical order on ties) and all candidate scores."""

    selected: tuple[int, ...]
    scores: np.ndarray


def fit_bins(matrix: np.ndarray, n_bins: int) -> BinningModel:
    """Fit imputation means and equal-width bin ranges from a training matrix only.

    A feature that is constant (or entirely missing) in training degenerates
    to a single category. Each column's present values are packed into a
    contiguous row, so its mean, min and max are the ones numpy gives that
    column alone, bit for bit.
    """
    if len(matrix) == 0:
        raise ValueError("cannot fit bins on an empty training set")
    columns = matrix.T
    present = ~np.isnan(columns)
    impute, lo, hi = np.zeros((3, len(columns)))  # all-missing: impute 0, range [0, 0]
    for cols, values in present_groups(columns, present):
        impute[cols] = values.mean(axis=1)
        lo[cols] = values.min(axis=1)
        hi[cols] = values.max(axis=1)
    return BinningModel(impute=impute, lo=lo, hi=hi, n_bins=n_bins)


def apply_bins(model: BinningModel, vectors) -> np.ndarray:
    """Map feature vectors to categories in {0..n_bins-1}.

    Missing values are imputed with the training mean first; values outside
    the training range clamp to the extreme bins; the training maximum lands
    in the top bin. Accepts one vector or a matrix, returns the same shape.
    """
    arr = np.asarray(vectors, dtype=float)
    matrix = np.where(np.isnan(arr), model.impute, arr)

    width = (model.hi - model.lo) / model.n_bins
    with np.errstate(invalid="ignore", divide="ignore"):
        raw = np.floor((matrix - model.lo) / width)
    raw = np.where(width > 0, raw, 0.0)
    return np.clip(raw, 0, model.n_bins - 1).astype(np.int64)


def mutual_information_columns(codes: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Plug-in mutual information (nats) of each column of `codes` with `labels`.

    `codes` is an (n, columns) matrix of level codes in {0..levels-1} and
    `labels` n label codes in {0..classes-1}. One joint count table covers
    every column; a level absent from a column adds only zeros to it. Each
    sum adds the same terms in the same order as numpy does on a table of
    that column's present levels alone, so the scores are bit-identical to
    scoring each column by itself: the label marginal row by row, and each
    column's nonzero terms as one contiguous vector. A single label class
    carries no information, so every column then scores exactly 0.
    """
    n, n_cols = codes.shape
    if labels.min() == labels.max():
        return np.zeros(n_cols)
    n_levels = int(codes.max()) + 1
    n_labels = int(labels.max()) + 1
    cells = (np.arange(n_cols) * n_levels + codes) * n_labels + labels[:, None]
    joint = np.bincount(cells.ravel(), minlength=n_cols * n_levels * n_labels) / n
    joint = joint.reshape(n_cols, n_levels, n_labels)
    px = joint.sum(axis=2)
    py = joint.cumsum(axis=1)[:, -1]
    nz = joint > 0
    p = joint[nz]
    terms = p * np.log(p / (px[:, :, None] * py[:, None, :])[nz])
    ends = np.cumsum(nz.sum(axis=(1, 2)))[:-1]
    mi = np.array([column.sum() for column in np.split(terms, ends)])
    return np.maximum(mi, 0.0)


def mutual_information(x: np.ndarray, y: np.ndarray) -> float:
    """Plug-in mutual information (nats) between two discrete columns."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size == 0:
        raise ValueError("mutual information needs at least one observation")
    _, xi = np.unique(x, return_inverse=True)
    _, yi = np.unique(y, return_inverse=True)
    return float(mutual_information_columns(xi[:, None], yi)[0])


def build_selection_subsample(
    matrix: np.ndarray, labels: np.ndarray, test_patient_age: float, n_nonrelapse: int
) -> np.ndarray:
    """Row indices of the age-matched subsample used only for feature ranking.

    Every relapse-labeled row in row order, then non-relapse rows in
    ascending |age - test age|, ties in row order, until `n_nonrelapse` are
    taken or none remain. On the rows of a `WindowTable` the ties go by
    patient id, then window start.
    """
    if n_nonrelapse < 1:
        raise ValueError("n_nonrelapse must be >= 1")
    nonrelapse = np.flatnonzero(labels == 0)
    distance = np.abs(matrix[nonrelapse, AGE_INDEX] - float(test_patient_age))
    order = np.argsort(distance, kind="stable")
    return np.concatenate([np.flatnonzero(labels == 1), nonrelapse[order[:n_nonrelapse]]])


def select_features(codes: np.ndarray, labels: np.ndarray, top: int, candidates: Sequence[int]) -> SelectionModel:
    """Rank candidate features by mutual information of their `apply_bins`
    codes with the label and keep the top `top` (canonical order breaks ties)."""
    if labels.size == 0:
        raise ValueError("selection_degenerate: empty subsample")
    if labels.min() == labels.max():
        raise ValueError("selection_degenerate: subsample contains a single class")

    candidates = list(candidates)
    scores = np.full(codes.shape[1], np.nan)
    if candidates:
        scores[candidates] = mutual_information_columns(codes[:, candidates], labels)
    ranked = sorted(candidates, key=lambda f: (-scores[f], f))
    return SelectionModel(selected=tuple(ranked[:top]), scores=scores)
