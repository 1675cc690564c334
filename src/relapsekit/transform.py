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
`build_selection_subsample` depends on anything but the training fold and
its own count (`n_bins`, `n_nonrelapse`), so LOPO fits each once per fold
and shares it across experiment arms (see `evaluate.run_grid`).
`mutual_information_columns` scores every candidate column in one pass;
its sums run in the same order as a per-column table over the present
levels, so each score is bit-identical to scoring the column alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import AGE_INDEX, FEATURE_NAMES
from .templates import present_groups


@dataclass(frozen=True)
class BinningModel:
    """Per-feature imputation means and equal-width bin edges (n_bins + 1 each)."""

    impute: np.ndarray
    edges: np.ndarray
    n_bins: int

    @property
    def lo(self) -> np.ndarray:
        return self.edges[:, 0]

    @property
    def hi(self) -> np.ndarray:
        return self.edges[:, -1]


@dataclass(frozen=True)
class SelectionModel:
    """Chosen feature indices (canonical order on ties) and all candidate scores."""

    selected: tuple[int, ...]
    scores: np.ndarray

    @property
    def selected_names(self) -> tuple[str, ...]:
        return tuple(FEATURE_NAMES[i] for i in self.selected)


def fit_bins(matrix: np.ndarray, n_bins: int) -> BinningModel:
    """Fit imputation means and equal-width edges from a training matrix only.

    A feature that is constant (or entirely missing) in training degenerates
    to a single category. Each column's present values are packed into a
    contiguous row, so its mean, min and max are the ones numpy gives that
    column alone, bit for bit.
    """
    if len(matrix) == 0:
        raise ValueError("cannot fit bins on an empty training set")
    columns = matrix.T
    present = ~np.isnan(columns)
    impute, lo, hi = np.zeros((3, len(columns)))  # all-missing: impute 0, edges all 0
    for cols, values in present_groups(columns, present):
        impute[cols] = values.mean(axis=1)
        lo[cols] = values.min(axis=1)
        hi[cols] = values.max(axis=1)
    edges = np.zeros((len(columns), n_bins + 1))
    seen, flat = present.any(axis=1), (hi - lo) / n_bins == 0
    # `linspace` over several columns takes its step == 0 branch for all of
    # them if one needs it, so columns with and without a zero step go apart.
    for group in (seen & ~flat, seen & flat):
        edges[group] = np.linspace(lo[group], hi[group], n_bins + 1, axis=1)
    return BinningModel(impute=impute, edges=edges, n_bins=n_bins)


def apply_bins(model: BinningModel, vectors) -> np.ndarray:
    """Map feature vectors to categories in {0..n_bins-1}.

    Missing values are imputed with the training mean first; values outside
    the training range clamp to the extreme bins; the training maximum lands
    in the top bin. Accepts one vector or a matrix, returns the same shape.
    """
    arr = np.asarray(vectors, dtype=float)
    single = arr.ndim == 1
    matrix = arr[None, :] if single else arr
    matrix = np.where(np.isnan(matrix), model.impute, matrix)

    lo, hi = model.lo, model.hi
    width = (hi - lo) / model.n_bins
    with np.errstate(invalid="ignore", divide="ignore"):
        raw = np.floor((matrix - lo) / width)
    raw = np.where(width > 0, raw, 0.0)
    cats = np.clip(raw, 0, model.n_bins - 1).astype(np.int64)
    return cats[0] if single else cats


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


def select_features(
    matrix: np.ndarray,
    labels: np.ndarray,
    bins: BinningModel,
    top: int,
    candidates: Sequence[int] | None = None,
) -> SelectionModel:
    """Rank candidate features by mutual information with the label on the
    binned subsample rows and keep the top `top` (canonical order breaks ties)."""
    if labels.size == 0:
        raise ValueError("selection_degenerate: empty subsample")
    if labels.min() == labels.max():
        raise ValueError("selection_degenerate: subsample contains a single class")

    codes = apply_bins(bins, matrix)
    if candidates is None:
        candidates = range(codes.shape[1])
    candidates = list(candidates)

    scores = np.full(codes.shape[1], np.nan)
    if candidates:
        scores[candidates] = mutual_information_columns(codes[:, candidates], labels)
    ranked = sorted(candidates, key=lambda f: (-scores[f], f))
    return SelectionModel(selected=tuple(ranked[:top]), scores=scores)
