"""From-scratch classifiers over 15-level categorical features.

Four models share one contract — fit on a categorical matrix with binary
labels, predict (label, score) per row — plus a prevalence-matched random
baseline. Category codes come from monotone binning of real features, so
the tree learners treat them as ordinals and split on thresholds. All
randomness flows from one explicit seed, split deterministically per
tree / bag / run, so results reproduce bit-for-bit across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .metrics import f2_from_counts

EULER_GAMMA = 0.5772156649015329


def _seed_sequence(seed: int | np.random.SeedSequence) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _check_two_classes(y: np.ndarray) -> None:
    if np.unique(y).size < 2:
        raise ValueError("single_class_training: both classes are required to fit")


def balanced_bootstrap(y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Indices of a class-balanced bootstrap: k rows with replacement from each
    class, k = minority class count."""
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == 0)
    k = min(pos.size, neg.size)
    return np.concatenate([rng.choice(pos, size=k, replace=True), rng.choice(neg, size=k, replace=True)])


# ---------------------------------------------------------------------------
# Categorical Naive Bayes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CategoricalNBModel:
    class_log_prior: np.ndarray  # (2,)
    feature_log_likelihood: np.ndarray  # (n_features, n_categories, 2)


def nb_fit(X: np.ndarray, y: np.ndarray, alpha: float = 1.0, n_categories: int = 15) -> CategoricalNBModel:
    """Fit class priors and Laplace-smoothed per-category likelihoods.

    likelihood(f, v | c) = (count(f=v, c) + alpha) / (count(c) + K * alpha).
    """
    X = np.asarray(X, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    _check_two_classes(y)
    if X.min() < 0 or X.max() >= n_categories:
        raise ValueError(f"categories must be in 0..{n_categories - 1}")

    n, n_features = X.shape
    log_prior = np.empty(2)
    log_lik = np.empty((n_features, n_categories, 2))
    for c in (0, 1):
        rows = X[y == c]
        count_c = rows.shape[0]
        log_prior[c] = math.log(count_c / n)
        denom = math.log(count_c + n_categories * alpha)
        for f in range(n_features):
            counts = np.bincount(rows[:, f], minlength=n_categories).astype(float)
            log_lik[f, :, c] = np.log(counts + alpha) - denom
    return CategoricalNBModel(log_prior, log_lik)


def nb_joint_log_likelihood(model: CategoricalNBModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.int64))
    n_features = model.feature_log_likelihood.shape[0]
    per_feature = model.feature_log_likelihood[np.arange(n_features)[None, :], X, :]
    return model.class_log_prior + per_feature.sum(axis=1)


def nb_predict_many(model: CategoricalNBModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels by posterior argmax (exact ties go to non-relapse) and relapse
    posterior probabilities."""
    jll = nb_joint_log_likelihood(model, X)
    labels = (jll[:, 1] > jll[:, 0]).astype(np.int64)
    with np.errstate(over="ignore"):
        scores = 1.0 / (1.0 + np.exp(jll[:, 0] - jll[:, 1]))
    return labels, scores


# ---------------------------------------------------------------------------
# CART trees on ordinal category codes (shared by the balanced forest)
# ---------------------------------------------------------------------------


@dataclass
class _TreeNode:
    prob: float = 0.0
    feature: int = -1
    threshold: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _best_threshold(values: np.ndarray, labels: np.ndarray) -> tuple[float, float] | None:
    """Lowest weighted Gini impurity split of one feature; None if unsplittable."""
    order = np.argsort(values, kind="stable")
    vs = values[order]
    ys = labels[order]
    boundaries = np.flatnonzero(vs[:-1] < vs[1:])
    if boundaries.size == 0:
        return None
    n = vs.size
    cum_pos = np.cumsum(ys)
    n_left = boundaries + 1.0
    pos_left = cum_pos[boundaries].astype(float)
    n_right = n - n_left
    pos_right = cum_pos[-1] - pos_left
    p_left = pos_left / n_left
    p_right = pos_right / n_right
    gini = (n_left * 2 * p_left * (1 - p_left) + n_right * 2 * p_right * (1 - p_right)) / n
    best = int(np.argmin(gini))
    cut = boundaries[best]
    return float(gini[best]), float((vs[cut] + vs[cut + 1]) / 2.0)


def _grow_tree(X: np.ndarray, y: np.ndarray, rng: np.random.Generator, mtry: int) -> _TreeNode:
    """CART with Gini impurity, grown until pure or unsplittable.

    `mtry` features are inspected per split; constant features do not count
    against the budget, and the search keeps going past it until at least
    one valid split has been seen (so separable data always ends pure).
    """
    if y.size < 2 or y.min() == y.max():
        return _TreeNode(prob=float(y.mean()))
    best: tuple[float, float, int] | None = None  # (gini, threshold, feature)
    informative = 0
    for f in rng.permutation(X.shape[1]):
        column = X[:, f]
        if column.min() == column.max():
            continue
        informative += 1
        found = _best_threshold(column, y)
        if found is not None and (best is None or found[0] < best[0]):
            best = (found[0], found[1], int(f))
        if informative >= mtry and best is not None:
            break
    if best is None:
        return _TreeNode(prob=float(y.mean()))
    _, threshold, feature = best
    mask = X[:, feature] <= threshold
    node = _TreeNode(feature=feature, threshold=threshold)
    node.left = _grow_tree(X[mask], y[mask], rng, mtry)
    node.right = _grow_tree(X[~mask], y[~mask], rng, mtry)
    return node


def _tree_scores(node: _TreeNode, X: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    if node.is_leaf:
        out[idx] = node.prob
        return
    mask = X[idx, node.feature] <= node.threshold
    _tree_scores(node.left, X, idx[mask], out)
    _tree_scores(node.right, X, idx[~mask], out)


# ---------------------------------------------------------------------------
# Balanced Random Forest
# ---------------------------------------------------------------------------


@dataclass
class BalancedRandomForestModel:
    trees: list[_TreeNode]
    decision_threshold: float = 0.5


def brf_fit(
    X: np.ndarray,
    y: np.ndarray,
    trees: int = 51,
    seed: int | np.random.SeedSequence = 0,
    decision_threshold: float = 0.5,
) -> BalancedRandomForestModel:
    """Each tree is grown on a balanced bootstrap with sqrt-feature splits."""
    X = np.asarray(X, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    _check_two_classes(y)
    mtry = math.ceil(math.sqrt(X.shape[1]))
    grown: list[_TreeNode] = []
    for child in _seed_sequence(seed).spawn(trees):
        rng = np.random.default_rng(child)
        idx = balanced_bootstrap(y, rng)
        grown.append(_grow_tree(X[idx], y[idx], rng, mtry))
    return BalancedRandomForestModel(grown, decision_threshold)


def brf_scores(model: BalancedRandomForestModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.int64))
    total = np.zeros(X.shape[0])
    scratch = np.empty(X.shape[0])
    for tree in model.trees:
        _tree_scores(tree, X, np.arange(X.shape[0]), scratch)
        total += scratch
    return total / len(model.trees)


def brf_predict_many(model: BalancedRandomForestModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = brf_scores(model, X)
    return (scores >= model.decision_threshold).astype(np.int64), scores


# ---------------------------------------------------------------------------
# EasyEnsemble: boosted stumps over balanced bags
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Stump:
    feature: int
    threshold: float
    left_sign: int  # prediction in {-1, +1} for value <= threshold; flipped on the right

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.where(X[:, self.feature] <= self.threshold, self.left_sign, -self.left_sign)


@dataclass
class EasyEnsembleModel:
    bags: list[list[tuple[float, _Stump]]]
    decision_threshold: float = 0.5


def _best_stump(X: np.ndarray, y_pm: np.ndarray, w: np.ndarray) -> tuple[_Stump, float]:
    """Minimum weighted-error decision stump over all features and cuts."""
    best_err = math.inf
    best: _Stump | None = None
    total_pos = float(w[y_pm == 1].sum())
    total = float(w.sum())
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        vs = X[order, f]
        ws = w[order]
        ys = y_pm[order]
        # Cut after each run of equal values; the last cut sends every row left.
        cuts = np.append(np.flatnonzero(vs[:-1] < vs[1:]), vs.size - 1)
        pos_pref = np.cumsum(np.where(ys == 1, ws, 0.0))[cuts]
        neg_pref = np.cumsum(np.where(ys == -1, ws, 0.0))[cuts]
        # left_sign = +1 misclassifies: negatives on the left, positives on the right
        err_plus = neg_pref + (total_pos - pos_pref)
        err_minus = total - err_plus
        for k, cut in enumerate(cuts):
            threshold = float(vs[cut]) if cut == vs.size - 1 else float((vs[cut] + vs[cut + 1]) / 2.0)
            for sign, err in ((1, float(err_plus[k])), (-1, float(err_minus[k]))):
                if err < best_err:
                    best_err = err
                    best = _Stump(feature=f, threshold=threshold, left_sign=sign)
    assert best is not None
    return best, best_err


def ee_fit(
    X: np.ndarray,
    y: np.ndarray,
    bags: int = 101,
    rounds: int = 10,
    seed: int | np.random.SeedSequence = 0,
    decision_threshold: float = 0.5,
) -> EasyEnsembleModel:
    """Adaptive-boosting chains of depth-1 trees, one chain per balanced bag.

    A round with zero weighted error keeps that stump and ends the chain; a
    round no better than chance ends the chain without it.
    """
    X = np.asarray(X, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    _check_two_classes(y)
    fitted: list[list[tuple[float, _Stump]]] = []
    for child in _seed_sequence(seed).spawn(bags):
        rng = np.random.default_rng(child)
        idx = balanced_bootstrap(y, rng)
        Xb = X[idx]
        yb = np.where(y[idx] == 1, 1, -1)
        w = np.full(idx.size, 1.0 / idx.size)
        chain: list[tuple[float, _Stump]] = []
        for _ in range(rounds):
            stump, err = _best_stump(Xb, yb, w)
            if err <= 0.0:
                chain.append((1.0, stump))
                break
            if err >= 0.5:
                break
            alpha = 0.5 * math.log((1.0 - err) / err)
            chain.append((alpha, stump))
            w = w * np.exp(-alpha * yb * stump.predict(Xb))
            w /= w.sum()
        fitted.append(chain)
    return EasyEnsembleModel(fitted, decision_threshold)


def ee_scores(model: EasyEnsembleModel, X: np.ndarray) -> np.ndarray:
    """Mean over bags of the weighted-vote margin, mapped from [-1, 1] to [0, 1]."""
    X = np.atleast_2d(np.asarray(X, dtype=np.int64))
    bag_scores = np.zeros((len(model.bags), X.shape[0]))
    for b, chain in enumerate(model.bags):
        alpha_total = sum(alpha for alpha, _ in chain)
        if alpha_total <= 0.0:
            bag_scores[b] = 0.5
            continue
        vote = np.zeros(X.shape[0])
        for alpha, stump in chain:
            vote += alpha * stump.predict(X)
        bag_scores[b] = (vote / alpha_total + 1.0) / 2.0
    return bag_scores.mean(axis=0)


def ee_predict_many(model: EasyEnsembleModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = ee_scores(model, X)
    return (scores >= model.decision_threshold).astype(np.int64), scores


# ---------------------------------------------------------------------------
# Isolation Forest (relapse treated as the outlier class)
# ---------------------------------------------------------------------------


@dataclass
class _IsolationNode:
    size: int = 0
    feature: int = -1
    split: float = 0.0
    left: "_IsolationNode | None" = None
    right: "_IsolationNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class IsolationForestModel:
    trees: list[_IsolationNode]
    sample_size: int
    threshold: float = 0.5


def average_path_length(n: int) -> float:
    """Expected unsuccessful-search path length in a binary search tree of n points."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    return 2.0 * (math.log(n - 1) + EULER_GAMMA) - 2.0 * (n - 1) / n


def _grow_isolation_tree(
    X: np.ndarray, idx: np.ndarray, depth: int, limit: int, rng: np.random.Generator
) -> _IsolationNode:
    if depth >= limit or idx.size <= 1:
        return _IsolationNode(size=idx.size)
    candidates = [f for f in range(X.shape[1]) if X[idx, f].min() < X[idx, f].max()]
    if not candidates:
        return _IsolationNode(size=idx.size)
    feature = candidates[rng.integers(len(candidates))]
    lo = float(X[idx, feature].min())
    hi = float(X[idx, feature].max())
    split = rng.uniform(lo, hi)
    while split <= lo:  # guard the measure-zero draw that would empty one side
        split = rng.uniform(lo, hi)
    mask = X[idx, feature] < split
    node = _IsolationNode(feature=feature, split=split)
    node.left = _grow_isolation_tree(X, idx[mask], depth + 1, limit, rng)
    node.right = _grow_isolation_tree(X, idx[~mask], depth + 1, limit, rng)
    return node


def _isolation_paths(node: _IsolationNode, X: np.ndarray, idx: np.ndarray, depth: int, out: np.ndarray) -> None:
    if node.is_leaf:
        out[idx] = depth + average_path_length(node.size)
        return
    mask = X[idx, node.feature] < node.split
    _isolation_paths(node.left, X, idx[mask], depth + 1, out)
    _isolation_paths(node.right, X, idx[~mask], depth + 1, out)


def iforest_fit(
    X: np.ndarray,
    y: np.ndarray,
    trees: int = 101,
    subsample: int = 256,
    seed: int | np.random.SeedSequence = 0,
) -> IsolationForestModel:
    """Isolation trees over the feature matrix; labels only set the threshold.

    The threshold is the k-th largest training score, k = round(prevalence * n),
    and every row scoring at or above it is flagged. Category codes make
    equal scores common, so ties at that cut can flag more than k training
    rows. With k = 0 the threshold is infinite and nothing is flagged.
    """
    X = np.asarray(X, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]
    psi = min(subsample, n)
    limit = math.ceil(math.log2(max(psi, 2)))
    grown: list[_IsolationNode] = []
    for child in _seed_sequence(seed).spawn(trees):
        rng = np.random.default_rng(child)
        idx = rng.choice(n, size=psi, replace=False)
        grown.append(_grow_isolation_tree(X, idx, 0, limit, rng))
    model = IsolationForestModel(grown, psi)

    train_scores = iforest_scores(model, X)
    flagged = int(round(float(y.mean()) * n)) if n else 0
    if flagged <= 0:
        model.threshold = math.inf
    else:
        model.threshold = float(np.sort(train_scores)[::-1][flagged - 1])
    return model


def iforest_scores(model: IsolationForestModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.int64))
    paths = np.zeros((len(model.trees), X.shape[0]))
    scratch = np.empty(X.shape[0])
    for t, tree in enumerate(model.trees):
        _isolation_paths(tree, X, np.arange(X.shape[0]), 0, scratch)
        paths[t] = scratch
    denom = average_path_length(model.sample_size)
    if denom <= 0.0:
        denom = 1.0
    return np.exp2(-paths.mean(axis=0) / denom)


def iforest_predict_many(model: IsolationForestModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = iforest_scores(model, X)
    return (scores >= model.threshold).astype(np.int64), scores


# ---------------------------------------------------------------------------
# Random baseline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaselineResult:
    precision: float
    recall: float
    f2: float
    precision_std: float
    recall_std: float
    f2_std: float
    tp: float
    fp: float
    fn: float
    tn: float


def baseline_over_runs(
    labels: np.ndarray, ratios: np.ndarray, runs: int, rng: np.random.Generator
) -> BaselineResult:
    """Mean and std of (precision, recall, f2) over independent random runs.

    Each run predicts relapse for window i with probability ratios[i] (the
    training prevalence of that window's fold).
    """
    draws = rng.random((runs, labels.size))
    preds = draws < ratios
    pos = labels == 1
    tp = preds[:, pos].sum(axis=1)
    fn = (~preds[:, pos]).sum(axis=1)
    fp = preds[:, ~pos].sum(axis=1)
    tn = (~preds[:, ~pos]).sum(axis=1)

    per_run = np.array([f2_from_counts(t, f, m) for t, f, m in zip(tp, fp, fn)])
    precision, recall, f2 = per_run.mean(axis=0)
    p_std, r_std, f2_std = per_run.std(axis=0)
    return BaselineResult(
        precision=float(precision),
        recall=float(recall),
        f2=float(f2),
        precision_std=float(p_std),
        recall_std=float(r_std),
        f2_std=float(f2_std),
        tp=float(tp.mean()),
        fp=float(fp.mean()),
        fn=float(fn.mean()),
        tn=float(tn.mean()),
    )
