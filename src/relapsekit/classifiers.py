"""From-scratch classifiers over 15-level categorical features.

Four models share one contract — fit on a categorical matrix with binary
labels, predict (label, score) per row — plus a prevalence-matched random
baseline. Category codes come from monotone binning of real features, so
the tree learners treat them as ordinals and split on thresholds. All
randomness flows from one explicit seed, split deterministically per
tree / bag / run, so results reproduce bit-for-bit across platforms.

Every tree is one `_Tree` of flat node arrays, walked by one traversal,
and every split search scans the cuts of `_cuts`. Balanced-forest leaves
hold the class-1 fraction, EasyEnsemble stumps are 3-node trees with
leaves of +1/-1, and isolation leaves hold the expected path length.
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
# One tree core: flat node arrays, one traversal, one cut search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Tree:
    """Flat binary tree; node 0 is the root.

    A row goes left iff `x[feature] <= threshold`. A leaf has `left == -1`
    and its `value` is the tree's output for every row that reaches it.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @classmethod
    def from_nodes(cls, nodes: list[list]) -> _Tree:
        """From `[feature, threshold, left, right, value]` rows in node order."""
        return cls(*(np.array(column) for column in zip(*nodes)))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf value per row; every row not yet at a leaf moves one level per step."""
        node = np.zeros(X.shape[0], dtype=np.intp)
        live = np.flatnonzero(self.left[node] >= 0)
        while live.size:
            at = node[live]
            goes_left = X[live, self.feature[at]] <= self.threshold[at]
            node[live] = np.where(goes_left, self.left[at], self.right[at])
            live = live[self.left[node[live]] >= 0]
        return self.value[node]


def _new_node(nodes: list[list], value: float) -> int:
    """Append a leaf holding `value` and return its index; a split fills in the rest."""
    nodes.append([0, 0.0, -1, -1, value])
    return len(nodes) - 1


def _cuts(values: np.ndarray, *weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Every cut of one feature, in ascending threshold order.

    There is one cut after each run of equal values, and the last one sends
    every row left. Returns each cut's left-row count, its threshold (midway
    to the next distinct value; the maximum for the last cut) and, for each
    weight array, the sum of its entries left of the cut.
    """
    order = np.argsort(values, kind="stable")
    vs = values[order]
    ends = np.append(np.flatnonzero(vs[:-1] < vs[1:]), vs.size - 1)
    thresholds = np.append((vs[ends[:-1]] + vs[ends[:-1] + 1]) / 2.0, vs[-1])
    return ends + 1, thresholds, [np.cumsum(w[order])[ends] for w in weights]


# ---------------------------------------------------------------------------
# Balanced Random Forest: CART trees on ordinal category codes
# ---------------------------------------------------------------------------


def _best_threshold(values: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """(Gini impurity, threshold) of the lowest weighted Gini impurity split of
    one non-constant feature."""
    n_left, thresholds, (pos_left,) = _cuts(values, labels)
    n = values.size
    total_pos = pos_left[-1]
    n_left, pos_left = n_left[:-1].astype(float), pos_left[:-1].astype(float)
    n_right = n - n_left
    pos_right = total_pos - pos_left
    p_left = pos_left / n_left
    p_right = pos_right / n_right
    gini = (n_left * 2 * p_left * (1 - p_left) + n_right * 2 * p_right * (1 - p_right)) / n
    best = int(np.argmin(gini))
    return float(gini[best]), float(thresholds[best])


def _grow_tree(X: np.ndarray, y: np.ndarray, rng: np.random.Generator, mtry: int, nodes: list[list]) -> list[list]:
    """CART with Gini impurity, grown until pure or unsplittable; leaves hold
    the class-1 fraction. Appends the subtree, root first, to `nodes`.

    `mtry` features are inspected per split; constant features do not count
    against the budget, and the search keeps going past it until at least
    one valid split has been seen (so separable data always ends pure).
    """
    at = _new_node(nodes, float(y.mean()))
    if y.size < 2 or y.min() == y.max():
        return nodes
    best: tuple[float, float, int] | None = None  # (gini, threshold, feature)
    informative = 0
    for f in rng.permutation(X.shape[1]):
        column = X[:, f]
        if column.min() == column.max():
            continue
        informative += 1
        found = _best_threshold(column, y)
        if best is None or found[0] < best[0]:
            best = (found[0], found[1], int(f))
        if informative >= mtry:
            break
    if best is None:
        return nodes
    _, threshold, feature = best
    mask = X[:, feature] <= threshold
    nodes[at][:3] = feature, threshold, len(nodes)
    _grow_tree(X[mask], y[mask], rng, mtry, nodes)
    nodes[at][3] = len(nodes)
    return _grow_tree(X[~mask], y[~mask], rng, mtry, nodes)


@dataclass
class BalancedRandomForestModel:
    trees: list[_Tree]
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
    grown: list[_Tree] = []
    for child in _seed_sequence(seed).spawn(trees):
        rng = np.random.default_rng(child)
        idx = balanced_bootstrap(y, rng)
        grown.append(_Tree.from_nodes(_grow_tree(X[idx], y[idx], rng, mtry, [])))
    return BalancedRandomForestModel(grown, decision_threshold)


def brf_predict_many(model: BalancedRandomForestModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels and scores; a row's score is its mean leaf value over the trees."""
    X = np.atleast_2d(np.asarray(X, dtype=np.int64))
    scores = np.zeros(X.shape[0])
    for tree in model.trees:
        scores += tree.predict(X)
    scores /= len(model.trees)
    return (scores >= model.decision_threshold).astype(np.int64), scores


# ---------------------------------------------------------------------------
# EasyEnsemble: boosted stumps over balanced bags
# ---------------------------------------------------------------------------


@dataclass
class EasyEnsembleModel:
    bags: list[list[tuple[float, _Tree]]]  # per bag: (alpha, stump) boosting chain
    decision_threshold: float = 0.5


def _stump(feature: int, threshold: float, left_sign: int) -> _Tree:
    """A depth-1 tree: `left_sign` for value <= threshold, `-left_sign` above it."""
    return _Tree.from_nodes(
        [[feature, threshold, 1, 2, 0.0], [0, 0.0, -1, -1, left_sign], [0, 0.0, -1, -1, -left_sign]]
    )


def _best_stump(X: np.ndarray, y_pm: np.ndarray, w: np.ndarray) -> tuple[_Tree, float]:
    """Minimum weighted-error decision stump over all features and cuts.

    The first minimum in (feature, cut, left sign +1 then -1) order wins.
    """
    best_err = math.inf
    best: tuple[int, float, int] | None = None  # (feature, threshold, left_sign)
    total_pos = float(w[y_pm == 1].sum())
    total = float(w.sum())
    pos_w = np.where(y_pm == 1, w, 0.0)
    neg_w = np.where(y_pm == -1, w, 0.0)
    for f in range(X.shape[1]):
        _, thresholds, (pos_left, neg_left) = _cuts(X[:, f], pos_w, neg_w)
        # left_sign = +1 misclassifies: negatives on the left, positives on the right
        err_plus = neg_left + (total_pos - pos_left)
        errs = np.column_stack((err_plus, total - err_plus)).ravel()
        k = int(np.argmin(errs))
        if errs[k] < best_err:
            best_err = float(errs[k])
            best = (f, float(thresholds[k // 2]), 1 - 2 * (k % 2))
    return _stump(*best), best_err


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
    fitted: list[list[tuple[float, _Tree]]] = []
    for child in _seed_sequence(seed).spawn(bags):
        rng = np.random.default_rng(child)
        idx = balanced_bootstrap(y, rng)
        Xb = X[idx]
        yb = np.where(y[idx] == 1, 1, -1)
        w = np.full(idx.size, 1.0 / idx.size)
        chain: list[tuple[float, _Tree]] = []
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


def ee_predict_many(model: EasyEnsembleModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels and scores; a row's score is the mean over bags of the
    weighted-vote margin, mapped from [-1, 1] to [0, 1]."""
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
    scores = bag_scores.mean(axis=0)
    return (scores >= model.decision_threshold).astype(np.int64), scores


# ---------------------------------------------------------------------------
# Isolation Forest (relapse treated as the outlier class)
# ---------------------------------------------------------------------------


@dataclass
class IsolationForestModel:
    trees: list[_Tree]
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
    rows: np.ndarray, depth: int, limit: int, rng: np.random.Generator, nodes: list[list]
) -> list[list]:
    """Random splits until depth `limit` or until the rows cannot be split;
    a leaf holds its depth plus the expected path length of its rows.
    Appends the subtree, root first, to `nodes`.

    A row goes left iff its value is below the drawn split s. The node stores
    nextafter(s, -inf), the largest float below s, so the tree's shared
    `<=` rule gives the same side for every value.
    """
    at = _new_node(nodes, depth + average_path_length(rows.shape[0]))
    if depth >= limit or rows.shape[0] <= 1:
        return nodes
    lows, highs = rows.min(axis=0), rows.max(axis=0)
    candidates = np.flatnonzero(lows < highs)
    if candidates.size == 0:
        return nodes
    feature = int(candidates[rng.integers(candidates.size)])
    lo, hi = float(lows[feature]), float(highs[feature])
    split = rng.uniform(lo, hi)
    while split <= lo:  # guard the measure-zero draw that would empty one side
        split = rng.uniform(lo, hi)
    threshold = float(np.nextafter(split, -np.inf))
    mask = rows[:, feature] <= threshold
    nodes[at][:3] = feature, threshold, len(nodes)
    _grow_isolation_tree(rows[mask], depth + 1, limit, rng, nodes)
    nodes[at][3] = len(nodes)
    return _grow_isolation_tree(rows[~mask], depth + 1, limit, rng, nodes)


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
    grown: list[_Tree] = []
    for child in _seed_sequence(seed).spawn(trees):
        rng = np.random.default_rng(child)
        idx = rng.choice(n, size=psi, replace=False)
        grown.append(_Tree.from_nodes(_grow_isolation_tree(X[idx], 0, limit, rng, [])))
    model = IsolationForestModel(grown, psi)

    train_scores = iforest_scores(model, X)
    flagged = int(round(float(y.mean()) * n)) if n else 0
    model.threshold = float(np.sort(train_scores)[::-1][flagged - 1]) if flagged > 0 else math.inf
    return model


def iforest_scores(model: IsolationForestModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.int64))
    paths = np.array([tree.predict(X) for tree in model.trees])
    denom = average_path_length(model.sample_size) or 1.0
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
