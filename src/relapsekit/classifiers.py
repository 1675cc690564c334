"""From-scratch classifiers over 15-level categorical features.

Four models share one contract — fit on a categorical matrix with binary
labels, predict (label, score) per row — plus a prevalence-matched random
baseline. Category codes come from monotone binning of real features, so
the tree learners treat them as ordinals and split on thresholds. All
randomness flows from one explicit seed, split deterministically per
tree / bag / run, so results reproduce bit-for-bit across platforms.

Both forests are one `_Forest`: flat node arrays shared by its trees, with
one root per tree, walked by one traversal over (tree, row) pairs.
Balanced-forest leaves hold the class-1 fraction and isolation leaves hold
the expected path length. Forests score each distinct row once and copy
its leaf values to the equal rows. The isolation trees of one fit grow in
lockstep, one node per tree per step, each on its subsample's distinct
rows and each drawing from its own Generator in its own preorder, so every
draw is the one a tree-at-a-time recursive grower makes.

EasyEnsemble keeps no trees: its model is four `(bags, rounds)` arrays of
stumps (alpha, feature, threshold, sign). All bags boost in lockstep over
columns sorted once, with the same sums in the same order as a bag at a
time, so the chains are exactly the per-bag ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


def balanced_bootstraps(y: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One class-balanced bootstrap per Generator, as the rows of a
    `(len(rngs), 2k)` index array: k rows with replacement from each class,
    positives first, k = minority class count. The class rows are found once.
    Each Generator's draws, and its state after them, are those of
    `rng.choice(rows, size=k)` per class; calling `integers` directly skips
    `choice`'s argument checks."""
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == 0)
    k = min(pos.size, neg.size)
    out = np.empty((len(rngs), 2 * k), dtype=pos.dtype)
    for row, rng in zip(out, rngs):
        row[:k] = pos[rng.integers(pos.size, size=k)]
        row[k:] = neg[rng.integers(neg.size, size=k)]
    return out


def balanced_bootstrap(y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The one bootstrap of `balanced_bootstraps(y, [rng])`."""
    return balanced_bootstraps(y, [rng])[0]


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
class _Forest:
    """Flat binary trees in shared node arrays; tree t's root is `roots[t]`.

    A row goes left iff `x[feature] <= threshold`. A leaf has `left == -1`
    and its `value` is the tree's output for every row that reaches it.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray

    @classmethod
    def from_nodes(cls, nodes: list[list], roots: list[int]) -> _Forest:
        """From `[feature, threshold, left, right, value]` rows in node order
        and the node index of each tree's root."""
        return cls(*(np.array(column) for column in zip(*nodes)), np.array(roots, dtype=np.intp))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """(trees, rows) leaf values; every (tree, row) pair not yet at a leaf
        moves one level per step."""
        n = X.shape[0]
        node = self.roots.repeat(n)  # pair t * n + i is (tree t, row i)
        live = np.flatnonzero(self.left[node] >= 0)
        while live.size:
            at = node[live]
            goes_left = X[live % n, self.feature[at]] <= self.threshold[at]
            node[live] = np.where(goes_left, self.left[at], self.right[at])
            live = live[self.left[node[live]] >= 0]
        return self.value[node].reshape(self.roots.size, n)


def _leaf_values(forest: _Forest, X: np.ndarray) -> np.ndarray:
    """C-contiguous (trees, rows) leaf values of `forest`, walking each
    distinct row once. Equal rows reach equal leaves, so this is exact."""
    distinct, inverse = np.unique(X, axis=0, return_inverse=True)
    return np.take(forest.predict(distinct), inverse, axis=1)


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
    forest: _Forest
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
    nodes: list[list] = []
    roots: list[int] = []
    rngs = [np.random.default_rng(child) for child in _seed_sequence(seed).spawn(trees)]
    # Each tree's Generator draws its bootstrap, then grows the tree.
    for rng, idx in zip(rngs, balanced_bootstraps(y, rngs)):
        roots.append(len(nodes))
        _grow_tree(X[idx], y[idx], rng, mtry, nodes)
    return BalancedRandomForestModel(_Forest.from_nodes(nodes, roots), decision_threshold)


def brf_predict_many(model: BalancedRandomForestModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels and scores; a row's score is its mean leaf value over the trees.

    The leaf values are summed tree by tree (`cumsum`), never pairwise, so
    a score does not depend on how many rows are scored together.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.int64))
    scores = _leaf_values(model.forest, X).cumsum(axis=0)[-1] / model.forest.roots.size
    return (scores >= model.decision_threshold).astype(np.int64), scores


# ---------------------------------------------------------------------------
# EasyEnsemble: boosted stumps over balanced bags
# ---------------------------------------------------------------------------


@dataclass
class EasyEnsembleModel:
    """Boosting chains as `(bags, rounds)` arrays. Round r of bag b is the
    stump voting `sign` for `x[feature] <= threshold` and `-sign` above it,
    with weight `alpha`. A chain that ended early is padded with alpha 0
    and sign 0."""

    alpha: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    sign: np.ndarray
    decision_threshold: float = 0.5


def _sort_columns(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every (bag, feature) column of `rows` (bags, rows, features), sorted once.

    Returns the `(bags, features, rows)` columns, each column's stable sort
    order, a mask of the sorted positions followed by an equal value (no cut
    after them), and the threshold of the cut after each position: midway to
    the next distinct value, or the maximum after the last position.
    """
    columns = rows.transpose(0, 2, 1)
    order = np.argsort(columns, axis=2, kind="stable")
    values = np.take_along_axis(columns, order, axis=2)
    inside_run = np.zeros(values.shape, dtype=bool)
    inside_run[..., :-1] = values[..., :-1] == values[..., 1:]
    cuts = np.concatenate([(values[..., :-1] + values[..., 1:]) / 2.0, values[..., -1:]], axis=2)
    return columns, order, inside_run, cuts


def _best_stumps(
    order: np.ndarray, inside_run: np.ndarray, cuts: np.ndarray, w: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimum weighted-error decision stump of each bag, as
    (error, feature, threshold, left sign) arrays.

    The bags' sorted columns come from `_sort_columns`, `w` holds their
    (bags, rows) weights, and each bag's first k rows are its positives.
    Every cut's weight left of it is a `cumsum` along the sorted order, and
    one flat `argmin` per bag picks the first minimum in (feature, cut,
    left sign +1 then -1) order.
    """
    w_sorted = np.take_along_axis(w[:, None, :], order, axis=2)
    positive = order < k
    pos_left = np.where(positive, w_sorted, 0.0).cumsum(axis=2)
    neg_left = np.where(positive, 0.0, w_sorted).cumsum(axis=2)
    # left sign +1 misclassifies the negatives on the left and the positives on the right
    err_plus = neg_left + (w[:, :k].sum(axis=1)[:, None, None] - pos_left)
    errs = np.stack((err_plus, w.sum(axis=1)[:, None, None] - err_plus), axis=3)
    errs[inside_run] = np.inf
    errs = errs.reshape(w.shape[0], -1)
    best = errs.argmin(axis=1)
    feature, at, minus = np.unravel_index(best, inside_run.shape[1:] + (2,))
    bags = np.arange(w.shape[0])
    return errs[bags, best], feature, cuts[bags, feature, at], 1 - 2 * minus


def ee_fit(
    X: np.ndarray,
    y: np.ndarray,
    bags: int = 101,
    rounds: int = 10,
    seed: int | np.random.SeedSequence = 0,
    decision_threshold: float = 0.5,
) -> EasyEnsembleModel:
    """Adaptive-boosting chains of decision stumps, one chain per balanced bag.

    Each round keeps the bag's minimum weighted-error stump. A round with
    zero weighted error keeps that stump and ends the chain; a round no
    better than chance ends the chain without it.

    Bag b draws its bootstrap from its own Generator, positives first. All
    bags are boosted in lockstep over columns sorted once (`_sort_columns`,
    `_best_stumps`), with the same sums, in the same order, as a bag at a
    time.
    """
    X = np.asarray(X, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    _check_two_classes(y)
    if bags < 1 or rounds < 1:
        raise ValueError("bags and rounds must be at least 1")
    idx = balanced_bootstraps(y, [np.random.default_rng(child) for child in _seed_sequence(seed).spawn(bags)])
    n = idx.shape[1]
    k = n // 2
    y_pm = np.repeat([1, -1], k)
    columns, order, inside_run, cuts = _sort_columns(X[idx])

    alpha = np.zeros((bags, rounds))
    feature = np.zeros((bags, rounds), dtype=np.int64)
    threshold = np.zeros((bags, rounds))
    sign = np.zeros((bags, rounds), dtype=np.int64)
    live = np.arange(bags)
    w = np.full((bags, n), 1.0 / n)  # the live bags' weights
    for r in range(rounds):
        if not live.size:
            break
        err, f, thr, left_sign = _best_stumps(order[live], inside_run[live], cuts[live], w, k)
        kept = err < 0.5
        chain = live[kept]
        alpha[chain, r] = [1.0 if e <= 0.0 else 0.5 * math.log((1.0 - e) / e) for e in err[kept].tolist()]
        feature[chain, r], threshold[chain, r], sign[chain, r] = f[kept], thr[kept], left_sign[kept]

        going = kept & (err > 0.0)
        live = live[going]
        left = columns[live, f[going]] <= thr[going, None]
        margin = y_pm * np.where(left, left_sign[going, None], -left_sign[going, None])
        w = w[going] * np.exp(-alpha[live, r, None] * margin)
        w /= w.sum(axis=1, keepdims=True)
    return EasyEnsembleModel(alpha, feature, threshold, sign, decision_threshold)


def ee_predict_many(model: EasyEnsembleModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels and scores; a row's score is the mean over bags of the
    weighted-vote margin, mapped from [-1, 1] to [0, 1]. A bag with an
    empty chain scores 0.5.

    Votes and alphas are added round by round (`cumsum`), so a bag's margin
    does not depend on how many rows are scored together.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.int64))
    left = X.T[model.feature] <= model.threshold[:, :, None]  # (bags, rounds, rows)
    sign = model.sign[:, :, None]
    vote = (model.alpha[:, :, None] * np.where(left, sign, -sign)).cumsum(axis=1)[:, -1]
    alpha_total = model.alpha.cumsum(axis=1)[:, -1:]
    chained = alpha_total > 0.0
    bag_scores = np.where(chained, (vote / np.where(chained, alpha_total, 1.0) + 1.0) / 2.0, 0.5)
    scores = bag_scores.mean(axis=0)
    return (scores >= model.decision_threshold).astype(np.int64), scores


# ---------------------------------------------------------------------------
# Isolation Forest (relapse treated as the outlier class)
# ---------------------------------------------------------------------------


@dataclass
class IsolationForestModel:
    forest: _Forest
    sample_size: int
    threshold: float = 0.5


def average_path_length(n: int) -> float:
    """Expected unsuccessful-search path length in a binary search tree of n points."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    return 2.0 * (math.log(n - 1) + EULER_GAMMA) - 2.0 * (n - 1) / n


def _grow_isolation_forest(rows: np.ndarray, picks: np.ndarray, limit: int, rngs: list[np.random.Generator]) -> _Forest:
    """Isolation trees over `rows`, tree t grown on the rows `picks[t]` with `rngs[t]`.

    Every tree visits its nodes in preorder through its own stack, and all
    trees take one step together. A node at depth `limit`, or holding at
    most one row, is a leaf; so is a node whose rows are all equal. Any
    other node draws a feature among its non-constant ones (`integers`),
    then a split s in (lo, hi) of that feature (`uniform`, redrawn in the
    measure-zero case s == lo); a row goes left iff its value is below s.
    The node stores nextafter(s, -inf), the largest float below s, so the
    forest's shared `<=` rule gives the same side for every value. Each
    tree thus makes the same draws in the same order as a recursive
    preorder grower. A leaf holds its depth plus the expected path length
    of its rows.

    A tree holds its subsample's distinct rows with their multiplicities:
    min, max and masks see the same values, and a node's row count is the
    sum of its multiplicities. The rows of every node are one contiguous
    run of the shared buffer `buf`, and a split partitions its run in place.
    """
    n_trees, psi = picks.shape
    n_rows = rows.shape[0]
    keys, mult = np.unique((np.arange(n_trees)[:, None] * n_rows + picks).ravel(), return_counts=True)
    buf = keys % n_rows
    capacity = n_trees + 2 * keys.size  # a tree on k distinct rows has at most 2k - 1 nodes
    feature = np.zeros(capacity, dtype=np.int64)
    threshold = np.zeros(capacity)
    left = np.full(capacity, -1, dtype=np.intp)
    right = np.full(capacity, -1, dtype=np.intp)
    value = np.zeros(capacity)
    start = np.zeros(capacity, dtype=np.intp)
    stop = np.zeros(capacity, dtype=np.intp)
    depth = np.zeros(capacity, dtype=np.int64)
    count = np.zeros(capacity, dtype=np.int64)

    roots = np.arange(n_trees)
    start[roots] = np.searchsorted(keys, roots * n_rows)
    stop[roots] = np.searchsorted(keys, (roots + 1) * n_rows)
    count[roots] = psi
    size = n_trees
    stack = np.zeros((n_trees, limit + 2), dtype=np.intp)  # pending right siblings, then the next node
    stack[:, 0] = roots
    height = np.ones(n_trees, dtype=np.intp)
    path_length = np.array([average_path_length(k) for k in range(psi + 1)])

    while (live := np.flatnonzero(height)).size:
        height[live] -= 1
        at = stack[live, height[live]]
        value[at] = depth[at] + path_length[count[at]]
        grow = (depth[at] < limit) & (count[at] > 1)
        live, at = live[grow], at[grow]
        if not at.size:
            continue

        # The rows of every growing node, gathered run after run.
        lengths = stop[at] - start[at]
        offsets = np.cumsum(lengths) - lengths
        pos = np.repeat(start[at] - offsets, lengths) + np.arange(lengths.sum())
        values = rows[buf[pos]]
        lows = np.minimum.reduceat(values, offsets, axis=0)
        highs = np.maximum.reduceat(values, offsets, axis=0)
        candidates = lows < highs
        n_candidates = candidates.sum(axis=1)
        splits = np.flatnonzero(n_candidates)
        if not splits.size:
            continue

        drawn = [rngs[t].integers(k) for t, k in zip(live[splits].tolist(), n_candidates[splits].tolist())]
        chosen = (candidates[splits].cumsum(axis=1) > np.array(drawn)[:, None]).argmax(axis=1)
        lo = lows[splits, chosen].astype(float).tolist()
        hi = highs[splits, chosen].astype(float).tolist()
        cuts = []
        for t, a, b in zip(live[splits].tolist(), lo, hi):
            cut = rngs[t].uniform(a, b)
            while cut <= a:  # guard the measure-zero draw that would empty one side
                cut = rngs[t].uniform(a, b)
            cuts.append(cut)

        # Partition each splitting run, left rows first; other runs stay put.
        node_feature = np.zeros(at.size, dtype=np.int64)
        node_threshold = np.full(at.size, np.inf)
        node_feature[splits] = chosen
        node_threshold[splits] = np.nextafter(np.array(cuts), -np.inf)
        run = np.repeat(np.arange(at.size), lengths)
        goes_left = values[np.arange(pos.size), node_feature[run]] <= node_threshold[run]
        order = np.lexsort((~goes_left, run))
        left_rows = np.add.reduceat(goes_left.astype(np.intp), offsets)[splits]
        left_count = np.add.reduceat(mult[pos] * goes_left, offsets)[splits]
        buf[pos], mult[pos] = buf[pos[order]], mult[pos[order]]

        parents, trees = at[splits], live[splits]
        kids = size + 2 * np.arange(splits.size)
        size += 2 * splits.size
        feature[parents], threshold[parents] = chosen, node_threshold[splits]
        left[parents], right[parents] = kids, kids + 1
        start[kids], stop[kids] = start[parents], start[parents] + left_rows
        start[kids + 1], stop[kids + 1] = stop[kids], stop[parents]
        count[kids], count[kids + 1] = left_count, count[parents] - left_count
        depth[kids] = depth[kids + 1] = depth[parents] + 1
        stack[trees, height[trees]] = kids + 1
        stack[trees, height[trees] + 1] = kids
        height[trees] += 2

    return _Forest(feature[:size], threshold[:size], left[:size], right[:size], value[:size], roots)


def iforest_fit(
    X: np.ndarray,
    y: np.ndarray,
    trees: int = 101,
    subsample: int = 256,
    seed: int | np.random.SeedSequence = 0,
) -> IsolationForestModel:
    """Isolation trees over the feature matrix; labels only set the threshold.

    Tree t draws its subsample and every split from its own Generator, in
    the order a recursive preorder grower would. All trees grow in
    lockstep on their subsamples' distinct rows (`_grow_isolation_forest`),
    and scoring walks each distinct row once and copies its path to every
    equal row, so both are exact, not approximations.

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
    rngs = [np.random.default_rng(child) for child in _seed_sequence(seed).spawn(trees)]
    picks = np.array([rng.choice(n, size=psi, replace=False) for rng in rngs], dtype=np.intp).reshape(trees, psi)
    distinct, inverse = np.unique(X, axis=0, return_inverse=True)
    model = IsolationForestModel(_grow_isolation_forest(distinct, inverse[picks], limit, rngs), psi)

    train_scores = iforest_scores(model, X)
    flagged = int(round(float(y.mean()) * n)) if n else 0
    model.threshold = float(np.sort(train_scores)[::-1][flagged - 1]) if flagged > 0 else math.inf
    return model


def iforest_scores(model: IsolationForestModel, X: np.ndarray) -> np.ndarray:
    """2^(-mean path / c(psi)) per row. The mean is taken over the trees of a
    C-contiguous (trees, rows) matrix, the layout numpy reduces in one fixed
    order for a given row count."""
    X = np.atleast_2d(np.asarray(X, dtype=np.int64))
    paths = _leaf_values(model.forest, X)
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
