"""From-scratch classifiers over 15-level categorical features.

Four models share one contract — `<kind>_fit(X, y, **settings)` on a
categorical matrix with binary labels, and `<kind>_predict_many(model, X)`
giving (labels, scores) per row — plus a prevalence-matched random
baseline. `X` is a 2-D int64 array of category codes and `y` an int64
array of 0/1 labels, as `evaluate._fit_and_predict` passes them; neither
is coerced. `KINDS` names each kind's settings: the `ExperimentConfig` field
each fit keyword reads, and whether the fit draws and so takes a `seed`,
any seed `np.random.default_rng` takes (LOPO passes a `SeedSequence`).
No fit parameter has a default, so each setting's default lives in
`ExperimentConfig` alone. Category codes come from monotone binning of
real features, so the tree learners treat them as ordinals and split on
thresholds. All randomness flows from one explicit seed, split
deterministically per tree / bag / run, so results reproduce bit-for-bit
across platforms.

Both forests are one `_Forest`: flat node arrays shared by its trees, with
one root per tree, walked by one traversal over (tree, row) pairs.
Balanced-forest leaves hold the class-1 fraction and isolation leaves hold
the expected path length. Forests score each distinct row once and copy
its leaf values to the equal rows. One grower, `_grow_forest`, grows the
trees of either forest in lockstep. A node gets its leaf value when it is
created, and each tree visits only its splittable nodes, one per step in
its own preorder, drawing from its own Generator. Leaves draw nothing, so
every draw is the one a tree-at-a-time recursive grower makes. A forest
supplies only what to count per node, its leaf value, grow condition and
split rule. The isolation trees that split in one step draw together:
`_TreeDraws` reads each tree's raw PCG64 words as arrays and applies
numpy's own algorithms for `integers` (Lemire's 32-bit method) and
`uniform` (53 bits), so each draw is the one the tree's Generator
returns. BRF's Gini split is exact by construction: it counts rows and
positives per (node, feature, level), so every quantity is a whole number
until the impurity's last divisions, which run in a fixed operand order.

EasyEnsemble keeps no trees: its model is four `(bags, rounds)` arrays of
stumps (alpha, feature, threshold, sign). All bags boost in lockstep over
columns sorted once, with the same sums in the same order as a bag at a
time, so the chains are exactly the per-bag ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .metrics import f2_from_counts

EULER_GAMMA = 0.5772156649015329


class Kind(NamedTuple):
    settings: dict[str, str]  # fit keyword -> the `ExperimentConfig` field it reads
    draws: bool  # the fit also takes a `seed`


KINDS = {
    "nb": Kind({"alpha": "nb_alpha", "n_categories": "bins"}, draws=False),
    "brf": Kind({"trees": "brf_trees", "decision_threshold": "decision_threshold"}, draws=True),
    "ee": Kind({"bags": "ee_bags", "rounds": "ee_rounds", "decision_threshold": "decision_threshold"}, draws=True),
    "iforest": Kind({"trees": "iforest_trees", "subsample": "iforest_subsample"}, draws=True),
}


def _check_two_classes(y: np.ndarray) -> None:
    if y.size == 0 or y.min() == y.max():
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


# ---------------------------------------------------------------------------
# Categorical Naive Bayes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CategoricalNBModel:
    class_log_prior: np.ndarray  # (2,)
    feature_log_likelihood: np.ndarray  # (n_features, n_categories, 2)


def nb_fit(X: np.ndarray, y: np.ndarray, *, alpha: float, n_categories: int) -> CategoricalNBModel:
    """Fit class priors and Laplace-smoothed per-category likelihoods.

    likelihood(f, v | c) = (count(f=v, c) + alpha) / (count(c) + K * alpha).
    """
    _check_two_classes(y)
    if X.min() < 0 or X.max() >= n_categories:
        raise ValueError(f"categories must be in 0..{n_categories - 1}")

    n, n_features = X.shape
    class_counts = np.bincount(y, minlength=2).tolist()
    log_prior = np.array([math.log(count / n) for count in class_counts])
    denom = np.array([math.log(count + n_categories * alpha) for count in class_counts])
    # One count over every (class, feature, category) cell.
    cells = (y[:, None] * n_features + np.arange(n_features)) * n_categories + X
    counts = np.bincount(cells.ravel(), minlength=2 * n_features * n_categories).astype(float)
    log_lik = np.log(counts.reshape(2, n_features, n_categories) + alpha) - denom[:, None, None]
    return CategoricalNBModel(log_prior, log_lik.transpose(1, 2, 0))


def nb_predict_many(model: CategoricalNBModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels by posterior argmax (exact ties go to non-relapse) and relapse
    posterior probabilities."""
    n_features = model.feature_log_likelihood.shape[0]
    per_feature = model.feature_log_likelihood[np.arange(n_features)[None, :], X, :]
    jll = model.class_log_prior + per_feature.sum(axis=1)  # joint log-likelihood per (row, class)
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


def _distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(X, axis=0, return_inverse=True)` of an integer matrix: its
    distinct rows in ascending (first column first) order, and each row's
    index among them. One `lexsort` over the columns and a compare of
    neighbours, not a sort of rows as structured values."""
    order = np.lexsort(X.T[::-1]) if X.shape[1] else np.arange(X.shape[0])
    ordered = X[order]
    first = np.ones(X.shape[0], dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(X.shape[0], dtype=np.intp)
    inverse[order] = first.cumsum() - 1
    return ordered[first], inverse


def _leaf_values(forest: _Forest, distinct: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """C-contiguous (trees, rows) leaf values of `forest` for the rows
    `distinct[inverse]` (`_distinct_rows`), walking each distinct row once.
    Equal rows reach equal leaves, so this is exact."""
    return np.take(forest.predict(distinct), inverse, axis=1)


def _grow_forest(rows: np.ndarray, picks: np.ndarray, marks: list[np.ndarray], leaf, grows, split) -> _Forest:
    """Trees over `rows`; tree t grows on the rows `picks[t]`.

    A forest supplies the boolean `(trees, picks)` masks to count per node
    (BRF counts class 1) and three rules: `leaf(depth, count, *marked)` is
    a node's value, `grows(...)` says whether it may split, and
    `split(trees, members, tally, offsets)` sees the growing nodes, one per
    tree in `trees`. Node i holds the rows `members` from `offsets[i]` on,
    with their counts and marked counts in rows 1 on of `tally`; `split`
    returns the nodes that split, their features and thresholds, and a row
    goes left iff `x[feature] <= threshold`.

    A node gets its `leaf` value when it is created, and goes on its tree's
    stack only if it `grows` and holds more than one key; leaves draw
    nothing, and neither does a node of one key, whose rows are equal. Each
    tree visits these splittable nodes in preorder through its own stack and
    all trees take one step together, so each tree's Generator makes the
    same draws in the same order as a recursive preorder grower. A tree holds
    each picked row once, as a key with its multiplicities; a node's keys
    are one contiguous run of `buf`, which a split partitions in place.
    """
    n_trees, n_picks = picks.shape
    tree_keys = np.arange(n_trees)[:, None] * rows.shape[0]
    keys, mult = np.unique(tree_keys + picks, return_counts=True)
    marked = [np.bincount(np.searchsorted(keys, (tree_keys + picks)[mark]), minlength=keys.size) for mark in marks]
    tally = np.stack((np.ones_like(mult), mult, *marked))  # per key: 1, count, marked counts
    key_rows = keys % rows.shape[0]
    buf = np.arange(keys.size)
    capacity = n_trees + 2 * keys.size  # a tree on k keys has at most 2k - 1 nodes
    feature = np.zeros(capacity, dtype=np.int64)
    threshold = np.zeros(capacity)
    left, right = np.full((2, capacity), -1, dtype=np.intp)
    value = np.zeros(capacity)
    start = np.zeros(capacity, dtype=np.intp)
    depth = np.zeros(capacity, dtype=np.int64)
    totals = np.zeros((tally.shape[0], capacity), dtype=np.int64)  # per node: keys, count, marked counts

    def settle(nodes):  # set new nodes' leaf values; which of them can split
        n_keys, *counts = totals.take(nodes, axis=1)
        value[nodes] = leaf(depth[nodes], *counts)
        return grows(depth[nodes], *counts) & (n_keys > 1)

    roots = np.arange(n_trees)
    start[roots] = np.searchsorted(keys, roots * rows.shape[0])
    totals[:2, roots] = np.diff(start[roots], append=keys.size), np.full(n_trees, n_picks)
    for row, mark in enumerate(marks, start=2):
        totals[row, roots] = mark.sum(axis=1)
    size = n_trees
    # Pending right siblings, then the next node. A split parts its node's
    # keys, so a tree on k keys is at most k - 1 deep.
    stack = np.zeros((n_trees, int(totals[0].max()) + 1), dtype=np.intp)
    stack[:, 0] = roots
    height = settle(roots).astype(np.intp)

    while (live := np.flatnonzero(height)).size:
        height[live] -= 1
        at = stack[live, height[live]]
        lengths = totals[0, at]

        # The keys of every growing node, gathered run after run.
        offsets = np.cumsum(lengths) - lengths
        pos = np.repeat(start[at] - offsets, lengths) + np.arange(lengths.sum())
        run_keys = buf[pos]
        members, member_tally = key_rows[run_keys], tally.take(run_keys, axis=1)
        splits, chosen, cut = split(live, members, member_tally, offsets)
        if not splits.size:
            continue

        # Partition each splitting run, left keys first; other runs stay put.
        node_feature, node_threshold = np.zeros(at.size, dtype=np.int64), np.full(at.size, np.inf)
        node_feature[splits], node_threshold[splits] = chosen, cut
        run = np.repeat(np.arange(at.size), lengths)
        goes_left = rows[members, node_feature[run]] <= node_threshold[run]
        buf[pos] = run_keys[np.lexsort((~goes_left, run))]
        left_totals = np.add.reduceat(member_tally * goes_left, offsets, axis=1)[:, splits]

        # Each split's children are the next two nodes, left then right.
        parents, trees = at[splits], live[splits]
        kids = np.arange(size, size + 2 * splits.size, 2)
        feature[parents], threshold[parents] = chosen, cut
        left[parents], right[parents] = kids, kids + 1
        start[kids], start[kids + 1] = start[parents], start[parents] + left_totals[0]
        totals[:, size : kids[-1] + 1 : 2] = left_totals
        totals[:, size + 1 : kids[-1] + 2 : 2] = totals.take(parents, axis=1) - left_totals
        depth[kids] = depth[kids + 1] = depth[parents] + 1
        size += 2 * splits.size
        can = settle(np.arange(kids[0], size))
        stack[trees, height[trees]] = kids + 1
        height[trees] += can[1::2]
        stack[trees, height[trees]] = kids
        height[trees] += can[::2]

    return _Forest(feature[:size], threshold[:size], left[:size], right[:size], value[:size], roots)


# ---------------------------------------------------------------------------
# Balanced Random Forest: CART trees on ordinal category codes
# ---------------------------------------------------------------------------


def _gini_split(rows: np.ndarray, mtry: int, rngs: list[np.random.Generator]):
    """The CART split rule of `_grow_forest`, by weighted Gini impurity.

    A node draws a feature order (`permutation`) from its tree's Generator
    and inspects the first `mtry` features that are not constant on it. A
    cut follows every present level that has a later one, with its threshold
    midway between the two codes; the first cut of least impurity in
    (feature order, level) order wins. A level is a column's rank among its
    distinct codes, so codes of any sign or size index the counts."""
    n_features = rows.shape[1]
    order = np.argsort(rows, axis=0, kind="stable")
    ascending = np.take_along_axis(rows, order, axis=0)
    levels = np.empty_like(order)
    np.put_along_axis(levels, order, (np.diff(ascending, axis=0, prepend=ascending[:1]) != 0).cumsum(axis=0), axis=0)
    n_levels = int(levels.max(initial=0)) + 1
    codes = np.zeros((n_features, n_levels), dtype=rows.dtype)  # the code of each (feature, level)
    codes[np.arange(n_features), levels] = rows

    def split(trees, members, tally, offsets):
        nodes = np.arange(trees.size)
        perms = np.array([rngs[t].permutation(n_features) for t in trees.tolist()])
        cells = nodes.repeat(np.diff(offsets, append=members.size))[:, None] * n_features + np.arange(n_features)
        cells = (cells * n_levels + levels[members]).ravel()
        shape = (trees.size, n_features, n_levels)
        # whole-number counts per (node, feature in drawn order, level), then left of each cut
        counts = [np.bincount(cells, weights=w.repeat(n_features), minlength=math.prod(shape)) for w in tally[1:]]
        n_at, pos_at = (c.reshape(shape)[nodes[:, None], perms] for c in counts)
        present = n_at > 0
        inspected = present.sum(axis=2) > 1
        inspected &= inspected.cumsum(axis=1) <= mtry
        n_left, pos_left = n_at.cumsum(axis=2), pos_at.cumsum(axis=2)
        n = n_left[:, :1, -1:]
        n_right, pos_right = n - n_left, pos_left[:, :1, -1:] - pos_left
        with np.errstate(divide="ignore", invalid="ignore"):
            p_left, p_right = pos_left / n_left, pos_right / n_right
            gini = (n_left * 2 * p_left * (1 - p_left) + n_right * 2 * p_right * (1 - p_right)) / n
        gini[~(present & (n_right > 0) & inspected[:, :, None])] = np.inf

        splits = np.flatnonzero(inspected.any(axis=1))
        if not splits.size:
            return splits, splits, np.zeros(0)
        rank, level = np.divmod(gini.reshape(trees.size, -1)[splits].argmin(axis=1), n_levels)
        chosen = perms[splits, rank]
        after = present[splits, rank] & (np.arange(n_levels) > level[:, None])
        return splits, chosen, (codes[chosen, level] + codes[chosen, after.argmax(axis=1)]) / 2.0

    return split


@dataclass
class BalancedRandomForestModel:
    forest: _Forest
    decision_threshold: float


def brf_fit(
    X: np.ndarray,
    y: np.ndarray,
    *,
    trees: int,
    seed: int | np.random.SeedSequence,
    decision_threshold: float,
) -> BalancedRandomForestModel:
    """CART trees (`_gini_split`), each on a balanced bootstrap with
    sqrt-feature splits, grown until pure or unsplittable; leaves hold the
    class-1 fraction. Each tree's Generator draws its bootstrap, then every
    split's feature order, and all trees grow in lockstep (`_grow_forest`)."""
    _check_two_classes(y)
    if trees < 1:
        raise ValueError("trees must be at least 1")
    rngs = np.random.default_rng(seed).spawn(trees)
    idx = balanced_bootstraps(y, rngs)
    # Bootstrap repeats merge per tree; merging equal rows of X too costs more than it saves.
    forest = _grow_forest(
        X,
        idx,
        [y[idx] == 1],
        leaf=lambda depth, count, positives: positives / count,
        grows=lambda depth, count, positives: (0 < positives) & (positives < count),
        split=_gini_split(X, math.ceil(math.sqrt(X.shape[1])), rngs),
    )
    return BalancedRandomForestModel(forest, decision_threshold)


def brf_predict_many(model: BalancedRandomForestModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels and scores; a row's score is its mean leaf value over the trees.

    The leaf values are summed tree by tree (`cumsum`), never pairwise, so
    a score does not depend on how many rows are scored together.
    """
    scores = _leaf_values(model.forest, *_distinct_rows(X)).cumsum(axis=0)[-1] / model.forest.roots.size
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
    decision_threshold: float


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
    *,
    bags: int,
    rounds: int,
    seed: int | np.random.SeedSequence,
    decision_threshold: float,
) -> EasyEnsembleModel:
    """Adaptive-boosting chains of decision stumps, one chain per balanced bag.

    Each round keeps the bag's minimum weighted-error stump. A round with
    zero weighted error keeps that stump and ends the chain; a round no
    better than chance ends the chain without it. An error within `n`
    machine epsilons of 0.5, the rounding of the bag's `n` summed weights,
    is chance: such a stump would get an alpha of about 1e-16, and a chain
    of only such stumps would still cast a full vote.

    Bag b draws its bootstrap from its own Generator, positives first. All
    bags are boosted in lockstep over columns sorted once (`_sort_columns`,
    `_best_stumps`), with the same sums, in the same order, as a bag at a
    time.
    """
    _check_two_classes(y)
    if bags < 1 or rounds < 1:
        raise ValueError("bags and rounds must be at least 1")
    idx = balanced_bootstraps(y, np.random.default_rng(seed).spawn(bags))
    n = idx.shape[1]
    k = n // 2
    y_pm = np.repeat([1, -1], k)
    chance = 0.5 - n * np.finfo(np.float64).eps
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
        kept = err < chance
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
    threshold: float


def average_path_length(n: int) -> float:
    """Expected unsuccessful-search path length in a binary search tree of n points."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    return 2.0 * (math.log(n - 1) + EULER_GAMMA) - 2.0 * (n - 1) / n


class _TreeDraws:
    """`integers(k)` and `uniform(lo, hi)` of one PCG64 Generator per tree,
    for many trees at once, read from each tree's raw 64-bit words.

    numpy has kept both algorithms since 1.17. `integers(k)` takes a 32-bit
    half x (the half-word the bit generator holds back, if any; else the
    low half of the next word, holding back the high half) and returns
    `x * k >> 32`, unless `x * k mod 2**32 < (2**32 - k) % k`, when it
    draws again (Lemire 2019); k == 1 takes no bits. `uniform(lo, hi)`
    takes a whole word w, never the held half, and returns
    `lo + (hi - lo) * ((w >> 11) * 2**-53)`. The same integer and float
    operations on arrays give the same values, so the draws are the
    Generators' own. The reader starts from each bit generator's state,
    held half included, and reads a row of `words` (at least 1) words from
    it; a tree that uses up its row reads the next one. The Generators
    must not be used again: their held halves are stale.
    """

    def __init__(self, rngs: list[np.random.Generator], words: int) -> None:
        self.bit_generators = [rng.bit_generator for rng in rngs]
        states = [bits.state for bits in self.bit_generators]
        self.half = np.array([state["uinteger"] for state in states], dtype=np.uint64)
        self.has_half = np.array([state["has_uint32"] for state in states], dtype=bool)
        self.words = np.stack([bits.random_raw(words) for bits in self.bit_generators])
        self.used = np.zeros(len(rngs), dtype=np.intp)  # of each tree's row of words

    def integers(self, trees: np.ndarray, k: np.ndarray) -> np.ndarray:
        """`integers(k[i])` of tree `trees[i]`, each tree once, 1 <= k < 2**32."""
        out = np.zeros(trees.size, dtype=np.int64)
        at = np.flatnonzero(k > 1)
        t, k = trees[at], k[at].astype(np.uint64)
        self._top_up(t)
        held, used = self.has_half[t], self.used[t]
        word = self.words[t, used]
        m = np.where(held, self.half[t], word & 0xFFFFFFFF) * k
        # a tree that took its held half holds none now, and leaves the word unused
        self.half[t], self.has_half[t], self.used[t] = word >> 32, ~held, used + ~held
        out[at] = m >> 32
        redo = np.flatnonzero((m & 0xFFFFFFFF) < (2**32 - k) % k)
        if redo.size:  # rejected: those trees draw again
            out[at[redo]] = self.integers(t[redo], k[redo])
        return out

    def uniform(self, trees: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """`uniform(lo[i], hi[i])` of tree `trees[i]`, each tree once,
        drawn again while it is `<= lo[i]`."""
        self._top_up(trees)
        word = self.words[trees, self.used[trees]]
        self.used[trees] += 1
        cut = lo + (hi - lo) * ((word >> 11) * 2.0**-53)
        redo = np.flatnonzero(cut <= lo)
        if redo.size:
            cut[redo] = self.uniform(trees[redo], lo[redo], hi[redo])
        return cut

    def _top_up(self, trees: np.ndarray) -> None:
        """Give each of `trees` an unused word: a tree that has used all its
        words reads a new row of them from its bit generator."""
        for tree in trees[self.used[trees] == self.words.shape[1]].tolist():
            self.words[tree] = self.bit_generators[tree].random_raw(self.words.shape[1])
            self.used[tree] = 0


def _isolation_split(rows: np.ndarray, draws: _TreeDraws):
    """The isolation split rule of `_grow_forest`. A node whose rows are all
    equal as floats does not split. Any other node draws a feature among its
    non-constant ones (`integers`), then a split s in (lo, hi) of that
    feature (`uniform`, redrawn in the measure-zero case s == lo); a row goes
    left iff its value is below s. The node stores nextafter(s, -inf), the
    largest float below s, so the shared `<=` rule gives the same side.

    The splitting trees draw together, from their words (`_TreeDraws`).
    Each tree still makes its draws in its own order, so every split is the
    one its Generator's scalar `integers` and `uniform` calls would give.
    A numpy built to fuse `lo + (hi - lo) * u` into one multiply-add would
    round some splits differently in the last bit; the oracle tests of the
    reader against real Generator calls catch that."""

    def split(trees, members, tally, offsets):
        values = rows[members]
        # As floats, so codes past 2**53 that round to one float never split.
        lows = np.minimum.reduceat(values, offsets, axis=0).astype(float)
        highs = np.maximum.reduceat(values, offsets, axis=0).astype(float)
        candidates = lows < highs
        n_candidates = candidates.sum(axis=1)
        splits = np.flatnonzero(n_candidates)
        if not splits.size:
            return splits, splits, np.zeros(0)
        drawn = draws.integers(trees[splits], n_candidates[splits])
        chosen = (candidates[splits].cumsum(axis=1) > drawn[:, None]).argmax(axis=1)
        cuts = draws.uniform(trees[splits], lows[splits, chosen], highs[splits, chosen])
        return splits, chosen, np.nextafter(cuts, -np.inf)

    return split


def iforest_fit(
    X: np.ndarray,
    y: np.ndarray,
    *,
    trees: int,
    subsample: int,
    seed: int | np.random.SeedSequence,
) -> IsolationForestModel:
    """Isolation trees over the feature matrix; labels only set the threshold.

    Tree t draws its subsample and every split from its own Generator. All
    trees grow in lockstep (`_grow_forest`, `_isolation_split`) on the
    distinct rows of X, equal rows merged into one with their multiplicity.
    A node at depth `limit` or holding one distinct row is a leaf, holding
    its depth plus the expected path length of its rows.

    The threshold is the k-th largest training score, k = round(prevalence * n),
    and every row scoring at or above it is flagged. Category codes make
    equal scores common, so ties at that cut can flag more than k training
    rows. With k = 0 the threshold is infinite and nothing is flagged.
    """
    if trees < 1 or subsample < 1:
        raise ValueError("trees and subsample must be at least 1")
    n = X.shape[0]
    psi = min(subsample, n)
    limit = math.ceil(math.log2(max(psi, 2)))
    path_length = np.array([average_path_length(k) for k in range(psi + 1)])
    rngs = np.random.default_rng(seed).spawn(trees)
    picks = np.array([rng.choice(n, size=psi, replace=False) for rng in rngs], dtype=np.intp).reshape(trees, psi)
    # A tree makes at most psi - 1 splits, of at most 1.5 words each.
    draws = _TreeDraws(rngs, 2 * psi)
    distinct, inverse = _distinct_rows(X)
    forest = _grow_forest(
        distinct,
        inverse[picks],
        [],
        leaf=lambda depth, count: depth + path_length[count],
        grows=lambda depth, count: depth < limit,
        split=_isolation_split(distinct, draws),
    )
    train_scores = _path_scores(psi, _leaf_values(forest, distinct, inverse))
    flagged = int(round(float(y.mean()) * n)) if n else 0
    threshold = float(np.sort(train_scores)[::-1][flagged - 1]) if flagged > 0 else math.inf
    return IsolationForestModel(forest, psi, threshold)


def _path_scores(sample_size: int, paths: np.ndarray) -> np.ndarray:
    """2^(-mean path / c(psi)) per row. The mean is taken over the trees of a
    C-contiguous (trees, rows) matrix, the layout numpy reduces in one fixed
    order for a given row count."""
    return np.exp2(-paths.mean(axis=0) / (average_path_length(sample_size) or 1.0))


def iforest_predict_many(model: IsolationForestModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels and anomaly scores; a row is flagged when it scores at or above
    the model's threshold."""
    scores = _path_scores(model.sample_size, _leaf_values(model.forest, *_distinct_rows(X)))
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
    training prevalence of that window's fold). Runs are drawn 64 at a time:
    a Generator's doubles are one stream, so the blocks equal one big draw.
    """
    pos = labels == 1
    n_pos = int(pos.sum())
    tp, flagged = np.zeros((2, runs), dtype=np.int64)
    for start in range(0, runs, 64):
        preds = rng.random((min(64, runs - start), labels.size)) < ratios
        flagged[start : start + 64] = preds.sum(axis=1)
        tp[start : start + 64] = (preds & pos).sum(axis=1)
    fp = flagged - tp
    fn = n_pos - tp
    tn = (labels.size - n_pos) - fp

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
