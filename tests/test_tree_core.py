"""Property tests of the shared tree core against brute-force oracles.

The split searches are checked against a scan of every cut (and, for
stumps, every sign) in (feature, cut, sign) order, where the first strict
minimum wins. Weights are whole numbers, so every weighted sum is exact in
either order of addition and ties compare equal on both sides.

The isolation forest's draw reader is checked against twin Generators
making the same scalar `integers` and `uniform` calls, and the distinct-row
helper against `np.unique`.

The lockstep EasyEnsemble is checked against a bag-at-a-time fit whose
stump search scans each feature's cuts with `cut_scan`, and against scoring
every bag's chain with a running vote.

Both forests come from one lockstep grower. The balanced forest is checked
against the recursive CART grower it replaced (`grow_tree`, on
`best_threshold` and `cut_scan`), and the isolation forest against a
recursive grower that splits one tree's full subsample at a time; both
against scoring every requested row through every tree. A count of the
isolation grower's lockstep steps checks that no step pops a leaf.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from relapsekit import classifiers
from relapsekit.classifiers import (
    _best_stumps,
    _distinct_rows,
    _sort_columns,
    _TreeDraws,
    average_path_length,
    balanced_bootstraps,
    brf_fit,
    brf_predict_many,
    ee_fit,
    ee_predict_many,
    iforest_fit,
    iforest_predict_many,
)
from relapsekit.features import extract_all
from relapsekit.synth import SynthConfig, generate
from relapsekit.transform import apply_bins, fit_bins
from relapsekit.windowing import WindowingConfig

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def coded_matrices(draw, min_rows=2, max_rows=24, max_features=4):
    """An (n, f) matrix of 15-level codes; a small level range makes ties common."""
    n = draw(st.integers(min_rows, max_rows))
    f = draw(st.integers(1, max_features))
    top = draw(st.sampled_from([1, 2, 3, 14]))
    return draw(hnp.arrays(np.int64, (n, f), elements=st.integers(0, top)))


@st.composite
def coded_bags(draw, max_bags=4, max_rows=12, max_features=4):
    """A (bags, n, f) stack of code matrices with small level ranges."""
    shape = (draw(st.integers(1, max_bags)), draw(st.integers(1, max_rows)), draw(st.integers(1, max_features)))
    top = draw(st.sampled_from([1, 2, 3, 14]))
    return draw(hnp.arrays(np.int64, shape, elements=st.integers(0, top)))


def cut_scan(values, *weights):
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


def best_threshold(values, labels):
    """(Gini impurity, threshold) of the lowest weighted Gini impurity split of
    one non-constant feature."""
    n_left, thresholds, (pos_left,) = cut_scan(values, labels)
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


def grow_tree(X, y, rng, mtry, nodes):
    """The recursive CART grower: Gini impurity, grown until pure or
    unsplittable; leaves hold the class-1 fraction. Appends the subtree's
    `[feature, threshold, left, right, value]` rows, root first, to `nodes`.

    `mtry` features are inspected per split; constant features do not count
    against the budget, and the search keeps going past it until at least
    one valid split has been seen (so separable data always ends pure).
    """
    at = len(nodes)
    nodes.append([0, 0.0, -1, -1, float(y.mean())])
    if y.size < 2 or y.min() == y.max():
        return nodes
    best = None  # (gini, threshold, feature)
    informative = 0
    for f in rng.permutation(X.shape[1]):
        column = X[:, f]
        if column.min() == column.max():
            continue
        informative += 1
        found = best_threshold(column, y)
        if best is None or found[0] < best[0]:
            best = (found[0], found[1], int(f))
        if informative >= mtry:
            break
    if best is None:
        return nodes
    _, threshold, feature = best
    mask = X[:, feature] <= threshold
    nodes[at][:3] = feature, threshold, len(nodes)
    grow_tree(X[mask], y[mask], rng, mtry, nodes)
    nodes[at][3] = len(nodes)
    return grow_tree(X[~mask], y[~mask], rng, mtry, nodes)


def oracle_brf(X, y, trees, seed):
    """Node lists per tree of a tree-at-a-time recursive fit."""
    mtry = math.ceil(math.sqrt(X.shape[1]))
    grown = []
    for rng in np.random.default_rng(seed).spawn(trees):
        idx = balanced_bootstraps(y, [rng])[0]
        grown.append(grow_tree(X[idx], y[idx], rng, mtry, []))
    return grown


def oracle_cuts(column):
    """(threshold, left mask) of every cut, ascending; the last sends all rows left."""
    levels = sorted(set(column.tolist()))
    thresholds = [(a + b) / 2.0 for a, b in zip(levels, levels[1:])] + [float(levels[-1])]
    return [(t, column <= t) for t in thresholds]


def oracle_stump(X, y_pm, w):
    best_err, best = float("inf"), None
    for f in range(X.shape[1]):
        for threshold, left in oracle_cuts(X[:, f]):
            for sign in (1, -1):
                predicted = np.where(left, sign, -sign)
                err = float(sum(w[i] for i in range(y_pm.size) if predicted[i] != y_pm[i]))
                if err < best_err:
                    best_err, best = err, (f, threshold, sign)
    return best, best_err


def oracle_best_stump(X, y_pm, w):
    """One bag's stump search: each feature's cuts from `cut_scan`, the first
    minimum in (feature, cut, left sign +1 then -1) order."""
    best_err, best = math.inf, None
    total_pos = float(w[y_pm == 1].sum())
    total = float(w.sum())
    pos_w = np.where(y_pm == 1, w, 0.0)
    neg_w = np.where(y_pm == -1, w, 0.0)
    for f in range(X.shape[1]):
        _, thresholds, (pos_left, neg_left) = cut_scan(X[:, f], pos_w, neg_w)
        err_plus = neg_left + (total_pos - pos_left)
        errs = np.column_stack((err_plus, total - err_plus)).ravel()
        k = int(np.argmin(errs))
        if errs[k] < best_err:
            best_err = float(errs[k])
            best = (f, float(thresholds[k // 2]), 1 - 2 * (k % 2))
    return best, best_err


def oracle_ee_fit(X, y, bags, rounds, seed):
    """A bag at a time: per bag, its chain of (alpha, feature, threshold, left sign)."""
    chains = []
    for rng in np.random.default_rng(seed).spawn(bags):
        idx = balanced_bootstraps(y, [rng])[0]
        Xb = X[idx]
        yb = np.where(y[idx] == 1, 1, -1)
        w = np.full(idx.size, 1.0 / idx.size)
        chain = []
        for _ in range(rounds):
            (feature, threshold, sign), err = oracle_best_stump(Xb, yb, w)
            if err <= 0.0:
                chain.append((1.0, feature, threshold, sign))
                break
            if err >= 0.5 - idx.size * np.finfo(np.float64).eps:  # chance, up to rounding
                break
            alpha = 0.5 * math.log((1.0 - err) / err)
            chain.append((alpha, feature, threshold, sign))
            w = w * np.exp(-alpha * yb * np.where(Xb[:, feature] <= threshold, sign, -sign))
            w /= w.sum()
        chains.append(chain)
    return chains


def oracle_ee_scores(chains, X):
    """Each bag's running vote, stump by stump, then the mean over a
    C-contiguous (bags, rows) matrix."""
    bag_scores = np.zeros((len(chains), X.shape[0]))
    for b, chain in enumerate(chains):
        alpha_total = sum(alpha for alpha, *_ in chain)
        if alpha_total <= 0.0:
            bag_scores[b] = 0.5
            continue
        vote = np.zeros(X.shape[0])
        for alpha, feature, threshold, sign in chain:
            vote += alpha * np.where(X[:, feature] <= threshold, sign, -sign)
        bag_scores[b] = (vote / alpha_total + 1.0) / 2.0
    return bag_scores.mean(axis=0)


def padded(chains, rounds):
    """The chains as (bags, rounds) alpha, feature, threshold and sign arrays,
    padded with zeros."""
    arrays = [np.zeros((len(chains), rounds), dtype=dtype) for dtype in (float, np.int64, float, np.int64)]
    for b, chain in enumerate(chains):
        for r, stump in enumerate(chain):
            for array, value in zip(arrays, stump):
                array[b, r] = value
    return arrays


def oracle_threshold(column, labels):
    n = column.size
    best = None
    for threshold, left in oracle_cuts(column)[:-1]:
        n_left = int(left.sum())
        n_right = n - n_left
        p_left = float(labels[left].sum()) / n_left
        p_right = float(labels[~left].sum()) / n_right
        gini = (n_left * 2 * p_left * (1 - p_left) + n_right * 2 * p_right * (1 - p_right)) / n
        if best is None or gini < best[0]:
            best = (gini, threshold)
    return best


def scalar_walk(forest, root, x):
    node = root
    while forest.left[node] != -1:
        node = forest.left[node] if x[forest.feature[node]] <= forest.threshold[node] else forest.right[node]
    return forest.value[node]


def subtree_size(forest, root):
    size, pending = 0, [root]
    while pending:
        node = pending.pop()
        size += 1
        if forest.left[node] != -1:
            pending += [forest.left[node], forest.right[node]]
    return size


def oracle_isolation_tree(rows, depth, limit, rng, nodes):
    """The recursive grower: one tree, every subsample row kept, preorder.

    Appends `[feature, threshold, left, right, value]` rows, root first.
    """
    at = len(nodes)
    nodes.append([0, 0.0, -1, -1, depth + average_path_length(rows.shape[0])])
    if depth >= limit or rows.shape[0] <= 1:
        return nodes
    lows, highs = rows.min(axis=0), rows.max(axis=0)
    candidates = np.flatnonzero(lows < highs)
    if candidates.size == 0:
        return nodes
    feature = int(candidates[rng.integers(candidates.size)])
    lo, hi = float(lows[feature]), float(highs[feature])
    split = rng.uniform(lo, hi)
    while split <= lo:
        split = rng.uniform(lo, hi)
    threshold = float(np.nextafter(split, -np.inf))
    mask = rows[:, feature] <= threshold
    nodes[at][:3] = feature, threshold, len(nodes)
    oracle_isolation_tree(rows[mask], depth + 1, limit, rng, nodes)
    nodes[at][3] = len(nodes)
    return oracle_isolation_tree(rows[~mask], depth + 1, limit, rng, nodes)


def oracle_iforest(X, y, trees, subsample, seed):
    """(node lists per tree, sample size, threshold) of a per-tree recursive fit."""
    n = X.shape[0]
    psi = min(subsample, n)
    limit = math.ceil(math.log2(max(psi, 2)))
    grown = []
    for rng in np.random.default_rng(seed).spawn(trees):
        idx = rng.choice(n, size=psi, replace=False)
        grown.append(oracle_isolation_tree(X[idx], 0, limit, rng, []))
    scores = oracle_iforest_scores(grown, psi, X)
    flagged = int(round(float(y.mean()) * n))
    threshold = float(np.sort(scores)[::-1][flagged - 1]) if flagged > 0 else math.inf
    return grown, psi, threshold


def node_walk(nodes, x):
    """The value of the leaf that row `x` reaches in one tree's node list."""
    node = 0
    while nodes[node][2] != -1:
        feature, threshold, left, right, _ = nodes[node]
        node = left if x[feature] <= threshold else right
    return nodes[node][4]


def oracle_iforest_scores(grown, psi, X):
    """Every requested row through every tree, then the mean over a
    C-contiguous (trees, rows) matrix."""
    paths = np.array([[node_walk(nodes, x) for x in X] for nodes in grown])
    return np.exp2(-paths.mean(axis=0) / (average_path_length(psi) or 1.0))


def oracle_brf_scores(grown, X):
    """Every requested row through every tree, its leaf values added tree by tree."""
    scores = []
    for x in X:
        total = 0.0
        for nodes in grown:
            total += node_walk(nodes, x)
        scores.append(total / len(grown))
    return scores


@SETTINGS
@given(bags=coded_bags(), data=st.data())
def test_best_stump_matches_scan_of_every_cut_and_sign(bags, data):
    n_bags, n = bags.shape[:2]
    k = data.draw(st.integers(0, n))  # each bag's first k rows are its positives
    y_pm = np.repeat([1, -1], [k, n - k])
    equal = data.draw(st.booleans())
    w = np.ones((n_bags, n)) if equal else data.draw(hnp.arrays(np.int64, (n_bags, n), elements=st.integers(1, 4)))
    _, order, inside_run, cuts = _sort_columns(bags)
    err, feature, threshold, sign = _best_stumps(order, inside_run, cuts, w.astype(float), k)
    for b in range(n_bags):
        expected, expected_err = oracle_stump(bags[b], y_pm, w[b])
        assert (int(feature[b]), float(threshold[b]), int(sign[b])) == expected
        assert err[b] == expected_err


@st.composite
def boosting_cases(draw):
    """Training codes with both classes, where one column may be constant,
    every column constant, or one column a copy of the label; bag and round
    counts; a seed's entropy and spawn key; and queries: fresh rows, copies
    of training rows and one row alone."""
    X = draw(coded_matrices(min_rows=2, max_rows=40))
    n, f = X.shape
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2)) + [0, 1])
    y = y[draw(st.permutations(range(n)))]
    column = draw(st.integers(0, f - 1))
    shape = draw(st.sampled_from(["codes", "constant column", "constant", "label"]))
    if shape == "constant column":
        X[:, column] = draw(st.integers(0, 14))
    elif shape == "constant":
        X[:] = draw(st.integers(0, 14))
    elif shape == "label":
        X[:, column] = y * draw(st.integers(1, 14))
    bags = draw(st.sampled_from([9, 1, 2, 31]))
    rounds = draw(st.sampled_from([10, 1, 2]))
    entropy = draw(st.integers(0, 2**32 - 1))
    key = tuple(draw(st.lists(st.integers(0, 9), max_size=2)))
    fresh = draw(hnp.arrays(np.int64, (draw(st.integers(1, 6)), f), elements=st.integers(0, 14)))
    return X, y, bags, rounds, entropy, key, [np.vstack([fresh, X[: draw(st.integers(0, n))]]), fresh[:1]]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(boosting_cases())
# every chain ends on a perfect stump (alpha 1.0)
@example((np.array([[0, 3], [2, 3], [0, 3], [2, 3]]), np.array([0, 1, 0, 1]), 9, 10, 5, (), [np.array([[1, 3]])]))
# every stump errs 0.5: every chain is empty and every bag scores 0.5
@example((np.full((3, 2), 5), np.array([0, 1, 0]), 2, 3, 0, (1,), [np.array([[5, 0]])]))
# the second bag's chain ends after one stump: the second errs 0.5 up to rounding
@example((np.array([[0], [2], [0], [2], [2], [2], [1]]), np.array([0, 1, 1, 0, 1, 0, 1]), 3, 10, 0, (), []))
# np.log would give a different alpha here than math.log
@example((np.array([[0, 3, 2, 3, 2, 1, 1, 2, 1, 1, 1]]).T, np.array([0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1]), 1, 10, 28, (), []))
# one bag, one round, tied levels
@example((np.array([[2, 0], [2, 1], [1, 1], [2, 0], [1, 0]]), np.array([1, 0, 0, 1, 0]), 1, 1, 7, (0, 2), []))
def test_ee_matches_bag_at_a_time_fit(case):
    X, y, bags, rounds, entropy, key, queries = case
    # spawn() advances a SeedSequence, so each fit gets a fresh, equal one
    seed = np.random.SeedSequence(entropy, spawn_key=key)
    model = ee_fit(X, y, bags=bags, rounds=rounds, seed=seed, decision_threshold=0.5)
    chains = oracle_ee_fit(X, y, bags, rounds, np.random.SeedSequence(entropy, spawn_key=key))
    for got, expected in zip((model.alpha, model.feature, model.threshold, model.sign), padded(chains, rounds)):
        assert got.dtype == expected.dtype
        assert got.tolist() == expected.tolist()
    for Q in [X, *queries]:
        assert ee_predict_many(model, Q)[1].tolist() == oracle_ee_scores(chains, Q).tolist()


@SETTINGS
@given(X=coded_matrices(max_features=1), data=st.data())
def test_best_threshold_matches_scan_of_every_cut(X, data):
    column = X[:, 0]
    if column.min() == column.max():
        column = np.append(column, column[0] + 1)
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=column.size, max_size=column.size)))
    assert best_threshold(column, labels) == oracle_threshold(column, labels)


@SETTINGS
@given(X=coded_matrices(min_rows=4), queries=coded_matrices(min_rows=1, max_features=1), seed=st.integers(0, 99))
def test_tree_predict_matches_scalar_walk(X, queries, seed):
    y = np.arange(X.shape[0]) % 2
    Q = np.resize(queries, (queries.shape[0], X.shape[1]))
    for forest in (brf_fit(X, y, trees=3, seed=seed, decision_threshold=0.5).forest, iforest_fit(X, y, trees=3, subsample=8, seed=seed).forest):
        expected = [[scalar_walk(forest, root, q) for q in Q] for root in forest.roots]
        np.testing.assert_array_equal(forest.predict(Q), np.array(expected, dtype=float))


@st.composite
def isolation_cases(draw):
    """A training matrix (n may exceed the subsample; a column may be
    constant), labels, forest settings, and queries: fresh rows, copies of
    training rows, one row alone and one row repeated."""
    X = draw(coded_matrices(min_rows=1, max_rows=40))
    n, f = X.shape
    if draw(st.booleans()):
        X[:, draw(st.integers(0, f - 1))] = draw(st.integers(0, 14))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    trees = draw(st.sampled_from([1, 2, 9, 31]))  # numpy sums 8 or more terms pairwise
    subsample = draw(st.sampled_from([1, 2, 5, 16, 256]))
    fresh = draw(hnp.arrays(np.int64, (draw(st.integers(1, 6)), f), elements=st.integers(0, 14)))
    queries = [np.vstack([fresh, X[: draw(st.integers(0, n))]]), fresh[:1], np.repeat(X[-1:], 3, axis=0)]
    return X, y, trees, subsample, draw(st.integers(0, 99)), queries


@SETTINGS
@given(isolation_cases())
@example((np.array([[4, 2]]), np.array([1]), 1, 256, 0, [np.array([[4, 2]]), np.array([[0, 9]])]))
@example((np.full((9, 2), 3), np.array([0] * 8 + [1]), 3, 4, 5, [np.array([[3, 3], [3, 1]])]))
@example((np.zeros((5, 0), dtype=np.int64), np.array([0, 1, 0, 0, 0]), 3, 4, 0, [np.zeros((2, 0), dtype=np.int64)]))
# one row three times: a split leaves it alone in a node of count 3, a leaf that draws nothing
@example((np.array([[0, 0], [5, 5], [0, 0], [0, 0]]), np.array([0, 1, 0, 0]), 3, 4, 1, [np.array([[0, 0], [5, 0]])]))
def test_iforest_matches_recursive_grower(case):
    X, y, trees, subsample, seed, queries = case
    model = iforest_fit(X, y, trees=trees, subsample=subsample, seed=seed)
    grown, psi, threshold = oracle_iforest(X, y, trees, subsample, seed)
    assert model.sample_size == psi
    assert [subtree_size(model.forest, root) for root in model.forest.roots] == [len(nodes) for nodes in grown]
    assert model.threshold == threshold
    for Q in [X, *queries]:
        assert iforest_predict_many(model, Q)[1].tolist() == oracle_iforest_scores(grown, psi, Q).tolist()


def test_isolation_growth_steps_only_through_splitting_nodes(monkeypatch):
    # Every lockstep step calls `split` once, on one node per growing tree.
    # A leaf is never pushed, so the steps are the most internal nodes of any tree.
    steps = 0
    isolation_split = classifiers._isolation_split

    def counting_split(rows, draws):
        split = isolation_split(rows, draws)

        def counted(*args):
            nonlocal steps
            steps += 1
            return split(*args)

        return counted

    monkeypatch.setattr(classifiers, "_isolation_split", counting_split)
    X = np.random.default_rng(1).integers(0, 15, (121, 5))
    forest = iforest_fit(X, np.arange(121) % 10 == 0, trees=101, subsample=256, seed=1).forest
    internal = [subtree_size(forest, root) // 2 for root in forest.roots]  # full binary trees
    assert steps == max(internal) == 73


@st.composite
def forest_cases(draw):
    """Training codes with both classes, where a small level range makes
    ties common, codes may be negative, one column may be constant or a
    copy of the label, and 10 or more features make `mtry` end the scan
    early; tree counts; a seed; and queries: fresh rows, copies of training
    rows and one row alone."""
    n = draw(st.integers(2, 40))
    f = draw(st.sampled_from([1, 2, 3, 5, 10, 17]))
    low = draw(st.sampled_from([0, 0, -9]))
    top = draw(st.sampled_from([1, 2, 3, 14]))
    X = draw(hnp.arrays(np.int64, (n, f), elements=st.integers(low, low + top)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2)) + [0, 1])
    y = y[draw(st.permutations(range(n)))]
    column = draw(st.integers(0, f - 1))
    shape = draw(st.sampled_from(["codes", "codes", "constant column", "label"]))
    if shape == "constant column":
        X[:, column] = draw(st.integers(low, low + 14))
    elif shape == "label":
        X[:, column] = y * draw(st.integers(1, 14)) + low
    trees = draw(st.sampled_from([1, 2, 9, 51]))  # numpy sums 8 or more terms pairwise
    fresh = draw(hnp.arrays(np.int64, (draw(st.integers(1, 6)), f), elements=st.integers(low - 2, low + 16)))
    return X, y, trees, draw(st.integers(0, 99)), [np.vstack([fresh, X[: draw(st.integers(0, n))]]), fresh[:1]]


def assert_brf_matches_recursive_grower(X, y, trees, seed, queries):
    model = brf_fit(X, y, trees=trees, seed=seed, decision_threshold=0.5)
    grown = oracle_brf(X, y, trees, seed)
    assert [subtree_size(model.forest, root) for root in model.forest.roots] == [len(nodes) for nodes in grown]
    for Q in [X, *queries]:
        assert brf_predict_many(model, Q)[1].tolist() == oracle_brf_scores(grown, Q)


@SETTINGS
@given(forest_cases())
# impure but unsplittable: equal rows with both labels make a single leaf of 0.5
@example((np.full((4, 2), 3), np.array([0, 1, 0, 1]), 9, 0, [np.array([[3, 3], [0, 9]])]))
# negative codes, thresholds midway between them
@example((np.array([[-5, 2], [-1, 2], [-3, -7], [-9, 0], [-1, -7]]), np.array([1, 0, 1, 0, 0]), 9, 4, []))
# no features at all: every tree is one impure leaf
@example((np.zeros((4, 0), dtype=np.int64), np.array([0, 1, 0, 1]), 2, 0, [np.zeros((2, 0), dtype=np.int64)]))
# 12 features, so each split inspects the first 4 informative ones of its drawn order
@example((np.arange(60).reshape(5, 12) % 7, np.array([0, 1, 1, 0, 1]), 51, 2, [np.zeros((1, 12), dtype=np.int64)]))
# below the root, equal rows with both labels draw a feature order and stay a leaf; a later split draws after it
@example((np.array([[0, 2], [0, 2], [2, 2], [1, 1], [1, 0], [1, 0], [1, 0]]), np.array([0, 1, 0, 1, 1, 0, 0]), 1, 5, []))
def test_brf_matches_recursive_grower(case):
    assert_brf_matches_recursive_grower(*case)


def test_brf_matches_recursive_grower_on_a_binned_fold():
    # every one of the 100 features, binned on the training fold, without selection
    dataset = generate(SynthConfig(patient_count=5, days_per_patient=150, relapse_fraction=1.0, seed=2))
    table = extract_all(dataset, WindowingConfig())
    train = table.patients != 0
    bins = fit_bins(table.values[train], 15)
    X, y = apply_bins(bins, table.values[train]), table.labels[train]
    assert X.shape[1] == 100 and 0 < y.sum() < y.size
    assert_brf_matches_recursive_grower(X, y, 9, 7, [apply_bins(bins, table.values[~train])])


def test_brf_splits_codes_of_any_sign_and_size():
    X = np.array([[0, 5], [1, 5], [2, 6], [3, 6], [4, 7], [5, 7]])
    y = np.array([0, 1, 0, 1, 1, 0])
    expected = brf_predict_many(brf_fit(X, y, trees=9, seed=1, decision_threshold=0.5), X)[1].tolist()
    # an increasing recoding of the columns keeps every count, so every tree and score
    for recoded in (X - 9, X * 10**12 - 3, X * 2**40):
        assert brf_predict_many(brf_fit(recoded, y, trees=9, seed=1, decision_threshold=0.5), recoded)[1].tolist() == expected


def test_isolation_leaf_holds_average_path_length_of_its_rows():
    # On x86-64 numpy's vectorized np.log(9170.0) is one ulp off math.log(9170),
    # so a leaf of 9171 rows shows which of the two its value was built with.
    n = 9171
    model = iforest_fit(np.zeros((n, 2), dtype=np.int64), np.zeros(n, dtype=np.int64), trees=1, subsample=n, seed=0)
    assert model.forest.value.tolist() == [average_path_length(n)]


@SETTINGS
@given(X=coded_matrices(min_rows=2, max_rows=30), trees=st.sampled_from([1, 9, 51]), seed=st.integers(0, 99))
def test_brf_scores_add_the_trees_in_order(X, trees, seed):
    y = np.arange(X.shape[0]) % 2
    model = brf_fit(X, y, trees=trees, seed=seed, decision_threshold=0.5)
    for Q in [X, X[:1], np.repeat(X[-1:], 2, axis=0)]:
        expected = np.zeros(Q.shape[0])
        for root in model.forest.roots:
            expected += np.array([scalar_walk(model.forest, root, q) for q in Q], dtype=float)
        assert brf_predict_many(model, Q)[1].tolist() == (expected / trees).tolist()


@SETTINGS
@given(
    codes=hnp.arrays(np.int64, st.integers(1, 20), elements=st.integers(-2, 16)),
    split=st.integers(-1, 15).map(float) | st.floats(-1.0, 15.0),
)
def test_isolation_threshold_reproduces_strict_split(codes, split):
    threshold = np.nextafter(split, -np.inf)
    np.testing.assert_array_equal(codes <= threshold, codes < split)
    assert [int(c) <= float(threshold) for c in codes] == [int(c) < split for c in codes]


# 3 * 2**30 rejects a quarter of its draws; 2**32 - 1 is the largest 32-bit bound.
INTEGER_BOUNDS = [1, 2, 3, 100, 3 * 2**30, 2**32 - 1]
# At 2**53 floats are 2 apart, so about half of the cuts round down to lo and are redrawn.
SPANS = [(0.0, 1.0), (2.0, 5.0), (0.0, 14.0), (-3.0, 9.0), (2.0**53, 2.0**53 + 2)]


def started_generators(entropy, n, psi, calls):
    """One Generator per entry of `calls`, after iforest's `choice` prefix
    and that many `integers(5)` calls; each such call flips the held half."""
    rngs = []
    for child, count in zip(np.random.SeedSequence(entropy).spawn(len(calls)), calls):
        rng = np.random.default_rng(child)
        rng.choice(n, size=psi, replace=False)
        for _ in range(count):
            rng.integers(5)
        rngs.append(rng)
    return rngs


def assert_reader_matches_generators(entropy, n, psi, calls, words, steps):
    """Each step, the trees with an entry draw `integers(k)` then
    `uniform(lo, hi)` (redrawn while `<= lo`) from a reader of `words`
    words, and their twins make the same scalar calls."""
    draws = _TreeDraws(started_generators(entropy, n, psi, calls), words)
    twins = started_generators(entropy, n, psi, calls)
    for step in steps:
        trees = np.array([t for t, entry in enumerate(step) if entry is not None], dtype=np.intp)
        bounds = np.array([step[t][0] for t in trees], dtype=np.int64)
        lo, hi = (np.array([step[t][1][i] for t in trees], dtype=float) for i in (0, 1))
        got_integers, got_cuts = draws.integers(trees, bounds), draws.uniform(trees, lo, hi)
        for i, t in enumerate(trees.tolist()):
            assert got_integers[i] == twins[t].integers(int(bounds[i]))
            cut = twins[t].uniform(lo[i], hi[i])
            while cut <= lo[i]:
                cut = twins[t].uniform(lo[i], hi[i])
            assert got_cuts[i] == cut


@st.composite
def draw_cases(draw):
    """Trees' entropy and start states, a reader's word count (small ones
    make trees read more words), and steps in which each tree draws nothing
    or one (integer bound, uniform span)."""
    calls = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    n = draw(st.integers(1, 40))
    psi = draw(st.integers(1, n))
    words = draw(st.sampled_from([1, 3, 2 * psi]))
    entry = st.none() | st.tuples(st.sampled_from(INTEGER_BOUNDS), st.sampled_from(SPANS))
    steps = draw(st.lists(st.lists(entry, min_size=len(calls), max_size=len(calls)), max_size=12))
    return draw(st.integers(0, 2**32 - 1)), n, psi, calls, words, steps


@SETTINGS
@given(draw_cases())
def test_tree_draws_match_scalar_generator_calls(case):
    assert_reader_matches_generators(*case)


def test_tree_draws_match_from_either_held_half():
    # 17 trees, each taking every bound and span, from 2 words on: rejections,
    # redraws and reads past the first words all happen
    calls = [0, 1, 2, 3] * 4 + [1]
    held = {rng.bit_generator.state["has_uint32"] for rng in started_generators(3, 30, 16, calls)}
    assert held == {0, 1}
    steps = [[(k, span)] * len(calls) for k in INTEGER_BOUNDS for span in SPANS]
    assert_reader_matches_generators(3, 30, 16, calls, 2, steps + [[None, (3 * 2**30, SPANS[-1])] * 8 + [None]])


@SETTINGS
@given(
    hnp.arrays(
        np.int64,
        st.tuples(st.integers(0, 30), st.integers(0, 4)),
        elements=st.integers(-3, 3) | st.sampled_from([-(2**63), 2**63 - 1]),
    )
)
@example(np.array([[5, -2]]))  # one row
@example(np.full((4, 3), -7))  # every row equal
@example(np.zeros((3, 0), dtype=np.int64))  # no columns
def test_distinct_rows_match_np_unique(X):
    distinct, inverse = _distinct_rows(X)
    expected, expected_inverse = np.unique(X, axis=0, return_inverse=True)
    assert distinct.shape == expected.shape and distinct.tolist() == expected.tolist()
    assert inverse.dtype == expected_inverse.dtype and inverse.tolist() == expected_inverse.tolist()
