"""Property tests of the shared tree core against brute-force oracles.

The split searches are checked against a scan of every cut (and, for
stumps, every sign) in (feature, cut, sign) order, where the first strict
minimum wins. Weights are whole numbers, so every weighted sum is exact in
either order of addition and ties compare equal on both sides.

The lockstep isolation forest is checked against a recursive grower that
splits one tree's full subsample at a time, and against scoring every
requested row through every tree.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from relapsekit.classifiers import (
    _best_stump,
    _best_threshold,
    _seed_sequence,
    average_path_length,
    brf_fit,
    brf_predict_many,
    ee_fit,
    iforest_fit,
    iforest_scores,
)

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def coded_matrices(draw, min_rows=2, max_rows=24, max_features=4):
    """An (n, f) matrix of 15-level codes; a small level range makes ties common."""
    n = draw(st.integers(min_rows, max_rows))
    f = draw(st.integers(1, max_features))
    top = draw(st.sampled_from([1, 2, 3, 14]))
    return draw(hnp.arrays(np.int64, (n, f), elements=st.integers(0, top)))


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
    for child in _seed_sequence(seed).spawn(trees):
        rng = np.random.default_rng(child)
        idx = rng.choice(n, size=psi, replace=False)
        grown.append(oracle_isolation_tree(X[idx], 0, limit, rng, []))
    scores = oracle_iforest_scores(grown, psi, X)
    flagged = int(round(float(y.mean()) * n))
    threshold = float(np.sort(scores)[::-1][flagged - 1]) if flagged > 0 else math.inf
    return grown, psi, threshold


def oracle_iforest_scores(grown, psi, X):
    """Every requested row through every tree, then the mean over a
    C-contiguous (trees, rows) matrix."""

    def path(nodes, x):
        node = 0
        while nodes[node][2] != -1:
            feature, threshold, left, right, _ = nodes[node]
            node = left if x[feature] <= threshold else right
        return nodes[node][4]

    paths = np.array([[path(nodes, x) for x in X] for nodes in grown])
    return np.exp2(-paths.mean(axis=0) / (average_path_length(psi) or 1.0))


@SETTINGS
@given(X=coded_matrices(), data=st.data())
def test_best_stump_matches_scan_of_every_cut_and_sign(X, data):
    n = X.shape[0]
    y_pm = np.array(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))
    equal = data.draw(st.booleans())
    w = np.ones(n) if equal else np.array(data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), float)
    stump, err = _best_stump(X, y_pm, w)
    (feature, threshold, sign), expected_err = oracle_stump(X, y_pm, w)
    assert (int(stump.feature[0]), float(stump.threshold[0]), stump.value[1], stump.value[2]) == (
        feature,
        threshold,
        sign,
        -sign,
    )
    assert err == expected_err
    np.testing.assert_array_equal(stump.predict(X)[0], np.where(X[:, feature] <= threshold, sign, -sign))


@SETTINGS
@given(X=coded_matrices(max_features=1), data=st.data())
def test_best_threshold_matches_scan_of_every_cut(X, data):
    column = X[:, 0]
    if column.min() == column.max():
        column = np.append(column, column[0] + 1)
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=column.size, max_size=column.size)))
    assert _best_threshold(column, labels) == oracle_threshold(column, labels)


@SETTINGS
@given(X=coded_matrices(min_rows=4), queries=coded_matrices(min_rows=1, max_features=1), seed=st.integers(0, 99))
def test_tree_predict_matches_scalar_walk(X, queries, seed):
    y = np.arange(X.shape[0]) % 2
    Q = np.resize(queries, (queries.shape[0], X.shape[1]))
    forests = (
        [brf_fit(X, y, trees=3, seed=seed).forest]
        + [stump for chain in ee_fit(X, y, bags=2, rounds=3, seed=seed).bags for _, stump in chain]
        + [iforest_fit(X, y, trees=3, subsample=8, seed=seed).forest]
    )
    for forest in forests:
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
def test_iforest_matches_recursive_grower(case):
    X, y, trees, subsample, seed, queries = case
    model = iforest_fit(X, y, trees=trees, subsample=subsample, seed=seed)
    grown, psi, threshold = oracle_iforest(X, y, trees, subsample, seed)
    assert model.sample_size == psi
    assert [subtree_size(model.forest, root) for root in model.forest.roots] == [len(nodes) for nodes in grown]
    assert model.threshold == threshold
    for Q in [X, *queries]:
        assert iforest_scores(model, Q).tolist() == oracle_iforest_scores(grown, psi, Q).tolist()


def test_isolation_leaf_holds_average_path_length_of_its_rows():
    # On x86-64 numpy's vectorized np.log(9170.0) is one ulp off math.log(9170),
    # so a leaf of 9171 rows shows which of the two its value was built with.
    n = 9171
    model = iforest_fit(np.zeros((n, 2), dtype=np.int64), np.zeros(n, dtype=np.int64), trees=1, subsample=n)
    assert model.forest.value.tolist() == [average_path_length(n)]


@SETTINGS
@given(X=coded_matrices(min_rows=2, max_rows=30), trees=st.sampled_from([1, 9, 51]), seed=st.integers(0, 99))
def test_brf_scores_add_the_trees_in_order(X, trees, seed):
    y = np.arange(X.shape[0]) % 2
    model = brf_fit(X, y, trees=trees, seed=seed)
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
