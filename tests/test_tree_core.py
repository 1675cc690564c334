"""Property tests of the shared tree core against brute-force oracles.

The split searches are checked against a scan of every cut (and, for
stumps, every sign) in (feature, cut, sign) order, where the first strict
minimum wins. Weights are whole numbers, so every weighted sum is exact in
either order of addition and ties compare equal on both sides.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from relapsekit.classifiers import _best_stump, _best_threshold, brf_fit, ee_fit, iforest_fit

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


def scalar_walk(tree, x):
    node = 0
    while tree.left[node] != -1:
        node = tree.left[node] if x[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
    return tree.value[node]


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
    np.testing.assert_array_equal(stump.predict(X), np.where(X[:, feature] <= threshold, sign, -sign))


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
    trees = (
        brf_fit(X, y, trees=3, seed=seed).trees
        + [stump for chain in ee_fit(X, y, bags=2, rounds=3, seed=seed).bags for _, stump in chain]
        + iforest_fit(X, y, trees=3, subsample=8, seed=seed).trees
    )
    for tree in trees:
        expected = [scalar_walk(tree, q) for q in Q]
        np.testing.assert_array_equal(tree.predict(Q), np.array(expected, dtype=float))


@SETTINGS
@given(
    codes=hnp.arrays(np.int64, st.integers(1, 20), elements=st.integers(-2, 16)),
    split=st.integers(-1, 15).map(float) | st.floats(-1.0, 15.0),
)
def test_isolation_threshold_reproduces_strict_split(codes, split):
    threshold = np.nextafter(split, -np.inf)
    np.testing.assert_array_equal(codes <= threshold, codes < split)
    assert [int(c) <= float(threshold) for c in codes] == [int(c) < split for c in codes]
