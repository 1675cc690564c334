from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from relapsekit.classifiers import (
    BaselineResult,
    average_path_length,
    balanced_bootstraps,
    baseline_over_runs,
    brf_fit,
    brf_predict_many,
    ee_fit,
    ee_predict_many,
    iforest_fit,
    iforest_predict_many,
    nb_fit,
    nb_predict_many,
)
from relapsekit.metrics import f2_from_counts


def nb_oracle_label(X, y, x, alpha=1.0, k=15) -> int:
    """Brute-force smoothed posterior with dict counting (pure python).

    Log-likelihood terms are accumulated in feature order, mirroring the
    definition exactly; ties go to non-relapse.
    """
    n = len(y)
    log_joint = {}
    for c in (0, 1):
        rows = [X[i] for i in range(n) if y[i] == c]
        total = math.log(len(rows) / n)
        for f in range(len(x)):
            count = sum(1 for r in rows if r[f] == x[f])
            total += math.log((count + alpha) / (len(rows) + k * alpha))
        log_joint[c] = total
    return 1 if log_joint[1] > log_joint[0] else 0


# -- Naive Bayes -----------------------------------------------------------------


def nb_fit_loop(X, y, alpha, k):
    """Priors and likelihoods counted one class and one feature at a time."""
    n, n_features = X.shape
    log_prior = np.empty(2)
    log_lik = np.empty((n_features, k, 2))
    for c in (0, 1):
        rows = X[y == c]
        log_prior[c] = math.log(rows.shape[0] / n)
        denom = math.log(rows.shape[0] + k * alpha)
        for f in range(n_features):
            counts = np.bincount(rows[:, f], minlength=k).astype(float)
            log_lik[f, :, c] = np.log(counts + alpha) - denom
    return log_prior, log_lik


def test_nb_fit_is_bit_equal_to_the_per_class_per_feature_loop(rng):
    for _ in range(300):
        n = int(rng.integers(2, 401))
        n_features = int(rng.integers(1, 101))
        k = int(rng.integers(1, 41))
        alpha = float(rng.choice([1e-3, 0.5, 1.0, 2.5, 7.0]))
        X = rng.integers(0, k, size=(n, n_features))
        y = rng.integers(0, 2, size=n)
        y[:2] = [0, 1]
        model = nb_fit(X, y, alpha=alpha, n_categories=k)
        log_prior, log_lik = nb_fit_loop(X, y, alpha, k)
        assert model.class_log_prior.tobytes() == log_prior.tobytes()
        assert model.feature_log_likelihood.shape == log_lik.shape
        assert model.feature_log_likelihood.tobytes() == log_lik.tobytes()


def test_nb_laplace_smoothing_hand_example():
    # X=[[0],[0],[1],[1]], y=[0,0,1,1]: P(x=0 | y=0) = (2+1)/(2+15) = 3/17
    model = nb_fit(np.array([[0], [0], [1], [1]]), np.array([0, 0, 1, 1]), alpha=1.0, n_categories=15)
    assert math.exp(model.feature_log_likelihood[0, 0, 0]) == pytest.approx(3 / 17, abs=1e-12)
    np.testing.assert_allclose(np.exp(model.class_log_prior), [0.5, 0.5])


def test_nb_likelihoods_sum_to_one_per_feature_and_class(rng):
    X = rng.integers(0, 15, size=(30, 4))
    y = np.array([0, 1] * 15)
    model = nb_fit(X, y, alpha=1.0, n_categories=15)
    sums = np.exp(model.feature_log_likelihood).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, rtol=1e-12)


def test_nb_unseen_category_has_positive_likelihood():
    model = nb_fit(np.array([[0], [0], [1], [1]]), np.array([0, 0, 1, 1]), alpha=1.0, n_categories=15)
    # category 9 never observed: likelihood = alpha / (2 + 15) > 0
    assert math.exp(model.feature_log_likelihood[0, 9, 0]) == pytest.approx(1 / 17, abs=1e-12)
    (label,), (score,) = nb_predict_many(model, np.array([[9]]))
    assert 0.0 < score < 1.0


def test_nb_single_class_rejected():
    with pytest.raises(ValueError, match="single_class"):
        nb_fit(np.array([[0], [1]]), np.array([0, 0]), alpha=1.0, n_categories=15)


def test_nb_tie_goes_to_non_relapse():
    # Perfectly symmetric training data and a symmetric query.
    X = np.array([[0, 1], [1, 0]])
    y = np.array([0, 1])
    model = nb_fit(X, y, alpha=1.0, n_categories=15)
    (label,), (score,) = nb_predict_many(model, np.array([[2, 2]]))
    assert score == pytest.approx(0.5)
    assert label == 0


def test_nb_trained_on_class_zero_pattern_predicts_zero():
    X = np.array([[3, 3], [3, 3], [9, 9], [9, 9]])
    y = np.array([0, 0, 1, 1])
    model = nb_fit(X, y, alpha=1.0, n_categories=15)
    labels, _ = nb_predict_many(model, np.array([[3, 3], [9, 9]]))
    np.testing.assert_array_equal(labels, [0, 1])


def test_nb_matches_bruteforce_oracle_on_random_toys(rng):
    for _ in range(60):
        n = int(rng.integers(4, 100))
        m = int(rng.integers(1, 7))
        X = rng.integers(0, 15, size=(n, m))
        y = rng.integers(0, 2, size=n)
        if len(np.unique(y)) < 2:
            continue
        model = nb_fit(X, y, alpha=1.0, n_categories=15)
        for row in X[: min(10, n)]:
            (label,), _ = nb_predict_many(model, row[None, :])
            assert label == nb_oracle_label(X.tolist(), y.tolist(), row.tolist())


def test_nb_permuting_features_leaves_predictions_unchanged(rng):
    X = rng.integers(0, 15, size=(40, 6))
    y = np.array([0, 1] * 20)
    perm = rng.permutation(6)
    a = nb_fit(X, y, alpha=1.0, n_categories=15)
    b = nb_fit(X[:, perm], y, alpha=1.0, n_categories=15)
    la, sa = nb_predict_many(a, X)
    lb, sb = nb_predict_many(b, X[:, perm])
    np.testing.assert_array_equal(la, lb)
    np.testing.assert_allclose(sa, sb, rtol=1e-12)


# -- balanced bootstrap -------------------------------------------------------------


def test_balanced_bootstrap_sizes(rng):
    y = np.array([1, 1, 1] + [0] * 17)
    idx = balanced_bootstraps(y, [rng])[0]
    assert idx.size == 6  # k = 3 minority rows -> 3 + 3
    assert (y[idx] == 1).sum() == 3 and (y[idx] == 0).sum() == 3


@pytest.mark.parametrize("positives, negatives", [(1, 1), (1, 9), (3, 17), (9, 112), (40, 33), (300, 5000)])
def test_balanced_bootstrap_draws_what_two_choice_calls_draw(positives, negatives):
    y = np.array([1] * positives + [0] * negatives)
    np.random.default_rng(positives).shuffle(y)
    k = min(positives, negatives)
    for seed in range(5):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        idx = balanced_bootstraps(y, [rng])[0]
        expected = np.concatenate([reference.choice(np.flatnonzero(y == c), size=k, replace=True) for c in (1, 0)])
        assert idx.dtype == expected.dtype and idx.tolist() == expected.tolist()
        # the Generator is left where the choice calls leave it, for the draws that follow
        assert rng.bit_generator.state == reference.bit_generator.state


# -- Balanced Random Forest -----------------------------------------------------------


def separable_toy(rng, n=40, m=5):
    y = np.array([0, 1] * (n // 2))
    X = np.full((n, m), 4, dtype=np.int64)
    X[:, 0] = y  # feature 0 mirrors the label; the rest are constant
    return X, y


def test_brf_perfect_on_separable_toy(rng):
    X, y = separable_toy(rng)
    model = brf_fit(X, y, trees=51, seed=3, decision_threshold=0.5)
    labels, scores = brf_predict_many(model, X)
    np.testing.assert_array_equal(labels, y)


def test_brf_same_seed_identical_different_seed_may_differ(rng):
    X = rng.integers(0, 15, size=(60, 8))
    y = np.array([0, 1] * 30)
    a = brf_predict_many(brf_fit(X, y, trees=11, seed=5, decision_threshold=0.5), X)
    b = brf_predict_many(brf_fit(X, y, trees=11, seed=5, decision_threshold=0.5), X)
    np.testing.assert_array_equal(a[1], b[1])


def test_brf_single_class_rejected():
    with pytest.raises(ValueError, match="single_class"):
        brf_fit(np.zeros((4, 2), dtype=int), np.zeros(4, dtype=int), trees=51, seed=0, decision_threshold=0.5)


# -- EasyEnsemble ----------------------------------------------------------------------


def test_ee_perfect_stump_scores_one_on_relapse_rows(rng):
    X, y = separable_toy(rng)
    model = ee_fit(X, y, bags=11, rounds=10, seed=2, decision_threshold=0.5)
    # every chain stops after its first (perfect) stump
    assert ((model.alpha != 0).sum(axis=1) == 1).all()
    assert (model.alpha[:, 0] == 1.0).all()
    labels, scores = ee_predict_many(model, X)
    np.testing.assert_array_equal(labels, y)
    assert (scores[y == 1] == 1.0).all()
    assert (scores[y == 0] == 0.0).all()


def test_ee_single_bag_single_round_is_one_stump(rng):
    X = rng.integers(0, 15, size=(30, 4))
    y = np.array([0, 1] * 15)
    model = ee_fit(X, y, bags=1, rounds=1, seed=9, decision_threshold=0.5)
    for array in (model.alpha, model.feature, model.threshold, model.sign):
        assert array.shape == (1, 1)


# Bags of 2 + 2 rows weigh 1/4 each, so every stump errs exactly 0.5. Bags of
# 3 + 3 weigh 1/6 each, and a stump errs 0.49999999999999994: chance all the
# same, which must not be kept with an alpha of 2e-16 and cast a full vote.
@pytest.mark.parametrize("y", [[0, 1, 0, 1, 0, 0], [0, 1, 0, 1, 1, 0]])
def test_ee_constant_features_give_empty_chains_scoring_half(y):
    X = np.full((6, 3), 7)
    model = ee_fit(X, np.array(y), bags=5, rounds=4, seed=1, decision_threshold=0.5)
    assert (model.alpha == 0).all() and (model.sign == 0).all()
    labels, scores = ee_predict_many(model, np.array([[7, 7, 7], [0, 9, 14]]))
    assert scores.tolist() == [0.5, 0.5]
    assert labels.tolist() == [1, 1]


@pytest.mark.parametrize("bags, rounds", [(0, 10), (101, 0)])
def test_ee_needs_a_bag_and_a_round(bags, rounds):
    with pytest.raises(ValueError, match="at least 1"):
        ee_fit(np.arange(4)[:, None], np.array([0, 1, 0, 1]), bags=bags, rounds=rounds, seed=0, decision_threshold=0.5)


@pytest.mark.parametrize(
    "fit, counts",
    [
        (brf_fit, {"trees": 0, "decision_threshold": 0.5}),
        (iforest_fit, {"trees": 0, "subsample": 256}),
        (iforest_fit, {"trees": 101, "subsample": 0}),
        (iforest_fit, {"trees": 101, "subsample": -2}),
    ],
)
def test_forests_need_a_tree_and_a_row(fit, counts):
    with pytest.raises(ValueError, match="at least 1"):
        fit(np.arange(4)[:, None], np.array([0, 1, 0, 1]), seed=0, **counts)


def test_ee_determinism(rng):
    X = rng.integers(0, 15, size=(50, 6))
    y = np.array([0, 1] * 25)
    a = ee_predict_many(ee_fit(X, y, bags=21, rounds=5, seed=4, decision_threshold=0.5), X)
    b = ee_predict_many(ee_fit(X, y, bags=21, rounds=5, seed=4, decision_threshold=0.5), X)
    np.testing.assert_array_equal(a[1], b[1])


def test_ee_single_class_rejected():
    with pytest.raises(ValueError, match="single_class"):
        ee_fit(np.zeros((4, 2), dtype=int), np.ones(4, dtype=int), bags=101, rounds=10, seed=0, decision_threshold=0.5)


# -- Isolation Forest --------------------------------------------------------------------


def test_average_path_length_values():
    assert average_path_length(0) == 0.0
    assert average_path_length(1) == 0.0
    assert average_path_length(2) == 1.0
    # c(n) grows like 2 ln(n); spot value against the direct formula
    assert average_path_length(256) == pytest.approx(
        2 * (math.log(255) + 0.5772156649015329) - 2 * 255 / 256
    )


def test_iforest_inlier_scores_below_half(rng):
    # dense cluster + a handful of extreme rows
    cluster = rng.integers(6, 9, size=(200, 4))
    outliers = np.array([[0, 14, 0, 14], [14, 0, 14, 0]])
    X = np.vstack([cluster, outliers])
    y = np.array([0] * 200 + [1, 1])
    model = iforest_fit(X, y, trees=101, subsample=64, seed=3)
    _, (inlier, outlier) = iforest_predict_many(model, np.array([[7, 7, 7, 7], [14, 0, 14, 0]]))
    assert inlier < 0.5
    assert outlier > inlier


def test_iforest_single_row_training_defined():
    model = iforest_fit(np.array([[3, 3]]), np.array([0]), trees=5, subsample=256, seed=1)
    _, (score,) = iforest_predict_many(model, np.array([[3, 3]]))
    assert math.isfinite(score) and 0.0 < score <= 1.0


def test_iforest_threshold_flags_training_prevalence(rng):
    n = 300
    X = rng.integers(0, 15, size=(n, 5))
    y = np.zeros(n, dtype=int)
    y[:3] = 1  # 1% prevalence
    model = iforest_fit(X, y, trees=51, subsample=128, seed=7)
    _, scores = iforest_predict_many(model, X)
    flagged = np.sort(scores[scores >= model.threshold])[::-1]
    # k = round(prevalence * n) = 3; ties at the cut may flag more, but only
    # rows scoring exactly the cut.
    assert flagged.size >= 3
    assert (flagged[3:] == model.threshold).all()


def test_iforest_zero_prevalence_never_flags(rng):
    X = rng.integers(0, 15, size=(50, 3))
    model = iforest_fit(X, np.zeros(50, dtype=int), trees=11, subsample=32, seed=2)
    assert (iforest_predict_many(model, X)[1] >= model.threshold).sum() == 0
    assert iforest_predict_many(model, X[:1])[0][0] == 0


def test_iforest_score_monotone_in_path_length(rng):
    X = rng.integers(0, 15, size=(100, 4))
    model = iforest_fit(X, np.array([0] * 99 + [1]), trees=21, subsample=64, seed=5)
    # score = 2^(-path / c): strictly decreasing in the average path length
    _, scores = iforest_predict_many(model, X)
    paths = -np.log2(scores) * average_path_length(model.sample_size)
    order = np.argsort(paths)
    assert (np.diff(scores[order]) <= 1e-12).all()


def test_iforest_determinism(rng):
    X = rng.integers(0, 15, size=(80, 4))
    y = np.array([0] * 76 + [1] * 4)
    a = iforest_fit(X, y, trees=31, subsample=64, seed=11)
    b = iforest_fit(X, y, trees=31, subsample=64, seed=11)
    np.testing.assert_array_equal(iforest_predict_many(a, X)[1], iforest_predict_many(b, X)[1])
    assert a.threshold == b.threshold


def test_iforest_codes_past_2_53():
    # 2**53 and 2**53 + 1 are one float: no split can part them, so no tree splits.
    X = np.array([[2**53], [2**53 + 1]])
    model = iforest_fit(X, np.array([0, 1]), trees=3, subsample=256, seed=0)
    assert (model.forest.left == -1).all()
    _, scores = iforest_predict_many(model, X)
    assert np.isfinite(scores).all() and scores[0] == scores[1]
    # 2**53 + 4 is the next float but one: every root still splits them apart.
    X = np.array([[2**53], [2**53 + 4]])
    model = iforest_fit(X, np.array([0, 1]), trees=3, subsample=256, seed=0)
    forest = model.forest
    assert (forest.left[forest.roots] != -1).all()
    assert (forest.threshold[forest.roots] >= 2**53).all() and (forest.threshold[forest.roots] < 2**53 + 4).all()
    assert np.isfinite(iforest_predict_many(model, X)[1]).all()


# -- random baseline ------------------------------------------------------------------------


def test_baseline_prevalence_zero_recalls_nothing():
    labels = np.array([1, 0, 0, 1])
    result = baseline_over_runs(labels, np.full(4, 0.0), 50, np.random.default_rng(1))
    assert result.recall == 0.0 and result.tp == 0.0


def test_baseline_prevalence_one_recalls_everything():
    labels = np.array([1, 0, 0, 0, 1] * 4)
    result = baseline_over_runs(labels, np.full(20, 1.0), 50, np.random.default_rng(1))
    assert result.recall == 1.0
    assert result.precision == pytest.approx(labels.mean())


def test_baseline_recall_tracks_prevalence_within_three_sigma():
    p = 0.3
    labels = np.array([1] * 40 + [0] * 160)
    result = baseline_over_runs(labels, np.full(200, p), 1000, np.random.default_rng(3))
    assert abs(result.recall - p) <= 3 * result.recall_std


def test_baseline_determinism():
    labels = np.array([1, 0] * 20)
    a = baseline_over_runs(labels, np.full(40, 0.2), 200, np.random.default_rng(9))
    b = baseline_over_runs(labels, np.full(40, 0.2), 200, np.random.default_rng(9))
    assert a == b


def baseline_one_matrix(labels, ratios, runs, rng) -> BaselineResult:
    """The random baseline drawn as one `(runs, windows)` matrix, confusion counts by masks."""
    preds = rng.random((runs, labels.size)) < ratios
    pos = labels == 1
    tp = preds[:, pos].sum(axis=1)
    fn = (~preds[:, pos]).sum(axis=1)
    fp = preds[:, ~pos].sum(axis=1)
    tn = (~preds[:, ~pos]).sum(axis=1)
    per_run = np.array([f2_from_counts(t, f, m) for t, f, m in zip(tp, fp, fn)])
    (precision, recall, f2), (p_std, r_std, f2_std) = per_run.mean(axis=0), per_run.std(axis=0)
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


@pytest.mark.parametrize("runs", [1, 63, 64, 65, 1000])
def test_baseline_row_blocks_equal_one_matrix(runs):
    rng = np.random.default_rng(5)
    labels = (rng.random(301) < 0.15).astype(np.int64)
    ratios = np.repeat([0.05, 0.2, 0.12, 0.3], [80, 70, 100, 51])
    got = baseline_over_runs(labels, ratios, runs, np.random.default_rng(11))
    assert got == baseline_one_matrix(labels, ratios, runs, np.random.default_rng(11))


def test_baseline_peak_memory_stays_under_one_draw_matrix():
    # The paper-scale baseline: 1,000 runs over 2,768 windows. One float64
    # draw of that shape alone is 21 MiB.
    labels = (np.arange(2768) % 9 == 0).astype(np.int64)
    ratios = np.full(2768, 0.11)
    tracemalloc.start()
    try:
        baseline_over_runs(labels, ratios, 1000, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
