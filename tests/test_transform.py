from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import day
from relapsekit.features import WindowTable
from relapsekit.model import AGE_INDEX, FEATURE_COUNT
from relapsekit.transform import (
    apply_bins,
    build_selection_subsample,
    fit_bins,
    mutual_information,
    select_features,
)
from relapsekit.windowing import WindowingConfig, WindowSpec, window_at


def mi_oracle(x, y) -> float:
    """Brute-force plug-in MI from an explicit joint table (pure python)."""
    n = len(x)
    joint = Counter(zip(x, y))
    px = Counter(x)
    py = Counter(y)
    total = 0.0
    for (xv, yv), c in joint.items():
        p_xy = c / n
        total += p_xy * math.log(p_xy / ((px[xv] / n) * (py[yv] / n)))
    return total


def entropy(values) -> float:
    n = len(values)
    return -sum((c / n) * math.log(c / n) for c in Counter(values).values())


def vectors_with_feature(column: list[float], feature: int = 0) -> np.ndarray:
    matrix = np.zeros((len(column), FEATURE_COUNT))
    matrix[:, feature] = column
    return matrix


# -- binning -------------------------------------------------------------------


def test_equal_width_edges_and_midpoint_category():
    model = fit_bins(vectors_with_feature([0.0, 15.0]), 15)
    np.testing.assert_allclose(model.edges[0], np.arange(16.0))
    cats = apply_bins(model, vectors_with_feature([7.5]))
    assert cats[0, 0] == 7


def test_extreme_values_clamp():
    model = fit_bins(vectors_with_feature([0.0, 15.0]), 15)
    v = vectors_with_feature([0.0, 15.0, -4.0, 99.0])
    cats = apply_bins(model, v)[:, 0]
    assert cats.tolist() == [0, 14, 0, 14]  # min->0, max->top, out-of-range clamps


def test_constant_feature_degenerates_to_single_category():
    model = fit_bins(vectors_with_feature([3.0, 3.0, 3.0]), 15)
    cats = apply_bins(model, vectors_with_feature([3.0, -1.0, 10.0]))[:, 0]
    assert cats.tolist() == [0, 0, 0]


def test_all_missing_feature_gets_zero_imputation_and_degenerate_bins():
    matrix = np.full((3, FEATURE_COUNT), np.nan)
    matrix[:, 1] = [1.0, 2.0, 3.0]
    model = fit_bins(matrix, 15)
    assert model.impute[0] == 0.0
    cats = apply_bins(model, np.full(FEATURE_COUNT, np.nan))
    assert cats[0] == 0


def test_missing_values_imputed_with_training_mean():
    matrix = vectors_with_feature([0.0, 10.0, 20.0])
    model = fit_bins(matrix, 15)
    assert model.impute[0] == 10.0
    v = np.zeros(FEATURE_COUNT)
    v[0] = np.nan
    assert apply_bins(model, v)[0] == apply_bins(model, vectors_with_feature([10.0]))[0, 0]


def test_apply_bins_is_monotone(rng):
    train = vectors_with_feature(rng.normal(size=50).tolist())
    model = fit_bins(train, 15)
    values = np.sort(rng.normal(scale=3.0, size=200))
    cats = apply_bins(model, vectors_with_feature(values.tolist()))[:, 0]
    assert (np.diff(cats) >= 0).all()


def test_training_data_never_leaves_category_range(rng):
    for _ in range(20):
        column = rng.normal(size=int(rng.integers(1, 40)))
        train = vectors_with_feature(column.tolist())
        model = fit_bins(train, 15)
        cats = apply_bins(model, train)
        assert cats.min() >= 0 and cats.max() <= 14


def test_fit_bins_rejects_empty():
    with pytest.raises(ValueError):
        fit_bins(np.empty((0, FEATURE_COUNT)), 15)


def fit_bins_oracle(matrix: np.ndarray, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """The column loop `fit_bins` replaced: impute means and edges."""
    impute = np.zeros(matrix.shape[1])
    edges = np.zeros((matrix.shape[1], n_bins + 1))
    for f in range(matrix.shape[1]):
        col = matrix[:, f]
        col = col[~np.isnan(col)]
        if col.size:
            impute[f] = col.mean()
            edges[f] = np.linspace(col.min(), col.max(), n_bins + 1)
    return impute, edges


# Signed zeros, a denormal step that rounds to 0 in `linspace`, and values
# whose sums depend on the order they are added in.
BIN_VALUES = np.array([np.nan, 0.0, -0.0, 5e-324, 1e-300, 0.1, 0.2, 0.3, 1e16, 7.0])


@st.composite
def bin_matrices(draw) -> np.ndarray:
    """Matrices of up to 300 rows (past numpy's 128-value pairwise sum
    blocks): NaN-heavy, constant and all-NaN columns."""
    rows, cols = draw(st.integers(1, 300)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["mixed", "constant", "missing", "sparse"]), min_size=cols, max_size=cols)):
        column = np.where(rng.random(rows) < 0.5, rng.choice(BIN_VALUES, rows), rng.normal(0, 1e3, rows))
        if kind == "constant":
            column[:] = column[0]
        elif kind == "missing":
            column[:] = np.nan
        elif kind == "sparse":
            column[rng.random(rows) < 0.9] = np.nan
        columns.append(column)
    return np.stack(columns, axis=1)


@settings(max_examples=200, deadline=None, derandomize=True)
@example(matrix=np.array([[0.0, 5e-324, np.nan, -0.0]]), n_bins=15)
@example(matrix=np.array([[0.0, 3.0], [5e-324, 3.0], [-0.0, np.nan]]), n_bins=15)
@given(matrix=bin_matrices(), n_bins=st.sampled_from([1, 2, 15]))
def test_fit_bins_equals_the_column_loop_bit_for_bit(matrix, n_bins):
    model = fit_bins(matrix, n_bins)
    impute, edges = fit_bins_oracle(matrix, n_bins)
    assert (model.impute == impute).all() and (model.edges == edges).all()
    assert model.impute.tobytes() == impute.tobytes() and model.edges.tobytes() == edges.tobytes()


# -- mutual information ----------------------------------------------------------


def test_mi_identical_binary_columns_is_ln2():
    assert mutual_information(np.array([0, 0, 1, 1]), np.array([0, 0, 1, 1])) == pytest.approx(
        math.log(2), abs=1e-12
    )


def test_mi_independent_columns_is_zero():
    assert mutual_information(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])) == 0.0


def test_mi_constant_column_is_zero():
    assert mutual_information(np.zeros(8, dtype=int), np.array([0, 1] * 4)) == 0.0


def test_mi_length_mismatch_rejected():
    with pytest.raises(ValueError):
        mutual_information(np.array([0, 1]), np.array([0, 1, 0]))


def test_mi_matches_bruteforce_oracle_and_bounds(rng):
    for _ in range(200):
        n = int(rng.integers(1, 120))
        x = rng.integers(0, int(rng.integers(2, 15)), size=n)
        y = rng.integers(0, 2, size=n)
        got = mutual_information(x, y)
        want = mi_oracle(x.tolist(), y.tolist())
        assert got == pytest.approx(want, abs=1e-12)
        assert got >= 0.0
        assert got <= min(entropy(x.tolist()), entropy(y.tolist())) + 1e-12


def test_mi_symmetry(rng):
    for _ in range(50):
        x = rng.integers(0, 5, size=60)
        y = rng.integers(0, 3, size=60)
        assert mutual_information(x, y) == pytest.approx(mutual_information(y, x), abs=1e-12)


# -- selection subsample -----------------------------------------------------------


def table(rows: list[tuple[str, int, int, float]]) -> WindowTable:
    """The window table of (patient, start day, label, age) rows, in table order."""
    specs, values = [], np.zeros((len(rows), FEATURE_COUNT))
    for i, (pid, start_day, label, age) in enumerate(sorted(rows)):
        specs.append(window_at(pid, day(start_day), (day(start_day + 28),) if label else (), WindowingConfig()))
        values[i, AGE_INDEX] = age
    return WindowTable(tuple(specs), values)


def subsample(t: WindowTable, test_patient_age: float, n_nonrelapse: int) -> list[WindowSpec]:
    picked = build_selection_subsample(t.values, t.labels, test_patient_age, n_nonrelapse)
    return [t.specs[i] for i in picked]


def subsample_oracle(t: WindowTable, test_patient_age: float, n_nonrelapse: int) -> list[int]:
    """The list-based subsample the array sort replaced: relapse rows in row
    order, then non-relapse rows sorted on (|age - test age|, patient id,
    window start)."""
    relapse = [i for i, spec in enumerate(t.specs) if spec.label == 1]
    nonrelapse = [i for i, spec in enumerate(t.specs) if spec.label == 0]

    def key(i: int) -> tuple[float, str, object]:
        age = float(t.values[i, AGE_INDEX])
        return (abs(age - float(test_patient_age)), t.specs[i].patient_id, t.specs[i].feature_start)

    nonrelapse.sort(key=key)
    return relapse + nonrelapse[:n_nonrelapse]


def test_subsample_has_all_relapse_plus_n_nonrelapse():
    rows = [("a", 7 * i, 0, 30 + i) for i in range(20)]
    rows += [("b", 7 * i, 1, 50) for i in range(3)]
    sub = subsample(table(rows), test_patient_age=40, n_nonrelapse=10)
    assert len(sub) == 13
    assert sum(w.label for w in sub) == 3


def test_subsample_orders_patients_by_age_distance():
    rows = [("near", i * 7, 0, 41) for i in range(2)]
    rows += [("far", i * 7, 0, 70) for i in range(2)]
    rows += [("mid", i * 7, 0, 50) for i in range(2)]
    rows += [("r", 0, 1, 60)]
    sub = subsample(table(rows), test_patient_age=40, n_nonrelapse=4)
    nonrelapse_pids = [w.patient_id for w in sub if w.label == 0]
    assert nonrelapse_pids == ["near", "near", "mid", "mid"]


def test_subsample_ties_break_by_patient_id_then_start():
    rows = [("b", 7, 0, 40), ("b", 0, 0, 40), ("a", 7, 0, 40), ("a", 0, 0, 40), ("r", 0, 1, 40)]
    sub = subsample(table(rows), test_patient_age=40, n_nonrelapse=3)
    picked = [(w.patient_id, (w.feature_start - day(0)).days) for w in sub if w.label == 0]
    assert picked == [("a", 0), ("a", 7), ("b", 0)]


def test_subsample_exhaustion_takes_all():
    sub = subsample(table([("a", 0, 0, 40), ("r", 0, 1, 40)]), test_patient_age=40, n_nonrelapse=100)
    assert len(sub) == 2


BOTH_SIDES = [("c", 0, 0, 38), ("b", 0, 0, 42), ("b", 7, 0, 42), ("a", 0, 0, 38), ("d", 0, 0, 40)]


def test_subsample_equal_distances_on_both_sides_break_by_patient_id():
    sub = subsample(table(BOTH_SIDES), test_patient_age=40, n_nonrelapse=4)
    assert [(w.patient_id, (w.feature_start - day(0)).days) for w in sub] == [
        ("d", 0),
        ("a", 0),
        ("b", 0),
        ("b", 7),
    ]


@st.composite
def subsample_cases(draw) -> tuple[WindowTable, float, int]:
    """Tables of 1-5 patients with repeated ages, ages on both sides of the
    test age, and any mix of labels, including no relapse row at all."""
    ids = draw(st.lists(st.sampled_from(["a", "b", "p2", "p10", "z"]), min_size=1, max_size=5, unique=True))
    ages = st.sampled_from([38.0, 39.5, 40.0, 40.5, 42.0, 60.0])
    rows = []
    for pid in ids:
        age = draw(ages)
        starts = draw(st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True))
        for start in starts:
            # A patient's age is usually one value; sometimes a row differs.
            row_age = draw(ages) if draw(st.integers(0, 4)) == 0 else age
            rows.append((pid, 7 * start, draw(st.sampled_from([0, 0, 1])), row_age))
    t = table(rows)
    pool = int((t.labels == 0).sum())
    n_nonrelapse = draw(st.integers(1, pool + 3))
    return t, draw(st.sampled_from([40.0, 40, 39.5, 55.0])), n_nonrelapse


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=subsample_cases())
@example(case=(table(BOTH_SIDES), 40, 3))  # no relapse rows, a pool of 5
@example(case=(table(BOTH_SIDES + [("r", 0, 1, 38)]), 40, 9))
def test_lexsort_subsample_picks_the_oracle_rows_in_order(case):
    t, test_patient_age, n_nonrelapse = case
    got = build_selection_subsample(t.values, t.labels, test_patient_age, n_nonrelapse)
    assert got.tolist() == subsample_oracle(t, test_patient_age, n_nonrelapse)


# -- select_features -----------------------------------------------------------------


def labeled_rows(rng, n: int = 40) -> tuple[np.ndarray, np.ndarray]:
    """Half relapse rows; feature 0 mirrors the label exactly, feature 1 is constant."""
    labels = (np.arange(n) < n // 2).astype(np.int64)
    matrix = rng.normal(size=(n, FEATURE_COUNT))
    matrix[:, 0] = labels
    matrix[:, 1] = 2.5
    return matrix, labels


def test_label_mirroring_feature_ranks_first(rng):
    matrix, labels = labeled_rows(rng)
    bins = fit_bins(matrix, 15)
    model = select_features(matrix, labels, bins, top=5)
    assert model.selected[0] == 0
    assert len(model.selected) == 5
    assert model.scores[0] == pytest.approx(math.log(2), abs=1e-9)


def test_top_larger_than_candidates_returns_all(rng):
    matrix, labels = labeled_rows(rng)
    bins = fit_bins(matrix, 15)
    model = select_features(matrix, labels, bins, top=10, candidates=[0, 1, 2])
    assert len(model.selected) == 3


def test_score_ties_break_by_canonical_index(rng):
    matrix, labels = labeled_rows(rng)
    matrix[:, 3] = 2.5  # another constant: MI ties at zero with feature 1
    bins = fit_bins(matrix, 15)
    model = select_features(matrix, labels, bins, top=2, candidates=[3, 1])
    assert model.selected == (1, 3)


def test_single_class_subsample_rejected(rng):
    matrix, labels = labeled_rows(rng)
    nonrelapse = labels == 0
    bins = fit_bins(matrix[nonrelapse], 15)
    with pytest.raises(ValueError, match="selection_degenerate"):
        select_features(matrix[nonrelapse], labels[nonrelapse], bins, top=5)


def test_empty_subsample_rejected(rng):
    matrix, labels = labeled_rows(rng)
    with pytest.raises(ValueError, match="selection_degenerate: empty"):
        select_features(matrix[:0], labels[:0], fit_bins(matrix, 15), top=5)


def test_selection_is_deterministic(rng):
    matrix, labels = labeled_rows(rng)
    bins = fit_bins(matrix, 15)
    a = select_features(matrix, labels, bins, top=5)
    b = select_features(matrix, labels, bins, top=5)
    assert a.selected == b.selected
    np.testing.assert_array_equal(a.scores, b.scores)
