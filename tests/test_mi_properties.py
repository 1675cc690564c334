"""Property tests: the column-wise mutual-information core equals, bit for
bit, the per-column table computation it replaced (kept here as the oracle).

With a single label class the information is exactly 0, not a rounding
residue of the table sums."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relapsekit.transform import mutual_information, mutual_information_columns

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


def scalar_mi(x: np.ndarray, y: np.ndarray) -> float:
    """One column's plug-in MI from a table of its present levels only; 0
    when `y` has a single class."""
    n = x.size
    if np.unique(y).size == 1:
        return 0.0
    _, xi = np.unique(x, return_inverse=True)
    _, yi = np.unique(y, return_inverse=True)
    joint = np.zeros((xi.max() + 1, yi.max() + 1))
    np.add.at(joint, (xi, yi), 1.0)
    joint /= n
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0
    outer = np.outer(px, py)
    mi = float((joint[nz] * np.log(joint[nz] / outer[nz])).sum())
    return max(mi, 0.0)


@st.composite
def code_matrices(draw) -> tuple[np.ndarray, np.ndarray]:
    """Binned columns with 1 to 15 levels and labels with every class present.

    Few rows against many levels leave levels absent; one column may be
    constant; the rarest class may be a single row.
    """
    n_bins = draw(st.integers(1, 15))
    n_classes = draw(st.integers(1, 3))
    n = draw(st.integers(n_classes, 60))
    n_cols = draw(st.integers(1, 6))
    cells = draw(st.lists(st.integers(0, n_bins - 1), min_size=n * n_cols, max_size=n * n_cols))
    codes = np.array(cells, dtype=np.int64).reshape(n, n_cols)
    if draw(st.booleans()):
        codes[:, draw(st.integers(0, n_cols - 1))] = draw(st.integers(0, n_bins - 1))
    labels = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)), dtype=np.int64)
    order = draw(st.permutations(range(n)))
    labels[list(order[:n_classes])] = np.arange(n_classes)
    return codes, labels


def single_relapse_row() -> tuple[np.ndarray, np.ndarray]:
    codes = np.array([[0, 3], [14, 3], [7, 3], [0, 3], [14, 3]])
    return codes, np.array([0, 0, 1, 0, 0])


@SETTINGS
@given(code_matrices())
@example(single_relapse_row())
@example((np.zeros((1, 1), dtype=np.int64), np.zeros(1, dtype=np.int64)))
def test_mi_equals_per_column_table_exactly(case):
    codes, labels = case
    want = [scalar_mi(codes[:, f], labels) for f in range(codes.shape[1])]
    assert mutual_information_columns(codes, labels).tolist() == want
    # The public one-column call, on level values that np.unique must rank.
    assert [mutual_information(codes[:, f] * 10 - 7, labels) for f in range(codes.shape[1])] == want


@SETTINGS
@given(code_matrices(), st.integers(-3, 3))
def test_single_class_labels_score_exactly_zero(case, label):
    codes, _ = case
    labels = np.full(codes.shape[0], label)
    assert mutual_information_columns(codes, np.maximum(labels, 0)).tolist() == [0.0] * codes.shape[1]
    assert [mutual_information(codes[:, f], labels) for f in range(codes.shape[1])] == [0.0] * codes.shape[1]
