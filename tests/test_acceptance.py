"""Acceptance gate: one test per criterion, each printing a PASS line.

Criterion 9 runs only when a converted real dataset is supplied via the
RELAPSEKIT_DATASET_DIR environment variable (directory holding the four
interchange CSV files); it is skipped otherwise.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter

import numpy as np
import pytest

from conftest import day, make_constant_dataset, make_patient
from relapsekit.cli import main
from relapsekit.dataio import load_dataset
from relapsekit.evaluate import ExperimentConfig, run_grid, run_lopo
from relapsekit.features import extract_all
from relapsekit.metrics import f2_from_counts, f2_score
from relapsekit.model import FEATURE_INDEX, SIGNALS, canonical_feature_names
from relapsekit.classifiers import nb_fit, nb_predict_many
from relapsekit.synth import ProdromalSpec, SynthConfig, generate
from relapsekit.templates import (
    compute_window_templates,
    normalize_template,
    template_distance,
)
from relapsekit.transform import mutual_information
from relapsekit.windowing import (
    EXCLUDED_COOLOFF,
    WindowingConfig,
    enumerate_windows,
    evaluable_windows,
)

def report(criterion: int, name: str) -> None:
    print(f"ACCEPTANCE criterion {criterion} ({name}): PASS")


# -- criterion 1: metric correctness ------------------------------------------------


def test_criterion_1_metric_correctness():
    started = time.monotonic()
    assert f2_from_counts(5, 0, 0) == (1.0, 1.0, 1.0)
    assert f2_from_counts(0, 3, 2) == (0.0, 0.0, 0.0)
    assert f2_score(0.22, 0.086) == pytest.approx(0.0979, abs=1e-4)
    # the same value through integer counts: 473/2150 = 0.22, 473/5500 = 0.086
    precision, recall, f2 = f2_from_counts(473, 1677, 5027)
    assert precision == pytest.approx(0.22, abs=1e-12)
    assert recall == pytest.approx(0.086, abs=1e-12)
    assert f2 == pytest.approx(0.0979, abs=1e-4)
    assert time.monotonic() - started < 1.0
    report(1, "metric correctness")


# -- criterion 2: NB oracle equivalence ----------------------------------------------


def nb_oracle_label(X: list[list[int]], y: list[int], x: list[int], alpha: float, k: int) -> int:
    """Smoothed-posterior recomputation with dict counting, pure python."""
    n = len(y)
    counts: dict[int, list[Counter]] = {c: [Counter() for _ in x] for c in (0, 1)}
    class_n = Counter(y)
    for row, label in zip(X, y):
        for f, v in enumerate(row):
            counts[label][f][v] += 1
    log_joint = {}
    for c in (0, 1):
        total = math.log(class_n[c] / n)
        for f, v in enumerate(x):
            total += math.log((counts[c][f][v] + alpha) / (class_n[c] + k * alpha))
        log_joint[c] = total
    return 1 if log_joint[1] > log_joint[0] else 0


def test_criterion_2_nb_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(20240201)
    datasets = 0
    checked = 0
    while datasets < 200:
        n = int(rng.integers(4, 201))
        m = int(rng.integers(1, 7))
        X = rng.integers(0, 15, size=(n, m))
        y = rng.integers(0, 2, size=n)
        if len(np.unique(y)) < 2:
            continue
        datasets += 1
        model = nb_fit(X, y, alpha=1.0, n_categories=15)
        queries = np.vstack([X[: min(10, n)], rng.integers(0, 15, size=(10, m))])
        for q in queries:
            (got,), _ = nb_predict_many(model, q[None, :])
            want = nb_oracle_label(X.tolist(), y.tolist(), q.tolist(), alpha=1.0, k=15)
            assert got == want
            checked += 1
    assert datasets == 200 and checked >= 200 * 10
    assert time.monotonic() - started < 10.0
    report(2, "NB oracle equivalence")


# -- criterion 3: MI oracle equivalence ----------------------------------------------


def mi_oracle(x: list[int], y: list[int]) -> float:
    n = len(x)
    joint = Counter(zip(x, y))
    px = Counter(x)
    py = Counter(y)
    return sum(
        (c / n) * math.log((c / n) / ((px[a] / n) * (py[b] / n))) for (a, b), c in joint.items()
    )


def entropy(values: list[int]) -> float:
    n = len(values)
    return -sum((c / n) * math.log(c / n) for c in Counter(values).values())


def test_criterion_3_mi_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(20240301)
    for _ in range(500):
        n = int(rng.integers(1, 150))
        x = rng.integers(0, int(rng.integers(2, 16)), size=n)
        y = rng.integers(0, 2, size=n)
        got = mutual_information(x, y)
        assert got == pytest.approx(mi_oracle(x.tolist(), y.tolist()), abs=1e-12)
        assert got >= 0.0
        assert got <= min(entropy(x.tolist()), entropy(y.tolist())) + 1e-12
    assert time.monotonic() - started < 10.0
    report(3, "MI oracle equivalence")


# -- criterion 4: windowing fixture --------------------------------------------------


def test_criterion_4_windowing_fixture():
    started = time.monotonic()
    patient = make_patient(n_days=120, relapse_days=(70,))
    coverage = {day(k) for k in range(120)}
    windows = enumerate_windows(patient, patient.relapse_dates, coverage, WindowingConfig())

    emitted = evaluable_windows(windows)
    emitted_starts = [(w.feature_start - day(0)).days for w in emitted]
    assert emitted_starts == [0, 7, 14, 21, 28, 35, 42]
    assert [w.label for w in emitted] == [0, 0, 0, 0, 0, 0, 1]
    cooled = [(w.feature_start - day(0)).days for w in windows if w.exclusion == EXCLUDED_COOLOFF]
    assert cooled == [49, 56, 63, 70, 77, 84]
    # the cool-off gap: next permissible start is day 105 >= 76 + 28 = 104,
    # whose prediction window would overrun day 119, so nothing follows
    relapse_window = emitted[-1]
    assert (relapse_window.predict_start - day(0)).days == 70
    assert (relapse_window.predict_end - day(0)).days == 76
    assert time.monotonic() - started < 1.0
    report(4, "windowing fixture")


# -- criterion 5: feature inventory ---------------------------------------------------


def test_criterion_5_feature_inventory():
    names = canonical_feature_names()
    assert len(names) == 100
    for signal in SIGNALS:
        assert sum(1 for n in names if n.startswith(signal.value + "_")) == 13
    assert sum(1 for n in names if n.startswith("ema_")) == 20
    assert names[-2:] == ("age", "education_years")

    patient = make_patient(n_days=42)
    ds = make_constant_dataset([patient], value=5.0)
    fw = extract_all(ds, WindowingConfig())[1]
    expected = {
        "call_duration_mdt_mean": 5.0,
        "call_duration_mdt_std": 0.0,
        "call_duration_mdt_max": 5.0,
        "call_duration_mdt_range": 0.0,
        "call_duration_mdt_skewness": 0.0,
        "call_duration_mdt_kurtosis": 0.0,
        "call_duration_ddt_mean": 0.0,
        "call_duration_max_diff": 0.0,
        "call_duration_dist_mdt": 0.0,
        "call_duration_wdist_mdt": 0.0,
        "call_duration_dist_mxdt": 0.0,
        "call_duration_daily_mean": 5.0,
        "call_duration_daily_std": 0.0,
    }
    for name, value in expected.items():
        assert fw.values[FEATURE_INDEX[name]] == value, name
    report(5, "feature inventory")


# -- criterion 6: template property suite ---------------------------------------------


def test_criterion_6_template_property_suite():
    started = time.monotonic()
    rng = np.random.default_rng(20240601)
    violations = 0
    for _ in range(1000):
        n_days = int(rng.integers(0, 29))
        daily = np.empty((n_days, 24))
        for d in range(n_days):
            daily[d] = rng.gamma(2.0, 2.0, size=24)
            daily[d, rng.random(24) < rng.uniform(0.0, 0.6)] = np.nan
        wt = compute_window_templates(daily)

        present = ~np.isnan(wt.mdt)
        if not (wt.mxdt[present] >= wt.mdt[present]).all():
            violations += 1
        if not (wt.mdt[present] >= 0).all() or not (wt.ddt[present] >= 0).all():
            violations += 1

        norm = normalize_template(wt.mdt)
        pn = ~np.isnan(norm)
        if pn.any() and not ((norm[pn] >= 0).all() and (norm[pn] <= 1).all()):
            violations += 1

        other = normalize_template(rng.gamma(2.0, 2.0, size=24))
        d_ab = template_distance(norm, other)
        d_ba = template_distance(other, norm)
        if not (math.isnan(d_ab) and math.isnan(d_ba)) and d_ab != d_ba:
            violations += 1
        d_self = template_distance(norm, norm)
        if pn.any() and d_self != 0.0:
            violations += 1

        # distance features invariant under positive scaling of the window
        if n_days:
            c = float(rng.uniform(0.2, 8.0))
            ws = compute_window_templates(daily * c)
            norm_scaled = normalize_template(ws.mdt)
            d_scaled = template_distance(norm_scaled, other)
            if not (math.isnan(d_ab) and math.isnan(d_scaled)):
                if abs(d_scaled - d_ab) > 1e-9 * max(1.0, abs(d_ab)):
                    violations += 1

    assert violations == 0
    assert time.monotonic() - started < 30.0
    report(6, "template property suite")


# -- criterion 7: end-to-end synthetic power check -------------------------------------


def test_criterion_7_synthetic_power_check():
    started = time.monotonic()
    cohort = SynthConfig(patient_count=40, days_per_patient=180, seed=2024)
    assert cohort.prodrome.magnitude == 3.0 and len(cohort.prodrome.signals) == 2
    ds = generate(cohort)

    nb = run_lopo(ds, ExperimentConfig(seed=5))
    baseline = run_lopo(ds, ExperimentConfig(classifier="random", seed=5))
    assert baseline.config["baseline_runs"] == 1000
    threshold = baseline.f2 + 2.0 * baseline.metric_std["f2"]
    assert nb.f2 > threshold, f"NB f2 {nb.f2} vs baseline threshold {threshold}"

    null_cfg = SynthConfig(
        patient_count=40, days_per_patient=180, seed=2024, prodrome=ProdromalSpec(magnitude=0.0)
    )
    ds_null = generate(null_cfg)
    nb_null = run_lopo(ds_null, ExperimentConfig(seed=5))
    base_null = run_lopo(ds_null, ExperimentConfig(classifier="random", seed=5))
    lo = base_null.f2 - 3.0 * base_null.metric_std["f2"]
    hi = base_null.f2 + 3.0 * base_null.metric_std["f2"]
    assert lo <= nb_null.f2 <= hi, f"null NB f2 {nb_null.f2} outside [{lo}, {hi}]"

    assert time.monotonic() - started < 300.0
    report(7, "end-to-end synthetic power check")


# -- criterion 8: determinism -----------------------------------------------------------


def test_criterion_8_determinism(tmp_path, capsys):
    for name in ("a", "b"):
        code = main(
            ["synth", "--patients", "6", "--days", "90", "--seed", "21", "--out", str(tmp_path / name)]
        )
        assert code == 0
    for filename in ("sensors.csv", "ema.csv", "patients.csv", "relapses.csv"):
        assert (tmp_path / "a" / filename).read_bytes() == (tmp_path / "b" / filename).read_bytes()

    outputs = {}
    for run, threads in (("x", "1"), ("y", "1"), ("z", "2")):
        metrics = tmp_path / f"{run}.json"
        predictions = tmp_path / f"{run}.csv"
        code = main(
            [
                "evaluate",
                "--data",
                str(tmp_path / "a"),
                "--seed",
                "9",
                "--threads",
                threads,
                "--metrics",
                str(metrics),
                "--predictions",
                str(predictions),
            ]
        )
        assert code == 0
        outputs[run] = (metrics.read_bytes(), predictions.read_bytes())
    capsys.readouterr()
    assert outputs["x"] == outputs["y"]  # same seed -> byte-identical outputs
    assert outputs["x"][0] == outputs["z"][0]  # thread count -> identical metrics
    assert outputs["x"][1] == outputs["z"][1]
    report(8, "determinism")


# -- criterion 9: dataset-conditional (non-blocking) --------------------------------------


DATASET_DIR = os.environ.get("RELAPSEKIT_DATASET_DIR")


@pytest.mark.skipif(
    not DATASET_DIR, reason="set RELAPSEKIT_DATASET_DIR to a converted CrossCheck dataset"
)
def test_criterion_9_real_dataset_bands():
    base = DATASET_DIR
    ds = load_dataset(
        os.path.join(base, "sensors.csv"),
        os.path.join(base, "ema.csv"),
        os.path.join(base, "patients.csv"),
        os.path.join(base, "relapses.csv"),
    )
    windows = extract_all(ds, WindowingConfig())
    total = len(windows)
    relapse = sum(w.label for w in windows)
    assert 2386 * 0.85 <= total <= 2386 * 1.15
    assert 19 <= relapse <= 27

    reports = run_grid("compare-classifiers", ds, ExperimentConfig(seed=0), threads=os.cpu_count() or 1)
    by_arm = {r.arm: r for r in reports}
    nb = by_arm["nb"]
    baseline = by_arm["random"]
    assert 0.04 <= nb.f2 <= 0.13
    assert nb.f2 > baseline.f2
    assert nb.f2 == max(r.f2 for r in reports if r.arm != "random")
    report(9, "dataset-conditional bands")
