"""In-process tracing of one relapsekit CLI run, from outside the package.

`Tracer.install()` replaces each layer's public functions with timing and
counting wrappers. Each wrapper goes on the module attribute the caller
looks up (evaluate.py calls `fit_bins` through its own namespace, so the
wrapper goes on `relapsekit.evaluate.fit_bins`), and `Tracer.restore()`
puts the originals back. Spans are kept in memory: name, start, end,
parent span and run id. `per_layer()` turns them into the per-layer
metrics; `document()` is the trace file.

High-frequency calls (template builds, mutual information) are counted
but not timed, so tracing stays cheap.

BENCHMARK.json lists the per-layer metrics that every workload exercises.
The times of the classifier kinds other than nb, of the random baseline
and of each experiment arm exist on some workloads only; they go to the
results document and the trace file.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from pathlib import Path

import numpy as np

import relapsekit.classifiers
import relapsekit.cli
import relapsekit.evaluate
import relapsekit.features
import relapsekit.synth
import relapsekit.transform
from relapsekit.windowing import EXCLUDED_COOLOFF, EXCLUDED_INSUFFICIENT_DATA

from checks import data_rows

CLASSIFIER_KINDS = ("nb", "brf", "ee", "iforest")
EXCLUSION_REASONS = (EXCLUDED_INSUFFICIENT_DATA, EXCLUDED_COOLOFF)

# Span names grouped by the layer they are charged to in the shares table.
LAYERS = {
    "dataio": ("dataio.load_dataset", "dataio.write_outputs"),
    "features": ("features.extract_all",),
    "transform": (
        "transform.fit_bins",
        "transform.apply_bins",
        "transform.build_selection_subsample",
        "transform.select_features",
    ),
    "classifiers": tuple(f"classifiers.{k}.{op}" for k in CLASSIFIER_KINDS for op in ("fit", "predict"))
    + ("classifiers.random.baseline",),
}


class Tracer:
    """Spans and counters of the traced CLI runs in this process."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.counts: Counter[str] = Counter()
        self.sensor_paths: list[Path] = []
        self._fit_inputs: list[np.ndarray] = []
        self._stack: list[int] = []
        self.run_id = 0
        self._originals: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str, attrs: dict | None = None) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter() - self.t0,
            "end": None,
        }
        if attrs:
            span["attrs"] = attrs
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self.t0
        self._stack.pop()

    def run_cli(self, argv: list[str]) -> int:
        """One traced `relapsekit.cli.main(argv)` call under a new run id."""
        self.run_id += 1
        span = self._open("cli.main", {"argv": argv[0]})
        try:
            return relapsekit.cli.main(argv)
        finally:
            self._close(span)

    def _timed(self, fn, name, attrs=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, attrs(args, kwargs) if attrs else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after:
                after(result, args, kwargs)
            return result

        return wrapper

    def _counted(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module, attr: str, wrapper) -> None:
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    # -- hooks -----------------------------------------------------------

    def _after_load(self, result, args, kwargs) -> None:
        self.sensor_paths.append(Path(args[0]))

    def _after_enumerate(self, result, args, kwargs) -> None:
        self.counts["windowing.candidate_windows"] += len(result)
        for spec in result:
            if spec.exclusion is None:
                self.counts["windowing.evaluable_windows"] += 1
            else:
                self.counts[f"windowing.excluded_windows.{spec.exclusion}"] += 1

    def _after_extract(self, result, args, kwargs) -> None:
        self.counts["features.windows"] += len(result)

    def _lopo_attrs(self, args, kwargs) -> dict:
        config = kwargs["config"] if "config" in kwargs else args[1]
        return {"arm": kwargs.get("arm") or config.classifier, "classifier": config.classifier}

    def _after_lopo(self, report, args, kwargs) -> None:
        if report.classifier == "random":
            return
        self.counts["evaluate.folds"] += len(report.folds)
        self.counts["evaluate.single_class_folds"] += sum(
            f.warning == "single_class_training" for f in report.folds
        )

    def _fit_attrs(self, kind: str):
        def attrs(args, kwargs) -> None:
            self.counts[f"classifiers.{kind}.fit_calls"] += 1
            # Keep a reference only; distinct rows are counted after the run
            # so the counting cost stays out of every span.
            self._fit_inputs.append(args[0])

        return attrs

    # -- install / restore -----------------------------------------------

    def install(self) -> None:
        cli, ev, feat = relapsekit.cli, relapsekit.evaluate, relapsekit.features
        clf = relapsekit.classifiers
        # Each target is the namespace its caller looks the name up in.
        self._patch(cli, "generate", self._timed(cli.generate, "synth.generate"))
        self._patch(
            relapsekit.synth,
            "write_dataset",
            self._timed(relapsekit.synth.write_dataset, "dataio.write_dataset"),
        )
        self._patch(
            cli, "load_dataset", self._timed(cli.load_dataset, "dataio.load_dataset", after=self._after_load)
        )
        self._patch(cli, "write_metrics", self._timed(cli.write_metrics, "dataio.write_outputs"))
        self._patch(cli, "write_predictions", self._timed(cli.write_predictions, "dataio.write_outputs"))
        self._patch(
            feat,
            "enumerate_windows",
            self._timed(feat.enumerate_windows, "windowing.enumerate_windows", after=self._after_enumerate),
        )
        self._patch(ev, "extract_all", self._timed(ev.extract_all, "features.extract_all", after=self._after_extract))
        self._patch(
            feat, "window_templates_for", self._timed(feat.window_templates_for, "features.window_templates_for")
        )
        self._patch(
            feat,
            "compute_window_templates",
            self._counted(feat.compute_window_templates, "templates.compute_window_templates_calls"),
        )
        for name in ("fit_bins", "apply_bins", "build_selection_subsample", "select_features"):
            self._patch(ev, name, self._timed(getattr(ev, name), f"transform.{name}"))
        self._patch(
            relapsekit.transform,
            "mutual_information",
            self._counted(relapsekit.transform.mutual_information, "transform.mutual_information_calls"),
        )
        for kind in CLASSIFIER_KINDS:
            fit = getattr(clf, f"{kind}_fit")
            predict = getattr(clf, f"{kind}_predict_many")
            self._patch(clf, f"{kind}_fit", self._timed(fit, f"classifiers.{kind}.fit", attrs=self._fit_attrs(kind)))
            self._patch(clf, f"{kind}_predict_many", self._timed(predict, f"classifiers.{kind}.predict"))
        self._patch(clf, "baseline_over_runs", self._timed(clf.baseline_over_runs, "classifiers.random.baseline"))
        lopo = self._timed(ev.run_lopo, "evaluate.run_lopo", attrs=self._lopo_attrs, after=self._after_lopo)
        self._patch(ev, "run_lopo", lopo)
        self._patch(cli, "run_lopo", lopo)

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    # -- derived metrics -------------------------------------------------

    def _duration(self, span: dict) -> float:
        return span["end"] - span["start"]

    def _children(self) -> dict[int, list[dict]]:
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        return children

    def self_time(self, span: dict, children: dict[int, list[dict]]) -> float:
        """Duration minus the part of it that child spans cover."""
        covered = 0.0
        reach = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self._duration(span) - covered

    def total(self, *names: str) -> float:
        return sum(self._duration(s) for s in self.spans if s["name"] in names)

    def per_layer(self, command_run: int, untraced_wall_s: float) -> dict[str, float]:
        """Every per-layer metric; `command_run` is the run id of the workload command."""
        children = self._children()

        def self_total(name: str, run: int | None = None) -> float:
            return sum(
                self.self_time(s, children)
                for s in self.spans
                if s["name"] == name and (run is None or s["run"] == run)
            )

        main_s = sum(self._duration(s) for s in self.spans if s["name"] == "cli.main" and s["run"] == command_run)
        load_s = self.total("dataio.load_dataset")
        sensor_rows = sum(data_rows(p) for p in self.sensor_paths)
        windows = self.counts["features.windows"]
        train_rows = sum(int(x.shape[0]) for x in self._fit_inputs)
        distinct_rows = sum(int(np.unique(x, axis=0).shape[0]) for x in self._fit_inputs)

        metrics = {
            # In-memory generation only: writing the CSVs is dataio.write_dataset_s.
            "synth.generate_s": self_total("synth.generate"),
            "dataio.write_dataset_s": self.total("dataio.write_dataset"),
            "dataio.load_dataset_s": load_s,
            "dataio.sensor_rows": sensor_rows,
            "dataio.sensor_rows_per_s": sensor_rows / load_s if load_s else 0.0,
            "dataio.write_outputs_s": self.total("dataio.write_outputs"),
            "windowing.enumerate_windows_s": self.total("windowing.enumerate_windows"),
            "windowing.candidate_windows": self.counts["windowing.candidate_windows"],
            "windowing.evaluable_windows": self.counts["windowing.evaluable_windows"],
            "features.extract_all_s": self.total("features.extract_all"),
            "features.windows": windows,
            "features.window_templates_for_s": self.total("features.window_templates_for"),
            "templates.compute_window_templates_calls": self.counts["templates.compute_window_templates_calls"],
            "templates.builds_per_window": (
                self.counts["templates.compute_window_templates_calls"] / windows if windows else 0.0
            ),
            "transform.fit_bins_s": self.total("transform.fit_bins"),
            "transform.fit_bins_calls": sum(s["name"] == "transform.fit_bins" for s in self.spans),
            "transform.apply_bins_s": self.total("transform.apply_bins"),
            "transform.build_selection_subsample_s": self.total("transform.build_selection_subsample"),
            "transform.select_features_s": self.total("transform.select_features"),
            "transform.mutual_information_calls": self.counts["transform.mutual_information_calls"],
            "classifiers.fit_s": self.total(*(f"classifiers.{k}.fit" for k in CLASSIFIER_KINDS)),
            "classifiers.predict_s": self.total(*(f"classifiers.{k}.predict" for k in CLASSIFIER_KINDS)),
            "classifiers.random.baseline_s": self.total("classifiers.random.baseline"),
            "classifiers.train_rows": train_rows,
            "classifiers.distinct_train_rows": distinct_rows,
            "classifiers.distinct_row_ratio": distinct_rows / train_rows if train_rows else 0.0,
            "evaluate.run_lopo_s": self.total("evaluate.run_lopo"),
            "evaluate.folds": self.counts["evaluate.folds"],
            "evaluate.single_class_folds": self.counts["evaluate.single_class_folds"],
            "evaluate.self_s": self_total("evaluate.run_lopo"),
            "cli.main_s": main_s,
            "cli.self_s": self_total("cli.main", command_run),
            "trace.overhead_s": main_s - untraced_wall_s,
        }
        for reason in EXCLUSION_REASONS:
            metrics[f"windowing.excluded_windows.{reason}"] = self.counts[f"windowing.excluded_windows.{reason}"]
        for kind in CLASSIFIER_KINDS:
            metrics[f"classifiers.{kind}.fit_s"] = self.total(f"classifiers.{kind}.fit")
            metrics[f"classifiers.{kind}.predict_s"] = self.total(f"classifiers.{kind}.predict")
            metrics[f"classifiers.{kind}.fit_calls"] = self.counts[f"classifiers.{kind}.fit_calls"]
        for arm in sorted({s["attrs"]["arm"] for s in self.spans if s["name"] == "evaluate.run_lopo"}):
            metrics[f"evaluate.{arm}.run_lopo_s"] = sum(
                self._duration(s)
                for s in self.spans
                if s["name"] == "evaluate.run_lopo" and s["attrs"]["arm"] == arm
            )
        return metrics

    def layer_shares(self, command_run: int) -> dict[str, float]:
        """Share of the command's `cli.main` span charged to each layer."""
        main = [s for s in self.spans if s["name"] == "cli.main" and s["run"] == command_run]
        main_s = sum(self._duration(s) for s in main)
        children = self._children()
        shares = {
            layer: sum(self._duration(s) for s in self.spans if s["name"] in names and s["run"] == command_run)
            / main_s
            for layer, names in LAYERS.items()
        }
        shares["evaluate.self"] = (
            sum(self.self_time(s, children) for s in self.spans if s["name"] == "evaluate.run_lopo") / main_s
        )
        shares["cli.self"] = sum(self.self_time(s, children) for s in main) / main_s
        return shares

    def document(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

