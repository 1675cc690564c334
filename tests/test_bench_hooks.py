"""The benchmark's tracing wrappers attach to, and detach from, real names.

`bench/tracing.py` replaces public functions of `relapsekit` by attribute
name. Renaming one in `src/` breaks the traced benchmark run; this test
breaks with it. So does a grid that stops calling `run_lopo` once per arm,
or stops calling the per-fold transform functions through `evaluate`'s
namespace, or extraction that stops building templates through the
`features` namespace, or a parser that rejects the argv `bench/run.py`
passes.
"""

from __future__ import annotations

import sys
from pathlib import Path

from relapsekit.cli import build_parser
from relapsekit.evaluate import ExperimentConfig, run_grid
from relapsekit.synth import SynthConfig, generate

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_restore_puts_back_every_patched_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        patched = list(tracer._originals)
        assert patched
        for module, attr, original in patched:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        tracer.restore()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_tracer_sees_one_lopo_per_arm_and_one_bin_fit_per_fold(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    cohort = generate(SynthConfig(patient_count=4, days_per_patient=80, seed=2))
    tracer = Tracer()
    tracer.install()
    try:
        reports = run_grid("ablate-modality", cohort, ExperimentConfig(seed=1))
    finally:
        tracer.restore()
    names = [s["name"] for s in tracer.spans]
    fitted_folds = sum(f.warning is None for f in reports[0].folds)
    assert fitted_folds > 0
    assert names.count("evaluate.run_lopo") == len(reports) == 7
    assert names.count("transform.fit_bins") == fitted_folds
    assert names.count("transform.build_selection_subsample") == fitted_folds
    assert names.count("transform.select_features") == fitted_folds
    # Each plan bins its subsample; each arm bins its chosen columns.
    assert names.count("transform.apply_bins") == fitted_folds * (1 + len(reports))
    # Extraction builds its templates through the `features` namespace.
    assert names.count("features.extract_all") == 1
    assert names.count("features.window_templates_for") > 0
    assert tracer.counts["templates.compute_window_templates_calls"] > 0


def test_parser_accepts_every_benchmark_argv(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)  # run.py sets it
    from run import WORKLOADS, command_argv, synth_argv

    parser = build_parser()
    for name, wl in WORKLOADS.items():
        cohort = tmp_path / name / "cohort"
        synth = parser.parse_args(synth_argv(wl, cohort, 7))
        assert (synth.command, synth.seed, synth.out) == ("synth", 7, cohort)
        run = parser.parse_args(command_argv(wl, cohort, tmp_path / name / "out", 7))
        assert (run.command, run.seed, run.data) == (wl.command[0], 7, cohort)
