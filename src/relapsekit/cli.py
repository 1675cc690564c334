"""Command-line entry point.

Subcommands: `synth` generates a cohort as the four interchange files;
`features` dumps the feature matrix and the window exclusion log;
`evaluate` runs leave-one-patient-out evaluation with one classifier;
`compare-classifiers`, `ablate-modality`, and `ablate-selection` run the
experiment grids. One `--seed` flag controls all randomness. Exit codes:
0 success, 1 validation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Iterator

from .dataio import (
    EMA_FILE,
    PATIENTS_FILE,
    RELAPSES_FILE,
    SENSORS_FILE,
    IngestError,
    load_dataset,
    write_exclusions,
    write_feature_matrix,
    write_metrics,
    write_predictions,
)
from .evaluate import CLASSIFIER_KINDS, GRIDS, EvalReport, ExperimentConfig, run_grid, run_lopo
from .features import extract_all, extract_cohort
from .model import SIGNALS, Signal
from .synth import ProdromalSpec, SynthConfig, generate
from .windowing import WindowingConfig

logger = logging.getLogger(__name__)


def _data_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("input data")
    group.add_argument("--data", type=Path, default=None, help="directory holding the four CSV files")
    group.add_argument("--sensors", type=Path, default=None, help="sensors.csv path")
    group.add_argument("--ema", type=Path, default=None, help="ema.csv path")
    group.add_argument("--patients", type=Path, default=None, help="patients.csv path")
    group.add_argument("--relapses", type=Path, default=None, help="relapses.csv path")


def _windowing_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("windowing")
    group.add_argument("--window-days", type=int, default=28, help="feature window length in days")
    group.add_argument("--horizon-days", type=int, default=7, help="prediction window length in days")
    group.add_argument("--stride-days", type=int, default=7, help="window grid stride in days")
    group.add_argument("--cooloff-days", type=int, default=28, help="gap after a relapse window")
    group.add_argument(
        "--min-days-with-data", type=int, default=7, help="minimum feature days with sensor data"
    )


def _pipeline_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("pipeline")
    group.add_argument("--bins", type=int, default=15, help="categories per feature")
    group.add_argument("--selection-n", type=int, default=100, help="non-relapse windows in the selection subsample")
    group.add_argument("--selection-m", type=int, default=5, help="features kept by selection")
    group.add_argument("--no-selection", action="store_true", help="disable feature selection")
    group.add_argument("--no-demographics", action="store_true", help="drop age/education from candidates")
    group.add_argument(
        "--modality",
        default="all",
        choices=["all", "ema"] + [s.value for s in SIGNALS],
        help="restrict candidate features to one modality",
    )
    group.add_argument("--nb-alpha", type=float, default=1.0, help="Naive Bayes smoothing")
    group.add_argument("--brf-trees", type=int, default=51, help="balanced random forest size")
    group.add_argument("--ee-bags", type=int, default=101, help="EasyEnsemble bag count")
    group.add_argument("--ee-rounds", type=int, default=10, help="boosting rounds per bag")
    group.add_argument("--iforest-trees", type=int, default=101, help="isolation forest size")
    group.add_argument("--iforest-subsample", type=int, default=256, help="isolation tree subsample")
    group.add_argument("--threshold", type=float, default=0.5, help="decision threshold for BRF/EE scores")
    group.add_argument("--baseline-runs", type=int, default=1000, help="random baseline repetitions")


def _run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        choices=[1],
        help="folds run in one thread; kept so scripts that pass --threads 1 still run",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relapsekit",
        description="Sequential relapse prediction from behavioral rhythms, EMA, and demographics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p_synth = sub.add_parser("synth", help="generate a synthetic cohort", formatter_class=fmt)
    p_synth.add_argument("--patients", type=int, default=20, help="cohort size")
    p_synth.add_argument("--days", type=int, default=120, help="observation days per patient")
    p_synth.add_argument("--relapse-fraction", type=float, default=0.5, help="fraction of patients with a relapse")
    p_synth.add_argument(
        "--shift-signals",
        default="call_duration,distance_traveled",
        help="comma-separated signals shifted before a relapse",
    )
    p_synth.add_argument("--shift-magnitude", type=float, default=3.0, help="pre-relapse shift in noise-std units")
    p_synth.add_argument("--onset-days", type=int, default=21, help="shift onset before the relapse date")
    p_synth.add_argument("--peak-shift", type=float, default=0.0, help="pre-relapse rhythm peak shift in hours")
    p_synth.add_argument("--ema-per-week", type=float, default=3.0, help="expected EMA responses per week")
    p_synth.add_argument("--missing-rate", type=float, default=0.1, help="hourly sample drop probability")
    p_synth.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    p_synth.add_argument("--out", type=Path, required=True, help="output directory for the four CSV files")

    p_feat = sub.add_parser(
        "features", help="dump the feature matrix and exclusion log", formatter_class=fmt
    )
    _data_flags(p_feat)
    _windowing_flags(p_feat)
    p_feat.add_argument("--out", type=Path, default=Path("features.csv"), help="feature matrix output")
    p_feat.add_argument(
        "--exclusions", type=Path, default=None, help="window exclusion log; None: exclusions.csv next to --out"
    )

    p_eval = sub.add_parser("evaluate", help="LOPO evaluation with one classifier", formatter_class=fmt)
    p_eval.add_argument("--classifier", default="nb", choices=CLASSIFIER_KINDS, help="model to evaluate")
    _data_flags(p_eval)
    _windowing_flags(p_eval)
    _pipeline_flags(p_eval)
    _run_flags(p_eval)
    p_eval.add_argument("--metrics", type=Path, default=Path("metrics.json"), help="metrics output")
    p_eval.add_argument(
        "--predictions", type=Path, default=Path("predictions.csv"), help="per-window predictions output"
    )

    for name, grid in GRIDS.items():
        p_exp = sub.add_parser(name, help=grid.help, formatter_class=fmt)
        _data_flags(p_exp)
        _windowing_flags(p_exp)
        _pipeline_flags(p_exp)
        _run_flags(p_exp)
        p_exp.add_argument("--metrics", type=Path, default=Path("metrics.json"), help="metrics output")
        p_exp.add_argument(
            "--predictions-dir", type=Path, default=None, help="optional per-arm prediction files"
        )

    return parser


def _resolve_paths(args: argparse.Namespace) -> tuple[Path, Path, Path, Path]:
    base = args.data
    sensors = args.sensors or (base / SENSORS_FILE if base else None)
    ema = args.ema or (base / EMA_FILE if base else None)
    patients = args.patients or (base / PATIENTS_FILE if base else None)
    relapses = args.relapses or (base / RELAPSES_FILE if base else None)
    missing = [
        name
        for name, path in [
            ("--sensors", sensors),
            ("--ema", ema),
            ("--patients", patients),
            ("--relapses", relapses),
        ]
        if path is None
    ]
    if missing:
        raise ValueError(f"missing input paths: pass --data DIR or {', '.join(missing)}")
    return sensors, ema, patients, relapses


def _load(args: argparse.Namespace):
    sensors, ema, patients, relapses = _resolve_paths(args)
    for path in (sensors, ema, patients, relapses):
        if not path.exists():
            raise ValueError(f"input file not found: {path}")
    dataset = load_dataset(sensors, ema, patients, relapses)
    print(f"ingest_excluded={len(dataset.ingest_exclusions)}")
    return dataset


@contextmanager
def _output_dirs(*dirs: Path | None) -> Iterator[None]:
    """Create missing output directories (None: no directory) before the
    inputs are read, so a bad output path fails at once, not after the run.
    If the command then fails, remove those made here that are still empty."""
    made: list[Path] = []
    try:
        for directory in filter(None, dirs):
            made += [path for path in (directory, *directory.parents) if not path.exists()]
            directory.mkdir(parents=True, exist_ok=True)
        yield
    except BaseException:
        for path in sorted(made, key=lambda path: len(path.parts), reverse=True):
            with suppress(OSError):
                path.rmdir()
        raise


def _windowing_config(args: argparse.Namespace) -> WindowingConfig:
    return WindowingConfig(
        window_days=args.window_days,
        horizon_days=args.horizon_days,
        stride_days=args.stride_days,
        cooloff_days=args.cooloff_days,
        min_days_with_data=args.min_days_with_data,
    )


def _experiment_config(args: argparse.Namespace, classifier: str = "nb") -> ExperimentConfig:
    return ExperimentConfig(
        classifier=classifier,
        windowing=_windowing_config(args),
        bins=args.bins,
        selection=not args.no_selection,
        selection_pool=args.selection_n,
        selection_top=args.selection_m,
        include_demographics=not args.no_demographics,
        modality=args.modality,
        seed=args.seed,
        nb_alpha=args.nb_alpha,
        brf_trees=args.brf_trees,
        ee_bags=args.ee_bags,
        ee_rounds=args.ee_rounds,
        iforest_trees=args.iforest_trees,
        iforest_subsample=args.iforest_subsample,
        decision_threshold=args.threshold,
        baseline_runs=args.baseline_runs,
    )


def _print_report(report: EvalReport, prefix: str = "") -> None:
    for key in ("tp", "fp", "fn", "tn"):
        value = getattr(report, key)
        print(f"{prefix}{key}={value:.6g}" if isinstance(value, float) else f"{prefix}{key}={value}")
    for key in ("precision", "recall", "f2"):
        print(f"{prefix}{key}={getattr(report, key):.6g}")
    if report.metric_std is not None:
        for key, value in sorted(report.metric_std.items()):
            print(f"{prefix}{key}_std={value:.6g}")


def _cmd_synth(args: argparse.Namespace) -> int:
    signals = tuple(Signal(s.strip()) for s in args.shift_signals.split(",") if s.strip())
    config = SynthConfig(
        patient_count=args.patients,
        days_per_patient=args.days,
        relapse_fraction=args.relapse_fraction,
        prodrome=ProdromalSpec(
            signals=signals,
            onset_days=args.onset_days,
            magnitude=args.shift_magnitude,
            peak_shift_hours=args.peak_shift,
        ),
        ema_per_week=args.ema_per_week,
        missing_rate=args.missing_rate,
        seed=args.seed,
    )
    dataset = generate(config, out_dir=args.out)
    print(f"patients={len(dataset.patients)}")
    print(f"relapses={sum(len(p.relapse_dates) for p in dataset.patients)}")
    print(f"out={args.out}")
    return 0


def _cmd_features(args: argparse.Namespace) -> int:
    config = _windowing_config(args)
    exclusions = args.exclusions or args.out.with_name("exclusions.csv")
    with _output_dirs(args.out.parent, exclusions.parent):
        table, candidates = extract_cohort(_load(args), config)
        write_feature_matrix(table, args.out)
        write_exclusions(candidates, exclusions)
    print(f"windows={len(table)}")
    print(f"relapse_windows={int(table.labels.sum())}")
    print(f"excluded={sum(1 for w in candidates if not w.evaluable)}")
    print(f"out={args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = _experiment_config(args, classifier=args.classifier)
    with _output_dirs(args.metrics.parent, args.predictions.parent):
        report = run_lopo(extract_all(_load(args), config.windowing), config)
        write_metrics(report, args.metrics)
        write_predictions(report, args.predictions)
    print(f"classifier={report.classifier}")
    print(f"windows={len(report.specs)}")
    _print_report(report)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    flags = argparse.ArgumentParser()
    _pipeline_flags(flags)
    fields = {"no_selection": "selection", "no_demographics": "include_demographics", "modality": "modality"}
    for flag, name in fields.items():
        if getattr(args, flag) != flags.get_default(flag) and all(name in arm for _, arm in GRIDS[args.command].arms):
            logger.warning("--%s is ignored by %s: every arm sets %s", flag.replace("_", "-"), args.command, name)
    config = _experiment_config(args)
    with _output_dirs(args.metrics.parent, args.predictions_dir):
        reports = run_grid(args.command, _load(args), config)
        write_metrics(reports, args.metrics)
        if args.predictions_dir is not None:
            for report in reports:
                write_predictions(report, args.predictions_dir / f"{report.arm}.csv")
    for report in reports:
        _print_report(report, prefix=f"{report.arm}.")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "features":
            return _cmd_features(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        return _cmd_experiment(args)
    except (IngestError, ValueError, OSError) as exc:  # OSError: an input or output path
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
