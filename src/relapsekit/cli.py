"""Command-line entry point.

Subcommands: `synth` generates a cohort as the four interchange files;
`features` dumps the feature matrix and the window exclusion log;
`evaluate` runs leave-one-patient-out evaluation with one classifier;
`compare-classifiers`, `ablate-modality`, and `ablate-selection` run the
experiment grids. One `--seed` flag controls all randomness. Exit codes:
0 success, 1 validation error, 2 usage error.

Settings flags take their types and defaults from the config classes,
so each default is written once, in its dataclass.
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Iterator, TypeVar

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
from .model import MODALITIES, SIGNALS, Signal
from .synth import ProdromalSpec, SynthConfig, generate
from .windowing import WindowingConfig

logger = logging.getLogger(__name__)

T = TypeVar("T")


# Settings flags, one table per config class: (flag, field, help). Each
# flag takes its type and default from the field of a default instance of
# that class, and the field name as its dest. A bool field is true by
# default, and its `--no-*` switch turns it off.
Flags = tuple[tuple[str, str, str], ...]

WINDOWING_FLAGS: Flags = (
    ("--window-days", "window_days", "feature window length in days"),
    ("--horizon-days", "horizon_days", "prediction window length in days"),
    ("--stride-days", "stride_days", "window grid stride in days"),
    ("--cooloff-days", "cooloff_days", "gap after a relapse window"),
    ("--min-days-with-data", "min_days_with_data", "minimum feature days with sensor data"),
)
# `--classifier` is evaluate's alone; a grid's arms set the classifier or keep its default.
EXPERIMENT_FLAGS: Flags = (
    ("--classifier", "classifier", "model to evaluate"),
    ("--bins", "bins", "categories per feature"),
    ("--selection-n", "selection_pool", "non-relapse windows in the selection subsample"),
    ("--selection-m", "selection_top", "features kept by selection"),
    ("--no-selection", "selection", "disable feature selection"),
    ("--no-demographics", "include_demographics", "drop age/education from candidates"),
    ("--modality", "modality", "restrict candidate features to one modality"),
    ("--nb-alpha", "nb_alpha", "Naive Bayes smoothing"),
    ("--brf-trees", "brf_trees", "balanced random forest size"),
    ("--ee-bags", "ee_bags", "EasyEnsemble bag count"),
    ("--ee-rounds", "ee_rounds", "boosting rounds per bag"),
    ("--iforest-trees", "iforest_trees", "isolation forest size"),
    ("--iforest-subsample", "iforest_subsample", "isolation tree subsample"),
    ("--threshold", "decision_threshold", "decision threshold for BRF/EE scores"),
    ("--baseline-runs", "baseline_runs", "random baseline repetitions"),
    ("--seed", "seed", "seed for all randomness"),
)
SYNTH_FLAGS: Flags = (
    ("--patients", "patient_count", "cohort size"),
    ("--days", "days_per_patient", "observation days per patient"),
    ("--relapse-fraction", "relapse_fraction", "fraction of patients with a relapse"),
    ("--ema-per-week", "ema_per_week", "expected EMA responses per week"),
    ("--missing-rate", "missing_rate", "hourly sample drop probability"),
    ("--seed", "seed", "seed for all randomness"),
)
PRODROME_FLAGS: Flags = (
    ("--shift-magnitude", "magnitude", "pre-relapse shift in noise-std units"),
    ("--onset-days", "onset_days", "shift onset before the relapse date"),
    ("--peak-shift", "peak_shift_hours", "pre-relapse rhythm peak shift in hours"),
)
CHOICES = {"classifier": CLASSIFIER_KINDS, "modality": MODALITIES}
INPUT_FILES = {"sensors": SENSORS_FILE, "ema": EMA_FILE, "patients": PATIENTS_FILE, "relapses": RELAPSES_FILE}


def _add_flags(parser: argparse.ArgumentParser | argparse._ArgumentGroup, defaults: object, rows: Flags) -> None:
    for flag, name, help in rows:
        default = getattr(defaults, name)
        if isinstance(default, bool):
            parser.add_argument(flag, dest=name, action="store_false", help=help)
        elif name in CHOICES:
            parser.add_argument(flag, dest=name, default=default, choices=CHOICES[name], help=help)
        else:
            metavar = flag.removeprefix("--").upper().replace("-", "_")
            parser.add_argument(flag, dest=name, type=type(default), default=default, metavar=metavar, help=help)


def _config(cls: type[T], args: argparse.Namespace, rows: Flags, **nested: object) -> T:
    """A `cls` with the fields `rows` set read from `args`, and `nested`."""
    return cls(**{name: getattr(args, name) for _, name, _ in rows}, **nested)


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Shows each flag's default; a `--no-*` switch's is False (not passed),
    not the default of the field it turns off."""

    def _get_help_string(self, action: argparse.Action) -> str:
        if action.const is False:
            return f"{action.help} (default: False)"
        return super()._get_help_string(action)


def _signals(text: str) -> tuple[Signal, ...]:
    """The signals a comma-separated `--shift-signals` list names; empty entries are skipped."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    valid = [signal.value for signal in SIGNALS]
    for name in names:
        if name not in valid:
            raise argparse.ArgumentTypeError(f"invalid choice: {name!r} (choose from {', '.join(map(repr, valid))})")
    return tuple(map(Signal, names))


def _data_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("input data")
    group.add_argument("--data", type=Path, default=None, help="directory holding the four CSV files")
    for name, file in INPUT_FILES.items():
        group.add_argument(f"--{name}", type=Path, default=None, help=f"{file} path")


def _experiment_flags(parser: argparse.ArgumentParser) -> None:
    """The input, windowing and pipeline flags, `--seed`, `--threads` and `--metrics`."""
    _data_flags(parser)
    _add_flags(parser.add_argument_group("windowing"), WindowingConfig(), WINDOWING_FLAGS)
    experiment = ExperimentConfig()
    _add_flags(parser.add_argument_group("pipeline"), experiment, EXPERIMENT_FLAGS[1:-1])
    _add_flags(parser, experiment, EXPERIMENT_FLAGS[-1:])  # --seed, outside the pipeline group
    threads = "folds run in one thread; kept so scripts that pass --threads 1 still run"
    parser.add_argument("--threads", type=int, default=1, choices=[1], help=threads)
    parser.add_argument("--metrics", type=Path, default=Path("metrics.json"), help="metrics output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relapsekit",
        description="Sequential relapse prediction from behavioral rhythms, EMA, and demographics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    synth, prodrome = SynthConfig(), ProdromalSpec()

    p_synth = sub.add_parser("synth", help="generate a synthetic cohort", formatter_class=_HelpFormatter)
    # --help lists the prodrome's flags after the cohort's size and relapse fraction.
    _add_flags(p_synth, synth, SYNTH_FLAGS[:3])
    p_synth.add_argument(
        "--shift-signals",
        type=_signals,
        default=",".join(signal.value for signal in prodrome.signals),
        help="comma-separated signals shifted before a relapse",
    )
    _add_flags(p_synth, prodrome, PRODROME_FLAGS)
    _add_flags(p_synth, synth, SYNTH_FLAGS[3:])
    p_synth.add_argument("--out", type=Path, required=True, help="output directory for the four CSV files")

    p_feat = sub.add_parser(
        "features", help="dump the feature matrix and exclusion log", formatter_class=_HelpFormatter
    )
    _data_flags(p_feat)
    _add_flags(p_feat.add_argument_group("windowing"), WindowingConfig(), WINDOWING_FLAGS)
    p_feat.add_argument("--out", type=Path, default=Path("features.csv"), help="feature matrix output")
    p_feat.add_argument(
        "--exclusions", type=Path, default=None, help="window exclusion log; None: exclusions.csv next to --out"
    )

    p_eval = sub.add_parser("evaluate", help="LOPO evaluation with one classifier", formatter_class=_HelpFormatter)
    _add_flags(p_eval, ExperimentConfig(), EXPERIMENT_FLAGS[:1])
    _experiment_flags(p_eval)
    p_eval.add_argument(
        "--predictions", type=Path, default=Path("predictions.csv"), help="per-window predictions output"
    )

    for name, grid in GRIDS.items():
        p_exp = sub.add_parser(name, help=grid.help, formatter_class=_HelpFormatter)
        _experiment_flags(p_exp)
        p_exp.add_argument("--predictions-dir", type=Path, default=None, help="optional per-arm prediction files")

    return parser


def _load(args: argparse.Namespace):
    base = args.data
    paths = {name: getattr(args, name) or (base / file if base else None) for name, file in INPUT_FILES.items()}
    missing = [f"--{name}" for name, path in paths.items() if path is None]
    if missing:
        raise ValueError(f"missing input paths: pass --data DIR or {', '.join(missing)}")
    for path in paths.values():
        if not path.exists():
            raise ValueError(f"input file not found: {path}")
    dataset = load_dataset(*paths.values())
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


def _experiment_config(args: argparse.Namespace, rows: Flags) -> ExperimentConfig:
    return _config(ExperimentConfig, args, rows, windowing=_config(WindowingConfig, args, WINDOWING_FLAGS))


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
    prodrome = _config(ProdromalSpec, args, PRODROME_FLAGS, signals=args.shift_signals)
    config = _config(SynthConfig, args, SYNTH_FLAGS, prodrome=prodrome)
    dataset = generate(config, out_dir=args.out)
    print(f"patients={len(dataset.patients)}")
    print(f"relapses={sum(len(p.relapse_dates) for p in dataset.patients)}")
    print(f"out={args.out}")
    return 0


def _cmd_features(args: argparse.Namespace) -> int:
    config = _config(WindowingConfig, args, WINDOWING_FLAGS)
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
    config = _experiment_config(args, EXPERIMENT_FLAGS)
    with _output_dirs(args.metrics.parent, args.predictions.parent):
        table = extract_all(_load(args), config.windowing)
        report = run_lopo(table, config)
        write_metrics(report, args.metrics)
        write_predictions(report, args.predictions)
    print(f"classifier={report.classifier}")
    print(f"windows={len(table)}")  # the random baseline predicts no single window
    _print_report(report)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    rows = EXPERIMENT_FLAGS[1:]  # every flag but --classifier
    config = _experiment_config(args, rows)
    defaults, arms = ExperimentConfig(), [arm for _, arm in GRIDS[args.command].arms]
    for flag, name, _ in rows:
        if getattr(config, name) != getattr(defaults, name) and all(name in arm for arm in arms):
            logger.warning("%s is ignored by %s: every arm sets %s", flag, args.command, name)
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
