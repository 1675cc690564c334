"""Command-line entry point.

Subcommands: `synth` generates a cohort as the four interchange files;
`features` dumps the feature matrix and the window exclusion log;
`evaluate` runs leave-one-patient-out evaluation with one classifier;
`compare-classifiers`, `ablate-modality`, and `ablate-selection` run the
experiment grids. One `--seed` flag controls all randomness. Exit codes:
0 success, 1 validation error, 2 usage error.

Settings flags take their types and defaults from the config classes,
so each default is written once, in its dataclass.

Each command imports only the modules it runs. The parser reads the light
`config` module, not `evaluate`; `features` and `evaluate` (with
`transform`) load only when a command that runs them starts, each
command importing its stage where it runs, and `evaluate` imports
`classifiers` at the first fit. Any command but `synth` imports the
reader, `ingest`, before all else: compiled after numpy, its freed parse
memory would stay between long-lived objects, 0.2 MB at the peak of a
short grid run. So `synth` loads `config`, `dataio`, `model`, `synth` and
`windowing`, and `features` adds `ingest`, `features` and `templates`.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, TypeVar

if sys.argv[1:2] != ["synth"]:
    from . import ingest  # noqa: F401

from .config import CLASSIFIER_KINDS, GRIDS, ExperimentConfig
from .dataio import (
    COHORT_FILES,
    Dataset,
    write_exclusions,
    write_feature_matrix,
    write_metrics,
    write_predictions,
)
from .model import MODALITIES, SIGNALS, Signal
from .synth import ProdromalSpec, SynthConfig, generate
from .windowing import WindowingConfig

if TYPE_CHECKING:
    from .evaluate import EvalReport
    from .features import WindowTable

T = TypeVar("T")


def load_dataset(*paths: Path) -> Dataset:
    """`ingest.load_dataset`, imported when called, as `run_lopo` is."""
    from .ingest import load_dataset

    return load_dataset(*paths)


def run_lopo(table: WindowTable, config: ExperimentConfig) -> EvalReport:
    """`evaluate.run_lopo`, imported when called. The `evaluate` command
    calls this module's `run_lopo`, so a caller can replace it here."""
    from .evaluate import run_lopo

    return run_lopo(table, config)


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
    for name, file in COHORT_FILES.items():
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


@contextmanager
def _files(args: argparse.Namespace, outputs: dict[str, Path]) -> Iterator[list[Path]]:
    """Yield the four input paths (`--data` or their own flags), checked to
    exist. Before any input is read, refuse two files (inputs or `outputs`,
    keyed by flag) that resolve to one, and create missing output
    directories. If the command then fails, remove those still empty."""
    base = args.data
    inputs = {f"--{key}": getattr(args, key) or (base / file if base else None) for key, file in COHORT_FILES.items()}
    if missing := [flag for flag, path in inputs.items() if path is None]:
        raise ValueError(f"missing input paths: pass --data DIR or {', '.join(missing)}")
    for path in inputs.values():
        if not path.exists():
            raise ValueError(f"input file not found: {path}")
    seen: dict[Path, str] = {}
    for flag, path in {**inputs, **outputs}.items():
        if (first := seen.setdefault(path.resolve(), flag)) != flag:
            raise ValueError(f"{first} and {flag} name the same file: {path}")
    made: list[Path] = []
    try:
        for directory in (path.parent for path in outputs.values()):
            made += [path for path in (directory, *directory.parents) if not path.exists()]
            directory.mkdir(parents=True, exist_ok=True)
        yield list(inputs.values())
    except BaseException:
        for path in sorted(made, key=lambda path: len(path.parts), reverse=True):
            with suppress(OSError):
                path.rmdir()
        raise


def _load(paths: list[Path]) -> Dataset:
    dataset = load_dataset(*paths)
    print(f"ingest_excluded={len(dataset.ingest_exclusions)}")
    return dataset


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
    from .features import extract_cohort

    config = _config(WindowingConfig, args, WINDOWING_FLAGS)
    exclusions = args.exclusions or args.out.with_name("exclusions.csv")
    with _files(args, {"--out": args.out, "--exclusions": exclusions}) as paths:
        table, candidates = extract_cohort(_load(paths), config)
        write_feature_matrix(table, args.out)
        write_exclusions(candidates, exclusions)
    print(f"windows={len(table)}")
    print(f"relapse_windows={int(table.labels.sum())}")
    print(f"excluded={sum(1 for w in candidates if not w.evaluable)}")
    print(f"out={args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .features import extract_all

    config = _experiment_config(args, EXPERIMENT_FLAGS)
    with _files(args, {"--metrics": args.metrics, "--predictions": args.predictions}) as paths:
        table = extract_all(_load(paths), config.windowing)
        report = run_lopo(table, config)
        write_metrics(report, args.metrics)
        write_predictions(report, args.predictions)
    print(f"classifier={report.classifier}")
    print(f"windows={len(table)}")  # the random baseline predicts no single window
    _print_report(report)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import logging  # the grids alone log here; `evaluate` imports it anyway

    from .evaluate import run_grid

    rows, grid = EXPERIMENT_FLAGS[1:], GRIDS[args.command]  # rows: every flag but --classifier
    config = _experiment_config(args, rows)
    defaults, arms = ExperimentConfig(), [arm for _, arm in grid.arms]
    for flag, name, _ in rows:
        if getattr(config, name) != getattr(defaults, name) and all(name in arm for arm in arms):
            logging.getLogger(__name__).warning("%s is ignored by %s: every arm sets %s", flag, args.command, name)
    outputs = {"--metrics": args.metrics}
    if args.predictions_dir is not None:
        outputs.update((f"--predictions-dir/{name}.csv", args.predictions_dir / f"{name}.csv") for name, _ in grid.arms)
    with _files(args, outputs) as paths:
        reports = run_grid(args.command, _load(paths), config)
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
    except (ValueError, OSError) as exc:  # ValueError: also an IngestError; OSError: an input or output path
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
