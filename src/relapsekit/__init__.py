"""Patient-independent sequential relapse prediction from mobile sensing.

A library plus CLI covering the full pipeline: ingesting hourly signal
values, EMA self-reports, and demographics; building daily behavioral
rhythm templates and window-level features; categorical quantization and
age-matched mutual-information feature selection; four from-scratch
classifiers with a random baseline; and leave-one-patient-out evaluation
with classifier, modality, and selection/demographics experiment grids.
"""

from .dataio import Dataset, IngestError, load_dataset, write_metrics, write_predictions
from .evaluate import GRIDS, EvalReport, ExperimentConfig, run_grid, run_lopo
from .features import WindowTable, extract_all
from .metrics import f2_from_counts, f2_score
from .model import FEATURE_NAMES, Patient, Signal, canonical_feature_names
from .synth import ProdromalSpec, RhythmSpec, SynthConfig, generate
from .windowing import WindowSpec, WindowingConfig, enumerate_windows

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EvalReport",
    "ExperimentConfig",
    "FEATURE_NAMES",
    "GRIDS",
    "IngestError",
    "Patient",
    "ProdromalSpec",
    "RhythmSpec",
    "Signal",
    "SynthConfig",
    "WindowSpec",
    "WindowTable",
    "WindowingConfig",
    "canonical_feature_names",
    "enumerate_windows",
    "extract_all",
    "f2_from_counts",
    "f2_score",
    "generate",
    "load_dataset",
    "run_grid",
    "run_lopo",
    "write_metrics",
    "write_predictions",
]
