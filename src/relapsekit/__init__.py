"""Patient-independent sequential relapse prediction from mobile sensing.

A library plus CLI covering the full pipeline: ingesting hourly signal
values, EMA self-reports, and demographics; building daily behavioral
rhythm templates and window-level features; categorical quantization and
age-matched mutual-information feature selection; four from-scratch
classifiers with a random baseline; and leave-one-patient-out evaluation
with classifier, modality, and selection/demographics experiment grids.

The public names in `__all__` resolve on first access (PEP 562), each
from the module `_EXPORTS` names, so `import relapsekit` loads no
submodule and a command loads only the modules it runs.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "Dataset": "dataio",
    "EvalReport": "evaluate",
    "ExperimentConfig": "config",
    "FEATURE_NAMES": "model",
    "GRIDS": "config",
    "IngestError": "ingest",
    "Patient": "model",
    "ProdromalSpec": "synth",
    "RhythmSpec": "synth",
    "Signal": "model",
    "SynthConfig": "synth",
    "WindowSpec": "windowing",
    "WindowTable": "features",
    "WindowingConfig": "windowing",
    "canonical_feature_names": "model",
    "enumerate_windows": "windowing",
    "extract_all": "features",
    "f2_from_counts": "metrics",
    "f2_score": "metrics",
    "generate": "synth",
    "load_dataset": "ingest",
    "run_grid": "evaluate",
    "run_lopo": "evaluate",
    "write_metrics": "dataio",
    "write_predictions": "dataio",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
