"""Experiment settings: the experiment config, the classifier settings
table and the experiment grids.

These are the declarations the CLI parser reads: its flags take their
types and defaults from `ExperimentConfig`, its choices from
`CLASSIFIER_KINDS`, and its grid subcommands from `GRIDS`. This module
imports none of the stages past ingest (`templates`, `features`,
`transform`, `classifiers`, `evaluate`), so building the parser loads none
of them, and neither does `synth`. `evaluate` imports these names from
here.

`KINDS` names each classifier kind's settings: the `ExperimentConfig`
field each fit keyword reads, and whether the fit draws and so takes a
`seed`. No fit parameter has a default, so each setting's default lives
in `ExperimentConfig` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from .model import MODALITIES
from .windowing import WindowingConfig


class Kind(NamedTuple):
    settings: dict[str, str]  # fit keyword -> the `ExperimentConfig` field it reads
    draws: bool  # the fit also takes a `seed`


KINDS = {
    "nb": Kind({"alpha": "nb_alpha", "n_categories": "bins"}, draws=False),
    "brf": Kind({"trees": "brf_trees", "decision_threshold": "decision_threshold"}, draws=True),
    "ee": Kind({"bags": "ee_bags", "rounds": "ee_rounds", "decision_threshold": "decision_threshold"}, draws=True),
    "iforest": Kind({"trees": "iforest_trees", "subsample": "iforest_subsample"}, draws=True),
}

CLASSIFIER_KINDS = (*KINDS, "random")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment arm; the defaults reproduce the main pipeline."""

    classifier: str = "nb"
    windowing: WindowingConfig = field(default_factory=WindowingConfig)
    bins: int = 15
    selection: bool = True
    selection_pool: int = 100  # non-relapse windows pooled for MI ranking
    selection_top: int = 5  # features kept per fold
    include_demographics: bool = True
    modality: str = "all"  # all | ema | one signal name
    seed: int = 0
    nb_alpha: float = 1.0
    brf_trees: int = 51
    ee_bags: int = 101
    ee_rounds: int = 10
    iforest_trees: int = 101
    iforest_subsample: int = 256
    decision_threshold: float = 0.5
    baseline_runs: int = 1000

    def __post_init__(self) -> None:
        if self.classifier not in CLASSIFIER_KINDS:
            raise ValueError(f"unknown classifier {self.classifier!r}")
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        for name in ("bins", "selection_pool", "selection_top", "nb_alpha", "brf_trees", "ee_bags",
                     "ee_rounds", "iforest_trees", "iforest_subsample", "baseline_runs"):
            if not getattr(self, name) > 0:  # every count, and the Naive Bayes smoothing
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:  # as SeedSequence requires, checked here for the arms that draw nothing too
            raise ValueError("seed must be non-negative")
        for name in ("nb_alpha", "decision_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


class Grid(NamedTuple):
    """One experiment grid: named arms as ExperimentConfig overrides."""

    help: str
    arms: tuple[tuple[str, dict[str, Any]], ...]
    ranked: bool = False  # reports sorted by F2, best first


GRIDS: dict[str, Grid] = {
    "compare-classifiers": Grid(
        "run every classifier plus the random baseline",
        tuple((kind, {"classifier": kind}) for kind in CLASSIFIER_KINDS),
    ),
    "ablate-modality": Grid(
        "run one arm per signal modality plus EMA",
        tuple(
            (modality, {"modality": modality, "include_demographics": True})
            for modality in (*MODALITIES[2:], "ema")  # every signal, then EMA
        ),
        ranked=True,
    ),
    "ablate-selection": Grid(
        "toggle feature selection and demographics",
        (
            ("selection_with_demographics", {"selection": True, "include_demographics": True}),
            ("no_feature_selection", {"selection": False, "include_demographics": True}),
            ("no_demographics", {"selection": True, "include_demographics": False}),
        ),
    ),
}
