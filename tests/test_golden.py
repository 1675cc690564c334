"""Golden-output tests: pinned SHA-256 digests of every CLI output.

The determinism tests compare one run with another, so a change that moves
every score the same way would still pass them. These digests pin the bytes
themselves for the criterion-8 cohort (6 patients x 90 days, seed 21) and
`--seed 9 --threads 1`. A change that alters any output on purpose must
re-pin the affected digests and say why.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from relapsekit.cli import main

GOLDEN: dict[str, dict[str, str]] = {
    "synth": {
        "ema.csv": "dbdc287faaff3701ba407d5046e6af6a9af100c57abd91db8db552a01e63a875",
        "patients.csv": "80f8f1f308ef1eb71a07f643ec1585ddef588512c218f3dcaab55517ae99f754",
        "relapses.csv": "ba9f6dd60a99021656e162edbf6991e26cb537a585a7016e66f33b76f01e6c6d",
        "sensors.csv": "f40df08e0892875748f93dce31cc794782c1bd593ec5ee2b39cef5844162966e",
    },
    "features": {
        "exclusions.csv": "6167c4342ed3faffc4ecc05bf14d348ddfbbc45f5af0510b79ddb8364cec5258",
        "features.csv": "860eb9e89e51ded95e9e928af879dc2bbf67f77da8a537a6eaa9edcb9a5fdad3",
    },
    "evaluate": {
        "metrics.json": "d5773ec4cb1945bc5703192bc305d403542755428696950ea1f12236b25e9826",
        "predictions.csv": "f32f5a02846f7c57249c9bead690df450aa6f4e1668b5d67b812d8e577c78013",
    },
    "compare-classifiers": {
        "metrics.json": "a88f3f34c4762fd7878da0cd3b596173159949f97c339a6d01826bdd0026ba9c",
        "predictions/brf.csv": "56991694d4acda6a0b7e6aee35bd3db3e869439facb578586c96339e2dffead1",
        "predictions/ee.csv": "5b3c71bf7843d0dc7138ca07853ff4dca4356057836ac654f07ec45b9bb7e557",
        "predictions/iforest.csv": "4839879703180bcce69d0b3857d3614490c08c86f5893424296807b69072aebb",
        "predictions/nb.csv": "f32f5a02846f7c57249c9bead690df450aa6f4e1668b5d67b812d8e577c78013",
        "predictions/random.csv": "3f06d6c96cc2215e9403a5d9729269e87139b7998855e81448d5cfdf59dec8cf",
    },
    "ablate-modality": {
        "metrics.json": "415883efdac95428dcaf01da0a30c5b42e80d690ad16bb63947b60505b828a25",
        "predictions/accel_magnitude.csv": "1bb4f92e61b517d90cb52d3b5fc4e2d65448ef327343ab481c5aff90a55ab44e",
        "predictions/call_duration.csv": "c3bf513e37b183130819408a80ddbe2a2c0240d6bb5f14e680b1d419282661c2",
        "predictions/conversation_duration.csv": "7bab3d42a46ff30d0e166fcb71860f8c30f502f8cc459386f90dbdc2415de756",
        "predictions/distance_traveled.csv": "06f73f9a98c24d43a08745f943ae4f49f5fddcb5c3527fd92f146dc54d8ee856",
        "predictions/ema.csv": "f94594f0a8cfd7da2901a4ebaae6c19f3e726633ba39818c63feec01d9c6bd3e",
        "predictions/light_level.csv": "eeb305a34924f71d5e4ea63113ef4ed8b717742a4290b6967fbea6243bc9446a",
        "predictions/sound_level.csv": "be3613410becb4e48d554cb81ce48fdce8d6a6a6cc9281e2799597d6da11bd3f",
    },
    "ablate-selection": {
        "metrics.json": "656c2ac2bbf4fc1b21f23e476f21fa1a3a5a1b0b878a4742122c9826f19c304d",
        "predictions/no_demographics.csv": "f32f5a02846f7c57249c9bead690df450aa6f4e1668b5d67b812d8e577c78013",
        "predictions/no_feature_selection.csv": "dc6819db38e631c0c72166b325afddb34d6da51125a71ddaced5e90143ccf2db",
        "predictions/selection_with_demographics.csv": "f32f5a02846f7c57249c9bead690df450aa6f4e1668b5d67b812d8e577c78013",
    },
}

RUN_FLAGS = ["--seed", "9", "--threads", "1"]


def _digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every file under `directory`, keyed by relative path."""
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def cohort(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("golden") / "cohort"
    args = ["synth", "--patients", "6", "--days", "90", "--seed", "21", "--out", str(out)]
    assert main(args) == 0
    return out


def test_synth_outputs(cohort, capsys):
    capsys.readouterr()
    assert _digests(cohort) == GOLDEN["synth"]


def test_features_outputs(cohort, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    args = ["features", "--data", str(cohort), "--out", str(out / "features.csv")]
    assert main(args + ["--exclusions", str(out / "exclusions.csv")]) == 0
    capsys.readouterr()
    assert _digests(out) == GOLDEN["features"]


def test_evaluate_outputs(cohort, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    args = ["evaluate", "--data", str(cohort), "--classifier", "nb", *RUN_FLAGS]
    args += ["--metrics", str(out / "metrics.json"), "--predictions", str(out / "predictions.csv")]
    assert main(args) == 0
    capsys.readouterr()
    assert _digests(out) == GOLDEN["evaluate"]


@pytest.mark.parametrize("command", ["compare-classifiers", "ablate-modality", "ablate-selection"])
def test_grid_outputs(command, cohort, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    args = [command, "--data", str(cohort), *RUN_FLAGS, "--metrics", str(out / "metrics.json")]
    assert main(args + ["--predictions-dir", str(out / "predictions")]) == 0
    capsys.readouterr()
    assert _digests(out) == GOLDEN[command]
