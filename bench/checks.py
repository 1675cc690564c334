"""Output checks: SHA-256 digests, report invariants and the run ledger.

Seed 7 outputs must match the digests pinned in `golden_seed7.json`. For
any seed, every run of one checkout must agree byte-for-byte and on every
work count with the first run recorded in its ledger. To re-pin after an
intended output change, copy the `digests` of a seed-7 results document
into the golden file and say why in the change log.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

GOLDEN_SEED = 7
GOLDEN_PATH = Path(__file__).with_name("golden_seed7.json")


def digest_tree(root: Path) -> dict[str, str]:
    """SHA-256 of every file under `root`, keyed by its relative path."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def data_rows(path: Path) -> int:
    """Data rows of a CSV file with one record per line: its lines minus the header."""
    with path.open("rb") as handle:
        return sum(block.count(b"\n") for block in iter(lambda: handle.read(1 << 20), b"")) - 1


def check_reports(metrics_path: Path, predictions: dict[str, Path], arms: tuple[str, ...]) -> list[str]:
    """Problems with one command's metrics document and prediction files.

    Every expected arm is present; for every non-random arm tp+fp+fn+tn
    equals the windows evaluated, both overall and per fold, and equals its
    prediction row count; the random arm writes no prediction rows and its
    mean confusion counts add up to the same window count.
    """
    doc = json.loads(metrics_path.read_text(encoding="utf-8"))
    reports = doc if isinstance(doc, list) else [doc]
    problems = []
    found = sorted(r["arm"] for r in reports)
    if found != sorted(arms):
        problems.append(f"arms {found} != expected {sorted(arms)}")
    windows = random_total = None
    for r in reports:
        arm = r["arm"]
        total = r["tp"] + r["fp"] + r["fn"] + r["tn"]
        if arm not in predictions:
            problems.append(f"{arm}: no prediction file")
            continue
        rows = data_rows(predictions[arm])
        if r["classifier"] == "random":
            if rows != 0:
                problems.append(f"{arm}: random baseline wrote {rows} prediction rows")
            random_total = total
            continue
        if total != rows:
            problems.append(f"{arm}: tp+fp+fn+tn={total} != {rows} prediction rows")
        per_fold = sum(f["tp"] + f["fp"] + f["fn"] + f["tn"] for f in r["folds"])
        if per_fold != total:
            problems.append(f"{arm}: fold confusion counts sum to {per_fold}, not {total}")
        for f in r["folds"]:
            held_out = total - f["train_windows"]
            if f["tp"] + f["fp"] + f["fn"] + f["tn"] != held_out:
                problems.append(f"{arm}: fold {f['patient_id']} counts != {held_out} held-out windows")
        if windows is None:
            windows = total
        elif total != windows:
            problems.append(f"{arm}: {total} windows evaluated, other arms {windows}")
    if windows is not None and random_total is not None:
        if not math.isclose(random_total, windows, abs_tol=1e-6):
            problems.append(f"random: mean confusion counts sum to {random_total}, not {windows}")
    return problems


def check_golden(workload: str, seed: int, part: str, digests: dict) -> list[str]:
    """Seed-7 digests of one part (cohort or outputs) against the pinned ones."""
    if seed != GOLDEN_SEED:
        return []
    pinned = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")).get(workload, {}).get(part)
    if pinned is None:
        return [f"{part}: no pinned seed-{GOLDEN_SEED} digests for {workload}"]
    return [
        f"{part}/{name}: digest differs from the pinned seed-{GOLDEN_SEED} output"
        for name in sorted(set(pinned) | set(digests))
        if pinned.get(name) != digests.get(name)
    ]


def check_ledger(ledger_path: Path, key: str, part: str, values: dict) -> list[str]:
    """Compare `values` with the first run recorded under (key, part); record them if none."""
    ledger = json.loads(ledger_path.read_text(encoding="utf-8")) if ledger_path.exists() else {}
    entry = ledger.setdefault(key, {})
    if part not in entry:
        entry[part] = values
        ledger_path.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return []
    first = entry[part]
    return [
        f"{part}/{name}: {values.get(name)!r} != {first.get(name)!r} in an earlier run"
        for name in sorted(set(first) | set(values))
        if first.get(name) != values.get(name)
    ]
