"""relapsekit benchmark: CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload classifier-compare --seed 7 --seconds 40 --trace 0
    python3 bench/run.py            # every workload, seed 7: one table of end-to-end metrics

Each run generates its cohort with `synth` from `--seed`, then times the
workload command. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` measures end to end, with tracing off. `synth` runs three
times as a child process (`setup_s` is their median wall time). One
untimed run of the command warms the page cache; then each timed run of
the command is a child process (`python -m relapsekit.cli`,
`PYTHONPATH=src`), repeated while the next one still fits in
`--seconds`. `wall_s`, `cpu_s` and `peak_rss_mb` are medians over those
runs, the last two taken from `os.wait4` for that child alone.

The times are scaled to a reference CPU speed. The host is shared, and
the speed of its CPUs swings by up to 2x within minutes, so raw seconds
measure the neighbours as much as the program. The benchmark pins itself
and its children to one CPU, and a probe thread (`SpeedProbe`) times a
fixed loop on that CPU every 50 ms. Each child's time is multiplied by
`PROBE_REF_S` over the probe's median loop time while the child ran,
before the medians are taken. A change to relapsekit moves the child's
time and not the probe's; a change in CPU speed moves both. The raw
medians and each child's scale are in the results document.

`--trace 1` measures each layer. It runs `synth` and the command in this
process through `relapsekit.cli.main`, with the wrappers of `tracing.py`
installed, after one untraced child run of the command whose wall time
`trace.overhead_s` is taken against.

Every run checks the outputs (`checks.py`): cohort, metrics and
prediction digests against the pinned seed-7 ones and against earlier
runs of the same source, the report invariants, and (traced runs) the
exact work counts. Work files go under `.bench_work/`; each run's cohort
and outputs are deleted when it ends, and its logs, results document,
trace and the ledger stay.

Every workload passes `--threads 1`: the thread pool only adds GIL
contention today, so fold parallelism is left out of the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ inside bench/

from checks import check_golden, check_ledger, check_reports, digest_tree  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC_PATH = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170.0
DEFAULT_SEED = 7  # the README quick-start seed
# The speed probe: a loop of PROBE_LOOP steps every PROBE_PERIOD_S, and its
# CPU seconds at the reference speed. Fixed, so that the scaled times of two
# commits stay comparable; never retune them.
PROBE_LOOP = 30_000
PROBE_PERIOD_S = 0.05
PROBE_REF_S = 0.002


@dataclass(frozen=True)
class Workload:
    synth: tuple[str, ...]
    command: tuple[str, ...]
    arms: tuple[str, ...]


# Each command runs for a few seconds, so that a run of the benchmark holds
# several timed runs of it and reports their median. The README quick-start
# cohort (40 patients x 180 days) takes 30-40 s per compare-classifiers run,
# which leaves one sample per run; its `evaluate` run is not a workload of its
# own, because classifier-compare makes the same ingest and extraction calls.
SIGNAL_ARMS = (
    "accel_magnitude",
    "light_level",
    "distance_traveled",
    "call_duration",
    "sound_level",
    "conversation_duration",
)
WORKLOADS = {
    # Many short, sparse patients: 40 folds x 7 arms put the per-fold
    # transform/evaluate loop first, and ingest sees few rows per key.
    "wide-sparse-modality": Workload(
        ("--patients", "40", "--days", "84", "--missing-rate", "0.85"),
        ("ablate-modality",),
        SIGNAL_ARMS + ("ema",),
    ),
    # Few long, dense patients and the north-star command: the four
    # classifiers dominate, after a dense ingest. Every patient relapses:
    # with only five relapse windows, which features selection keeps, and so
    # how many distinct rows the isolation forest splits, varied with the
    # seed enough to move the run time by a quarter.
    "classifier-compare": Workload(
        ("--patients", "10", "--days", "180", "--relapse-fraction", "1.0"),
        ("compare-classifiers",),
        ("nb", "brf", "ee", "iforest", "random"),
    ),
}


# -- child processes ------------------------------------------------------


@dataclass(frozen=True)
class ChildRun:
    started: float  # time.perf_counter() at start
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def run_child(argv: list[str], log: Path) -> ChildRun:
    """Run `python -m relapsekit.cli argv` and account for that child alone."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with log.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "relapsekit.cli", *argv],
            stdout=out,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=ROOT,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return ChildRun(start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def command_argv(wl: Workload, cohort: Path, out: Path, seed: int) -> list[str]:
    out.mkdir(parents=True, exist_ok=True)
    argv = [*wl.command, "--data", str(cohort), "--seed", str(seed), "--threads", "1"]
    argv += ["--metrics", str(out / "metrics.json")]
    return argv + ["--predictions-dir", str(out / "predictions")]


def synth_argv(wl: Workload, cohort: Path, seed: int) -> list[str]:
    return ["synth", *wl.synth, "--seed", str(seed), "--out", str(cohort)]


# -- checks ---------------------------------------------------------------


class Session:
    """Checks and bookkeeping for one benchmark run of one workload."""

    def __init__(self, name: str, seed: int, run_dir: Path) -> None:
        self.name, self.wl, self.seed, self.run_dir = name, WORKLOADS[name], seed, run_dir
        # Runs agree only if the sources and the workload's arguments are the same.
        args = " ".join((*self.wl.synth, "|", *self.wl.command))
        self.key = f"{name}:seed{seed}:{args}:src-{source_digest()[:16]}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, dict] = {}

    def _record(self, returncode: int, problems: list[str]) -> None:
        self.attempted += 1
        if returncode != 0:
            problems = [f"exit code {returncode}", *problems]
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def _check_part(self, part: str, digests: dict) -> list[str]:
        self.digests[part] = digests
        return check_golden(self.name, self.seed, part, digests) + check_ledger(
            WORK / "ledger.json", self.key, part, digests
        )

    def check_cohort(self, returncode: int, cohort: Path) -> None:
        problems = []
        if returncode == 0:
            problems = self._check_part("cohort", digest_tree(cohort))
        self._record(returncode, problems)

    def check_outputs(self, returncode: int, out: Path) -> None:
        problems = []
        if returncode == 0:
            predictions = {p.stem: p for p in (out / "predictions").glob("*.csv")}
            problems = check_reports(out / "metrics.json", predictions, self.wl.arms)
            problems += self._check_part("outputs", digest_tree(out))
        self._record(returncode, problems)

    def check_counts(self, counts: dict) -> None:
        self.problems.extend(check_ledger(WORK / "ledger.json", self.key, "counts", counts))


def source_digest() -> str:
    """SHA-256 over the package sources, so the ledger only compares runs of the same code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "relapsekit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# -- measuring ------------------------------------------------------------


class SpeedProbe:
    """Samples the speed of the CPU the timed children run on.

    A thread pinned with them runs a fixed pure-Python loop every
    `PROBE_PERIOD_S` and records its CPU time (`time.thread_time`, so time
    spent waiting for the CPU does not count). The loop takes about 5% of
    that CPU. It calls no relapsekit code, so a change there leaves it alone.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter, loop CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            start, total = time.thread_time(), 0
            for i in range(PROBE_LOOP):
                total += i * i % 7
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, run: ChildRun) -> float:
        """PROBE_REF_S over the median loop time while `run` ran: below 1 on a slow host."""
        during = [cpu for t, cpu in self.samples if run.started <= t <= run.started + run.wall_s]
        return PROBE_REF_S / statistics.median(during) if during else math.nan


def measure(session: Session, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics with tracing off; returns (metrics, raw samples)."""
    wl, run_dir, seed = session.wl, session.run_dir, session.seed
    # The children inherit this thread's CPU, and so does the probe thread.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with SpeedProbe() as probe:
        setups: list[ChildRun] = []
        for i in range(SETUP_REPEATS):
            cohort = run_dir / f"cohort{i}"
            setups.append(run_child(synth_argv(wl, cohort, seed), run_dir / f"synth{i}.log"))
            session.check_cohort(setups[-1].returncode, cohort)
            if i:
                shutil.rmtree(cohort, ignore_errors=True)
        cohort = run_dir / "cohort0"
        os.sync()  # so writing back the cohort does not overlap the timed runs

        # One untimed run puts the cohort in the page cache, as a user's repeated runs find it.
        out = run_dir / "warmup"
        session.check_outputs(run_child(command_argv(wl, cohort, out, seed), run_dir / "warmup.log").returncode, out)
        shutil.rmtree(out, ignore_errors=True)

        timed: list[ChildRun] = []
        deadline = time.perf_counter() + seconds
        while not timed or time.perf_counter() + statistics.median(r.wall_s for r in timed) < deadline:
            out = run_dir / f"out{len(timed)}"
            timed.append(run_child(command_argv(wl, cohort, out, seed), run_dir / f"command{len(timed)}.log"))
            session.check_outputs(timed[-1].returncode, out)
            shutil.rmtree(out, ignore_errors=True)

    setup_scale = [probe.scale(r) for r in setups]
    timed_scale = [probe.scale(r) for r in timed]
    metrics = {
        "setup_s": statistics.median(r.wall_s * k for r, k in zip(setups, setup_scale)),
        "wall_s": statistics.median(r.wall_s * k for r, k in zip(timed, timed_scale)),
        "cpu_s": statistics.median(r.cpu_s * k for r, k in zip(timed, timed_scale)),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in timed),
    }
    samples = {
        "setup": [{**asdict(r), "speed_scale": k} for r, k in zip(setups, setup_scale)],
        "command": [{**asdict(r), "speed_scale": k} for r, k in zip(timed, timed_scale)],
        "raw_medians": {
            "setup_s": statistics.median(r.wall_s for r in setups),
            "wall_s": statistics.median(r.wall_s for r in timed),
            "cpu_s": statistics.median(r.cpu_s for r in timed),
        },
        "probe_samples": len(probe.samples),
    }
    return metrics, samples


def measure_traced(session: Session) -> tuple[dict, dict]:
    """Per-layer metrics from one traced in-process run; returns (metrics, extras)."""
    sys.path.insert(0, str(SRC))
    from tracing import Tracer

    wl, run_dir, seed = session.wl, session.run_dir, session.seed
    cohort, out, untraced_out = run_dir / "cohort", run_dir / "out", run_dir / "out-untraced"
    tracer = Tracer()
    tracer.install()
    try:
        with (
            (run_dir / "traced.log").open("w") as log,
            contextlib.redirect_stdout(log),
            contextlib.redirect_stderr(log),
        ):
            session.check_cohort(tracer.run_cli(synth_argv(wl, cohort, seed)), cohort)
            # The untraced reference run also warms the page cache for the traced one.
            untraced = run_child(command_argv(wl, cohort, untraced_out, seed), run_dir / "untraced.log")
            session.check_outputs(untraced.returncode, untraced_out)
            session.check_outputs(tracer.run_cli(command_argv(wl, cohort, out, seed)), out)
    finally:
        tracer.restore()

    command_run = tracer.run_id
    metrics = tracer.per_layer(command_run, untraced_wall_s=untraced.wall_s)
    session.check_counts({k: v for k, v in metrics.items() if isinstance(v, int)})
    if metrics["features.windows"] != _evaluated_windows(out):
        session.problems.append("features.windows differs from the windows evaluated")
    shares = tracer.layer_shares(command_run)
    trace_path = WORK / "traces" / f"{session.name}-seed{seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({**tracer.document(), "layer_shares": shares}) + "\n", encoding="utf-8")
    return metrics, {"layer_shares": shares, "untraced_wall_s": untraced.wall_s, "trace_file": str(trace_path)}


def _evaluated_windows(out: Path) -> int:
    doc = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    report = (doc if isinstance(doc, list) else [doc])[0]
    return round(report["tp"] + report["fp"] + report["fn"] + report["tn"])


# -- machine facts and results --------------------------------------------


def machine_facts() -> dict:
    import numpy

    model = platform.processor() or None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), model)
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    run_dir = WORK / "runs" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    load_start = os.getloadavg()
    session = Session(name, seed, run_dir)
    try:
        if trace:
            values, extras = measure_traced(session)
        else:
            values, extras = measure(session, seconds)
    finally:
        # Keep the small logs; drop the cohort and outputs.
        for path in run_dir.iterdir():
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)

    result = {
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    document = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_facts(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "result": result,
        "all_metrics": values,
        "digests": session.digests,
        "problems": session.problems,
        **extras,
    }
    results_path = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for problem in session.problems:
        print(f"check failed: {problem}")
    print(f"results={results_path.relative_to(ROOT)}")
    return result


def print_table(seed: int, seconds: float) -> None:
    """Every end-to-end metric, by name and unit, for every workload."""
    for name in WORKLOADS:
        result = run_workload(name, seed, seconds, trace=False)
        for metric, entry in result["metrics"].items():
            print(f"{name:22s} {metric:12s} {entry['value']:12.4f} {entry['unit']}")
        print(f"{name:22s} {'error_rate':12s} {result['failed'] / result['attempted']:12.4f} ratio")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="omit to print every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")
    parser.add_argument("--seconds", type=float, default=40.0, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    args = parser.parse_args(argv)
    if not (SRC / "relapsekit" / "cli.py").is_file() or not SPEC_PATH.is_file():
        print(f"error: no relapsekit sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    if args.workload is None:
        print_table(args.seed, args.seconds)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
