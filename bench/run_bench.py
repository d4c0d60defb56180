"""swarmclean benchmark: four workloads driven through the `swarmclean` CLI.

    python3 bench/run_bench.py --workload run_sparse --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`. With `--trace 0` the workload's command is repeated over its seeded
inputs for `--seconds` seconds, untraced, and the end-to-end metrics are
reported. With `--trace 1` untraced and traced operations alternate, and the
per-layer metrics are reported. Times are in reference-host seconds (see
calibration.py). Every operation's output files are checked; see README.md
beside this file. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import calibration
import workloads
from tracer import SPANS, Tracer

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 1
MIN_ROUNDS = 2  # untraced rounds over the inputs, however short --seconds is
COVERAGE_TOLERANCE = 0.05  # traced self times must sum to within 5% of the traced wall time
SELF_SPANS = {"engine.run_simulation", "harness.cmd_run", "harness.cmd_sweep", "harness.cmd_analyze", "cli.main"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def environment(seed: int) -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(ROOT / ".git"),
        "seed": seed,
    }


def git_commit(git: Path) -> str:
    """HEAD's commit read from the .git directory; 'unknown' outside a git checkout."""
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def fresh_import():
    """Import the package from this checkout's src/, discarding any earlier import."""
    for name in [m for m in sys.modules if m == "swarmclean" or m.startswith("swarmclean.")]:
        del sys.modules[name]
    pkg = importlib.import_module("swarmclean")
    importlib.import_module("swarmclean.cli")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "swarmclean":
        raise BenchError(f"imported swarmclean from {pkg.__file__}, not from {ROOT / 'src'}")
    return pkg


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def input_seeds(seed: int, count: int) -> list[int]:
    """Seeds of a run's inputs: input k of workload seed s uses seed 100 * s + k."""
    return [100 * seed + k for k in range(count)]


class Session:
    """Runs one workload's operations through the CLI and tallies their checks."""

    def __init__(self, workload, cli, reference=None):
        self.workload = workload
        self.cli = cli
        self.reference: dict[str, dict[str, str]] = dict(reference or {})
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._calibrators: dict[int, calibration.Calibrator] = {}

    def close(self) -> None:
        for calibrator in self._calibrators.values():
            calibrator.close()

    def op(self, key: int, input_dir, jobs: int, reference=None, tracer=None) -> tuple[float, float, float]:
        """Time one CLI call on input `key` between two host calibrations, and check what it wrote.

        Output digests must match `reference` ({"key/operation": {file: sha256}}),
        which defaults to the session's: the stored digests when the inputs
        come from the default seed, else those of the first operation on the
        same input. Returns (wall s, child CPU s, host scale).
        """
        reference = self.reference if reference is None else reference
        shutil.rmtree(self.workload.out_dir(input_dir), ignore_errors=True)
        argv = self.workload.argv(input_dir, jobs)
        captured = io.StringIO()
        if jobs not in self._calibrators:
            self._calibrators[jobs] = calibration.Calibrator(self.workload.calibration, jobs)
        calibrator = self._calibrators[jobs]
        before = calibrator.loop_s()
        cpu0 = _children_cpu()
        if tracer is not None:
            tracer.install()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                t0 = time.perf_counter()
                try:
                    status = self.cli.main(argv)
                except Exception:  # a crash fails this operation; the run goes on
                    status = traceback.format_exc(limit=-3)
                wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        cpu = _children_cpu() - cpu0
        scale = calibrator.scale(before, calibrator.loop_s())
        for name, (problems, digests) in self.workload.check(input_dir).items():
            name = f"{key}/{name}"
            if status != 0:
                problems.insert(0, f"exit status {status}: {captured.getvalue().strip()[-300:]}")
            if digests != reference.setdefault(name, digests):
                problems.append(f"{name}: output digests differ from the reference")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += problems[:2]
        return wall, cpu, scale


def write_inputs(workload, pkg, work: Path, seed: int) -> list[Path]:
    dirs = [work / f"input{k}" for k in range(workload.inputs)]
    for input_dir, input_seed in zip(dirs, input_seeds(seed, workload.inputs)):
        workload.setup(pkg, input_dir, input_seed)
    return dirs


def set_up(workload, work: Path, seed: int):
    """Import the package and write the inputs, `setup_repeats` times; keep the last.

    Returns the package, the input directories and the median set-up time in
    reference-host seconds.
    """
    times = []
    calibrator = calibration.Calibrator(workload.calibration)
    for r in range(workload.setup_repeats):
        before = calibrator.loop_s()
        t0 = time.perf_counter()
        pkg = fresh_import()
        inputs = write_inputs(workload, pkg, work / f"setup{r}", seed)
        elapsed = time.perf_counter() - t0
        times.append(elapsed * calibrator.scale(before, calibrator.loop_s()))
        if r:
            shutil.rmtree(work / f"setup{r - 1}")
    return pkg, inputs, statistics.median(times)


def layer_metrics(self_s: dict, calls: dict, counts: dict, scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced operation, as {name: (value, unit)}; times scaled by `scale`."""
    out = {}
    for span, *_ in SPANS:
        out[span + ("_self_s" if span in SELF_SPANS else "_s")] = (self_s.get(span, 0.0) * scale, "s")
    for name, span in (
        ("field.sample_many_calls", "field.sample_many"),
        ("field.cleanings", "field.apply_cleaning"),
        ("controller.step_fsm_calls", "controller.step_fsm"),
        ("engine.integrate_calls", "engine.integrate"),
    ):
        out[name] = (calls.get(span, 0), "count")
    for name in ("controller.waits_started", "controller.random_turns", "metrics.csv_rows_written", "metrics.csv_rows_read"):
        out[name] = (counts.get(name, 0), "count")
    separations = calls.get("engine.separate_overlaps", 0)
    active = counts.get("engine.separate_active", 0) / separations if separations else 0.0
    out["engine.separate_active_ratio"] = (active, "ratio")
    return out


def measure_untraced(session, workload, inputs, seconds: float) -> dict[str, tuple[float, str]]:
    """Whole rounds over the inputs until `seconds` have passed.

    Costs differ between inputs by up to 15% (different trajectories), so
    `wall_s` is the mean over inputs of each input's median, in
    reference-host seconds.
    """
    times: list[list[float]] = [[] for _ in inputs]
    raw, scales = [], []
    deadline = time.perf_counter() + seconds
    while len(times[0]) < MIN_ROUNDS or time.perf_counter() < deadline:
        for key, input_dir in enumerate(inputs):
            wall, _, scale = session.op(key, input_dir, workload.jobs)
            times[key].append(wall * scale)
            raw.append(wall)
            scales.append(scale)
    print(f"{len(raw)} operations: raw wall median {statistics.median(raw)} s, host scale median {statistics.median(scales)}")
    wall = statistics.fmean(statistics.median(t) for t in times)
    return {
        "wall_s": (wall, "s"),
        "robot_ticks_per_s": (workload.robot_ticks() / wall, "robot-ticks/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def measure_traced(session, workload, inputs, seconds: float) -> dict[str, tuple[float, str]]:
    """Alternate untraced and traced operations, cycling over the inputs; traced ones run with one job.

    A sweep's untraced operation runs with the workload's jobs and gives the
    pool efficiency; a second untraced one with one job is the reference for
    the tracing overhead.
    """
    tracer = Tracer()
    untraced, traced, pool, coverage, layers = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        key = len(traced) % len(inputs)
        wall, cpu, scale = session.op(key, inputs[key], workload.jobs)
        if workload.jobs > 1:
            pool.append(cpu / (workload.jobs * wall))
            wall, _, scale = session.op(key, inputs[key], 1)
        untraced.append(wall * scale)
        wall, _, scale = session.op(key, inputs[key], 1, tracer=tracer)
        self_s, calls, counts = tracer.take()
        traced.append(wall * scale)
        coverage.append(sum(self_s.values()) / wall)
        layers.append(layer_metrics(self_s, calls, counts, scale))
    worst = max(coverage, key=lambda c: abs(1.0 - c))
    if abs(1.0 - worst) > COVERAGE_TOLERANCE:
        raise BenchError(f"traced self times cover {worst:.3f} of the traced wall time, outside 1 +/- {COVERAGE_TOLERANCE}")
    metrics = {}
    for name, (_, unit) in layers[0].items():
        median = statistics.median_low if unit == "count" else statistics.median  # counts stay whole
        metrics[name] = (median(op[name][0] for op in layers), unit)
    metrics.update(
        {
            "harness.pool_efficiency": (statistics.median(pool) if pool else 0.0, "ratio"),
            "trace.wall_s": (statistics.median(traced), "s"),
            "trace.overhead_ratio": (statistics.median(traced) / statistics.median(untraced), "ratio"),
            "trace.self_coverage": (statistics.median(coverage), "ratio"),
            "trace.missing_spans": (len(tracer.missing), "count"),
        }
    )
    if tracer.missing:
        print(f"missing wrapped names (reported as 0): {', '.join(tracer.missing)}")
    return metrics


def run(args) -> dict:
    workload = workloads.build(args.workload, args.size)
    env = environment(args.seed)
    if workload.jobs > env["nproc"]:
        raise BenchError(f"{workload.name} needs {workload.jobs} workers but only {env['nproc']} CPUs are available")
    stored = None
    if args.size == "full":
        stored = json.loads(DIGESTS.read_text())["workloads"].get(workload.name)
    print("env " + json.dumps(env, sort_keys=True))

    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        pkg, inputs, setup_s = set_up(workload, work, args.seed)
        at_default = args.seed == DEFAULT_SEED
        session = Session(workload, sys.modules["swarmclean.cli"], stored if at_default else None)
        try:
            measure = measure_traced if args.trace else measure_untraced
            metrics = measure(session, workload, inputs, args.seconds)
            if stored is not None and not at_default:
                # one untimed operation on the default seed's first input, checked against the stored digests
                golden = write_inputs(workload, pkg, work / "golden", DEFAULT_SEED)[0]
                session.op(0, golden, workload.jobs, reference=dict(stored))
        finally:
            session.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work.parent)
    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")
    for problem in session.problems[:10]:
        print("check failed: " + problem)
    print(f"error_rate {session.failed / session.attempted} ({session.failed} of {session.attempted} operations)")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{workload.name} {name} {value} {unit}")
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed (inputs only)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "swarmclean" / "__init__.py").is_file():
        print(f"error: no swarmclean sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
