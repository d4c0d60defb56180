"""The four benchmark workloads.

Each workload writes its inputs from the workload seed (`setup`), names the
`swarmclean` command line that one timed operation runs (`argv`), and checks
what that command wrote (`check`). `check` returns one entry per operation in
the sense of `error_rate`: one per simulation run, or one per analyze call.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import checks

TICKS_PER_SECOND = 10  # the default dt_s of 0.1 s
ARENA_CELLS = (285, 285)  # the default 285 x 285 cm arena at 1 cell per cm

# An operation's outcome: the problems found, and the sha256 of each output file.
OpResult = tuple[list[str], dict[str, str]]


@dataclass
class RunWorkload:
    """One `swarmclean run` of a single configuration."""

    name: str
    n_robots: int
    beta: float
    duration_s: int
    inputs: int
    jobs: int = 1
    setup_repeats: int = 5
    calibration: str = "compute"

    def setup(self, pkg, input_dir, seed: int) -> None:
        os.makedirs(input_dir)
        with open(os.path.join(input_dir, "run.cfg"), "w") as fh:
            fh.write(
                f"schema_version = 1\nn_robots = {self.n_robots}\nbeta = {self.beta}\n"
                f"duration_s = {self.duration_s}\nseed = {seed}\n"
            )

    def out_dir(self, input_dir) -> str:
        return os.path.join(input_dir, "out")

    def argv(self, input_dir, jobs: int) -> list[str]:
        return [
            "run",
            "--config", os.path.join(input_dir, "run.cfg"),
            "--out", self.out_dir(input_dir),
            "--snapshot-times", f"0,{self.duration_s}",
        ]

    def robot_ticks(self) -> int:
        return self.n_robots * self.duration_s * TICKS_PER_SECOND

    def check(self, input_dir) -> dict[str, OpResult]:
        out = self.out_dir(input_dir)
        metrics = os.path.join(out, "metrics.csv")
        final = os.path.join(out, f"snapshot_t{self.duration_s}.pgm")
        problems = checks.metrics_csv(metrics, self.duration_s)
        for snap in (os.path.join(out, "snapshot_t0.pgm"), final):
            problems += checks.pgm(snap, *ARENA_CELLS)
        digests = {"metrics.csv": checks.sha256(metrics), os.path.basename(final): checks.sha256(final)}
        return {"run": (problems, digests)}


def _grid_keys(populations, betas, repetitions) -> list[tuple[int, float, int]]:
    return [(n, float(b), r) for n in populations for b in betas for r in range(repetitions)]


def _op_name(key: tuple[int, float, int]) -> str:
    n, beta, rep = key
    return f"N{n}_beta{beta:g}_rep{rep}"


@dataclass
class SweepWorkload:
    """One `swarmclean sweep` over a grid; every grid run is one operation."""

    name: str
    populations: tuple[int, ...]
    betas: tuple[float, ...]
    repetitions: int
    duration_s: int
    inputs: int
    jobs: int = 2
    setup_repeats: int = 5
    calibration: str = "compute"

    def setup(self, pkg, input_dir, seed: int) -> None:
        os.makedirs(input_dir)
        with open(os.path.join(input_dir, "plan.cfg"), "w") as fh:
            fh.write(
                f"schema_version = 1\npopulations = {','.join(map(str, self.populations))}\n"
                f"betas = {','.join(map(str, self.betas))}\nrepetitions = {self.repetitions}\n"
                f"base_seed = {seed}\nduration_s = {self.duration_s}\n"
            )

    def out_dir(self, input_dir) -> str:
        return os.path.join(input_dir, "out")

    def argv(self, input_dir, jobs: int) -> list[str]:
        plan = os.path.join(input_dir, "plan.cfg")
        return ["sweep", "--plan", plan, "--out", self.out_dir(input_dir), "--jobs", str(jobs)]

    def robot_ticks(self) -> int:
        return sum(self.populations) * len(self.betas) * self.repetitions * self.duration_s * TICKS_PER_SECOND

    def check(self, input_dir) -> dict[str, OpResult]:
        out = self.out_dir(input_dir)
        keys = _grid_keys(self.populations, self.betas, self.repetitions)
        paths, shared = checks.manifest(os.path.join(out, "manifest.csv"), set(keys))
        results = {}
        for key in keys:
            problems = list(shared)
            metrics = os.path.join(out, paths.get(key, _op_name(key)), "metrics.csv")
            problems += checks.metrics_csv(metrics, self.duration_s)
            results[_op_name(key)] = (problems, {"metrics.csv": checks.sha256(metrics)})
        return results


def synthetic_series(rng: np.random.Generator, n_robots: int, beta: float, rows: int):
    """Plausible per-second columns for one run of the sweep grid.

    The cue decays faster with more and faster robots, as in the real grid, so
    the population and speed factors carry effects; per-run noise leaves
    residual variance. mean_cue is non-increasing and the ratio is a fraction
    of the swarm, so the analysis inputs pass the same checks as real runs.
    """
    t = np.arange(rows, dtype=np.float64)
    scale = rows / 4000.0
    rate = 2.5e-4 / scale * (n_robots / 30.0) * (beta / 6.0) * rng.uniform(0.8, 1.2)
    cue = 40.75 * np.exp(-rate * t) * (1.0 - 0.01 * np.abs(rng.standard_normal(rows)))
    mean_cue = np.minimum.accumulate(cue)
    level = min(0.9, 0.2 + 0.012 * n_robots) * rng.uniform(0.85, 1.15)
    ratio = level * (1.0 - np.exp(-t / (600.0 * scale))) + 0.05 * rng.standard_normal(rows)
    ratio = np.clip(np.round(ratio * n_robots) / n_robots, 0.0, 1.0)
    coherency = 0.6 + 0.7 * np.exp(-t / (900.0 * scale * 6.0 / beta)) + 0.03 * rng.standard_normal(rows)
    return t.astype(np.int64), mean_cue, ratio, np.abs(coherency)


@dataclass
class AnalyzeWorkload:
    """One `swarmclean analyze` over a generated default-grid sweep directory."""

    name: str
    populations: tuple[int, ...]
    betas: tuple[float, ...]
    repetitions: int
    rows: int
    inputs: int = 1
    jobs: int = 1
    setup_repeats: int = 3
    calibration: str = "csv"

    def setup(self, pkg, input_dir, seed: int) -> None:
        harness = pkg.harness
        plan = harness.ExperimentPlan(
            populations=self.populations, betas=self.betas, repetitions=self.repetitions, base_seed=seed
        )
        runs = plan.runs()
        rng = np.random.default_rng(seed)
        for spec in runs:
            t, cue, ratio, coh = synthetic_series(rng, spec.n_robots, spec.beta, self.rows)
            os.makedirs(os.path.join(input_dir, spec.path))
            series = pkg.metrics.MetricsSeries(t=t, mean_cue=cue, ratio_within_rc=ratio, coherency_m=coh)
            series.to_csv(os.path.join(input_dir, spec.path, "metrics.csv"))
        harness.write_manifest(os.path.join(input_dir, "manifest.csv"), runs)

    def out_dir(self, input_dir) -> str:
        return os.path.join(input_dir, "analysis")

    def argv(self, input_dir, jobs: int) -> list[str]:
        return ["analyze", "--dir", str(input_dir)]

    def robot_ticks(self) -> int:
        return sum(self.populations) * len(self.betas) * self.repetitions * self.rows * TICKS_PER_SECOND

    def check(self, input_dir) -> dict[str, OpResult]:
        out = self.out_dir(input_dir)
        names = sorted(os.listdir(out)) if os.path.isdir(out) else []
        medians = [f for f in names if f.startswith("medians_")]
        problems = []
        if len(medians) != len(self.populations) * len(self.betas):
            problems.append(f"{out}: {len(medians)} median files, expected one per grid cell")
        for f in medians:
            problems += checks.metrics_csv(os.path.join(out, f), self.rows)
        for f in ("anova_mean_cue.csv", "anova_coherency_m.csv"):
            problems += checks.anova_csv(os.path.join(out, f))
        return {"analyze": (problems, {f: checks.sha256(os.path.join(out, f)) for f in names})}


POPULATIONS = (10, 20, 30, 40, 50)
BETAS = (3.0, 6.0)


def build(name: str, size: str = "full"):
    """The named workload at full size, or a tiny version for smoke tests.

    `inputs` is the number of differently seeded inputs a run cycles through:
    a run's cost differs between seeds by up to 15%, so one input per run
    would make runs with different seeds disagree.
    """
    tiny = size == "tiny"
    if name == "run_sparse":
        return RunWorkload(name, n_robots=10, beta=6.0, duration_s=20 if tiny else 400, inputs=2 if tiny else 6)
    if name == "run_dense":
        n, duration = (60, 3) if tiny else (200, 40)
        return RunWorkload(name, n_robots=n, beta=6.0, duration_s=duration, inputs=2 if tiny else 8)
    if name == "sweep_cells":
        if tiny:
            return SweepWorkload(name, populations=(2, 4), betas=BETAS, repetitions=2, duration_s=10, inputs=2)
        return SweepWorkload(name, populations=POPULATIONS, betas=BETAS, repetitions=2, duration_s=60, inputs=2)
    if name == "analyze_grid":
        if tiny:
            return AnalyzeWorkload(name, populations=(10, 20), betas=BETAS, repetitions=2, rows=80)
        return AnalyzeWorkload(name, populations=POPULATIONS, betas=BETAS, repetitions=6, rows=4000)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("run_sparse", "sweep_cells", "run_dense", "analyze_grid")
