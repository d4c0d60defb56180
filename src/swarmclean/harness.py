"""Batch execution: run configs, parameter sweeps, and sweep analysis.

Config and plan files are plain `key = value` text with a mandatory
`schema_version`; unknown keys are rejected so a typo cannot silently
change the physics. Every run's seed is derived by hashing the plan's
base seed with the run's (population, bias, repetition) coordinates, so
extending a plan never perturbs existing runs.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
import numbers
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .engine import ConfigError, SimConfig, check_fields, run_batch, run_simulation
from .field import pgm_raster, write_pgm
from .metrics import MetricsSeries, write_atomic
from .stats import AnovaResult, DesignError, anova_main_effects, bin_means, median_series

SCHEMA_VERSION = 1
DEFAULT_SNAPSHOT_TIMES = (0, 1000, 4000)
MANIFEST_HEADER = "n_robots,beta,repetition,seed,path,status"
ANOVA_HEADER = "factor,F,p,df_between,df_within"
RESPONSES = ("mean_cue", "coherency_m")  # the MetricsSeries columns analyze tests, in SweepAnalysis's field order
# most robots and field cells (8 MB) in a sweep's batch: 6 runs at N=50 still ran 1.7x faster than one by one
BATCH_ROBOTS = 300
BATCH_CELLS = 1_000_000


class SweepFailure(RuntimeError):
    """One or more sweep runs failed; the manifest records which, and the message names the first and why."""


# --- key-value config files ---------------------------------------------------

# config-file keys and their types, one per SimConfig field; f.type is the
# annotation string ("int" or "float") that validate() also reads
_TYPES = {"int": int, "float": float}
_RUN_FIELDS: dict[str, type] = {f.name: _TYPES[f.type] for f in fields(SimConfig)}


def _parse_kv_file(path) -> dict[str, str]:
    """The `key = value` pairs of a config or plan file, its schema_version checked and left out."""
    pairs: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text config file ({exc})") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value
    if "schema_version" not in pairs:
        raise ConfigError(f"{path}: missing required key 'schema_version'")
    version = pairs.pop("schema_version")
    if version != str(SCHEMA_VERSION):
        raise ConfigError(f"{path}: unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    return pairs


def _convert(path, key: str, value: str, caster: type):
    try:
        return caster(value)
    except ValueError:
        raise ConfigError(f"{path}: key {key!r} has invalid {caster.__name__} value {value!r}")


def _sim_config(path, pairs: dict[str, str], grid_owned=()) -> SimConfig:
    """The SimConfig of a file's pairs, each key a SimConfig field outside grid_owned; not yet validated."""
    kwargs = {}
    for key, value in pairs.items():
        if key in grid_owned:
            raise ConfigError(f"{path}: key {key!r} is owned by the sweep grid, not the plan physics")
        if key not in _RUN_FIELDS:
            raise ConfigError(f"{path}: unknown key {key!r}")
        kwargs[key] = _convert(path, key, value, _RUN_FIELDS[key])
    return SimConfig(**kwargs)


def load_run_config(path) -> SimConfig:
    """Parse a run config file into a validated SimConfig."""
    cfg = _sim_config(path, _parse_kv_file(path))
    cfg.validate()
    return cfg


@dataclass
class ExperimentPlan:
    """Sweep grid plus the shared physics of every run.

    Every grid cell's config is validated here, so a plan that exists can
    run: no sweep starts and then finds a cell the engine rejects.
    """

    populations: tuple[int, ...] = (10, 20, 30, 40, 50)
    betas: tuple[float, ...] = (3.0, 6.0)
    repetitions: int = field(default=6, metadata={"min": 1})
    base_seed: int = 1
    base_config: SimConfig = field(default_factory=SimConfig)

    def __post_init__(self):
        check_fields(self)  # repetitions and base_seed, as SimConfig.validate() checks its fields
        if not self.populations:
            raise ConfigError("at least one population is required")
        if not self.betas:
            raise ConfigError("at least one beta is required")
        cells: dict[str, tuple] = {}
        for n in self.populations:
            for beta in self.betas:
                replace(self.base_config, n_robots=n, beta=beta, seed=0).validate()
                name = cell_name(n, beta)
                if name in cells:
                    raise ConfigError(
                        f"grid cells {cells[name]} and {(n, beta)} would share the run directories {name}_rep*"
                    )
                cells[name] = (n, beta)

    def runs(self) -> list["RunSpec"]:
        out = []
        for n in self.populations:
            for beta in self.betas:
                for rep in range(self.repetitions):
                    out.append(
                        RunSpec(
                            n_robots=n,
                            beta=float(beta),
                            repetition=rep,
                            seed=derive_run_seed(self.base_seed, n, beta, rep),
                            path=run_name(n, beta, rep),
                        )
                    )
        return out


def cell_name(n_robots: int, beta: float) -> str:
    """Name of a grid cell in run directories and median files, e.g. N30_beta6."""
    return f"N{n_robots:02d}_beta{beta:g}"


def run_name(n_robots: int, beta: float, repetition: int) -> str:
    """Name of a run's directory, e.g. N30_beta6_rep0."""
    return f"{cell_name(n_robots, beta)}_rep{repetition}"


@dataclass
class RunSpec:
    n_robots: int
    beta: float
    repetition: int
    seed: int
    path: str
    status: str = "ok"


def load_plan(path) -> ExperimentPlan:
    """Parse a sweep plan file (grid keys plus optional physics overrides)."""
    pairs = _parse_kv_file(path)
    grid = {}  # keys left out take ExperimentPlan's defaults
    for key, caster in (("populations", int), ("betas", float)):
        if key in pairs:
            grid[key] = tuple(_convert(path, key, v.strip(), caster) for v in pairs.pop(key).split(","))
    for key in ("repetitions", "base_seed"):
        if key in pairs:
            grid[key] = _convert(path, key, pairs.pop(key), int)
    return ExperimentPlan(**grid, base_config=_sim_config(path, pairs, grid_owned=("n_robots", "beta", "seed")))


def derive_run_seed(base_seed: int, n_robots: int, beta: float, repetition: int) -> int:
    """Stable 63-bit seed from the run coordinates; independent of grid size."""
    tag = f"swarmclean:{base_seed}:{n_robots}:{float(beta)!r}:{repetition}"
    digest = hashlib.sha256(tag.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# --- commands -----------------------------------------------------------------

def cmd_run(config: SimConfig, out_dir, snapshot_times=None) -> dict:
    """Execute one run; write metrics.csv, metrics.csv.bin and this run's PGM snapshots, and only those, into out_dir.

    Snapshot times are whole seconds in [0, duration_s], rasterized by an
    observer; the default times are clipped to the duration, requested
    ones outside it are a ConfigError before the run starts.
    """
    if snapshot_times is None:
        snapshot_times = [t for t in DEFAULT_SNAPSHOT_TIMES if t <= config.duration_s]
    wanted = set(snapshot_times)
    for t in wanted:
        if isinstance(t, bool) or not isinstance(t, numbers.Integral):
            raise ConfigError(f"snapshot times must be whole seconds, got {t!r}")
    outside = sorted(t for t in wanted if not 0 <= t <= config.duration_s)
    if outside:
        raise ConfigError(f"snapshot times {outside} lie outside [0, {config.duration_s}] s")
    snapshots = {}

    def keep_snapshots(world) -> None:
        if world.t in wanted:
            snapshots[world.t] = pgm_raster(world.field)

    result = run_simulation(config, observer=keep_snapshots)
    metrics_path, snap_paths = _write_run(out_dir, result.series, snapshots)
    return {"metrics": metrics_path, "snapshots": snap_paths, "result": result}


def _write_run(out_dir, series: MetricsSeries, snapshots: dict) -> tuple[str, dict]:
    """Write one run's metrics.csv and snapshot rasters into out_dir, and remove any other snapshot_t*.pgm there."""
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    series.to_csv(metrics_path)
    snap_paths = {t: os.path.join(out_dir, f"snapshot_t{t}.pgm") for t in sorted(snapshots)}
    for t, path in snap_paths.items():
        write_pgm(snapshots[t], path)
    for name in set(os.listdir(out_dir)) - {os.path.basename(path) for path in snap_paths.values()}:
        if name.startswith("snapshot_t") and name.endswith(".pgm"):
            os.remove(os.path.join(out_dir, name))
    return metrics_path, snap_paths


def _sweep_worker(batch) -> list[tuple[int, str]]:
    """Run one batch of (index, config, run_dir) tasks as one `run_batch`; return (index, status)s."""
    try:
        worlds = run_batch([cfg for _, cfg, _ in batch])
    except Exception as exc:  # not a placement (a bug, MemoryError): every run of the batch fails with it
        worlds = [exc] * len(batch)
    statuses = []
    for (index, _, run_dir), world in zip(batch, worlds):
        try:
            if isinstance(world, Exception):
                raise world
            _write_run(run_dir, world.series, {})
            statuses.append((index, "ok"))
        except Exception as exc:  # recorded per-run; the sweep keeps going and removes what the run left
            statuses.append((index, f"failed: {type(exc).__name__}: {exc}"))
    return statuses


def _map_tasks(fn, tasks: list[tuple], workers: int) -> list:
    """fn(*task) for each task, in task order; in this process when min(workers, tasks) is 1, else in a pool that size.

    A task lost with a dead worker, during its submission or while it ran, comes back as its BrokenProcessPool; tasks
    that finished keep their results. Any other exception propagates once the pool has ended.
    """
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(*task) for task in tasks]
    # imported on use: the pool machinery adds about 1 MB and a dozen modules to every command's start-up
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def outcome(call, *args):
        try:
            return call(*args)
        except BrokenProcessPool as exc:
            return exc

    # under the fork start method the pool starts every worker up front, so no more than there are tasks
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [outcome(pool.submit, fn, *task) for task in tasks]  # once one worker has died, every submit fails
        return [future if isinstance(future, BrokenProcessPool) else outcome(future.result) for future in futures]


def write_manifest(path, runs: list[RunSpec]) -> None:
    statuses = [r.status if r.status == "ok" else "failed" for r in runs]
    rows = [f"{r.n_robots},{float(r.beta)!r},{r.repetition},{r.seed},{r.path},{s}\n" for r, s in zip(runs, statuses)]
    write_atomic(path, MANIFEST_HEADER + "\n" + "".join(rows))


def read_manifest(path) -> list[RunSpec]:
    """The runs of a manifest as write_manifest writes it; a row that no sweep could have written is a ConfigError."""
    runs, seen = [], {}
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip()
        if header != MANIFEST_HEADER:
            raise ConfigError(f"{path}: unexpected manifest header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            try:
                # int() and float() accept digit separators such as 1_0, which write_manifest never writes
                if len(parts) != 6 or any("_" in cell for cell in parts[:4]):
                    raise ValueError("expected n_robots, beta, repetition, seed, path, status")
                n_robots, beta, repetition, seed = int(parts[0]), float(parts[1]), int(parts[2]), int(parts[3])
                if min(n_robots, beta, repetition) < 0 or not math.isfinite(beta):
                    raise ValueError("n_robots, beta and repetition must be finite and >= 0")
                if parts[4] != run_name(n_robots, beta, repetition):  # which also rules out ../ and /
                    raise ValueError(f"the path of this run is {run_name(n_robots, beta, repetition)}")
                if parts[4] in seen:
                    raise ValueError(f"the run of line {seen[parts[4]]} again")
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: malformed manifest row {line.strip()!r} ({exc})") from None
            seen[parts[4]] = lineno
            runs.append(RunSpec(n_robots, beta, repetition, seed, path=parts[4], status=parts[5]))
    return runs


def cmd_sweep(plan: ExperimentPlan, out_dir, jobs: int = 1) -> list[RunSpec]:
    """Run the full grid; write per-run metrics and the sweep manifest.

    The runs of all grid cells are packed into batches, one `run_batch` each
    in a bounded worker pool: max(jobs, robots / BATCH_ROBOTS, runs * field
    cells / BATCH_CELLS) batches, rounded up and at most one per run. Runs
    are dealt largest population first, each to the batch with the fewest
    robots (then runs), or to a new batch where that would break a cap.
    Batches go most robots first so the pool does not end on slow ones;
    outputs depend only on each run's derived seed, not on the packing. A
    run that cannot be placed fails alone; any other error in a batch (a
    bug, a MemoryError) fails every run of that batch with the same message.
    A worker process that dies breaks the pool: its batch and every one not
    yet finished are marked failed instead of waiting forever. Once every
    worker has ended, each run not ok loses its metrics.csv and
    metrics.csv.bin, and its directory if that is then empty, whatever
    failed it. Failures are recorded in the manifest and reported via
    SweepFailure after the sweep ends. jobs < 1 is a ConfigError.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    runs = plan.runs()
    os.makedirs(out_dir, exist_ok=True)
    base = plan.base_config
    tasks = [(idx, replace(base, n_robots=r.n_robots, beta=r.beta, seed=r.seed), os.path.join(out_dir, r.path))
             for idx, r in enumerate(runs)]

    def robots(batch) -> int:
        return sum(cfg.n_robots for _, cfg, _ in batch)

    field_cells = round(base.arena_width_cm) * round(base.arena_height_cm)
    k = max(jobs, -(-robots(tasks) // BATCH_ROBOTS), -(-len(tasks) * field_cells // BATCH_CELLS))
    batches: list[list] = [[] for _ in range(min(k, len(tasks)))]
    for task in sorted(tasks, key=lambda task: -task[1].n_robots):
        batch = min(batches, key=lambda b: (robots(b), len(b)))
        if batch and (robots(batch) + task[1].n_robots > BATCH_ROBOTS or (len(batch) + 1) * field_cells > BATCH_CELLS):
            batches.append(batch := [])
        batch.append(task)
    batches.sort(key=lambda batch: -robots(batch))

    for batch, statuses in zip(batches, _map_tasks(_sweep_worker, [(batch,) for batch in batches], jobs)):
        if isinstance(statuses, Exception):  # the batch was lost with its worker process
            statuses = [(idx, f"failed: {type(statuses).__name__}: {statuses}") for idx, _, _ in batch]
        for idx, status in statuses:
            runs[idx].status = status
    for run in (r for r in runs if r.status != "ok"):  # every worker has ended, whatever failed the run
        run_dir = os.path.join(out_dir, run.path)
        for name in ("metrics.csv", "metrics.csv.bin"):  # a failed run keeps neither, nor a directory of only them
            with contextlib.suppress(OSError):  # also when they were never written
                os.remove(os.path.join(run_dir, name))
        with contextlib.suppress(OSError):  # kept if it holds other files
            os.rmdir(run_dir)
    write_manifest(os.path.join(out_dir, "manifest.csv"), runs)
    failed = [r for r in runs if r.status != "ok"]
    if failed:
        why = failed[0].status.removeprefix("failed: ")
        raise SweepFailure(f"{len(failed)} of {len(runs)} runs failed, first {failed[0].path}: {why}; see manifest")
    return runs


@dataclass
class SweepAnalysis:
    anova_mean_cue: AnovaResult
    anova_coherency: AnovaResult


def sweep_run_paths(sweep_dir, allow_partial: bool = False) -> dict[tuple[int, float], list[str]]:
    """Every run's metrics.csv path from the sweep's manifest, grouped by (population, beta) in manifest order."""
    cells: dict[tuple[int, float], list[str]] = {}
    missing = []
    for spec in read_manifest(os.path.join(sweep_dir, "manifest.csv")):
        csv_path = os.path.join(sweep_dir, spec.path, "metrics.csv")
        if spec.status != "ok" or not os.path.exists(csv_path):
            missing.append(spec.path)
            continue
        cells.setdefault((spec.n_robots, spec.beta), []).append(csv_path)
    if missing and not allow_partial:
        raise ConfigError(f"{len(missing)} runs missing or failed (e.g. {missing[0]}); allow_partial analyzes the rest")
    if not cells:
        raise ConfigError(f"{sweep_dir}: no usable runs")
    return cells


def _reduce_cell(name: str, paths: list[str], time_bins: int, staged: str) -> np.ndarray:
    """Write a cell's median series to `staged`; return its (runs, responses, time_bins) bin means of RESPONSES.

    A run off the first run's time grid, or too short for the bins, is a ConfigError naming the cell and its file.
    """
    runs = [MetricsSeries.from_csv(path) for path in paths]
    means = []
    for path, run in zip(paths, runs):
        try:
            if not np.array_equal(run.t, runs[0].t):
                raise ValueError(f"its time grid differs from that of {paths[0]}")
            means.append([bin_means(getattr(run, response), time_bins) for response in RESPONSES])
        except ValueError as exc:
            raise ConfigError(f"cell {name}: {path}: {exc}") from None
    with open(staged, "w", newline="") as fh:  # not write_atomic, whose temp file a killed worker would leave behind
        fh.write(median_series(runs).csv_text())
    return np.array(means)


def build_observation_table(cells: list[tuple[int, float]], means: list[np.ndarray]) -> tuple[np.ndarray, list]:
    """The responses and the factors of anova_main_effects, from each cell's (runs, responses, time bins) bin means.

    Each response is a row of the (responses, rows) array returned, one row per (run, time bin) of each cell in order.
    The factors are time bin, population and speed; one constant over the sweep carries no information and is dropped,
    and a sweep in which none varies is a DesignError.
    """
    rows = [len(m) * m.shape[2] for m in means]
    factors = (
        ("time", np.arange(sum(rows)) % means[0].shape[2]),
        ("population", np.repeat([n for n, _ in cells], rows)),
        ("speed", np.repeat([beta for _, beta in cells], rows)),
    )
    varying = [(name, levels) for name, levels in factors if len(np.unique(levels)) >= 2]
    if not varying:
        raise DesignError("at least one factor is required")
    return np.concatenate([m.swapaxes(0, 1).reshape(m.shape[1], -1) for m in means], axis=1), varying


def anova_csv(result: AnovaResult) -> str:
    rows = [f"{e.name},{e.f_value!r},{e.p_value!r},{e.df_between},{e.df_within}\n" for e in result.effects]
    return ANOVA_HEADER + "\n" + "".join(rows)


def cmd_analyze(sweep_dir, allow_partial: bool = False, time_bins: int = 8) -> SweepAnalysis:
    """Reduce a sweep: per-cell median series plus one ANOVA per response, written to sweep_dir/analysis/.

    Each grid cell is one task, in one worker process per cell up to the CPUs this process may run on (one worker runs
    them in-process) through _map_tasks, as in cmd_sweep; no output depends on the worker count, and a worker that dies
    is an OSError naming the sweep. Each task stages its cell's medians in sweep_dir, beside analysis/, and then this
    process one anova_<response>.csv per response; once all are staged, they are renamed into analysis/ and stale median
    files removed. On an error before the renames, every staged file is removed and analysis/ is left as it was. The
    SweepAnalysis holds the ANOVAs alone: read a cell's medians with MetricsSeries.from_csv.
    """
    if time_bins < 1:  # checked once, here, before any file is read
        raise ConfigError(f"time_bins must be >= 1, got {time_bins}")
    cells = sweep_run_paths(sweep_dir, allow_partial=allow_partial)
    keys = sorted(cells)
    names = [cell_name(n, beta) for n, beta in keys]
    outputs = [f"medians_{name}.csv" for name in names] + [f"anova_{response}.csv" for response in RESPONSES]
    staged = [os.path.join(sweep_dir, f"{output}.{os.getpid()}.tmp") for output in outputs]
    tasks = list(zip(names, [cells[key] for key in keys], [time_bins] * len(keys), staged))
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    out_dir = os.path.join(sweep_dir, "analysis")
    try:
        means = _map_tasks(_reduce_cell, tasks, workers)
        lost = next((m for m in means if isinstance(m, Exception)), None)
        if lost is not None:
            raise OSError(f"{sweep_dir}: an analyze worker process died: {lost}")
        responses, factors = build_observation_table(keys, means)
        anovas = [anova_main_effects(y, factors) for y in responses]
        for anova, path in zip(anovas, staged[len(names):]):
            with open(path, "w", newline="") as fh:
                fh.write(anova_csv(anova))
        # every output is staged: from here on, analysis/ changes by its creation and renames alone
        os.makedirs(out_dir, exist_ok=True)
        for output, path in zip(outputs, staged):
            os.replace(path, os.path.join(out_dir, output))
    except BaseException:
        # outside the pool's `with`, whose shutdown has waited for every worker, so none writes a staged file later
        for path in staged:
            with contextlib.suppress(OSError):  # never written, or already moved
                os.remove(path)
        raise
    for stale in set(os.listdir(out_dir)) - set(outputs):
        if stale.startswith("medians_") and stale.endswith(".csv"):
            os.remove(os.path.join(out_dir, stale))
    return SweepAnalysis(*anovas)
