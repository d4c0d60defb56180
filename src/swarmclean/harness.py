"""Batch execution: run configs, parameter sweeps, and sweep analysis.

Config and plan files are plain `key = value` text with a mandatory
`schema_version`; unknown keys are rejected so a typo cannot silently
change the physics. Every run's seed is derived by hashing the plan's
base seed with the run's (population, bias, repetition) coordinates, so
extending a plan never perturbs existing runs.
"""
from __future__ import annotations

import hashlib
import numbers
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .engine import ConfigError, SimConfig, run_simulation
from .field import init_circular_gradient, pgm_raster, read_pgm, write_pgm
from .metrics import MetricsSeries, open_atomic
from .stats import AnovaResult, ObservationTable, anova_main_effects, bin_means, median_series

SCHEMA_VERSION = 1
DEFAULT_SNAPSHOT_TIMES = (0, 1000, 4000)
MANIFEST_HEADER = "n_robots,beta,repetition,seed,path,status"
ANOVA_HEADER = "factor,F,p,df_between,df_within"


class SweepFailure(RuntimeError):
    """One or more sweep runs failed; the manifest records which."""


# --- key-value config files ---------------------------------------------------

# config-file keys and their types, one per SimConfig field; f.type is the
# annotation string ("int", "float" or "str") that validate() also reads
_TYPES = {"int": int, "float": float, "str": str}
_RUN_FIELDS: dict[str, type] = {f.name: _TYPES[f.type] for f in fields(SimConfig)}


def _parse_kv_file(path) -> dict[str, str]:
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
    return pairs


def _check_schema_version(pairs: dict[str, str], path) -> None:
    if "schema_version" not in pairs:
        raise ConfigError(f"{path}: missing required key 'schema_version'")
    version = pairs.pop("schema_version")
    if version != str(SCHEMA_VERSION):
        raise ConfigError(f"{path}: unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")


def _convert(path, key: str, value: str, caster: type):
    try:
        return caster(value)
    except ValueError:
        raise ConfigError(f"{path}: key {key!r} has invalid {caster.__name__} value {value!r}")


def load_run_config(path) -> SimConfig:
    """Parse a run config file into a validated SimConfig."""
    pairs = _parse_kv_file(path)
    _check_schema_version(pairs, path)
    kwargs = {}
    for key, value in pairs.items():
        if key not in _RUN_FIELDS:
            raise ConfigError(f"{path}: unknown key {key!r}")
        kwargs[key] = _convert(path, key, value, _RUN_FIELDS[key])
    cfg = SimConfig(**kwargs)
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
    repetitions: int = 6
    base_seed: int = 1
    base_config: SimConfig = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.base_config is None:
            self.base_config = SimConfig()
        for name in ("repetitions", "base_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
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
                            path=f"{cell_name(n, beta)}_rep{rep}",
                        )
                    )
        return out


def cell_name(n_robots: int, beta: float) -> str:
    """Name of a grid cell in run directories and median files, e.g. N30_beta6."""
    return f"N{n_robots:02d}_beta{beta:g}"


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
    _check_schema_version(pairs, path)
    grid = {}  # keys left out take ExperimentPlan's defaults
    cfg_kwargs = {}
    for key, value in pairs.items():
        if key in ("populations", "betas"):
            caster = int if key == "populations" else float
            grid[key] = tuple(_convert(path, key, v.strip(), caster) for v in value.split(","))
        elif key in ("repetitions", "base_seed"):
            grid[key] = _convert(path, key, value, int)
        elif key in _RUN_FIELDS:
            if key in ("n_robots", "beta", "seed"):
                raise ConfigError(f"{path}: key {key!r} is owned by the sweep grid, not the plan physics")
            cfg_kwargs[key] = _convert(path, key, value, _RUN_FIELDS[key])
        else:
            raise ConfigError(f"{path}: unknown key {key!r}")
    return ExperimentPlan(**grid, base_config=SimConfig(**cfg_kwargs))


def derive_run_seed(base_seed: int, n_robots: int, beta: float, repetition: int) -> int:
    """Stable 63-bit seed from the run coordinates; independent of grid size."""
    tag = f"swarmclean:{base_seed}:{n_robots}:{float(beta)!r}:{repetition}"
    digest = hashlib.sha256(tag.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# --- commands -----------------------------------------------------------------

def cmd_run(config: SimConfig, out_dir, snapshot_times=None) -> dict:
    """Execute one run; write metrics.csv and this run's PGM snapshots, and only those, into out_dir.

    Snapshot times are whole seconds in [0, duration_s], rasterized by an
    observer; the default times are clipped to the duration, requested
    ones outside it are a ConfigError before the run starts.
    """
    config.validate()
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
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    result.series.to_csv(metrics_path)
    snap_paths = {t: os.path.join(out_dir, f"snapshot_t{t}.pgm") for t in sorted(snapshots)}
    for t, path in snap_paths.items():
        write_pgm(snapshots[t], path)
    for name in set(os.listdir(out_dir)) - {os.path.basename(path) for path in snap_paths.values()}:
        if name.startswith("snapshot_t") and name.endswith(".pgm"):
            os.remove(os.path.join(out_dir, name))
    return {"metrics": metrics_path, "snapshots": snap_paths, "result": result}


def _sweep_worker(args) -> tuple[int, str]:
    index, cfg, run_dir = args
    try:
        cmd_run(cfg, run_dir, snapshot_times=())
        return index, "ok"
    except Exception as exc:  # recorded per-run; the sweep keeps going
        return index, f"failed: {type(exc).__name__}: {exc}"


def write_manifest(path, runs: list[RunSpec]) -> None:
    with open_atomic(path) as fh:
        fh.write(MANIFEST_HEADER + "\n")
        for r in runs:
            status = r.status if r.status == "ok" else "failed"
            fh.write(f"{r.n_robots},{float(r.beta)!r},{r.repetition},{r.seed},{r.path},{status}\n")


def read_manifest(path) -> list[RunSpec]:
    runs = []
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip()
        if header != MANIFEST_HEADER:
            raise ConfigError(f"{path}: unexpected manifest header {header!r}")
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != 6:
                raise ConfigError(f"{path}: malformed manifest row {line!r}")
            runs.append(
                RunSpec(
                    n_robots=int(parts[0]),
                    beta=float(parts[1]),
                    repetition=int(parts[2]),
                    seed=int(parts[3]),
                    path=parts[4],
                    status=parts[5],
                )
            )
    return runs


def cmd_sweep(plan: ExperimentPlan, out_dir, jobs: int = 1) -> list[RunSpec]:
    """Run the full grid; write per-run metrics and the sweep manifest.

    Runs execute in a bounded worker pool, largest population first so the
    pool does not end on a tail of slow runs; outputs depend only on each
    run's derived seed, never on scheduling order. A worker process that
    dies breaks the pool: its run and every run not yet finished are marked
    failed instead of waiting forever. Failures are recorded in the
    manifest and reported via SweepFailure after the sweep ends.
    """
    runs = plan.runs()
    os.makedirs(out_dir, exist_ok=True)
    tasks = []
    for idx, spec in enumerate(runs):
        cfg = replace(plan.base_config, n_robots=spec.n_robots, beta=spec.beta, seed=spec.seed)
        tasks.append((idx, cfg, os.path.join(out_dir, spec.path)))
    tasks.sort(key=lambda task: -task[1].n_robots)

    if jobs > 1 and len(tasks) > 1:
        # imported on use: the pool machinery adds about 1 MB and a dozen
        # modules to every command's start-up, and only this one needs it
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        # under the fork start method the pool starts every worker up front, so no more than there are runs
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            futures = {pool.submit(_sweep_worker, task): task[0] for task in tasks}
            for future in as_completed(futures):
                try:
                    _, status = future.result()
                except BrokenProcessPool as exc:
                    status = f"failed: BrokenProcessPool: {exc}"
                runs[futures[future]].status = status
    else:
        for task in tasks:
            idx, status = _sweep_worker(task)
            runs[idx].status = status

    write_manifest(os.path.join(out_dir, "manifest.csv"), runs)
    failed = [r for r in runs if r.status != "ok"]
    if failed:
        raise SweepFailure(f"{len(failed)} of {len(runs)} runs failed; see manifest")
    return runs


@dataclass
class SweepAnalysis:
    medians: dict[tuple[int, float], MetricsSeries]
    anova_mean_cue: AnovaResult
    anova_coherency: AnovaResult


def load_sweep_series(sweep_dir, allow_partial: bool = False) -> dict[tuple[int, float], list[MetricsSeries]]:
    """Load every run's metrics series, grouped by (population, beta)."""
    manifest_path = os.path.join(sweep_dir, "manifest.csv")
    runs = read_manifest(manifest_path)
    groups: dict[tuple[int, float], list[MetricsSeries]] = {}
    missing = []
    for spec in runs:
        csv_path = os.path.join(sweep_dir, spec.path, "metrics.csv")
        if spec.status != "ok" or not os.path.exists(csv_path):
            missing.append(spec.path)
            continue
        groups.setdefault((spec.n_robots, spec.beta), []).append(MetricsSeries.from_csv(csv_path))
    if missing and not allow_partial:
        raise ConfigError(
            f"{len(missing)} runs missing or failed (e.g. {missing[0]}); pass allow_partial to analyze anyway"
        )
    if not groups:
        raise ConfigError(f"{sweep_dir}: no usable runs")
    return groups


def build_observation_table(
    groups: dict[tuple[int, float], list[MetricsSeries]],
    response: str,
    time_bins: int = 8,
) -> ObservationTable:
    """One row per (run, time bin): the bin-mean response with factors
    time bin, population, and speed.

    Factors that are constant over the sweep (a single population or a
    single speed) carry no information and are dropped from the design.
    """
    rows = []
    t_levels = []
    n_levels = []
    v_levels = []
    for (n, beta), series_list in sorted(groups.items()):
        for series in series_list:
            values = getattr(series, response)
            for k, m in enumerate(bin_means(values, time_bins)):
                rows.append(m)
                t_levels.append(k)
                n_levels.append(n)
                v_levels.append(beta)
    factors = []
    for name, levels in (
        ("time", np.array(t_levels)),
        ("population", np.array(n_levels)),
        ("speed", np.array(v_levels)),
    ):
        if len(np.unique(levels)) >= 2:
            factors.append((name, levels))
    return ObservationTable(response=np.array(rows), factors=factors)


def write_anova_csv(path, result: AnovaResult) -> None:
    with open_atomic(path) as fh:
        fh.write(ANOVA_HEADER + "\n")
        for e in result.effects:
            fh.write(f"{e.name},{e.f_value!r},{e.p_value!r},{e.df_between},{e.df_within}\n")


def cmd_analyze(sweep_dir, allow_partial: bool = False, time_bins: int = 8) -> SweepAnalysis:
    """Reduce a sweep: per-cell median series plus ANOVA for both responses."""
    groups = load_sweep_series(sweep_dir, allow_partial=allow_partial)
    # everything that can fail runs before the first write, so a failed analyze leaves analysis/ as it was
    medians = {cell: median_series(series_list) for cell, series_list in sorted(groups.items())}
    anova_cue = anova_main_effects(build_observation_table(groups, "mean_cue", time_bins))
    anova_coh = anova_main_effects(build_observation_table(groups, "coherency_m", time_bins))

    out_dir = os.path.join(sweep_dir, "analysis")
    os.makedirs(out_dir, exist_ok=True)
    for (n, beta), med in medians.items():
        med.to_csv(os.path.join(out_dir, f"medians_{cell_name(n, beta)}.csv"))
    write_anova_csv(os.path.join(out_dir, "anova_mean_cue.csv"), anova_cue)
    write_anova_csv(os.path.join(out_dir, "anova_coherency_m.csv"), anova_coh)
    return SweepAnalysis(medians=medians, anova_mean_cue=anova_cue, anova_coherency=anova_coh)


def cmd_render(field_path, out_path) -> None:
    """Re-emit a PGM snapshot, or render the initial field of a run config."""
    with open(field_path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"P5":
        field = read_pgm(field_path)
    else:
        cfg = load_run_config(field_path)
        field = init_circular_gradient(
            cfg.arena_width_cm, cfg.arena_height_cm, cfg.cue_center, cfg.cue_radius_cm, cfg.cue_peak
        )
    write_pgm(pgm_raster(field), out_path)
