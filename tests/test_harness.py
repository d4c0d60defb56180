import concurrent.futures
import concurrent.futures.process
import itertools
import os
import shutil
import signal
import tempfile
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmclean import engine, harness
from swarmclean.cli import main as cli_main
from swarmclean.engine import ConfigError, PlacementError, SimConfig, run_simulation
from swarmclean.field import init_circular_gradient, pgm_raster, to_pgm_bytes
from swarmclean.harness import (
    RESPONSES,
    ExperimentPlan,
    SweepFailure,
    anova_csv,
    cmd_analyze,
    cmd_run,
    cell_name,
    cmd_sweep,
    derive_run_seed,
    load_plan,
    load_run_config,
    read_manifest,
    sweep_run_paths,
    write_manifest,
)
from swarmclean.metrics import MetricsSeries
from swarmclean.stats import median_series

from test_stats import effect

RUN_CONFIG = """\
schema_version = 1
n_robots = 4
beta = 6
duration_s = 8      # short smoke run
dt_s = 0.1
seed = 42
"""

PLAN = """\
schema_version = 1
populations = 3,5
betas = 6
repetitions = 2
base_seed = 99
duration_s = 12
"""


def write(path, text):
    path.write_text(text)
    return str(path)


def initial_pgm(cfg):
    """The PGM file of a config's initial field."""
    field = init_circular_gradient(
        cfg.arena_width_cm, cfg.arena_height_cm, cfg.cue_center, cfg.cue_radius_cm, cfg.cue_peak
    )
    return to_pgm_bytes(pgm_raster(field))


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_run_seed(1, 30, 6.0, 2) == derive_run_seed(1, 30, 6.0, 2)

    def test_distinct_across_coordinates(self):
        seeds = {
            derive_run_seed(1, n, b, r)
            for n in (10, 20, 30, 40, 50)
            for b in (3.0, 6.0)
            for r in range(6)
        }
        assert len(seeds) == 60

    def test_independent_of_grid_shape(self):
        # the same cell hashes identically no matter what else the plan holds
        small = ExperimentPlan(populations=(30,), betas=(6.0,), repetitions=1, base_seed=7)
        big = ExperimentPlan(populations=(10, 30, 50), betas=(3.0, 6.0), repetitions=3, base_seed=7)
        seed_small = {(r.n_robots, r.beta, r.repetition): r.seed for r in small.runs()}
        seed_big = {(r.n_robots, r.beta, r.repetition): r.seed for r in big.runs()}
        for key, seed in seed_small.items():
            assert seed_big[key] == seed

    def test_nonnegative_63_bit(self):
        s = derive_run_seed(2**32, 50, 3.0, 5)
        assert 0 <= s < 2**63


class TestRunConfigParsing:
    def test_valid_config(self, tmp_path):
        cfg = load_run_config(write(tmp_path / "run.cfg", RUN_CONFIG))
        assert cfg.n_robots == 4
        assert cfg.beta == 6.0
        assert cfg.duration_s == 8
        assert cfg.seed == 42

    def test_defaults_fill_missing_keys(self, tmp_path):
        cfg = load_run_config(write(tmp_path / "run.cfg", "schema_version = 1\n"))
        assert cfg.n_robots == SimConfig().n_robots
        assert cfg.arena_width_cm == 285.0

    def test_unknown_key_rejected(self, tmp_path):
        for line, key in (("robot_count = 3", "robot_count"), ("waiting_formula = squared", "waiting_formula")):
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                load_run_config(write(tmp_path / "run.cfg", f"schema_version = 1\n{line}\n"))

    def test_missing_schema_version(self, tmp_path):
        with pytest.raises(ConfigError, match="schema_version"):
            load_run_config(write(tmp_path / "run.cfg", "n_robots = 3\n"))

    def test_wrong_schema_version(self, tmp_path):
        with pytest.raises(ConfigError, match="schema_version"):
            load_run_config(write(tmp_path / "run.cfg", "schema_version = 9\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            load_run_config(write(tmp_path / "run.cfg", "schema_version = 1\nbeta = 3\nbeta = 6\n"))

    def test_bad_value_type(self, tmp_path):
        with pytest.raises(ConfigError, match="invalid int"):
            load_run_config(write(tmp_path / "run.cfg", "schema_version = 1\nn_robots = many\n"))

    def test_physics_validation_applies(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(write(tmp_path / "run.cfg", "schema_version = 1\ndt_s = 0.3\n"))

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ConfigError, match="key = value"):
            load_run_config(write(tmp_path / "run.cfg", "schema_version = 1\nnot a pair\n"))


class TestPlanParsing:
    def test_plan_values(self, tmp_path):
        plan = load_plan(write(tmp_path / "p.cfg", PLAN))
        assert plan.populations == (3, 5)
        assert plan.betas == (6.0,)
        assert plan.repetitions == 2
        assert plan.base_seed == 99
        assert plan.base_config.duration_s == 12

    def test_defaults(self, tmp_path):
        plan = load_plan(write(tmp_path / "p.cfg", "schema_version = 1\n"))
        assert plan.populations == (10, 20, 30, 40, 50)
        assert plan.betas == (3.0, 6.0)
        assert plan.repetitions == 6
        assert len(plan.runs()) == 60

    def test_grid_owned_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="owned by the sweep grid"):
            load_plan(write(tmp_path / "p.cfg", "schema_version = 1\nbeta = 6\n"))

    def test_repeated_population_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="N10_beta3_rep"):
            load_plan(write(tmp_path / "p.cfg", "schema_version = 1\npopulations = 10,10\nbetas = 3\n"))

    def test_betas_sharing_a_path_rejected(self, tmp_path):
        # 3 and 3.0000001 both print as beta3 in the run path
        with pytest.raises(ConfigError, match="N10_beta3_rep"):
            load_plan(write(tmp_path / "p.cfg", "schema_version = 1\npopulations = 10\nbetas = 3,3.0000001\n"))

    def test_every_cell_validated(self):
        # only the second beta exceeds wheel_max
        with pytest.raises(ConfigError, match="beta"):
            ExperimentPlan(populations=(3, 5), betas=(6.0, 11.0))

    def test_single_cell_plan(self, tmp_path):
        plan = load_plan(write(tmp_path / "p.cfg", "schema_version = 1\npopulations = 4\nbetas = 6\nrepetitions = 1\n"))
        assert len(plan.runs()) == 1


# a valid config in which every SimConfig field differs from its default
NON_DEFAULT = {
    "n_robots": 7,
    "beta": 5.5,
    "alpha": 2.5,
    "omega_max_s": 25.0,
    "arena_width_cm": 300.0,
    "arena_height_cm": 290.0,
    "cue_radius_cm": 100.0,
    "cue_peak": 200.0,
    "duration_s": 7,
    "dt_s": 0.2,
    "seed": 5,
    "body_radius_cm": 3.5,
    "wheel_base_cm": 7.0,
    "contact_range_cm": 9.0,
    "wall_range_cm": 1.5,
    "refractory_s": 1.5,
    "metric_radius_cm": 60.0,
    "turn_min_deg": 80.0,
    "turn_max_deg": 170.0,
    "turn_rate_deg_s": 150.0,
    "wheel_max": 9.5,
}
GRID_OWNED = ("n_robots", "beta", "seed")


def kv_text(values):
    return "schema_version = 1\n" + "".join(f"{key} = {value}\n" for key, value in values.items())


class TestConfigTable:
    def test_table_covers_every_field_with_non_default_values(self):
        default = SimConfig()
        assert [f.name for f in fields(SimConfig)] == list(NON_DEFAULT)
        for f in fields(SimConfig):
            assert type(NON_DEFAULT[f.name]).__name__ == f.type
            assert NON_DEFAULT[f.name] != getattr(default, f.name)

    def test_run_config_round_trip(self, tmp_path):
        cfg = load_run_config(write(tmp_path / "run.cfg", kv_text(NON_DEFAULT)))
        assert cfg == SimConfig(**NON_DEFAULT)
        for name, value in NON_DEFAULT.items():
            assert type(getattr(cfg, name)) is type(value)

    def test_plan_accepts_every_physics_field(self, tmp_path):
        physics = {k: v for k, v in NON_DEFAULT.items() if k not in GRID_OWNED}
        plan = load_plan(write(tmp_path / "p.cfg", kv_text(physics)))
        assert plan.base_config == SimConfig(**physics)
        for key in GRID_OWNED:
            with pytest.raises(ConfigError, match="owned by the sweep grid"):
                load_plan(write(tmp_path / "p.cfg", kv_text({key: NON_DEFAULT[key]})))

    def test_empty_plan_takes_the_plan_defaults(self, tmp_path):
        assert load_plan(write(tmp_path / "p.cfg", kv_text({}))) == ExperimentPlan()


class TestCmdRun:
    def test_outputs_and_row_count(self, tmp_path):
        cfg = load_run_config(write(tmp_path / "run.cfg", RUN_CONFIG))
        out = cmd_run(cfg, tmp_path / "out")
        series = MetricsSeries.from_csv(out["metrics"])
        assert len(series) == 8  # one row per second plus the header
        assert list(out["snapshots"]) == [0]  # 1000 and 4000 exceed the duration

    def test_snapshot_t0_center_pixel(self, tmp_path):
        cfg = load_run_config(write(tmp_path / "run.cfg", RUN_CONFIG))
        out = cmd_run(cfg, tmp_path / "out")
        with open(out["snapshots"][0], "rb") as fh:
            data = fh.read()
        assert data == initial_pgm(cfg)
        assert data[len(b"P5\n285 285\n255\n") + 142 * 285 + 142] == 255

    def test_custom_snapshot_times(self, tmp_path):
        cfg = load_run_config(write(tmp_path / "run.cfg", RUN_CONFIG))
        out = cmd_run(cfg, tmp_path / "out", snapshot_times=[0, 4, 8])
        assert sorted(out["snapshots"]) == [0, 4, 8]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = load_run_config(write(tmp_path / "run.cfg", RUN_CONFIG))
        out1 = cmd_run(cfg, tmp_path / "a")
        out2 = cmd_run(cfg, tmp_path / "b")
        with open(out1["metrics"], "rb") as f1, open(out2["metrics"], "rb") as f2:
            assert f1.read() == f2.read()

    @staticmethod
    def refuse_to_run(monkeypatch):
        """Replace the engine with one that records and fails every call; returns the call list."""
        calls = []

        def run(*args, **kwargs):
            calls.append(args)
            raise AssertionError("run_simulation was called")

        monkeypatch.setattr(harness, "run_simulation", run)
        return calls

    def test_snapshot_times_outside_the_run_rejected(self, tmp_path, monkeypatch):
        calls = self.refuse_to_run(monkeypatch)
        out = tmp_path / "out"
        for times in ([-3, 99], [0, 6], [-1]):
            with pytest.raises(ConfigError, match="snapshot times"):
                cmd_run(SimConfig(duration_s=5), out, snapshot_times=times)
        assert not out.exists()
        assert calls == []

    def test_snapshot_times_must_be_whole_seconds(self, tmp_path, monkeypatch):
        calls = self.refuse_to_run(monkeypatch)
        out = tmp_path / "out"
        for times in ([2.5, 4.9], [3.0], ["3"], [True], [np.float64(2.0)]):
            with pytest.raises(ConfigError, match="whole seconds"):
                cmd_run(SimConfig(duration_s=5), out, snapshot_times=times)
        assert not out.exists()
        assert calls == []

    def test_snapshot_times_accept_numpy_integers(self, tmp_path):
        out = cmd_run(SimConfig(n_robots=5, duration_s=3, seed=11), tmp_path / "out", snapshot_times=np.arange(4))
        assert sorted(out["snapshots"]) == [0, 1, 2, 3]

    def test_snapshots_at_requested_times(self, tmp_path):
        cfg = SimConfig(n_robots=5, duration_s=10, seed=11)
        seen = {}
        run_simulation(cfg, observer=lambda world: seen.setdefault(world.t, world.field.copy()))
        out = cmd_run(cfg, tmp_path / "out", snapshot_times=[0, 5, 10])
        assert sorted(out["snapshots"]) == [0, 5, 10]
        for t, path in out["snapshots"].items():
            with open(path, "rb") as fh:
                assert fh.read() == to_pgm_bytes(pgm_raster(seen[t]))
        # the final snapshot is the field at the end of the run, after the last row
        assert np.array_equal(seen[10], out["result"].field)

    def test_run_without_snapshots_clears_earlier_ones(self, tmp_path):
        out = tmp_path / "out"
        cmd_run(SimConfig(n_robots=5, duration_s=3, seed=0), out, snapshot_times=[0, 3])
        cmd_run(SimConfig(n_robots=5, duration_s=3, seed=0), out, snapshot_times=())
        assert sorted(p.name for p in out.iterdir()) == ["metrics.csv", "metrics.csv.bin"]


class TestPlanTypes:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"repetitions": 2.5},
            {"repetitions": 2.0},
            {"repetitions": True},
            {"repetitions": "2"},
            {"base_seed": 1.5},
            {"base_seed": False},
            {"base_seed": None},
        ],
    )
    def test_repetitions_and_base_seed_must_be_integers(self, overrides):
        with pytest.raises(ConfigError, match="must be an integer"):
            ExperimentPlan(**overrides)

    def test_numpy_integers_accepted(self):
        plan = ExperimentPlan(populations=(3,), betas=(6.0,), repetitions=np.int64(2), base_seed=np.int32(4))
        assert len(plan.runs()) == 2


def tree(root) -> dict:
    """Every path under root, each file with its bytes: equal before and after means nothing was written or left."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def see_cpus(monkeypatch, count):
    """Make this process look as if it may run on `count` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def tiny_plan(**overrides):
    kwargs = dict(
        populations=(3, 5),
        betas=(6.0,),
        repetitions=2,
        base_seed=99,
        base_config=SimConfig(duration_s=12),
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


def refuse_placement(monkeypatch, *seeds) -> list[int]:
    """Make the engine refuse to place the runs of these seeds; returns the seeds of all placements, as tried."""
    attempts = []
    place = engine._place_robots

    def refuse(config, rng):
        attempts.append(config.seed)
        if config.seed in seeds:
            raise PlacementError("placement refused for this seed")
        return place(config, rng)

    monkeypatch.setattr(engine, "_place_robots", refuse)
    return attempts


class TestCmdSweep:
    def test_manifest_complete_and_files_exist(self, tmp_path):
        out = tmp_path / "sweep"
        runs = cmd_sweep(tiny_plan(), out)
        assert len(runs) == 4
        manifest = read_manifest(out / "manifest.csv")
        assert len(manifest) == 4
        listed = set()
        for spec in manifest:
            assert spec.status == "ok"
            csv_path = out / spec.path / "metrics.csv"
            assert csv_path.exists()
            listed.add(spec.path)
        # every produced run directory is listed
        produced = {p.name for p in out.iterdir() if p.is_dir()}
        assert produced == listed

    def test_rerun_is_byte_identical(self, tmp_path):
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        cmd_sweep(tiny_plan(), out1)
        cmd_sweep(tiny_plan(), out2)
        for spec in read_manifest(out1 / "manifest.csv"):
            a = (out1 / spec.path / "metrics.csv").read_bytes()
            b = (out2 / spec.path / "metrics.csv").read_bytes()
            assert a == b
        assert (out1 / "manifest.csv").read_bytes() == (out2 / "manifest.csv").read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        cmd_sweep(tiny_plan(), serial, jobs=1)
        cmd_sweep(tiny_plan(), parallel, jobs=2)
        for spec in read_manifest(serial / "manifest.csv"):
            assert (serial / spec.path / "metrics.csv").read_bytes() == (
                parallel / spec.path / "metrics.csv"
            ).read_bytes()

    def test_partial_failure_recorded(self, tmp_path):
        # 7 bodies pass the packing bound of a 20 cm arena, but no more than 5 can be placed in it; 3 robots can
        plan = tiny_plan(
            populations=(3, 7),
            base_config=SimConfig(duration_s=5, arena_width_cm=20.0, arena_height_cm=20.0, cue_radius_cm=8.0),
        )
        out = tmp_path / "sweep"
        with pytest.raises(SweepFailure):
            cmd_sweep(plan, out)
        manifest = read_manifest(out / "manifest.csv")
        by_pop = {}
        for spec in manifest:
            by_pop.setdefault(spec.n_robots, set()).add(spec.status)
        assert by_pop[3] == {"ok"}
        assert by_pop[7] == {"failed"}

    def test_failed_run_leaves_no_directory(self, tmp_path):
        plan = tiny_plan(
            populations=(3, 7),
            base_config=SimConfig(duration_s=5, arena_width_cm=20.0, arena_height_cm=20.0, cue_radius_cm=8.0),
        )
        out = tmp_path / "sweep"
        with pytest.raises(SweepFailure):
            cmd_sweep(plan, out)
        for spec in read_manifest(out / "manifest.csv"):
            assert (out / spec.path).exists() == (spec.status == "ok")

    def test_run_whose_own_write_fails_leaves_no_directory(self, tmp_path, monkeypatch):
        """A run that fails writing its metrics.csv (here a full disk) leaves no empty run directory."""

        def disk_full(series, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(MetricsSeries, "to_csv", disk_full)
        out = tmp_path / "sweep"
        with pytest.raises(SweepFailure, match="No space left on device"):
            cmd_sweep(tiny_plan(populations=(3,), repetitions=1), out, jobs=1)
        assert sorted(p.name for p in out.iterdir()) == ["manifest.csv"]

    def test_failed_run_leaves_its_batch_siblings_as_a_clean_sweep(self, tmp_path, monkeypatch):
        plan = tiny_plan()
        victim = plan.runs()[1]  # N=3, repetition 1: at --jobs 1 every other run shares its batch
        clean = tmp_path / "clean"
        cmd_sweep(plan, clean)
        place = engine._place_robots

        def fail_victim(config, rng):
            if config.seed == victim.seed:
                raise PlacementError("placement refused for this seed")
            return place(config, rng)

        monkeypatch.setattr(engine, "_place_robots", fail_victim)
        out = tmp_path / "sweep"
        with pytest.raises(SweepFailure):
            cmd_sweep(plan, out)
        statuses = {spec.path: spec.status for spec in read_manifest(out / "manifest.csv")}
        assert statuses.pop(victim.path) == "failed"
        assert set(statuses.values()) == {"ok"}
        assert not (out / victim.path).exists()
        for path in statuses:
            assert (out / path / "metrics.csv").read_bytes() == (clean / path / "metrics.csv").read_bytes()

    def test_failed_run_leaves_its_siblings_from_other_cells_as_a_clean_sweep(self, tmp_path, monkeypatch):
        plan = tiny_plan(betas=(3.0, 6.0))
        victim = plan.runs()[1]  # N=3, beta 3, repetition 1
        clean = tmp_path / "clean"
        cmd_sweep(plan, clean, jobs=2)
        place = engine._place_robots

        def fail_victim(config, rng):
            if config.seed == victim.seed:
                raise PlacementError("placement refused for this seed")
            return place(config, rng)

        monkeypatch.setattr(engine, "_place_robots", fail_victim)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
        monkeypatch.setattr(_RecordingExecutor, "batches", [])
        out = tmp_path / "sweep"
        with pytest.raises(SweepFailure):
            cmd_sweep(plan, out, jobs=2)
        # the victim's batch also held runs of other populations and speeds
        victim_batch = next(b for b in _RecordingExecutor.batches if victim.seed in [c.seed for _, c, _ in b])
        assert {(c.n_robots, c.beta) for _, c, _ in victim_batch} > {(victim.n_robots, victim.beta)}
        statuses = {spec.path: spec.status for spec in read_manifest(out / "manifest.csv")}
        assert statuses.pop(victim.path) == "failed"
        assert set(statuses.values()) == {"ok"}
        assert not (out / victim.path).exists()
        for path in statuses:
            assert (out / path / "metrics.csv").read_bytes() == (clean / path / "metrics.csv").read_bytes()

    @pytest.mark.parametrize(
        "overrides", [dict(populations=(3,), repetitions=1), {}], ids=["batch-of-one", "batch-of-four"]
    )
    def test_failing_run_alone_in_its_batch_is_attempted_once(self, tmp_path, monkeypatch, overrides):
        """No run is placed twice: a failed placement, which can take seconds, is tried once, in one run_batch call.

        At --jobs 1 the plan is one batch, of one run or of four.
        """
        plan = tiny_plan(**overrides)
        victim = plan.runs()[0]
        attempts = refuse_placement(monkeypatch, victim.seed)
        batch_sizes = []
        batch = harness.run_batch

        def record_batch(configs):
            batch_sizes.append(len(configs))
            return batch(configs)

        monkeypatch.setattr(harness, "run_batch", record_batch)
        out = tmp_path / "sweep"
        with pytest.raises(SweepFailure):
            cmd_sweep(plan, out)
        statuses = {spec.path: spec.status for spec in read_manifest(out / "manifest.csv")}
        assert statuses.pop(victim.path) == "failed"
        assert set(statuses.values()) <= {"ok"}
        assert sorted(attempts) == sorted(run.seed for run in plan.runs())
        assert batch_sizes == [len(plan.runs())]

    def test_failed_run_in_a_reused_sweep_dir_keeps_no_stale_metrics(self, tmp_path, monkeypatch):
        """The failed run's metrics.csv from an earlier sweep goes, and with it a directory that held only that."""
        plan = tiny_plan()
        out = tmp_path / "sweep"
        cmd_sweep(plan, out)
        emptied, kept = plan.runs()[1], plan.runs()[3]
        (out / kept.path / "notes.txt").write_text("not the sweep's")
        refuse_placement(monkeypatch, emptied.seed, kept.seed)
        with pytest.raises(SweepFailure):
            cmd_sweep(plan, out)
        statuses = {spec.path: spec.status for spec in read_manifest(out / "manifest.csv")}
        assert (statuses[emptied.path], statuses[kept.path]) == ("failed", "failed")
        assert not (out / emptied.path).exists()
        assert sorted(p.name for p in (out / kept.path).iterdir()) == ["notes.txt"]

    def test_error_that_is_not_a_placement_fails_its_whole_batch(self, tmp_path, monkeypatch):
        """Any other error in a batch fails each of its runs with the same message; other batches run on."""
        batch = harness.run_batch

        def boom(configs):
            if len(configs) > 1:
                raise RuntimeError("boom")
            return batch(configs)

        statuses = []
        worker = harness._sweep_worker

        def recording_worker(tasks):
            statuses.extend(worker(tasks))
            return statuses[-len(tasks):]

        monkeypatch.setattr(harness, "run_batch", boom)
        monkeypatch.setattr(harness, "_sweep_worker", recording_worker)
        monkeypatch.setattr(harness, "BATCH_ROBOTS", 6)  # the batches [5], [5] and [3, 3]
        out = tmp_path / "sweep"
        with pytest.raises(SweepFailure, match="RuntimeError: boom"):
            cmd_sweep(tiny_plan(), out)
        assert sorted(status for _, status in statuses) == ["failed: RuntimeError: boom"] * 2 + ["ok"] * 2
        manifest = read_manifest(out / "manifest.csv")
        assert {(spec.n_robots, spec.status) for spec in manifest} == {(3, "failed"), (5, "ok")}
        assert {spec.path for spec in manifest if spec.status == "ok"} == {p.name for p in out.iterdir() if p.is_dir()}

    def test_outputs_do_not_depend_on_the_packing(self, tmp_path, monkeypatch):
        """--jobs 1, 2 and 3 pack a two-speed plan into different batches and write the same bytes."""
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
        monkeypatch.setattr(_RecordingExecutor, "batches", [])
        packings = []
        worker = harness._sweep_worker

        def recording_worker(batch):
            packings[-1].append(sorted(idx for idx, _, _ in batch))
            return worker(batch)

        monkeypatch.setattr(harness, "_sweep_worker", recording_worker)
        plan = tiny_plan(betas=(3.0, 6.0))
        for jobs in (1, 2, 3):
            packings.append([])
            cmd_sweep(plan, tmp_path / f"jobs{jobs}", jobs=jobs)
        assert len({str(sorted(packing)) for packing in packings}) == 3
        assert list(map(len, packings)) == [1, 2, 3]
        for jobs in (2, 3):
            for name in ["manifest.csv", *(os.path.join(spec.path, "metrics.csv") for spec in plan.runs())]:
                assert (tmp_path / f"jobs{jobs}" / name).read_bytes() == (tmp_path / "jobs1" / name).read_bytes()

    def test_reused_sweep_dir_keeps_no_stale_snapshot(self, tmp_path):
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(), out)
        run_dir = out / read_manifest(out / "manifest.csv")[0].path
        (run_dir / "snapshot_t5.pgm").write_bytes(b"stale")
        cmd_sweep(tiny_plan(), out)
        assert sorted(p.name for p in run_dir.iterdir()) == ["metrics.csv", "metrics.csv.bin"]


    def test_reused_sweep_dir_keeps_a_directory_at_a_snapshot_name(self, tmp_path):
        """A directory by a stale snapshot's name stays, and the run in it is ok."""
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(base_config=SimConfig(duration_s=5)), out)
        run_dir = out / read_manifest(out / "manifest.csv")[0].path
        (run_dir / "snapshot_t3.pgm").mkdir()
        runs = cmd_sweep(tiny_plan(base_config=SimConfig(duration_s=5)), out)
        assert [r.status for r in runs] == ["ok"] * len(runs)
        assert sorted(p.name for p in run_dir.iterdir()) == ["metrics.csv", "metrics.csv.bin", "snapshot_t3.pgm"]
        assert (run_dir / "snapshot_t3.pgm").is_dir()


def _worker_that_dies_at_n5(batch):
    """Sweep worker whose process exits abruptly on the batch of N=5 runs."""
    if batch[0][1].n_robots == 5:
        os._exit(3)
    return _SWEEP_WORKER(batch)


_SWEEP_WORKER = harness._sweep_worker


class _RecordingExecutor:
    """Synchronous stand-in for ProcessPoolExecutor that records its size and submissions.

    Each submission is recorded as the populations of the batch's runs, and the batch itself in `batches`.
    """

    submitted: list[list[int]] = []
    batches: list[list] = []
    max_workers: list[int] = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, batch):
        self.submitted.append([cfg.n_robots for _, cfg, _ in batch])
        self.batches.append(batch)
        future = concurrent.futures.Future()
        future.set_result(fn(batch))
        return future


class _BreaksAfterFirstSubmission(_RecordingExecutor):
    """A pool whose first batch's worker dies while the later batches are still being submitted."""

    def submit(self, fn, batch):
        if self.submitted:
            raise concurrent.futures.process.BrokenProcessPool("a child process terminated abruptly")
        return super().submit(fn, batch)


class TestSweepPool:
    def test_dead_worker_fails_its_runs_instead_of_hanging(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_sweep_worker", _worker_that_dies_at_n5)

        def hang(signum, frame):
            raise TimeoutError("sweep hung after a worker died")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(60)
        try:
            with pytest.raises(SweepFailure):
                cmd_sweep(tiny_plan(), tmp_path / "sweep", jobs=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        manifest = read_manifest(tmp_path / "sweep" / "manifest.csv")
        assert len(manifest) == 4
        assert {spec.status for spec in manifest if spec.n_robots == 5} == {"failed"}

    def test_dead_worker_in_a_reused_sweep_dir_leaves_no_metrics_of_a_failed_run(self, tmp_path, monkeypatch):
        """Whichever batches the dead worker takes down with it, a failed run keeps no metrics and an ok run its bytes.

        At --jobs 2 the plan is the batches [7] and [5, 3], and the worker of [5, 3] dies. Whether the batch [7]
        finishes first is timing, so the test holds the invariant rather than the statuses.
        """
        plan = tiny_plan(populations=(3, 5, 7), repetitions=1)
        out = tmp_path / "sweep"
        cmd_sweep(plan, tmp_path / "clean", jobs=2)
        shutil.copytree(tmp_path / "clean", out)
        kept = next(run for run in plan.runs() if run.n_robots == 3)
        (out / kept.path / "notes.txt").write_text("not the sweep's")
        monkeypatch.setattr(harness, "_sweep_worker", _worker_that_dies_at_n5)
        with pytest.raises(SweepFailure, match="BrokenProcessPool"):
            cmd_sweep(plan, out, jobs=2)
        statuses = {spec.path: spec.status for spec in read_manifest(out / "manifest.csv")}
        assert statuses[kept.path] == "failed" and set(statuses.values()) <= {"ok", "failed"}
        for path, status in statuses.items():
            if status == "ok":
                for name in ("metrics.csv", "metrics.csv.bin"):
                    assert (out / path / name).read_bytes() == (tmp_path / "clean" / path / name).read_bytes()
            elif path == kept.path:
                assert sorted(p.name for p in (out / path).iterdir()) == ["notes.txt"]
            else:
                assert not (out / path).exists()

    def test_dead_worker_during_submission_fails_the_unsubmitted_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _BreaksAfterFirstSubmission)
        monkeypatch.setattr(_RecordingExecutor, "submitted", [])
        with pytest.raises(SweepFailure, match="2 of 4 runs failed, .*BrokenProcessPool"):
            cmd_sweep(tiny_plan(), tmp_path / "sweep", jobs=2)
        statuses = [spec.status for spec in read_manifest(tmp_path / "sweep" / "manifest.csv")]
        assert sorted(statuses) == ["failed", "failed", "ok", "ok"]

    def test_largest_population_submitted_first(self, tmp_path, monkeypatch):
        """Runs are dealt largest population first, each to the batch with the fewest robots; most robots go first."""
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
        monkeypatch.setattr(_RecordingExecutor, "submitted", [])
        cmd_sweep(tiny_plan(populations=(3, 7, 5)), tmp_path / "two", jobs=2)
        cmd_sweep(tiny_plan(populations=(3, 7, 5)), tmp_path / "four", jobs=4)
        assert _RecordingExecutor.submitted == [[7, 5, 3], [7, 5, 3], [5, 3], [5, 3], [7], [7]]

    def test_batches_capped_at_batch_robots(self, tmp_path, monkeypatch):
        """A run that would take the fewest-robot batch over BATCH_ROBOTS opens another batch."""
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
        monkeypatch.setattr(_RecordingExecutor, "submitted", [])
        monkeypatch.setattr(harness, "BATCH_ROBOTS", 10)
        cmd_sweep(tiny_plan(populations=(3, 5), repetitions=5), tmp_path / "sweep", jobs=2)
        assert _RecordingExecutor.submitted == [[5, 5], [5, 3], [5, 3], [5, 3], [3, 3]]

    def test_cells_split_so_that_every_worker_has_a_batch(self, tmp_path, monkeypatch):
        """Every worker gets a batch: one cell is split three ways, and so are the four runs of two cells."""
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
        monkeypatch.setattr(_RecordingExecutor, "submitted", [])
        cmd_sweep(tiny_plan(populations=(3,), repetitions=6), tmp_path / "one", jobs=3)
        cmd_sweep(tiny_plan(repetitions=2), tmp_path / "two", jobs=3)
        assert _RecordingExecutor.submitted == [[3, 3], [3, 3], [3, 3], [3, 3], [5], [5]]

    def test_workers_capped_at_number_of_batches(self, tmp_path, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
        monkeypatch.setattr(_RecordingExecutor, "submitted", [])
        monkeypatch.setattr(_RecordingExecutor, "max_workers", [])
        plan = tiny_plan(repetitions=3)  # two cells of three runs: six batches at most, one per run
        cmd_sweep(plan, tmp_path / "wide", jobs=500)
        cmd_sweep(plan, tmp_path / "narrow", jobs=3)
        cmd_sweep(plan, tmp_path / "two", jobs=2)
        assert _RecordingExecutor.max_workers == [6, 3, 2]
        assert list(map(len, _RecordingExecutor.submitted[-2:])) == [3, 3]

    @staticmethod
    def packed(plan, jobs, monkeypatch) -> list[list[int]]:
        """The populations of each batch cmd_sweep submits for the plan, without running them."""
        batches = []

        def record(batch):
            batches.append([cfg.n_robots for _, cfg, _ in batch])
            return [(idx, "ok") for idx, _, _ in batch]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
        monkeypatch.setattr(_RecordingExecutor, "submitted", [])
        monkeypatch.setattr(_RecordingExecutor, "batches", [])
        monkeypatch.setattr(harness, "_sweep_worker", record)
        with tempfile.TemporaryDirectory() as out:
            cmd_sweep(plan, out, jobs=jobs)
        return batches

    def test_sweep_cells_shape_packs_into_batches_of_300_robots(self, monkeypatch):
        """The bench's sweep_cells grid at --jobs 2 is 2 batches of 300 robots; the default grid is 6 of them."""
        cells_shape = ExperimentPlan(repetitions=2, base_config=SimConfig(duration_s=1))
        assert [(sum(b), len(b)) for b in self.packed(cells_shape, 2, monkeypatch)] == [(300, 10)] * 2
        default_grid = ExperimentPlan(base_config=SimConfig(duration_s=1))
        assert [(sum(b), len(b)) for b in self.packed(default_grid, 2, monkeypatch)] == [(300, 10)] * 6

    @given(
        st.lists(st.integers(0, 120), min_size=1, max_size=5, unique=True),
        st.integers(1, 2),
        st.integers(1, 8),
        st.integers(1, 9),
        # every arena holds 120 bodies within the packing bound that validate() applies
        st.sampled_from([(285.0, 285.0), (100.0, 70.0), (1200.0, 900.0)]),
        st.sampled_from([(300, 1_000_000), (40, 200_000), (7, 10_000)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_batch_exceeds_the_caps(self, populations, n_betas, repetitions, jobs, arena, caps):
        """Every batch keeps to BATCH_ROBOTS and BATCH_CELLS, unless it is one run that alone exceeds a cap."""
        plan = ExperimentPlan(
            populations=tuple(populations), betas=(3.0, 6.0)[:n_betas], repetitions=repetitions,
            base_config=SimConfig(duration_s=1, arena_width_cm=arena[0], arena_height_cm=arena[1]),
        )
        field_cells = round(arena[0]) * round(arena[1])
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(harness, "BATCH_ROBOTS", caps[0])
            monkeypatch.setattr(harness, "BATCH_CELLS", caps[1])
            batches = self.packed(plan, jobs, monkeypatch)
        assert sorted(n for batch in batches for n in batch) == sorted(r.n_robots for r in plan.runs())
        assert len(batches) >= min(jobs, len(plan.runs())) and all(batches)
        for batch in batches:
            assert len(batch) == 1 or (sum(batch) <= caps[0] and len(batch) * field_cells <= caps[1])


class TestCmdAnalyze:
    def test_medians_match_direct_computation(self, tmp_path):
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(), out)
        cmd_analyze(out)
        cells = sweep_run_paths(out)
        assert sorted(p.name for p in (out / "analysis").glob("medians_*.csv")) == [
            f"medians_{cell_name(n, beta)}.csv" for n, beta in sorted(cells)
        ]
        for (n, beta), paths in cells.items():
            written = MetricsSeries.from_csv(out / "analysis" / f"medians_{cell_name(n, beta)}.csv")
            direct = median_series([MetricsSeries.from_csv(path) for path in paths])
            for column in ("t", "mean_cue", "ratio_within_rc", "coherency_m"):  # bit for bit: csv_text writes repr
                assert getattr(written, column).tobytes() == getattr(direct, column).tobytes()
        assert (out / "analysis" / "anova_mean_cue.csv").exists()
        assert (out / "analysis" / "anova_coherency_m.csv").exists()
        head = (out / "analysis" / "anova_mean_cue.csv").read_text().splitlines()[0]
        assert head == "factor,F,p,df_between,df_within"

    def test_refuses_missing_runs(self, tmp_path):
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(), out)
        victim = read_manifest(out / "manifest.csv")[0]
        os.remove(out / victim.path / "metrics.csv")
        with pytest.raises(ConfigError, match="allow_partial"):
            cmd_analyze(out)
        cmd_analyze(out, allow_partial=True)
        assert sorted(p.name for p in (out / "analysis").glob("medians_*.csv")) == [
            "medians_N03_beta6.csv", "medians_N05_beta6.csv"
        ]

    def test_time_bins_configurable(self, tmp_path):
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(), out)
        analysis = cmd_analyze(out, time_bins=3)
        assert effect(analysis["mean_cue"], "time").df_between == 2

    def test_duplicated_runs_flag_degenerate_variance(self, tmp_path):
        # craft a sweep whose repetitions are bit-identical: zero residual variance
        out = tmp_path / "sweep"
        out.mkdir()
        rows = []
        for n in (3, 5):
            for beta in (3.0, 6.0):
                for rep in range(2):
                    path = f"N{n:02d}_beta{beta:g}_rep{rep}"
                    (out / path).mkdir()
                    t = np.arange(8)
                    values = 10.0 + n + beta + t * 0.5  # same for both reps
                    MetricsSeries(
                        t=t.astype(np.int64),
                        mean_cue=values.astype(float),
                        ratio_within_rc=values * 0.01,
                        coherency_m=values * 0.1,
                    ).to_csv(out / path / "metrics.csv")
                    rows.append(f"{n},{float(beta)!r},{rep},{100+rep},{path},ok")
        (out / "manifest.csv").write_text("n_robots,beta,repetition,seed,path,status\n" + "\n".join(rows) + "\n")
        analysis = cmd_analyze(out, time_bins=2)
        assert analysis["mean_cue"].degenerate

    def test_failed_analyze_writes_nothing(self, tmp_path, monkeypatch):
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(betas=(3.0, 6.0), base_config=SimConfig(duration_s=5)), out)
        victim = out / read_manifest(out / "manifest.csv")[0].path / "metrics.csv"
        for cpus in (1, 2):  # reduced in-process, then in worker processes
            see_cpus(monkeypatch, cpus)
            shutil.rmtree(out / "analysis", ignore_errors=True)
            before = tree(out)
            with pytest.raises(ValueError, match="cannot form 9 bins"):
                cmd_analyze(out, time_bins=9)
            assert tree(out) == before  # neither analysis/ nor a staged median file

            cmd_analyze(out, time_bins=2)
            series = MetricsSeries.from_csv(victim)
            series.mean_cue[0] += 1.0  # moves its cell's median
            series.to_csv(victim)
            before = tree(out)
            with pytest.raises(ValueError, match="cannot form 9 bins"):
                cmd_analyze(out, time_bins=9)
            assert tree(out) == before

    @pytest.mark.parametrize(
        "row",
        ["x,6.0,0,17,N03_beta6_rep0,ok", "3,6.0,1_0,17,N03_beta6_rep0,ok", "3,6_0,0,17,N03_beta6_rep0,ok",
         "3,6.0,0,17,N03_beta6_rep0", "3,inf,0,17,N03_beta6_rep0,ok", "3,-inf,0,17,N03_beta6_rep0,ok",
         "3,nan,0,17,N03_beta6_rep0,ok", "3,-6.0,0,17,N03_beta6_rep0,ok", "-3,6.0,0,17,N03_beta6_rep0,ok",
         "3,6.0,-1,17,N03_beta6_rep0,ok", "3,6.0,1,17,N03_beta6_rep0,ok", "3,6.0,1,17,../N03_beta6_rep1,ok",
         "3,6.0,1,17,/sweep/N03_beta6_rep1,ok", "3,6.0,0,17,N03_beta6_rep0,ok", "3,6.0,0,18,N03_beta6_rep0,failed",
         "3,6.0000001,0,17,N03_beta6_rep0,ok"],
    )
    def test_malformed_manifest_row_names_file_and_row(self, tmp_path, capsys, row):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("n_robots,beta,repetition,seed,path,status\n3,6.0,0,17,N03_beta6_rep0,ok\n" + row + "\n")
        with pytest.raises(ConfigError, match=f"^{manifest}:3: malformed manifest row '{row}'"):
            read_manifest(manifest)
        assert cli_main(["analyze", "--dir", str(tmp_path)]) == 1
        assert f"error: {manifest}:3: malformed manifest row" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["inf", "nan"])
    def test_non_finite_manifest_beta_is_refused(self, tmp_path, capsys, beta):
        """Read as a level, an inf beta became a speed level and a median file, and a nan one a confounded factor."""
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(betas=(3.0, 6.0), base_config=SimConfig(duration_s=5)), out)
        manifest = out / "manifest.csv"
        lines = manifest.read_text().splitlines(keepends=True)
        edited = [k for k, line in enumerate(lines) if line.startswith("3,6.0,")]
        for k in edited:
            lines[k] = lines[k].replace("3,6.0,", f"3,{beta},", 1)
        manifest.write_text("".join(lines))
        before = tree(out)
        assert cli_main(["analyze", "--dir", str(out), "--time-bins", "2"]) == 1
        assert f"error: {manifest}:{edited[0] + 1}: malformed manifest row" in capsys.readouterr().err
        assert tree(out) == before

    def test_anova_csv_schema(self, tmp_path):
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(betas=(3.0, 6.0)), out)
        cmd_analyze(out)
        lines = (out / "analysis" / "anova_mean_cue.csv").read_text().splitlines()
        assert [ln.split(",")[0] for ln in lines] == ["factor", "time", "population", "speed"]
        for ln in lines[1:]:
            parts = ln.split(",")
            assert len(parts) == 5
            float(parts[1]), float(parts[2]), int(parts[3]), int(parts[4])

    def test_anova_csv_write_is_atomic(self, tmp_path, monkeypatch):
        """A table that cannot be written leaves no analysis/, no partial table and no staged file."""
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(betas=(3.0, 6.0)), out)
        before = tree(out)
        unprintable_anova(monkeypatch, RESPONSES.index("mean_cue"))
        with pytest.raises(RuntimeError, match="cannot format"):
            cmd_analyze(out)
        assert tree(out) == before

    def test_failed_second_anova_leaves_analysis_as_it_was(self, tmp_path, monkeypatch):
        """The second response's table failing to format changes no file: the medians and the first table are staged."""
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(betas=(3.0, 6.0), base_config=SimConfig(duration_s=5)), out)
        victim = out / read_manifest(out / "manifest.csv")[0].path / "metrics.csv"
        for cpus in (1, 2):  # reduced in-process, then in worker processes
            see_cpus(monkeypatch, cpus)
            cmd_analyze(out, time_bins=2)
            series = MetricsSeries.from_csv(victim)
            series.mean_cue[0] += 1.0  # moves its cell's median and both tables
            series.to_csv(victim)
            before = tree(out)
            with monkeypatch.context() as patch:
                unprintable_anova(patch, RESPONSES.index("coherency_m"))
                with pytest.raises(RuntimeError, match="cannot format"):
                    cmd_analyze(out, time_bins=2)
            assert tree(out) == before

    def test_stale_medians_are_removed(self, tmp_path):
        """A cell left out of a later analyze loses its median file; other files in analysis/ stay."""
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(populations=(3, 5, 7)), out)
        assert cli_main(["analyze", "--dir", str(out)]) == 0
        runs = read_manifest(out / "manifest.csv")
        for spec in runs:
            if spec.n_robots == 3:
                spec.status = "failed"
        write_manifest(out / "manifest.csv", runs)
        (out / "analysis" / "notes.txt").write_text("kept")
        assert cli_main(["analyze", "--dir", str(out), "--allow-partial"]) == 0
        assert sorted(p.name for p in (out / "analysis").iterdir()) == [
            "anova_coherency_m.csv", "anova_mean_cue.csv", "medians_N05_beta6.csv", "medians_N07_beta6.csv", "notes.txt"
        ]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_directory_at_a_stale_median_name_stays(self, tmp_path, capsys, monkeypatch, cpus):
        """A stale median file or symlink is removed; a directory by such a name is left, and analyze succeeds."""
        see_cpus(monkeypatch, cpus)
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(betas=(3.0, 6.0), base_config=SimConfig(duration_s=5)), out)
        (out / "analysis" / "medians_N09_beta6.csv").mkdir(parents=True)
        (out / "analysis" / "medians_N09_beta6.csv" / "notes.txt").write_text("kept")
        (out / "analysis" / "medians_N09_beta3.csv").write_text("stale")
        (tmp_path / "elsewhere").mkdir()
        (out / "analysis" / "medians_N11_beta6.csv").symlink_to(tmp_path / "elsewhere", target_is_directory=True)
        assert cli_main(["analyze", "--dir", str(out), "--time-bins", "2"]) == 0
        assert "error" not in capsys.readouterr().err  # 5 s runs warn of a degenerate mean_cue ANOVA
        assert sorted(p.name for p in (out / "analysis").iterdir()) == [
            "anova_coherency_m.csv", "anova_mean_cue.csv", "medians_N03_beta3.csv", "medians_N03_beta6.csv",
            "medians_N05_beta3.csv", "medians_N05_beta6.csv", "medians_N09_beta6.csv"
        ]
        assert (out / "analysis" / "medians_N09_beta6.csv" / "notes.txt").read_text() == "kept"
        assert (tmp_path / "elsewhere").is_dir()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("damage, rep", [("row-short", 1), ("header-only", 1), ("row-short", 0)])
    def test_run_off_the_time_grid_names_cell_and_file(self, tmp_path, capsys, monkeypatch, damage, rep, cpus):
        see_cpus(monkeypatch, cpus)
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(), out)
        victim = out / f"N03_beta6_rep{rep}" / "metrics.csv"
        lines = victim.read_text().splitlines(keepends=True)
        victim.write_text("".join(lines[:-1] if damage == "row-short" else lines[:1]))
        before = tree(out)
        assert cli_main(["analyze", "--dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cell N03_beta6: ") and str(victim) in err and "time grid" in err
        assert len(err.splitlines()) == 1 and not (out / "analysis").exists()
        assert tree(out) == before  # no staged median file either

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_too_few_samples_for_the_bins_names_cell_and_file(self, tmp_path, capsys, monkeypatch, cpus):
        see_cpus(monkeypatch, cpus)
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(), out)  # 12 rows per run
        assert cli_main(["analyze", "--dir", str(out), "--time-bins", "13"]) == 1
        first = out / "N03_beta6_rep0" / "metrics.csv"
        assert capsys.readouterr().err == f"error: cell N03_beta6: {first}: cannot form 13 bins from 12 samples\n"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_directory_at_an_output_name_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch, cpus):
        """Refused before any cell is reduced; met among the renames, it kept the outputs renamed before it."""
        see_cpus(monkeypatch, cpus)
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(betas=(3.0, 6.0), base_config=SimConfig(duration_s=5)), out)
        cmd_analyze(out, time_bins=2)
        blocker = out / "analysis" / "anova_coherency_m.csv"
        blocker.unlink()
        blocker.mkdir()
        before = tree(out)
        with pytest.raises(IsADirectoryError) as refused:
            cmd_analyze(out, time_bins=4)  # a new anova_mean_cue.csv, were it renamed in
        assert tree(out) == before
        assert str(refused.value) == f"{blocker}: a directory holds the name of an analyze output"
        assert cli_main(["analyze", "--dir", str(out), "--time-bins", "4"]) == 2
        assert capsys.readouterr().err == f"error: {refused.value}\n"
        assert tree(out) == before

    def test_symlink_at_an_output_name_is_replaced(self, tmp_path):
        """os.replace replaces a link, even one to a directory, and leaves what it points to alone."""
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(), out)
        (out / "analysis").mkdir()
        (tmp_path / "elsewhere").mkdir()
        link = out / "analysis" / "anova_mean_cue.csv"
        link.symlink_to(tmp_path / "elsewhere", target_is_directory=True)
        cmd_analyze(out)
        assert link.is_file() and not link.is_symlink()
        assert list((tmp_path / "elsewhere").iterdir()) == []

    def test_single_speed_sweep_drops_constant_factor(self, tmp_path):
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(), out)  # one beta only
        analysis = cmd_analyze(out)
        names = [e.name for e in analysis["mean_cue"].effects]
        assert names == ["time", "population"]


def unprintable_anova(monkeypatch, response: int) -> None:
    """Make the ANOVA of the response-th of RESPONSES return a first F whose repr raises; the others are as computed."""

    class Unprintable(float):
        def __repr__(self):
            raise RuntimeError("cannot format")

    calls, anova = itertools.count(), harness.anova_main_effects

    def patched(*args):
        result = anova(*args)
        if next(calls) % len(RESPONSES) == response:  # analyze computes one ANOVA per response, in order
            result.effects[0].f_value = Unprintable(result.effects[0].f_value)
        return result

    monkeypatch.setattr(harness, "anova_main_effects", patched)


def _task_that_dies(name, paths, time_bins, staged):
    """Per-cell analyze task whose worker process exits abruptly."""
    os._exit(3)


def _task_that_dies_after_staging(name, paths, time_bins, staged, reduce_cell=harness._reduce_cell):
    """Per-cell analyze task that reduces its cell, and whose worker exits abruptly once N05_beta6 is staged."""
    means = reduce_cell(name, paths, time_bins, staged)
    if name == "N05_beta6":
        os._exit(3)
    return means


class _SizedPool(concurrent.futures.process.ProcessPoolExecutor):
    """ProcessPoolExecutor that records the size of each pool made."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        super().__init__(max_workers)


class TestAnalyzeWorkers:
    @pytest.fixture
    def sweep(self, tmp_path):
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(betas=(3.0, 6.0)), out)  # four grid cells
        return out

    def test_outputs_do_not_depend_on_the_worker_count(self, sweep, monkeypatch):
        """One CPU reduces the cells in-process; more make a pool of min(cells, CPUs) workers. The bytes agree."""
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SizedPool)
        monkeypatch.setattr(_SizedPool, "sizes", [])
        outputs = []
        for cpus in (1, 3, 8, None):
            if cpus is None:  # no affinity call on this platform: the CPU count
                monkeypatch.delattr(os, "sched_getaffinity")
                monkeypatch.setattr(os, "cpu_count", lambda: 2)
            else:
                see_cpus(monkeypatch, cpus)
            shutil.rmtree(sweep / "analysis", ignore_errors=True)
            cmd_analyze(sweep)
            outputs.append({p.name: p.read_bytes() for p in (sweep / "analysis").iterdir()})
        assert _SizedPool.sizes == [3, 4, 2]
        assert len(outputs[0]) == 6 and all(output == outputs[0] for output in outputs)

    def test_outputs_do_not_depend_on_the_binary_copies(self, sweep, monkeypatch):
        """analyze writes the same bytes, in-process and in a pool, from each run's metrics.csv.bin as from its text."""
        copies = list(sweep.glob("*/metrics.csv.bin"))
        assert len(copies) == len(read_manifest(sweep / "manifest.csv"))

        def analyze(cpus) -> dict:
            see_cpus(monkeypatch, cpus)
            shutil.rmtree(sweep / "analysis", ignore_errors=True)
            cmd_analyze(sweep)
            return {p.name: p.read_bytes() for p in (sweep / "analysis").iterdir()}

        with mock.patch.object(np, "loadtxt", side_effect=AssertionError("parsed beside a sound copy")):
            outputs = [analyze(1)]  # in-process, where the patch reaches every read
        outputs.append(analyze(2))
        for copy in copies:
            copy.unlink()
        outputs += [analyze(1), analyze(2)]
        assert len(outputs[0]) == 6 and all(output == outputs[0] for output in outputs)

    def test_result_is_one_anova_per_response_file(self, sweep, monkeypatch):
        """The keys are RESPONSES, in order, and each value is the table that its anova_<response>.csv holds."""
        for cpus in (1, 2):  # reduced in-process, then in worker processes
            see_cpus(monkeypatch, cpus)
            analysis = cmd_analyze(sweep)
            assert list(analysis) == list(RESPONSES)
            for response, result in analysis.items():
                assert anova_csv(result).encode() == (sweep / "analysis" / f"anova_{response}.csv").read_bytes()

    def test_dead_worker_is_one_error_naming_the_sweep(self, sweep, capfd, monkeypatch):
        see_cpus(monkeypatch, 2)
        cmd_analyze(sweep)
        before = tree(sweep)

        def hang(signum, frame):
            raise TimeoutError("analyze hung after a worker died")

        for task in (_task_that_dies, _task_that_dies_after_staging):
            monkeypatch.setattr(harness, "_reduce_cell", task)
            previous = signal.signal(signal.SIGALRM, hang)
            signal.alarm(60)
            try:
                code = cli_main(["analyze", "--dir", str(sweep)])
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            out, err = capfd.readouterr()
            assert code == 2 and out == ""
            assert err.startswith(f"error: {sweep}: an analyze worker process died") and len(err.splitlines()) == 1
            assert tree(sweep) == before  # analysis/ as it was, and no staged median file left


class TestCli:
    def test_run_ok(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", RUN_CONFIG)
        code = cli_main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert "metrics.csv" in capsys.readouterr().out

    def test_reused_out_dir_keeps_no_stale_snapshot(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", RUN_CONFIG.replace("duration_s = 8", "duration_s = 6"))
        out = tmp_path / "out"
        (out / "notes").mkdir(parents=True)
        (out / "snapshot_t5.txt").write_text("kept")
        assert cli_main(["run", "--config", cfg, "--snapshot-times", "0,5", "--out", str(out)]) == 0
        assert (out / "snapshot_t5.pgm").exists()
        assert cli_main(["run", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "metrics.csv", "metrics.csv.bin", "notes", "snapshot_t0.pgm", "snapshot_t5.txt"
        ]
        # what is left is the second run's output alone
        fresh = tmp_path / "fresh"
        assert cli_main(["run", "--config", cfg, "--seed", "3", "--out", str(fresh)]) == 0
        for name in ("metrics.csv", "snapshot_t0.pgm"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()

    def test_reused_out_dir_keeps_a_directory_at_a_snapshot_name(self, tmp_path, capsys):
        """A stale snapshot file or symlink is removed; a directory by such a name is left, and the run succeeds."""
        cfg = write(tmp_path / "run.cfg", RUN_CONFIG.replace("duration_s = 8", "duration_s = 5"))
        out = tmp_path / "out"
        (out / "snapshot_t3.pgm").mkdir(parents=True)
        (out / "snapshot_t2.pgm").write_bytes(b"stale")
        (tmp_path / "elsewhere").mkdir()
        (out / "snapshot_t4.pgm").symlink_to(tmp_path / "elsewhere", target_is_directory=True)
        assert cli_main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert sorted(p.name for p in out.iterdir()) == [
            "metrics.csv", "metrics.csv.bin", "snapshot_t0.pgm", "snapshot_t3.pgm"
        ]
        assert (out / "snapshot_t3.pgm").is_dir() and (tmp_path / "elsewhere").is_dir()

    def test_run_seed_override_changes_output(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", RUN_CONFIG)
        cli_main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
        cli_main(["run", "--config", cfg, "--seed", "43", "--out", str(tmp_path / "b")])
        cli_main(["run", "--config", cfg, "--seed", "42", "--out", str(tmp_path / "c")])
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        c = (tmp_path / "c" / "metrics.csv").read_bytes()
        assert a != b
        assert a == c  # --seed 42 matches the config's own seed

    def test_bad_config_exit_code(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", "schema_version = 1\nwheelz = 4\n")
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1

    def test_unrunnable_physics_exit_code(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", "schema_version = 1\nwheel_base_cm = 0\n")
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1

    def test_unplaceable_swarm_exits_before_placement(self, tmp_path, monkeypatch):
        """Bodies beyond the densest packing are refused by validation, before rejection sampling starts."""

        def no_placement(*args):
            raise AssertionError("placement attempted")

        monkeypatch.setattr(engine, "_place_robots", no_placement)
        cfg = write(tmp_path / "run.cfg", "schema_version = 1\nn_robots = 2000\n")
        plan = write(tmp_path / "p.cfg", "schema_version = 1\npopulations = 10,2000\nbetas = 6\n")
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert cli_main(["sweep", "--plan", plan, "--out", str(tmp_path / "sweep")]) == 1
        with pytest.raises(ConfigError, match=r"pi/sqrt\(12\)"):
            ExperimentPlan(populations=(10, 2000))
        with pytest.raises(ConfigError, match=r"pi/sqrt\(12\)"):
            run_simulation(SimConfig(n_robots=2000))
        assert not os.path.exists(tmp_path / "out") and not os.path.exists(tmp_path / "sweep")

    def test_missing_config_is_io_error(self, tmp_path):
        assert cli_main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "out")]) == 2

    def test_unwritable_out_is_io_error(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", RUN_CONFIG)
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert cli_main(["run", "--config", cfg, "--out", str(blocker / "sub")]) == 2

    def test_sweep_and_analyze_roundtrip(self, tmp_path, capsys):
        plan = write(tmp_path / "p.cfg", PLAN)
        out = tmp_path / "sweep"
        assert cli_main(["sweep", "--plan", plan, "--out", str(out)]) == 0
        assert cli_main(["analyze", "--dir", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "mean_cue time:" in printed

    def test_sweep_partial_failure_exit_code(self, tmp_path, capsys):
        plan = write(
            tmp_path / "p.cfg",
            "schema_version = 1\npopulations = 3,7\nbetas = 6\nrepetitions = 1\n"
            "duration_s = 5\narena_width_cm = 20\narena_height_cm = 20\ncue_radius_cm = 8\n",
        )
        assert cli_main(["sweep", "--plan", plan, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err  # the first failed run and why, not only a count
        assert "N07_beta6_rep0" in err and "PlacementError" in err

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_sweep_rejects_jobs_below_one_before_writing(self, tmp_path, capsys, jobs):
        out = tmp_path / "sweep"
        with pytest.raises(ConfigError, match=f"jobs must be >= 1, got {jobs}"):
            cmd_sweep(tiny_plan(), out, jobs=jobs)
        plan = write(tmp_path / "p.cfg", PLAN)
        assert cli_main(["sweep", "--plan", plan, "--out", str(out), "--jobs", str(jobs)]) == 1
        assert capsys.readouterr().err == f"error: jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    def test_analyze_missing_dir(self, tmp_path):
        assert cli_main(["analyze", "--dir", str(tmp_path / "ghost")]) == 2

    def test_run_of_duration_0_writes_the_initial_field(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", RUN_CONFIG.replace("duration_s = 8", "duration_s = 0"))
        out = tmp_path / "t0"
        assert cli_main(["run", "--config", cfg, "--out", str(out)]) == 0
        data = (out / "snapshot_t0.pgm").read_bytes()
        assert data == initial_pgm(load_run_config(cfg))
        assert data[len(b"P5\n285 285\n255\n") + 142 * 285 + 142] == 255
        assert len(MetricsSeries.from_csv(out / "metrics.csv")) == 0  # the header only

    @pytest.mark.parametrize(
        "data",
        [
            pytest.param(b"\x89PNG not a field", id="garbage"),
            pytest.param(initial_pgm(SimConfig()), id="snapshot"),
            pytest.param(b"P5\n2 2\n65535\n" + bytes(8), id="corrupt-pgm"),
            pytest.param(b"P5\n285 28", id="truncated-header"),
            pytest.param(b"P5\n2 2\n255\n\x00", id="truncated-raster"),
            pytest.param(b"P5\n0 5\n255\n", id="no-columns"),
            pytest.param(b"P5\n-3 5\n255\n", id="negative-columns"),
            pytest.param(b"P5\n4 0\n255\n", id="no-rows"),
        ],
    )
    def test_run_rejects_a_file_that_is_not_a_config(self, tmp_path, capsys, data):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(data)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(bad), "--out", str(out)]) == 1
        assert f"error: {bad}" in capsys.readouterr().err
        assert not out.exists()

    def test_render_is_an_unknown_command(self, tmp_path, capsys):
        # an argparse usage error is a configuration error, exit 1, not EXIT_IO's 2
        cfg = write(tmp_path / "run.cfg", RUN_CONFIG)
        assert cli_main(["render", "--field", cfg, "--out", str(tmp_path / "field.pgm")]) == 1
        assert "invalid choice: 'render'" in capsys.readouterr().err
        assert not (tmp_path / "field.pgm").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--config", "run.cfg"], "the following arguments are required: --out"),
            (["sweep", "--plan", "p.cfg", "--out", "o", "--jobs", "x"], "invalid int value: 'x'"),
            ([], "the following arguments are required: command"),
        ],
    )
    def test_usage_errors_exit_with_config_error(self, capsys, argv, message):
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: swarmclean") and message in err

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert cli_main(["run", "--help"]) == 0
        out = capsys.readouterr().out
        assert out.count("usage: swarmclean") == 2 and "--snapshot-times" in out

    def test_analyze_corrupt_metrics_is_config_error(self, tmp_path, capsys, monkeypatch):
        see_cpus(monkeypatch, 2)  # parsed in a worker process: its error reaches stderr unchanged
        plan = write(tmp_path / "p.cfg", PLAN)
        out = tmp_path / "sweep"
        assert cli_main(["sweep", "--plan", plan, "--out", str(out)]) == 0
        victim = out / read_manifest(out / "manifest.csv")[0].path / "metrics.csv"
        victim.write_text("t,mean_cue\n0,1\n")
        capsys.readouterr()
        assert cli_main(["analyze", "--dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {victim}: unexpected metrics header 't,mean_cue'\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_analyze_non_finite_metric_is_config_error(self, tmp_path, capsys, monkeypatch, value, cpus):
        see_cpus(monkeypatch, cpus)  # one CPU reduces in-process, two in worker processes
        plan = write(tmp_path / "p.cfg", PLAN)
        out = tmp_path / "sweep"
        assert cli_main(["sweep", "--plan", plan, "--out", str(out)]) == 0
        victim = out / read_manifest(out / "manifest.csv")[-1].path / "metrics.csv"
        series = MetricsSeries.from_csv(victim)
        series.coherency_m[3] = value
        series.to_csv(victim)
        before = tree(out)
        capsys.readouterr()
        assert cli_main(["analyze", "--dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {victim}: non-finite value in column coherency_m\n"
        assert not (out / "analysis").exists()
        assert tree(out) == before  # no staged median file either

    def test_analyze_rejects_time_bins_below_one_before_reading(self, tmp_path, capsys, monkeypatch):
        see_cpus(monkeypatch, 1)  # reduced in-process, where the spy below sees every read
        out = tmp_path / "sweep"
        assert cli_main(["sweep", "--plan", write(tmp_path / "p.cfg", PLAN), "--out", str(out)]) == 0
        before = sorted(p.relative_to(out) for p in out.rglob("*"))
        reads = []
        monkeypatch.setattr(MetricsSeries, "from_csv", lambda path: reads.append(path))
        capsys.readouterr()
        assert cli_main(["analyze", "--dir", str(out), "--time-bins", "0"]) == 1
        assert capsys.readouterr().err == "error: time_bins must be >= 1, got 0\n"
        assert reads == []
        assert sorted(p.relative_to(out) for p in out.rglob("*")) == before

    def test_analyze_of_a_sweep_with_no_varying_factor(self, tmp_path, capsys):
        # one grid cell and one time bin: time, population and speed are all constant; one cell is reduced
        # in-process at any CPU count, and its median file is staged before the ANOVA fails
        plan = write(
            tmp_path / "p.cfg", "schema_version = 1\npopulations = 3\nbetas = 6\nrepetitions = 2\nduration_s = 4\n"
        )
        out = tmp_path / "sweep"
        assert cli_main(["sweep", "--plan", plan, "--out", str(out)]) == 0
        before = tree(out)
        capsys.readouterr()
        assert cli_main(["analyze", "--dir", str(out), "--time-bins", "1"]) == 1
        assert capsys.readouterr().err == "error: at least one factor is required\n"
        assert not (out / "analysis").exists()
        assert tree(out) == before  # the staged median file is removed

    def test_run_rejects_negative_seed(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", RUN_CONFIG)
        assert cli_main(["run", "--config", cfg, "--seed", "-1", "--out", str(tmp_path / "out")]) == 1

    def test_sweep_with_one_invalid_cell_writes_nothing(self, tmp_path):
        plan = write(tmp_path / "p.cfg", "schema_version = 1\npopulations = 3\nbetas = 6,11\nrepetitions = 1\n")
        out = tmp_path / "out"
        assert cli_main(["sweep", "--plan", plan, "--out", str(out)]) == 1
        assert not out.exists()

    def test_snapshot_times_outside_the_run(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", "schema_version = 1\nn_robots = 2\nduration_s = 5\n")
        out = tmp_path / "out"
        assert cli_main(["run", "--config", cfg, "--out", str(out), "--snapshot-times", "0,-3,99999"]) == 1
        assert not out.exists()
        assert cli_main(["run", "--config", cfg, "--out", str(out), "--snapshot-times", "0,5"]) == 0
        assert sorted(p.name for p in out.glob("*.pgm")) == ["snapshot_t0.pgm", "snapshot_t5.pgm"]

    def test_run_rejects_a_duration_too_long_to_preallocate(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", "schema_version = 1\nduration_s = 1000000000000\n")
        out = tmp_path / "out"
        assert cli_main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()

    def test_bad_snapshot_times(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", RUN_CONFIG)
        assert (
            cli_main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--snapshot-times", "0,abc"]) == 1
        )
