import concurrent.futures
import os
import signal
from dataclasses import fields

import numpy as np
import pytest

from swarmclean import harness
from swarmclean.cli import main as cli_main
from swarmclean.engine import ConfigError, SimConfig, run_simulation
from swarmclean.field import pgm_raster, read_pgm, to_pgm_bytes
from swarmclean.harness import (
    ExperimentPlan,
    SweepFailure,
    cmd_analyze,
    cmd_run,
    cmd_sweep,
    derive_run_seed,
    load_plan,
    load_run_config,
    read_manifest,
)
from swarmclean.metrics import MetricsSeries
from swarmclean.stats import AnovaResult, FactorEffect, median_series

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
        with pytest.raises(ConfigError, match="unknown key"):
            load_run_config(write(tmp_path / "run.cfg", "schema_version = 1\nrobot_count = 3\n"))

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
    "waiting_formula": "literal",
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
        snap = read_pgm(out["snapshots"][0])
        assert snap[142, 142] == 255

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
        assert sorted(p.name for p in out.iterdir()) == ["metrics.csv"]


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
        # 30 robots cannot be placed in a 20 cm arena; 3 robots can
        plan = tiny_plan(
            populations=(3, 30),
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
        assert by_pop[30] == {"failed"}

    def test_failed_run_leaves_no_directory(self, tmp_path):
        plan = tiny_plan(
            populations=(3, 30),
            base_config=SimConfig(duration_s=5, arena_width_cm=20.0, arena_height_cm=20.0, cue_radius_cm=8.0),
        )
        out = tmp_path / "sweep"
        with pytest.raises(SweepFailure):
            cmd_sweep(plan, out)
        for spec in read_manifest(out / "manifest.csv"):
            assert (out / spec.path).exists() == (spec.status == "ok")


def _worker_that_dies_at_n5(task):
    """Sweep worker whose process exits abruptly on the N=5 runs."""
    if task[1].n_robots == 5:
        os._exit(3)
    return _SWEEP_WORKER(task)


_SWEEP_WORKER = harness._sweep_worker


class _RecordingExecutor:
    """Synchronous stand-in for ProcessPoolExecutor that records its size and submissions."""

    submitted: list[int] = []
    max_workers: list[int] = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, task):
        self.submitted.append(task[1].n_robots)
        future = concurrent.futures.Future()
        future.set_result(fn(task))
        return future


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

    def test_largest_population_submitted_first(self, tmp_path, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
        monkeypatch.setattr(_RecordingExecutor, "submitted", [])
        cmd_sweep(tiny_plan(populations=(3, 7, 5)), tmp_path / "sweep", jobs=2)
        assert _RecordingExecutor.submitted == [7, 7, 5, 5, 3, 3]

    def test_workers_capped_at_number_of_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
        monkeypatch.setattr(_RecordingExecutor, "submitted", [])
        monkeypatch.setattr(_RecordingExecutor, "max_workers", [])
        cmd_sweep(tiny_plan(), tmp_path / "wide", jobs=500)
        cmd_sweep(tiny_plan(), tmp_path / "narrow", jobs=3)
        assert _RecordingExecutor.max_workers == [4, 3]


class TestCmdAnalyze:
    def test_medians_match_direct_computation(self, tmp_path):
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(), out)
        analysis = cmd_analyze(out)
        for (n, beta), med in analysis.medians.items():
            runs = []
            for spec in read_manifest(out / "manifest.csv"):
                if spec.n_robots == n and spec.beta == beta:
                    runs.append(MetricsSeries.from_csv(out / spec.path / "metrics.csv"))
            direct = median_series(runs)
            assert np.array_equal(med.mean_cue, direct.mean_cue)
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
        analysis = cmd_analyze(out, allow_partial=True)
        assert len(analysis.medians) == 2

    def test_time_bins_configurable(self, tmp_path):
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(), out)
        analysis = cmd_analyze(out, time_bins=3)
        assert analysis.anova_mean_cue.effect("time").df_between == 2

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
        assert analysis.anova_mean_cue.degenerate

    def test_failed_analyze_writes_nothing(self, tmp_path):
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(betas=(3.0, 6.0), base_config=SimConfig(duration_s=5)), out)
        with pytest.raises(ValueError, match="cannot form 9 bins"):
            cmd_analyze(out, time_bins=9)
        assert not (out / "analysis").exists()

        cmd_analyze(out, time_bins=2)
        before = {p.name: p.read_bytes() for p in (out / "analysis").iterdir()}
        victim = out / read_manifest(out / "manifest.csv")[0].path / "metrics.csv"
        series = MetricsSeries.from_csv(victim)
        series.mean_cue[0] += 1.0  # moves its cell's median
        series.to_csv(victim)
        with pytest.raises(ValueError, match="cannot form 9 bins"):
            cmd_analyze(out, time_bins=9)
        assert {p.name: p.read_bytes() for p in (out / "analysis").iterdir()} == before

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

    def test_anova_csv_write_is_atomic(self, tmp_path):
        class Unprintable(float):
            def __repr__(self):
                raise RuntimeError("cannot format")

        result = AnovaResult(
            effects=[
                FactorEffect("time", 2.0, 0.25, 1, 10, 3.0),
                FactorEffect("population", Unprintable(1.0), 0.5, 1, 10, 1.0),
            ],
            residual_ss=1.0,
            residual_df=10,
            degenerate=False,
        )
        with pytest.raises(RuntimeError, match="cannot format"):
            harness.write_anova_csv(tmp_path / "anova_mean_cue.csv", result)
        assert os.listdir(tmp_path) == []  # neither a partial table nor a temp file

    def test_single_speed_sweep_drops_constant_factor(self, tmp_path):
        out = tmp_path / "sweep"
        cmd_sweep(tiny_plan(), out)  # one beta only
        analysis = cmd_analyze(out)
        names = [e.name for e in analysis.anova_mean_cue.effects]
        assert names == ["time", "population"]


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
        assert sorted(p.name for p in out.iterdir()) == ["metrics.csv", "notes", "snapshot_t0.pgm", "snapshot_t5.txt"]
        # what is left is the second run's output alone
        fresh = tmp_path / "fresh"
        assert cli_main(["run", "--config", cfg, "--seed", "3", "--out", str(fresh)]) == 0
        for name in ("metrics.csv", "snapshot_t0.pgm"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()

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

    def test_sweep_partial_failure_exit_code(self, tmp_path):
        plan = write(
            tmp_path / "p.cfg",
            "schema_version = 1\npopulations = 3,30\nbetas = 6\nrepetitions = 1\n"
            "duration_s = 5\narena_width_cm = 20\narena_height_cm = 20\ncue_radius_cm = 8\n",
        )
        assert cli_main(["sweep", "--plan", plan, "--out", str(tmp_path / "out")]) == 3

    def test_analyze_missing_dir(self, tmp_path):
        assert cli_main(["analyze", "--dir", str(tmp_path / "ghost")]) == 2

    def test_render_from_config(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", RUN_CONFIG)
        out = tmp_path / "field.pgm"
        assert cli_main(["render", "--field", cfg, "--out", str(out)]) == 0
        field = read_pgm(out)
        assert field[142, 142] == 255

    def test_render_roundtrips_pgm(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", RUN_CONFIG)
        first = tmp_path / "a.pgm"
        second = tmp_path / "b.pgm"
        cli_main(["render", "--field", cfg, "--out", str(first)])
        assert cli_main(["render", "--field", str(first), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_render_garbage_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x89PNG not a field")
        assert cli_main(["render", "--field", str(bad), "--out", str(tmp_path / "o.pgm")]) == 1

    def test_render_corrupt_pgm_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n2 2\n65535\n\x00\x00\x00\x00\x00\x00\x00\x00")
        assert cli_main(["render", "--field", str(bad), "--out", str(tmp_path / "o.pgm")]) == 1

    @pytest.mark.parametrize("size", [b"0 5", b"-3 5", b"4 0"])
    def test_render_pgm_without_cells_is_config_error(self, tmp_path, size):
        bad = tmp_path / "empty.pgm"
        bad.write_bytes(b"P5\n" + size + b"\n255\n")
        out = tmp_path / "o.pgm"
        assert cli_main(["render", "--field", str(bad), "--out", str(out)]) == 1
        assert not out.exists()

    def test_analyze_corrupt_metrics_is_config_error(self, tmp_path):
        plan = write(tmp_path / "p.cfg", PLAN)
        out = tmp_path / "sweep"
        assert cli_main(["sweep", "--plan", plan, "--out", str(out)]) == 0
        victim = read_manifest(out / "manifest.csv")[0]
        (out / victim.path / "metrics.csv").write_text("t,mean_cue\n0,1\n")
        assert cli_main(["analyze", "--dir", str(out)]) == 1

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
