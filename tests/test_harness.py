import concurrent.futures
import os
import signal

import numpy as np
import pytest

from swarmclean import harness
from swarmclean.cli import main as cli_main
from swarmclean.engine import ConfigError, SimConfig
from swarmclean.field import read_pgm
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
from swarmclean.stats import median_series

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

    def test_single_cell_plan(self, tmp_path):
        plan = load_plan(write(tmp_path / "p.cfg", "schema_version = 1\npopulations = 4\nbetas = 6\nrepetitions = 1\n"))
        assert len(plan.runs()) == 1


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
        assert snap.cells[142, 142] == 255

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


def _worker_that_dies_at_n5(task):
    """Sweep worker whose process exits abruptly on the N=5 runs."""
    if task[1].n_robots == 5:
        os._exit(3)
    return _SWEEP_WORKER(task)


_SWEEP_WORKER = harness._sweep_worker


class _RecordingExecutor:
    """Synchronous stand-in for ProcessPoolExecutor that records submissions."""

    submitted: list[int] = []

    def __init__(self, max_workers):
        pass

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
        assert field.cells[142, 142] == 255

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

    def test_bad_snapshot_times(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", RUN_CONFIG)
        assert (
            cli_main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--snapshot-times", "0,abc"]) == 1
        )
