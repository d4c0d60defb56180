"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest -q bench
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run_bench
import tracer
import workloads

SPEC = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text())


def bench(capsys, *args):
    code = run_bench.main(["--size", "tiny", "--seconds", "0", "--seed", "5", *args])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_is_emitted_with_its_unit(capsys, workload, trace):
    code, result = bench(capsys, "--workload", workload, "--trace", trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if trace == "1":
        coverage = result["metrics"]["trace.self_coverage"]["value"]
        assert abs(1.0 - coverage) <= run_bench.COVERAGE_TOLERANCE
        assert result["metrics"]["trace.missing_spans"]["value"] == 0


def _extra_row(path):
    with open(path, "a") as fh:
        fh.write("999,0.0,0.0,0.0\n")


def _rising_cue(path):
    lines = Path(path).read_text().splitlines()
    t, _, ratio, coh = lines[-1].split(",")
    lines[-1] = f"{t},255.0,{ratio},{coh}"
    Path(path).write_text("\n".join(lines) + "\n")


def _one_digit(path):
    text = Path(path).read_text()
    last = text[-2]  # the final digit of the last coherency value
    Path(path).write_text(text[:-2] + str((int(last) + 1) % 10) + "\n")


@pytest.mark.parametrize(
    "corrupt, spares_first",  # spares_first: each input's first output is left intact
    [(_extra_row, False), (_rising_cue, False), (_one_digit, True)],
    ids=["extra_row", "rising_cue", "digest_only"],
)
def test_corrupted_output_fails_the_operation(capsys, monkeypatch, corrupt, spares_first):
    check = workloads.RunWorkload.check
    seen = []

    def corrupting_check(self, input_dir):
        if input_dir in seen or not spares_first:
            corrupt(os.path.join(self.out_dir(input_dir), "metrics.csv"))
        seen.append(input_dir)
        return check(self, input_dir)

    monkeypatch.setattr(workloads.RunWorkload, "check", corrupting_check)
    code, result = bench(capsys, "--workload", "run_sparse", "--trace", "0")
    assert code == 1 and not result["correct"]
    spared = workloads.build("run_sparse", "tiny").inputs if spares_first else 0
    assert result["failed"] == result["attempted"] - spared > 0


def test_truncated_snapshot_fails_the_operation(capsys, monkeypatch):
    check = workloads.RunWorkload.check

    def truncating_check(self, input_dir):
        path = os.path.join(self.out_dir(input_dir), f"snapshot_t{self.duration_s}.pgm")
        with open(path, "r+b") as fh:
            fh.truncate(100)
        return check(self, input_dir)

    monkeypatch.setattr(workloads.RunWorkload, "check", truncating_check)
    code, result = bench(capsys, "--workload", "run_dense", "--trace", "0")
    assert code == 1 and result["failed"] == result["attempted"]


def test_failed_sweep_run_counts_once(capsys, monkeypatch):
    check = workloads.SweepWorkload.check

    def dropping_check(self, input_dir):
        out = self.out_dir(input_dir)
        os.remove(os.path.join(out, sorted(d for d in os.listdir(out) if d.startswith("N"))[0], "metrics.csv"))
        return check(self, input_dir)

    monkeypatch.setattr(workloads.SweepWorkload, "check", dropping_check)
    code, result = bench(capsys, "--workload", "sweep_cells", "--trace", "0")
    runs_per_sweep = 2 * 2 * 2
    assert code == 1 and result["attempted"] % runs_per_sweep == 0
    assert result["failed"] == result["attempted"] // runs_per_sweep


def test_missing_wrapped_name_is_reported_not_fatal():
    sys.path.insert(0, str(run_bench.ROOT / "src"))
    pkg = run_bench.fresh_import()
    original = vars(pkg.metrics.MetricsSeries)["from_csv"]
    t = tracer.Tracer(
        spans=tracer.SPANS + (("engine.renamed", "swarmclean.engine", "no_such_function", None),),
        counters=tracer.COUNTERS + (("gone.module", "swarmclean.no_such_module", "f"),),
    )
    t.install()
    try:
        assert pkg.engine.sample_many is not pkg.field.sample_many
        assert isinstance(vars(pkg.metrics.MetricsSeries)["from_csv"], classmethod)
    finally:
        t.uninstall()
    assert t.missing == ["engine.renamed", "gone.module"]
    assert pkg.engine.sample_many is pkg.field.sample_many
    assert vars(pkg.metrics.MetricsSeries)["from_csv"] is original


def test_refuses_more_workers_than_cpus(capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run_bench.main(["--size", "tiny", "--seconds", "0", "--workload", "sweep_cells"]) == 2
    assert "{" not in capsys.readouterr().out


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run_bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run_bench.__file__).parent, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "bench/run_bench.py", "--workload", "run_sparse", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
