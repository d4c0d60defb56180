"""Acceptance suite over the default experiment grid.

The session fixture executes the full default sweep (5 populations x 2
speeds x 6 repetitions, 4000 s each) — expect a few minutes of runtime.
Each criterion prints one PASS/FAIL line; run with `-s` (or `-rA`) to see
them. Criteria 6 and 7 are pure unit/oracle checks and need no sweep.
"""
import math

import numpy as np
import pytest

from swarmclean.controller import waiting_time
from swarmclean.engine import SimConfig, run_simulation
from swarmclean.field import CLEAN_KERNEL, init_circular_gradient, mean_intensity
from swarmclean.harness import ExperimentPlan, cmd_analyze, cmd_run, cmd_sweep, read_manifest
from swarmclean.metrics import MetricsSeries
from swarmclean.stats import f_tail_probability, median_series

from test_stats import f_tail_trapezoid, one_factor_effect

WINDOW_S = 200


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def window_means(values: np.ndarray, width: int = WINDOW_S) -> np.ndarray:
    usable = (len(values) // width) * width
    return values[:usable].reshape(-1, width).mean(axis=1)


@pytest.fixture(scope="session")
def default_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("default_sweep")
    plan = ExperimentPlan()  # populations {10..50}, betas {3, 6}, 6 reps, 4000 s
    cmd_sweep(plan, out, jobs=2)
    return out


@pytest.fixture(scope="session")
def cell_medians(default_sweep):
    groups: dict[tuple[int, float], list[MetricsSeries]] = {}
    for spec in read_manifest(default_sweep / "manifest.csv"):
        series = MetricsSeries.from_csv(default_sweep / spec.path / "metrics.csv")
        groups.setdefault((spec.n_robots, spec.beta), []).append(series)
    return {cell: median_series(runs) for cell, runs in groups.items()}


def test_criterion_1_cue_disappearance(cell_medians):
    med = cell_medians[(30, 6.0)]
    initial = med.mean_cue[0]
    final = med.mean_cue[-1]
    ok = final < 0.10 * initial
    _report(1, "cue disappearance", ok, f"median final cue {final:.3f} = {100 * final / initial:.1f}% of initial")
    assert ok


def test_criterion_2_population_and_speed_ordering(cell_medians):
    final = {cell: med.mean_cue[-1] for cell, med in cell_medians.items()}
    ok_pop = all(final[(50, b)] <= final[(30, b)] <= final[(10, b)] for b in (3.0, 6.0))
    ok_speed = all(final[(n, 6.0)] <= final[(n, 3.0)] for n in (10, 20, 30, 40, 50))
    best, worst = final[(50, 6.0)], final[(10, 3.0)]
    ok_gap = best <= 0.7 * worst
    ok = ok_pop and ok_speed and ok_gap
    _report(
        2,
        "population/speed ordering",
        ok,
        f"pop ordering {ok_pop}, speed ordering {ok_speed}, extreme gap {100 * (1 - best / worst):.0f}% >= 30%",
    )
    assert ok_pop
    assert ok_speed
    assert ok_gap


def test_criterion_3_ratio_shape(cell_medians):
    plateaus = {}
    ok_all = True
    details = []
    for n in (30, 50):
        ratio = cell_medians[(n, 6.0)].ratio_within_rc
        rises = ratio[:1000].max() > ratio[0]
        w = window_means(ratio[2000:])
        max_change = np.abs(np.diff(w)).max()
        flat = max_change < 0.05
        plateaus[n] = ratio[2000:].mean()
        ok_all = ok_all and rises and flat
        details.append(f"N={n}: rises {rises}, max window change {max_change:.3f}")
    ordered = plateaus[50] <= plateaus[30]
    ok_all = ok_all and ordered
    details.append(f"plateau N50 {plateaus[50]:.3f} <= N30 {plateaus[30]:.3f}: {ordered}")
    _report(3, "ratio-near-center shape", ok_all, "; ".join(details))
    assert ok_all


def test_criterion_4_coherency_costabilization(cell_medians):
    med = cell_medians[(50, 6.0)]
    coh_changes = np.abs(np.diff(window_means(med.coherency_m)))
    cue_changes = np.abs(np.diff(window_means(med.mean_cue))) / med.mean_cue[0]
    t_coh = next((WINDOW_S * (k + 1) for k, c in enumerate(coh_changes) if c < 0.05), None)
    t_cue = next((WINDOW_S * (k + 1) for k, c in enumerate(cue_changes) if c < 0.02), None)
    ok = t_coh is not None and t_cue is not None and abs(t_coh - t_cue) <= 500
    _report(4, "coherency co-stabilization", ok, f"coherency stable at {t_coh} s, cue stable at {t_cue} s")
    assert ok


def test_criterion_5_anova_significance(default_sweep):
    analysis = cmd_analyze(default_sweep)
    results = {"cue": analysis.anova_mean_cue, "coherency": analysis.anova_coherency}
    ok_sig = all(
        result.effect(name).p_value <= 0.05
        for result in results.values()
        for name in ("time", "population", "speed")
    )
    coh = results["coherency"]
    ok_order = coh.effect("population").f_value > coh.effect("time").f_value
    ok = ok_sig and ok_order
    fs = {
        label: {e.name: round(e.f_value, 2) for e in result.effects} for label, result in results.items()
    }
    _report(5, "ANOVA significance", ok, f"all p<=0.05 {ok_sig}, coherency F pop>time {ok_order}, F {fs}")
    assert ok_sig
    assert ok_order


def test_criterion_6_formula_units():
    wt = waiting_time(255.0, SimConfig())
    ok_wt = abs(wt - 21.67) <= 0.05
    ok_kernel = CLEAN_KERNEL.max() == 8.0 and CLEAN_KERNEL.min() == 8.0 - math.sqrt(32.0)
    v = (4.0 / 3.0) * 0.5 * (6 + 6)
    ok_speed = v == 8.0
    ok = ok_wt and ok_kernel and ok_speed
    _report(6, "formula unit checks", ok, f"wait(255)={wt:.4f} s, kernel [{CLEAN_KERNEL.min():.6f}, 8], v(6,6)={v}")
    assert ok_wt
    assert ok_kernel
    assert ok_speed


def test_criterion_7_oracle_equivalence():
    effect = one_factor_effect([np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])])
    ok_f = abs(effect.f_value - 13.5) <= 1e-9

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        d1 = int(rng.integers(2, 31))
        d2 = int(rng.integers(2, 31))
        f_value = float(rng.uniform(0.05, 8.0))
        worst = max(worst, abs(f_tail_probability(f_value, d1, d2) - f_tail_trapezoid(f_value, d1, d2)))
    ok_p = worst <= 1e-6

    field = init_circular_gradient(285.0, 285.0, (142.5, 142.5), 111.35, 255.0)
    analytic = (math.pi * 111.35**2 * 255.0 / 3.0) / (285.0 * 285.0)
    rel = abs(mean_intensity(field) - analytic) / analytic
    ok_mean = rel <= 0.01

    ok = ok_f and ok_p and ok_mean
    _report(
        7,
        "oracle equivalence",
        ok,
        f"F err {abs(effect.f_value - 13.5):.2e}, worst p err {worst:.2e}, cone mean rel err {rel:.2e}",
    )
    assert ok_f
    assert ok_p
    assert ok_mean


def test_criterion_8_determinism(default_sweep, tmp_path):
    # a sweep run re-executed from its derived seed reproduces the same bytes
    plan = ExperimentPlan()
    spec = next(r for r in plan.runs() if r.n_robots == 30 and r.beta == 6.0 and r.repetition == 0)
    cfg = SimConfig(n_robots=spec.n_robots, beta=spec.beta, seed=spec.seed)
    rerun = run_simulation(cfg)
    rerun.series.to_csv(tmp_path / "rerun.csv")
    sweep_bytes = (default_sweep / spec.path / "metrics.csv").read_bytes()
    ok_sweep = (tmp_path / "rerun.csv").read_bytes() == sweep_bytes

    # a short standalone run is byte-stable end to end
    cfg_short = SimConfig(n_robots=8, duration_s=40, seed=123)
    out_a = cmd_run(cfg_short, tmp_path / "a")
    out_b = cmd_run(cfg_short, tmp_path / "b")
    with open(out_a["metrics"], "rb") as fa, open(out_b["metrics"], "rb") as fb:
        ok_repeat = fa.read() == fb.read()

    ok = ok_sweep and ok_repeat
    _report(8, "determinism", ok, f"sweep-cell rerun identical {ok_sweep}, repeated run identical {ok_repeat}")
    assert ok_sweep
    assert ok_repeat
