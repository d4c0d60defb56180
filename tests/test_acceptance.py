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
from swarmclean.harness import ExperimentPlan, cmd_analyze, cmd_run, cmd_sweep, sweep_run_paths
from swarmclean.metrics import MetricsSeries
from swarmclean.stats import f_tail_probability, median_series

from test_stats import f_tail_trapezoid, one_factor_effect

WINDOW_S = 200


def _report(number: int, name: str, ok: bool, detail: str, margin: float | None = None) -> None:
    shown = "" if margin is None else f"; margin {margin:.3g}"
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail}{shown})")


def window_means(values: np.ndarray, width: int = WINDOW_S) -> np.ndarray:
    usable = (len(values) // width) * width
    return values[:usable].reshape(-1, width).mean(axis=1)


def cell_medians_of(sweep_dir) -> dict:
    """Per-cell median series of a finished sweep, keyed by (population, beta), from the runs' series."""
    return {
        cell: median_series([MetricsSeries.from_csv(path) for path in paths])
        for cell, paths in sweep_run_paths(sweep_dir).items()
    }


# Criteria 1-5 each reduce the sweep to one (value, bound) pair. Every bound
# is an upper one, so bound - value is the margin: positive while it passes.


def final_cue_fraction(medians) -> tuple[float, float]:
    """Criterion 1: final over initial median cue of N=30, beta=6; must stay below the bound."""
    med = medians[(30, 6.0)]
    return med.mean_cue[-1] / med.mean_cue[0], 0.10


def extreme_cue_ratio(medians) -> tuple[float, float]:
    """Criterion 2: final median cue of N=50, beta=6 over that of N=10, beta=3; at most the bound."""
    return medians[(50, 6.0)].mean_cue[-1] / medians[(10, 3.0)].mean_cue[-1], 0.70


def ratio_window_change(medians, n: int) -> tuple[float, float]:
    """Criterion 3: largest change between window means of the N=n, beta=6 ratio after 2000 s; below the bound."""
    return np.abs(np.diff(window_means(medians[(n, 6.0)].ratio_within_rc[2000:]))).max(), 0.05


# The orderings that criteria 2, 3 and 5 also require, each True while it holds.


def cue_orderings(medians) -> tuple[bool, bool]:
    """Criterion 2: the final median cue falls with population at each speed, and with speed at each population."""
    final = {cell: med.mean_cue[-1] for cell, med in medians.items()}
    ok_pop = all(final[(50, b)] <= final[(30, b)] <= final[(10, b)] for b in (3.0, 6.0))
    ok_speed = all(final[(n, 6.0)] <= final[(n, 3.0)] for n in (10, 20, 30, 40, 50))
    return ok_pop, ok_speed


def ratio_rises(medians, n: int) -> bool:
    """Criterion 3: the N=n, beta=6 ratio rises above its start within the first 1000 s."""
    ratio = medians[(n, 6.0)].ratio_within_rc
    return ratio[:1000].max() > ratio[0]


def ratio_plateaus(medians) -> dict[int, float]:
    """Criterion 3: mean ratio after 2000 s for N=30 and N=50 at beta=6; N=50's must not exceed N=30's."""
    return {n: medians[(n, 6.0)].ratio_within_rc[2000:].mean() for n in (30, 50)}


def coherency_population_over_time(analysis) -> bool:
    """Criterion 5: population explains coherency better than time does (a larger F)."""
    coh = analysis.anova_coherency
    return coh.effect("population").f_value > coh.effect("time").f_value


def stabilization_times(med) -> tuple[int | None, int | None]:
    """End of the first window after which coherency, and the cue, change by less than 5% and 2%."""
    coh_changes = np.abs(np.diff(window_means(med.coherency_m)))
    cue_changes = np.abs(np.diff(window_means(med.mean_cue))) / med.mean_cue[0]
    t_coh = next((WINDOW_S * (k + 1) for k, c in enumerate(coh_changes) if c < 0.05), None)
    t_cue = next((WINDOW_S * (k + 1) for k, c in enumerate(cue_changes) if c < 0.02), None)
    return t_coh, t_cue


def costabilization_gap(medians) -> tuple[float, float]:
    """Criterion 4: |t_coh - t_cue| of N=50, beta=6 in seconds, inf if either never settles; at most the bound."""
    t_coh, t_cue = stabilization_times(medians[(50, 6.0)])
    return (math.inf if t_coh is None or t_cue is None else abs(t_coh - t_cue)), 500.0


def largest_anova_p(analysis) -> tuple[float, float]:
    """Criterion 5: largest p of the time, population and speed effects on both responses; at most the bound."""
    results = (analysis.anova_mean_cue, analysis.anova_coherency)
    # np.max, unlike max, carries a nan p through to a failed comparison
    return float(np.max([r.effect(name).p_value for r in results for name in ("time", "population", "speed")])), 0.05


@pytest.fixture(scope="session")
def default_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("default_sweep")
    plan = ExperimentPlan()  # populations {10..50}, betas {3, 6}, 6 reps, 4000 s
    cmd_sweep(plan, out, jobs=2)
    return out


@pytest.fixture(scope="session")
def cell_medians(default_sweep):
    return cell_medians_of(default_sweep)


def test_criterion_1_cue_disappearance(cell_medians):
    fraction, bound = final_cue_fraction(cell_medians)
    ok = fraction < bound
    detail = f"median final cue {100 * fraction:.1f}% of initial < {100 * bound:g}%"
    _report(1, "cue disappearance", ok, detail, bound - fraction)
    assert ok


def test_criterion_2_population_and_speed_ordering(cell_medians):
    ok_pop, ok_speed = cue_orderings(cell_medians)
    ratio, bound = extreme_cue_ratio(cell_medians)
    ok_gap = ratio <= bound
    ok = ok_pop and ok_speed and ok_gap
    _report(
        2,
        "population/speed ordering",
        ok,
        f"pop ordering {ok_pop}, speed ordering {ok_speed}, "
        f"extreme gap {100 * (1 - ratio):.0f}% >= {100 * (1 - bound):.0f}%",
        bound - ratio,
    )
    assert ok_pop
    assert ok_speed
    assert ok_gap


def test_criterion_3_ratio_shape(cell_medians):
    plateaus = ratio_plateaus(cell_medians)
    ok_all = True
    details = []
    margin = math.inf
    for n in (30, 50):
        rises = ratio_rises(cell_medians, n)
        max_change, bound = ratio_window_change(cell_medians, n)
        flat = max_change < bound
        margin = min(margin, bound - max_change)
        ok_all = ok_all and rises and flat
        details.append(f"N={n}: rises {rises}, max window change {max_change:.3f}")
    ordered = plateaus[50] <= plateaus[30]
    ok_all = ok_all and ordered
    details.append(f"plateau N50 {plateaus[50]:.3f} <= N30 {plateaus[30]:.3f}: {ordered}")
    _report(3, "ratio-near-center shape", ok_all, "; ".join(details), margin)
    assert ok_all


def test_criterion_4_coherency_costabilization(cell_medians):
    t_coh, t_cue = stabilization_times(cell_medians[(50, 6.0)])
    gap, bound = costabilization_gap(cell_medians)
    ok = gap <= bound
    detail = f"coherency stable at {t_coh} s, cue stable at {t_cue} s"
    _report(4, "coherency co-stabilization", ok, detail, bound - gap)
    assert ok


def test_criterion_5_anova_significance(default_sweep):
    analysis = cmd_analyze(default_sweep)
    results = {"cue": analysis.anova_mean_cue, "coherency": analysis.anova_coherency}
    largest_p, bound = largest_anova_p(analysis)
    ok_sig = largest_p <= bound
    ok_order = coherency_population_over_time(analysis)
    ok = ok_sig and ok_order
    fs = {
        label: {e.name: round(e.f_value, 2) for e in result.effects} for label, result in results.items()
    }
    _report(
        5,
        "ANOVA significance",
        ok,
        f"all p<=0.05 {ok_sig}, coherency F pop>time {ok_order}, F {fs}",
        bound - largest_p,
    )
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


def test_margins_script_exit_status_follows_the_tests_strictness(monkeypatch, capsys):
    """`acceptance_margins.py` exits 1 on any failed criterion or ordering, with the bounds as strict as here."""
    import acceptance_margins

    monkeypatch.setattr(acceptance_margins, "cmd_sweep", lambda *args, **kwargs: None)
    rows = [("1: strict", 0.1, 0.1, True), ("2: at most", 0.7, 0.7, False)]
    orderings = [("2: ordering", True)]
    monkeypatch.setattr(acceptance_margins, "margins", lambda sweep_dir: (rows, orderings))
    assert acceptance_margins.main(["--base-seed", "2"]) == 1  # criterion 1 fails at exactly its bound
    assert "FAILED at base seed 2: 1: strict" in capsys.readouterr().err
    rows[0] = ("1: strict", 0.099, 0.1, True)
    assert acceptance_margins.main(["--base-seed", "2"]) == 0  # criterion 2 passes at exactly its bound
    rows[1] = ("2: at most", math.nan, 0.7, False)
    assert acceptance_margins.main(["--base-seed", "2"]) == 1
    rows[1] = ("2: at most", 0.7, 0.7, False)
    orderings[0] = ("2: ordering", False)
    assert acceptance_margins.main(["--base-seed", "2"]) == 1


def test_margins_script_over_base_seeds_names_the_failing_seeds(monkeypatch, capsys):
    """`--base-seeds` sweeps once per seed, prints min, median and max per criterion, and exits 1 if any seed fails."""
    import acceptance_margins

    swept = []
    monkeypatch.setattr(acceptance_margins, "cmd_sweep", lambda plan, *args, **kwargs: swept.append(plan.base_seed))

    def margins(sweep_dir):
        seed = swept[-1]
        return [("3: strict", 0.01 * seed, 0.05, True)], [("3: ordering", seed != 2)]

    monkeypatch.setattr(acceptance_margins, "margins", margins)
    assert acceptance_margins.main(["--base-seeds", "1-3,5,2"]) == 1
    assert swept == [1, 2, 3, 5]
    out, err = capsys.readouterr()
    assert "| 3: strict | 0.05 | 0.01 | 0.025 | 0.05 | 5 |" in out
    assert "3: ordering: fails at base seeds 2" in out
    assert "FAILED at base seeds 2, 5 of 4" in err
    assert acceptance_margins.main(["--base-seeds", "1,4"]) == 0
    assert "| 3: strict | 0.05 | 0.01 | 0.025 | 0.04 | none |" in capsys.readouterr().out
    for bad in ("", "3-1", "1-", "a", "-2"):
        with pytest.raises(SystemExit):
            acceptance_margins.main(["--base-seeds", bad])
    with pytest.raises(SystemExit):
        acceptance_margins.main(["--base-seed", "2", "--base-seeds", "1-9"])
