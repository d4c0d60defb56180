import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmclean.harness import build_observation_table
from swarmclean.metrics import MetricsSeries
from swarmclean.stats import (
    DesignError,
    ObservationTable,
    anova_main_effects,
    bin_means,
    f_tail_probability,
    median_series,
    regularized_incomplete_beta,
)


def series_of(values):
    values = np.asarray(values, dtype=np.float64)
    return MetricsSeries(
        t=np.arange(len(values), dtype=np.int64),
        mean_cue=values,
        ratio_within_rc=values * 0.5,
        coherency_m=values * 2.0,
    )


class TestMedianSeries:
    def test_odd_count(self):
        med = median_series([series_of([1.0]), series_of([2.0]), series_of([9.0])])
        assert med.mean_cue[0] == 2.0

    def test_even_count_averages_central_pair(self):
        med = median_series([series_of([v]) for v in (1.0, 2.0, 3.0, 10.0)])
        assert med.mean_cue[0] == 2.5

    def test_single_run_is_identity(self):
        s = series_of([4.0, 5.0, 6.0])
        med = median_series([s])
        assert np.array_equal(med.mean_cue, s.mean_cue)
        assert np.array_equal(med.t, s.t)

    def test_applies_to_every_metric(self):
        med = median_series([series_of([1.0]), series_of([2.0]), series_of([9.0])])
        assert med.ratio_within_rc[0] == 1.0
        assert med.coherency_m[0] == 4.0

    def test_idempotent_on_duplicated_lists(self):
        runs = [series_of([1.0, 7.0]), series_of([2.0, 5.0]), series_of([9.0, 6.0])]
        once = median_series(runs)
        twice = median_series(runs + runs)
        assert np.array_equal(once.mean_cue, twice.mean_cue)


class TestBinMeans:
    def test_even_split(self):
        out = bin_means(np.array([1.0, 3.0, 5.0, 7.0]), 2)
        assert out.tolist() == [2.0, 6.0]

    def test_remainder_folds_into_last_bin(self):
        out = bin_means(np.arange(10.0), 3)
        assert out.tolist() == [1.0, 4.0, 7.5]

    def test_errors(self):
        with pytest.raises(ValueError, match="cannot form 4 bins from 3 samples"):
            bin_means(np.arange(3.0), 4)


def f_tail_trapezoid(f_value, d1, d2, n=1_000_001):
    """Quadrature oracle: integrate the beta integrand on [0, z]."""
    a = 0.5 * d2
    b = 0.5 * d1
    z = d2 / (d2 + d1 * f_value)
    t = np.linspace(0.0, z, n)
    with np.errstate(divide="ignore"):
        integrand = t ** (a - 1.0) * (1.0 - t) ** (b - 1.0)
    integrand[~np.isfinite(integrand)] = 0.0
    h = z / (n - 1)
    area = h * (0.5 * integrand[0] + integrand[1:-1].sum() + 0.5 * integrand[-1])
    ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return area / math.exp(ln_beta)


class TestFTail:
    def test_p_of_zero_is_one(self):
        assert f_tail_probability(0.0, 3, 17) == 1.0
        assert f_tail_probability(-1.0, 3, 17) == 1.0

    def test_strictly_decreasing_in_f(self):
        ps = [f_tail_probability(f, 2, 10) for f in np.linspace(0.01, 20, 300)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_range(self):
        for f in (0.1, 1.0, 5.0, 50.0):
            assert 0.0 < f_tail_probability(f, 4, 9) < 1.0

    def test_inversion_identity(self):
        # P(F >= f) = 1 - P(1/F >= 1/f), and 1/F swaps the degrees of freedom
        for f, d1, d2 in ((0.7, 3, 11), (2.5, 6, 4), (9.0, 1, 7)):
            assert f_tail_probability(f, d1, d2) + f_tail_probability(1.0 / f, d2, d1) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_matches_trapezoid_oracle_on_random_triples(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            d1 = int(rng.integers(2, 31))
            d2 = int(rng.integers(2, 31))
            f_value = float(rng.uniform(0.05, 8.0))
            mine = f_tail_probability(f_value, d1, d2)
            oracle = f_tail_trapezoid(f_value, d1, d2)
            assert mine == pytest.approx(oracle, abs=1e-6)


class TestRegularizedIncompleteBeta:
    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_uniform_case_is_identity(self):
        for x in (0.1, 0.5, 0.9):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)

    def test_reflection_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = float(rng.uniform(0.5, 20))
            b = float(rng.uniform(0.5, 20))
            x = float(rng.uniform(0.0, 1.0))
            total = regularized_incomplete_beta(a, b, x) + regularized_incomplete_beta(b, a, 1.0 - x)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_half_integer_closed_form(self):
        # I_x(1, b) = 1 - (1-x)^b
        for b in (1.0, 2.5, 7.0):
            for x in (0.2, 0.6):
                assert regularized_incomplete_beta(1.0, b, x) == pytest.approx(
                    1.0 - (1.0 - x) ** b, abs=1e-13
                )

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)


def classical_one_way(groups):
    allv = np.concatenate(groups)
    grand = allv.mean()
    k = len(groups)
    n = len(allv)
    ssb = sum(len(g) * (g.mean() - grand) ** 2 for g in groups)
    ssw = sum(((g - g.mean()) ** 2).sum() for g in groups)
    f = (ssb / (k - 1)) / (ssw / (n - k))
    return f, k - 1, n - k


def one_factor_effect(groups):
    """The effect of a one-factor `anova_main_effects` over explicit groups."""
    levels = np.concatenate([np.full(len(g), k) for k, g in enumerate(groups)])
    table = ObservationTable(np.concatenate(groups), [("group", levels)])
    return anova_main_effects(table).effects[0]


class TestAnova:
    def test_hand_computed_two_group_instance(self):
        effect = one_factor_effect([np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])])
        assert effect.f_value == pytest.approx(13.5, abs=1e-9)
        assert (effect.df_between, effect.df_within) == (1, 4)
        assert effect.sum_squares == pytest.approx(13.5, abs=1e-9)
        # frozen value cross-checked against the quadrature oracle below
        assert effect.p_value == pytest.approx(0.02131164112875672, abs=1e-6)
        assert effect.p_value == pytest.approx(f_tail_trapezoid(13.5, 1, 4, n=4_000_001), abs=1e-6)

    def test_constant_response_is_degenerate(self):
        table = ObservationTable(
            response=np.full(8, 3.5),
            factors=[("g", np.array([0, 0, 0, 0, 1, 1, 1, 1]))],
        )
        result = anova_main_effects(table)
        assert result.degenerate
        e = result.effects[0]
        assert e.f_value == 0.0
        assert e.p_value == 1.0

    def test_null_effect_factor(self):
        # identical group means, real residual variance
        table = ObservationTable(
            response=np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0]),
            factors=[("g", np.array([0, 0, 0, 1, 1, 1]))],
        )
        result = anova_main_effects(table)
        assert not result.degenerate
        assert result.effects[0].f_value == pytest.approx(0.0, abs=1e-9)
        assert result.effects[0].p_value == pytest.approx(1.0, abs=1e-9)

    def test_confounded_factor_rejected(self):
        g = np.array([0, 0, 1, 1, 2, 2])
        table = ObservationTable(
            response=np.arange(6, dtype=float),
            factors=[("a", g), ("b", g * 10)],  # b carries no new information
        )
        with pytest.raises(DesignError, match="confounded"):
            anova_main_effects(table)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=24)
        f1 = np.tile([0, 1, 2], 8)
        f2 = np.repeat([0, 1], 12)
        base = anova_main_effects(ObservationTable(y, [("a", f1), ("b", f2)]))
        perm = rng.permutation(24)
        shuffled = anova_main_effects(ObservationTable(y[perm], [("a", f1[perm]), ("b", f2[perm])]))
        for e1, e2 in zip(base.effects, shuffled.effects):
            assert e1.f_value == pytest.approx(e2.f_value, rel=1e-9)
            assert e1.p_value == pytest.approx(e2.p_value, rel=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_one_factor_reduces_to_classical(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        groups = [rng.normal(size=int(rng.integers(2, 5))) for _ in range(k)]
        if sum(len(g) for g in groups) - k < 1:
            return
        ssw = sum(((g - g.mean()) ** 2).sum() for g in groups)
        if ssw < 1e-9:
            return
        f_ref, df1, df2 = classical_one_way(groups)
        effect = one_factor_effect(groups)
        assert effect.f_value == pytest.approx(f_ref, rel=1e-9)
        assert (effect.df_between, effect.df_within) == (df1, df2)

    def test_balanced_three_factor_sums_match_group_means(self):
        # in a balanced design, sequential SS equals the classical per-factor SS
        rng = np.random.default_rng(42)
        rows = []
        f_time, f_pop, f_speed = [], [], []
        for t in range(4):
            for n in (10, 30, 50):
                for v in (4.0, 8.0):
                    for _ in range(2):
                        rows.append(t * 1.0 - n * 0.05 + v * 0.3 + rng.normal(scale=0.5))
                        f_time.append(t)
                        f_pop.append(n)
                        f_speed.append(v)
        y = np.array(rows)
        table = ObservationTable(y, [("time", np.array(f_time)), ("population", np.array(f_pop)), ("speed", np.array(f_speed))])
        result = anova_main_effects(table)
        grand = y.mean()
        for effect, levels in zip(result.effects, (f_time, f_pop, f_speed)):
            levels = np.array(levels)
            ss = sum(
                (levels == u).sum() * (y[levels == u].mean() - grand) ** 2 for u in np.unique(levels)
            )
            assert effect.sum_squares == pytest.approx(ss, rel=1e-9)
            assert 0.0 <= effect.p_value <= 1.0

    def test_residual_dof_guard(self):
        table = ObservationTable(
            response=np.array([1.0, 2.0, 3.0, 4.0]),
            factors=[("a", np.array([0, 1, 2, 3]))],
        )
        with pytest.raises(DesignError):
            anova_main_effects(table)

    def test_factor_needs_two_levels(self):
        """The table's maker drops a factor constant over the sweep, and refuses a table with no factor left."""
        means = [np.arange(4.0).reshape(2, 2), np.arange(4.0, 8.0).reshape(2, 2)]  # (runs, time bins) per cell
        table = build_observation_table([(10, 6.0), (20, 6.0)], means)
        assert [name for name, _ in table.factors] == ["time", "population"]
        with pytest.raises(DesignError, match="at least one factor"):
            build_observation_table([(10, 6.0)], [np.arange(2.0).reshape(2, 1)])
