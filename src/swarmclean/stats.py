"""Cross-run aggregation and N-way main-effects ANOVA.

Runs are reduced with elementwise medians; factor significance is tested
with a main-effects (no interaction) ANOVA using sequential sums of
squares in the declared factor order. F-tail probabilities come from a
regularized incomplete beta evaluated by continued fraction, accurate to
well beyond six significant digits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import MetricsSeries


class DesignError(ValueError):
    """The observation table cannot support the requested decomposition."""


def median_series(runs: list[MetricsSeries]) -> MetricsSeries:
    """Elementwise median of several runs sharing one time grid.

    Even run counts take the mean of the two central values (numpy
    convention). A single run is returned as-is (copied).
    """
    return MetricsSeries(
        t=runs[0].t.copy(),
        mean_cue=np.median([r.mean_cue for r in runs], axis=0),
        ratio_within_rc=np.median([r.ratio_within_rc for r in runs], axis=0),
        coherency_m=np.median([r.coherency_m for r in runs], axis=0),
    )


def bin_means(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Means of `values` over n_bins contiguous, equal-length bins.

    A trailing remainder shorter than a full bin is folded into the last
    bin. Used to turn a per-second series into a categorical time factor.
    `values` is a float64 array and n_bins >= 1 (`cmd_analyze` checks it);
    fewer samples than bins is a ValueError.
    """
    if len(values) < n_bins:
        raise ValueError(f"cannot form {n_bins} bins from {len(values)} samples")
    size = len(values) // n_bins
    out = np.empty(n_bins)
    for k in range(n_bins):
        lo = k * size
        hi = (k + 1) * size if k < n_bins - 1 else len(values)
        out[k] = values[lo:hi].mean()
    return out


# --- F distribution tail ----------------------------------------------------

_BETA_EPS = 3e-15
_BETA_FPMIN = 1e-300
_BETA_MAXIT = 300


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction failed for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        a * math.log(x)
        + b * math.log1p(-x)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )
    front = math.exp(ln_front)
    # the continued fraction converges fast only on its own side of the mean
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def f_tail_probability(f_value: float, df_num: int, df_den: int) -> float:
    """P(F >= f_value) for an F(df_num, df_den) variate, df_num, df_den >= 1; p(0) = 1."""
    if f_value <= 0.0:
        return 1.0
    if math.isinf(f_value):
        return 0.0
    z = df_den / (df_den + df_num * f_value)
    return regularized_incomplete_beta(0.5 * df_den, 0.5 * df_num, z)


# --- main-effects ANOVA ------------------------------------------------------

@dataclass
class ObservationTable:
    """Response vector plus ordered categorical factors.

    `factors` maps names to level labels (one per row, any hashable and
    sortable values). Order matters: sums of squares are sequential. The
    maker (`build_observation_table`) guarantees a 1-D float64 response, at
    least one factor, and per factor one label per row and at least 2 levels.
    """

    response: np.ndarray
    factors: list[tuple[str, np.ndarray]]


@dataclass
class FactorEffect:
    name: str
    f_value: float
    p_value: float
    df_between: int
    df_within: int
    sum_squares: float


@dataclass
class AnovaResult:
    effects: list[FactorEffect]
    residual_ss: float
    residual_df: int
    degenerate: bool

    def effect(self, name: str) -> FactorEffect:
        for e in self.effects:
            if e.name == name:
                return e
        raise KeyError(name)


def _dummy_columns(levels: np.ndarray) -> np.ndarray:
    """Treatment-coded indicators for every level but the first (sorted)."""
    uniq = np.unique(levels)
    return (levels[:, None] == uniq[None, 1:]).astype(np.float64)


def anova_main_effects(table: ObservationTable) -> AnovaResult:
    """Per-factor F and p from a sequential main-effects decomposition.

    Each factor's sum of squares is the drop in residual sum of squares
    when its indicator columns join the design (Type-I, in declared
    order; for balanced designs the order is immaterial). F divides the
    factor mean square by the full-model residual mean square. A zero
    residual variance flags the result degenerate, every effect F = 0, p = 1.
    Confounded factors (no new column rank) are rejected.
    """
    y = table.response
    n = len(y)
    design = np.ones((n, 1))

    def rss_of(x: np.ndarray) -> tuple[float, int]:
        """The residual sum of squares of y on x, and x's rank: singular values above eps * max(M, N) * the largest."""
        beta, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
        resid = y - x @ beta
        return float(resid @ resid), int(rank)

    rss_prev, rank = rss_of(design)
    seq: list[tuple[str, float, int]] = []  # (name, SS, df)
    for name, levels in table.factors:
        cols = _dummy_columns(levels)
        df_k = cols.shape[1]
        design = np.hstack([design, cols])
        rss_k, new_rank = rss_of(design)
        if new_rank != rank + df_k:
            raise DesignError(
                f"factor {name!r} is confounded with preceding factors "
                f"(rank gained {new_rank - rank}, expected {df_k})"
            )
        rank = new_rank
        seq.append((name, max(rss_prev - rss_k, 0.0), df_k))
        rss_prev = rss_k

    residual_ss = rss_prev
    residual_df = n - rank
    if residual_df < 1:
        raise DesignError(f"no residual degrees of freedom left ({n} rows, rank {rank})")

    # residual indistinguishable from float noise: no variance left to test against
    total_ss = float(((y - y.mean()) ** 2).sum())
    degenerate = residual_ss <= 1e-12 * max(total_ss, 1.0)
    ms_resid = residual_ss / residual_df

    effects = []
    for name, ss, df_k in seq:
        f_val = 0.0 if degenerate else (ss / df_k) / ms_resid  # p(0) = 1
        effects.append(FactorEffect(name, f_val, f_tail_probability(f_val, df_k, residual_df), df_k, residual_df, ss))
    return AnovaResult(effects=effects, residual_ss=residual_ss, residual_df=residual_df, degenerate=degenerate)

