"""Per-second swarm observables and their CSV container.

Three quantities are logged once per simulated second: the arena-wide
mean cue intensity, the fraction of robots inside a fixed circle around
the cue center, and the swarm coherency (mean pairwise distance).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CSV_HEADER = "t,mean_cue,ratio_within_rc,coherency_m"


def ratio_within(positions_cm: np.ndarray, center_cm: tuple[float, float], r_c_cm: float = 70.0) -> float:
    """Fraction of robots within r_c of the center (boundary counts as inside).

    positions_cm is an (N, 2) array; an empty swarm reports 0.
    """
    pos = np.asarray(positions_cm, dtype=np.float64).reshape(-1, 2)
    n = len(pos)
    if n == 0:
        return 0.0
    d = np.hypot(pos[:, 0] - center_cm[0], pos[:, 1] - center_cm[1])
    return float(np.count_nonzero(d <= r_c_cm)) / n


def coherency(geom) -> float:
    """Mean distance over all unordered robot pairs, in meters.

    geom is the engine's PairGeometry: its d2 holds the squared center
    distances in cm^2, and only the strict upper triangle (geom.upper) is
    read. Fewer than two robots report 0.
    """
    if len(geom.upper) == 0:
        return 0.0
    return float(np.sqrt(np.take(geom.d2, geom.upper)).mean()) / 100.0


@dataclass
class MetricsRecord:
    t: int
    mean_cue: float
    ratio_within_rc: float
    coherency_m: float


@dataclass
class MetricsSeries:
    """Column-oriented store of per-second records, one row per whole second."""

    t: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    mean_cue: np.ndarray = field(default_factory=lambda: np.empty(0))
    ratio_within_rc: np.ndarray = field(default_factory=lambda: np.empty(0))
    coherency_m: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __len__(self) -> int:
        return len(self.t)

    def row(self, i: int) -> MetricsRecord:
        return MetricsRecord(
            t=int(self.t[i]),
            mean_cue=float(self.mean_cue[i]),
            ratio_within_rc=float(self.ratio_within_rc[i]),
            coherency_m=float(self.coherency_m[i]),
        )

    @classmethod
    def from_records(cls, records: list[MetricsRecord]) -> "MetricsSeries":
        return cls(
            t=np.array([r.t for r in records], dtype=np.int64),
            mean_cue=np.array([r.mean_cue for r in records], dtype=np.float64),
            ratio_within_rc=np.array([r.ratio_within_rc for r in records], dtype=np.float64),
            coherency_m=np.array([r.coherency_m for r in records], dtype=np.float64),
        )

    def to_csv(self, path) -> None:
        # repr() of a Python float is the shortest round-trip decimal
        with open(path, "w", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for i in range(len(self.t)):
                fh.write(
                    f"{int(self.t[i])},{float(self.mean_cue[i])!r},"
                    f"{float(self.ratio_within_rc[i])!r},{float(self.coherency_m[i])!r}\n"
                )

    @classmethod
    def from_csv(cls, path) -> "MetricsSeries":
        with open(path, "r", newline="") as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise ValueError(f"{path}: unexpected metrics header {header!r}")
            cols = [[], [], [], []]
            for line in fh:
                parts = line.strip().split(",")
                if len(parts) != 4:
                    raise ValueError(f"{path}: malformed metrics row {line!r}")
                for c, v in zip(cols, parts):
                    c.append(v)
        return cls(
            t=np.array([int(v) for v in cols[0]], dtype=np.int64),
            mean_cue=np.array([float(v) for v in cols[1]]),
            ratio_within_rc=np.array([float(v) for v in cols[2]]),
            coherency_m=np.array([float(v) for v in cols[3]]),
        )
