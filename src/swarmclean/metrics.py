"""Per-second swarm observables and their CSV container.

Three quantities are logged once per simulated second: the arena-wide
mean cue intensity, the fraction of robots inside a fixed circle around
the cue center, and the swarm coherency (mean pairwise distance).
"""
from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

CSV_HEADER = "t,mean_cue,ratio_within_rc,coherency_m"
_CSV_DTYPE = np.dtype({"names": CSV_HEADER.split(","), "formats": ["i8", "f8", "f8", "f8"]})


@contextmanager
def open_atomic(path):
    """Open a temp file beside `path` for writing text; it replaces `path` only once fully written.

    On any error the temp file is removed and `path` is left as it was, so
    an interrupted write never leaves a partial file under the final name.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def ratio_within(xy: np.ndarray, center_cm: tuple[float, float], r_c_cm: float = 70.0) -> float:
    """Fraction of robots within r_c of the center (boundary counts as inside).

    xy is the engine's (2, N) position array: row 0 holds x, row 1 y, in
    cm. An empty swarm reports 0.
    """
    x, y = xy
    n = len(x)
    if n == 0:
        return 0.0
    d = np.hypot(x - center_cm[0], y - center_cm[1])
    return float(np.count_nonzero(d <= r_c_cm)) / n


def coherency(geom) -> float:
    """Mean distance over all unordered robot pairs, in meters.

    geom is the engine's PairGeometry, rebuilt for the current poses: its
    upper_d2 holds the squared center distance of every pair, in cm^2.
    Fewer than two robots report 0.
    """
    if len(geom.upper_d2) == 0:
        return 0.0
    return float(np.sqrt(geom.upper_d2).mean()) / 100.0


@dataclass
class MetricsSeries:
    """Column-oriented store of per-second values, one row per whole second."""

    t: np.ndarray
    mean_cue: np.ndarray
    ratio_within_rc: np.ndarray
    coherency_m: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self, path) -> None:
        # repr() of a Python float is the shortest round-trip decimal
        with open_atomic(path) as fh:
            fh.write(CSV_HEADER + "\n")
            for i in range(len(self.t)):
                fh.write(
                    f"{int(self.t[i])},{float(self.mean_cue[i])!r},"
                    f"{float(self.ratio_within_rc[i])!r},{float(self.coherency_m[i])!r}\n"
                )

    @classmethod
    def from_csv(cls, path) -> "MetricsSeries":
        """Read a file as `to_csv` writes it; anything else raises ValueError naming the path."""
        with open(path, "r") as fh:
            header, _, body = fh.read().partition("\n")
        if header.strip() != CSV_HEADER:
            raise ValueError(f"{path}: unexpected metrics header {header.strip()!r}")
        lines = body.removesuffix("\n").split("\n") if body else []  # one row per line
        if "" in lines:  # loadtxt would skip a blank line silently
            raise ValueError(f"{path}: blank line among the metrics rows")
        # columns first: the parse's scratch is then freed from the top of the heap (analyze's peak RSS stays flat)
        series = cls(**{name: np.empty(len(lines), _CSV_DTYPE[name]) for name in _CSV_DTYPE.names})
        if lines:
            try:
                rows = np.loadtxt(lines, _CSV_DTYPE, delimiter=",", comments=None, ndmin=1)
            except ValueError as exc:
                raise ValueError(f"{path}: malformed metrics row: {exc}") from exc
            for name in _CSV_DTYPE.names:
                getattr(series, name)[:] = rows[name]
        return series
