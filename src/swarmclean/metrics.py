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


def ratio_within(xy: np.ndarray, center_cm: tuple[float | np.ndarray, ...], r_c_cm=70.0, starts=None) -> list[float]:
    """Fraction of robots within r_c of the center (boundary counts as inside), one per block of robots.

    xy is the engine's (2, N) position array: row 0 holds x, row 1 y, in
    cm; the (x, y) center and r_c are floats or 0-d arrays. Block k is the
    columns starts[k]:starts[k + 1], by default one block of all. An empty block reports 0.
    """
    x, y = xy
    inside = np.hypot(x - center_cm[0], y - center_cm[1]) <= r_c_cm if len(x) else x  # no pass for no robots
    starts = (0, len(x)) if starts is None else starts
    return [float(np.count_nonzero(inside[a:b])) / (b - a) if b > a else 0.0 for a, b in zip(starts, starts[1:])]


def coherency(upper_d2: np.ndarray, starts=None) -> list[float]:
    """Mean distance over all unordered robot pairs, in meters, one per block of pairs.

    upper_d2 holds the squared center distance of every pair, in cm^2: the
    `upper_d2` of the engine's PairGeometry, rebuilt for the current poses,
    whose block k, upper_d2[starts[k]:starts[k + 1]], holds run k's pairs (by
    default one block of all). A block of fewer than two robots reports 0.
    """
    d = np.sqrt(upper_d2) if len(upper_d2) else upper_d2
    starts = (0, len(d)) if starts is None else starts
    # the sum and division of .mean(), the same bits, without its Python-level wrapper
    return [float(np.add.reduce(d[a:b]) / (b - a)) / 100.0 if b > a else 0.0 for a, b in zip(starts, starts[1:])]


@dataclass
class MetricsSeries:
    """Column-oriented store of per-second values, one row per whole second: t int64, the rest float64."""

    t: np.ndarray
    mean_cue: np.ndarray
    ratio_within_rc: np.ndarray
    coherency_m: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def csv_text(self) -> str:
        """The text of the file `to_csv` writes: the header, then one row per second."""
        # one tolist() per column, as Python ints and floats; repr() of a float is the shortest round-trip
        # decimal, and rows index the lists, so a short column raises IndexError where zip would drop rows
        t, cue, ratio, coh = (c.tolist() for c in (self.t, self.mean_cue, self.ratio_within_rc, self.coherency_m))
        return CSV_HEADER + "\n" + "".join([f"{t[i]},{cue[i]!r},{ratio[i]!r},{coh[i]!r}\n" for i in range(len(t))])

    def to_csv(self, path) -> None:
        with open_atomic(path) as fh:
            fh.write(self.csv_text())

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
