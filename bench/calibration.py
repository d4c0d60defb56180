"""Host-speed calibration: fixed work timed next to every measured operation.

On a shared host the same work can take 30% longer for minutes at a time,
and CPU time slows with wall time, so raw wall times of runs made minutes
apart are not comparable. Each workload is calibrated with work like its
own, since work of another kind tracked it poorly:

- "compute" mixes a loop of small numpy calls and scalar float math (the
  per-robot loop) with N x N array arithmetic on 200 points (the pair
  passes). Either half alone over- or under-corrected some simulation
  workload; their sum tracked them best.
- "csv" splits, parses and formats float text, as `metrics.csv` I/O does;
  the compute work tracked `analyze` poorly.

The work uses nothing from the package, so a change to the program cannot
change it. Timing it just before and just after an operation gives the
host's speed during that operation; `Calibrator.scale` turns the
operation's wall time into seconds on the reference host.
"""
from __future__ import annotations

import math
import multiprocessing
import statistics
import time

import numpy as np

# Median time of the work per process on an unloaded 2-core Intel Xeon (numpy 2.4,
# Python 3.11), by kind and by the number of processes running it at once.
REFERENCE_S = {("compute", 1): 0.010, ("compute", 2): 0.014, ("csv", 1): 0.0045}
_REPEATS = 5
_RNG = np.random.default_rng(0)
_POINTS = _RNG.uniform(0.0, 285.0, size=(2, 200))
_CSV = "\n".join(f"{i},{a!r},{b!r},{c!r}" for i, (a, b, c) in enumerate(_RNG.uniform(0.0, 40.0, (3000, 3)).tolist()))


def _compute() -> float:
    x = np.linspace(0.0, 1.0, 16)
    acc = 0.0
    for i in range(1600):
        y = np.cos(x) * 0.5 + x
        acc += math.sin(float(y[i & 15])) + float(f"{i * 0.37:.6f}")
    px, py = _POINTS
    for _ in range(15):
        dx = px[None, :] - px[:, None]
        dy = py[None, :] - py[:, None]
        d2 = dx * dx + dy * dy
        np.fill_diagonal(d2, np.inf)
        acc += float((d2 < 100.0).any(axis=1).sum()) + float(d2.min())
    return acc


def _csv() -> float:
    cols = [[], [], [], []]
    for line in _CSV.split("\n"):
        for col, value in zip(cols, line.split(",")):
            col.append(value)
    values = [float(v) for v in cols[1]] + [float(v) for v in cols[2]]
    text = "".join(f"{v!r}\n" for v in values[:2000])
    return sum(values) + len(text)


_KINDS = {"compute": _compute, "csv": _csv}


def _work(kind: str) -> float:
    t0 = time.perf_counter()
    acc = _KINDS[kind]()
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("calibration work produced a non-finite value")
    return elapsed


class Calibrator:
    """Times one kind of calibration work on as many processes as the measured operation uses.

    An operation that keeps both CPUs busy slows differently from one that
    uses one, so a parallel operation is calibrated by running the work in
    `jobs` worker processes at once. Call `close` to stop the workers. The
    workers are forked, as the package's own sweep pool is: a spawn context
    would also start a resource-tracker process that outlives the run.
    """

    def __init__(self, kind: str = "compute", jobs: int = 1):
        self.kind = kind
        self.jobs = jobs
        self.reference_s = REFERENCE_S[(kind, jobs)]
        self._pool = multiprocessing.get_context("fork").Pool(jobs) if jobs > 1 else None

    def loop_s(self) -> float:
        """Median time of the calibration work now, per process."""
        if self._pool is None:
            return statistics.median(_work(self.kind) for _ in range(_REPEATS))
        return statistics.median(
            statistics.fmean(self._pool.map(_work, [self.kind] * self.jobs, chunksize=1)) for _ in range(_REPEATS)
        )

    def scale(self, before_s: float, after_s: float) -> float:
        """Factor from wall time measured between two calibrations to reference-host seconds."""
        return self.reference_s / (0.5 * (before_s + after_s))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
