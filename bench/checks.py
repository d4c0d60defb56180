"""Output checks: invariants every operation's files must satisfy, and digests.

The checks read the program's output files directly, with no help from the
package, so a bug in the package's own readers cannot hide a bad file.
Each function returns a list of problems; an empty list means the file passed.
"""
from __future__ import annotations

import hashlib
import re

import numpy as np

METRICS_HEADER = "t,mean_cue,ratio_within_rc,coherency_m"
ANOVA_HEADER = "factor,F,p,df_between,df_within"
MANIFEST_HEADER = "n_robots,beta,repetition,seed,path,status"
_PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


def _read_lines(path) -> tuple[list[str], list[str]]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read().splitlines(), []
    except (OSError, UnicodeDecodeError) as exc:
        return [], [f"{path}: unreadable ({exc})"]


def _table(path, lines: list[str], header: str, width: int) -> tuple[list[list[str]], list[str]]:
    if not lines or lines[0] != header:
        return [], [f"{path}: header is not {header!r}"]
    rows = [line.split(",") for line in lines[1:]]
    bad = [i for i, row in enumerate(rows, start=2) if len(row) != width]
    if bad:
        return [], [f"{path}: line {bad[0]} does not have {width} fields"]
    return rows, []


def metrics_csv(path, n_rows: int) -> list[str]:
    """Rows t = 0..n_rows-1, finite values, mean_cue non-increasing, ratio in [0, 1]."""
    lines, problems = _read_lines(path)
    if problems:
        return problems
    rows, problems = _table(path, lines, METRICS_HEADER, 4)
    if problems:
        return problems
    try:
        table = np.array([[float(v) for v in row] for row in rows], dtype=np.float64).reshape(-1, 4)
    except ValueError as exc:
        return [f"{path}: unparsable value ({exc})"]
    if len(table) != n_rows:
        return [f"{path}: {len(table)} rows, expected {n_rows}"]
    if not np.isfinite(table).all():
        problems.append(f"{path}: non-finite value")
    if not np.array_equal(table[:, 0], np.arange(n_rows)):
        problems.append(f"{path}: t does not run 0..{n_rows - 1}")
    if np.any(np.diff(table[:, 1]) > 0.0):
        problems.append(f"{path}: mean_cue increases")
    if np.any((table[:, 2] < 0.0) | (table[:, 2] > 1.0)):
        problems.append(f"{path}: ratio_within_rc outside [0, 1]")
    if np.any(table[:, 3] < 0.0):
        problems.append(f"{path}: negative coherency_m")
    return problems


def pgm(path, width: int, height: int) -> list[str]:
    """A binary 8-bit PGM of exactly width x height cells."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return [f"{path}: unreadable ({exc})"]
    m = _PGM_HEADER.match(data)
    if not m:
        return [f"{path}: not a binary PGM"]
    cols, rows, maxval = (int(g) for g in m.groups())
    if (cols, rows, maxval) != (width, height, 255):
        return [f"{path}: {cols}x{rows} maxval {maxval}, expected {width}x{height} maxval 255"]
    if len(data) - m.end() != width * height:
        return [f"{path}: raster has {len(data) - m.end()} bytes, expected {width * height}"]
    return []


def manifest(path, expected: set[tuple[int, float, int]]) -> tuple[dict[tuple[int, float, int], str], list[str]]:
    """Map each expected (n_robots, beta, repetition) to its run directory.

    Every expected run must be listed once with status `ok`, and nothing else.
    """
    lines, problems = _read_lines(path)
    if problems:
        return {}, problems
    rows, problems = _table(path, lines, MANIFEST_HEADER, 6)
    if problems:
        return {}, problems
    paths: dict[tuple[int, float, int], str] = {}
    for n, beta, rep, _seed, run_path, status in rows:
        try:
            key = (int(n), float(beta), int(rep))
        except ValueError:
            return {}, [f"{path}: unparsable run coordinates {n},{beta},{rep}"]
        if key in paths or key not in expected:
            problems.append(f"{path}: unexpected or repeated run {key}")
        if status != "ok":
            problems.append(f"{path}: run {run_path} has status {status!r}")
        paths[key] = run_path
    if set(paths) != expected:
        problems.append(f"{path}: {len(expected - set(paths))} expected runs missing")
    return paths, problems


def anova_csv(path) -> list[str]:
    """At least one effect, F finite and >= 0, p in [0, 1], and not degenerate."""
    lines, problems = _read_lines(path)
    if problems:
        return problems
    rows, problems = _table(path, lines, ANOVA_HEADER, 5)
    if problems:
        return problems
    if not rows:
        return [f"{path}: no effects"]
    try:
        effects = [(float(f), float(p), int(d1), int(d2)) for _, f, p, d1, d2 in rows]
    except ValueError as exc:
        return [f"{path}: unparsable value ({exc})"]
    for f, p, d1, d2 in effects:
        if not (np.isfinite(f) and f >= 0.0 and 0.0 <= p <= 1.0 and d1 >= 1 and d2 >= 1):
            problems.append(f"{path}: invalid effect F={f} p={p} df=({d1},{d2})")
    if all(f == 0.0 and p == 1.0 for f, p, _, _ in effects):
        problems.append(f"{path}: degenerate ANOVA (every effect F=0, p=1)")
    return problems


def sha256(path) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return "missing"
