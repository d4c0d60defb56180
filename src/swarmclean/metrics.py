"""Per-second swarm observables and their CSV container.

Three quantities are logged once per simulated second: the arena-wide
mean cue intensity, the fraction of robots inside a fixed circle around
the cue center, and the swarm coherency (mean pairwise distance).
"""
from __future__ import annotations

import hashlib
import io
import os
from dataclasses import dataclass

import numpy as np

CSV_HEADER = "t,mean_cue,ratio_within_rc,coherency_m"
_CSV_DTYPE = np.dtype({"names": CSV_HEADER.split(","), "formats": ["<i8", "<f8", "<f8", "<f8"]})
_DIGEST_BYTES = hashlib.sha256().digest_size


def write_atomic(path, data: str | bytes) -> None:
    """Write `data` (a str as text with newline="", bytes as binary) to a temp file beside `path`, then move it there.

    On any error the temp file is removed and `path` is left as it was, so
    an interrupted write never leaves a partial file under the final name.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") if isinstance(data, str) else open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _render(column: np.ndarray) -> list[str]:
    """repr() of each float64 of column, called once per distinct bit pattern, so 0.0 and -0.0 each keep their text."""
    bits, row_of = np.unique(column.view(np.int64), return_inverse=True)
    text = [repr(v) for v in bits.view(np.float64).tolist()]  # repr() of a float is the shortest round-trip decimal
    return [text[k] for k in row_of.tolist()]


def ratio_within(xy: np.ndarray, center_cm: tuple[float | np.ndarray, ...], r_c_cm, starts) -> list[float]:
    """Fraction of robots within r_c of the center (boundary counts as inside), one per block of robots.

    xy is the engine's (2, N) position array: row 0 holds x, row 1 y, in
    cm; the (x, y) center and r_c are floats or 0-d arrays. Block k is the
    columns starts[k]:starts[k + 1]. An empty block reports 0.
    """
    x, y = xy
    inside = np.hypot(x - center_cm[0], y - center_cm[1]) <= r_c_cm if len(x) else x  # no pass for no robots
    return [float(np.count_nonzero(inside[a:b])) / (b - a) if b > a else 0.0 for a, b in zip(starts, starts[1:])]


def coherency(upper_d2: np.ndarray, starts) -> list[float]:
    """Mean distance over all unordered robot pairs, in meters, one per block of pairs.

    upper_d2 holds the squared center distance of every pair, in cm^2: the
    `upper_d2` of the engine's PairGeometry, rebuilt for the current poses,
    whose block k, upper_d2[starts[k]:starts[k + 1]], holds run k's pairs. A
    block of fewer than two robots reports 0.
    """
    d = np.sqrt(upper_d2) if len(upper_d2) else upper_d2
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
        # rows index the columns, so a short column raises IndexError where zip would drop rows
        t, cue, ratio, coh = self.t.tolist(), *map(_render, (self.mean_cue, self.ratio_within_rc, self.coherency_m))
        return CSV_HEADER + "\n" + "".join([f"{t[i]},{cue[i]},{ratio[i]},{coh[i]}\n" for i in range(len(t))])

    def to_csv(self, path) -> None:
        """Write `csv_text()` to path, then to path + ".bin" the SHA-256 of the CSV bytes and records, then the records.

        The CSV is the format; the copy, one `_CSV_DTYPE` record per row, spares `from_csv` the parse of those bytes.
        """
        text, rows = self.csv_text().encode(), np.empty(len(self), _CSV_DTYPE)
        for name in _CSV_DTYPE.names:
            rows[name] = getattr(self, name)
        write_atomic(path, text)
        records = rows.tobytes()
        write_atomic(f"{path}.bin", hashlib.sha256(text + records).digest() + records)

    @classmethod
    def from_csv(cls, path) -> "MetricsSeries":
        """Read a file as `to_csv` writes it, every value finite; anything else raises ValueError naming the path.

        The rows come from the binary copy beside the file when it carries the digest of the file's bytes and its own
        records, else from parsing the text; `repr` round-trips every float, so both give the same bits.
        """
        with open(path, "rb") as fh:
            data = fh.read()
        rows = _copied_rows(f"{path}.bin", data)
        if rows is None:
            header, _, body = io.TextIOWrapper(io.BytesIO(data)).read().partition("\n")  # decoded as by open(path)
            if header.strip() != CSV_HEADER:
                raise ValueError(f"{path}: unexpected metrics header {header.strip()!r}")
            lines = body.removesuffix("\n").split("\n") if body else []  # one row per line
            if "" in lines:  # loadtxt would skip a blank line silently
                raise ValueError(f"{path}: blank line among the metrics rows")
            rows = np.empty(0, _CSV_DTYPE)
            if lines:  # loadtxt warns on no rows
                try:
                    rows = np.loadtxt(lines, _CSV_DTYPE, delimiter=",", comments=None, ndmin=1)
                except ValueError as exc:
                    raise ValueError(f"{path}: malformed metrics row: {exc}") from exc
        for name in _CSV_DTYPE.names:
            if not np.isfinite(rows[name]).all():  # no run writes nan or inf, but loadtxt and to_csv pass them
                raise ValueError(f"{path}: non-finite value in column {name}")
        return cls(**{name: rows[name].copy() for name in _CSV_DTYPE.names})


def _copied_rows(copy_path, data: bytes) -> np.ndarray | None:
    """The records of the binary copy that `to_csv` wrote beside the CSV bytes `data`; None if copy_path holds none."""
    try:
        with open(copy_path, "rb") as fh:
            digest, records = fh.read(_DIGEST_BYTES), fh.read()
    except OSError:
        return None
    intact = len(records) % _CSV_DTYPE.itemsize == 0 and hashlib.sha256(data + records).digest() == digest
    return np.frombuffer(records, _CSV_DTYPE) if intact else None
