"""Contamination cue field: a discretized scalar intensity map over the arena.

The field is a bare float64 array of shape (rows, cols), one cell per
square cm: row r covers y in [r, r+1) cm and column c covers the same
band in x. Cells hold intensities in [0, 255]. Robots read it with ground
sensors and erode it with a fixed 9x9 cleaning kernel while they sit in
the waiting state; nothing ever raises a cell.
"""
from __future__ import annotations

import numpy as np

# Cleaning kernel: decrement(p, q) = 8 - sqrt(p^2 + q^2) for cell offsets
# p, q in [-4, 4]. Strongest directly under the robot (8 per application),
# weakest at the corners (8 - sqrt(32) ~ 2.343); every entry is positive.
KERNEL_REACH = 4
_KERNEL_OFFSETS = np.arange(-KERNEL_REACH, KERNEL_REACH + 1)
CLEAN_KERNEL = 8.0 - np.sqrt(_KERNEL_OFFSETS[:, None] ** 2 + _KERNEL_OFFSETS[None, :] ** 2)


def init_circular_gradient(
    width_cm: float,
    height_cm: float,
    center: tuple[float, float],
    radius_cm: float,
    peak: float,
) -> np.ndarray:
    """Build a field holding a radially linear cone of intensity.

    The field has round(height_cm) rows and round(width_cm) columns. A
    cell whose center sits at distance d from `center` gets the value
    peak * max(0, 1 - d / radius_cm): `peak` at the center, falling
    linearly to zero at the circle edge, zero beyond it.
    """
    if width_cm <= 0 or height_cm <= 0:
        raise ValueError(f"arena dimensions must be positive, got {width_cm} x {height_cm}")
    if radius_cm <= 0:
        raise ValueError(f"cue radius must be positive, got {radius_cm}")
    if not 0 < peak <= 255:
        raise ValueError(f"peak intensity must be in (0, 255], got {peak}")
    cx, cy = center
    if not (0 <= cx <= width_cm and 0 <= cy <= height_cm):
        raise ValueError(f"cue center {center} lies outside the arena")

    # distances from cell centers, turned into intensities in place (no full-size temporaries)
    xs = np.arange(round(width_cm)) + 0.5
    ys = np.arange(round(height_cm)) + 0.5
    field = np.hypot(xs[None, :] - cx, ys[:, None] - cy)
    field /= radius_cm
    np.subtract(1.0, field, out=field)
    np.clip(field, 0.0, None, out=field)
    field *= peak
    return field


def sample_many(field: np.ndarray, xs_cm: np.ndarray, ys_cm: np.ndarray) -> np.ndarray:
    """Intensities of the cells containing each point; 0 outside the arena.

    Nearest-cell semantics: no interpolation, the raw (possibly fractional)
    cell value is returned. Total over the whole plane.
    """
    rows, cols = field.shape
    c = np.floor(xs_cm).astype(np.intp)
    r = np.floor(ys_cm).astype(np.intp)
    # a negative index wraps to a huge unsigned one, so one comparison per axis checks both bounds
    inside = (c.view(np.uintp) < cols) & (r.view(np.uintp) < rows)
    r *= cols
    r += c
    out = np.take(field, r, mode="clip")
    out *= inside  # cells are finite and >= 0, so outside points read +0.0
    return out


def apply_cleaning(field: np.ndarray, xs_cm: np.ndarray, ys_cm: np.ndarray) -> None:
    """Erode the field around each robot center with the 9x9 cleaning kernel.

    Each cell at offset (p, q) from a robot's cell drops by
    8 - sqrt(p^2 + q^2), clamped at zero; offsets falling outside the
    arena are skipped. Meant to run once per simulated second over the
    waiting robots. The decrements are subtracted in robot order and the
    clamp comes last, which gives the same bits as cleaning robot by
    robot: every kernel entry is positive, so a cell that goes negative
    stays negative and ends at zero either way.
    """
    rows, cols = field.shape
    # window cell indices per robot: rows (robots, 9, 1), columns (robots, 1, 9)
    r = np.floor(ys_cm).astype(np.intp).reshape(-1, 1, 1) + _KERNEL_OFFSETS[:, None]
    c = np.floor(xs_cm).astype(np.intp).reshape(-1, 1, 1) + _KERNEL_OFFSETS
    # a negative index wraps to a huge unsigned one, so one comparison per axis checks both bounds
    inside = (r.view(np.uintp) < rows) & (c.view(np.uintp) < cols)
    cells = (r * cols + c)[inside]
    flat = field.reshape(-1, copy=False)  # a view; a field that is not one block of cells raises
    np.subtract.at(flat, cells, (inside * CLEAN_KERNEL)[inside])
    flat[cells] = np.maximum(flat[cells], 0.0)


def mean_intensity(field: np.ndarray) -> float:
    """Arithmetic mean over every arena cell (zeros outside the cue included)."""
    return float(field.mean())


def pgm_raster(field: np.ndarray) -> np.ndarray:
    """The PGM pixels of the field: round(intensity) clamped to [0, 255], as uint8."""
    return np.clip(np.rint(field), 0, 255).astype(np.uint8)


def to_pgm_bytes(raster: np.ndarray) -> bytes:
    """A `pgm_raster` as a binary PGM (P5): the header `P5\\n<w> <h>\\n255\\n`, then its bytes row-major."""
    rows, cols = raster.shape
    return f"P5\n{cols} {rows}\n255\n".encode("ascii") + raster.tobytes()


def write_pgm(raster: np.ndarray, path) -> None:
    with open(path, "wb") as fh:
        fh.write(to_pgm_bytes(raster))


def read_pgm(path) -> np.ndarray:
    """Load a P5 PGM written by `write_pgm` back into a field."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    cols, rows, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if cols <= 0 or rows <= 0:
        raise ValueError(f"{path}: image dimensions must be positive, got {cols} x {rows}")
    if maxval != 255:
        raise ValueError(f"{path}: expected 8-bit PGM, got maxval {maxval}")
    pos += 1  # single whitespace byte after the header
    raster = np.frombuffer(data, dtype=np.uint8, count=rows * cols, offset=pos)
    return raster.reshape(rows, cols).astype(np.float64)
