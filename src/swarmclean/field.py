"""Contamination cue field: a discretized scalar intensity map over the arena.

The field is a bare float64 array of shape (rows, cols), one cell per
square cm: row r covers y in [r, r+1) cm and column c covers the same
band in x. Cells hold intensities in [0, 255]. Robots read it with ground
sensors and erode it with a fixed 9x9 cleaning kernel while they sit in
the waiting state; nothing ever raises a cell.
"""
from __future__ import annotations

import functools

import numpy as np

from .metrics import write_atomic

# Cleaning kernel: decrement(p, q) = 8 - sqrt(p^2 + q^2) for cell offsets
# p, q in [-4, 4]. Strongest directly under the robot (8 per application),
# weakest at the corners (8 - sqrt(32) ~ 2.343); every entry is positive.
KERNEL_REACH = 4
_KERNEL_OFFSETS = np.arange(-KERNEL_REACH, KERNEL_REACH + 1)
_KERNEL_ROW_OFFSETS = _KERNEL_OFFSETS[:, None]
CLEAN_KERNEL = 8.0 - np.sqrt(_KERNEL_ROW_OFFSETS**2 + _KERNEL_OFFSETS[None, :] ** 2)
_ZERO = np.array(0.0)  # a 0-d operand: numpy converts a Python float operand on every call
_RASTER_ROWS = 32  # field rows per block of `pgm_raster`


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
    linearly to zero at the circle edge, zero beyond it. The caller passes
    a validated `SimConfig`'s geometry: positive sides and radius, `peak`
    in (0, 255] and `center` inside the arena.
    """
    cx, cy = center
    # distances from cell centers, turned into intensities in place (no full-size temporaries)
    xs = np.arange(round(width_cm)) + 0.5
    ys = np.arange(round(height_cm)) + 0.5
    field = np.hypot(xs[None, :] - cx, ys[:, None] - cy)
    field /= radius_cm
    np.subtract(1.0, field, out=field)
    np.clip(field, 0.0, None, out=field)
    field *= peak
    return field


@functools.cache
def _grid_operands(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2, 1) uintp bounds (cols, rows) and the 0-d intp row stride of a rows x cols field, made once per shape."""
    bounds, stride = np.array([[cols], [rows]], dtype=np.uintp), np.array(cols, dtype=np.intp)
    bounds.flags.writeable = stride.flags.writeable = False  # every caller shares them
    return bounds, stride


def sample_many(field: np.ndarray, points_cm: np.ndarray, cell_offset=None, out=None) -> np.ndarray:
    """Intensities of the cells containing each point of the (2, K) points_cm (x, then y); 0 outside the arena.

    Nearest-cell semantics: no interpolation, the raw (possibly fractional)
    cell value is returned, in out (K,) if given. Total over the whole plane. field may be a stack
    (runs, rows, cols): a point's cell_offset of k * rows * cols reads field[k].
    """
    bounds, stride = _grid_operands(*field.shape[-2:])
    cells = np.floor(points_cm).astype(np.intp)  # columns, then rows
    # a negative index wraps to a huge unsigned one, so one comparison checks both bounds of both axes
    inside = np.logical_and(*(cells.view(np.uintp) < bounds))
    index = cells[1] * stride + cells[0]
    if cell_offset is not None:
        index += cell_offset  # on the integer index: floor(y + k * rows) could round across a cell edge
    out = field.take(index, mode="clip", out=out)
    out *= inside  # cells are finite and >= 0, so outside points read +0.0
    return out


def apply_cleaning(field: np.ndarray, xs_cm: np.ndarray, ys_cm: np.ndarray, cell_offset=None) -> None:
    """Erode the field around each robot center with the 9x9 cleaning kernel.

    Each cell at offset (p, q) from a robot's cell drops by
    8 - sqrt(p^2 + q^2), clamped at zero; offsets falling outside the
    arena are skipped. Meant to run once per simulated second over the
    waiting robots. The decrements are subtracted in robot order and the
    clamp comes last, which gives the same bits as cleaning robot by
    robot: every kernel entry is positive, so a cell that goes negative
    stays negative and ends at zero either way. field may be a stack
    (runs, rows, cols), as in `sample_many`: a robot's cell_offset of
    k * rows * cols erodes field[k], so robots of different runs never
    share a cell and each run gets the bits of cleaning its field alone.
    """
    (col_bound, row_bound), stride = _grid_operands(*field.shape[-2:])
    # window cell indices per robot: rows (robots, 9, 1), columns (robots, 1, 9)
    r = np.floor(ys_cm).astype(np.intp).reshape(-1, 1, 1) + _KERNEL_ROW_OFFSETS
    c = np.floor(xs_cm).astype(np.intp).reshape(-1, 1, 1) + _KERNEL_OFFSETS
    # a negative index wraps to a huge unsigned one, so one comparison per axis checks both bounds
    inside = (r.view(np.uintp) < row_bound) & (c.view(np.uintp) < col_bound)
    cells = r * stride + c
    if cell_offset is not None:
        cells += cell_offset.reshape(-1, 1, 1)  # after the bounds check, on the integer index
    cells = cells[inside]
    flat = field.reshape(-1, copy=False)  # a view; a field that is not one block of cells raises
    # one value per cell, materialised: numpy 2.4.6's ufunc.at reads out of bounds when values broadcast over its index
    np.subtract.at(flat, cells, (inside * CLEAN_KERNEL)[inside])
    flat[cells] = np.maximum(flat[cells], _ZERO)


def mean_intensity(field: np.ndarray) -> float:
    """Arithmetic mean over every arena cell (zeros outside the cue included), as `field.mean()` without its wrapper."""
    return float(np.add.reduce(field, axis=None) / field.size)


def pgm_raster(field: np.ndarray) -> np.ndarray:
    """The PGM pixels of the field: round(intensity) clamped to [0, 255], as uint8.

    Rounded _RASTER_ROWS rows at a time, so no float64 copy of the whole field is made: a block of a 285-column
    field and numpy's 64 KiB cast buffer stay under a quarter of the field.
    """
    raster = np.empty(field.shape, dtype=np.uint8)
    for start in range(0, len(field), _RASTER_ROWS):
        rows = slice(start, start + _RASTER_ROWS)
        np.clip(np.rint(field[rows]), 0, 255, out=raster[rows], casting="unsafe")
    return raster


def to_pgm_bytes(raster: np.ndarray) -> bytes:
    """A `pgm_raster` as a binary PGM (P5): the header `P5\\n<w> <h>\\n255\\n`, then its bytes row-major."""
    rows, cols = raster.shape
    return f"P5\n{cols} {rows}\n255\n".encode("ascii") + raster.tobytes()


def write_pgm(raster: np.ndarray, path) -> None:
    write_atomic(path, to_pgm_bytes(raster))

