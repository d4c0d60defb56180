"""The shared pair geometry against dense per-pass recomputation.

Contact detection and overlap separation read one PairGeometry that the
tick loop keeps for the current poses. The references below rebuild every
pairwise offset from the poses on each call, as both passes did before
they shared the buffer; the engine must agree with them bit for bit.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmclean.engine import PairGeometry, SimConfig, _detect_events_trig, _separate_overlaps

CFG = SimConfig()
R = CFG.body_radius_cm


def detect_dense(x, y, cos_t, sin_t, config):
    """Contact flags from a freshly built N x N offset matrix."""
    n = len(x)
    robot_contact = np.zeros(n, dtype=bool)
    if n == 0:
        return robot_contact, np.zeros(n, dtype=bool)
    if n > 1:
        dx = x[None, :] - x[:, None]
        dy = y[None, :] - y[:, None]
        d2 = dx * dx + dy * dy
        within = d2 <= config.contact_range_cm**2
        np.fill_diagonal(within, False)
        frontal = cos_t[:, None] * dx + sin_t[:, None] * dy >= 0.0
        robot_contact = (within & frontal).any(axis=1)
    r = config.body_radius_cm
    rng_cm = config.wall_range_cm
    wall_contact = (
        ((x - r < rng_cm) & (cos_t <= 0.0))
        | ((config.arena_width_cm - r - x < rng_cm) & (cos_t >= 0.0))
        | ((y - r < rng_cm) & (sin_t <= 0.0))
        | ((config.arena_height_cm - r - y < rng_cm) & (sin_t >= 0.0))
    )
    return robot_contact, wall_contact


def separate_dense(x, y, config):
    """Overlap separation over a freshly built N x N distance matrix."""
    n = len(x)
    if n < 2:
        return False
    min_d = 2.0 * config.body_radius_cm
    dx = x[None, :] - x[:, None]
    dy = y[None, :] - y[:, None]
    d2 = dx * dx + dy * dy
    np.fill_diagonal(d2, np.inf)
    if d2.min() >= min_d * min_d:
        return False
    ii, jj = np.nonzero(d2 < min_d * min_d)
    for i, j in zip(ii.tolist(), jj.tolist()):
        if i >= j:
            continue
        d = math.hypot(x[j] - x[i], y[j] - y[i])
        if d < 1e-9:
            ux, uy = 1.0, 0.0
            d = 0.0
        else:
            ux, uy = (x[j] - x[i]) / d, (y[j] - y[i]) / d
        shift = 0.5 * (min_d - d)
        x[i] -= ux * shift
        y[i] -= uy * shift
        x[j] += ux * shift
        y[j] += uy * shift
    r = config.body_radius_cm
    np.clip(x, r, config.arena_width_cm - r, out=x)
    np.clip(y, r, config.arena_height_cm - r, out=y)
    return True


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def swarms(draw):
    """Poses inside the walls, often crowded, with coincident and touching robots."""
    n = draw(st.integers(0, 60))
    spread = draw(st.sampled_from([12.0, 40.0, 120.0, CFG.arena_width_cm - 2 * R]))
    lo = R
    coord = st.floats(lo, lo + spread)
    xs = draw(st.lists(coord, min_size=n, max_size=n))
    ys = draw(st.lists(coord, min_size=n, max_size=n))
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        kind = draw(st.sampled_from(["free", "free", "coincident", "touching", "contact_range"]))
        if kind == "coincident":
            xs[i], ys[i] = xs[j], ys[j]
        elif kind == "touching":
            xs[i], ys[i] = xs[j] + 2 * R, ys[j]
        elif kind == "contact_range":
            xs[i], ys[i] = xs[j], ys[j] + CFG.contact_range_cm
    hi = CFG.arena_width_cm - R
    x = np.clip(np.array(xs, dtype=float), R, hi)
    y = np.clip(np.array(ys, dtype=float), R, hi)
    heading = np.array(draw(st.lists(st.floats(-math.pi, math.pi), min_size=n, max_size=n)), dtype=float)
    return x, y, heading


@given(swarms())
@settings(max_examples=150, deadline=None)
def test_shared_detection_matches_dense(swarm):
    x, y, heading = swarm
    cos_t, sin_t = np.cos(heading), np.sin(heading)
    got = _detect_events_trig(np.stack((x, y)), np.stack((cos_t, sin_t)), PairGeometry(x, y), CFG)
    want = detect_dense(x, y, cos_t, sin_t, CFG)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@given(swarms())
@settings(max_examples=150, deadline=None)
def test_separation_leaves_geometry_of_current_poses(swarm):
    x, y, _ = swarm
    ref_x, ref_y = x.copy(), y.copy()
    geom = PairGeometry(np.zeros(len(x)), np.zeros(len(x)))  # stale contents must not leak through
    moved = _separate_overlaps(x, y, CFG, geom)
    assert moved == separate_dense(ref_x, ref_y, CFG)
    assert same_bits(x, ref_x) and same_bits(y, ref_y)
    assert same_bits(geom.d2, PairGeometry(x, y).d2)


def test_refill_matches_full_fill_bitwise():
    rng = np.random.default_rng(3)
    x = rng.uniform(R, 100.0, 40)
    y = rng.uniform(R, 100.0, 40)
    geom = PairGeometry(x, y)
    moved = np.array([0, 7, 8, 39])
    x[moved] += rng.normal(size=4)
    y[moved] -= rng.normal(size=4)
    x[8], y[8] = x[7], y[7]  # coincident after the move
    geom.refill(x, y, moved)
    assert same_bits(geom.d2, PairGeometry(x, y).d2)


def test_coincident_and_overlapping_robots_match_dense_separation():
    x = np.array([50.0, 50.0, 53.0, 120.0])
    y = np.array([50.0, 50.0, 50.0, 120.0])
    ref_x, ref_y = x.copy(), y.copy()
    geom = PairGeometry(x, y)
    assert _separate_overlaps(x, y, CFG, geom)
    assert separate_dense(ref_x, ref_y, CFG)
    assert same_bits(x, ref_x) and same_bits(y, ref_y)
    assert same_bits(geom.d2, PairGeometry(x, y).d2)
