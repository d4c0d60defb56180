"""The engine's neighbour list against dense per-pass recomputation.

Contact detection and overlap separation read one PairGeometry, a Verlet
neighbour list that the tick loop builds at whole seconds and carries from
tick to tick in between. The references below rebuild every pairwise offset
from the poses on each call, as both passes did before they shared a
geometry; the engine must agree with them bit for bit, however long the
list has been carried. The walls are neighbours too: while the list's drift
bound keeps every center clear of them, contact detection skips the frontal
wall test and separation skips its first wall clamp, and neither may change a bit.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmclean.engine import (
    WHEEL_UNIT_CM_S,
    PairGeometry,
    SimConfig,
    _detect_events_trig,
    _separate_overlaps,
    integrate,
)

from scalar_oracles import sparse_turns

CFG = SimConfig()
R = CFG.body_radius_cm
HI = CFG.arena_width_cm - R
CUTOFF = max(CFG.contact_range_cm, 2 * R)
TICK_TRAVEL = WHEEL_UNIT_CM_S * CFG.wheel_max * CFG.dt_s  # the largest forward travel in one tick


def detect_dense(x, y, cos_t, sin_t, config):
    """Per robot, from a freshly built N x N offset matrix: how many robots it contacts, and its wall contact flag."""
    n = len(x)
    robot_contact = np.zeros(n, dtype=np.int64)
    if n == 0:
        return robot_contact, np.zeros(n, dtype=bool)
    if n > 1:
        dx = x[None, :] - x[:, None]
        dy = y[None, :] - y[:, None]
        d2 = dx * dx + dy * dy
        within = d2 <= config.contact_range_cm**2
        np.fill_diagonal(within, False)
        frontal = cos_t[:, None] * dx + sin_t[:, None] * dy >= 0.0
        robot_contact = (within & frontal).sum(axis=1)
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


def dense_d2(x, y):
    dx = x[None, :] - x[:, None]
    dy = y[None, :] - y[:, None]
    return dx * dx + dy * dy


def assert_geometry_of(geom, x, y):
    """geom lists every pair within CUTOFF of the poses x, y, once and row by row, with their d2 bit for bit."""
    n = len(x)
    d2 = dense_d2(x, y)
    i, j = geom.pairs
    flat = i * n + j
    assert np.all(i < j) and np.all(np.diff(flat) > 0)
    assert same_bits(geom.pair_d2, d2[i, j])
    ii, jj = np.nonzero(np.triu(d2 <= CUTOFF**2, k=1))
    assert np.isin(ii * n + jj, flat).all()


def hit_arrays(hits, n):
    """(robot contacts per robot, wall flags) from `_detect_events_trig`'s two index lists, for n robots.

    A robot's index is in the robot list once per robot it contacts; the wall list is sorted, with no repeats.
    """
    robot_hits, wall_hits = hits
    wall = np.zeros(n, dtype=bool)
    wall[list(wall_hits)] = True
    assert list(wall_hits) == np.flatnonzero(wall).tolist()
    return np.bincount(np.array(robot_hits, dtype=np.intp), minlength=n), wall


def wall_list(xy, heading, geom, config):
    """`_detect_events_trig`'s wall contacts, a list of robot indices."""
    return list(_detect_events_trig(xy, trig(heading), geom)[1])


def detect(x, y, heading, geom):
    cos_t, sin_t = np.cos(heading), np.sin(heading)
    got = _detect_events_trig(np.stack((x, y)), np.stack((cos_t, sin_t)), geom)
    want = detect_dense(x, y, cos_t, sin_t, CFG)
    return hit_arrays(got, len(x)), want


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
    xy = np.clip(np.array((xs, ys), dtype=float).reshape(2, n), R, HI)
    heading = np.array(draw(st.lists(st.floats(-math.pi, math.pi), min_size=n, max_size=n)), dtype=float)
    return xy, heading


def tick_step(x, y, heading, speed):
    """An integrate step, in place: each center drives speed (at most 1) times one tick's largest travel, then the wall clamp."""
    np.clip(x + speed * TICK_TRAVEL * np.cos(heading), R, HI, out=x)
    np.clip(y + speed * TICK_TRAVEL * np.sin(heading), R, HI, out=y)


@given(swarms())
@settings(max_examples=150, deadline=None)
def test_shared_detection_matches_dense(swarm):
    xy, heading = swarm
    got, want = detect(*xy, heading, PairGeometry(xy, CFG))
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@given(swarms(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_separation_leaves_geometry_of_current_poses(swarm, seed):
    xy, _ = swarm
    x, y = xy
    # the list was built one integrate step earlier, at other poses
    rng = np.random.default_rng(seed)
    before = xy.copy()
    tick_step(*before, rng.uniform(-math.pi, math.pi, len(x)), rng.uniform(0.0, 1.0, len(x)))
    geom = PairGeometry(before, CFG)
    ref_x, ref_y = x.copy(), y.copy()
    moved = _separate_overlaps(xy, geom)
    assert moved == separate_dense(ref_x, ref_y, CFG)
    assert same_bits(x, ref_x) and same_bits(y, ref_y)
    assert_geometry_of(geom, x, y)


@given(swarms(), st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_carried_list_matches_dense(swarm, ticks, seed):
    """A list built once and carried over many ticks gives the dense passes' bits."""
    xy, heading = swarm
    x, y = xy
    rng = np.random.default_rng(seed)
    speed = rng.choice([0.0, 0.5, 1.0], len(x))  # robots drive straight, most at full speed
    geom = PairGeometry(xy, CFG)
    for _ in range(ticks):
        tick_step(x, y, heading, speed)
        ref_x, ref_y = x.copy(), y.copy()
        assert _separate_overlaps(xy, geom) == separate_dense(ref_x, ref_y, CFG)
        assert same_bits(x, ref_x) and same_bits(y, ref_y)
        assert_geometry_of(geom, x, y)
        got, want = detect(x, y, rng.uniform(-math.pi, math.pi, len(x)), geom)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def test_tracked_distances_match_full_fill_bitwise():
    rng = np.random.default_rng(3)
    xy = rng.uniform(R, 100.0, (2, 40))
    x, y = xy
    x[8], y[8] = x[7] + 1.0, y[7] - 1.0
    geom = PairGeometry(xy, CFG)
    start_x, start_y = x.copy(), y.copy()
    moved = np.array([0, 7, 8, 39])
    x[moved] += rng.normal(size=4)
    y[moved] -= rng.normal(size=4)
    x[8], y[8] = x[7], y[7]  # coincident after the move
    geom.track(xy, pushed=True)
    assert geom.drift == np.hypot(x - start_x, y - start_y).max() > 0.0  # carried, not rebuilt
    assert_geometry_of(geom, x, y)
    assert same_bits(PairGeometry(xy, CFG).upper_d2, dense_d2(x, y)[np.triu_indices(len(x), k=1)])


HALF_SKIN = 10 * TICK_TRAVEL  # one second of the largest forward travel
BEYOND_REACH = CUTOFF + 2 * HALF_SKIN + 0.5  # a separation just outside cutoff + skin


def approach(xy, geom, ticks):
    """`ticks` integrate steps of the two robots driving head-on at full speed, each tracked."""
    for _ in range(ticks):
        xy[0] += [TICK_TRAVEL, -TICK_TRAVEL]
        geom.track(xy)


def two_robots(gap):
    """Poses (2, 2) of two robots on one row, gap cm apart, and their views x, y."""
    xy = np.array([[50.0, 50.0 + gap], [50.0, 50.0]])
    return (xy, *xy)


def test_track_rebuilds_once_drift_passes_half_the_skin():
    xy, x, y = two_robots(BEYOND_REACH)
    geom = PairGeometry(xy, CFG)
    assert geom.pairs.shape == (2, 0)  # beyond cutoff + skin
    approach(xy, geom, 10)  # one second of integrate steps uses half the skin, no more
    assert geom.ticks == 10 and geom.pairs.shape == (2, 0)
    x += [0.3, -0.3]
    geom.track(xy, pushed=True)
    assert (geom.ticks, geom.drift) == (0, 0.0)
    assert geom.pairs.tolist() == [[0], [1]]
    assert_geometry_of(geom, x, y)


def test_push_past_half_the_skin_mid_second_rebuilds():
    xy, x, y = two_robots(BEYOND_REACH)
    geom = PairGeometry(xy, CFG)
    approach(xy, geom, 3)
    # a push of 7 ticks' travel and a little more takes both robots just past half the skin
    x += [7 * TICK_TRAVEL + 0.5, -7 * TICK_TRAVEL - 0.5]
    geom.track(xy, pushed=True)
    assert (geom.ticks, geom.drift) == (0, 0.0)  # rebuilt
    assert x[1] - x[0] < CUTOFF  # now within contact
    assert geom.pairs.tolist() == [[0], [1]]
    assert_geometry_of(geom, x, y)


def test_ticks_after_a_push_are_charged():
    xy, x, y = two_robots(BEYOND_REACH)
    geom = PairGeometry(xy, CFG)
    approach(xy, geom, 3)
    x += [2 * TICK_TRAVEL - 0.1, -2 * TICK_TRAVEL + 0.1]
    geom.track(xy, pushed=True)
    assert geom.ticks == 0 and geom.drift == pytest.approx(5 * TICK_TRAVEL - 0.1)  # measured, not rebuilt
    # the measured drift and five more ticks stay within half the skin, the sixth passes it
    approach(xy, geom, 5)
    assert geom.ticks == 5 and geom.pairs.shape == (2, 0)
    approach(xy, geom, 1)
    assert (geom.ticks, geom.drift) == (0, 0.0)
    assert x[1] - x[0] < CUTOFF
    assert geom.pairs.tolist() == [[0], [1]]
    assert_geometry_of(geom, x, y)


def test_drift_is_measured_from_the_last_rebuild():
    xy, x, y = two_robots(CUTOFF - 1.0)
    geom = PairGeometry(xy, CFG)
    x[1] += 40.0
    geom.rebuild(xy)  # as at a whole second, with the pair far apart
    assert geom.pairs.shape == (2, 0)
    x[1] -= 40.0  # back where the constructor saw it
    geom.track(xy, pushed=True)
    assert geom.pairs.tolist() == [[0], [1]]
    assert_geometry_of(geom, x, y)


def test_coincident_and_overlapping_robots_match_dense_separation():
    xy = np.array([[50.0, 50.0, 53.0, 120.0], [50.0, 50.0, 50.0, 120.0]])
    x, y = xy
    ref_x, ref_y = x.copy(), y.copy()
    geom = PairGeometry(xy, CFG)
    assert _separate_overlaps(xy, geom)
    assert separate_dense(ref_x, ref_y, CFG)
    assert same_bits(x, ref_x) and same_bits(y, ref_y)
    assert_geometry_of(geom, x, y)
    # the push reset the tick count and measured the largest displacement since the list was built
    assert geom.ticks == 0
    assert geom.drift == np.hypot(x - [50.0, 50.0, 53.0, 120.0], y - [50.0, 50.0, 50.0, 120.0]).max() > 0.0


@given(
    st.permutations([0, 1, 2, 7, 30]).flatmap(lambda sizes: st.integers(1, 5).map(lambda k: sizes[:k])),
    st.sampled_from([20.0, 60.0, HI - R]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_blocks_match_each_block_alone(sizes, spread, seed):
    """With `sizes`, each block's triangle, listed pairs and tracked distances are those of the block alone.

    upper_d2 is the blocks' dense triangles in turn, bit for bit; `pairs` lists
    them row by row, i < j, offset by the block's start; after `track`,
    `pair_d2` is a fresh gather over the listed pairs.
    """
    rng = np.random.default_rng(seed)
    xy = rng.uniform(R, R + spread, (2, sum(sizes)))
    geom = PairGeometry(xy, CFG, sizes)
    starts = np.cumsum([0, *sizes])
    triangles, listed = [], []
    for n, start in zip(sizes, starts):
        d2 = dense_d2(*xy[:, start : start + n])
        i, j = np.triu_indices(n, k=1)
        triangles.append(d2[i, j])
        near = d2[i, j] <= (CUTOFF + 2 * HALF_SKIN) ** 2
        listed.append(np.array((i[near], j[near])) + start)
    assert same_bits(geom.upper_d2, np.concatenate(triangles))
    assert geom.pairs.tolist() == np.hstack(listed).tolist()
    xy += rng.uniform(-TICK_TRAVEL, TICK_TRAVEL, xy.shape) / np.sqrt(2.0)
    geom.track(xy)
    assert geom.ticks == 1  # carried, not rebuilt
    i, j = geom.pairs
    d = xy[:, j] - xy[:, i]
    assert same_bits(geom.pair_d2, d[0] * d[0] + d[1] * d[1])


# --- the walls as neighbours ---------------------------------------------------


def trig(heading):
    return np.stack((np.cos(heading), np.sin(heading)))


def wall_reference(xy, heading, config):
    """The full frontal wall test on the poses, as the dense pass runs it."""
    return detect_dense(*xy, *trig(heading), config)[1]


def advance(xy, heading, geom, wheels, turn, config):
    """One tick as the engine runs it, checking the wall flags and the clamp skip against the full versions.

    The reference clamps a copy of the integrated poses whatever the bound says, then separates it densely.
    Returns whether the bound cleared the walls for detection and for the clamp.
    """
    cos_sin = trig(heading)
    assert wall_list(xy, heading, geom, config) == np.flatnonzero(wall_reference(xy, heading, config)).tolist()
    clamp = not geom.clears_walls(0.0, 1)
    n_l, n_r = np.array(wheels, dtype=np.float64).reshape(2, -1)
    integrate(xy, heading, cos_sin, n_l, n_r, *sparse_turns(turn), config.dt_s, config.wheel_base_cm)
    ref_xy = xy.copy()
    geom.clamp(ref_xy)
    assert _separate_overlaps(xy, geom) == separate_dense(*ref_xy, config)
    assert same_bits(xy, ref_xy)
    return geom.clears_walls(config.wall_range_cm), not clamp


@st.composite
def walled_swarms(draw):
    """A config with drawn arena sides, wall range and wheel base, and poses crowding its walls."""
    config = SimConfig(
        arena_width_cm=draw(st.floats(20.0, 400.0)),
        arena_height_cm=draw(st.sampled_from([None, 20.0, 60.0, 285.0])) or draw(st.floats(20.0, 400.0)),
        wall_range_cm=draw(st.sampled_from([0.0, 2.0, 7.5])) if draw(st.booleans()) else draw(st.floats(0.0, 30.0)),
        wheel_base_cm=draw(st.floats(1.0, 20.0)),
        dt_s=draw(st.sampled_from([0.1, 0.25, 1.0])),
    )
    n = draw(st.integers(0, 60))
    r = config.body_radius_cm
    tick_travel = WHEEL_UNIT_CM_S * config.wheel_max * config.dt_s
    # "clear" swarms start just outside the wall range, crowded, so separation pushes them into it
    kinds = ["clear"] if draw(st.booleans()) else ["touching", "near", "edge", "free"]
    xy = np.empty((2, n))
    for axis, side in enumerate((config.arena_width_cm, config.arena_height_cm)):
        for i in range(n):
            kind = draw(st.sampled_from(kinds))
            if kind == "clear":
                gap = config.wall_range_cm + draw(st.floats(0.0, 2 * r + tick_travel, exclude_min=True))
            elif kind == "touching":
                gap = 0.0
            elif kind == "near":
                gap = draw(st.floats(0.0, config.wall_range_cm + 3 * tick_travel))
            elif kind == "edge":  # exactly at the wall range plus whole ticks of travel
                gap = config.wall_range_cm + draw(st.integers(0, 3)) * tick_travel
            else:
                gap = draw(st.floats(0.0, side))
            xy[axis, i] = min(r + gap, side - r) if draw(st.booleans()) else max(side - r - gap, r)
    heading = np.array(draw(st.lists(st.floats(-math.pi, math.pi), min_size=n, max_size=n)), dtype=float)
    return config, xy, heading


@given(walled_swarms(), st.integers(1, 25), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_wall_bound_matches_full_wall_test(swarm, ticks, seed):
    """Through the real integrate, separation and tracking, a skipped wall test or clamp changes no bit."""
    config, xy, heading = swarm
    rng = np.random.default_rng(seed)
    n = len(heading)
    geom = PairGeometry(xy, config)
    for _ in range(ticks):
        full = rng.random(n) < 0.5  # half the robots drive at full speed
        n_l = np.where(full, config.wheel_max, rng.uniform(0.0, config.wheel_max, n))
        n_r = np.where(full, n_l, rng.uniform(0.0, config.wheel_max, n))
        turn = np.where(rng.random(n) < 0.1, rng.uniform(-180.0, 180.0, n), 0.0)
        advance(xy, heading, geom, (n_l.tolist(), n_r.tolist()), turn.tolist(), config)


def test_robot_exactly_at_wall_range_plus_moved():
    """A robot that starts exactly wall_range + moved from the far wall, and drives into it for those ticks.

    In a 10,000 cm arena one rounding per tick takes it just inside the wall
    range on the last tick, where the bound without its rounding margin
    would still rule every wall out.
    """
    config = SimConfig(arena_width_cm=10_000.0, arena_height_cm=10_000.0)
    tick_travel = WHEEL_UNIT_CM_S * config.wheel_max * config.dt_s
    ticks = config.ticks_per_second
    far = config.arena_width_cm - config.body_radius_cm
    xy = np.array([[far - config.wall_range_cm - ticks * tick_travel], [5_000.0]])
    heading = np.zeros(1)
    geom = PairGeometry(xy, config)
    cleared = [advance(xy, heading, geom, ([10.0], [10.0]), [0.0], config) for _ in range(ticks)]
    assert cleared[0] == (True, True) and cleared[-1] == (False, True)
    assert wall_reference(xy, heading, config).tolist() == [True]  # rounding took it inside the range
    assert wall_list(xy, heading, geom, config) == [0]


def test_separation_push_toward_a_wall_is_charged():
    """A push counts against the wall bound: it moves a robot 2 cm into the wall range within one tick."""
    config = SimConfig()
    r, rng_cm = config.body_radius_cm, config.wall_range_cm
    # robot 0 stands 1 cm outside the wall range and overlaps robot 1 by 4 cm
    xy = np.array([[r + rng_cm + 1.0, r + rng_cm + 5.0], [100.0, 100.0]])
    heading = np.array([math.pi, 0.0])  # robot 0 faces the left wall
    geom = PairGeometry(xy, config)
    assert geom.wall_gap == rng_cm + 1.0
    xy_before = xy.copy()
    assert _separate_overlaps(xy, geom)
    assert xy[0, 0] == xy_before[0, 0] - 2.0 and geom.drift == 2.0
    assert not geom.clears_walls(rng_cm)
    assert wall_reference(xy, heading, config).tolist() == [True, False]
    assert wall_list(xy, heading, geom, config) == [0]


def test_bound_clears_a_swarm_away_from_the_walls():
    config = SimConfig()
    xy = np.array([[100.0, 150.0, 185.0], [120.0, 160.0, 100.0]])
    geom = PairGeometry(xy, config)
    assert geom.wall_gap == 96.0  # robot 0's x, less the body radius
    heading = np.array([math.pi, -math.pi / 2, 0.0])
    for _ in range(config.ticks_per_second):
        assert advance(xy, heading, geom, ([10.0] * 3, [10.0] * 3), [0.0] * 3, config) == (True, True)
