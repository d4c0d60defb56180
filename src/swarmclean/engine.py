"""World state, unicycle kinematics, contact sensing, and the tick loop.

A batch of runs that differ only in seed, N and beta (one run is a batch of
one) is a loop over whole seconds around a loop over that second's ticks
(0.1 s by default). At the top of each second, for all runs at once, each
waiting robot erodes its own run's field once and the ratio and coherency of
every run are reduced from one pass; then, run by run, the mean cue (for a run
that cleaned) and the metrics row are written and an optional observer sees
the run's World, once more after the last tick. Each tick, for all runs'
robots at once: read the ground sensors, detect contacts, step the state
machines of the robots with an event, run the array wheel law, which stops the
robots that do not drive, integrate motion, then clamp and separate. Each
run's trajectory is a pure function of its own config, seed included.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .controller import FORWARD, WAITING, Fsm, step_fsm, wheel_speeds
from .field import _ZERO, apply_cleaning, init_circular_gradient, mean_intensity, sample_many
from .metrics import MetricsSeries, coherency, ratio_within

# wheel-unit calibration: bias 6 drives 8 cm/s, bias 3 drives 4 cm/s
WHEEL_UNIT_CM_S = 4.0 / 3.0

# more 0-d operands, made once like field._ZERO
_PI, _TWO_PI, _DEG_TO_RAD = (np.array(v) for v in (math.pi, 2.0 * math.pi, math.pi / 180.0))
_HALF_WHEEL_UNIT, _WHEEL_UNIT = np.array(WHEEL_UNIT_CM_S * 0.5), np.array(WHEEL_UNIT_CM_S)
_SENSOR_SIGNS = np.array([[[-1.0], [1.0]], [[1.0], [-1.0]]])  # (axis, side, 1): signs of the ground-sensor offsets

# validation bounds: floats are finite and at most MAX_MAGNITUDE in size,
# strictly positive quantities at least MIN_POSITIVE; the field holds one
# float per square cm and the neighbour list five arrays of N (N - 1) / 2 pairs;
# the metrics series preallocates 32 bytes per second, 32 MB at MAX_DURATION_S
MAX_MAGNITUDE = 1e6
MIN_POSITIVE = 1e-6
MAX_ARENA_CM = 10_000.0
MAX_ROBOTS = 10_000
MAX_DURATION_S = 1_000_000


def _positive(default, at_most=math.inf):
    """A field that `validate()` holds to at least MIN_POSITIVE and at most `at_most`."""
    return field(default=default, metadata={"min": MIN_POSITIVE, "max": at_most})


def _non_negative(default, at_most=math.inf):
    """A field that `validate()` holds to at least 0 and at most `at_most`."""
    return field(default=default, metadata={"min": 0, "max": at_most})


class ConfigError(ValueError):
    """Invalid simulation or experiment configuration."""


def check_fields(obj) -> None:
    """Raise ConfigError at the first int or float field of the dataclass obj of the wrong type or out of bounds."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "int" and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        if f.type == "float":
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
            if abs(value) > MAX_MAGNITUDE:
                raise ConfigError(f"{f.name} must be at most {MAX_MAGNITUDE:g} in size, got {value!r}")
        if "min" in f.metadata and value < f.metadata["min"]:
            raise ConfigError(f"{f.name} must be at least {f.metadata['min']:g}, got {value!r}")
        if "max" in f.metadata and value > f.metadata["max"]:
            raise ConfigError(f"{f.name} must be at most {f.metadata['max']:g}, got {value!r}")


class PlacementError(ConfigError):
    """Robots cannot be placed in the arena without body overlap."""


@dataclass
class SimConfig:
    n_robots: int = _non_negative(30, MAX_ROBOTS)
    beta: float = _non_negative(6.0)
    alpha: float = _positive(2.0)
    omega_max_s: float = _positive(30.0)
    arena_width_cm: float = _positive(285.0, MAX_ARENA_CM)
    arena_height_cm: float = _positive(285.0, MAX_ARENA_CM)
    cue_radius_cm: float = _positive(111.35)
    cue_peak: float = _positive(255.0, 255)
    duration_s: int = _non_negative(4000, MAX_DURATION_S)
    dt_s: float = _positive(0.1)
    seed: int = _non_negative(0)
    body_radius_cm: float = _positive(4.0)
    wheel_base_cm: float = _positive(8.0)
    contact_range_cm: float = _positive(10.0)
    wall_range_cm: float = _positive(2.0)
    refractory_s: float = _non_negative(2.0)
    metric_radius_cm: float = _positive(70.0)
    turn_min_deg: float = _non_negative(90.0)
    turn_max_deg: float = 180.0
    turn_rate_deg_s: float = _positive(180.0)
    wheel_max: float = _positive(10.0)

    @property
    def cue_center(self) -> tuple[float, float]:
        return (self.arena_width_cm / 2.0, self.arena_height_cm / 2.0)

    @property
    def ticks_per_second(self) -> int:
        return int(round(1.0 / self.dt_s))

    def validate(self) -> None:
        """Raise ConfigError for any config the engine cannot run.

        Every field is checked here, the controller's too: integers and
        finite floats of the right type, each inside its physical range.
        Floats are bounded in magnitude so that no speed, yaw rate or
        waiting time overflows. Bodies that no packing fits into the arena
        are a PlacementError here, before any placement is tried.
        """
        check_fields(self)
        if abs(self.ticks_per_second * self.dt_s - 1.0) > 1e-9:
            raise ConfigError(f"dt_s must divide 1 s evenly, got {self.dt_s}")
        if min(self.arena_width_cm, self.arena_height_cm) <= 2 * self.body_radius_cm:
            raise ConfigError("arena too small for the robot body")
        if min(round(self.arena_width_cm), round(self.arena_height_cm)) < 1:
            # the field has round(side) cells per side (see init_circular_gradient)
            raise ConfigError("arena sides must round to at least one 1 cm field cell")
        # no packing of equal disks covers more than pi / sqrt(12) of the area, the hexagonal one (Fejes Toth)
        bodies_cm2 = self.n_robots * math.pi * self.body_radius_cm**2
        if bodies_cm2 > math.pi / math.sqrt(12.0) * self.arena_width_cm * self.arena_height_cm:
            raise PlacementError(f"{self.n_robots} bodies cover {bodies_cm2:g} cm^2, over pi/sqrt(12) of the arena")
        if self.turn_min_deg > self.turn_max_deg:
            raise ConfigError(f"turn_min_deg {self.turn_min_deg} exceeds turn_max_deg {self.turn_max_deg}")
        if self.beta > self.wheel_max:
            raise ConfigError(f"beta must be in [0, {self.wheel_max}], got {self.beta}")


def ground_sensor_points(xy_col, sin_cos, signed_h, offsets, sensor_grid) -> None:
    """Ground sensors h = wheel_base/2 across each heading: left at (-h sin, h cos) from xy, right at (h sin, -h cos).

    The arguments are views made once per run: xy_col = xy[:, None], sin_cos = cos_sin[::-1, None], signed_h =
    h * _SENSOR_SIGNS, sensor_grid = the (2, 2N) sensors as (axis, side, robot); offsets is (2, 2, N) scratch.
    """
    np.multiply(signed_h, sin_cos, out=offsets)
    np.add(xy_col, offsets, out=sensor_grid)


def wrap_angle(theta, out=None):
    """Wrap to (-pi, pi]; a float or an array, written into the array out if one is given."""
    # for a theta just above pi the remainder rounds up to 2 pi; fmod maps that alone to 0
    return np.subtract(_PI, np.fmod((_PI - theta) % _TWO_PI, _TWO_PI), out=out)


def integrate(xy, heading, cos_sin, n_l, n_r, turned, turn_deg, dt, wheel_base) -> None:
    """One explicit-Euler step of the unicycle model for every robot, in place; the walls are not looked at.

    xy (2, N) and heading (N,) are updated; cos_sin holds the cos and sin of the headings before the
    step, n_l and n_r (N,) arrays the wheel speeds; dt and wheel_base are floats or 0-d arrays.
    Wheel units map to a forward speed of WHEEL_UNIT_CM_S * (n_l + n_r) / 2 cm/s and a yaw rate of
    WHEEL_UNIT_CM_S * (n_r - n_l) / wheel_base rad/s. Each robot in the list turned, once at most, then
    rotates in place by its nonzero turn_deg entry.
    """
    v = _HALF_WHEEL_UNIT * (n_l + n_r)
    omega = _WHEEL_UNIT * (n_r - n_l) / wheel_base
    xy += v * cos_sin * dt
    wrap_angle(heading + omega * dt, heading)
    if turned:
        # only turning robots wrap twice: wrapping rounds through pi - theta, which moves the
        # low bits of many headings already in (-pi, pi]
        heading[turned] = wrap_angle(heading[turned] + np.multiply(turn_deg, _DEG_TO_RAD))


class PairGeometry:
    """A Verlet neighbour list: the robot pairs that can be in contact, their squared distances, and the walls.

    `pairs` (2, P) lists, row by row, the pairs i < j whose centers lay
    within cutoff + skin at the last rebuild (Verlet 1967; Allen &
    Tildesley, Computer Simulation of Liquids, 5.3). cutoff =
    max(contact_range, 2 * body_radius) is the farthest distance either
    pair pass reads; the skin is twice the largest forward travel in one
    second. The drift bound drift + ticks * tick_travel bounds how far any
    center has moved since the rebuild: `drift` is the largest displacement
    from the rebuild's poses, measured after each separation push, and an
    integrate step since then moves a center at most tick_travel, one
    tick's largest forward travel (turns in place move none, and the wall
    clamp never lengthens a step). While the bound stays within half the
    skin, no pair can have closed from beyond cutoff + skin to within
    cutoff, so every pair within cutoff is listed. `track` rebuilds once
    the bound passes half the skin; the engine also rebuilds at every whole
    second, so the integrate steps alone never do. The walls are neighbours
    too: `clamp` holds the centers inside them, `wall_range` is how near a
    body edge may come to a wall ahead before it is a contact, and
    `wall_gap` is the smallest distance, at the rebuild, from a center to
    the nearest position it can reach along either axis; the same bound
    lets `clears_walls` rule out every wall contact, or every clamp move.

    xy may hold one block of robots per run, `sizes` robots each (by default
    one block of all): pairs never cross blocks, `upper_d2` holds each block's
    triangle in turn, block k's from `pair_starts[k]` to `pair_starts[k + 1]`,
    and one drift bound and wall_gap cover all. `contact_d2` and `overlap_d2`
    are 0-d arrays: the squared contact range and body diameter `body_d`.

    Every squared distance is d * d summed over both axes, with d = xy[:, j]
    - xy[:, i], by the same operations in the same order on two routes. A
    rebuild evaluates every pair i < j, row by row, as `upper_d2`, which
    `coherency` reads, one axis at a time from the (2, P) list of all pairs.
    Between rebuilds only `pair_d2`, over the listed pairs, is updated: one
    `take` from xy.ravel() over an (end, axis, pair) index gathers both axes
    of both ends, so the subtraction reads contiguous blocks; `pairs` is its
    axis-0 view. Two routes, because the axis-at-a-time one would add about
    four numpy calls to every tick, and an index over all pairs would hold 32
    bytes a pair, not 16, and gather 48 more at each rebuild. `pair_d2`
    always belongs to the poses last tracked.
    """

    __slots__ = (
        "upper_d2", "pair_starts", "pairs", "pair_d2", "ticks", "drift", "wall_gap", "wall_range", "contact_d2",
        "overlap_d2", "body_d", "_flat", "_all_pairs", "_axis_offsets", "_rebuilt_xy", "_tick_travel", "_half_skin",
        "_reach2", "_body_r", "_far_walls",
    )

    def __init__(self, xy: np.ndarray, config: SimConfig, sizes=None):
        self._tick_travel = WHEEL_UNIT_CM_S * config.wheel_max * config.dt_s
        # ticks * tick_travel, not a running sum, so a second of integrate steps lands on it exactly
        self._half_skin = config.ticks_per_second * self._tick_travel
        self.body_d = min_d = 2.0 * config.body_radius_cm
        cutoff = max(config.contact_range_cm, min_d)
        self._reach2 = np.array((cutoff + 2.0 * self._half_skin) ** 2)
        self.contact_d2, self.overlap_d2 = np.array(config.contact_range_cm**2), np.array(min_d * min_d)
        sizes = [xy.shape[1]] if sizes is None else sizes
        self.pair_starts = np.cumsum([0, *(n * (n - 1) // 2 for n in sizes)]).tolist()
        # every pair i < j within a block, row by row, written in place: no per-block index arrays to join
        self._all_pairs, k = np.empty((2, self.pair_starts[-1]), dtype=np.intp), 0
        for i, end in enumerate(np.repeat(np.cumsum(sizes), sizes).tolist()):
            row = self._all_pairs[:, k : k + end - i - 1]
            row[0], row[1] = i, np.arange(i + 1, end)
            k += end - i - 1
        self._axis_offsets = np.array([[0], [xy.shape[1]]])  # from a robot's x to its y in xy.ravel()
        r, self.wall_range = config.body_radius_cm, config.wall_range_cm
        self._body_r, self._far_walls = np.array(r), np.array([[config.arena_width_cm], [config.arena_height_cm]]) - r
        self.rebuild(xy)

    @staticmethod
    def _d2(xy: np.ndarray, flat: np.ndarray) -> np.ndarray:
        d = xy.ravel().take(flat)  # (end, axis, pair)
        d = d[1] - d[0]
        d *= d
        return d[0] + d[1]

    def rebuild(self, xy: np.ndarray) -> None:
        """Every pair's squared distance at the poses xy, the pairs within cutoff + skin, and the wall gap."""
        self.upper_d2 = None  # released before its successor is built
        (x, y), (i, j) = xy, self._all_pairs
        d = x.take(j)
        d -= x.take(i)
        d *= d
        e = y.take(j)
        e -= y.take(i)
        e *= e
        d += e
        self.upper_d2, near = d, d <= self._reach2
        self._flat = self._all_pairs.compress(near, axis=1)[:, None] + self._axis_offsets  # (end, axis, pair)
        self.pairs = self._flat[:, 0]
        self.pair_d2 = d[near]
        self._rebuilt_xy = xy.copy()
        self.wall_gap = float(np.minimum(xy - self._body_r, self._far_walls - xy).min(initial=np.inf))
        self.ticks = 0
        self.drift = 0.0

    def track(self, xy: np.ndarray, pushed: bool = False) -> None:
        """Bring pair_d2 to the poses xy, one integrate step on; with pushed=True, any move, and measure the drift."""
        if pushed:
            self.drift = float(np.hypot(*(xy - self._rebuilt_xy)).max())
            self.ticks = 0
        else:
            self.ticks += 1
        if self.drift + self.ticks * self._tick_travel > self._half_skin:
            self.rebuild(xy)
        else:
            self.pair_d2 = self._d2(xy, self._flat)

    def clears_walls(self, reach: float, ticks_ahead: int = 0) -> bool:
        """True when no center can be within reach of the positions nearest a wall, ticks_ahead integrate steps on."""
        moved = self.drift + (self.ticks + ticks_ahead) * self._tick_travel
        # margin: a position is at most MAX_ARENA_CM in size and each tick's add rounds it by at most
        # 1.1e-16 of that, over at most 1e6 ticks a rebuild (dt_s >= 1e-6); with the rounding of the steps,
        # wall_gap and moved, that stays below 1.2e-10 * MAX_ARENA_CM + 1e-15 * moved, well inside this
        return self.wall_gap - moved > reach + 1e-9 * (1.0 + MAX_ARENA_CM + moved)

    def clamp(self, xy: np.ndarray) -> None:
        """Hold the centers xy, in place, inside the walls: [body_r, far wall] along either axis."""
        np.maximum(xy, self._body_r, out=xy)
        np.minimum(xy, self._far_walls, out=xy)


def _detect_events_trig(xy, cos_sin, geom):
    """The robots with a contact, from poses (2, N), their cos/sin (2, N) and their PairGeometry.

    Returns (robot_hits, wall_hits), each a list of robot indices or an empty tuple. Robot contact: another
    center within contact_range and inside the frontal +/-90 degree arc (the state machine ignores it while
    the robot is refractory); a robot sees each such neighbour, so its index may repeat. Wall contact: body
    edge closer than `geom.wall_range` to a wall that lies in the frontal arc, unless `geom` clears the walls.
    """
    robot_hits = ()
    near = geom.pair_d2 <= geom.contact_d2
    if np.count_nonzero(near):
        # both directions of every pair in range, in one frontal test: cos * dx + sin * dy >= 0, both axes at once
        in_range = geom.pairs.compress(near, axis=1)
        ii, jj = in_range.ravel(), in_range[::-1].ravel()
        ahead = cos_sin.take(ii, axis=1) * (xy.take(jj, axis=1) - xy.take(ii, axis=1))
        robot_hits = ii[ahead[0] + ahead[1] >= _ZERO].tolist()
    if geom.clears_walls(rng_cm := geom.wall_range):
        return robot_hits, ()

    # rows: x and the vertical walls, y and the horizontal walls
    near_wall = (xy - geom._body_r < rng_cm) & (cos_sin <= _ZERO) | (geom._far_walls - xy < rng_cm) & (cos_sin >= _ZERO)
    return robot_hits, np.flatnonzero(near_wall[0] | near_wall[1]).tolist()


@dataclass
class World:
    """The state of one run: what the observer sees each second and what the run returns.

    The arrays are live views into the engine's batch: at time t (whole seconds),
    xy (2, N) holds the positions in cm, heading the headings in radians,
    modes a copy of the controller's mode codes (FORWARD, WAITING, ...), field the
    cue field, and cleanings each robot's count of boundaries spent
    cleaning. series has one metrics row per whole second. An observer
    copies what it keeps and mutates nothing.
    """

    t: int
    xy: np.ndarray
    heading: np.ndarray
    modes: list[int]
    field: np.ndarray
    series: MetricsSeries
    cleanings: np.ndarray


def _place_robots(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Rejection-sample non-overlapping uniform positions for all robots, as a (2, N) array."""
    n = config.n_robots
    r = config.body_radius_cm
    lo_x, hi_x = r, config.arena_width_cm - r
    lo_y, hi_y = r, config.arena_height_cm - r
    min_d2 = (2.0 * r) ** 2
    xy = np.empty((2, n))
    xs, ys = xy
    placed = 0
    attempts = 0
    limit = 1000 * max(n, 1)
    while placed < n:
        attempts += 1
        if attempts > limit:
            raise PlacementError(
                f"could not place {n} robots without overlap after {limit} attempts"
            )
        px = rng.uniform(lo_x, hi_x)
        py = rng.uniform(lo_y, hi_y)
        if placed and np.any((xs[:placed] - px) ** 2 + (ys[:placed] - py) ** 2 < min_d2):
            continue
        xs[placed] = px
        ys[placed] = py
        placed += 1
    return xy


def _separate_overlaps(xy: np.ndarray, geom: PairGeometry) -> bool:
    """Clamp the (2, N) poses xy to the walls, then push apart robot pairs whose bodies interpenetrate, in place.

    The poses arrive one `integrate` step after `geom` last saw them. They
    are clamped unless `geom`'s drift bound keeps every center a tick's
    travel clear of the walls, so clamping all of them again after the
    pushes moves only pushed robots. `geom` is tracked to the clamped poses,
    then to the pushed ones, so the next tick's contact detection reads the
    geometry of the current poses. Returns True when any pair was pushed.
    """
    if not geom.clears_walls(0.0, 1):
        geom.clamp(xy)
    geom.track(xy)
    overlap = geom.pair_d2 < geom.overlap_d2
    if not np.count_nonzero(overlap):
        return False
    overlapping = geom.pairs.compress(overlap, axis=1)
    ii, jj = overlapping
    x, y = xy
    xs, ys = x.tolist(), y.tolist()  # Python floats: same arithmetic, cheaper per element
    for i, j in zip(ii.tolist(), jj.tolist()):
        d = math.hypot(xs[j] - xs[i], ys[j] - ys[i])
        if d < 1e-9:
            ux, uy = 1.0, 0.0  # coincident centers: split along x
            d = 0.0
        else:
            ux, uy = (xs[j] - xs[i]) / d, (ys[j] - ys[i]) / d
        shift = 0.5 * (geom.body_d - d)
        xs[i] -= ux * shift
        ys[i] -= uy * shift
        xs[j] += ux * shift
        ys[j] += uy * shift
    moved = np.flatnonzero(np.bincount(overlapping.ravel(), minlength=len(x))).tolist()
    x[moved] = [xs[k] for k in moved]
    y[moved] = [ys[k] for k in moved]
    geom.clamp(xy)
    geom.track(xy, pushed=True)
    return True


def run_simulation(config: SimConfig, observer=None) -> World:
    """Run one full simulation, a batch of one (see `run_batch`) that raises its PlacementError; deterministic."""
    if isinstance(world := run_batch([config], observer)[0], PlacementError):
        raise world
    return world


def run_batch(configs: list[SimConfig], observer=None) -> list[World | PlacementError]:
    """Run configs that differ only in seed, n_robots and beta side by side: one World each, bits as run alone.

    Each run is placed alone first, from substream [seed, 0]: positions, then headings. A run whose placement
    raises PlacementError is left out: its slot holds that error, the observer never sees it, and a batch with
    no run placed returns at once. Run k's robots are the columns starts[k]:starts[k + 1] of every per-robot
    array, starts being the running sum of the placed runs' n_robots; substream [seed, i + 1] drives robot i,
    so each robot's behavior is independent of the swarm size. `observer(world)` sees each placed run's World
    at every whole second, 0 to duration_s: at t < duration_s after that second's cleaning and metrics row, at
    duration_s after the last tick.
    """
    for config in configs:
        config.validate()
    physics = [replace(c, seed=0, n_robots=0, beta=0.0) for c in configs]
    if not configs or any(p != physics[0] for p in physics):
        raise ConfigError("a batch needs at least one config, and its configs must differ only in seed, n_robots, beta")
    results = []  # per run: its (positions, headings), then its World, or the PlacementError that stopped it
    for c in configs:
        rng = np.random.default_rng([c.seed, 0])
        try:
            results.append((_place_robots(c, rng), rng.uniform(-math.pi, math.pi, size=c.n_robots)))
        except PlacementError as exc:
            results.append(exc)
    placed = [k for k, result in enumerate(results) if not isinstance(result, PlacementError)]
    if not placed:
        return results
    configs = [configs[k] for k in placed]
    config, runs, dt, sizes = configs[0], len(configs), configs[0].dt_s, [c.n_robots for c in configs]
    starts = np.cumsum([0, *sizes]).tolist()
    m = starts[-1]

    # (runs, rows, cols); a batch of one views the field without a copy
    cue = init_circular_gradient(
        config.arena_width_cm, config.arena_height_cm, config.cue_center, config.cue_radius_cm, config.cue_peak
    )[None]
    cue = np.repeat(cue, runs, axis=0) if runs > 1 else cue
    # each ground sensor reads its own run's field: the flat cell offset of its run, left sensors then right
    cell_offsets = np.tile(np.repeat(np.arange(runs) * cue[0].size, sizes), 2) if runs > 1 else None

    # poses: xy is (2, m), run k's robots in columns starts[k] to starts[k + 1]; cos_sin holds each tick's trig
    xy, heading, cleanings, d = np.empty((2, m)), np.empty(m), np.zeros(m, dtype=np.int64), config.duration_s
    robot_rngs = []
    for k, run_config in enumerate(configs):
        n, run = run_config.n_robots, slice(starts[k], starts[k + 1])
        xy[:, run], heading[run] = results[placed[k]]
        robot_rngs += [np.random.default_rng([run_config.seed, i + 1]) for i in range(n)]
        # one metrics row per whole second, written in place at the top of each second
        series = MetricsSeries(np.arange(d, dtype=np.int64), np.empty(d), np.empty(d), np.empty(d))
        results[placed[k]] = World(0, xy[:, run], heading[run], [FORWARD] * n, cue[k], series, cleanings[run])
    worlds = [results[k] for k in placed]
    geom = PairGeometry(xy, config, sizes)
    fsm = Fsm(m, config)
    wheel_hi = fsm.wheel_hi.reshape(2, m)  # a view, like the wheels it clamps
    # ground sensors: left ones in sensors[:, :m], right ones in [:, m:]; the views and 0-d operands are made once
    cos_sin, sensors, offsets, sensed = np.empty((2, m)), np.empty((2, 2 * m)), np.empty((2, 2, m)), np.empty(2 * m)
    cos_row, sin_row, sin_cos, xy_col, s_l, s_r = *cos_sin, cos_sin[::-1, None], xy[:, None], sensed[:m], sensed[m:]
    sensor_grid, signed_h = sensors.reshape(2, 2, m, copy=False), (0.5 * config.wheel_base_cm) * _SENSOR_SIGNS
    dt_0d, center_0d, r_c_0d = np.array(dt), tuple(map(np.array, config.cue_center)), np.array(config.metric_radius_cm)
    alpha_0d, base_0d = np.array(config.alpha), np.array(config.wheel_base_cm)
    wheels, betas = np.empty((2, m)), np.repeat([c.beta for c in configs], sizes)  # wheel speeds: (n_l, n_r) rows
    n_l, n_r = wheels

    for t in range(d):
        geom.rebuild(xy)  # coherency reads the full triangles; the list is renewed with them
        # the whole batch at once: each waiting robot erodes its own run's field, offset like its sensors
        waiting = [i for i, mode in enumerate(fsm.modes) if mode == WAITING]
        if waiting:
            apply_cleaning(cue, *xy[:, waiting], cell_offsets[waiting] if runs > 1 else None)
            cleanings[waiting] += 1
        ratios, coherencies = ratio_within(xy, center_0d, r_c_0d, starts), coherency(geom.upper_d2, geom.pair_starts)
        for k, world in enumerate(worlds):
            world.t, world.modes, series = t, fsm.modes[starts[k]:starts[k + 1]], world.series
            # only cleaning changes the field, so a run with no robot waiting keeps the last second's mean
            cleaned = WAITING in world.modes or not t
            series.mean_cue[t] = mean_intensity(world.field) if cleaned else series.mean_cue[t - 1]
            series.ratio_within_rc[t], series.coherency_m[t] = ratios[k], coherencies[k]
            if observer is not None:
                observer(world)

        for _ in range(config.ticks_per_second):
            np.cos(heading, out=cos_row)
            np.sin(heading, out=sin_row)
            ground_sensor_points(xy_col, sin_cos, signed_h, offsets, sensor_grid)
            sample_many(cue, sensors, cell_offsets, sensed)
            robot_hits, wall_hits = _detect_events_trig(xy, cos_sin, geom)
            turned, turn_deg = step_fsm(fsm, robot_hits, wall_hits, sensed, robot_rngs, config)
            wheel_speeds(s_l, s_r, alpha_0d, betas, wheel_hi, wheels, n_l, n_r)  # clamped to 0 unless driving
            integrate(xy, heading, cos_sin, n_l, n_r, turned, turn_deg, dt_0d, base_0d)
            _separate_overlaps(xy, geom)

    # after the last tick: the observer sees the end state, with no cleaning or metrics row
    for k, world in enumerate(worlds):
        world.t, world.modes = d, fsm.modes[starts[k]:starts[k + 1]]
        if observer is not None:
            observer(world)
    return results
