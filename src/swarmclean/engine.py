"""World state, unicycle kinematics, contact sensing, and the tick loop.

The run is a loop over whole seconds around a loop over that second's
ticks (default 0.1 s each). At the top of each second, each waiting robot
erodes the field once, the second's row of the preallocated metrics
series is written, and an optional observer sees the run's World; it sees
it once more after the last tick. Each tick: read the ground sensors,
detect robot/wall contacts from the current poses, step every robot's
state machine, then integrate motion. The whole trajectory is a pure
function of the config, including its seed.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .controller import FORWARD, WAITING, step_fsm
from .field import apply_cleaning, init_circular_gradient, mean_intensity, sample_many
from .metrics import MetricsSeries, coherency, ratio_within

# wheel-unit calibration: bias 6 drives 8 cm/s, bias 3 drives 4 cm/s
WHEEL_UNIT_CM_S = 4.0 / 3.0

TWO_PI = 2.0 * math.pi
DEG_TO_RAD = math.pi / 180.0

# validation bounds: floats are finite and at most MAX_MAGNITUDE in size,
# strictly positive quantities at least MIN_POSITIVE; the field holds one
# float per square cm and the neighbour list three arrays of N (N - 1) / 2 pairs;
# the metrics series preallocates 32 bytes per second, 32 MB at MAX_DURATION_S
MAX_MAGNITUDE = 1e6
MIN_POSITIVE = 1e-6
MAX_ARENA_CM = 10_000.0
MAX_ROBOTS = 10_000
MAX_DURATION_S = 1_000_000


def _positive(default):
    """A field that `validate()` holds to at least MIN_POSITIVE."""
    return field(default=default, metadata={"min": MIN_POSITIVE})


def _non_negative(default):
    """A field that `validate()` holds to at least 0."""
    return field(default=default, metadata={"min": 0})


class ConfigError(ValueError):
    """Invalid simulation or experiment configuration."""


class PlacementError(ConfigError):
    """Robots cannot be placed in the arena without body overlap."""


@dataclass
class SimConfig:
    n_robots: int = _non_negative(30)
    beta: float = _non_negative(6.0)
    alpha: float = _positive(2.0)
    omega_max_s: float = _positive(30.0)
    arena_width_cm: float = _positive(285.0)
    arena_height_cm: float = _positive(285.0)
    cue_radius_cm: float = _positive(111.35)
    cue_peak: float = _positive(255.0)
    duration_s: int = _non_negative(4000)
    dt_s: float = _positive(0.1)
    seed: int = _non_negative(0)
    body_radius_cm: float = _positive(4.0)
    wheel_base_cm: float = _positive(8.0)
    contact_range_cm: float = _positive(10.0)
    wall_range_cm: float = _non_negative(2.0)
    refractory_s: float = _non_negative(2.0)
    metric_radius_cm: float = _positive(70.0)
    turn_min_deg: float = _non_negative(90.0)
    turn_max_deg: float = 180.0
    turn_rate_deg_s: float = _positive(180.0)
    wheel_max: float = _positive(10.0)
    waiting_formula: str = "squared"

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
        waiting time overflows.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                raise ConfigError(f"{f.name} must be a number, got {value!r}")
            if f.type == "int":
                if not isinstance(value, numbers.Integral):
                    raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            elif f.type == "float":
                if not isinstance(value, numbers.Real) or not math.isfinite(value):
                    raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
                if abs(value) > MAX_MAGNITUDE:
                    raise ConfigError(f"{f.name} must be at most {MAX_MAGNITUDE:g} in size, got {value!r}")
            if "min" in f.metadata and value < f.metadata["min"]:
                raise ConfigError(f"{f.name} must be at least {f.metadata['min']:g}, got {value!r}")
        if self.n_robots > MAX_ROBOTS:
            raise ConfigError(f"n_robots must be at most {MAX_ROBOTS}, got {self.n_robots}")
        if self.duration_s > MAX_DURATION_S:
            raise ConfigError(f"duration_s must be at most {MAX_DURATION_S}, got {self.duration_s}")
        if abs(self.ticks_per_second * self.dt_s - 1.0) > 1e-9:
            raise ConfigError(f"dt_s must divide 1 s evenly, got {self.dt_s}")
        if max(self.arena_width_cm, self.arena_height_cm) > MAX_ARENA_CM:
            raise ConfigError(f"arena sides must be at most {MAX_ARENA_CM:g} cm")
        if min(self.arena_width_cm, self.arena_height_cm) <= 2 * self.body_radius_cm:
            raise ConfigError("arena too small for the robot body")
        if min(round(self.arena_width_cm), round(self.arena_height_cm)) < 1:
            # the field has round(side) cells per side (see init_circular_gradient)
            raise ConfigError("arena sides must round to at least one 1 cm field cell")
        if self.cue_peak > 255:
            raise ConfigError(f"cue_peak must be at most 255, got {self.cue_peak}")
        if self.turn_min_deg > self.turn_max_deg:
            raise ConfigError(f"turn_min_deg {self.turn_min_deg} exceeds turn_max_deg {self.turn_max_deg}")
        if self.beta > self.wheel_max:
            raise ConfigError(f"beta must be in [0, {self.wheel_max}], got {self.beta}")
        if self.waiting_formula not in ("squared", "literal"):
            raise ConfigError(f"waiting_formula must be 'squared' or 'literal', got {self.waiting_formula!r}")


def ground_sensor_points(xy, cos_sin, wheel_base_cm, out) -> None:
    """Ground-sensor points under the wheels, written into out, shape (2, 2N).

    Each sensor sits wheel_base/2 from the center, perpendicular to the
    heading: left sensors go to out[:, :n], right sensors to out[:, n:].
    xy and cos_sin are (2, N): positions, and cos/sin of the headings.
    """
    n = xy.shape[1]
    off = (0.5 * wheel_base_cm) * cos_sin[::-1]
    np.negative(off[0], out=off[0])  # (-h sin, h cos) with h = wheel_base/2
    np.add(xy, off, out=out[:, :n])
    np.subtract(xy, off, out=out[:, n:])


def wrap_angle(theta):
    """Wrap to (-pi, pi]; a float or an array."""
    # for a theta just above pi the remainder rounds up to 2 pi; fmod maps that alone to 0
    return math.pi - np.fmod((math.pi - theta) % TWO_PI, TWO_PI)


def _far_walls(config: SimConfig) -> np.ndarray:
    """Largest center coordinates, as a (2, 1) column: arena width and height minus the body radius."""
    r = config.body_radius_cm
    return np.array([[config.arena_width_cm - r], [config.arena_height_cm - r]])


def integrate(xy, heading, cos_sin, n_l, n_r, turn_deg, dt: float, config: SimConfig, far_walls) -> None:
    """One explicit-Euler step of the unicycle model for every robot, in place.

    xy (2, N) and heading (N,) are updated; cos_sin holds the cos and sin
    of the headings before the step. Wheel units map to a forward speed
    of WHEEL_UNIT_CM_S * (n_l + n_r) / 2 cm/s and a yaw rate of
    WHEEL_UNIT_CM_S * (n_r - n_l) / wheel_base rad/s. A nonzero turn_deg
    then rotates the robot in place; positions are clamped to the arena,
    whose far walls are `_far_walls(config)`.
    """
    n_l, n_r = np.array((n_l, n_r), dtype=np.float64)
    v = WHEEL_UNIT_CM_S * 0.5 * (n_l + n_r)
    omega = WHEEL_UNIT_CM_S * (n_r - n_l) / config.wheel_base_cm
    xy += v * cos_sin * dt
    heading[:] = wrap_angle(heading + omega * dt)
    if any(turn_deg):
        # only turning robots wrap twice: wrapping rounds through pi - theta, which moves the
        # low bits of many headings already in (-pi, pi]
        turn = np.array(turn_deg, dtype=np.float64)
        np.copyto(heading, wrap_angle(heading + turn * DEG_TO_RAD), where=turn != 0.0)
    np.maximum(xy, config.body_radius_cm, out=xy)
    np.minimum(xy, far_walls, out=xy)


class PairGeometry:
    """A Verlet neighbour list: the robot pairs that can be in contact, and their squared distances.

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
    second, so the integrate steps alone never do.

    Every squared distance is (x[j] - x[i])**2 + (y[j] - y[i])**2 over a
    (2, P) index array. A rebuild evaluates it over every pair i < j, row
    by row, as `upper_d2`, which `coherency` reads; between rebuilds only
    `pair_d2`, over the listed pairs, is updated. It always belongs to the
    poses last tracked.
    """

    __slots__ = (
        "upper_d2", "pairs", "pair_d2", "ticks", "drift",
        "_all_pairs", "_rebuilt_xy", "_tick_travel", "_half_skin", "_reach2",
    )

    def __init__(self, x: np.ndarray, y: np.ndarray, config: SimConfig):
        self._tick_travel = WHEEL_UNIT_CM_S * config.wheel_max * config.dt_s
        # ticks * tick_travel, not a running sum, so a second of integrate steps lands on it exactly
        self._half_skin = config.ticks_per_second * self._tick_travel
        cutoff = max(config.contact_range_cm, 2.0 * config.body_radius_cm)
        self._reach2 = (cutoff + 2.0 * self._half_skin) ** 2
        self._all_pairs = np.array(np.triu_indices(len(x), k=1))
        self.rebuild(x, y)

    @staticmethod
    def _d2(x: np.ndarray, y: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        i, j = pairs
        return (x[j] - x[i]) ** 2 + (y[j] - y[i]) ** 2

    def rebuild(self, x: np.ndarray, y: np.ndarray) -> None:
        """Every pair's squared distance at the poses x, y, and the list of the pairs within cutoff + skin."""
        self.upper_d2 = self._d2(x, y, self._all_pairs)
        near = self.upper_d2 <= self._reach2
        self.pairs = self._all_pairs.compress(near, axis=1)
        self.pair_d2 = self.upper_d2[near]
        self._rebuilt_xy = np.array((x, y))
        self.ticks = 0
        self.drift = 0.0

    def track(self, x: np.ndarray, y: np.ndarray, pushed: bool = False) -> None:
        """Bring pair_d2 to the poses x, y, one integrate step on; with pushed=True, any move, and measure the drift."""
        if pushed:
            rx, ry = self._rebuilt_xy
            self.drift = float(np.hypot(x - rx, y - ry).max())
            self.ticks = 0
        else:
            self.ticks += 1
        if self.drift + self.ticks * self._tick_travel > self._half_skin:
            self.rebuild(x, y)
        else:
            self.pair_d2 = self._d2(x, y, self.pairs)


def _detect_events_trig(xy, cos_sin, geom, config, far_walls):
    """Contact flags for every robot, from poses (2, N), their cos/sin (2, N) and their PairGeometry.

    Robot contact: another center within contact_range and inside the
    frontal +/-90 degree arc (the state machine ignores it while the
    robot is refractory). Wall contact: body edge closer than wall_range
    to a wall that lies in the frontal arc; far_walls is `_far_walls(config)`.
    """
    x, y = xy
    cos_t, sin_t = cos_sin
    robot_contact = np.zeros(len(x), dtype=bool)
    near = geom.pair_d2 <= config.contact_range_cm**2
    if near.any():
        # both directions of every pair in range, in one frontal test
        in_range = geom.pairs.compress(near, axis=1)
        ii, jj = in_range.ravel(), in_range[::-1].ravel()
        frontal = cos_t[ii] * (x[jj] - x[ii]) + sin_t[ii] * (y[jj] - y[ii]) >= 0.0
        robot_contact[ii[frontal]] = True

    # rows: x and the vertical walls, y and the horizontal walls
    r = config.body_radius_cm
    rng_cm = config.wall_range_cm
    near_wall = ((xy - r < rng_cm) & (cos_sin <= 0.0)) | ((far_walls - xy < rng_cm) & (cos_sin >= 0.0))
    return robot_contact, near_wall[0] | near_wall[1]


@dataclass
class World:
    """The state of one run: what the observer sees each second and what the run returns.

    The arrays are the engine's own and live: at time t (whole seconds),
    xy (2, N) holds the positions in cm, heading the headings in radians,
    modes the controller's mode codes (FORWARD, WAITING, ...), field the
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


def _separate_overlaps(x: np.ndarray, y: np.ndarray, config: SimConfig, geom: PairGeometry) -> bool:
    """Push apart robot pairs whose bodies interpenetrate, in place.

    The poses arrive one `integrate` step after `geom` last saw them, and
    inside the walls (`integrate` clamps them), so only the moved robots
    need clipping. `geom` is tracked to them, then to the pushed poses, so
    the next tick's contact detection reads the geometry of the current
    poses. Returns True when any position changed.
    """
    geom.track(x, y)
    min_d = 2.0 * config.body_radius_cm
    overlap = geom.pair_d2 < min_d * min_d
    if not overlap.any():
        return False
    overlapping = geom.pairs.compress(overlap, axis=1)
    ii, jj = overlapping
    xs, ys = x.tolist(), y.tolist()  # Python floats: same arithmetic, cheaper per element
    for i, j in zip(ii.tolist(), jj.tolist()):
        d = math.hypot(xs[j] - xs[i], ys[j] - ys[i])
        if d < 1e-9:
            ux, uy = 1.0, 0.0  # coincident centers: split along x
            d = 0.0
        else:
            ux, uy = (xs[j] - xs[i]) / d, (ys[j] - ys[i]) / d
        shift = 0.5 * (min_d - d)
        xs[i] -= ux * shift
        ys[i] -= uy * shift
        xs[j] += ux * shift
        ys[j] += uy * shift
    moved = np.flatnonzero(np.bincount(overlapping.ravel(), minlength=len(x))).tolist()
    r = config.body_radius_cm
    hi_x = config.arena_width_cm - r
    hi_y = config.arena_height_cm - r
    x[moved] = [min(max(xs[k], r), hi_x) for k in moved]
    y[moved] = [min(max(ys[k], r), hi_y) for k in moved]
    geom.track(x, y, pushed=True)
    return True


def run_simulation(config: SimConfig, observer=None) -> World:
    """Run one full simulation; deterministic for a fixed config.

    RNG streams are derived from the seed with a fixed splitting rule:
    substream [seed, 0] drives placement, substream [seed, i + 1] drives
    robot i, so each robot's behavior is independent of the swarm size.
    `observer(world)` is called at every whole second, 0 to duration_s,
    with the same World that the run returns: at t < duration_s after
    that second's cleaning and metrics row, at duration_s after the last
    tick.
    """
    config.validate()
    n = config.n_robots
    dt = config.dt_s
    tps = config.ticks_per_second

    cue = init_circular_gradient(
        config.arena_width_cm, config.arena_height_cm, config.cue_center, config.cue_radius_cm, config.cue_peak
    )

    placement_rng = np.random.default_rng([config.seed, 0])
    # poses: xy is (2, N) with row views x and y; cos_sin holds each tick's trig
    xy = _place_robots(config, placement_rng)
    x, y = xy
    heading = placement_rng.uniform(-math.pi, math.pi, size=n)
    cos_sin = np.empty((2, n))
    robot_rngs = [np.random.default_rng([config.seed, i + 1]) for i in range(n)]
    geom = PairGeometry(x, y, config)
    far_walls = _far_walls(config)

    # one metrics row per whole second, written in place at the top of each second
    d = config.duration_s
    series = MetricsSeries(np.arange(d, dtype=np.int64), np.empty(d), np.empty(d), np.empty(d))
    world = World(0, xy, heading, [FORWARD] * n, cue, series, np.zeros(n, dtype=np.int64))
    modes, cleanings = world.modes, world.cleanings
    remaining = [0.0] * n
    refractory = [0.0] * n
    # ground-sensor points: left sensors in [:, :n], right sensors in [:, n:]
    sensors = np.empty((2, 2 * n))

    for t in range(d):
        waiting = [i for i, mode in enumerate(modes) if mode == WAITING]
        if waiting:
            apply_cleaning(cue, x[waiting], y[waiting])
            cleanings[waiting] += 1
        series.mean_cue[t] = mean_intensity(cue)
        series.ratio_within_rc[t] = ratio_within(xy, config.cue_center, config.metric_radius_cm)
        geom.rebuild(x, y)  # coherency reads the full triangle; the list is renewed with it
        series.coherency_m[t] = coherency(geom)
        world.t = t
        if observer is not None:
            observer(world)

        for _ in range(tps):
            np.cos(heading, out=cos_sin[0])
            np.sin(heading, out=cos_sin[1])
            ground_sensor_points(xy, cos_sin, config.wheel_base_cm, sensors)
            sensed = sample_many(cue, sensors[0], sensors[1]).tolist()
            robot_contact, wall_contact = _detect_events_trig(xy, cos_sin, geom, config, far_walls)
            n_l, n_r, turn_deg = step_fsm(
                modes, remaining, refractory, sensed[:n], sensed[n:], robot_contact.tolist(), wall_contact.tolist(),
                dt, robot_rngs, config,
            )
            integrate(xy, heading, cos_sin, n_l, n_r, turn_deg, dt, config, far_walls)
            _separate_overlaps(x, y, config, geom)

    # after the last tick: the observer sees the end state, with no cleaning or metrics row
    world.t = d
    if observer is not None:
        observer(world)
    return world
