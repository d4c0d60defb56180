"""World state, unicycle kinematics, contact sensing, and the tick loop.

The simulation advances on a fixed timestep (default 0.1 s). Each tick:
read the ground sensors, detect robot/wall contacts from the current
poses, step every robot's state machine, then integrate motion. On every
whole-second boundary, each waiting robot erodes the field once and a
metrics row is appended. The whole trajectory is a pure function of the
config, including its seed.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from .controller import (
    FORWARD,
    ControllerParams,
    FsmState,
    SensorReading,
    Waiting,
    WheelCommand,
    step_fsm,
)
from .field import CueField, apply_cleaning, init_circular_gradient, mean_intensity, sample_many
from .metrics import MetricsRecord, MetricsSeries, coherency, ratio_within

# wheel-unit calibration: bias 6 drives 8 cm/s, bias 3 drives 4 cm/s
WHEEL_UNIT_CM_S = 4.0 / 3.0

TWO_PI = 2.0 * math.pi

# validation bounds: floats are finite and at most MAX_MAGNITUDE in size,
# strictly positive quantities at least MIN_POSITIVE; the field holds one
# float per square cm and the pair passes two N x N float arrays
MAX_MAGNITUDE = 1e6
MIN_POSITIVE = 1e-6
MAX_ARENA_CM = 10_000.0
MAX_ROBOTS = 10_000
_POSITIVE_FIELDS = (
    "alpha",
    "omega_max_s",
    "arena_width_cm",
    "arena_height_cm",
    "cue_radius_cm",
    "cue_peak",
    "dt_s",
    "body_radius_cm",
    "wheel_base_cm",
    "contact_range_cm",
    "metric_radius_cm",
    "turn_rate_deg_s",
    "wheel_max",
)
_NON_NEGATIVE_FIELDS = (
    "n_robots",
    "duration_s",
    "seed",
    "wall_range_cm",
    "refractory_s",
    "turn_min_deg",
)


class ConfigError(ValueError):
    """Invalid simulation or experiment configuration."""


class PlacementError(ConfigError):
    """Robots cannot be placed in the arena without body overlap."""


@dataclass
class SimConfig:
    n_robots: int = 30
    beta: float = 6.0
    alpha: float = 2.0
    omega_max_s: float = 30.0
    arena_width_cm: float = 285.0
    arena_height_cm: float = 285.0
    cue_radius_cm: float = 111.35
    cue_peak: float = 255.0
    duration_s: int = 4000
    dt_s: float = 0.1
    seed: int = 0
    body_radius_cm: float = 4.0
    wheel_base_cm: float = 8.0
    contact_range_cm: float = 10.0
    wall_range_cm: float = 2.0
    refractory_s: float = 2.0
    metric_radius_cm: float = 70.0
    turn_min_deg: float = 90.0
    turn_max_deg: float = 180.0
    turn_rate_deg_s: float = 180.0
    wheel_max: float = 10.0
    waiting_formula: str = "squared"

    @property
    def cue_center(self) -> tuple[float, float]:
        return (self.arena_width_cm / 2.0, self.arena_height_cm / 2.0)

    @property
    def ticks_per_second(self) -> int:
        return int(round(1.0 / self.dt_s))

    def validate(self) -> None:
        """Raise ConfigError for any config the engine cannot run.

        Every field is checked here, the controller's through
        `controller_params`: integers and finite floats of the right type,
        each inside its physical range. Floats are bounded in magnitude so
        that no speed, yaw rate or waiting time overflows.
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
        for name in _POSITIVE_FIELDS:
            if getattr(self, name) < MIN_POSITIVE:
                raise ConfigError(f"{name} must be at least {MIN_POSITIVE:g}, got {getattr(self, name)!r}")
        for name in _NON_NEGATIVE_FIELDS:
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if self.n_robots > MAX_ROBOTS:
            raise ConfigError(f"n_robots must be at most {MAX_ROBOTS}, got {self.n_robots}")
        tps = round(1.0 / self.dt_s)
        if abs(tps * self.dt_s - 1.0) > 1e-9:
            raise ConfigError(f"dt_s must divide 1 s evenly, got {self.dt_s}")
        if max(self.arena_width_cm, self.arena_height_cm) > MAX_ARENA_CM:
            raise ConfigError(f"arena sides must be at most {MAX_ARENA_CM:g} cm")
        if min(self.arena_width_cm, self.arena_height_cm) <= 2 * self.body_radius_cm:
            raise ConfigError("arena too small for the robot body")
        if self.cue_peak > 255:
            raise ConfigError(f"cue_peak must be at most 255, got {self.cue_peak}")
        if self.turn_min_deg > self.turn_max_deg:
            raise ConfigError(f"turn_min_deg {self.turn_min_deg} exceeds turn_max_deg {self.turn_max_deg}")
        self.controller_params()  # the controller's own checks: beta <= wheel_max, waiting_formula

    def controller_params(self) -> ControllerParams:
        try:
            return ControllerParams(
                alpha=self.alpha,
                beta=self.beta,
                omega_max_s=self.omega_max_s,
                turn_min_deg=self.turn_min_deg,
                turn_max_deg=self.turn_max_deg,
                turn_rate_deg_s=self.turn_rate_deg_s,
                wheel_max=self.wheel_max,
                waiting_formula=self.waiting_formula,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def speed_conversion(command: WheelCommand, wheel_base_cm: float = 8.0) -> tuple[float, float]:
    """Map wheel units to body motion: forward speed (cm/s) and yaw rate (rad/s)."""
    v = WHEEL_UNIT_CM_S * 0.5 * (command.n_l + command.n_r)
    omega = WHEEL_UNIT_CM_S * (command.n_r - command.n_l) / wheel_base_cm
    return v, omega


def sensor_positions(
    x: float, y: float, heading: float, wheel_base_cm: float = 8.0
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Ground-sensor points under the left and right wheels.

    Offsets of wheel_base/2 from the center, perpendicular to the heading.
    """
    h = 0.5 * wheel_base_cm
    s, c = math.sin(heading), math.cos(heading)
    return (x - h * s, y + h * c), (x + h * s, y - h * c)


def wrap_angle(theta: float) -> float:
    """Wrap to (-pi, pi]."""
    return math.pi - (math.pi - theta) % TWO_PI


def integrate(
    x: float,
    y: float,
    heading: float,
    command: WheelCommand,
    dt: float,
    config: SimConfig,
) -> tuple[float, float, float]:
    """One explicit-Euler step of the unicycle model, clamped to the arena."""
    v = WHEEL_UNIT_CM_S * 0.5 * (command.n_l + command.n_r)
    omega = WHEEL_UNIT_CM_S * (command.n_r - command.n_l) / config.wheel_base_cm
    x += v * math.cos(heading) * dt
    y += v * math.sin(heading) * dt
    heading = wrap_angle(heading + omega * dt)
    r = config.body_radius_cm
    hi_x = config.arena_width_cm - r
    hi_y = config.arena_height_cm - r
    if x < r:
        x = r
    elif x > hi_x:
        x = hi_x
    if y < r:
        y = r
    elif y > hi_y:
        y = hi_y
    return x, y, heading


class PairGeometry:
    """Squared distances between robot centers, kept for the current poses.

    d2[i, j] = (x[j] - x[i])**2 + (y[j] - y[i])**2, with an infinite
    diagonal so that no robot meets itself. The N x N buffer is allocated
    once, for the poses it is built from, and refilled in place: `fill`
    recomputes every pair, `refill` only the rows and columns of the robots
    that moved. d2 is symmetric bit for bit, because x[j] - x[i] and
    x[i] - x[j] differ only in sign, so a robot's column is its row
    transposed.
    """

    __slots__ = ("d2", "_tmp")

    def __init__(self, x: np.ndarray, y: np.ndarray):
        n = len(x)
        self.d2 = np.empty((n, n))
        self._tmp = np.empty((n, n))
        self.fill(x, y)

    def fill(self, x: np.ndarray, y: np.ndarray) -> None:
        d2, tmp = self.d2, self._tmp
        np.subtract(x[None, :], x[:, None], out=tmp)
        np.multiply(tmp, tmp, out=d2)
        np.subtract(y[None, :], y[:, None], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(d2, tmp, out=d2)
        np.fill_diagonal(d2, np.inf)

    def refill(self, x: np.ndarray, y: np.ndarray, moved: np.ndarray) -> None:
        dx = x[None, :] - x[moved, None]
        dy = y[None, :] - y[moved, None]
        rows = dx * dx + dy * dy
        self.d2[moved] = rows
        self.d2[:, moved] = rows.T
        self.d2[moved, moved] = np.inf


def detect_events(
    x: np.ndarray,
    y: np.ndarray,
    heading: np.ndarray,
    refractory: np.ndarray,
    config: SimConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Contact flags for every robot, from a snapshot of the poses.

    Robot contact: another center within contact_range and inside the
    frontal +/-90 degree arc; suppressed while the observer robot is
    refractory (it can still trigger others). Wall contact: body edge
    closer than wall_range to a wall that lies in the frontal arc.
    """
    geom = PairGeometry(x, y)
    return _detect_events_trig(x, y, np.cos(heading), np.sin(heading), refractory, geom, config)


def _detect_events_trig(x, y, cos_t, sin_t, refractory, geom, config):
    """`detect_events` on precomputed trig and a PairGeometry of the same poses."""
    n = len(x)
    robot_contact = np.zeros(n, dtype=bool)
    ii, jj = np.divmod(np.flatnonzero(geom.d2 <= config.contact_range_cm**2), n)
    if len(ii):
        frontal = cos_t[ii] * (x[jj] - x[ii]) + sin_t[ii] * (y[jj] - y[ii]) >= 0.0
        robot_contact[ii[frontal]] = True
        robot_contact &= refractory <= 0.0

    r = config.body_radius_cm
    rng_cm = config.wall_range_cm
    wall_contact = (
        ((x - r < rng_cm) & (cos_t <= 0.0))
        | ((config.arena_width_cm - r - x < rng_cm) & (cos_t >= 0.0))
        | ((y - r < rng_cm) & (sin_t <= 0.0))
        | ((config.arena_height_cm - r - y < rng_cm) & (sin_t >= 0.0))
    )
    return robot_contact, wall_contact


@dataclass
class WorldView:
    """Read-only view handed to boundary observers; do not mutate."""

    t: int
    x: np.ndarray
    y: np.ndarray
    heading: np.ndarray
    states: tuple[FsmState, ...]
    field: CueField


@dataclass
class SimResult:
    series: MetricsSeries
    field: CueField
    snapshots: dict[int, CueField] = dc_field(default_factory=dict)
    cleanings: np.ndarray = dc_field(default_factory=lambda: np.empty(0, dtype=np.int64))
    final_x: np.ndarray = dc_field(default_factory=lambda: np.empty(0))
    final_y: np.ndarray = dc_field(default_factory=lambda: np.empty(0))
    final_heading: np.ndarray = dc_field(default_factory=lambda: np.empty(0))


def _place_robots(config: SimConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Rejection-sample non-overlapping uniform positions for all robots."""
    n = config.n_robots
    r = config.body_radius_cm
    lo_x, hi_x = r, config.arena_width_cm - r
    lo_y, hi_y = r, config.arena_height_cm - r
    min_d2 = (2.0 * r) ** 2
    xs = np.empty(n)
    ys = np.empty(n)
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
    return xs, ys


def _separate_overlaps(x: np.ndarray, y: np.ndarray, config: SimConfig, geom: PairGeometry) -> bool:
    """Push apart robot pairs whose bodies interpenetrate, in place.

    Refills `geom` from the poses it is given and again for the robots it
    moves, so the next tick's contact detection reads the geometry of the
    current poses. The poses enter inside the walls (`integrate` clamps
    them), so only the moved robots need clipping. Returns True when any
    position changed.
    """
    geom.fill(x, y)
    min_d = 2.0 * config.body_radius_cm
    if len(x) < 2 or geom.d2.min() >= min_d * min_d:
        return False
    ii, jj = np.divmod(np.flatnonzero(geom.d2 < min_d * min_d), len(x))
    xs, ys = x.tolist(), y.tolist()  # Python floats: same arithmetic, cheaper per element
    for i, j in zip(ii.tolist(), jj.tolist()):
        if i >= j:
            continue
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
    # the overlap mask is symmetric, so its rows name every robot moved
    moved = np.flatnonzero(np.bincount(ii, minlength=len(x)))
    r = config.body_radius_cm
    hi_x = config.arena_width_cm - r
    hi_y = config.arena_height_cm - r
    index = moved.tolist()
    x[moved] = [min(max(xs[k], r), hi_x) for k in index]
    y[moved] = [min(max(ys[k], r), hi_y) for k in index]
    geom.refill(x, y, moved)
    return True


def run_simulation(config: SimConfig, snapshot_times=(), observer=None) -> SimResult:
    """Run one full simulation; deterministic for a fixed config.

    RNG streams are derived from the seed with a fixed splitting rule:
    substream [seed, 0] drives placement, substream [seed, i + 1] drives
    robot i, so each robot's behavior is independent of the swarm size.
    `snapshot_times` are whole seconds (0..duration inclusive) at which a
    copy of the field is kept. `observer(view)` is called at every
    whole-second boundary with a WorldView.
    """
    config.validate()
    params = config.controller_params()
    n = config.n_robots
    dt = config.dt_s
    tps = config.ticks_per_second
    snap_set = {int(t) for t in snapshot_times}

    cue = init_circular_gradient(
        config.arena_width_cm,
        config.arena_height_cm,
        config.cue_center,
        config.cue_radius_cm,
        config.cue_peak,
    )

    placement_rng = np.random.default_rng([config.seed, 0])
    x_arr, y_arr = _place_robots(config, placement_rng)
    th_arr = placement_rng.uniform(-math.pi, math.pi, size=n)
    robot_rngs = [np.random.default_rng([config.seed, i + 1]) for i in range(n)]
    geom = PairGeometry(x_arr, y_arr)

    # poses are kept twice: plain-float lists feed the per-robot scalar loop,
    # arrays (rebuilt after each move) feed the vectorized sensing/detection
    xs = x_arr.tolist()
    ys = y_arr.tolist()
    ths = th_arr.tolist()

    states: list[FsmState] = [FORWARD] * n
    refractory = np.zeros(n)
    cleanings = np.zeros(n, dtype=np.int64)
    records: list[MetricsRecord] = []
    snapshots: dict[int, CueField] = {}
    half_base = 0.5 * config.wheel_base_cm
    # ground-sensor points: left sensors in [:n], right sensors in [n:]
    sensor_x = np.empty(2 * n)
    sensor_y = np.empty(2 * n)
    deg_to_rad = math.pi / 180.0

    def at_boundary(t_now: int, final: bool) -> None:
        if not final:
            for i in range(n):
                if type(states[i]) is Waiting:
                    apply_cleaning(cue, xs[i], ys[i])
                    cleanings[i] += 1
            positions = np.column_stack((x_arr, y_arr)) if n else np.empty((0, 2))
            records.append(
                MetricsRecord(
                    t=t_now,
                    mean_cue=mean_intensity(cue),
                    ratio_within_rc=ratio_within(positions, config.cue_center, config.metric_radius_cm),
                    coherency_m=coherency(positions),
                )
            )
        if t_now in snap_set:
            snapshots[t_now] = cue.copy()
        if observer is not None:
            observer(WorldView(t_now, x_arr.copy(), y_arr.copy(), th_arr.copy(), tuple(states), cue))

    total_ticks = config.duration_s * tps
    for tick in range(total_ticks):
        if tick % tps == 0:
            at_boundary(tick // tps, final=False)

        sin_t = np.sin(th_arr)
        cos_t = np.cos(th_arr)
        off_x = half_base * sin_t
        off_y = half_base * cos_t
        np.subtract(x_arr, off_x, out=sensor_x[:n])
        np.add(x_arr, off_x, out=sensor_x[n:])
        np.add(y_arr, off_y, out=sensor_y[:n])
        np.subtract(y_arr, off_y, out=sensor_y[n:])
        sensed = sample_many(cue, sensor_x, sensor_y).tolist()
        s_left = sensed[:n]
        s_right = sensed[n:]
        robot_contact, wall_contact = _detect_events_trig(x_arr, y_arr, cos_t, sin_t, refractory, geom, config)
        rc = robot_contact.tolist()
        wc = wall_contact.tolist()

        woke: list[int] = []
        for i in range(n):
            old = states[i]
            state, command, turn_deg = step_fsm(
                old, SensorReading(s_left[i], s_right[i]), rc[i], wc[i], dt, robot_rngs[i], params
            )
            states[i] = state
            if type(old) is Waiting and type(state) is not Waiting:
                woke.append(i)
            xi, yi, hi = integrate(xs[i], ys[i], ths[i], command, dt, config)
            if turn_deg:
                hi = wrap_angle(hi + turn_deg * deg_to_rad)
            xs[i] = xi
            ys[i] = yi
            ths[i] = hi

        x_arr = np.array(xs)
        y_arr = np.array(ys)
        th_arr = np.array(ths)
        if _separate_overlaps(x_arr, y_arr, config, geom):
            xs = x_arr.tolist()
            ys = y_arr.tolist()
        if n:
            np.subtract(refractory, dt, out=refractory)
            np.maximum(refractory, 0.0, out=refractory)
            for i in woke:
                refractory[i] = config.refractory_s

    # final boundary: snapshots and observer only, no cleaning or metrics row
    at_boundary(config.duration_s, final=True)

    return SimResult(
        series=MetricsSeries.from_records(records),
        field=cue,
        snapshots=snapshots,
        cleanings=cleanings,
        final_x=x_arr,
        final_y=y_arr,
        final_heading=th_arr,
    )
