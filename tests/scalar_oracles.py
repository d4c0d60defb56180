"""Per-robot reference implementations of the batched laws in `src/`.

The engine computes every robot's wheel speeds in one array `wheel_speeds`
call, steps the state machines of the robots with an event in one `step_fsm`
call, its timers kept as tick stamps, integrates every pose in one vectorised
`integrate`, and cleans under all waiting robots in one `apply_cleaning` call.
The scalar versions below are the laws as they were written robot by robot:
the wheel law in Python floats, an FSM state object and a wheel command per
robot, one pose at a time in Python floats, and one kernel application per
robot. The timers count down by dt on every tick: a wait in its state object,
and the refractory time in the numpy array the tick loop kept beside the FSM:
contact detection masked robot contacts with it, and the loop counted it down
after each step. `CountdownFsm` runs these per-tick laws in place of the
engine's `step_fsm`. The tests hold the batched code to these bit for bit.

Two array laws are kept as they were written before their constant operands
became 0-d arrays, made once: `wrap_angle_float_operands` and
`integrate_float_operands` pass Python floats to numpy, which converts each
of them on every call, and the latter takes its wheel speeds as two lists.
The engine's versions must give the same bits.

Two of the ANOVA's numerics are kept as they were first written:
`beta_cont_frac_two_half_steps` spells out the modified-Lentz update twice per
iteration, once for the even term and once for the odd, with the leading term
as a separate start; `bin_means_per_bin` slices each time bin in its own loop
step. `stats` must give the same bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from swarmclean.controller import AVOID_WALL, FORWARD, POST_WAIT_TURN, WAITING, random_turn, waiting_time
from swarmclean.engine import WHEEL_UNIT_CM_S, SimConfig
from swarmclean.field import CLEAN_KERNEL, KERNEL_REACH
from swarmclean.stats import _BETA_EPS, _BETA_FPMIN, _BETA_MAXIT

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class WheelCommand:
    """Left/right wheel speeds in wheel units, each in [0, 10]."""

    n_l: float
    n_r: float


STOPPED = WheelCommand(0.0, 0.0)


@dataclass(frozen=True)
class Forward:
    """Driving along the cue gradient."""


@dataclass(frozen=True)
class AvoidWall:
    """Rotating in place away from a wall; remaining_turn_deg is signed."""

    remaining_turn_deg: float


@dataclass(frozen=True)
class Waiting:
    """Stopped and cleaning; remaining_s counts down to zero."""

    remaining_s: float


@dataclass(frozen=True)
class PostWaitTurn:
    """Rotating in place after a wait expired; remaining_turn_deg is signed."""

    remaining_turn_deg: float


FsmState = Forward | AvoidWall | Waiting | PostWaitTurn


def wheel_speeds(s_l: float, s_r: float, config: SimConfig) -> tuple[float, float]:
    """Differential steering toward the stronger of the two ground sensors, for one robot.

    Returns (n_l, n_r) in wheel units: n_r = (s_l - s_r)/alpha + beta and
    n_l the mirror image, both clamped to [0, wheel_max].
    """
    diff = (s_l - s_r) / config.alpha
    hi = config.wheel_max
    n_r = diff + config.beta
    n_l = -diff + config.beta
    return (
        0.0 if n_l < 0.0 else (hi if n_l > hi else n_l),
        0.0 if n_r < 0.0 else (hi if n_r > hi else n_r),
    )


def from_state(state: FsmState) -> tuple[int, float]:
    """(mode code, the seconds left to wait or signed degrees left to turn, 0 while forward) of a state object."""
    if type(state) is Forward:
        return FORWARD, 0.0
    if type(state) is AvoidWall:
        return AVOID_WALL, state.remaining_turn_deg
    if type(state) is Waiting:
        return WAITING, state.remaining_s
    return POST_WAIT_TURN, state.remaining_turn_deg


def step_fsm(
    state: FsmState,
    s_l: float,
    s_r: float,
    robot_contact: bool,
    wall_contact: bool,
    dt: float,
    rng: np.random.Generator,
    config: SimConfig,
) -> tuple[FsmState, WheelCommand, float]:
    """Advance one robot's state machine by dt.

    Returns (next state, wheel command, in-place turn consumed this step
    in degrees). Robot contact takes priority over wall contact; waiting
    and turning states ignore contact events.
    """
    if type(state) is Forward:
        if robot_contact:
            return Waiting(waiting_time(0.5 * (s_l + s_r), config)), STOPPED, 0.0
        if wall_contact:
            return AvoidWall(random_turn(rng, config)), STOPPED, 0.0
        return state, WheelCommand(*wheel_speeds(s_l, s_r, config)), 0.0

    if type(state) is Waiting:
        remaining = state.remaining_s - dt
        if remaining > 0.0:
            return Waiting(remaining), STOPPED, 0.0
        return PostWaitTurn(random_turn(rng, config)), STOPPED, 0.0

    # AvoidWall / PostWaitTurn: rotate in place until the angle is consumed.
    remaining = state.remaining_turn_deg
    max_step = config.turn_rate_deg_s * dt
    step = remaining if abs(remaining) <= max_step else math.copysign(max_step, remaining)
    left = remaining - step
    if abs(left) < 1e-12:
        return Forward(), STOPPED, step
    if type(state) is AvoidWall:
        return AvoidWall(left), STOPPED, step
    return PostWaitTurn(left), STOPPED, step


def robot_contact_seen(robot_contact: bool, refractory: float) -> bool:
    """A robot contact as the state machine sees it: ignored while the robot is refractory."""
    return bool(robot_contact and refractory <= 0.0)


def step_refractory(refractory: np.ndarray, woke: list[int], dt: float, config: SimConfig) -> None:
    """Count every refractory time down by dt to 0, in place, then restart it for the robots whose wait ended."""
    np.subtract(refractory, dt, out=refractory)
    np.maximum(refractory, 0.0, out=refractory)
    if woke:
        refractory[woke] = config.refractory_s


class CountdownFsm:
    """The per-robot, per-tick state machine in place of `swarmclean.controller.step_fsm`, same arguments.

    Every robot is stepped on every tick by one `step_fsm` oracle call on its state object, the robot contacts
    it sees masked by a refractory array that `step_refractory` counts down. Each call writes the engine's Fsm as
    the engine's step would (modes, the degrees left to turn, and wheel_hi: wheel_max only for a robot that stays
    FORWARD) and returns the nonzero turns as (turned, turn_deg). A fresh CountdownFsm starts every robot FORWARD
    and not refractory, as a fresh Fsm does.
    """

    def __init__(self):
        self.states, self.refractory = None, None

    def __call__(self, fsm, robot_hits, wall_hits, sensed, rngs, config):
        n, dt = len(fsm.modes), config.dt_s
        if self.states is None:
            self.states, self.refractory = [Forward()] * n, np.zeros(n)
        robot, wall = set(robot_hits), set(wall_hits)
        woke, turned, turn_deg = [], [], []
        for i, old in enumerate(self.states):
            seen = robot_contact_seen(i in robot, self.refractory[i])
            state, _, step = step_fsm(old, sensed[i], sensed[n + i], seen, i in wall, dt, rngs[i], config)
            self.states[i] = state
            if type(old) is Waiting and type(state) is not Waiting:
                woke.append(i)
            if step:
                turned.append(i)
                turn_deg.append(step)
            fsm.modes[i], remaining = from_state(state)
            if type(state) in (AvoidWall, PostWaitTurn):
                fsm.turns[i] = remaining
            else:
                fsm.turns.pop(i, None)
            fsm.wheel_hi[i] = fsm.wheel_hi[n + i] = config.wheel_max if type(old) is type(state) is Forward else 0.0
        step_refractory(self.refractory, woke, dt, config)
        return turned, turn_deg


def wrap_angle(theta: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = math.pi - (math.pi - theta) % TWO_PI
    return wrapped if wrapped > -math.pi else math.pi


def integrate(
    x: float,
    y: float,
    heading: float,
    command: WheelCommand,
    turn_deg: float,
    dt: float,
    config: SimConfig,
) -> tuple[float, float, float]:
    """One explicit-Euler step of the unicycle model, then the in-place turn, clamped to the arena."""
    v = WHEEL_UNIT_CM_S * 0.5 * (command.n_l + command.n_r)
    omega = WHEEL_UNIT_CM_S * (command.n_r - command.n_l) / config.wheel_base_cm
    x += v * math.cos(heading) * dt
    y += v * math.sin(heading) * dt
    heading = wrap_angle(heading + omega * dt)
    if turn_deg:
        heading = wrap_angle(heading + turn_deg * (math.pi / 180.0))
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


def wrap_angle_float_operands(theta):
    """The engine's `wrap_angle` with Python float operands: (-pi, pi], a float or an array."""
    return math.pi - np.fmod((math.pi - theta) % TWO_PI, TWO_PI)


def integrate_float_operands(xy, heading, cos_sin, n_l, n_r, turn_deg, dt, config, far_walls, clamp=True) -> None:
    """The engine's vectorised `integrate` with Python float operands, in place, same arguments."""
    n_l, n_r = np.array((n_l, n_r), dtype=np.float64)
    v = WHEEL_UNIT_CM_S * 0.5 * (n_l + n_r)
    omega = WHEEL_UNIT_CM_S * (n_r - n_l) / config.wheel_base_cm
    xy += v * cos_sin * dt
    heading[:] = wrap_angle_float_operands(heading + omega * dt)
    if any(turn_deg):
        turn = np.array(turn_deg, dtype=np.float64)
        np.copyto(heading, wrap_angle_float_operands(heading + turn * (math.pi / 180.0)), where=turn != 0.0)
    if clamp:
        np.maximum(xy, config.body_radius_cm, out=xy)
        np.minimum(xy, far_walls, out=xy)


def sparse_turns(turn_deg) -> tuple[list[int], list[float]]:
    """The engine's (turned, turn_deg) form of a per-robot list of in-place turns: the robots whose turn is nonzero."""
    turned = [i for i, step in enumerate(turn_deg) if step]
    return turned, [turn_deg[i] for i in turned]


def apply_cleaning(field: np.ndarray, x_cm: float, y_cm: float) -> None:
    """Erode the field around one robot center: subtract the clipped kernel window, clamp at zero."""
    col = math.floor(x_cm)
    row = math.floor(y_cm)
    rows, cols = field.shape
    r0 = max(row - KERNEL_REACH, 0)
    r1 = min(row + KERNEL_REACH + 1, rows)
    c0 = max(col - KERNEL_REACH, 0)
    c1 = min(col + KERNEL_REACH + 1, cols)
    if r0 >= r1 or c0 >= c1:
        return
    kr0 = r0 - (row - KERNEL_REACH)
    kc0 = c0 - (col - KERNEL_REACH)
    window = field[r0:r1, c0:c1]
    np.subtract(window, CLEAN_KERNEL[kr0 : kr0 + (r1 - r0), kc0 : kc0 + (c1 - c0)], out=window)
    np.maximum(window, 0.0, out=window)


def beta_cont_frac_two_half_steps(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz), the even and odd half-steps written out."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction failed for a={a}, b={b}, x={x}")


def bin_means_per_bin(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Means of `values` over n_bins equal bins, the remainder folded into the last, one bin per loop step."""
    size = len(values) // n_bins
    out = np.empty(n_bins)
    for k in range(n_bins):
        lo = k * size
        hi = (k + 1) * size if k < n_bins - 1 else len(values)
        out[k] = values[lo:hi].mean()
    return out
