"""Per-robot control: gradient steering, collision-triggered waiting, random turns.

A robot is always in one of four modes: driving forward along the cue
gradient, rotating away from a wall, waiting (and cleaning) after meeting
another robot, or rotating randomly after a wait expires. Transitions are
pure functions of (state, sensor readings, contact events), so controllers
for different robots can be stepped independently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .engine import SimConfig

WAIT_SATURATION = 25000.0  # cue-squared scale in the waiting-time law


@dataclass(frozen=True)
class WheelCommand:
    """Left/right wheel speeds in wheel units, each in [0, 10]."""

    n_l: float
    n_r: float


STOPPED = WheelCommand(0.0, 0.0)


# --- FSM states -------------------------------------------------------------

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


FORWARD = Forward()
FsmState = Forward | AvoidWall | Waiting | PostWaitTurn


# --- control laws -----------------------------------------------------------
# Each law reads its tunables from the run's SimConfig.

def waiting_time(mean_cue: float, config: SimConfig) -> float:
    """Waiting duration as a saturating function of the sensed cue mean.

    Default ("squared") form: omega_max * m^2 / (m^2 + 25000), increasing
    on [0, 255] and topping out near 21.67 s at m = 255. The "literal"
    form omega_max * m / (m^2 + 25000) is kept as a config switch; it
    peaks below 0.1 s, which defeats aggregation.
    """
    m = float(mean_cue)
    if config.waiting_formula == "squared":
        return config.omega_max_s * m * m / (m * m + WAIT_SATURATION)
    return config.omega_max_s * m / (m * m + WAIT_SATURATION)


def wheel_speeds(s_l: float, s_r: float, config: SimConfig) -> WheelCommand:
    """Differential steering toward the stronger of the two ground sensors.

    n_r = (s_l - s_r)/alpha + beta and n_l the mirror image, both clamped
    to [0, wheel_max]. Equal sensors drive straight at the bias beta, so
    beta sets the cruise speed; the unclamped speeds always sum to 2*beta,
    and a smaller alpha steers harder.
    """
    diff = (s_l - s_r) / config.alpha
    hi = config.wheel_max
    n_r = diff + config.beta
    n_l = -diff + config.beta
    return WheelCommand(
        n_l=0.0 if n_l < 0.0 else (hi if n_l > hi else n_l),
        n_r=0.0 if n_r < 0.0 else (hi if n_r > hi else n_r),
    )


def random_turn(rng: np.random.Generator, config: SimConfig) -> float:
    """Signed turn angle: magnitude uniform in [turn_min, turn_max] degrees,
    direction a fair coin, drawn independently."""
    magnitude = rng.uniform(config.turn_min_deg, config.turn_max_deg)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * magnitude


# --- state machine ----------------------------------------------------------

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

    s_l and s_r are the cue intensities under the left and right wheels.
    Returns (next state, wheel command, in-place turn consumed this step
    in degrees). Robot contact takes priority over wall contact; waiting
    and turning states ignore contact events. Turns are executed
    kinematically (wheels stay at 0) at turn_rate_deg_s because the wheel
    range [0, wheel_max] admits no reverse speed.
    """
    if type(state) is Forward:
        if robot_contact:
            return Waiting(waiting_time(0.5 * (s_l + s_r), config)), STOPPED, 0.0
        if wall_contact:
            return AvoidWall(random_turn(rng, config)), STOPPED, 0.0
        return state, wheel_speeds(s_l, s_r, config), 0.0

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
        return FORWARD, STOPPED, step
    if type(state) is AvoidWall:
        return AvoidWall(left), STOPPED, step
    return PostWaitTurn(left), STOPPED, step
