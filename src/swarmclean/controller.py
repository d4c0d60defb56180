"""Per-robot control: gradient steering, collision-triggered waiting, random turns.

A robot is always in one of four modes: driving forward along the cue
gradient, rotating away from a wall, waiting (and cleaning) after meeting
another robot, or rotating randomly after a wait expires. After a wait
it ignores other robots for a refractory time. The swarm's FSM state is
three plain lists indexed by robot: `modes`, one of the codes below,
`remaining`, the mode's countdown (seconds left to wait, or signed
degrees left to turn; 0 while driving forward), and `refractory`, the
seconds left in which robot contacts are ignored. The wheel law is array ops
over all robots; the transitions are one scalar loop of pure functions of
that state, the sensors and the contacts, and report who does not drive.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .field import _ZERO

if TYPE_CHECKING:
    from .engine import SimConfig

WAIT_SATURATION = 25000.0  # cue-squared scale in the waiting-time law

# mode codes
FORWARD = 0  # driving along the cue gradient
AVOID_WALL = 1  # rotating in place away from a wall
WAITING = 2  # stopped and cleaning until the wait runs out
POST_WAIT_TURN = 3  # rotating in place after a wait expired


# --- control laws -----------------------------------------------------------
# Each law reads its tunables from the run's SimConfig.

def waiting_time(mean_cue: float, config: SimConfig) -> float:
    """Waiting duration omega_max * m^2 / (m^2 + 25000) of the sensed cue mean m.

    It saturates in the squared cue, increasing on [0, 255] and topping out
    near 21.67 s at m = 255.
    """
    m = float(mean_cue)
    return config.omega_max_s * m * m / (m * m + WAIT_SATURATION)


def wheel_speeds(s_l, s_r, alpha, betas, hi, wheels, n_l, n_r) -> None:
    """Differential steering toward the stronger ground sensor, every robot at once, into the (2, n) wheels.

    Writes n_r = (s_l - s_r)/alpha + beta and n_l = beta - (s_l - s_r)/alpha in wheel units, clamped to
    [0, hi]; s_l, s_r, betas, n_l and n_r are (n,) arrays, n_l and n_r the rows of wheels, and alpha and hi 0-d
    arrays. Equal sensors drive straight at the bias beta, so beta sets the cruise speed; the unclamped speeds
    always sum to 2*beta, and a smaller alpha steers harder.
    """
    np.subtract(s_l, s_r, out=n_r)
    np.divide(n_r, alpha, out=n_r)  # diff, then each row is one op against betas
    np.subtract(betas, n_r, out=n_l)
    np.add(n_r, betas, out=n_r)
    np.maximum(wheels, _ZERO, out=wheels)
    np.minimum(wheels, hi, out=wheels)


def random_turn(rng: np.random.Generator, config: SimConfig) -> float:
    """Signed turn angle: magnitude uniform in [turn_min, turn_max] degrees,
    direction a fair coin, drawn independently."""
    magnitude = rng.uniform(config.turn_min_deg, config.turn_max_deg)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * magnitude


# --- state machine ----------------------------------------------------------

def step_fsm(
    modes: list[int], remaining: list[float], refractory: list[float], sensed, robot_contact: list[bool],
    wall_contact: list[bool], dt: float, rngs: list[np.random.Generator], config: SimConfig,
) -> tuple[list[int], list[float]]:
    """Advance every robot's state machine by dt, updating modes, remaining and refractory in place.

    sensed holds the cue under the n robots' left wheels, then their right ones; robot i draws its turns
    from rngs[i]; the laws of every robot read config.
    Returns (stopped, turn_deg): flat indices i and n + i into the (2, n) `wheel_speeds` of each robot i
    that does not stay FORWARD, so does not drive, and the in-place turn consumed this step in degrees.
    Only a robot that starts a wait reads sensed. Robot contact takes priority over wall contact;
    waiting and turning robots ignore contact events, and so does a robot
    whose refractory time, as it enters the step, is positive. Refractory
    time runs down by dt to 0, and restarts at refractory_s when a wait
    ends. Turns are executed kinematically (wheels stay at 0) at
    turn_rate_deg_s because the wheel range [0, wheel_max] admits no
    reverse speed.
    """
    n = len(modes)
    stopped = []
    turn_deg = [0.0] * n
    max_step = config.turn_rate_deg_s * dt
    for i, mode in enumerate(modes):
        refr = refractory[i]
        if refr > 0.0:
            refr_left = refr - dt
            refractory[i] = refr_left if refr_left > 0.0 else 0.0  # max(refr - dt, 0), without a call
        if mode == FORWARD:
            if robot_contact[i] and refr <= 0.0:
                modes[i] = WAITING
                remaining[i] = waiting_time(0.5 * (sensed[i] + sensed[n + i]), config)
            elif wall_contact[i]:
                modes[i] = AVOID_WALL
                remaining[i] = random_turn(rngs[i], config)
            else:
                continue  # drives at its wheel_speeds
        elif mode == WAITING:
            left = remaining[i] - dt
            if left > 0.0:
                remaining[i] = left
            else:
                modes[i] = POST_WAIT_TURN
                remaining[i] = random_turn(rngs[i], config)
                refractory[i] = config.refractory_s
        else:
            # AVOID_WALL / POST_WAIT_TURN: rotate in place until the angle is consumed
            turn = remaining[i]
            step = turn if abs(turn) <= max_step else math.copysign(max_step, turn)
            turn_deg[i] = step
            left = turn - step
            if abs(left) < 1e-12:
                modes[i] = FORWARD
                remaining[i] = 0.0
            else:
                remaining[i] = left
        stopped += i, n + i
    return stopped, turn_deg
