"""Per-robot control: gradient steering, collision-triggered waiting, random turns.

A robot is always in one of four modes: driving forward along the cue gradient, rotating away from a wall,
waiting (and cleaning) after meeting another robot, or rotating randomly after a wait expires; it rotates in
place, kinematically, since the wheel range [0, wheel_max] admits no reverse speed. After a wait it ignores other
robots for a refractory time. The swarm's FSM state is an `Fsm`: the mode codes below, the degrees left to turn,
and each timer as the tick on which it runs out, counted once when it starts, so that a tick visits only the
robots that meet something, turn, or wake. The wheel law is array ops over all robots, clamped per robot so that
only a driving robot moves; the transitions are scalar pure functions of that state, the sensors and the contacts.
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
    [0, hi]; s_l, s_r, betas, n_l and n_r are (n,) arrays, n_l and n_r the rows of wheels, alpha a 0-d array,
    and hi the clamp: (2, n) like wheels, as `Fsm.wheel_hi` (0 for a robot that does not drive), or a 0-d array.
    Equal sensors drive straight at the bias beta, so beta sets the cruise speed; the unclamped speeds always
    sum to 2*beta, and a smaller alpha steers harder.
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

def ticks_positive(value: float, dt: float, cap: int) -> int:
    """How many of value, value - dt, value - dt - dt, ... (a countdown's subtractions, in its order) are positive
    before the first that is not, at most cap: the ticks left in the run, past which no timer needs counting."""
    for n in range(cap):
        if value <= 0.0:
            return n
        value -= dt
    return cap


class Fsm:
    """The state machines of m robots, stepped one tick at a time by `step_fsm`.

    `modes` holds each robot's mode code and `turns` maps each turning robot to the signed degrees it has left.
    The timers are tick stamps: `wakes` maps a tick to the robots whose wait ends on it, and robot i ignores robot
    contacts through tick `refr_until[i]`. `wheel_hi[i]` and `[m + i]` clamp robot i's wheels in `wheel_speeds`
    (flat, as the (2, m) wheels; a row would cost a broadcast per tick): wheel_max, or 0 while it does not drive.
    `resumed` lists the robots whose turn ended on the last tick.
    """

    def __init__(self, m: int, config: SimConfig):
        self.modes, self.turns, self.wakes, self.refr_until, self.resumed = [FORWARD] * m, {}, {}, [-1] * m, []
        self.wheel_hi = np.full(2 * m, float(config.wheel_max))
        self.tick, self.ticks = 0, config.duration_s * config.ticks_per_second  # ticks stepped, ticks in the run
        self.refr_ticks = ticks_positive(config.refractory_s, config.dt_s, self.ticks)


def step_fsm(fsm: Fsm, robot_hits, wall_hits, sensed, rngs: list[np.random.Generator], config: SimConfig):
    """Advance the state machines by one tick of config.dt_s, in place, visiting only the robots with an event.

    robot_hits and wall_hits list the robots with a robot or a wall contact, sensed the cue under the m left wheels,
    then the m right ones. A robot FORWARD as the tick starts reads its contacts: unless refractory, a robot contact
    starts a wait of `waiting_time` of its sensors' mean, until that counted down by dt is not positive; else a wall
    contact starts a `random_turn` from rngs[i]. Then each robot turning as the tick starts rotates at
    turn_rate_deg_s, and each robot whose wait ends starts a turn and its refractory_s. A robot drives only on a
    tick it starts and ends FORWARD. Returns the robots that rotated in place and their nonzero steps in degrees.
    """
    modes, turns, hi, refr_until, tick = fsm.modes, fsm.turns, fsm.wheel_hi, fsm.refr_until, fsm.tick
    dt, n, turning, max_step = config.dt_s, len(modes), list(turns.items()), config.turn_rate_deg_s * config.dt_s
    for i in fsm.resumed:
        hi[i] = hi[n + i] = config.wheel_max
    for i in robot_hits:
        if modes[i] == FORWARD and tick > refr_until[i]:
            modes[i] = WAITING
            hi[i] = hi[n + i] = 0.0
            wait = waiting_time(0.5 * (sensed[i] + sensed[n + i]), config)
            fsm.wakes.setdefault(tick + 1 + ticks_positive(wait - dt, dt, fsm.ticks - tick - 1), []).append(i)
    for i in wall_hits:
        if modes[i] == FORWARD:
            modes[i], turns[i] = AVOID_WALL, random_turn(rngs[i], config)
            hi[i] = hi[n + i] = 0.0
    turned, turn_deg, fsm.resumed = [], [], []
    for i, turn in turning:
        step = turn if abs(turn) <= max_step else math.copysign(max_step, turn)
        if step:
            turned.append(i)
            turn_deg.append(step)
        left = turn - step
        if abs(left) < 1e-12:
            modes[i] = FORWARD
            del turns[i]
            fsm.resumed.append(i)
        else:
            turns[i] = left
    for i in fsm.wakes.pop(tick, ()):
        modes[i], turns[i], refr_until[i] = POST_WAIT_TURN, random_turn(rngs[i], config), tick + fsm.refr_ticks
    fsm.tick = tick + 1
    return turned, turn_deg
