import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmclean.controller import (
    AVOID_WALL,
    FORWARD,
    POST_WAIT_TURN,
    WAITING,
    random_turn,
    step_fsm,
    waiting_time,
    wheel_speeds,
)
from swarmclean.engine import ConfigError, SimConfig

import scalar_oracles as oracle

P = SimConfig()


def array_law(s_l, s_r, betas, alpha=P.alpha, wheel_max=P.wheel_max):
    """The array law's (2, n) wheels for sensor readings s_l, s_r and one beta per robot, as the engine calls it."""
    n = len(s_l)
    sensed = np.array([*s_l, *s_r], dtype=np.float64)
    wheels = np.full((2, n), np.nan)
    alpha, betas, wheel_max = np.array(alpha), np.array(betas, dtype=np.float64), np.array(wheel_max)
    wheel_speeds(sensed[:n], sensed[n:], alpha, betas, wheel_max, wheels, *wheels)
    return wheels


def speeds(s_l, s_r, config=P):
    """One robot's (n_l, n_r) from the array law."""
    return tuple(array_law([s_l], [s_r], [config.beta], config.alpha, config.wheel_max)[:, 0].tolist())


class TestWaitingTime:
    def test_max_cue(self):
        # 30 * 255^2 / (255^2 + 25000), inside Table-range [0, 21.7]
        assert waiting_time(255, P) == pytest.approx(30 * 65025 / 90025, abs=1e-12)
        assert waiting_time(255, P) == pytest.approx(21.67, abs=0.05)

    def test_zero_cue(self):
        assert waiting_time(0, P) == 0.0

    def test_mid_cue(self):
        assert waiting_time(100, P) == pytest.approx(60.0 / 7.0, abs=1e-12)

    def test_range_bound(self):
        grid = np.linspace(0, 255, 2000)
        values = [waiting_time(m, P) for m in grid]
        assert min(values) >= 0.0
        assert max(values) <= 21.7

    def test_strictly_increasing_and_argmax(self):
        grid = np.linspace(0, 255, 4000)
        values = np.array([waiting_time(m, P) for m in grid])
        assert np.all(np.diff(values) > 0)  # squared form rises on [0, 255]
        assert values.argmax() == len(grid) - 1

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigError):
            SimConfig(alpha=0).validate()
        with pytest.raises(ConfigError):
            SimConfig(beta=11).validate()
        with pytest.raises(ConfigError):
            SimConfig(beta=-1).validate()


class TestWheelSpeeds:
    def test_equal_sensors_drive_straight(self):
        assert speeds(42.0, 42.0) == (6.0, 6.0)

    def test_turns_toward_higher_left(self):
        assert speeds(10.0, 6.0) == (4.0, 8.0)

    def test_clamping_at_extremes(self):
        assert speeds(255.0, 0.0) == (0.0, 10.0)

    def test_lands_exactly_on_both_clamps(self):
        # diff = (s_l - s_r) / alpha lands on beta, -beta and wheel_max - beta exactly
        assert speeds(13.0, 1.0) == (0.0, 10.0)  # diff = 6: n_l = 0, n_r = 12 clamped
        assert speeds(1.0, 13.0) == (10.0, 0.0)
        assert speeds(9.0, 1.0) == (2.0, 10.0)  # diff = 4: n_r = wheel_max unclamped
        assert speeds(1.0, 9.0) == (10.0, 2.0)
        assert array_law([5.0, 5.0, 5.0], [5.0, 2.0, 8.0], [0.0, 1.5, 1.5], alpha=1.0).tolist() == [
            [0.0, 0.0, 4.5],
            [0.0, 4.5, 0.0],
        ]

    @given(st.floats(0, 255), st.floats(0, 255))
    @settings(max_examples=100, deadline=None)
    def test_unclamped_sum_is_twice_beta(self, s_l, s_r):
        diff = (s_l - s_r) / P.alpha
        assert (diff + P.beta) + (-diff + P.beta) == pytest.approx(2 * P.beta, abs=1e-9)
        n_l, n_r = speeds(s_l, s_r)
        assert 0.0 <= n_l <= 10.0
        assert 0.0 <= n_r <= 10.0

    @given(st.floats(0, 255), st.floats(0, 255))
    @settings(max_examples=100, deadline=None)
    def test_steers_toward_stronger_sensor(self, s_l, s_r):
        n_l, n_r = speeds(s_l, s_r)
        if s_l > s_r:
            assert n_r >= n_l
        elif s_r > s_l:
            assert n_l >= n_r


@st.composite
def law_swarms(draw):
    """alpha, wheel_max, and per robot (s_l, s_r, beta): often landing exactly on a clamp, as dyadic alphas do."""
    alpha = draw(st.one_of(st.sampled_from([2.0, 1.0, 0.5, 0.25, 4.0]), st.floats(1e-6, 1.0), st.floats(1.0, 50.0)))
    wheel_max = draw(st.sampled_from([10.0, 7.5]))
    robots = []
    for _ in range(draw(st.integers(0, 40))):
        beta = draw(st.sampled_from([0.0, 3.0, 6.0, wheel_max]))
        s_r = draw(st.one_of(st.integers(0, 255).map(float), st.floats(0.0, 255.0)))
        # the unclamped n_l = beta - diff and n_r = diff + beta on 0 or wheel_max, or anywhere
        target = draw(st.sampled_from([beta, -beta, wheel_max - beta, beta - wheel_max, None]))
        s_l = draw(st.floats(0.0, 255.0)) if target is None else s_r + target * alpha
        robots.append((s_l, s_r, beta))
    return alpha, wheel_max, robots


@given(law_swarms())
@settings(max_examples=200, deadline=None)
def test_array_law_equals_scalar_law(swarm):
    """The array wheel law gives each robot the scalar law's bits, beta per robot, clamps hit exactly included."""
    alpha, wheel_max, robots = swarm
    s_l, s_r, betas = ([r[k] for r in robots] for k in range(3))
    wheels = array_law(s_l, s_r, betas, alpha, wheel_max)
    for i, (sl, sr, beta) in enumerate(robots):
        want = oracle.wheel_speeds(sl, sr, SimConfig(alpha=alpha, beta=beta, wheel_max=wheel_max))
        assert wheels[:, i].tobytes() == np.array(want).tobytes()


class TestRandomTurn:
    def test_magnitude_always_in_range(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            theta = random_turn(rng, P)
            assert 90.0 <= abs(theta) <= 180.0

    def test_empirical_mean_magnitude(self):
        rng = np.random.default_rng(2)
        draws = np.array([random_turn(rng, P) for _ in range(100_000)])
        assert np.abs(draws).mean() == pytest.approx(135.0, abs=1.0)

    def test_fair_sign(self):
        rng = np.random.default_rng(3)
        draws = np.array([random_turn(rng, P) for _ in range(100_000)])
        assert (draws > 0).mean() == pytest.approx(0.5, abs=0.01)


def _rng():
    return np.random.default_rng(0)


def step_swarm(modes, remaining, refractory, s_l, s_r, robot_contact, wall_contact, dt, rngs, betas):
    """One control step as the tick loop takes it: the wheel law at each robot's beta, the FSM step, the stop mask.

    Returns (stopped, wheels (2, n), turn_deg); modes, remaining and refractory are stepped in place.
    """
    sensed = np.array([*s_l, *s_r], dtype=np.float64)
    wheels = array_law(s_l, s_r, betas, P.alpha, P.wheel_max)
    stopped, turn = step_fsm(modes, remaining, refractory, sensed, robot_contact, wall_contact, dt, rngs, P)
    wheels.put(stopped, 0.0)
    return stopped, wheels, turn


def step_one(mode, remaining, s_l, s_r, robot_contact, wall_contact, rng=None, refractory=0.0):
    """Step a one-robot swarm: ((mode, remaining), (n_l, n_r), turn_deg, refractory after the step)."""
    modes, rem, refr = [mode], [remaining], [refractory]
    _, wheels, turn = step_swarm(
        modes, rem, refr, [float(s_l)], [float(s_r)], [robot_contact], [wall_contact], 0.1, [rng or _rng()], [P.beta]
    )
    return (modes[0], rem[0]), tuple(wheels[:, 0].tolist()), turn[0], refr[0]


class TestStepFsm:
    def test_forward_robot_contact_starts_waiting(self):
        (mode, remaining), cmd, turn, _ = step_one(FORWARD, 0.0, 255, 255, True, False)
        assert mode == WAITING
        assert remaining == pytest.approx(21.67, abs=0.05)
        assert cmd == (0.0, 0.0)
        assert turn == 0.0

    def test_robot_contact_beats_wall_contact(self):
        (mode, _), _, _, _ = step_one(FORWARD, 0.0, 50, 50, True, True)
        assert mode == WAITING

    def test_forward_wall_contact_starts_avoidance(self):
        (mode, remaining), cmd, _, _ = step_one(FORWARD, 0.0, 50, 50, False, True)
        assert mode == AVOID_WALL
        assert 90.0 <= abs(remaining) <= 180.0
        assert cmd == (0.0, 0.0)

    def test_forward_no_events_drives_at_bias(self):
        (mode, _), cmd, _, _ = step_one(FORWARD, 0.0, 0, 0, False, False)
        assert mode == FORWARD
        assert cmd == (6.0, 6.0)

    def test_waiting_counts_down(self):
        state, cmd, _, refractory = step_one(WAITING, 5.0, 0, 0, False, False)
        assert state == (WAITING, 4.9)
        assert cmd == (0.0, 0.0)
        assert refractory == 0.0

    def test_waiting_expiry_turns(self):
        (mode, remaining), cmd, _, refractory = step_one(WAITING, 0.05, 0, 0, False, False)
        assert mode == POST_WAIT_TURN
        assert 90.0 <= abs(remaining) <= 180.0
        assert cmd == (0.0, 0.0)
        assert refractory == P.refractory_s

    def test_waiting_ignores_new_contacts(self):
        state, _, _, _ = step_one(WAITING, 5.0, 255, 255, True, True)
        assert state == (WAITING, 4.9)

    def test_turn_consumes_at_fixed_rate(self):
        state, cmd, turn, _ = step_one(POST_WAIT_TURN, 120.0, 0, 0, False, False)
        assert turn == pytest.approx(18.0)  # 180 deg/s * 0.1 s
        assert state == (POST_WAIT_TURN, 102.0)
        assert cmd == (0.0, 0.0)

    def test_turn_finishes_exactly(self):
        (mode, _), _, turn, _ = step_one(AVOID_WALL, -10.0, 0, 0, False, False)
        assert mode == FORWARD
        assert turn == pytest.approx(-10.0)

    def test_turn_sign_preserved(self):
        state, _, turn, _ = step_one(AVOID_WALL, -120.0, 0, 0, False, False)
        assert turn == pytest.approx(-18.0)
        assert state == (AVOID_WALL, -102.0)

    @pytest.mark.parametrize(
        "state",
        [(FORWARD, 0.0), (WAITING, 3.0), (WAITING, 0.0), (AVOID_WALL, 90.0), (AVOID_WALL, -90.0), (POST_WAIT_TURN, 180.0)],
    )
    @pytest.mark.parametrize("robot_contact", [False, True])
    @pytest.mark.parametrize("wall_contact", [False, True])
    def test_totality_over_states_and_events(self, state, robot_contact, wall_contact):
        (mode, _), (n_l, n_r), turn, _ = step_one(*state, 100, 90, robot_contact, wall_contact)
        assert mode in (FORWARD, WAITING, AVOID_WALL, POST_WAIT_TURN)
        assert 0.0 <= n_l <= 10.0
        assert 0.0 <= n_r <= 10.0
        assert abs(turn) <= 18.0 + 1e-12

    def test_waiting_always_stopped(self):
        for remaining in (21.67, 10.0, 0.2):
            _, cmd, turn, _ = step_one(WAITING, remaining, 200, 10, True, True)
            assert cmd == (0.0, 0.0)
            assert turn == 0.0

    def test_new_waiting_duration_in_creation_range(self):
        rng = _rng()
        for cue in (0.0, 17.0, 100.0, 255.0):
            (_, remaining), _, _, _ = step_one(FORWARD, 0.0, cue, cue, True, False, rng)
            assert 0.0 <= remaining <= 21.7


class TestWheelCommandInvariants:
    def test_forward_is_a_value(self):
        # the mode codes are distinct plain ints, and a fresh swarm starts driving forward
        modes = (FORWARD, AVOID_WALL, WAITING, POST_WAIT_TURN)
        assert all(type(m) is int for m in modes) and len(set(modes)) == 4
        (mode, remaining), _, _, _ = step_one(FORWARD, 0.0, 0, 0, False, False)
        assert (mode, remaining) == (FORWARD, 0.0)

    def test_command_is_plain_record(self):
        # the robots that do not drive come back as flat wheel indices and turns as a plain per-robot list;
        # refractory is stepped in place
        modes, remaining, refractory = [FORWARD, WAITING, AVOID_WALL], [0.0, 0.05, 30.0], [0.0, 0.0, 0.0]
        rngs = [_rng() for _ in modes]
        stopped, wheels, turn = step_swarm(
            modes, remaining, refractory, [1.5] * 3, [0.5] * 3, [False] * 3, [False] * 3, 0.1, rngs, [P.beta] * 3
        )
        assert stopped == [1, 4, 2, 5]
        assert wheels.tolist() == [[5.5, 0.0, 0.0], [6.5, 0.0, 0.0]]
        assert turn == [0.0, 0.0, pytest.approx(18.0)]
        assert refractory == [0.0, P.refractory_s, 0.0]

    def test_reads_sensors_only_to_start_a_wait(self):
        # the sensors enter the transitions only as a new wait's mean cue: NaN readings elsewhere change nothing
        modes, remaining, refractory = [FORWARD, FORWARD, WAITING, POST_WAIT_TURN], [0.0, 0.0, 3.0, 50.0], [0.0] * 4
        sensed = [math.nan, 10.0, math.nan, math.nan, math.nan, 20.0, math.nan, math.nan]
        stopped, turn = step_fsm(
            modes, remaining, refractory, sensed, [False, True, False, False], [False] * 4, 0.1, [_rng()] * 4, P
        )
        assert stopped == [1, 5, 2, 6, 3, 7]
        assert modes == [FORWARD, WAITING, WAITING, POST_WAIT_TURN]
        assert remaining == [0.0, waiting_time(15.0, P), 2.9, 32.0]

    def test_sensor_reading_mean(self):
        # a new wait lasts the waiting time of the two sensors' mean
        state, _, _, _ = step_one(FORWARD, 0.0, 10.0, 20.0, True, False)
        assert state == (WAITING, waiting_time(15.0, P))


STATES = st.one_of(
    st.just((FORWARD, 0.0)),
    st.tuples(st.just(WAITING), st.one_of(st.sampled_from([0.0, 0.05, 0.1, 0.1000001]), st.floats(0.0, 25.0))),
    st.tuples(
        st.sampled_from([AVOID_WALL, POST_WAIT_TURN]),
        st.one_of(st.sampled_from([18.0, -18.0, 1e-13, -5e-13, 17.999999999999]), st.floats(-180.0, 180.0)),
    ),
)
ROBOTS = st.tuples(STATES, st.floats(0.0, 255.0), st.floats(0.0, 255.0), st.booleans(), st.booleans())
# refractory time in units of dt: none, below dt, exactly dt, or above it
REFRACTORY_DT = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5]), st.floats(0.0, 40.0))


@given(
    st.lists(st.tuples(ROBOTS, REFRACTORY_DT, st.sampled_from([0.0, 3.0, 6.0, 10.0])), max_size=60),
    st.sampled_from([0.1, 0.05, 1.0]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_batched_step_equals_per_robot_oracle(robots, dt, seed):
    """One batched step equals one oracle call per robot, RNG draws and refractory time included.

    Each robot has its own beta, as robots of runs from different grid cells do in one batch; the rest of the
    physics is the batch's one config.
    """
    configs = [SimConfig(beta=beta) for _, _, beta in robots]
    refractory = [k * dt for _, k, _ in robots]
    robots = [robot for robot, _, _ in robots]
    modes = [mode for (mode, _), *_ in robots]
    remaining = [rem for (_, rem), *_ in robots]
    s_l = [r[1] for r in robots]
    s_r = [r[2] for r in robots]
    robot_contact = [r[3] for r in robots]
    wall_contact = [r[4] for r in robots]
    rngs = [np.random.default_rng([seed, i]) for i in range(len(robots))]
    oracle_rngs = [np.random.default_rng([seed, i]) for i in range(len(robots))]
    want_refractory = np.array(refractory, dtype=np.float64)

    stopped, wheels, turn = step_swarm(
        modes, remaining, refractory, s_l, s_r, robot_contact, wall_contact, dt, rngs, [c.beta for c in configs]
    )

    woke, not_driving, n = [], [], len(robots)
    for i, ((mode, rem), sl, sr, rc, wc) in enumerate(robots):
        old = oracle.to_state(mode, rem)
        seen = oracle.robot_contact_seen(rc, want_refractory[i])
        state, command, turn_deg = oracle.step_fsm(old, sl, sr, seen, wc, dt, oracle_rngs[i], configs[i])
        if type(old) is oracle.Waiting and type(state) is not oracle.Waiting:
            woke.append(i)
        if not (type(old) is type(state) is oracle.Forward):
            not_driving += i, n + i
        assert (modes[i], remaining[i]) == oracle.from_state(state)
        assert wheels[:, i].tobytes() == np.array((command.n_l, command.n_r)).tobytes()
        assert turn[i] == turn_deg
        assert rngs[i].bit_generator.state == oracle_rngs[i].bit_generator.state
    assert stopped == not_driving
    oracle.step_refractory(want_refractory, woke, dt, SimConfig())
    assert np.array(refractory, dtype=np.float64).tobytes() == want_refractory.tobytes()
