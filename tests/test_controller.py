import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmclean.controller import (
    AVOID_WALL,
    FORWARD,
    POST_WAIT_TURN,
    WAITING,
    Fsm,
    random_turn,
    step_fsm,
    ticks_positive,
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


def fsm_of(states, config=P):
    """A fresh Fsm, at tick 0, of one robot per (mode, remaining), remaining as a per-tick countdown held it when
    the tick began: seconds left to wait, or signed degrees left to turn (0 while driving forward)."""
    fsm = Fsm(len(states), config)
    for i, (mode, remaining) in enumerate(states):
        fsm.modes[i] = mode
        if mode == WAITING:  # the wait ends on the first tick on which remaining - dt - ... is not positive
            fsm.wakes.setdefault(ticks_positive(remaining - config.dt_s, config.dt_s, fsm.ticks), []).append(i)
        elif mode != FORWARD:
            fsm.turns[i] = remaining
        if mode != FORWARD:
            fsm.wheel_hi[i] = fsm.wheel_hi[len(states) + i] = 0.0
    return fsm


def wake_tick(fsm, i):
    """The tick on which robot i's wait ends, or None while it does not wait."""
    ticks = [tick for tick, robots in fsm.wakes.items() if i in robots]
    assert len(ticks) <= 1
    return ticks[0] if ticks else None


def step_swarm(fsm, s_l, s_r, robot_hits, wall_hits, rngs, betas, config=P):
    """One control step as the tick loop takes it: the FSM step, then the wheel law at each robot's beta.

    Returns (wheels (2, n), turned, turn_deg); fsm is stepped in place.
    """
    sensed = np.array([*s_l, *s_r], dtype=np.float64)
    turned, turn_deg = step_fsm(fsm, robot_hits, wall_hits, sensed, rngs, config)
    n = len(s_l)
    wheels = np.full((2, n), np.nan)
    alpha, betas = np.array(config.alpha), np.array(betas, dtype=np.float64)
    wheel_speeds(sensed[:n], sensed[n:], alpha, betas, fsm.wheel_hi.reshape(2, n), wheels, *wheels)
    return wheels, turned, turn_deg


def step_one(mode, remaining, s_l, s_r, robot_contact, wall_contact, rng=None):
    """Step a one-robot swarm once: (its Fsm, its (n_l, n_r), the degrees it turned)."""
    fsm = fsm_of([(mode, remaining)])
    hits = [0] if robot_contact else (), [0] if wall_contact else ()
    wheels, turned, turn_deg = step_swarm(fsm, [float(s_l)], [float(s_r)], *hits, [rng or _rng()], [P.beta])
    assert turned == ([0] if turn_deg else [])
    return fsm, tuple(wheels[:, 0].tolist()), turn_deg[0] if turn_deg else 0.0


class TestTicksPositive:
    def test_counts_the_countdowns_positive_terms(self):
        assert ticks_positive(0.0, 0.1, 100) == 0
        assert ticks_positive(-0.1, 0.1, 100) == 0
        assert ticks_positive(0.05, 0.1, 100) == 1
        assert ticks_positive(0.1, 0.1, 100) == 1  # 0.1 - 0.1 is 0: not positive
        assert ticks_positive(0.15000000000000002, 0.1, 100) == 2
        assert ticks_positive(2.0, 0.1, 100) == 20
        assert ticks_positive(4.9, 0.1, 100) == 50  # 4.9 less 49 times 0.1, in turn, rounds to 1.4e-15 > 0
        assert ticks_positive(1.0, 0.25, 100) == 4
        rng = np.random.default_rng(4)
        for value, dt in zip(rng.uniform(0.0, 25.0, 200), rng.choice([0.1, 0.05, 0.25, 1e-3], 200)):
            count, left = 0, value
            while left > 0.0:
                left -= dt
                count += 1
            assert ticks_positive(value, dt, count + 1) == ticks_positive(value, dt, 10**9) == count

    def test_stops_at_the_cap(self):
        assert ticks_positive(1e6, 0.1, 50) == 50
        assert ticks_positive(1e6, 1e-6, 3) == 3
        assert ticks_positive(2.0, 0.1, 20) == 20  # the exact count is the cap
        assert ticks_positive(2.0, 0.1, 19) == 19
        assert ticks_positive(2.0, 0.1, 0) == 0

    def test_timers_past_the_run_end_at_the_cap(self):
        # 5 s of 0.1 s ticks: a 1e6 s wait started on tick 0 is filed under tick 50, which never comes, and the
        # refractory count stops at the run's 50 ticks
        config = replace(P, duration_s=5, omega_max_s=1e6, refractory_s=1e6)
        fsm = Fsm(1, config)
        assert (fsm.ticks, fsm.refr_ticks) == (50, 50)
        step_fsm(fsm, [0], (), np.full(2, 255.0), [_rng()], config)
        assert fsm.modes == [WAITING] and fsm.wakes == {50: [0]}


class TestStepFsm:
    def test_forward_robot_contact_starts_waiting(self):
        fsm, cmd, turn = step_one(FORWARD, 0.0, 255, 255, True, False)
        assert fsm.modes == [WAITING]
        # a wait of waiting_time(255) = 21.66 s stays positive for 216 ticks after this one: 21.7 s in all
        assert wake_tick(fsm, 0) == 1 + ticks_positive(waiting_time(255, P) - 0.1, 0.1, fsm.ticks) == 217
        assert cmd == (0.0, 0.0)
        assert turn == 0.0

    def test_robot_contact_beats_wall_contact(self):
        fsm, _, _ = step_one(FORWARD, 0.0, 50, 50, True, True)
        assert fsm.modes == [WAITING]
        assert fsm.turns == {}

    def test_forward_wall_contact_starts_avoidance(self):
        fsm, cmd, turn = step_one(FORWARD, 0.0, 50, 50, False, True)
        assert fsm.modes == [AVOID_WALL] and list(fsm.turns) == [0]
        assert 90.0 <= abs(fsm.turns[0]) <= 180.0
        assert cmd == (0.0, 0.0)
        assert turn == 0.0  # the turn starts on the next tick

    def test_forward_no_events_drives_at_bias(self):
        fsm, cmd, _ = step_one(FORWARD, 0.0, 0, 0, False, False)
        assert fsm.modes == [FORWARD]
        assert cmd == (6.0, 6.0)

    def test_waiting_counts_down(self):
        fsm, cmd, _ = step_one(WAITING, 5.0, 0, 0, False, False)
        assert fsm.modes == [WAITING]
        assert wake_tick(fsm, 0) == 50  # 4.9 s are left, positive in floats through tick 49
        assert cmd == (0.0, 0.0)
        assert fsm.refr_until == [-1]

    def test_waiting_expiry_turns(self):
        fsm, cmd, _ = step_one(WAITING, 0.05, 0, 0, False, False)
        assert fsm.modes == [POST_WAIT_TURN] and list(fsm.turns) == [0] and fsm.wakes == {}
        assert 90.0 <= abs(fsm.turns[0]) <= 180.0
        assert cmd == (0.0, 0.0)
        # refractory_s = 2.0 counted down by 0.1 stays positive for 20 ticks: robot contacts count from tick 21
        assert fsm.refr_ticks == 20 and fsm.refr_until == [20]

    def test_waiting_ignores_new_contacts(self):
        fsm, _, _ = step_one(WAITING, 5.0, 255, 255, True, True)
        assert fsm.modes == [WAITING] and wake_tick(fsm, 0) == 50
        assert fsm.turns == {}

    def test_turn_consumes_at_fixed_rate(self):
        fsm, cmd, turn = step_one(POST_WAIT_TURN, 120.0, 0, 0, False, False)
        assert turn == pytest.approx(18.0)  # 180 deg/s * 0.1 s
        assert (fsm.modes, fsm.turns) == ([POST_WAIT_TURN], {0: 102.0})
        assert cmd == (0.0, 0.0)

    def test_turn_finishes_exactly(self):
        fsm, cmd, turn = step_one(AVOID_WALL, -10.0, 0, 0, False, False)
        assert (fsm.modes, fsm.turns, fsm.resumed) == ([FORWARD], {}, [0])
        assert turn == pytest.approx(-10.0)
        assert cmd == (0.0, 0.0)  # stopped on the tick its turn ends, driving from the next
        wheels, turned, _ = step_swarm(fsm, [0.0], [0.0], (), (), [_rng()], [P.beta])
        assert wheels[:, 0].tolist() == [6.0, 6.0] and turned == []

    def test_turn_sign_preserved(self):
        fsm, _, turn = step_one(AVOID_WALL, -120.0, 0, 0, False, False)
        assert turn == pytest.approx(-18.0)
        assert (fsm.modes, fsm.turns) == ([AVOID_WALL], {0: -102.0})

    @pytest.mark.parametrize(
        "state",
        [(FORWARD, 0.0), (WAITING, 3.0), (WAITING, 0.0), (AVOID_WALL, 90.0), (AVOID_WALL, -90.0), (POST_WAIT_TURN, 180.0)],
    )
    @pytest.mark.parametrize("robot_contact", [False, True])
    @pytest.mark.parametrize("wall_contact", [False, True])
    def test_totality_over_states_and_events(self, state, robot_contact, wall_contact):
        fsm, (n_l, n_r), turn = step_one(*state, 100, 90, robot_contact, wall_contact)
        assert fsm.modes[0] in (FORWARD, WAITING, AVOID_WALL, POST_WAIT_TURN)
        assert 0.0 <= n_l <= 10.0
        assert 0.0 <= n_r <= 10.0
        assert abs(turn) <= 18.0 + 1e-12

    def test_waiting_always_stopped(self):
        for remaining in (21.67, 10.0, 0.2):
            _, cmd, turn = step_one(WAITING, remaining, 200, 10, True, True)
            assert cmd == (0.0, 0.0)
            assert turn == 0.0

    def test_new_waiting_duration_in_creation_range(self):
        rng = _rng()
        for cue in (0.0, 17.0, 100.0, 255.0):
            fsm, _, _ = step_one(FORWARD, 0.0, cue, cue, True, False, rng)
            assert 1 <= wake_tick(fsm, 0) <= 218  # a wait of 0 to 21.7 s ends 1 to 218 ticks on

    def test_wait_ending_on_a_tick_edge(self):
        # at omega_max_s = 2.75 a cue of 50 waits 2.75 * 2500 / 27500 = 0.25 s exactly: one 0.25 s tick takes it to
        # 0, which is not positive, so it wakes on the next tick; one ulp more cue waits a tick longer
        config = replace(P, dt_s=0.25, omega_max_s=2.75)
        assert waiting_time(50.0, config) == 0.25
        for cue, wake in ((50.0, 1), (math.nextafter(50.0, 51.0), 2)):
            fsm = Fsm(1, config)
            step_fsm(fsm, [0], (), np.full(2, cue), [_rng()], config)
            assert fsm.wakes == {wake: [0]}
            for tick in range(1, wake + 1):
                step_fsm(fsm, (), (), np.full(2, cue), [_rng()], config)
                assert fsm.modes == [WAITING if tick < wake else POST_WAIT_TURN]


class TestWheelCommandInvariants:
    def test_forward_is_a_value(self):
        # the mode codes are distinct plain ints, and a fresh swarm starts driving forward
        modes = (FORWARD, AVOID_WALL, WAITING, POST_WAIT_TURN)
        assert all(type(m) is int for m in modes) and len(set(modes)) == 4
        fsm, _, _ = step_one(FORWARD, 0.0, 0, 0, False, False)
        assert (fsm.modes, fsm.turns, fsm.refr_until, fsm.wakes, fsm.resumed) == ([FORWARD], {}, [-1], {}, [])

    def test_command_is_plain_record(self):
        # the robots that turn come back as a plain list of indices and one of degrees; the state is plain lists,
        # dicts of turns and of wake ticks, and one wheel clamp per robot, stepped in place
        fsm = fsm_of([(FORWARD, 0.0), (WAITING, 0.05), (AVOID_WALL, 30.0)])
        rngs = [_rng() for _ in range(3)]
        wheels, turned, turn_deg = step_swarm(fsm, [1.5] * 3, [0.5] * 3, (), (), rngs, [P.beta] * 3)
        assert (turned, turn_deg) == ([2], [pytest.approx(18.0)])
        assert wheels.tolist() == [[5.5, 0.0, 0.0], [6.5, 0.0, 0.0]]
        assert fsm.wheel_hi.tolist() == [10.0, 0.0, 0.0] * 2
        assert fsm.modes == [FORWARD, POST_WAIT_TURN, AVOID_WALL]
        assert list(fsm.turns) == [2, 1] and fsm.turns[2] == pytest.approx(12.0) and 90.0 <= abs(fsm.turns[1]) <= 180.0
        assert fsm.refr_until == [-1, 20, -1] and fsm.wakes == {} and fsm.tick == 1

    def test_reads_sensors_only_to_start_a_wait(self):
        # the sensors enter the transitions only as a new wait's mean cue: NaN readings elsewhere change nothing
        fsm = fsm_of([(FORWARD, 0.0), (FORWARD, 0.0), (WAITING, 3.0), (POST_WAIT_TURN, 50.0)])
        sensed = np.array([math.nan, 10.0, math.nan, math.nan, math.nan, 20.0, math.nan, math.nan])
        assert step_fsm(fsm, [1], (), sensed, [_rng()] * 4, P) == ([3], [18.0])
        assert fsm.modes == [FORWARD, WAITING, WAITING, POST_WAIT_TURN]
        assert fsm.turns == {3: 32.0}
        assert wake_tick(fsm, 1) == 1 + ticks_positive(waiting_time(15.0, P) - 0.1, 0.1, fsm.ticks)
        assert wake_tick(fsm, 2) == ticks_positive(2.9, 0.1, fsm.ticks)
        assert fsm.wheel_hi.tolist() == [10.0, 0.0, 0.0, 0.0] * 2

    def test_sensor_reading_mean(self):
        # a new wait lasts the waiting time of the two sensors' mean: 0.27 s, against 0.12 s and 0.47 s for either
        fsm, _, _ = step_one(FORWARD, 0.0, 10.0, 20.0, True, False)
        assert fsm.modes == [WAITING]
        assert wake_tick(fsm, 0) == 1 + ticks_positive(waiting_time(15.0, P) - 0.1, 0.1, fsm.ticks) == 3


def test_event_driven_steps_equal_per_tick_oracle():
    """Over 300 ticks of random contacts, every tick of the event-driven FSM matches the per-tick countdown oracle.

    Modes, turn degrees, wheel clamps, wheel speeds, turns and RNG states agree on every tick, and a robot is
    refractory in the oracle exactly while the tick is at most its refr_until. The runs cover refractory times of
    0, below dt, exactly dt and above it, waits that end exactly on a tick edge, contacts on the tick a turn ends,
    a robot and a wall contact on one tick, and repeated contact indices; the counts below show that they did.
    """
    m, ticks, seen = 40, 300, Counter()
    for dt, refractory_dt in itertools.product((0.1, 0.25), (0.0, 0.5, 1.0, 1.5, 12.0)):
        # turns of at most 40 degrees end within three ticks, so a refractory time of 1.5 dt can outlast one
        config = replace(
            P, dt_s=dt, refractory_s=refractory_dt * dt, omega_max_s=2.75, turn_min_deg=0.0, turn_max_deg=40.0,
            duration_s=round(ticks * dt),
        )
        rng = np.random.default_rng(int(refractory_dt * 10 + dt * 100))
        betas = rng.choice([0.0, 3.0, 6.0, 10.0], m)
        fsm, oracle_fsm, countdown = Fsm(m, config), Fsm(m, config), oracle.CountdownFsm()
        rngs, oracle_rngs = ([np.random.default_rng([7, i]) for i in range(m)] for _ in range(2))
        for tick in range(ticks):
            # equal sensors at the cue 50 wait 0.25 s exactly, a tick edge at dt = 0.25
            s_l = rng.choice([0.0, 50.0, *rng.uniform(0.0, 255.0, 2)], m)
            sensed = np.concatenate((s_l, np.where(rng.random(m) < 0.5, s_l, rng.uniform(0.0, 255.0, m))))
            robot_hits = rng.integers(0, m, rng.integers(0, 15)).tolist() or ()
            wall_hits = np.flatnonzero(rng.random(m) < 0.15).tolist() if rng.random() < 0.8 else ()
            before, old_states = list(fsm.modes), list(countdown.states or [oracle.Forward()] * m)
            refractory = countdown.refractory.copy() if countdown.refractory is not None else np.zeros(m)

            turned, turn_deg = step_fsm(fsm, robot_hits, wall_hits, sensed, rngs, config)
            want_turned, want_deg = countdown(oracle_fsm, robot_hits, wall_hits, sensed, oracle_rngs, config)
            assert sorted(zip(turned, turn_deg)) == list(zip(want_turned, want_deg))
            assert (fsm.modes, fsm.turns, fsm.tick) == (oracle_fsm.modes, oracle_fsm.turns, tick + 1)
            assert fsm.wheel_hi.tobytes() == oracle_fsm.wheel_hi.tobytes()
            assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in oracle_rngs]
            assert ((countdown.refractory > 0.0) == (tick + 1 <= np.array(fsm.refr_until))).all()
            wheels, hi = np.empty((2, m)), fsm.wheel_hi.reshape(2, m)
            wheel_speeds(sensed[:m], sensed[m:], np.array(config.alpha), betas, hi, wheels, *wheels)
            for i in range(m):
                driving = type(old_states[i]) is type(countdown.states[i]) is oracle.Forward
                want = oracle.wheel_speeds(sensed[i], sensed[m + i], replace(config, beta=betas[i]))
                assert wheels[:, i].tobytes() == np.array(want if driving else (0.0, 0.0)).tobytes()

            repeated = {i for i, k in Counter(robot_hits).items() if k > 1}
            for i, old in enumerate(old_states):
                hit = i in robot_hits or i in wall_hits
                if type(old) is oracle.Waiting and old.remaining_s - dt == 0.0:
                    seen["wait ends on a tick edge"] += 1
                if before[i] in (AVOID_WALL, POST_WAIT_TURN) and fsm.modes[i] == FORWARD and hit:
                    seen["contact on the tick a turn ends"] += 1
                if before[i] == FORWARD:
                    seen["robot and wall contact"] += i in robot_hits and i in wall_hits
                    seen["repeated robot contact"] += i in repeated
                    seen[f"refractory contact ignored, {refractory_dt} dt"] += i in robot_hits and refractory[i] > 0.0
        assert not [tick for tick in fsm.wakes if tick < ticks]  # every wait due in the run has ended
    assert {k for k, v in seen.items() if v} == {
        "wait ends on a tick edge", "contact on the tick a turn ends", "robot and wall contact",
        "repeated robot contact", "refractory contact ignored, 1.5 dt", "refractory contact ignored, 12.0 dt",
    }
