import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmclean.controller import (
    FORWARD,
    AvoidWall,
    Forward,
    PostWaitTurn,
    Waiting,
    WheelCommand,
    random_turn,
    step_fsm,
    waiting_time,
    wheel_speeds,
)
from swarmclean.engine import ConfigError, SimConfig

P = SimConfig()


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

    def test_literal_form(self):
        lit = SimConfig(waiting_formula="literal")
        assert waiting_time(math.sqrt(25000), lit) == pytest.approx(30 * math.sqrt(25000) / 50000, rel=1e-12)
        # the literal form cannot reach a second of waiting anywhere
        assert max(waiting_time(m, lit) for m in np.linspace(0, 255, 1000)) < 0.1

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigError):
            SimConfig(alpha=0).validate()
        with pytest.raises(ConfigError):
            SimConfig(beta=11).validate()
        with pytest.raises(ConfigError):
            SimConfig(beta=-1).validate()
        with pytest.raises(ConfigError):
            SimConfig(waiting_formula="cubic").validate()


class TestWheelSpeeds:
    def test_equal_sensors_drive_straight(self):
        cmd = wheel_speeds(42.0, 42.0, P)
        assert (cmd.n_l, cmd.n_r) == (6.0, 6.0)

    def test_turns_toward_higher_left(self):
        cmd = wheel_speeds(10.0, 6.0, P)
        assert (cmd.n_l, cmd.n_r) == (4.0, 8.0)

    def test_clamping_at_extremes(self):
        cmd = wheel_speeds(255.0, 0.0, P)
        assert (cmd.n_l, cmd.n_r) == (0.0, 10.0)

    @given(st.floats(0, 255), st.floats(0, 255))
    @settings(max_examples=100, deadline=None)
    def test_unclamped_sum_is_twice_beta(self, s_l, s_r):
        diff = (s_l - s_r) / P.alpha
        assert (diff + P.beta) + (-diff + P.beta) == pytest.approx(2 * P.beta, abs=1e-9)
        cmd = wheel_speeds(s_l, s_r, P)
        assert 0.0 <= cmd.n_l <= 10.0
        assert 0.0 <= cmd.n_r <= 10.0

    @given(st.floats(0, 255), st.floats(0, 255))
    @settings(max_examples=100, deadline=None)
    def test_steers_toward_stronger_sensor(self, s_l, s_r):
        cmd = wheel_speeds(s_l, s_r, P)
        if s_l > s_r:
            assert cmd.n_r >= cmd.n_l
        elif s_r > s_l:
            assert cmd.n_l >= cmd.n_r


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


class TestStepFsm:
    def test_forward_robot_contact_starts_waiting(self):
        state, cmd, turn = step_fsm(FORWARD, 255, 255, True, False, 0.1, _rng(), P)
        assert isinstance(state, Waiting)
        assert state.remaining_s == pytest.approx(21.67, abs=0.05)
        assert (cmd.n_l, cmd.n_r) == (0.0, 0.0)
        assert turn == 0.0

    def test_robot_contact_beats_wall_contact(self):
        state, _, _ = step_fsm(FORWARD, 50, 50, True, True, 0.1, _rng(), P)
        assert isinstance(state, Waiting)

    def test_forward_wall_contact_starts_avoidance(self):
        state, cmd, _ = step_fsm(FORWARD, 50, 50, False, True, 0.1, _rng(), P)
        assert isinstance(state, AvoidWall)
        assert 90.0 <= abs(state.remaining_turn_deg) <= 180.0
        assert (cmd.n_l, cmd.n_r) == (0.0, 0.0)

    def test_forward_no_events_drives_at_bias(self):
        state, cmd, _ = step_fsm(FORWARD, 0, 0, False, False, 0.1, _rng(), P)
        assert isinstance(state, Forward)
        assert (cmd.n_l, cmd.n_r) == (6.0, 6.0)

    def test_waiting_counts_down(self):
        state, cmd, _ = step_fsm(Waiting(5.0), 0, 0, False, False, 0.1, _rng(), P)
        assert state == Waiting(4.9)
        assert (cmd.n_l, cmd.n_r) == (0.0, 0.0)

    def test_waiting_expiry_turns(self):
        state, cmd, _ = step_fsm(Waiting(0.05), 0, 0, False, False, 0.1, _rng(), P)
        assert isinstance(state, PostWaitTurn)
        assert 90.0 <= abs(state.remaining_turn_deg) <= 180.0
        assert (cmd.n_l, cmd.n_r) == (0.0, 0.0)

    def test_waiting_ignores_new_contacts(self):
        state, _, _ = step_fsm(Waiting(5.0), 255, 255, True, True, 0.1, _rng(), P)
        assert state == Waiting(4.9)

    def test_turn_consumes_at_fixed_rate(self):
        state, cmd, turn = step_fsm(PostWaitTurn(120.0), 0, 0, False, False, 0.1, _rng(), P)
        assert turn == pytest.approx(18.0)  # 180 deg/s * 0.1 s
        assert state == PostWaitTurn(102.0)
        assert (cmd.n_l, cmd.n_r) == (0.0, 0.0)

    def test_turn_finishes_exactly(self):
        state, _, turn = step_fsm(AvoidWall(-10.0), 0, 0, False, False, 0.1, _rng(), P)
        assert isinstance(state, Forward)
        assert turn == pytest.approx(-10.0)

    def test_turn_sign_preserved(self):
        state, _, turn = step_fsm(AvoidWall(-120.0), 0, 0, False, False, 0.1, _rng(), P)
        assert turn == pytest.approx(-18.0)
        assert state == AvoidWall(-102.0)

    @pytest.mark.parametrize(
        "state",
        [FORWARD, Waiting(3.0), Waiting(0.0), AvoidWall(90.0), AvoidWall(-90.0), PostWaitTurn(180.0)],
    )
    @pytest.mark.parametrize("robot_contact", [False, True])
    @pytest.mark.parametrize("wall_contact", [False, True])
    def test_totality_over_states_and_events(self, state, robot_contact, wall_contact):
        nxt, cmd, turn = step_fsm(state, 100, 90, robot_contact, wall_contact, 0.1, _rng(), P)
        assert isinstance(nxt, (Forward, Waiting, AvoidWall, PostWaitTurn))
        assert 0.0 <= cmd.n_l <= 10.0
        assert 0.0 <= cmd.n_r <= 10.0
        assert abs(turn) <= 18.0 + 1e-12

    def test_waiting_always_stopped(self):
        for remaining in (21.67, 10.0, 0.2):
            _, cmd, turn = step_fsm(Waiting(remaining), 200, 10, True, True, 0.1, _rng(), P)
            assert (cmd.n_l, cmd.n_r) == (0.0, 0.0)
            assert turn == 0.0

    def test_new_waiting_duration_in_creation_range(self):
        rng = _rng()
        for cue in (0.0, 17.0, 100.0, 255.0):
            state, _, _ = step_fsm(FORWARD, cue, cue, True, False, 0.1, rng, P)
            assert 0.0 <= state.remaining_s <= 21.7


class TestWheelCommandInvariants:
    def test_forward_is_a_value(self):
        assert Forward() == FORWARD and hash(Forward()) == hash(FORWARD)
        assert repr(FORWARD) == "Forward()"
        assert FORWARD != Waiting(0.0)

    def test_command_is_plain_record(self):
        cmd = WheelCommand(1.5, 2.5)
        assert cmd.n_l == 1.5 and cmd.n_r == 2.5

    def test_sensor_reading_mean(self):
        # a new wait lasts the waiting time of the two sensors' mean
        state, _, _ = step_fsm(FORWARD, 10.0, 20.0, True, False, 0.1, _rng(), P)
        assert state == Waiting(waiting_time(15.0, P))
