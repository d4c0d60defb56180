import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmclean import engine
from swarmclean.controller import FORWARD, WAITING, Fsm, step_fsm
from swarmclean.engine import (
    MAX_ARENA_CM,
    MAX_DURATION_S,
    MAX_ROBOTS,
    MIN_POSITIVE,
    _SENSOR_SIGNS,
    ConfigError,
    PairGeometry,
    PlacementError,
    SimConfig,
    World,
    _detect_events_trig,
    ground_sensor_points,
    integrate,
    run_batch,
    run_simulation,
    wrap_angle,
)
from swarmclean.field import mean_intensity

import scalar_oracles as oracle


def small_config(**overrides):
    defaults = dict(n_robots=5, duration_s=20, seed=11)
    defaults.update(overrides)
    return SimConfig(**defaults)


def trig(heading):
    """The (2, N) cos/sin array the tick loop computes from the headings."""
    return np.stack((np.cos(heading), np.sin(heading)))


def detect_events(x, y, heading, config):
    """The robots with a robot and with a wall contact, from a snapshot of the poses, as the tick loop finds them."""
    xy = np.stack((x, y))
    return _detect_events_trig(xy, trig(heading), PairGeometry(xy, config))


# one ulp above pi: the remainder in wrap_angle rounds up to 2 pi there, and the heading must still wrap to pi
NEXT_ABOVE_PI = math.nextafter(math.pi, 4.0)


def step_pose(x, y, heading, n_l, n_r, dt=0.1, config=None):
    """One robot's pose after one `integrate` step with wheel speeds (n_l, n_r), clamped to the walls."""
    xy = np.array([[x], [y]], dtype=float)
    h = np.array([heading], dtype=float)
    config = config or SimConfig()
    integrate(xy, h, trig(h), *wheel_rows([n_l], [n_r]), [], [], dt, wheel_base_operand(config))
    walls(config).clamp(xy)
    return xy[0, 0], xy[1, 0], h[0]


def wheel_rows(n_l, n_r):
    """The rows of a (2, N) wheel buffer holding the speeds n_l and n_r, as `integrate` takes them."""
    return np.array((n_l, n_r), dtype=np.float64).reshape(2, -1)


def wheel_base_operand(config, zero_d=False):
    """integrate's wheel_base for config: a 0-d array, as in the loop, if zero_d, else a float."""
    return np.array(config.wheel_base_cm) if zero_d else config.wheel_base_cm


def walls(config):
    """A PairGeometry of no robots in config's arena: its `clamp` holds centers inside the walls."""
    return PairGeometry(np.empty((2, 0)), config)


def far_walls(config):
    """The oracle's largest center coordinates, a (2, 1) column: arena width and height minus the body radius."""
    r = config.body_radius_cm
    return np.array([[config.arena_width_cm - r], [config.arena_height_cm - r]])


def body_motion(n_l, n_r):
    """Forward speed (cm/s) and yaw rate (rad/s): one 1 s `integrate` step from heading 0."""
    x, _, heading = step_pose(100.0, 100.0, 0.0, n_l, n_r, dt=1.0)
    return x - 100.0, heading


class TestSpeedConversion:
    def test_calibration_point(self):
        v, omega = body_motion(6, 6)
        assert v == 8.0
        assert omega == 0.0

    def test_half_speed(self):
        v, _ = body_motion(3, 3)
        assert v == 4.0

    def test_differential(self):
        v, omega = body_motion(4, 8)
        assert v == 8.0
        assert omega == pytest.approx((4.0 / 3.0) * 4.0 / 8.0)

    def test_speed_cap(self):
        v, _ = body_motion(10, 10)
        assert v == pytest.approx(40.0 / 3.0)


def sensor_points(x, y, heading, wheel_base_cm=8.0):
    """(left, right) sensor coordinates per robot, from `ground_sensor_points` over the views the tick loop makes."""
    x, y, heading = np.atleast_1d(x), np.atleast_1d(y), np.atleast_1d(heading)
    n = len(x)
    xy, cos_sin, out = np.stack((x, y)), trig(heading), np.empty((2, 2 * n))
    signed_h = (0.5 * wheel_base_cm) * _SENSOR_SIGNS
    ground_sensor_points(xy[:, None], cos_sin[::-1, None], signed_h, np.empty((2, 2, n)), out.reshape(2, 2, n))
    return out[:, :n].T, out[:, n:].T


class TestSensorPositions:
    def test_heading_east(self):
        left, right = sensor_points(100.0, 100.0, 0.0)
        assert left[0] == pytest.approx((100.0, 104.0))
        assert right[0] == pytest.approx((100.0, 96.0))

    def test_heading_north(self):
        left, right = sensor_points(100.0, 100.0, math.pi / 2)
        assert left[0] == pytest.approx((96.0, 100.0))
        assert right[0] == pytest.approx((104.0, 100.0))

    @given(
        st.lists(st.tuples(st.floats(0, 285), st.floats(0, 285), st.floats(-math.pi, math.pi)), max_size=12),
        st.floats(1.0, 20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_sensors_are_wheel_base_apart(self, poses, wheel_base):
        x, y, heading = np.array(poses, dtype=float).reshape(-1, 3).T
        left, right = sensor_points(x, y, heading, wheel_base)
        span = left - right
        assert np.allclose(np.hypot(span[:, 0], span[:, 1]), wheel_base, atol=1e-9)
        # centered on the robot and perpendicular to its heading
        assert np.allclose(0.5 * (left + right), np.column_stack((x, y)), atol=1e-9)
        assert np.allclose(span[:, 0] * np.cos(heading) + span[:, 1] * np.sin(heading), 0.0, atol=1e-9)


class TestWrapAngle:
    @pytest.mark.parametrize(
        "theta,expected",
        [
            (0.0, 0.0),
            (math.pi, math.pi),
            (-math.pi, math.pi),
            (3 * math.pi / 2, -math.pi / 2),
            (7.0, 7.0 - 2 * math.pi),
            (NEXT_ABOVE_PI, math.pi),
        ],
    )
    def test_values(self, theta, expected):
        assert wrap_angle(theta) == pytest.approx(expected, abs=1e-12)

    @given(st.floats(-50, 50))
    @settings(max_examples=100, deadline=None)
    def test_range(self, theta):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi


class TestIntegrate:
    def test_straight_step(self):
        x, y, h = step_pose(100.0, 100.0, 0.0, 6, 6)
        assert x == pytest.approx(100.8)
        assert y == pytest.approx(100.0)
        assert h == 0.0

    def test_zero_speed_keeps_pose(self):
        x, y, h = step_pose(57.0, 31.0, 1.2, 0, 0)
        assert (x, y, h) == (57.0, 31.0, 1.2)

    def test_wall_crossing_clamps_then_contact_fires(self):
        cfg = SimConfig()
        # heading straight into the left wall from just inside the offset
        x, y, h = step_pose(4.5, 100.0, math.pi, 6, 6, config=cfg)
        assert x == 4.0  # clamped at body offset
        assert detect_events(np.array([x]), np.array([y]), np.array([h]), cfg) == ((), [0])

    def test_turning_in_place_from_differential(self):
        _, _, h = step_pose(100.0, 100.0, 0.0, 4, 8)
        assert h == pytest.approx((4.0 / 3.0) * 4.0 / 8.0 * 0.1)

    def test_in_place_turn_wraps(self):
        xy = np.array([[50.0, 60.0], [50.0, 60.0]])
        h = np.array([3.0, 1.0])
        cfg = SimConfig()
        integrate(xy, h, trig(h), *wheel_rows([0.0, 0.0], [0.0, 0.0]), [0], [18.0], 0.1, wheel_base_operand(cfg))
        assert h[0] == pytest.approx(3.0 + math.pi / 10 - 2 * math.pi)
        assert h[1] == wrap_angle(1.0)
        assert xy.tolist() == [[50.0, 60.0], [50.0, 60.0]]

    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 300.0),
                st.floats(0.0, 300.0),
                st.one_of(st.sampled_from([math.pi, -math.pi, 0.0, 3.14159, NEXT_ABOVE_PI]), st.floats(-math.pi, math.pi)),
                st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
                st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
                st.one_of(st.just(0.0), st.floats(-18.0, 18.0)),
            ),
            max_size=60,
        ),
        st.sampled_from([0.1, 0.05, 1.0]),
        st.sampled_from([(4.0, 8.0), (1.5, 12.0)]),
    )
    @settings(max_examples=150, deadline=None)
    def test_batched_step_equals_scalar_law(self, robots, dt, body):
        """One vectorised step, then `clamp`, equals the scalar law (math.cos/sin, Python floats) bit for bit."""
        cfg = SimConfig(body_radius_cm=body[0], wheel_base_cm=body[1])
        x, y, heading, n_l, n_r, turn = (list(col) for col in zip(*robots)) if robots else ([],) * 6
        xy = np.array([x, y], dtype=float).reshape(2, -1)
        h = np.array(heading, dtype=float)
        integrate(xy, h, trig(h), *wheel_rows(n_l, n_r), *oracle.sparse_turns(turn), dt, wheel_base_operand(cfg))
        walls(cfg).clamp(xy)
        for i, robot in enumerate(robots):
            want = oracle.integrate(*robot[:3], oracle.WheelCommand(robot[3], robot[4]), robot[5], dt, cfg)
            assert np.array([xy[0, i], xy[1, i], h[i]]).tobytes() == np.array(want).tobytes()


def _angles_near(centers, ulps=8):
    """Every float within `ulps` steps of each center, both ways."""
    out = []
    for c in centers:
        below = above = c
        out.append(c)
        for _ in range(ulps):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            out += [below, above]
    return out


# around +-pi, 0 and multiples of 2 pi, where the remainder and the fmod in wrap_angle round
WRAP_GRID = _angles_near([math.pi, -math.pi, 0.0, NEXT_ABOVE_PI, *(2 * k * math.pi for k in range(-6, 7) if k)])


class TestZeroDimOperands:
    """The engine's 0-d constant operands give the bits of the Python floats they replaced."""

    def test_wrap_angle_grid_and_random_arrays(self):
        rng = np.random.default_rng(5)
        for theta in (np.array(WRAP_GRID), rng.uniform(-50.0, 50.0, 1000), rng.uniform(-1e6, 1e6, 1000)):
            assert wrap_angle(theta).tobytes() == oracle.wrap_angle_float_operands(theta).tobytes()

    def test_wrap_angle_of_a_float_is_a_float(self):
        for theta in WRAP_GRID:
            w = wrap_angle(theta)
            assert isinstance(w, float) and np.ndim(w) == 0
            assert np.float64(w).tobytes() == np.float64(oracle.wrap_angle_float_operands(theta)).tobytes()

    @pytest.mark.parametrize("dt", [0.1, 0.05, 1.0])
    @pytest.mark.parametrize("clamp", [True, False])
    def test_integrate_on_random_states(self, dt, clamp):
        rng = np.random.default_rng(int(dt * 100) + clamp)
        cfg = SimConfig(wheel_base_cm=rng.choice([8.0, 12.0, 3.3]))
        for _ in range(20):
            n = int(rng.integers(0, 40))
            xy = rng.uniform(-5.0, 300.0, (2, n))
            heading = rng.choice([*WRAP_GRID, *rng.uniform(-math.pi, math.pi, 40)], n)
            wheels = [np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 10.0, n)).tolist() for _ in range(2)]
            turn = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(-18.0, 18.0, n)).tolist()
            want_xy, want_heading = xy.copy(), heading.copy()
            oracle.integrate_float_operands(
                want_xy, want_heading, trig(heading), *wheels, turn, dt, cfg, far_walls(cfg), clamp
            )
            # dt and wheel_base as the run loop passes them, 0-d arrays, and as floats; the clamp as separation runs it
            for dt_op, zero_d in ((np.array(dt), True), (dt, False)):
                got_xy, got_heading = xy.copy(), heading.copy()
                base, turns = wheel_base_operand(cfg, zero_d), oracle.sparse_turns(turn)
                integrate(got_xy, got_heading, trig(heading), *wheel_rows(*wheels), *turns, dt_op, base)
                if clamp:
                    walls(cfg).clamp(got_xy)
                assert got_xy.tobytes() == want_xy.tobytes()
                assert got_heading.tobytes() == want_heading.tobytes()


class TestDetectEvents:
    def test_face_to_face_within_range_both_fire(self):
        cfg = SimConfig()
        x = np.array([100.0, 109.0])
        y = np.array([100.0, 100.0])
        h = np.array([0.0, math.pi])
        assert detect_events(x, y, h, cfg) == ([0, 1], ())  # the walls are cleared: no wall test

    def test_out_of_range_silent(self):
        cfg = SimConfig()
        x = np.array([100.0, 150.0])
        y = np.array([100.0, 100.0])
        h = np.array([0.0, math.pi])
        assert detect_events(x, y, h, cfg) == ((), ())

    def test_robot_behind_not_seen(self):
        cfg = SimConfig()
        # robot 1 sits behind robot 0; only robot 1 looks at robot 0
        x = np.array([100.0, 91.0])
        y = np.array([100.0, 100.0])
        h = np.array([0.0, 0.0])
        assert detect_events(x, y, h, cfg)[0] == [1]

    def test_wall_proximity_heading_in(self):
        cfg = SimConfig()
        # body edge 1 cm from the left wall, heading into it
        assert detect_events(np.array([5.0]), np.array([100.0]), np.array([math.pi]), cfg) == ((), [0])

    def test_wall_proximity_heading_away(self):
        cfg = SimConfig()
        assert detect_events(np.array([5.0]), np.array([100.0]), np.array([0.0]), cfg) == ((), [])

    def test_far_from_everything(self):
        cfg = SimConfig()
        assert detect_events(np.array([150.0]), np.array([150.0]), np.array([0.7]), cfg) == ((), ())

    def test_a_robot_with_two_contacts_is_listed_twice(self):
        # all face east: robot 0 has robots 1 and 2 ahead of it in range, robot 2 has robot 1, robot 1 nobody
        cfg = SimConfig()
        x, y, h = np.array([100.0, 108.0, 105.0]), np.array([100.0, 100.0, 105.0]), np.zeros(3)
        assert detect_events(x, y, h, cfg) == ([0, 0, 2], ())

    def test_refractory_suppresses_receiver_only(self):
        # both robots see each other; only the one that is not refractory starts waiting
        cfg = SimConfig()
        x = np.array([100.0, 109.0])
        y = np.array([100.0, 100.0])
        h = np.array([0.0, math.pi])
        robot_hits, wall_hits = detect_events(x, y, h, cfg)
        assert robot_hits == [0, 1]
        fsm = Fsm(2, cfg)
        fsm.refr_until[0] = 0  # robot 0 ignores robot contacts through tick 0
        rngs = [np.random.default_rng(i) for i in range(2)]
        step_fsm(fsm, robot_hits, wall_hits, np.full(4, 100.0), rngs, cfg)
        assert fsm.modes == [FORWARD, WAITING]
        assert fsm.refr_until == [0, -1] and fsm.wheel_hi.tolist() == [cfg.wheel_max, 0.0] * 2
        step_fsm(fsm, robot_hits, wall_hits, np.full(4, 100.0), rngs, cfg)  # tick 1: robot 0 hears it
        assert fsm.modes == [WAITING, WAITING]

    def test_empty_world(self):
        cfg = SimConfig(n_robots=0)
        assert detect_events(np.empty(0), np.empty(0), np.empty(0), cfg) == ((), ())


class TestConfigValidation:
    def test_dt_must_divide_second(self):
        with pytest.raises(ConfigError):
            small_config(dt_s=0.3).validate()
        small_config(dt_s=0.2).validate()
        small_config(dt_s=0.5).validate()

    def test_rejects_negative_population(self):
        with pytest.raises(ConfigError):
            small_config(n_robots=-1).validate()

    def test_rejects_bad_seed(self):
        with pytest.raises(ConfigError):
            small_config(seed=-5).validate()

    def test_rejects_bad_controller(self):
        with pytest.raises(ConfigError):
            small_config(alpha=0.0).validate()
        with pytest.raises(ConfigError):
            small_config(beta=12.0).validate()

    def test_rejects_tiny_arena(self):
        with pytest.raises(ConfigError):
            small_config(arena_width_cm=7.0).validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(alpha=math.nan),
            dict(contact_range_cm=math.nan),
            dict(wheel_base_cm=0.0),
            dict(turn_min_deg=120.0, turn_max_deg=90.0),
            dict(turn_rate_deg_s=0.0),
            dict(body_radius_cm=-1.0),
            dict(beta=math.inf),
            dict(wall_range_cm=-0.5),
            dict(turn_min_deg=-10.0),
            dict(cue_peak=300.0),
            dict(omega_max_s=1e300),
            dict(wheel_base_cm=5e-324),
            dict(arena_width_cm=MAX_ARENA_CM + 1.0),
            dict(n_robots=MAX_ROBOTS + 1),
            dict(n_robots=2.5),
            dict(n_robots=True),
            dict(duration_s=10.0),
            dict(duration_s=MAX_DURATION_S + 1),
            # both sides round to zero field cells
            dict(
                n_robots=1, arena_width_cm=0.4, arena_height_cm=0.4, body_radius_cm=0.1, wheel_base_cm=0.2,
                duration_s=3,
            ),
            # a robot clamped onto a wall would never sense it again
            dict(wall_range_cm=0.0),
            # the cue field needs a positive radius and peak, and positive sides
            dict(cue_radius_cm=0.0),
            dict(cue_peak=0.0),
            dict(arena_height_cm=0.0),
        ],
    )
    def test_rejects_configs_the_engine_cannot_run(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides).validate()

    @pytest.mark.parametrize(
        "name, bound",
        [
            ("n_robots", MAX_ROBOTS),
            ("duration_s", MAX_DURATION_S),
            ("arena_width_cm", MAX_ARENA_CM),
            ("arena_height_cm", MAX_ARENA_CM),
            ("cue_peak", 255.0),
        ],
    )
    def test_upper_bounds_are_inclusive_and_named(self, name, bound):
        """Each upper bound is declared on its field: the bound itself passes, one more names the field and bound."""
        over = bound + (1 if isinstance(bound, int) else 1.0)
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{name} must be at most {bound:g}, got {over!r}')}$"):
            SimConfig(**{name: over}).validate()
        # validate() allocates nothing, and MAX_ROBOTS bodies fit the largest arena
        SimConfig(**{"arena_width_cm": MAX_ARENA_CM, "arena_height_cm": MAX_ARENA_CM, name: bound}).validate()

    def test_accepts_numpy_scalars(self):
        small_config(n_robots=np.int64(3), beta=np.float64(3.0)).validate()

    def test_accepts_the_longest_duration(self):
        small_config(duration_s=MAX_DURATION_S).validate()

    def test_rejects_bodies_beyond_the_densest_packing(self):
        # 2,000 bodies of radius 4 cover 1.24 times the default 285 x 285 arena
        with pytest.raises(PlacementError, match=r"over pi/sqrt\(12\) of the arena"):
            SimConfig(n_robots=2000).validate()

    @pytest.mark.parametrize("arena", [dict(), dict(arena_width_cm=120.0, arena_height_cm=40.0, body_radius_cm=1.5)])
    def test_packing_bound_is_the_hexagonal_density(self, arena):
        cfg = SimConfig(**arena)
        hexagonal = math.pi / math.sqrt(12.0) * cfg.arena_width_cm * cfg.arena_height_cm
        largest = math.floor(hexagonal / (math.pi * cfg.body_radius_cm**2))
        replace(cfg, n_robots=largest).validate()
        with pytest.raises(PlacementError):
            replace(cfg, n_robots=largest + 1).validate()


PLAUSIBLE = {
    "n_robots": st.sampled_from([5, 8, 2, 1, 0]),
    "duration_s": st.sampled_from([3, 1, 0]),
    "seed": st.integers(0, 2**64),
    "dt_s": st.sampled_from([0.1, 0.2, 0.25, 0.5, 1.0]),
    "beta": st.floats(0.0, 10.0),
    "cue_peak": st.floats(1.0, 255.0),
    "arena_width_cm": st.floats(20.0, 400.0),
    "arena_height_cm": st.floats(20.0, 400.0),
    "wall_range_cm": st.floats(0.0, 8.0),
    "refractory_s": st.floats(0.0, 4.0),
    "turn_min_deg": st.floats(0.0, 180.0),
    "turn_max_deg": st.floats(90.0, 360.0),
}
NASTY_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-6, 1e6, 5e-324, 1e300]),
    st.floats(-1e3, 1e3),
)
NASTY = {
    "n_robots": st.integers(-2, 8),
    "duration_s": st.integers(-2, 3),
    "seed": st.integers(-(2**64), 2**64),
    "dt_s": st.sampled_from([0.3, 0.0, -0.1, 3.0, math.nan, math.inf]),
    # kept small: the field holds one float per square cm
    "arena_width_cm": st.one_of(st.floats(-10.0, 400.0), st.sampled_from([math.nan, math.inf, 1e300])),
    "arena_height_cm": st.one_of(st.floats(-10.0, 400.0), st.sampled_from([math.nan, math.inf, 1e300])),
}


def _plausible(name):
    if name in PLAUSIBLE:
        return PLAUSIBLE[name]
    default = getattr(SimConfig(), name)
    return st.floats(0.25 * default, 4.0 * default)


@st.composite
def any_configs(draw):
    """Plausible values in every field but a few, which may hold anything."""
    names = [f.name for f in fields(SimConfig)]
    nasty = draw(st.sets(st.sampled_from(names), max_size=3))
    return SimConfig(
        **{name: draw(NASTY.get(name, NASTY_FLOATS) if name in nasty else _plausible(name)) for name in names}
    )


@given(any_configs())
@settings(max_examples=300, deadline=None)
def test_validated_configs_run_to_finite_poses(cfg):
    """Either validate() rejects a config, or a short run ends in a sane state.

    PlacementError is a ConfigError too, raised by the run when rejection
    sampling finds no room for every body; validate() refuses up front only
    the swarms that no packing fits, so sampling can still fail below that.
    """
    try:
        cfg.validate()
    except ConfigError:
        return
    try:
        res = run_simulation(cfg)
    except PlacementError:
        return
    for a in (res.xy, res.heading):
        assert np.all(np.isfinite(a))
    r = cfg.body_radius_cm
    assert np.all((res.xy[0] >= r) & (res.xy[0] <= cfg.arena_width_cm - r))
    assert np.all((res.xy[1] >= r) & (res.xy[1] <= cfg.arena_height_cm - r))
    assert np.all((res.field >= 0.0) & (res.field <= 255.0))
    for column in (res.series.mean_cue, res.series.ratio_within_rc, res.series.coherency_m):
        assert np.all(np.isfinite(column))


class TestRunSimulation:
    def test_deterministic_repeat(self):
        a = run_simulation(small_config())
        b = run_simulation(small_config())
        assert np.array_equal(a.series.mean_cue, b.series.mean_cue)
        assert np.array_equal(a.series.ratio_within_rc, b.series.ratio_within_rc)
        assert np.array_equal(a.series.coherency_m, b.series.coherency_m)
        assert np.array_equal(a.xy[0], b.xy[0])
        assert np.array_equal(a.heading, b.heading)

    def test_seed_changes_trajectory(self):
        a = run_simulation(small_config(seed=11))
        b = run_simulation(small_config(seed=12))
        assert not np.array_equal(a.xy[0], b.xy[0])

    def test_row_count_matches_duration(self):
        res = run_simulation(small_config(duration_s=10))
        assert len(res.series) == 10
        assert res.series.t.tolist() == list(range(10))

    def test_empty_swarm_degenerate(self):
        res = run_simulation(small_config(n_robots=0, duration_s=5))
        assert np.all(res.series.ratio_within_rc == 0.0)
        assert np.all(res.series.coherency_m == 0.0)
        assert np.all(res.series.mean_cue == res.series.mean_cue[0])
        assert mean_intensity(res.field) == res.series.mean_cue[0]

    def test_single_robot_never_cleans(self):
        # a lone robot can never meet another, so the field never changes
        res = run_simulation(small_config(n_robots=1, duration_s=30))
        assert res.cleanings.sum() == 0
        assert np.all(res.series.mean_cue == res.series.mean_cue[0])

    def test_placement_rejects_overcrowding(self):
        with pytest.raises(PlacementError):
            run_simulation(small_config(n_robots=40, arena_width_cm=20.0, arena_height_cm=20.0))

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param(dict(n_robots=8, duration_s=60, seed=4), id="N8"),
            pytest.param(dict(n_robots=50, duration_s=40, seed=6), id="N50"),
            pytest.param(dict(n_robots=200, duration_s=40, seed=8), id="N200"),
            # a corridor 30 cm wide: nearly every tick some center is within a tick's travel of a wall
            pytest.param(dict(n_robots=10, duration_s=40, seed=10, arena_width_cm=30.0), id="N10-corridor"),
            # the least wall range: a robot senses a wall only once the clamp has put its body against it, so the
            # clamp alone keeps a robot that drives at a wall inside
            pytest.param(
                dict(n_robots=10, duration_s=40, seed=12, wall_range_cm=MIN_POSITIVE), id="N10-no-wall-range"
            ),
        ],
    )
    def test_robots_stay_inside_walls(self, overrides):
        """At every whole second every center lies in [r, side - r] on both axes, whether or not the clamp ran."""
        cfg = small_config(**overrides)
        r, seconds = cfg.body_radius_cm, []

        def obs(world):
            x, y = world.xy
            assert r <= x.min() and x.max() <= cfg.arena_width_cm - r
            assert r <= y.min() and y.max() <= cfg.arena_height_cm - r
            seconds.append(world.t)

        run_simulation(cfg, observer=obs)
        assert seconds == list(range(cfg.duration_s + 1))

    def test_no_body_overlap_at_boundaries(self):
        min_d = 2 * SimConfig().body_radius_cm

        def obs(world):
            x, y = world.xy
            n = len(x)
            for i in range(n):
                for j in range(i + 1, n):
                    d = math.hypot(x[i] - x[j], y[i] - y[j])
                    assert d >= min_d - 1e-6

        run_simulation(small_config(n_robots=10, duration_s=40, seed=9), observer=obs)

    def test_cleaning_counter_matches_waiting_boundaries(self):
        waits = []
        seen = []  # (t, the World passed) for every call
        last = {}

        def obs(world):
            seen.append((world.t, world))
            if world.t < cfg.duration_s:
                waits.append((np.array(world.modes) == WAITING).tolist())
            else:
                last.update(field=world.field.copy(), xy=world.xy.copy(), heading=world.heading.copy())

        cfg = small_config(n_robots=10, duration_s=60, seed=2)
        res = run_simulation(cfg, observer=obs)
        per_robot = np.array(waits).sum(axis=0)
        assert res.cleanings.tolist() == per_robot.tolist()
        assert res.cleanings.sum() > 0  # the scenario actually exercises cleaning
        # the observer sees every whole second in order, always through the World the run returns
        assert [t for t, _ in seen] == list(range(cfg.duration_s + 1))
        assert all(world is res for _, world in seen)
        # and its last call sees the final field and poses
        assert np.array_equal(last["field"], res.field)
        assert np.array_equal(last["xy"], res.xy)
        assert np.array_equal(last["heading"], res.heading)

    def test_field_only_changes_when_someone_waits(self):
        means = []
        any_waiting = []

        def obs(world):
            means.append(mean_intensity(world.field))
            any_waiting.append(bool(np.any(np.array(world.modes) == WAITING)))

        cfg = small_config(n_robots=6, duration_s=40, seed=5)
        run_simulation(cfg, observer=obs)
        for k in range(1, len(means)):
            if means[k] != means[k - 1]:
                assert any_waiting[k]

    def test_forward_speed_never_exceeds_cap(self):
        prev = {}

        def obs(world):
            if prev:
                dt_window = 1.0
                dist = np.hypot(world.xy[0] - prev["xy"][0], world.xy[1] - prev["xy"][1])
                assert np.all(dist <= (40.0 / 3.0) * dt_window + 1e-6)
            # a copy: world.xy is the live array, and would compare with itself
            prev["xy"] = world.xy.copy()

        run_simulation(small_config(n_robots=6, duration_s=30, seed=8), observer=obs)


# arenas of the golden cases: default, clipped at the walls, and dense
BATCH_ARENAS = {
    "default": {},
    "clipped": dict(arena_width_cm=100.0, arena_height_cm=60.0, body_radius_cm=1.5, wheel_base_cm=12.0),
    "dense": dict(arena_width_cm=120.0, arena_height_cm=120.0),
}


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_batch_matches_alone(configs):
    """run_batch gives every run the World arrays, series and observer calls that run_simulation gives it alone.

    A config that cannot be placed gets, in its slot, the PlacementError that run_simulation raises for it, and
    the observer never sees it. Returns run_batch's list.
    """
    seen = {}

    def observer(world):
        seen.setdefault(id(world), []).append((world.t, list(world.modes), world.xy.copy(), world.field.copy()))

    worlds = run_batch(configs, observer)
    assert len(worlds) == len(configs)
    assert set(seen) == {id(world) for world in worlds if not isinstance(world, PlacementError)}
    for config, world in zip(configs, worlds):
        alone_seen = []
        try:
            alone = run_simulation(
                config, lambda w: alone_seen.append((w.t, list(w.modes), w.xy.copy(), w.field.copy()))
            )
        except PlacementError as exc:
            assert isinstance(world, PlacementError) and str(world) == str(exc)
            continue
        assert world.t == alone.t == config.duration_s
        assert world.modes == alone.modes
        for name in ("xy", "heading", "field", "cleanings"):
            assert _same_bits(getattr(world, name), getattr(alone, name)), name
        for name in ("t", "mean_cue", "ratio_within_rc", "coherency_m"):
            assert _same_bits(getattr(world.series, name), getattr(alone.series, name)), name
        # the observer saw this run's World at every whole second, as the run alone sees it
        calls = seen[id(world)]
        assert [(t, modes) for t, modes, _, _ in calls] == [(t, modes) for t, modes, _, _ in alone_seen]
        assert all(_same_bits(a[2], b[2]) and _same_bits(a[3], b[3]) for a, b in zip(calls, alone_seen))
    return worlds


# the arena of the sweep test of a partial failure: 7 bodies pass validate(), but no more than 5 can be placed
SMALL_ARENA = dict(duration_s=5, arena_width_cm=20.0, arena_height_cm=20.0, cue_radius_cm=8.0)


BETAS = st.one_of(st.sampled_from([0.0, 3.0, 6.0, 10.0]), st.floats(0.0, 10.0))


class TestRunBatch:
    @given(
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        st.sampled_from([0, 1, 2, 3, 7, 12]),
        st.integers(0, 12),
        st.sampled_from(sorted(BATCH_ARENAS)),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_gives_each_run_its_single_run_bits(self, seeds, n, duration, arena):
        _assert_batch_matches_alone(
            [SimConfig(n_robots=n, duration_s=duration, seed=seed, **BATCH_ARENAS[arena]) for seed in seeds]
        )

    @given(
        st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 12), BETAS), min_size=1, max_size=5),
        st.integers(0, 12),
        st.sampled_from(sorted(BATCH_ARENAS)),
    )
    @settings(max_examples=40, deadline=None)
    def test_mixed_batch_gives_each_run_its_single_run_bits(self, runs, duration, arena):
        """Runs of different N and beta, as from different sweep grid cells, share a batch without a bit changing."""
        _assert_batch_matches_alone([
            SimConfig(n_robots=n, beta=beta, duration_s=duration, seed=seed, **BATCH_ARENAS[arena])
            for seed, n, beta in runs
        ])

    def test_unplaceable_run_is_left_out_of_its_batch(self):
        """The N = 7 run's slot holds the error it raises alone; the N = 3 runs on either side keep their bits."""
        configs = [SimConfig(n_robots=n, seed=seed, **SMALL_ARENA) for seed, n in enumerate((3, 7, 3))]
        worlds = _assert_batch_matches_alone(configs)
        assert [type(world) for world in worlds] == [World, PlacementError, World]

    def test_batch_of_unplaceable_runs_returns_their_errors_without_a_tick(self, monkeypatch):
        def no_tick(*args):
            raise AssertionError("a tick ran")

        seen = []
        monkeypatch.setattr(engine, "step_fsm", no_tick)
        errors = run_batch([SimConfig(n_robots=7, seed=seed, **SMALL_ARENA) for seed in (2, 4)], seen.append)
        assert [type(error) for error in errors] == [PlacementError, PlacementError]
        assert seen == []

    def test_configs_must_differ_only_in_seed(self):
        """Seed, n_robots and beta, the sweep grid's coordinates, may differ inside a batch; nothing else may."""
        base = small_config()
        assert len(run_batch([base, replace(base, seed=12, n_robots=6, beta=3.0), replace(base, n_robots=0)])) == 3
        for other in (replace(base, duration_s=21), replace(base, arena_width_cm=200.0), replace(base, dt_s=0.05)):
            with pytest.raises(ConfigError, match="must differ only in seed, n_robots, beta"):
                run_batch([base, other])
        with pytest.raises(ConfigError, match="at least one config"):
            run_batch([])

    def test_every_config_is_validated(self):
        with pytest.raises(ConfigError, match="seed"):
            run_batch([small_config(), small_config(seed=-1)])


def _assert_same_run(got, want):
    """Two Worlds of one run agree in every bit: poses, modes, field, cleanings and every metrics column."""
    assert got.t == want.t and got.modes == want.modes
    for name in ("xy", "heading", "field", "cleanings"):
        assert _same_bits(getattr(got, name), getattr(want, name)), name
    for name in ("t", "mean_cue", "ratio_within_rc", "coherency_m"):
        assert _same_bits(getattr(got.series, name), getattr(want.series, name)), name


class TestCountdownOracleRuns:
    """Whole runs on the event-driven FSM give the bytes of the same runs on the per-tick countdown FSM."""

    def test_mixed_batch(self, monkeypatch):
        runs = ((5, 30, 6.0), (6, 12, 3.0))
        configs = [SimConfig(n_robots=n, beta=beta, duration_s=20, seed=seed) for seed, n, beta in runs]
        got = run_batch(configs)
        monkeypatch.setattr(engine, "step_fsm", oracle.CountdownFsm())
        for world, want in zip(got, run_batch(configs)):
            _assert_same_run(world, want)

    def test_timers_longer_than_the_run(self, monkeypatch):
        """Waits and refractory times of 1e6 s in a 5 s run end at the run's last tick, not 1e7 ticks later.

        Outside the small cue a wait lasts 0 s, so refractory times start; inside it a wait outlasts the run.
        """
        config = SimConfig(n_robots=60, duration_s=5, omega_max_s=1e6, refractory_s=1e6, cue_radius_cm=60.0, seed=3)
        fsms = []

        def spy(fsm, *args):
            fsms.append(fsm)
            return step_fsm(fsm, *args)

        monkeypatch.setattr(engine, "step_fsm", spy)
        got = run_simulation(config)
        fsm = fsms[0]
        assert fsm.refr_ticks == fsm.ticks == 50
        assert max(fsm.wakes) == 50 and max(fsm.refr_until) >= 50  # a wait and a refractory time outlast the run
        monkeypatch.setattr(engine, "step_fsm", oracle.CountdownFsm())
        _assert_same_run(got, run_simulation(config))
