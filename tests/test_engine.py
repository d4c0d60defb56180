import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmclean.controller import Waiting, WheelCommand
from swarmclean.engine import (
    MAX_ARENA_CM,
    MAX_ROBOTS,
    ConfigError,
    PlacementError,
    SimConfig,
    detect_events,
    integrate,
    run_simulation,
    sensor_positions,
    speed_conversion,
    wrap_angle,
)
from swarmclean.field import mean_intensity


def small_config(**overrides):
    defaults = dict(n_robots=5, duration_s=20, seed=11)
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestSpeedConversion:
    def test_calibration_point(self):
        v, omega = speed_conversion(WheelCommand(6, 6))
        assert v == 8.0
        assert omega == 0.0

    def test_half_speed(self):
        v, _ = speed_conversion(WheelCommand(3, 3))
        assert v == 4.0

    def test_differential(self):
        v, omega = speed_conversion(WheelCommand(4, 8))
        assert v == 8.0
        assert omega == pytest.approx((4.0 / 3.0) * 4.0 / 8.0)

    def test_speed_cap(self):
        v, _ = speed_conversion(WheelCommand(10, 10))
        assert v == pytest.approx(40.0 / 3.0)


class TestSensorPositions:
    def test_heading_east(self):
        left, right = sensor_positions(100.0, 100.0, 0.0)
        assert left == pytest.approx((100.0, 104.0))
        assert right == pytest.approx((100.0, 96.0))

    def test_heading_north(self):
        left, right = sensor_positions(100.0, 100.0, math.pi / 2)
        assert left == pytest.approx((96.0, 100.0))
        assert right == pytest.approx((104.0, 100.0))

    @given(
        st.floats(0, 285),
        st.floats(0, 285),
        st.floats(-math.pi, math.pi),
    )
    @settings(max_examples=100, deadline=None)
    def test_sensors_are_wheel_base_apart(self, x, y, heading):
        (lx, ly), (rx, ry) = sensor_positions(x, y, heading)
        assert math.hypot(lx - rx, ly - ry) == pytest.approx(8.0, abs=1e-9)


class TestWrapAngle:
    @pytest.mark.parametrize(
        "theta,expected",
        [(0.0, 0.0), (math.pi, math.pi), (-math.pi, math.pi), (3 * math.pi / 2, -math.pi / 2), (7.0, 7.0 - 2 * math.pi)],
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
        cfg = SimConfig()
        x, y, h = integrate(100.0, 100.0, 0.0, WheelCommand(6, 6), 0.1, cfg)
        assert x == pytest.approx(100.8)
        assert y == pytest.approx(100.0)
        assert h == 0.0

    def test_zero_speed_keeps_pose(self):
        cfg = SimConfig()
        x, y, h = integrate(57.0, 31.0, 1.2, WheelCommand(0, 0), 0.1, cfg)
        assert (x, y, h) == (57.0, 31.0, 1.2)

    def test_wall_crossing_clamps_then_contact_fires(self):
        cfg = SimConfig()
        # heading straight into the left wall from just inside the offset
        x, y, h = integrate(4.5, 100.0, math.pi, WheelCommand(6, 6), 0.1, cfg)
        assert x == 4.0  # clamped at body offset
        rc, wc = detect_events(np.array([x]), np.array([y]), np.array([h]), np.zeros(1), cfg)
        assert not rc[0]
        assert wc[0]

    def test_turning_in_place_from_differential(self):
        cfg = SimConfig()
        _, _, h = integrate(100.0, 100.0, 0.0, WheelCommand(4, 8), 0.1, cfg)
        assert h == pytest.approx((4.0 / 3.0) * 4.0 / 8.0 * 0.1)


class TestDetectEvents:
    def test_face_to_face_within_range_both_fire(self):
        cfg = SimConfig()
        x = np.array([100.0, 109.0])
        y = np.array([100.0, 100.0])
        h = np.array([0.0, math.pi])
        rc, wc = detect_events(x, y, h, np.zeros(2), cfg)
        assert rc.tolist() == [True, True]
        assert wc.tolist() == [False, False]

    def test_out_of_range_silent(self):
        cfg = SimConfig()
        x = np.array([100.0, 150.0])
        y = np.array([100.0, 100.0])
        h = np.array([0.0, math.pi])
        rc, wc = detect_events(x, y, h, np.zeros(2), cfg)
        assert not rc.any()
        assert not wc.any()

    def test_robot_behind_not_seen(self):
        cfg = SimConfig()
        # robot 1 sits behind robot 0; only robot 1 looks at robot 0
        x = np.array([100.0, 91.0])
        y = np.array([100.0, 100.0])
        h = np.array([0.0, 0.0])
        rc, _ = detect_events(x, y, h, np.zeros(2), cfg)
        assert rc.tolist() == [False, True]

    def test_wall_proximity_heading_in(self):
        cfg = SimConfig()
        # body edge 1 cm from the left wall, heading into it
        rc, wc = detect_events(np.array([5.0]), np.array([100.0]), np.array([math.pi]), np.zeros(1), cfg)
        assert not rc[0]
        assert wc[0]

    def test_wall_proximity_heading_away(self):
        cfg = SimConfig()
        rc, wc = detect_events(np.array([5.0]), np.array([100.0]), np.array([0.0]), np.zeros(1), cfg)
        assert not wc[0]

    def test_far_from_everything(self):
        cfg = SimConfig()
        rc, wc = detect_events(np.array([150.0]), np.array([150.0]), np.array([0.7]), np.zeros(1), cfg)
        assert not rc[0] and not wc[0]

    def test_refractory_suppresses_receiver_only(self):
        cfg = SimConfig()
        x = np.array([100.0, 109.0])
        y = np.array([100.0, 100.0])
        h = np.array([0.0, math.pi])
        rc, _ = detect_events(x, y, h, np.array([1.5, 0.0]), cfg)
        assert rc.tolist() == [False, True]

    def test_empty_world(self):
        cfg = SimConfig(n_robots=0)
        rc, wc = detect_events(np.empty(0), np.empty(0), np.empty(0), np.empty(0), cfg)
        assert len(rc) == 0 and len(wc) == 0


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
            dict(waiting_formula="cubic"),
        ],
    )
    def test_rejects_configs_the_engine_cannot_run(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides).validate()

    def test_accepts_numpy_scalars(self):
        small_config(n_robots=np.int64(3), beta=np.float64(3.0)).validate()


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
    "waiting_formula": st.sampled_from(["squared", "literal"]),
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
    "waiting_formula": st.sampled_from(["cubic", ""]),
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
    sampling finds no room for every body; whether N bodies fit is a packing
    question that validate() does not answer up front.
    """
    try:
        cfg.validate()
    except ConfigError:
        return
    try:
        res = run_simulation(cfg)
    except PlacementError:
        return
    for a in (res.final_x, res.final_y, res.final_heading):
        assert np.all(np.isfinite(a))
    r = cfg.body_radius_cm
    assert np.all((res.final_x >= r) & (res.final_x <= cfg.arena_width_cm - r))
    assert np.all((res.final_y >= r) & (res.final_y <= cfg.arena_height_cm - r))
    assert np.all((res.field.cells >= 0.0) & (res.field.cells <= 255.0))


class TestRunSimulation:
    def test_deterministic_repeat(self):
        a = run_simulation(small_config())
        b = run_simulation(small_config())
        assert np.array_equal(a.series.mean_cue, b.series.mean_cue)
        assert np.array_equal(a.series.ratio_within_rc, b.series.ratio_within_rc)
        assert np.array_equal(a.series.coherency_m, b.series.coherency_m)
        assert np.array_equal(a.final_x, b.final_x)
        assert np.array_equal(a.final_heading, b.final_heading)

    def test_seed_changes_trajectory(self):
        a = run_simulation(small_config(seed=11))
        b = run_simulation(small_config(seed=12))
        assert not np.array_equal(a.final_x, b.final_x)

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

    def test_robots_stay_inside_walls(self):
        seen = []

        def obs(view):
            seen.append((view.x.copy(), view.y.copy()))

        cfg = small_config(n_robots=8, duration_s=60, seed=4)
        run_simulation(cfg, observer=obs)
        r = cfg.body_radius_cm
        for x, y in seen:
            assert np.all(x >= r - 1e-9) and np.all(x <= cfg.arena_width_cm - r + 1e-9)
            assert np.all(y >= r - 1e-9) and np.all(y <= cfg.arena_height_cm - r + 1e-9)

    def test_no_body_overlap_at_boundaries(self):
        min_d = 2 * SimConfig().body_radius_cm

        def obs(view):
            n = len(view.x)
            for i in range(n):
                for j in range(i + 1, n):
                    d = math.hypot(view.x[i] - view.x[j], view.y[i] - view.y[j])
                    assert d >= min_d - 1e-6

        run_simulation(small_config(n_robots=10, duration_s=40, seed=9), observer=obs)

    def test_cleaning_counter_matches_waiting_boundaries(self):
        waits = []

        def obs(view):
            if view.t < cfg.duration_s:
                waits.append([type(s) is Waiting for s in view.states])

        cfg = small_config(n_robots=10, duration_s=60, seed=2)
        res = run_simulation(cfg, observer=obs)
        per_robot = np.array(waits).sum(axis=0)
        assert res.cleanings.tolist() == per_robot.tolist()
        assert res.cleanings.sum() > 0  # the scenario actually exercises cleaning

    def test_field_only_changes_when_someone_waits(self):
        means = []
        any_waiting = []

        def obs(view):
            means.append(mean_intensity(view.field))
            any_waiting.append(any(type(s) is Waiting for s in view.states))

        cfg = small_config(n_robots=6, duration_s=40, seed=5)
        run_simulation(cfg, observer=obs)
        for k in range(1, len(means)):
            if means[k] != means[k - 1]:
                assert any_waiting[k]

    def test_snapshots_at_requested_times(self):
        cfg = small_config(duration_s=10)
        res = run_simulation(cfg, snapshot_times=[0, 5, 10])
        assert sorted(res.snapshots) == [0, 5, 10]
        assert mean_intensity(res.snapshots[0]) == pytest.approx(res.series.mean_cue[0])
        # the final snapshot reflects the end of the run, after the last row
        assert mean_intensity(res.snapshots[10]) <= res.series.mean_cue[-1]

    def test_forward_speed_never_exceeds_cap(self):
        prev = {}

        def obs(view):
            if prev:
                dt_window = 1.0
                dist = np.hypot(view.x - prev["x"], view.y - prev["y"])
                assert np.all(dist <= (40.0 / 3.0) * dt_window + 1e-6)
            prev["x"] = view.x
            prev["y"] = view.y

        run_simulation(small_config(n_robots=6, duration_s=30, seed=8), observer=obs)
