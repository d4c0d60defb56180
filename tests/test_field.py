import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmclean import engine, field
from swarmclean.engine import ConfigError, SimConfig, run_simulation
from swarmclean.field import (
    CLEAN_KERNEL,
    apply_cleaning,
    init_circular_gradient,
    mean_intensity,
    pgm_raster,
    sample_many,
    to_pgm_bytes,
    write_pgm,
)

import scalar_oracles as oracle

ARENA = 285.0
CENTER = (142.5, 142.5)
RADIUS = 111.35
PEAK = 255.0


def fresh_field():
    return init_circular_gradient(ARENA, ARENA, CENTER, RADIUS, PEAK)


def brute_force_kernel_sum():
    total = 0.0
    for p in range(-4, 5):
        for q in range(-4, 5):
            total += 8.0 - math.sqrt(p * p + q * q)
    return total


class TestInitCircularGradient:
    def test_center_cell_is_peak(self):
        f = fresh_field()
        # the cell containing the cue center has its center exactly there
        assert f[142, 142] == 255.0

    def test_cells_beyond_radius_are_zero(self):
        f = fresh_field()
        xs = (np.arange(285) + 0.5)[None, :]
        ys = (np.arange(285) + 0.5)[:, None]
        d = np.hypot(xs - CENTER[0], ys - CENTER[1])
        assert np.all(f[d >= RADIUS] == 0.0)
        assert np.all(f[d < RADIUS] > 0.0)

    def test_cell_at_exact_half_radius(self):
        # put the cue center half a radius away from the (0, 0) cell center
        f = init_circular_gradient(285, 285, (0.5 + RADIUS / 2, 0.5), RADIUS, PEAK)
        assert f[0, 0] == pytest.approx(127.5, abs=1e-9)

    def test_linear_profile(self):
        f = fresh_field()
        for col in (150, 180, 220):
            d = abs(col + 0.5 - CENTER[0])
            expected = PEAK * max(0.0, 1.0 - d / RADIUS)
            assert f[142, col] == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(arena_width_cm=-1.0),
            dict(arena_height_cm=0.0),
            dict(cue_radius_cm=0.0),
            dict(cue_radius_cm=-5.0),
            dict(cue_peak=0.0),
            dict(cue_peak=300.0),
            # a field of no columns; the cue center is always the arena's, so it cannot lie outside
            dict(n_robots=1, arena_width_cm=0.4, body_radius_cm=0.1, wheel_base_cm=0.2),
        ],
    )
    def test_rejects_bad_geometry(self, kwargs, monkeypatch):
        """A geometry the field cannot take is a ConfigError from the engine before it builds the field."""

        def build_field(*args):
            raise AssertionError(f"field built from {args}")

        monkeypatch.setattr(engine, "init_circular_gradient", build_field)
        with pytest.raises(ConfigError):
            run_simulation(SimConfig(**{"n_robots": 2, "duration_s": 1, **kwargs}))


def sample(field, x_cm, y_cm):
    """One point through `sample_many`."""
    return float(sample_many(field, np.array([[x_cm], [y_cm]]))[0])


def cell_lookup(field, x_cm, y_cm):
    """Reference: the cell holding the point, by floor division; 0 outside."""
    col, row = math.floor(x_cm), math.floor(y_cm)
    rows, cols = field.shape
    return float(field[row, col]) if 0 <= row < rows and 0 <= col < cols else 0.0


def _small_random_field(seed=7):
    f = np.zeros((30, 40))
    rng = np.random.default_rng(seed)
    f[:] = rng.uniform(0, 255, size=f.shape)
    return f


def _near_edges(side):
    """Coordinates on and around both edges of an axis `side` cells long, or anywhere near the arena."""
    edges = [-1.0, -1e-12, -5e-324, -0.0, 0.0, 1e-12, side - 1e-9, side - 5e-15, side, side + 1e-12, side + 1.0]
    return st.one_of(st.sampled_from(edges), st.floats(-2.0, side + 2.0))


class TestSample:
    def test_center_of_fresh_field(self):
        assert sample(fresh_field(), 142.5, 142.5) == 255.0

    def test_outside_arena_reads_zero(self):
        f = fresh_field()
        assert sample(f, -1.0, 50.0) == 0.0
        assert sample(f, 50.0, 290.0) == 0.0
        assert sample(f, 1e9, -1e9) == 0.0

    def test_half_radius_within_quantization(self):
        # one cell of offset shifts the value by at most ~2.3 intensity
        f = fresh_field()
        assert sample(f, 142.5 + RADIUS / 2, 142.5) == pytest.approx(127.5, abs=2.5)

    def test_matches_cell_lookup(self):
        f = fresh_field()
        assert sample(f, 10.2, 20.9) == f[20, 10]

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-50, max_value=335, allow_nan=False),
                st.floats(min_value=-50, max_value=335, allow_nan=False),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_scalar_and_vector_sampling_agree(self, points):
        f = _small_random_field()
        points_cm = np.array(points, dtype=float).reshape(-1, 2).T
        assert sample_many(f, points_cm).tolist() == [cell_lookup(f, x, y) for x, y in points]

    def test_edges_and_far_points_read_positive_zero(self):
        f = _small_random_field()
        rows, cols = f.shape
        assert f.min() > 0.0
        xs = [cols, 5.0, -1e-12, 5.0, -5e-324, 1e9, -1e9, 1e18, 5.0, cols + 1e-12]
        ys = [5.0, rows, 5.0, -1e-12, 5.0, 5.0, 1e18, 5.0, -1e15, rows]
        assert sample_many(f, np.array([xs, ys])).tobytes() == np.zeros(len(xs)).tobytes()

    @given(st.floats(-1e-12, 0.0, exclude_max=True), st.floats(0.0, 29.5), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_just_below_zero_reads_positive_zero(self, below, inside, on_x):
        f = _small_random_field()
        point = [[below], [inside]] if on_x else [[inside], [below]]
        assert sample_many(f, np.array(point)).tobytes() == np.zeros(1).tobytes()

    def test_just_inside_the_far_edges_reads_the_last_cells(self):
        f = _small_random_field()
        rows, cols = f.shape
        points = np.array([[cols - 1e-9, 3.5, cols - 1e-9, 0.0], [2.5, rows - 1e-9, rows - 1e-9, -0.0]])
        assert sample_many(f, points).tolist() == [f[2, cols - 1], f[rows - 1, 3], f[rows - 1, cols - 1], f[0, 0]]

    @given(st.integers(1, 4), st.lists(st.tuples(st.integers(0, 3), _near_edges(40), _near_edges(30)), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_a_stacked_field_reads_only_the_points_own_run(self, runs, points):
        stack = np.stack([_small_random_field(seed) for seed in range(runs)])
        run = np.array([k % runs for k, _, _ in points], dtype=np.intp)
        points_cm = np.array([(x, y) for _, x, y in points], dtype=float).reshape(-1, 2).T
        got = sample_many(stack, points_cm, run * stack[0].size)
        want = [cell_lookup(stack[k], x, y) for k, (x, y) in zip(run.tolist(), points_cm.T.tolist())]
        assert got.tobytes() == np.array(want, dtype=float).tobytes()


class TestCleaning:
    def test_kernel_bounds(self):
        assert CLEAN_KERNEL.max() == 8.0
        assert CLEAN_KERNEL[4, 4] == 8.0
        assert CLEAN_KERNEL.min() == pytest.approx(8.0 - math.sqrt(32.0), abs=0)
        assert np.all(CLEAN_KERNEL > 0)

    def test_kernel_point_symmetry(self):
        assert np.array_equal(CLEAN_KERNEL, CLEAN_KERNEL[::-1, ::-1])

    def test_center_cell_decrement(self):
        f = np.zeros((50, 50))
        f[:] = 100.0
        apply_cleaning(f, 25.5, 25.5)
        assert f[25, 25] == pytest.approx(92.0, abs=1e-12)

    def test_corner_cell_decrement(self):
        f = np.zeros((50, 50))
        f[:] = 100.0
        apply_cleaning(f, 25.5, 25.5)
        assert f[29, 29] == pytest.approx(100.0 - (8.0 - math.sqrt(32.0)), abs=1e-12)
        assert f[21, 21] == pytest.approx(97.65685424949238, abs=1e-9)

    def test_clamps_at_zero(self):
        f = np.zeros((50, 50))
        f[:] = 3.0
        apply_cleaning(f, 25.5, 25.5)
        assert f[25, 25] == 0.0
        assert f.min() >= 0.0

    def test_interior_conservation_matches_brute_force(self):
        f = np.zeros((60, 60))
        f[:] = 50.0  # everywhere >= 8, so no clamping anywhere
        before = f.sum()
        apply_cleaning(f, 30.5, 30.5)
        assert before - f.sum() == pytest.approx(brute_force_kernel_sum(), rel=1e-12)

    def test_edge_application_skips_outside_cells(self):
        f = np.zeros((30, 30))
        f[:] = 50.0
        before = f.sum()
        apply_cleaning(f, 0.5, 0.5)  # kernel half off-arena
        removed = before - f.sum()
        expected = sum(
            8.0 - math.sqrt(p * p + q * q)
            for p in range(-4, 5)
            for q in range(-4, 5)
            if 0 <= 0 + p < 30 and 0 <= 0 + q < 30
        )
        assert removed == pytest.approx(expected, rel=1e-12)

    def test_matches_brute_force_loop(self):
        f = _small_random_field()
        g = f.copy()
        apply_cleaning(f, 17.3, 12.8)
        col, row = 17, 12
        for p in range(-4, 5):
            for q in range(-4, 5):
                r, c = row + q, col + p
                if 0 <= r < 30 and 0 <= c < 40:
                    g[r, c] = max(g[r, c] - (8.0 - math.hypot(p, q)), 0.0)
        assert np.allclose(f, g, atol=1e-12)

    @given(st.lists(st.tuples(st.floats(0, 40), st.floats(0, 30)), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_nonnegativity_after_any_sequence(self, points):
        f = _small_random_field()
        for x, y in points:
            apply_cleaning(f, x, y)
        assert f.min() >= 0.0

    def test_batch_matches_robot_by_robot_at_walls_and_zero(self):
        f = np.zeros((12, 20))
        f[:] = 12.0  # two or three overlapping applications drive a cell to zero
        g = f.copy()
        xs = np.array([0.2, 1.7, 19.9, 10.0, 10.5, 11.2, 3.0])
        ys = np.array([0.9, 0.1, 11.5, 6.0, 6.2, 5.9, 11.99])
        apply_cleaning(f, xs, ys)
        for x, y in zip(xs, ys):
            oracle.apply_cleaning(g, x, y)
        assert f.tobytes() == g.tobytes()
        assert np.count_nonzero(f == 0.0) > 0 and f.min() == 0.0

    @given(
        st.integers(9, 40),
        st.integers(9, 40),
        st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=60),
        st.sampled_from([1.0, 10.0, 255.0]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_batch_matches_robot_by_robot(self, cols, rows, points, peak, seed):
        """One batched call equals cleaning robot by robot in index order, bit for bit."""
        f = np.zeros((rows, cols))
        f[:] = np.random.default_rng(seed).uniform(0, peak, size=f.shape)
        g = f.copy()
        xs = np.array([px * cols for px, _ in points]).clip(0, np.nextafter(cols, 0))
        ys = np.array([py * rows for _, py in points]).clip(0, np.nextafter(rows, 0))
        apply_cleaning(f, xs, ys)
        for x, y in zip(xs, ys):
            oracle.apply_cleaning(g, x, y)
        assert f.tobytes() == g.tobytes()

    @given(
        st.integers(9, 30),
        st.integers(9, 30),
        st.integers(1, 4),
        st.lists(st.tuples(st.integers(0, 3), st.floats(-0.1, 1.1), st.floats(-0.1, 1.1)), min_size=1, max_size=30),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_stack_with_cell_offsets_matches_each_run_alone(self, cols, rows, runs, robots, seed):
        """One call over a (runs, rows, cols) stack equals cleaning each run's field alone, bit for bit.

        Each robot's cell_offset is its run times rows * cols. Robots sit up to a tenth of a side
        outside the field, so windows are clipped at every wall, and each robot has a twin on the
        same (row, col) in the next run, so robots of different runs share a cell.
        """
        run = [k % runs for k, _, _ in robots]
        run = np.array(run + [(k + 1) % runs for k in run])
        xs = np.array([px * cols for _, px, _ in robots] * 2)
        ys = np.array([py * rows for _, _, py in robots] * 2)
        stack = np.random.default_rng(seed).uniform(0, 12, (runs, rows, cols))  # two windows can reach zero
        alone = stack.copy()
        apply_cleaning(stack, xs, ys, run * (rows * cols))
        for k in range(runs):
            apply_cleaning(alone[k], xs[run == k], ys[run == k])
        assert stack.tobytes() == alone.tobytes()

    def test_monotone_depletion(self):
        f = fresh_field()
        rng = np.random.default_rng(3)
        last = mean_intensity(f)
        for _ in range(50):
            apply_cleaning(f, rng.uniform(0, ARENA), rng.uniform(0, ARENA))
            now = mean_intensity(f)
            assert now <= last
            last = now


class TestMeanIntensity:
    def test_all_zero(self):
        assert mean_intensity(np.zeros((20, 20))) == 0.0

    def test_uniform(self):
        f = np.zeros((20, 20))
        f[:] = 37.25
        assert mean_intensity(f) == pytest.approx(37.25, abs=1e-12)

    @given(st.integers(1, 300), st.integers(1, 300), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equals_numpy_mean_bit_for_bit(self, cols, rows, runs, seed):
        """On cleaned fields, each a (rows, cols) view of a stack or a copy of one, the mean is `field.mean()`."""
        rng = np.random.default_rng(seed)
        stack = rng.uniform(0, 255, (runs, rows, cols))
        robots = 3 * runs
        offsets = rng.integers(0, runs, robots) * (rows * cols)
        apply_cleaning(stack, rng.uniform(0, cols, robots), rng.uniform(0, rows, robots), offsets)
        for field in (*stack, stack[-1].copy(), fresh_field()):
            assert mean_intensity(field).hex() == float(field.mean()).hex()

    def test_fresh_field_matches_cone_volume(self):
        # analytic oracle: cone volume over arena area
        expected = (math.pi * RADIUS**2 * PEAK / 3.0) / (ARENA * ARENA)
        assert mean_intensity(fresh_field()) == pytest.approx(expected, rel=0.01)


class TestPgm:
    def test_header_and_size(self):
        data = to_pgm_bytes(pgm_raster(fresh_field()))
        assert data.startswith(b"P5\n285 285\n255\n")
        assert len(data) == len(b"P5\n285 285\n255\n") + 285 * 285

    def test_center_pixel_is_255(self):
        data = to_pgm_bytes(pgm_raster(fresh_field()))
        raster = data[len(b"P5\n285 285\n255\n") :]
        assert raster[142 * 285 + 142] == 255

    def test_values_rounded(self):
        f = np.zeros((2, 3))
        f[:] = [[0.4, 1.5, 254.6], [200.49, 0.0, 255.0]]
        raster = to_pgm_bytes(pgm_raster(f))[len(b"P5\n3 2\n255\n") :]
        assert list(raster) == [0, 2, 255, 200, 0, 255]

    def test_raster_is_the_clamped_rounded_field_in_one_byte_per_cell(self):
        """Any row count, a short last block included: values below 0 or above 255 clamp, and .5 ties go to even."""
        values = [-4.0, 255.5, 300.0, 0.5, 1.5, 2.5, 254.5, -0.5, 127.49999999999999, 1e300, -1e300, 3.5, 200.49]
        pixels = [0, 255, 255, 0, 2, 2, 254, 0, 127, 255, 0, 4, 200]
        for shape in [(285, 285), (1, 1), (3, 2), (65, 3), (130, 7)]:
            f = np.resize(values, shape)  # the values over and over, row by row
            rows = len(f)
            if shape == (285, 285):
                f[1:], rows = fresh_field()[1:], 1  # the cone below a first row of the values
            raster = pgm_raster(f)
            assert raster.dtype == np.uint8 and raster.shape == f.shape
            assert raster[:rows].tolist() == np.resize(pixels, shape)[:rows].tolist()
            assert np.array_equal(raster, np.clip(np.rint(f), 0, 255))
            assert raster.nbytes * 8 == f.nbytes

    def test_roundtrip(self, tmp_path):
        f = fresh_field()
        path = tmp_path / "snap.pgm"
        write_pgm(pgm_raster(f), path)
        data = path.read_bytes()
        assert data == to_pgm_bytes(pgm_raster(f))
        pixels = np.frombuffer(data, dtype=np.uint8, offset=len(b"P5\n285 285\n255\n")).reshape(f.shape)
        assert np.array_equal(pixels, np.rint(f))

    def test_read_returns_the_written_raster(self, tmp_path):
        raster = pgm_raster(fresh_field())
        path = tmp_path / "snap.pgm"
        write_pgm(raster, path)
        assert path.read_bytes() == to_pgm_bytes(raster) == b"P5\n285 285\n255\n" + raster.tobytes()

    def test_failed_write_keeps_the_old_snapshot(self, tmp_path, monkeypatch):
        """A snapshot whose bytes cannot be made leaves the earlier file whole, and no temp file beside it."""
        path = tmp_path / "snapshot_t0.pgm"
        write_pgm(pgm_raster(fresh_field()), path)
        before = path.read_bytes()

        def unencodable(raster):
            raise MemoryError("no room for the PGM bytes")

        monkeypatch.setattr(field, "to_pgm_bytes", unencodable)
        with pytest.raises(MemoryError):
            write_pgm(pgm_raster(fresh_field() * 0.5), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
