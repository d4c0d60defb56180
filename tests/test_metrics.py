import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmclean.engine import PairGeometry, SimConfig
from swarmclean.metrics import MetricsSeries, ratio_within
from swarmclean.metrics import coherency as coherency_of_geometry


def coherency(positions_cm):
    """Coherency of an (N, 2) array of positions, through the PairGeometry the engine keeps."""
    pos = np.asarray(positions_cm, dtype=np.float64).reshape(-1, 2)
    return coherency_of_geometry(PairGeometry(pos[:, 0].copy(), pos[:, 1].copy(), SimConfig()))


def coherency_dense(positions_cm):
    """Reference: mean over the upper triangle of a freshly built distance matrix, in meters."""
    pos = np.asarray(positions_cm, dtype=np.float64).reshape(-1, 2)
    n = len(pos)
    if n < 2:
        return 0.0
    dx = pos[:, 0, None] - pos[None, :, 0]
    dy = pos[:, 1, None] - pos[None, :, 1]
    d = np.sqrt(dx * dx + dy * dy)
    return float(d[np.triu_indices(n, k=1)].mean()) / 100.0


class TestRatioWithin:
    def test_all_at_center(self):
        pos = np.zeros((7, 2)) + 142.5
        assert ratio_within(pos.T, (142.5, 142.5), 70.0) == 1.0

    def test_one_of_ten_inside(self):
        pos = np.full((10, 2), 142.5)
        pos[1:, 0] += 200.0  # nine robots 2 m out
        pos[0, 0] += 69.0  # one robot 0.69 m out
        assert ratio_within(pos.T, (142.5, 142.5), 70.0) == pytest.approx(0.1)

    def test_boundary_counts_as_inside(self):
        pos = np.full((4, 2), 142.5)
        pos[:, 0] += 70.0
        assert ratio_within(pos.T, (142.5, 142.5), 70.0) == 1.0

    def test_empty_swarm_reports_zero(self):
        assert ratio_within(np.empty((0, 2)).T, (0.0, 0.0), 70.0) == 0.0

    @given(st.integers(1, 20), st.integers(0))
    @settings(max_examples=40, deadline=None)
    def test_values_are_multiples_of_one_over_n(self, n, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 285, size=(n, 2))
        r = ratio_within(pos.T, (142.5, 142.5), 70.0)
        assert r == pytest.approx(round(r * n) / n, abs=1e-12)
        assert 0.0 <= r <= 1.0


class TestCoherency:
    def test_single_pair(self):
        pos = np.array([[0.0, 0.0], [150.0, 0.0]])
        assert coherency(pos) == pytest.approx(1.5)

    def test_coincident_robots(self):
        pos = np.full((5, 2), 33.0)
        assert coherency(pos) == 0.0

    def test_equilateral_triangle(self):
        s = 100.0  # 1 m sides
        pos = np.array([[0.0, 0.0], [s, 0.0], [s / 2, s * np.sqrt(3) / 2]])
        assert coherency(pos) == pytest.approx(1.0, abs=1e-12)

    def test_fewer_than_two_robots(self):
        assert coherency(np.empty((0, 2))) == 0.0
        assert coherency(np.array([[10.0, 10.0]])) == 0.0

    def test_matches_brute_force_pair_mean(self):
        rng = np.random.default_rng(5)
        pos = rng.uniform(0, 285, size=(12, 2))
        total = 0.0
        count = 0
        for i in range(12):
            for j in range(i + 1, 12):
                total += np.hypot(*(pos[i] - pos[j]))
                count += 1
        assert coherency(pos) == pytest.approx(total / count / 100.0, rel=1e-12)

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_invariances(self, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 285, size=(8, 2))
        base = coherency(pos)
        shuffled = pos[rng.permutation(8)]
        assert coherency(shuffled) == pytest.approx(base, rel=1e-12)
        assert coherency(pos + [17.0, -4.0]) == pytest.approx(base, rel=1e-9)
        assert coherency(pos * 2.0) == pytest.approx(2.0 * base, rel=1e-9)

    @given(st.integers(0, 219), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_shared_geometry_matches_dense_bit_for_bit(self, n, seed, moved_after_fill):
        rng = np.random.default_rng(seed)
        x = rng.uniform(4.0, 281.0, n)
        y = rng.uniform(4.0, 281.0, n)
        geom = PairGeometry(x, y, SimConfig())
        if moved_after_fill and n:
            # between boundaries the tick loop tracks the list to new poses; at the
            # boundary it rebuilds every pair's squared distance, which coherency reads
            moved = np.unique(rng.integers(0, n, size=max(n // 4, 1)))
            shift = rng.normal(size=(2, len(moved)))
            x[moved] += shift[0]
            y[moved] -= shift[1]
            geom.track(x, y, pushed=True)
            geom.rebuild(x, y)
        assert coherency_of_geometry(geom) == coherency_dense(np.column_stack((x, y)))

    def test_bounded_by_arena_diagonal(self):
        rng = np.random.default_rng(9)
        pos = rng.uniform(0, 285, size=(30, 2))
        assert coherency(pos) <= 285.0 * np.sqrt(2) / 100.0


class TestMetricsSeries:
    def make_series(self):
        return MetricsSeries(
            t=np.array([0, 1, 2], dtype=np.int64),
            mean_cue=np.array([40.76, 40.5, 40.1]),
            ratio_within_rc=np.array([0.2, 0.3, 0.4]),
            coherency_m=np.array([1.47, 1.40, 1.32]),
        )

    def test_roundtrip_is_byte_identical(self, tmp_path):
        s = self.make_series()
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        s.to_csv(p1)
        MetricsSeries.from_csv(p1).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_schema(self, tmp_path):
        p = tmp_path / "m.csv"
        self.make_series().to_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0] == "t,mean_cue,ratio_within_rc,coherency_m"
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "0"

    def test_reject_foreign_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,cue\n0,1\n")
        with pytest.raises(ValueError):
            MetricsSeries.from_csv(p)

    def test_shortest_roundtrip_floats(self, tmp_path):
        s = MetricsSeries(
            t=np.array([0], dtype=np.int64),
            mean_cue=np.array([0.1]),
            ratio_within_rc=np.array([1 / 3]),
            coherency_m=np.array([2.0000000000000004]),
        )
        p = tmp_path / "m.csv"
        s.to_csv(p)
        body = p.read_text().splitlines()[1]
        assert body == "0,0.1,0.3333333333333333,2.0000000000000004"

    def test_failed_write_leaves_no_file(self, tmp_path):
        s = self.make_series()
        s.mean_cue = s.mean_cue[:2]  # mismatched columns: row 2 raises mid-write
        with pytest.raises(IndexError):
            s.to_csv(tmp_path / "metrics.csv")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        p = tmp_path / "metrics.csv"
        self.make_series().to_csv(p)
        before = p.read_bytes()
        s = self.make_series()
        s.coherency_m = s.coherency_m[:1]
        with pytest.raises(IndexError):
            s.to_csv(p)
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]
