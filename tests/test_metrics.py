import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmclean.engine import PairGeometry, SimConfig
from swarmclean.metrics import CSV_HEADER, MetricsSeries, ratio_within
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

    def test_header_only_file_is_an_empty_series(self, tmp_path):
        # what a run of duration 0 writes
        p = tmp_path / "m.csv"
        MetricsSeries(*(np.empty(0, dtype) for dtype in (np.int64, np.float64, np.float64, np.float64))).to_csv(p)
        assert p.read_text() == CSV_HEADER + "\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = MetricsSeries.from_csv(p)
        assert len(s) == 0
        assert s.t.dtype == np.int64
        assert s.mean_cue.dtype == s.ratio_within_rc.dtype == s.coherency_m.dtype == np.float64

    @pytest.mark.parametrize(
        "body, t, mean_cue",
        [
            ("0,1.5,2,3\n", [0], [1.5]),  # one row still gives 1-d columns
            ("0,1.5,2,3", [0], [1.5]),  # no newline after the last row
            ("+3,1,2,3\n -4 ,1.5 ,2,3\n", [3, -4], [1.0, 1.5]),  # what int() and float() accept around a number
            ("0,inf,-Infinity,NaN\r\n1,-0.0,5e-324,1e308\r\n", [0, 1], [np.inf, -0.0]),  # CRLF line ends
        ],
    )
    def test_accepted_rows(self, tmp_path, body, t, mean_cue):
        p = tmp_path / "m.csv"
        p.write_bytes((CSV_HEADER + "\n" + body).encode("ascii"))
        s = MetricsSeries.from_csv(p)
        assert s.t.tolist() == t and s.t.dtype == np.int64
        assert np.array_equal(s.mean_cue, mean_cue)
        for column in (s.t, s.mean_cue, s.ratio_within_rc, s.coherency_m):
            assert column.flags.c_contiguous and column.flags.owndata

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("time,cue\n0,1\n", id="foreign header"),
            pytest.param("", id="empty file"),
            pytest.param(CSV_HEADER + "\n0,1,2\n", id="short row"),
            pytest.param(CSV_HEADER + "\n0,1,2,3,4\n", id="long row"),
            pytest.param(CSV_HEADER + "\n0,1,2,3,\n", id="trailing comma"),
            pytest.param(CSV_HEADER + "\n0,1,2,3\n1,2,3\n", id="ragged pair, short second"),
            pytest.param(CSV_HEADER + "\n0,1,2\n1,2,3,4\n", id="ragged pair, short first"),
            pytest.param(CSV_HEADER + "\n0,,2,3\n", id="empty float cell"),
            pytest.param(CSV_HEADER + "\n,1,2,3\n", id="empty t cell"),
            pytest.param(CSV_HEADER + "\n0,abc,2,3\n", id="non-numeric cell"),
            pytest.param(CSV_HEADER + "\n3.0,1,2,3\n", id="t of 3.0"),
            pytest.param(CSV_HEADER + "\n3.5,1,2,3\n", id="t of 3.5"),
            pytest.param(CSV_HEADER + "\n1e3,1,2,3\n", id="t of 1e3"),
            pytest.param(CSV_HEADER + "\n0,1#,2,3\n", id="hash in a row"),
            pytest.param(CSV_HEADER + "\n0,1,2,3\n#1,2,3,4\n", id="hash-commented row"),
            pytest.param(CSV_HEADER + "\n0,1,2,3\n\n1,2,3,4\n", id="blank line in the middle"),
            pytest.param(CSV_HEADER + "\n0,1,2,3\n\n", id="blank line at the end"),
            pytest.param(CSV_HEADER + "\n\n0,1,2,3\n", id="blank line after the header"),
            pytest.param(CSV_HEADER + "\n\n", id="blank line alone"),
            pytest.param(CSV_HEADER + "\n0,1,2,3\n  \n1,2,3,4\n", id="whitespace-only line"),
            pytest.param(CSV_HEADER + "\n1_0,1,2,3\n", id="underscore in t"),
            pytest.param(CSV_HEADER + "\n0,1_0,2,3\n", id="underscore in a float"),
            pytest.param(CSV_HEADER + "\n99999999999999999999,1,2,3\n", id="t beyond int64"),
        ],
    )
    def test_rejected_files_name_the_path(self, tmp_path, text):
        p = tmp_path / "bad.csv"
        p.write_bytes(text.encode("ascii"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(str(p))):
                MetricsSeries.from_csv(p)

    @given(
        st.lists(
            st.tuples(st.integers(-(2**63), 2**63 - 1), st.floats(), st.floats(), st.floats()),
            max_size=40,
        )
    )
    @example([(0, float("nan"), float("inf"), float("-inf"))])
    @example([(1, 0.0, -0.0, 5e-324), (2, 2.2250738585072014e-308, -2.225073858507201e-308, 1e-300)])
    @example([(3, 1.7976931348623157e308, -1.7976931348623157e308, 1e300)])
    @example([(4, 0.1 + 0.2, 2.0000000000000004, 1 / 3), (5, 9007199254740993.0, 123456789.12345679, 1e22)])
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_matches_python_float_bit_for_bit(self, rows):
        cols = list(zip(*rows)) or [()] * 4
        s = MetricsSeries(np.array(cols[0], dtype=np.int64), *(np.array(c, dtype=np.float64) for c in cols[1:]))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.csv"), Path(tmp, "b.csv")
            s.to_csv(first)
            back = MetricsSeries.from_csv(first)
            back.to_csv(second)
            assert first.read_bytes() == second.read_bytes()
            # reference: the cells as Python's int() and float() read them
            cells = [line.split(",") for line in first.read_text().splitlines()[1:]]
        assert back.t.tolist() == [int(c[0]) for c in cells]
        for k, column in enumerate((back.mean_cue, back.ratio_within_rc, back.coherency_m), start=1):
            expected = np.array([float(c[k]) for c in cells], dtype=np.float64)
            assert column.tobytes() == expected.tobytes()
