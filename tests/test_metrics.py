import re
import shutil
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmclean.engine import PairGeometry, SimConfig
from swarmclean.metrics import CSV_HEADER, MetricsSeries
from swarmclean.metrics import coherency as coherency_of_geometry
from swarmclean.metrics import ratio_within as ratio_within_blocks

COLUMNS = CSV_HEADER.split(",")


def flip_bit(path, k):
    """Flip the low bit of byte k of a file."""
    data = bytearray(path.read_bytes())
    data[k] ^= 0x01
    path.write_bytes(bytes(data))


def ratio_within(xy, center_cm, r_c_cm):
    """The ratio of a (2, N) swarm taken as one block."""
    [ratio] = ratio_within_blocks(xy, center_cm, r_c_cm, (0, xy.shape[1]))
    return ratio


def coherency(positions_cm):
    """Coherency of an (N, 2) array of positions, through the PairGeometry the engine keeps."""
    pos = np.asarray(positions_cm, dtype=np.float64).reshape(-1, 2)
    upper_d2 = PairGeometry(pos.T.copy(), SimConfig()).upper_d2
    [value] = coherency_of_geometry(upper_d2, (0, len(upper_d2)))
    return value


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
        xy = rng.uniform(4.0, 281.0, (2, n))
        x, y = xy
        geom = PairGeometry(xy, SimConfig())
        if moved_after_fill and n:
            # between boundaries the tick loop tracks the list to new poses; at the
            # boundary it rebuilds every pair's squared distance, which coherency reads
            moved = np.unique(rng.integers(0, n, size=max(n // 4, 1)))
            shift = rng.normal(size=(2, len(moved)))
            x[moved] += shift[0]
            y[moved] -= shift[1]
            geom.track(xy, pushed=True)
            geom.rebuild(xy)
        want = coherency_dense(np.column_stack((x, y)))
        assert coherency_of_geometry(geom.upper_d2, (0, len(geom.upper_d2))) == [want]

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
        assert sorted(path.name for path in tmp_path.iterdir()) == ["metrics.csv", "metrics.csv.bin"]

    @staticmethod
    def per_row_text(s):
        """The oracle: repr() of every float of every row, one row at a time."""
        rows = zip(s.t.tolist(), s.mean_cue.tolist(), s.ratio_within_rc.tolist(), s.coherency_m.tolist())
        return CSV_HEADER + "\n" + "".join(f"{t},{a!r},{b!r},{c!r}\n" for t, a, b, c in rows)

    @pytest.mark.parametrize(
        "columns",
        [
            # heavy repetition: a ratio is k / N and a mean is held while no robot cleans
            (np.repeat([40.75, 40.5, 39.125], [1500, 2, 498]), np.arange(2000) % 7 / 30, np.full(2000, 1.47)),
            # 0.0 and -0.0 in one column are two bit patterns and two texts, though they compare equal
            ([0.0, -0.0, 0.0, -0.0, 1.0], [-0.0, -0.0, 0.0, 0.0, -0.0], [-0.0, 1e-300, 0.0, -1e-300, -0.0]),
            # subnormals, the extremes and values near +-1e300, each repeated
            (
                [5e-324, -5e-324, 2.2250738585072014e-308, 5e-324, -2.225073858507201e-308, 1.5e-310],
                [1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308, 1e300, 9.999999999999999e299],
                [0.1 + 0.2, 0.3, 0.1 + 0.2, 1 / 3, 2.0000000000000004, 0.3],
            ),
            # a series of zero rows: the header alone
            ([], [], []),
        ],
        ids=["repeated", "signed-zeros", "extremes", "zero-rows"],
    )
    def test_text_matches_per_row_repr(self, columns):
        floats = [np.array(c, dtype=np.float64) for c in columns]
        s = MetricsSeries(np.arange(len(floats[0]), dtype=np.int64) * 3 - 5, *floats)
        assert s.csv_text() == self.per_row_text(s)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_text_matches_per_row_repr_over_repeated_draws(self, values, data):
        """Columns drawn with replacement from a few floats and their negations: rows repeat values and signed zeros."""
        pool = values + [-v for v in values]
        rows = data.draw(st.integers(0, 30))
        columns = [data.draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows)) for _ in range(3)]
        s = MetricsSeries(np.arange(rows, dtype=np.int64), *(np.array(c, dtype=np.float64) for c in columns))
        assert s.csv_text() == self.per_row_text(s)

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
            ("0,1e-300,-2.5,7\r\n1,-0.0,5e-324,1e308\r\n", [0, 1], [1e-300, -0.0]),  # CRLF line ends
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
            # no run writes nan or inf, and analyze would carry them into its statistics
            pytest.param(CSV_HEADER + "\n0,nan,2,3\n", id="nan mean_cue"),
            pytest.param(CSV_HEADER + "\n0,1,2,3\n1,1,inf,3\n", id="inf ratio in a later row"),
            pytest.param(CSV_HEADER + "\n0,1,2,-inf\n", id="-inf coherency"),
            pytest.param(CSV_HEADER + "\n0,1,NaN,3\n", id="NaN ratio"),
            pytest.param(CSV_HEADER + "\n0,-Infinity,2,3\n", id="-Infinity mean_cue"),
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
            st.tuples(st.integers(-(2**63), 2**63 - 1), *[st.floats(allow_nan=False, allow_infinity=False)] * 3),
            max_size=40,
        )
    )
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

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
        st.lists(st.tuples(st.integers(-(2**63), 2**63 - 1), *[st.integers(0, 15)] * 3), max_size=40),
    )
    @example([1.5], [])  # no rows: the header alone
    @example([0.0, 2.5], [(2**63 - 1, 1, 2, 3), (-(2**63), 3, 3, 0), (4000, 14, 15, 1)])
    @settings(max_examples=150, deadline=None)
    def test_copy_and_parse_give_the_same_arrays(self, values, rows):
        """from_csv returns the same arrays, bit for bit, from the binary copy as from parsing the text.

        Each float cell picks from the drawn values, their negations, 0.0 and -0.0, so cells repeat and signed zeros
        appear; t spans int64.
        """
        pool = values + [-v for v in values] + [0.0, -0.0]
        cols = list(zip(*rows)) or [()] * 4
        floats = (np.array([pool[k % len(pool)] for k in col], dtype=np.float64) for col in cols[1:])
        s = MetricsSeries(np.array(cols[0], dtype=np.int64), *floats)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "metrics.csv")
            s.to_csv(path)
            with mock.patch.object(np, "loadtxt", side_effect=AssertionError("parsed beside a sound copy")):
                copied = MetricsSeries.from_csv(path)
            Path(tmp, "metrics.csv.bin").unlink()
            parsed = MetricsSeries.from_csv(path)
        for name in COLUMNS:
            a, b = getattr(copied, name), getattr(parsed, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes() == getattr(s, name).tobytes()
            assert a.flags.c_contiguous and a.flags.owndata and a.flags.writeable

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda csv, copy, other: csv.write_text(CSV_HEADER + "\n0,1.5,2,3\n7,2.5,3,4\n"),
                         id="csv rewritten by hand"),
            pytest.param(lambda csv, copy, other: csv.write_text(CSV_HEADER + "\n0,1.5,2\n"),
                         id="csv rewritten by hand, malformed"),
            pytest.param(lambda csv, copy, other: csv.write_bytes(csv.read_bytes().replace(b"\n", b"\r\n")),
                         id="csv given CRLF line ends"),
            pytest.param(lambda csv, copy, other: copy.write_bytes(copy.read_bytes()[:-1]), id="copy cut mid-record"),
            pytest.param(lambda csv, copy, other: copy.write_bytes(copy.read_bytes()[:-32]), id="a record short"),
            pytest.param(lambda csv, copy, other: copy.write_bytes(copy.read_bytes()[:32]), id="digest alone"),
            pytest.param(lambda csv, copy, other: copy.write_bytes(copy.read_bytes()[:5]), id="copy cut in the digest"),
            pytest.param(lambda csv, copy, other: copy.write_bytes(b""), id="empty copy"),
            pytest.param(lambda csv, copy, other: flip_bit(copy, 0), id="flipped first digest byte"),
            pytest.param(lambda csv, copy, other: flip_bit(copy, 31), id="flipped last digest byte"),
            pytest.param(lambda csv, copy, other: flip_bit(copy, 32), id="flipped byte of a t"),
            pytest.param(lambda csv, copy, other: flip_bit(copy, 75), id="flipped byte of a float"),
            pytest.param(lambda csv, copy, other: flip_bit(copy, -1), id="flipped last byte"),
            pytest.param(lambda csv, copy, other: shutil.copyfile(other, copy), id="copy from another run"),
            pytest.param(lambda csv, copy, other: copy.unlink(), id="missing copy"),
        ],
    )
    def test_damaged_copy_falls_back_to_the_csv(self, tmp_path, damage):
        """A copy not written beside the CSV's present bytes is ignored: the CSV's values, or its ValueError."""
        csv, copy = tmp_path / "metrics.csv", tmp_path / "metrics.csv.bin"
        self.make_series().to_csv(csv)
        other = self.make_series()
        other.mean_cue += 1.0  # another run: another CSV, another copy
        other.to_csv(tmp_path / "other.csv")
        damage(csv, copy, tmp_path / "other.csv.bin")
        outcomes = []
        for _ in range(2):  # with the damaged copy, then with none
            with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as parse:
                try:
                    series = MetricsSeries.from_csv(csv)
                    outcomes.append([getattr(series, name).tobytes() for name in COLUMNS])
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert parse.call_count == 1
            copy.unlink(missing_ok=True)
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize(
        "column, value", [("mean_cue", np.nan), ("ratio_within_rc", np.inf), ("coherency_m", -np.inf)]
    )
    def test_non_finite_value_is_refused_from_the_copy(self, tmp_path, column, value):
        s = self.make_series()
        getattr(s, column)[1] = value
        p = tmp_path / "metrics.csv"
        s.to_csv(p)
        with mock.patch.object(np, "loadtxt", side_effect=AssertionError("parsed beside a sound copy")):
            with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: non-finite value in column {column}$"):
                MetricsSeries.from_csv(p)
