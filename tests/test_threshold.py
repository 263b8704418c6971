"""Figure-of-merit algebra and the tolerable-error frontier scan."""

from __future__ import annotations

import io
import csv
from fractions import Fraction

import numpy as np
import pytest

from quditqkd.threshold import (
    STATUS_BOUNDARY,
    STATUS_FEASIBLE,
    STATUS_UNREACHABLE,
    FeasibilityPoint,
    bracket_value,
    e_max_scan,
    ec_star,
    f_value,
)

from reference import reference_e_max_scan

DEGREES = range(2, 9)

# The sampled scan the closed form replaced, kept as the differential
# reference: 64 geometric e_c samples per slice toward its edge, a 1e-9
# guard band, and a "rejected" verdict wherever a sample fails.
SAMPLE_T = np.geomspace(1e-6, 1.0, 64)
GUARD = 1e-9
STATUS_REJECTED = "rejected"


def sampled_slice(e_b: float, n: int) -> tuple[float | None, str]:
    order = 1 << n
    star = ec_star(e_b, n)
    if star > 1.0:
        return None, STATUS_UNREACHABLE
    if star == 1.0:
        return 0.0, STATUS_BOUNDARY
    ec = star + SAMPLE_T * (1.0 - star)
    lhs = e_b * ec + (order - 1) * (1.0 - ec) / (order - 2)
    valid = lhs < 0.5 - GUARD
    if not valid.any():
        return None, STATUS_UNREACHABLE
    ec = ec[valid]
    bracket = 1.0 - e_b * ec - order * (1.0 - ec) / (order - 2)
    f0 = bracket * bracket - e_b * (1.0 - e_b) * ec * ec
    min_f = float(f0.min())
    if ((f0 <= GUARD) | (bracket < 0.0)).any():
        return min_f, STATUS_REJECTED
    return min_f, STATUS_FEASIBLE


def sampled_scan(n: int, grid: int) -> tuple[list, float]:
    """Rows (e_b, min_f, status) and e_max of the sampled scan."""
    rows = [
        (e_b, *sampled_slice(e_b, n))
        for e_b in np.linspace(0.0, 1.0, grid + 1).tolist()
    ]
    feasible = [e_b for e_b, _, status in rows if status == STATUS_FEASIBLE]
    return rows, max(feasible) if feasible else 0.0


class TestEcStar:
    def test_pins(self):
        assert ec_star(Fraction(0), 2) == Fraction(2, 3)
        assert ec_star(Fraction(3, 10), 2) == Fraction(5, 6)
        assert ec_star(Fraction(1, 2), 2) == 1
        # int and float inputs take the float path
        assert ec_star(0, 2) == pytest.approx(2 / 3)
        assert ec_star(0.5, 2) == 1.0

    def test_monotone_in_e_b(self):
        values = [ec_star(i / 100, 2) for i in range(51)]
        assert values == sorted(values)
        assert all(v <= 1 for v in values)

    def test_above_half_leaves_region(self):
        assert ec_star(0.6, 2) > 1
        assert ec_star(1, 2) == 2

    def test_larger_fields_start_higher(self):
        # N/(2(N-1)) at e_b = 0 decreases toward 1/2 as N grows
        assert ec_star(0, 2) > ec_star(0, 3) > ec_star(0, 4) > Fraction(1, 2)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ec_star(0.1, 1)
        with pytest.raises(ValueError):
            ec_star(1.5, 2)


class TestFValue:
    def test_pin_at_boundary_point(self):
        p = FeasibilityPoint(0.3, 5 / 6, 0.0, 2)
        assert f_value(p) == pytest.approx(1 / 36, abs=1e-15)

    def test_exact_edge_identity(self):
        """On the slice edge f reduces to ((1-2e_b)/(3-2e_b))^2 at n = 2."""
        for num in range(0, 50):
            e_b = Fraction(num, 100)
            p = FeasibilityPoint(e_b, ec_star(e_b, 2), Fraction(0), 2)
            want = ((1 - 2 * e_b) / (3 - 2 * e_b)) ** 2
            assert f_value(p) == want

    def test_vanishes_at_half(self):
        # both quadratic terms equal 1/4 at the corner point, so f
        # cancels exactly while the bracket itself stays at 1/2
        p = FeasibilityPoint(0.5, 1.0, 0.0, 2)
        assert f_value(p) == 0.0
        assert bracket_value(p) == 0.5

    def test_e11_monotone_where_bracket_nonnegative(self):
        base = FeasibilityPoint(0.2, 0.9, 0.0, 2)
        assert bracket_value(base) > 0
        values = [f_value(FeasibilityPoint(0.2, 0.9, e, 2)) for e in (0, 0.1, 0.2, 0.3)]
        assert values == sorted(values)

    def test_point_validation(self):
        with pytest.raises(ValueError):
            FeasibilityPoint(1.2, 0.5)
        with pytest.raises(ValueError):
            FeasibilityPoint(0.5, -0.1)
        with pytest.raises(ValueError):
            FeasibilityPoint(0.5, 0.5, 0.0, 1)


class TestScan:
    def test_grid_1000_frontier(self):
        scan = e_max_scan(2, grid=1000)
        assert scan.e_max == 0.499
        assert scan.resolution == 0.001
        counts: dict[str, int] = {}
        for row in scan.rows:
            counts[row.status] = counts.get(row.status, 0) + 1
        assert counts == {
            STATUS_FEASIBLE: 500,
            STATUS_UNREACHABLE: 500,
            STATUS_BOUNDARY: 1,
        }

    def test_feasible_rows_form_prefix(self):
        scan = e_max_scan(2, grid=1000)
        statuses = [r.status for r in scan.rows]
        first_block = statuses[: statuses.index(STATUS_BOUNDARY)]
        assert set(first_block) == {STATUS_FEASIBLE}
        assert all(s == STATUS_UNREACHABLE for s in statuses[statuses.index(STATUS_BOUNDARY) + 1 :])

    def test_no_rejections_and_no_witnesses(self):
        decided = {STATUS_FEASIBLE, STATUS_BOUNDARY, STATUS_UNREACHABLE}
        for n in DEGREES:
            scan = e_max_scan(n, grid=1000)
            assert {r.status for r in scan.rows} <= decided
            assert not hasattr(scan, "witnesses")
            assert not any(hasattr(r, "witness") for r in scan.rows)

    def test_min_f_positive_on_feasible_rows(self):
        scan = e_max_scan(3, grid=1000)
        for row in scan.rows:
            if row.feasible:
                assert row.min_f > 0

    def test_csv_output(self):
        scan = e_max_scan(2, grid=1000)
        buf = io.StringIO()
        scan.to_csv(buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["e_b", "min_f", "feasible"]
        assert len(rows) == 1 + 1001
        assert rows[1][0] == "0.0" and rows[1][2] == "1"
        assert rows[-1][2] == "0"
        # unreachable slices leave min_f blank
        assert rows[-1][1] == ""

    def test_json_summary(self):
        import json

        scan = e_max_scan(2, grid=1000)
        blob = json.loads(json.dumps(scan.to_json_dict()))
        assert blob["e_max"] == 0.499
        assert blob["statuses"][STATUS_FEASIBLE] == 500

    def test_grid_floor_enforced(self):
        with pytest.raises(ValueError):
            e_max_scan(2, grid=999)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            e_max_scan(1)

    @pytest.mark.parametrize("n", [9, 600])
    def test_degree_above_the_field_range(self, n):
        # 9 was once scanned quietly and 600 overflowed float64
        with pytest.raises(ValueError, match=rf"n must be in \[2, 8\], got {n}"):
            e_max_scan(n)

    def test_rows_are_plain_tuples(self):
        rows = e_max_scan(2, grid=1000).rows
        assert rows[500] == (0.5, 0.0, STATUS_BOUNDARY)
        e_b, min_f, status = rows[-1]
        assert (e_b, min_f, status) == (1.0, None, STATUS_UNREACHABLE)
        assert not rows[-1].feasible


class TestAgainstSampledScan:
    @pytest.mark.parametrize("n", DEGREES)
    def test_statuses_e_b_and_e_max_match(self, n):
        for grid in (1000, 1001, 1999, 2000):
            scan = e_max_scan(n, grid=grid)
            ref_rows, ref_e_max = sampled_scan(n, grid)
            assert scan.e_max == ref_e_max
            assert [r.e_b.hex() for r in scan.rows] == [e.hex() for e, _, _ in ref_rows]
            assert [r.status for r in scan.rows] == [s for _, _, s in ref_rows]
            for row, (_, ref_f, _) in zip(scan.rows, ref_rows):
                if row.feasible:
                    # samples stay inside the slice, so they sit above f*
                    assert 0 <= ref_f - row.min_f <= 1e-6


class TestAgainstDataclassRows:
    """Bulk-built named-tuple rows against one dataclass built per slice."""

    @staticmethod
    def _fields(rows):
        return [
            (r.e_b.hex(), None if r.min_f is None else r.min_f.hex(), r.status, r.feasible)
            for r in rows
        ]

    @staticmethod
    def _csv(scan) -> str:
        buf = io.StringIO()
        scan.to_csv(buf)
        return buf.getvalue()

    @pytest.mark.parametrize("n", DEGREES)
    @pytest.mark.parametrize("grid", [1000, 1001, 1999, 2000, 20000])
    def test_rows_and_outputs_identical(self, n, grid):
        scan, ref = e_max_scan(n, grid=grid), reference_e_max_scan(n, grid)
        assert self._fields(scan.rows) == self._fields(ref.rows)
        assert scan.e_max == ref.e_max
        assert scan.to_json_dict() == ref.to_json_dict()
        assert self._csv(scan) == self._csv(ref)

    def test_each_call_builds_its_own_rows(self):
        first, second = e_max_scan(5, grid=2000), e_max_scan(5, grid=2000)
        assert type(first.rows) is tuple and len(first.rows) == 2001
        assert first.rows is not second.rows and first.rows == second.rows


class TestExactDecision:
    @pytest.mark.parametrize("n", DEGREES)
    def test_integer_rule_is_the_exact_sign(self, n):
        for grid in (1000, 1001):
            for k, row in enumerate(e_max_scan(n, grid=grid).rows):
                e_b = Fraction(k, grid)
                star = ec_star(e_b, n)
                if star > 1:
                    assert row.status == STATUS_UNREACHABLE
                    continue
                f = f_value(FeasibilityPoint(e_b, star, Fraction(0), n))
                if f > 0:
                    assert row.status == STATUS_FEASIBLE
                    assert row.min_f == pytest.approx(float(f), rel=1e-12, abs=0)
                else:
                    assert f == 0
                    assert row.status == STATUS_BOUNDARY and row.min_f == 0.0

    @pytest.mark.parametrize("n", DEGREES)
    def test_f_convex_and_rising_from_the_edge(self, n):
        """The infimum lemma: f'' > 0 and f'(ec_star) > 0 with B > 0."""
        order = 1 << n
        for grid in (1000, 1001):
            for k in range(grid // 2 + 1):
                e_b = Fraction(k, grid)
                p = FeasibilityPoint(e_b, ec_star(e_b, n), Fraction(0), n)
                bracket = bracket_value(p)
                slope = Fraction(order, order - 2) - e_b
                assert bracket > 0
                assert slope * slope > e_b * (1 - e_b)
                assert bracket * slope - e_b * (1 - e_b) * p.e_c > 0
