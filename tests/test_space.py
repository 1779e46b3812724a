import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contraction_lab as cl
from contraction_lab import space as space_module
from contraction_lab.search import random_semimetric

from helpers import (
    line_space,
    minimal_b_oracle,
    stretched_space,
    triangle_oracle,
    unit_interval,
)


class TestFiniteConstruction:
    def test_accepts_integer_matrix(self):
        space = stretched_space()
        assert space.size == 3
        assert space.d(1, 2) == 3.0
        assert space.index_of("z") == 2

    def test_rejects_non_square(self):
        with pytest.raises(cl.StructuralError):
            cl.FiniteSemimetricSpace(("a", "b"), np.zeros((2, 3)))

    def test_rejects_label_mismatch(self):
        with pytest.raises(cl.StructuralError):
            cl.FiniteSemimetricSpace(("a",), np.zeros((2, 2)))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(cl.StructuralError):
            cl.FiniteSemimetricSpace(("a", "a"), np.zeros((2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(cl.StructuralError):
            cl.FiniteSemimetricSpace(
                ("a", "b"), np.array([[0.0, math.nan], [math.nan, 0.0]])
            )

    def test_rejects_what_the_field_rule_rejects(self):
        for labels, dist in (
            ((1, 2), [["0", "1"], ["1", "0"]]),
            ((1, 2), [[0.0, 1.0], [1.0, 0.0]]),
            (("a", "b"), [["0", "1"], ["1", "0"]]),
            (("a", "b"), [[False, True], [True, False]]),
            (("a", "b"), np.array([[False, True], [True, False]])),
            (("a", "b"), np.array([["0", "1"], ["1", "0"]])),
        ):
            with pytest.raises(cl.StructuralError):
                cl.FiniteSemimetricSpace(labels, dist)

    def test_accepts_number_lists_and_numeric_arrays(self):
        for dist in ([[0, 1], [1, 0]], [[0.0, 1.5], [1.5, 0.0]], np.array([[0, 1], [1, 0]])):
            space = cl.FiniteSemimetricSpace(("a", "b"), dist)
            assert space.dist.dtype == np.float64

    def test_unknown_label_lookup(self):
        with pytest.raises(cl.StructuralError):
            stretched_space().index_of("w")

    def test_json_round_trip(self):
        space = stretched_space()
        again = cl.FiniteSemimetricSpace.from_json(space.to_json())
        assert again.labels == space.labels
        assert np.array_equal(again.dist, space.dist)

    def test_space_from_json_dispatch(self):
        finite = cl.space_from_json({"labels": ["a", "b"], "dist": [[0, 1], [1, 0]]})
        assert isinstance(finite, cl.FiniteSemimetricSpace)
        interval = cl.space_from_json({"lo": 0, "hi": 2})
        assert isinstance(interval, cl.IntervalSpace)
        assert interval.d(0.5, 2.0) == 1.5


class TestIntervalConstruction:
    def test_default_distance(self):
        space = unit_interval()
        assert space.d(0.2, 0.9) == pytest.approx(0.7)
        assert space.contains(0.5) and not space.contains(1.5)

    def test_rejects_bad_order(self):
        with pytest.raises(cl.StructuralError):
            cl.IntervalSpace(1.0, 0.0)

    def test_rejects_distance_with_uv_variables(self):
        with pytest.raises(ValueError):
            cl.IntervalSpace(0.0, 1.0, "u+v")

    def test_distance_takes_the_shape_of_its_arguments(self):
        constant = cl.IntervalSpace(0, 1, "1")
        assert constant.d(np.arange(3.0), 0.0).shape == (3,)
        assert type(constant.d(0.0, 0.5)) is float

    def test_interval_points_lead_with_the_grid(self):
        space = cl.IntervalSpace(0.0, 2.0)
        xs, ys = space_module._interval_points(space, 2, 5, 7)
        assert (xs[:9].tolist(), ys[:9].tolist()) == ([0.0] * 3 + [1.0] * 3 + [2.0] * 3,
                                                      [0.0, 1.0, 2.0] * 3)
        random = 2.0 * np.random.default_rng(7).random((5, 2))
        assert (xs[9:].tolist(), ys[9:].tolist()) == (random[:, 0].tolist(), random[:, 1].tolist())
        (only,) = space_module._interval_points(space, 1, 4, 7)
        random = 2.0 * np.random.default_rng(7).random(4)
        assert only.tolist() == [0.0, 1.0, 2.0] + random.tolist()

    def test_json_round_trip(self):
        space = cl.IntervalSpace(0.0, 2.0, "(x-y)^2")
        again = cl.IntervalSpace.from_json(space.to_json())
        assert (again.lo, again.hi, again.dist_expr) == (0.0, 2.0, "(x-y)^2")


class TestValidateSemimetric:
    def test_finite_semimetric_passes(self):
        report = cl.validate_semimetric(stretched_space())
        assert report.passed and report.scope == "exhaustive"

    def test_asymmetric_fails_with_witness(self):
        space = cl.FiniteSemimetricSpace(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]))
        report = cl.validate_semimetric(space)
        failed = {c.name: c for c in report.checks if not c.passed}
        assert set(failed) == {"symmetry"}
        assert failed["symmetry"].witness == ("a", "b", 1.0, 2.0)

    def test_nonzero_diagonal_fails(self):
        space = cl.FiniteSemimetricSpace(("a", "b"), np.array([[0.5, 1.0], [1.0, 0.0]]))
        assert [c.name for c in cl.validate_semimetric(space).checks if not c.passed] == [
            "identity_zero_self"
        ]

    def test_zero_off_diagonal_fails(self):
        space = cl.FiniteSemimetricSpace(("a", "b"), np.zeros((2, 2)))
        assert [c.name for c in cl.validate_semimetric(space).checks if not c.passed] == [
            "identity_distinct_positive"
        ]

    def test_negative_entries_fail(self):
        space = cl.FiniteSemimetricSpace(("a", "b"), np.array([[0.0, -1.0], [-1.0, 0.0]]))
        names = [c.name for c in cl.validate_semimetric(space).checks if not c.passed]
        assert "nonnegative" in names

    def test_interval_abs_passes(self):
        report = cl.validate_semimetric(unit_interval())
        assert report.passed and report.scope == "sampled"

    def test_interval_failures(self):
        cases = {
            "x-y": {"nonnegative", "symmetry", "identity_distinct_positive"},
            "x*0": {"identity_distinct_positive"},
            "abs(x-y)+1": {"identity_zero_self"},
        }
        for expr, expected in cases.items():
            report = cl.validate_semimetric(cl.IntervalSpace(0.0, 1.0, expr))
            assert not report.passed
            assert {c.name for c in report.checks if not c.passed} == expected, expr

    def test_interval_squared_distance_is_still_a_semimetric(self):
        assert cl.validate_semimetric(cl.IntervalSpace(0.0, 1.0, "(x-y)^2")).passed


class TestGeneralizedTriangle:
    def test_additive_violation_on_stretched_space(self):
        violations = cl.triangle_report(stretched_space(), cl.additive()).violations
        assert len(violations) == 2
        first = violations[0]
        assert (first.x, first.y, first.z) == ("y", "z", "x")
        assert (first.lhs, first.rhs) == (3.0, 2.0)

    def test_power_half_clears_stretched_space(self):
        assert cl.triangle_report(stretched_space(), cl.power(0.5)).count == 0

    def test_max_fails_stretched_space(self):
        assert cl.triangle_report(stretched_space(), cl.maximum()).count

    def test_bscaled_boundary_exactly_tight(self):
        # K = 1.5 makes the worst triple exactly tight; no violation reported
        assert cl.triangle_report(stretched_space(), cl.bscaled(1.5)).count == 0
        assert cl.triangle_report(stretched_space(), cl.bscaled(1.4)).count

    def test_plain_metric_clears_additive(self):
        assert cl.triangle_report(line_space(), cl.additive()).count == 0

    def test_interval_abs_with_additive_clean(self):
        assert cl.triangle_report(unit_interval(), cl.additive()).count == 0

    def test_interval_abs_with_max_caught_at_corners(self):
        violations = cl.triangle_report(unit_interval(), cl.maximum()).violations
        first = violations[0]
        assert (first.x, first.y, first.z) == (0.0, 1.0, 0.5)
        assert (first.lhs, first.rhs) == (1.0, 0.5)

    def test_interval_under_constant_phi(self):
        violations = cl.triangle_report(unit_interval(), cl.custom("0.5")).violations
        first = violations[0]
        assert (first.x, first.y, first.z, first.lhs, first.rhs) == (0.0, 1.0, 0.0, 1.0, 0.5)

    def test_interval_squared_distance_under_power_half(self):
        space = cl.IntervalSpace(0.0, 1.0, "(x-y)^2")
        assert cl.triangle_report(space, cl.power(0.5)).count == 0
        assert cl.triangle_report(space, cl.additive()).count

    @pytest.mark.parametrize("expr", ["1/(u*v)", "u/v", "0*(1/u)", "1/u - 1/v"])
    def test_finite_and_interval_judge_non_finite_phi_alike(self, expr):
        # With no samples the interval is checked on its corner grid, the
        # ordered triples of {0, 1/2, 1} in row-major order: the triples of
        # this finite space.  An infinite Phi bounds everything; NaN violates.
        grid = np.array([0.0, 0.5, 1.0])
        finite = cl.FiniteSemimetricSpace(("0", "0.5", "1"), np.abs(grid[:, None] - grid))
        phi = cl.custom(expr)
        on_finite = cl.triangle_report(finite, phi)
        on_interval = cl.triangle_report(cl.IntervalSpace(0.0, 1.0), phi, samples=0)
        assert on_finite.count == on_interval.count
        assert [(float(v.x), float(v.y), float(v.z), repr(v.lhs), repr(v.rhs))
                for v in on_finite.violations] == [
            (v.x, v.y, v.z, repr(v.lhs), repr(v.rhs)) for v in on_interval.violations]
        assert cl.triangle_report(finite, cl.custom("1/(u*v)")).count == 0


# (spec, the same function in plain Python) pairs for the oracle
ORACLE_PHIS = {
    "additive": (cl.additive(), lambda u, v: u + v),
    "max": (cl.maximum(), max),
    "bscaled": (cl.bscaled(1.5), lambda u, v: 1.5 * (u + v)),
    "power": (cl.power(0.5), lambda u, v: (u**0.5 + v**0.5) ** 2.0),
    "custom": (cl.custom("max(u, v) + 0.25*min(u, v)"), lambda u, v: max(u, v) + 0.25 * min(u, v)),
}


def assert_report_matches(space, phi, found, name, **options):
    """triangle_report against the oracle's violations, for every listed
    value: the exact count, and the first violations in order (rhs within
    a few ulps, since numpy and math may round powers differently)."""
    for listed in (0, 1, 5, None):
        report = cl.triangle_report(space, phi, listed=listed, **options)
        assert report.count == len(found), (phi, listed)
        wanted = found if listed is None else found[:listed]
        assert [(v.x, v.y, v.z, v.lhs) for v in report.violations] == [
            (name(x), name(y), name(z), lhs) for x, y, z, lhs, _ in wanted], (phi, listed)
        assert np.allclose([v.rhs for v in report.violations],
                           [rhs for *_, rhs in wanted], rtol=1e-14, atol=0.0), (phi, listed)


def finite_oracle(space, fn):
    rows = space.dist.tolist()
    return triangle_oracle(itertools.product(range(space.size), repeat=3),
                           lambda i, j: rows[i][j], fn)


class TestStreamedTriangle:
    """The streamed kernels against plain loops, over several blocks."""

    def test_multi_block_spaces_match_triple_loop(self):
        rng = np.random.default_rng(20261018)
        # 100 points: blocks of 6 x rows, the last one of 4; 60 points: 18 rows, then 6
        cases = [(100, ("additive",)), (60, tuple(ORACLE_PHIS))]
        for n, names in cases:
            space = random_semimetric(rng, n)
            assert len(list(space_module._triple_blocks(n))) > 1
            for name in names:
                phi, fn = ORACLE_PHIS[name]
                assert_report_matches(space, phi, finite_oracle(space, fn),
                                      lambda i: space.labels[i])

    @pytest.mark.parametrize("block", [60, 400])
    def test_small_blocks_match_triple_loop(self, monkeypatch, block):
        # 13 points: 60 splits every x row along y, 400 takes two x rows at a time
        monkeypatch.setattr(space_module, "BLOCK_ELEMENTS", block)
        space = random_semimetric(np.random.default_rng(block), 13)
        for phi, fn in ORACLE_PHIS.values():
            assert_report_matches(space, phi, finite_oracle(space, fn),
                                  lambda i: space.labels[i])
        assert cl.minimal_b_constant(space) == minimal_b_oracle(space.dist)

    def test_interval_matches_loop_over_samples(self):
        space = cl.IntervalSpace(0.0, 2.0)
        seed, samples = 9, 300
        ends = (0.0, 1.0, 2.0)
        drawn = 2.0 * np.random.default_rng(seed).random((samples, 3))
        triples = list(itertools.product(ends, repeat=3)) + [tuple(map(float, t)) for t in drawn]
        for phi, fn in ORACLE_PHIS.values():
            found = triangle_oracle(triples, lambda x, y: abs(x - y), fn)
            assert_report_matches(space, phi, found, float, seed=seed, samples=samples)

    def test_unlisted_report_lists_everything(self):
        space = random_semimetric(np.random.default_rng(4), 50)
        report = cl.triangle_report(space, cl.additive())
        assert len(report.violations) == report.count > 0
        listed = cl.triangle_report(space, cl.additive(), listed=5)
        assert report.violations[:5] == listed.violations

    def test_memory_stays_quadratic(self):
        n = 300
        space = random_semimetric(np.random.default_rng(300), n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = cl.triangle_report(space, cl.additive(), listed=5)
            best = cl.minimal_b_constant(space)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.count > 0 and len(report.violations) == 5 and best > 1.0
        # one N^3 float64 temporary alone would be 216 MB
        assert peak < 16 * n * n * 8, f"peak {peak / (n * n * 8):.1f} N^2 float64"


class TestMinimalB:
    def test_stretched_space_value(self):
        assert cl.minimal_b_constant(stretched_space()) == 1.5

    def test_metric_space_value(self):
        assert cl.minimal_b_constant(line_space()) == 1.0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(20260814)
        from contraction_lab.search import random_semimetric

        for _ in range(10):
            space = random_semimetric(rng, int(rng.integers(3, 7)))
            assert cl.minimal_b_constant(space) == pytest.approx(
                minimal_b_oracle(space.dist), rel=1e-12
            )

    def test_multi_block_space_matches_oracle_exactly(self):
        space = random_semimetric(np.random.default_rng(7), 100)
        assert cl.minimal_b_constant(space) == minimal_b_oracle(space.dist)

    def test_tightness(self):
        rng = np.random.default_rng(42)
        from contraction_lab.search import random_semimetric

        for _ in range(10):
            space = random_semimetric(rng, int(rng.integers(3, 7)))
            k_star = cl.minimal_b_constant(space)
            exact = cl.custom(f"{k_star!r}*(u+v)")
            assert cl.triangle_report(space, exact).count == 0
            shrunk = cl.custom(f"{k_star * (1.0 - 1e-6)!r}*(u+v)")
            assert cl.triangle_report(space, shrunk).count


class TestViolatesRule:
    def test_strict_with_tolerance(self):
        from contraction_lab.space import violates

        assert not violates(1.0, 1.0)
        assert not violates(1.0 + 1e-13, 1.0)
        assert bool(violates(1.0 + 1e-11, 1.0))
        assert bool(violates(0.5, 0.4))

    def test_nan_violates(self):
        from contraction_lab.space import violates

        assert bool(violates(math.nan, 1.0)) and bool(violates(1.0, math.nan))
        assert violates(np.array([0.5, math.nan]), 1.0).tolist() == [False, True]
        assert not violates(math.inf, math.inf)

    @settings(max_examples=100, deadline=None)
    @given(lhs=st.floats(min_value=0, max_value=1e6))
    def test_never_flags_equal_sides(self, lhs):
        from contraction_lab.space import violates

        assert not violates(lhs, lhs)
