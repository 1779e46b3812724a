import dataclasses
import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contraction_lab as cl
from contraction_lab import space as space_module
from contraction_lab.cli import MAX_LISTED_VIOLATIONS, run_command
from contraction_lab import trifun
from contraction_lab.trifun import INEQ_ABS_TOL, INEQ_REL_TOL, _json_float, violates

from helpers import (
    line_space,
    minimal_b_oracle,
    random_metric,
    random_semimetric,
    random_ultrametric,
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

    # an int past Python's 4,300-digit limit for str() is echoed by its digit count
    def test_labels_message_echoes_a_huge_int(self):
        with pytest.raises(cl.StructuralError,
                           match=r"^labels must be strings, got \(<int of 5001 digits>,\)$"):
            cl.FiniteSemimetricSpace((10**5000,), np.zeros((1, 1)))

    def test_matrix_message_echoes_a_huge_int(self):
        with pytest.raises(cl.StructuralError, match=r"^distance matrix must be an array or "
                           r"a list of lists of numbers, got \(\(<int of 5001 digits>,\),\)$"):
            cl.FiniteSemimetricSpace(("a",), ((10**5000,),))

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

    def test_endpoint_message_echoes_a_huge_int(self):
        with pytest.raises(cl.StructuralError, match=r"^interval endpoints must be finite "
                           r"numbers, got 0 and <int of 5001 digits>$"):
            cl.IntervalSpace(0, 10**5000)

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
        # the finite and the interval check name the failure with one detail
        for space in (cl.FiniteSemimetricSpace(("a", "b"), np.zeros((2, 2))),
                      cl.IntervalSpace(0.0, 1.0, "x*0")):
            failed = [c for c in cl.validate_semimetric(space).checks if not c.passed]
            assert [c.name for c in failed] == ["identity_distinct_positive"], space
            assert failed[0].detail == "distinct points at zero distance", space

    @pytest.mark.parametrize("diagonal", [-2.0, -0.5])
    def test_negative_diagonal_fails_only_the_checks_on_the_diagonal(self, diagonal):
        # distinct positive looks at x != y only, whatever sits on the diagonal
        space = cl.FiniteSemimetricSpace(("a", "b"), np.array([[diagonal, 1.0], [1.0, 0.0]]))
        failed = {c.name: c.witness for c in cl.validate_semimetric(space).checks if not c.passed}
        assert failed == {"nonnegative": ("a", "a", diagonal),
                          "identity_zero_self": ("a", diagonal)}

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

    def test_interval_witness_is_a_seeded_sample(self):
        # distinct points sit at distance 0 only for x in [0.29, 0.31], which no
        # fixed pair meets, so the witness pins the seeded sample stream
        space = cl.IntervalSpace(0.0, 1.0, "abs(x-y)*max(0, abs(x-0.3)-0.01)")
        for seed, witness in ((0, (0.2997118905373848, 0.20345524067614962, 0.0)),
                              (1, (0.303194829291645, 0.4227846732701278, 0.0))):
            checks = {c.name: c for c in cl.validate_semimetric(space, seed=seed).checks}
            check = checks["identity_distinct_positive"]
            assert not check.passed and check.witness == witness, seed


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
        assert np.allclose([v.rhs for v in report.violations], [rhs for *_, rhs in wanted],
                           rtol=1e-14, atol=0.0, equal_nan=True), (phi, listed)


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

    @pytest.mark.parametrize("kernel", ["separate", "additive", "power"])
    def test_memory_stays_quadratic(self, kernel):
        n = 300
        space = random_semimetric(np.random.default_rng(300), n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            if kernel == "separate":
                report = cl.triangle_report(space, cl.additive(), listed=5)
                best = cl.minimal_b_constant(space)
            else:  # validate's one pass
                phi = cl.additive() if kernel == "additive" else cl.power(0.5)
                report, best = space_module.triple_pass(space, phi, listed=5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.count > 0 and len(report.violations) == 5 and best > 1.0
        # one N^3 float64 temporary alone would be 216 MB
        assert peak < 16 * n * n * 8, f"peak {peak / (n * n * 8):.1f} N^2 float64"


def _blocks(block: int | None):
    """BLOCK_ELEMENTS set to `block` inside a with statement (None keeps it)."""
    return mock.patch.object(space_module, "BLOCK_ELEMENTS", block or space_module.BLOCK_ELEMENTS)


def _power(q: float):
    """Power q in plain Python as numpy evaluates it: NaN for a negative
    argument, inf where the result overflows."""
    def phi(u, v):
        if u < 0.0 or v < 0.0:
            return math.nan
        try:
            return (u**q + v**q) ** (1.0 / q)
        except OverflowError:
            return math.inf
    return phi


# power 0.3 is off numpy's fast paths and takes the power screen, which the
# signed space's negative entries turn off
EDGE_PHIS = {**ORACLE_PHIS, "power": (cl.power(0.5), _power(0.5)),
             "power 0.3": (cl.power(0.3), _power(0.3))}


def _edge_spaces():
    """Spaces at the edges of the one pass, as (name, matrix) params."""
    rng = np.random.default_rng(20261019)
    huge = 1.7e308 * np.triu(rng.uniform(0.5, 1.0, (13, 13)), 1)
    huge[:4, :4] = np.triu(rng.uniform(0.5, 1.0, (4, 4)), 1)  # some ratios near 1e308
    signed = np.triu(rng.choice([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0], (13, 13)), 1)
    signed[0, 1] = 1.0  # a positive entry, so that minimal_b >= 1
    cases = {
        "huge": huge + huge.T,
        "signed": signed + signed.T,
        # pair (p0, p1): its least sum -0.5 (through p2) violates additive Phi,
        # and minimal_b repairs it to its least positive sum 1 in the same block
        "repair": np.array([[0.0, 1.0, -1.0], [1.0, 0.0, 0.5], [-1.0, 0.5, 0.0]]),
        "one-point": np.zeros((1, 1)),
        "two-point": np.array([[0.0, 1.0], [1.0, 0.0]]),
    }
    return [pytest.param(name, dist, id=name) for name, dist in cases.items()]


class TestOnePassEdges:
    """The one pass against the triple loops at the edges of its screen and
    of the minimal-b repair, on every family, across block edges."""

    # blocks of one pair: a screen that passes a pair wrongly cannot hide
    # behind another pair of its block that fails
    @pytest.mark.parametrize("block", [None, 1, 60, 400])
    @pytest.mark.parametrize(("name", "dist"), _edge_spaces())
    def test_matches_triple_loops(self, name, dist, block):
        space = cl.FiniteSemimetricSpace(tuple(f"p{i}" for i in range(len(dist))), dist)
        with _blocks(block):
            for phi, fn in EDGE_PHIS.values():
                assert_report_matches(space, phi, finite_oracle(space, fn),
                                      lambda i: space.labels[i])
            if space.size < 2:
                with pytest.raises(ValueError):
                    cl.minimal_b_constant(space)
            else:
                with np.errstate(over="ignore"):  # the oracle's numpy sums overflow too
                    expected = minimal_b_oracle(space.dist)
                assert cl.minimal_b_constant(space) == expected
        if name == "repair":
            assert ("p0", "p1", "p2") in _violations(space, cl.additive())

    # blocks of one pair: the repair case's pair is then the only one its screen sees
    @pytest.mark.parametrize("block", [None, 1])
    @pytest.mark.parametrize(("name", "dist"), _edge_spaces())
    def test_validate_payload_is_the_two_reports(self, tmp_path, name, dist, block):
        space = cl.FiniteSemimetricSpace(tuple(f"p{i}" for i in range(len(dist))), dist)
        path = tmp_path / "space.json"
        path.write_text(json.dumps(space.to_json()))
        for phi, _ in EDGE_PHIS.values():
            with _blocks(block):
                payload = run_command(["validate", "--space", str(path),
                                       "--phi", json.dumps(phi.to_json())]).payload
            report = cl.triangle_report(space, phi, listed=MAX_LISTED_VIOLATIONS)
            assert payload["triangle"] == report.to_json()
            assert payload["minimal_b"] == (
                _json_float(cl.minimal_b_constant(space)) if space.size >= 2 else None)


def _bits(value: float) -> str:
    return float(value).hex()


def _per_block(space, phi, listed: int):
    """The triangle count and the first `listed` violations, with their
    sides' bits, from phi evaluated by `_finite_triples` on each of
    `triple_pass`'s blocks and every triple tested, with no screen and no
    operand mapped ahead of its block."""
    D, labels = space.dist, space.labels
    count, found = 0, []
    with np.errstate(all="ignore"):
        for xs, ys in space_module._triple_blocks(space.size):
            lhs, rhs = space_module._finite_triples(phi, D, xs, ys)
            bad = violates(lhs, rhs)
            count += int(np.count_nonzero(bad))
            found += [(labels[xs.start + x], labels[ys.start + y], labels[z],
                       _bits(lhs[x, y, 0]), _bits(rhs[x, y, z]))
                      for x, y, z in np.argwhere(bad)[:listed - len(found)].tolist()]
    return count, found


# entries on a grid of quarters, so that many sums tie, negative ones included,
# some just beyond violates' relative slack above the grid, and some off it
QUARTERS = st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0])
ENTRIES = st.one_of(QUARTERS, QUARTERS.map(lambda v: v * (1.0 + 1e-11)), st.floats(-1.0, 4.0))


@st.composite
def _matrices(draw):
    """Square matrices of up to 12 points with a zero diagonal, symmetric
    (D == D.T elementwise) or not, each zero of either sign."""
    n = draw(st.integers(1, 12))
    dist = np.array(draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        dist = np.where(np.tri(n, k=-1, dtype=bool), dist.T, dist)
    np.fill_diagonal(dist, 0.0)
    negative = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
    dist[(dist == 0.0) & negative.reshape(n, n)] = -0.0
    return dist


PASS_PHIS = (cl.additive(), cl.maximum(), cl.bscaled(1.5), cl.power(0.3), cl.power(0.5),
             cl.power(2.0), cl.custom("sqrt(u*u+v*v)"))


class TestThreeSteps:
    """The pass's least sums, whole-array screen and suspect blocks against
    the old per-block evaluation, bit for bit, and the upper blocks the
    least sums of a symmetric matrix are summed over."""

    @settings(max_examples=150, deadline=None)
    @given(dist=_matrices(), block=st.sampled_from([None, 1, 60, 400]))
    def test_matches_the_per_block_evaluation(self, dist, block):
        n = len(dist)
        space = cl.FiniteSemimetricSpace(tuple(f"p{i}" for i in range(n)), dist)
        # a zero diagonal makes the ratio through z = x exactly 1 on a positive pair
        positive = bool(np.any((dist > 0.0) & ~np.eye(n, dtype=bool)))
        with np.errstate(over="ignore"):  # a ratio over a subnormal sum is inf, as in the pass
            expected_b = None if n < 2 else minimal_b_oracle(dist) if positive else 0.0
        with _blocks(block):
            assert space_module.triple_pass(space)[1] == expected_b
            for phi in PASS_PHIS:
                count, found = _per_block(space, phi, 50)
                triangle, best = space_module.triple_pass(space, phi, 50)
                assert best == expected_b, phi
                for report in (triangle, cl.triangle_report(space, phi, listed=50)):
                    assert report.count == count, phi
                    assert [(v.x, v.y, v.z, _bits(v.lhs), _bits(v.rhs))
                            for v in report.violations] == found, phi

    @pytest.mark.parametrize("block", [None, 1, 60, 400])
    def test_upper_blocks_cover_each_upper_pair_once(self, block):
        with _blocks(block):
            for n in range(1, 21):
                self._check_upper(n)

    def test_upper_blocks_split_along_y_cover_each_upper_pair_once(self):
        assert len(list(space_module._triple_blocks(300))) > 300
        self._check_upper(300)

    @staticmethod
    def _check_upper(n):
        covered = np.zeros((n, n), dtype=int)
        for xs, ys in space_module._triple_blocks(n, upper=True):
            assert (xs.stop - xs.start) * (ys.stop - ys.start) * n <= max(
                space_module.BLOCK_ELEMENTS, n)
            assert ys.start >= xs.start
            covered[xs, ys] += 1
        assert covered.max() == 1 and np.all(covered[np.triu_indices(n)] == 1), n


def _plane(size: int, seed: int) -> cl.FiniteSemimetricSpace:
    """Euclidean distances between points of the plane with a few pairs
    stretched, so that under power q <= 1 most blocks pass the screen and
    some do not."""
    rng = np.random.default_rng(seed)
    points = rng.random((size, 2))
    dist = np.sqrt(np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2))
    for x, y in rng.integers(0, size, (max(2, size // 10), 2)):
        if x != y:
            dist[x, y] = dist[y, x] = 10.0 * dist[x, y]
    return cl.FiniteSemimetricSpace(tuple(f"p{i}" for i in range(size)), dist)


POWERS = (0.3, 0.5, 0.9, 1.0, 1.7, 2.0)
# from zero through the subnormals to near overflow, in both sign bits of zero
MAGNITUDES = st.one_of(st.just(0.0), st.just(-0.0), st.just(5e-324),
                       st.floats(0.0, 2.0**-1022), st.floats(0.0, 1e-290),
                       st.floats(0.0, 1e-20), st.floats(0.0, 1e6),
                       st.floats(1e290, np.finfo(np.float64).max))


class TestPowerScreen:
    """The one pass under power phi against its old per-block evaluation,
    bit for bit, and the margin of its screen by the least sum."""

    @pytest.mark.parametrize("q", POWERS)
    @pytest.mark.parametrize("block", [None, 60, 400])
    @pytest.mark.parametrize("size", [13, 60])
    def test_matches_the_per_block_evaluation(self, size, block, q):
        self._check(_plane(size, size), cl.power(q), block)

    @pytest.mark.parametrize("q", POWERS)
    def test_matches_the_per_block_evaluation_split_along_y(self, q):
        # above 256 points a block is one x row split along y
        space = _plane(300, 300)
        assert len(list(space_module._triple_blocks(300))) > 300
        self._check(space, cl.power(q), None)

    @staticmethod
    def _check(space, phi, block):
        with _blocks(block):
            count, found = _per_block(space, phi, 50)
            triangle, best = space_module.triple_pass(space, phi, 50)
            assert best == cl.minimal_b_constant(space)
        assert triangle.count == count > 0
        assert [(v.x, v.y, v.z, _bits(v.lhs), _bits(v.rhs)) for v in triangle.violations] == found

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(MAGNITUDES, MAGNITUDES), min_size=1, max_size=16),
           q=st.one_of(st.floats(1e-6, 1.0), st.sampled_from([0.3, 0.5, 0.999, 1.0])))
    def test_screen_passes_only_what_phi_passes(self, pairs, q):
        phi = cl.power(q)
        floor = trifun._KINDS["power"].sum_floor(phi, False)
        u, v = np.array(pairs).T
        with np.errstate(all="ignore"):  # sums near the top overflow, as in the pass
            sums = u + v
            screen = sums * floor
            largest_passed = screen * (1.0 + INEQ_REL_TOL) + INEQ_ABS_TOL
            assert not np.any(violates(largest_passed, screen))
            # contiguous operands and reversed views, which numpy may give to different loops
            for rhs in (trifun._eval(phi, u, v), trifun._eval(phi, u[::-1], v[::-1])[::-1]):
                # whatever lhs passes against the screen passes against phi
                assert not np.any(violates(largest_passed, rhs)), (u, v, q)
                # and above violates' absolute slack phi itself is no lower
                normal = sums >= 2.0**-94
                assert np.all(rhs[normal] >= screen[normal]), (u, v, q)

    @pytest.fixture
    def operand_calls(self, monkeypatch):
        calls = []
        power = trifun._KINDS["power"]

        def counted(phi, d):
            calls.append(d.shape)
            return power.operand(phi, d)

        monkeypatch.setitem(trifun._KINDS, "power",
                            dataclasses.replace(power, operand=counted))
        return calls

    @pytest.mark.parametrize("block", [None, 400])
    def test_a_clean_pass_maps_no_operand(self, operand_calls, block):
        # every block of a Euclidean space passes the screen under power 1/2
        space = random_metric(np.random.default_rng(7), 40)
        with _blocks(block):
            triangle, _ = space_module.triple_pass(space, cl.power(0.5), 5)
        assert triangle.count == 0 and operand_calls == []

    @pytest.mark.parametrize("q", [0.5, 2.0])
    @pytest.mark.parametrize("block", [None, 400])
    def test_semimetric_reports_map_each_operand_once(self, operand_calls, block, q):
        space = random_semimetric(np.random.default_rng(11), 40)
        with _blocks(block):
            count, found = _per_block(space, cl.power(q), 50)
            operand_calls.clear()
            triangle, _ = space_module.triple_pass(space, cl.power(q), 50)
        assert operand_calls == [(40, 40), (40, 40)]
        assert triangle.count == count > 0
        assert [(v.x, v.y, v.z, _bits(v.lhs), _bits(v.rhs)) for v in triangle.violations] == found

    def test_no_floor_above_one_or_on_negative_operands(self):
        power = trifun._KINDS["power"]
        assert power.sum_floor(cl.power(1.7), False) is None
        assert power.sum_floor(cl.power(0.5), True) is None
        assert power.sum_floor(cl.power(0.5), False) == 1.0 - 2.0**-42


def _space(kind: str, size: int, seed: int) -> cl.FiniteSemimetricSpace:
    rng = np.random.default_rng(seed)
    if kind == "semimetric":
        return random_semimetric(rng, size)
    if kind == "metric":
        return random_metric(rng, size)
    if kind == "ultrametric":
        return random_ultrametric(rng, size)
    # entries on a grid of quarters, so that many triples are exactly tight
    upper = np.triu(rng.integers(1, 9, (size, size)) / 4.0, 1)
    return cl.FiniteSemimetricSpace(tuple(f"p{i}" for i in range(size)), upper + upper.T)


SPACES = st.builds(_space, st.sampled_from(["semimetric", "metric", "ultrametric", "grid"]),
                   st.integers(2, 40), st.integers(0, 2**32 - 1))
SCALES = st.floats(1.0, 4.0)


def _violations(space, phi) -> set:
    return {(v.x, v.y, v.z) for v in cl.triangle_report(space, phi).violations}


class TestCorollaries:
    """Relations the paper's corollaries give, exact in float64, checked on
    spaces of up to 40 points and across block edges."""

    @pytest.mark.parametrize("block", [None, 60, 400])
    @settings(max_examples=25, deadline=None)
    @given(space=SPACES, scales=st.tuples(SCALES, SCALES))
    def test_violation_sets_nest_in_phi_order(self, block, space, scales):
        # fl(max(u,v)) <= fl(u+v) <= fl(K1*(u+v)) <= fl(K2*(u+v)) on non-negative floats
        k1, k2 = sorted(scales)
        with _blocks(block):
            chain = [_violations(space, phi) for phi in
                     (cl.bscaled(k2), cl.bscaled(k1), cl.additive(), cl.maximum())]
        assert all(inner <= outer for inner, outer in zip(chain, chain[1:]))

    @pytest.mark.parametrize("block", [None, 60, 400])
    @settings(max_examples=25, deadline=None)
    @given(space=SPACES)
    def test_space_is_a_b_metric_at_minimal_b(self, block, space):
        with _blocks(block):
            best = cl.minimal_b_constant(space)
            assert cl.triangle_report(space, cl.bscaled(best), listed=0).count == 0

    @settings(max_examples=25, deadline=None)
    @given(size=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
    def test_metrics_and_ultrametrics_have_no_violations(self, size, seed):
        assert cl.triangle_report(_space("metric", size, seed), cl.additive(), listed=0).count == 0
        assert cl.triangle_report(_space("ultrametric", size, seed), cl.maximum(),
                                  listed=0).count == 0

    @pytest.mark.parametrize("block", [None, 60, 400])
    @settings(max_examples=25, deadline=None)
    @given(space=SPACES, scale=SCALES, k=st.integers(0, 60))
    def test_scaling_by_a_power_of_two_keeps_every_violation(self, block, space, scale, k):
        # additive, max and bscaled scale exactly by 2^k, and the absolute slack does not
        scaled = cl.FiniteSemimetricSpace(space.labels, np.ldexp(space.dist, k))
        with _blocks(block):
            for phi in (cl.additive(), cl.maximum(), cl.bscaled(scale)):
                assert _violations(space, phi) <= _violations(scaled, phi), phi

    @pytest.mark.parametrize("block", [None, 60, 400])
    @settings(max_examples=25, deadline=None)
    @given(space=SPACES, scale=SCALES, seed=st.integers(0, 2**32 - 1))
    def test_relabelling_permutes_the_violations(self, block, space, scale, seed):
        perm = np.random.default_rng(seed).permutation(space.size)
        moved = cl.FiniteSemimetricSpace(tuple(space.labels[i] for i in perm),
                                         space.dist[np.ix_(perm, perm)])
        with _blocks(block):
            for phi in (cl.additive(), cl.maximum(), cl.bscaled(scale)):
                assert _violations(moved, phi) == _violations(space, phi)
            assert cl.minimal_b_constant(moved) == cl.minimal_b_constant(space)


class TestMinimalB:
    def test_stretched_space_value(self):
        assert cl.minimal_b_constant(stretched_space()) == 1.5

    def test_metric_space_value(self):
        assert cl.minimal_b_constant(line_space()) == 1.0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(20260814)
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
