import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import contraction_lab as cl
from contraction_lab.contraction import ContractionKind, SelfMap
from contraction_lab import solver
from contraction_lab.solver import BoundUnavailable, DomainEscapeError, IterationTrace
from contraction_lab.trifun import _json_float

from helpers import (
    bianchini_bound_instances,
    line_space,
    random_metric,
    random_self_map,
    reference_audit,
    reference_orbit,
    stretched_space,
    unit_interval,
)

# centre of the widest gap in the fixed validation sample of [0, 1]; a
# narrow spike here passes validate_for yet explodes under iteration
GAP_CENTER = 0.10013597896569826


def two_point_space():
    return cl.FiniteSemimetricSpace(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestPicardIterate:
    def test_half_map_orbit(self):
        trace = cl.picard_iterate(unit_interval(), SelfMap(expr="x/2"), 1.0)
        assert trace.stop_reason == "converged"
        assert len(trace.points) == 35
        assert trace.step_dists[:3] == (0.5, 0.25, 0.125)
        assert trace.rate_estimate == pytest.approx(0.5, rel=1e-12)
        assert trace.rate_geomean == pytest.approx(0.5, rel=1e-12)
        assert trace.limit == pytest.approx(0.0, abs=1e-10)

    def test_constant_map_settles_in_two_steps(self):
        trace = cl.picard_iterate(stretched_space(), SelfMap(images=(0, 0, 0)), "y")
        assert trace.stop_reason == "converged"
        assert trace.point_labels() == ["y", "x", "x"]
        assert trace.step_dists == (1.0, 0.0)

    def test_start_at_fixed_point(self):
        trace = cl.picard_iterate(stretched_space(), SelfMap(images=(0, 0, 0)), "x")
        assert trace.stop_reason == "converged"
        assert trace.point_labels() == ["x", "x"]
        assert trace.step_dists == (0.0,)

    def test_start_accepts_index_or_label(self):
        by_label = cl.picard_iterate(stretched_space(), SelfMap(images=(0, 0, 0)), "y")
        by_index = cl.picard_iterate(stretched_space(), SelfMap(images=(0, 0, 0)), 1)
        assert by_label.points == by_index.points

    def test_swap_detects_cycle(self):
        trace = cl.picard_iterate(two_point_space(), SelfMap(images=(1, 0)), "a")
        assert trace.stop_reason == "cycle_detected"
        assert trace.point_labels() == ["a", "b", "a"]
        assert trace.limit is None

    def test_max_iter_stop(self):
        trace = cl.picard_iterate(
            unit_interval(), SelfMap(expr="x/2"), 1.0, max_iter=3, tol=1e-300
        )
        assert trace.stop_reason == "max_iter"
        assert len(trace.points) == 4

    def test_interval_flip_detects_cycle(self):
        trace = cl.picard_iterate(unit_interval(), SelfMap(expr="1-x"), 0.25)
        assert trace.stop_reason == "cycle_detected"
        assert trace.points == (0.25, 0.75, 0.25)

    def test_a_revisit_needs_a_lag_of_two(self):
        # d(x, x) = 1: the orbit sits at its fixed point without converging
        space = cl.IntervalSpace(0.0, 1.0, "abs(x-y) + 1")
        trace = cl.picard_iterate(space, SelfMap(expr="0.5"), 0.25)
        assert trace.points == (0.25, 0.5, 0.5, 0.5)
        assert trace.stop_reason == "cycle_detected"

    def test_spiked_map_escapes_at_runtime(self):
        space = unit_interval()
        spiky = SelfMap(expr=f"x/2 + 4*max(0, 1 - 1000000*abs(x - {GAP_CENTER!r}))")
        spiky.validate_for(space)  # the sampled check cannot see the spike
        with pytest.raises(DomainEscapeError) as err:
            cl.picard_iterate(space, spiky, GAP_CENTER)
        assert "leaves [0.0, 1.0]" in str(err.value)

    @pytest.mark.parametrize("blow_up", ["1e-300/abs(x - 0.25)*1e-300",  # inf at 0.25
                                         "(1/(x - 0.25) - 1/(x - 0.25))"])  # nan at 0.25
    def test_map_value_inf_or_nan_escapes_quietly(self, blow_up):
        space, mapping = unit_interval(), SelfMap(expr=f"x/2 + {blow_up}")
        mapping.validate_for(space)  # finite at every sampled point
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainEscapeError) as chunked:
                cl.picard_iterate(space, mapping, 1.0)
            with pytest.raises(DomainEscapeError) as reference:
                reference_orbit(space, mapping, 1.0)
        assert str(chunked.value) == str(reference.value)
        assert str(chunked.value).startswith("iterate 3: T(0.25) = ")

    def test_chunks_leave_the_callers_error_state_alone(self):
        space = unit_interval()
        mapping = SelfMap(expr=f"x/2 + 1e-300/abs(x - {2.0**-40!r})*1e-300")  # inf at 2^-40
        with np.errstate(divide="raise", over="warn", under="ignore", invalid="call"):
            state = np.geterr()
            chunks = solver._interval_chunks(space, mapping, 1.0, 10_000)
            sizes = []
            with pytest.raises(DomainEscapeError):
                for iterates, steps in chunks:
                    assert np.geterr() == state
                    sizes.append(len(iterates))
            assert np.geterr() == state
        assert sizes == [16, 24]  # the second chunk ends at the escape, iterate 41

    def test_invalid_arguments(self):
        space, mapping = unit_interval(), SelfMap(expr="x/2")
        with pytest.raises(ValueError):
            cl.picard_iterate(space, mapping, 0.5, max_iter=0)
        with pytest.raises(ValueError):
            cl.picard_iterate(space, mapping, 0.5, tol=0.0)
        with pytest.raises(ValueError):
            cl.picard_iterate(space, mapping, 2.0)
        with pytest.raises(ValueError, match="start index 7 out of range"):
            cl.picard_iterate(stretched_space(), SelfMap(images=(0, 0, 0)), 7)
        for start in (-1, 1.9, 1.0, True, None):  # an index is an integer in range
            with pytest.raises(ValueError, match="start"):
                cl.picard_iterate(stretched_space(), SelfMap(images=(0, 0, 0)), start)
        with pytest.raises(cl.StructuralError):
            cl.picard_iterate(stretched_space(), SelfMap(images=(0, 0, 0)), "w")

    def test_trace_json_fields(self):
        trace = cl.picard_iterate(two_point_space(), SelfMap(images=(1, 0)), "a")
        payload = trace.to_json()
        assert payload["points"] == ["a", "b", "a"]
        assert payload["stop_reason"] == "cycle_detected"
        assert set(payload) == {
            "points",
            "step_dists",
            "stop_reason",
            "tol",
            "rate_estimate",
            "rate_geomean",
        }

    def test_trace_csv_shape(self):
        trace = cl.picard_iterate(stretched_space(), SelfMap(images=(0, 0, 0)), "y")
        lines = trace.to_csv().strip().split("\n")
        assert lines[0] == "n,x_n,step_dist"
        assert lines[1] == "0,y,1.0"
        assert lines[-1] == "2,x,"  # the final point has no outgoing step
        assert len(lines) == len(trace.points) + 1


class TestBruteForceFixedPoints:
    def test_identity_fixes_everything(self):
        assert cl.brute_force_fixed_points(stretched_space(), SelfMap(images=(0, 1, 2))) == [0, 1, 2]

    def test_swap_fixes_nothing(self):
        assert cl.brute_force_fixed_points(two_point_space(), SelfMap(images=(1, 0))) == []

    def test_constant_map_fixes_target(self):
        assert cl.brute_force_fixed_points(stretched_space(), SelfMap(images=(1, 1, 1))) == [1]

    def test_rejects_expression_maps(self):
        with pytest.raises(cl.StructuralError):
            cl.brute_force_fixed_points(stretched_space(), SelfMap(expr="x"))


class TestVerifyBound:
    def half_trace(self):
        return cl.picard_iterate(unit_interval(), SelfMap(expr="x/2"), 1.0)

    def test_half_map_bound_is_tight(self):
        report = cl.verify_bound(self.half_trace(), cl.additive(), 0.5, 0.0)
        assert report.passed
        assert report.min_slack == 0.0
        assert report.certified and report.note == ""
        assert report.c_alpha == 2.0 and report.d01 == 0.5
        first = report.rows[0]
        assert (first.bound, first.observed, first.step_bound) == (1.0, 1.0, 0.5)
        assert all(row.step_ok for row in report.rows)

    def test_wrong_fixed_point_fails_bounds_only(self):
        report = cl.verify_bound(self.half_trace(), cl.additive(), 0.5, 1.0)
        assert not report.passed
        assert not report.bounds_ok and report.steps_ok
        assert report.min_slack == pytest.approx(-1.0, abs=1e-9)

    def test_uncertified_without_distance_continuity(self):
        report = cl.verify_bound(self.half_trace(), cl.bscaled(1.1), 0.5, 0.0)
        assert report.passed
        assert not report.certified
        assert "not certified" in report.note
        assert report.c_alpha == pytest.approx(1.1 / (1.0 - 0.55), rel=1e-12)

    def test_orbit_from_fixed_point(self):
        trace = cl.picard_iterate(unit_interval(), SelfMap(expr="x/2"), 0.0)
        report = cl.verify_bound(trace, cl.additive(), 0.5, 0.0)
        assert report.passed
        assert report.d01 == 0.0
        assert all(row.bound == 0.0 and row.observed == 0.0 for row in report.rows)

    def test_report_csv_shape(self):
        report = cl.verify_bound(self.half_trace(), cl.additive(), 0.5, 0.0)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "n,x_n,step_dist,bound,observed,slack"
        assert lines[1] == "0,1.0,0.5,1.0,1.0,0.0"
        assert len(lines) == len(report.rows) + 1

    def test_report_json_fields(self):
        payload = cl.verify_bound(self.half_trace(), cl.additive(), 0.5, 0.0).to_json()
        assert set(payload) == {
            "alpha",
            "c_alpha",
            "d01",
            "min_slack",
            "bounds_ok",
            "steps_ok",
            "certified",
            "note",
            "rows",
        }
        assert set(payload["rows"][0]) == {"n", "x_n", "step_dist", "bound", "observed", "slack"}

    @pytest.mark.parametrize("case", ["nan slack", "one point", "finite", "half map", "lists"])
    def test_columns_serialise_as_the_rows_would(self, case):
        phi, alpha = cl.additive(), 0.5
        if case == "nan slack":  # d(0, 0) = 0/0 and d(0, 0.5) = inf: an infinite first step
            space = cl.IntervalSpace(0.0, 1.0, "abs(x-y)/x")
            trace = cl.picard_iterate(space, SelfMap(expr="0.5"), 0.0)
            fixed_point = 0.5
        elif case == "one point":
            trace = IterationTrace(unit_interval(), SelfMap(expr="x/2"), (0.0,), (), "converged",
                                   1e-10, None, None)
            fixed_point = 0.0
        elif case == "finite":
            trace = cl.picard_iterate(line_space(), SelfMap(images=(1, 2, 2)), "a")
            fixed_point = "c"
        elif case == "lists":  # a trace built by hand from lists, not tuples
            trace = IterationTrace(unit_interval(), SelfMap(expr="x/2"), [1.0, 0.5, 0.25],
                                   [0.5, 0.25], "max_iter", 1e-10, None, None)
            fixed_point = 0.0
        else:
            trace = cl.picard_iterate(unit_interval(), SelfMap(expr="x/2"), 1.0)
            fixed_point = 0.0
        report = cl.verify_bound(trace, phi, alpha, fixed_point)
        if isinstance(fixed_point, str):
            fixed_point = trace.space.index_of(fixed_point)
        rows, min_slack, bounds_ok, steps_ok = reference_audit(trace, phi, alpha, fixed_point)
        payload = {
            "alpha": alpha, "c_alpha": report.c_alpha,
            "d01": _json_float(trace.step_dists[0] if trace.step_dists else 0.0),
            "min_slack": _json_float(min_slack), "bounds_ok": bounds_ok, "steps_ok": steps_ok,
            "certified": report.certified, "note": report.note,
            "rows": [{"n": n, "x_n": point, "step_dist": _json_float(step),
                      "bound": _json_float(bound), "observed": _json_float(seen),
                      "slack": _json_float(slack)}
                     for n, point, step, bound, seen, slack, _, _ in rows],
        }
        csv = "".join(f"{n},{point},{'' if step is None else step},{bound},{seen},{slack}\n"
                      for n, point, step, bound, seen, slack, _, _ in rows)
        assert json.dumps(report.to_json(), sort_keys=True) == json.dumps(payload, sort_keys=True)
        assert report.to_csv() == "n,x_n,step_dist,bound,observed,slack\n" + csv
        _same(tuple(map(tuple, report.rows)), rows)
        if case == "nan slack":
            assert payload["rows"][0]["slack"] == "nan" and payload["d01"] == "inf"
            assert payload["min_slack"] == "nan" and not report.bounds_ok

    @pytest.mark.parametrize("column", [
        (), (0.5, -0.0, 1e-300), (1e308, 1e308), (-1e308, -1e308, 1.0), (1.0, math.inf),
        (-math.inf, 2.0), (math.inf, -math.inf), (0.25, math.nan), [math.nan, 1e308, 1e308],
    ])
    def test_json_column_spells_each_value_as_json_float(self, column):
        """Finite columns pass through, also those whose sum overflows."""
        assert repr(solver._json_column(column)) == repr([_json_float(v) for v in column])

    def test_reports_compare_by_value(self):
        """The orbit 0.25, 0.75, 0.25 audited against 0 and against 0.75:
        the same min_slack, -0.25, and different rows."""
        trace = cl.picard_iterate(unit_interval(), SelfMap(expr="1-x"), 0.25)
        report = cl.verify_bound(trace, cl.additive(), 0.5, 0.0)
        other = cl.verify_bound(trace, cl.additive(), 0.5, 0.75)
        assert report.min_slack == other.min_slack == -0.25
        assert report == cl.verify_bound(trace, cl.additive(), 0.5, 0.0)
        assert report != other

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            cl.verify_bound(self.half_trace(), cl.additive(), 1.0, 0.0)

    def test_finite_fixed_point_is_a_label_or_an_index_in_range(self):
        trace = cl.picard_iterate(line_space(), SelfMap(images=(1, 2, 2)), "a")
        by_label = cl.verify_bound(trace, cl.additive(), 0.5, "c")
        assert cl.verify_bound(trace, cl.additive(), 0.5, np.int64(2)) == by_label
        for fixed_point in (-1, 5, 0.0, 2.0, True):
            with pytest.raises(ValueError, match="fixed point"):
                cl.verify_bound(trace, cl.additive(), 0.5, fixed_point)
        with pytest.raises(cl.StructuralError):
            cl.verify_bound(trace, cl.additive(), 0.5, "w")

    # not a real, a bool, a string, or an integer no float64 holds
    NOT_INTERVAL_POINTS = (True, "0.5", "0", None, [0.5], 10**400)

    @pytest.mark.parametrize("point", NOT_INTERVAL_POINTS,
                             ids=("true", "string", "zero_string", "none", "list", "huge_int"))
    def test_interval_start_and_fixed_point_are_float64_numbers(self, point):
        message = "is not a float64 number"
        with pytest.raises(ValueError, match=f"^start .*{message}$"):
            cl.picard_iterate(unit_interval(), SelfMap(expr="x/2"), point)
        with pytest.raises(ValueError, match=f"^fixed point .*{message}$"):
            cl.verify_bound(self.half_trace(), cl.additive(), 0.5, point)

    def test_start_message_echoes_a_huge_int(self):
        # past Python's 4,300-digit limit for str(), the int is echoed by its digit count
        with pytest.raises(ValueError,
                           match=r"^start <int of 5001 digits> is not a float64 number$"):
            cl.picard_iterate(unit_interval(), SelfMap(expr="x/2"), 10**5000)

    def test_interval_start_outside_keeps_its_message(self):
        for start in (math.nan, math.inf, -0.5, 2):
            with pytest.raises(ValueError, match=r"^start .* outside \[0.0, 1.0\]$"):
                cl.picard_iterate(unit_interval(), SelfMap(expr="x/2"), start)
        by_float = cl.verify_bound(self.half_trace(), cl.additive(), 0.5, 0.0)
        for fixed_point in (0, np.float64(0.0), np.int64(0)):
            assert cl.verify_bound(self.half_trace(), cl.additive(), 0.5, fixed_point) == by_float

    def test_unavailable_chain_constant(self):
        for phi, alpha in ((cl.bscaled(2.0), 0.5), (cl.custom("2*(u+v)"), 0.6)):
            with pytest.raises(BoundUnavailable):
                cl.verify_bound(self.half_trace(), phi, alpha, 0.0)
        # an alpha outside [0, 1) is named before an infinite constant
        with pytest.raises(ValueError, match="alpha"):
            cl.verify_bound(self.half_trace(), cl.bscaled(2.0), 1.0, 0.0)

    def test_bianchini_orbits_respect_bound(self):
        beta = 0.6
        checked = 0
        for space, mapping in bianchini_bound_instances(beta, 10, seed=42):
            fixed = cl.brute_force_fixed_points(space, mapping)
            assert len(fixed) == 1  # beta < 1 forces a unique fixed point
            for start in range(space.size):
                trace = cl.picard_iterate(space, mapping, start)
                assert trace.stop_reason == "converged"
                report = cl.verify_bound(trace, cl.maximum(), beta, fixed[0])
                assert report.passed
                assert report.min_slack >= -1e-9
                checked += 1
        assert checked >= 30


# Distances the chunked orbit is held to: no power, constant exponents on
# and off numpy's fast paths, and an exponent that reads a variable.
REFERENCE_DISTANCES = ("abs(x-y)", "abs(x-y)^2", "sqrt(abs(x-y))", "abs(x-y)^1.5",
                       "abs(x-y)^(1+x*y)")
REFERENCE_PHIS = (cl.additive(), cl.maximum(), cl.power(0.5))


def _unit_floats(lo=0.0, hi=1.0):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


@st.composite
def _interval_maps(draw):
    """Affine maps a*x + b and maps c*sqrt(x^2 + e) of [0, 1] into itself,
    and the flip 1 - x."""
    shape = draw(st.sampled_from(("affine", "sqrt", "flip")))
    if shape == "affine":
        a = draw(_unit_floats(-0.99, 0.99))
        b = draw(_unit_floats(max(0.0, -a), min(1.0, 1.0 - a)))
        return f"{a!r}*x + {b!r}"
    if shape == "sqrt":
        c = draw(_unit_floats(0.05, 0.99))
        e = draw(_unit_floats(0.0, min(1.0, 0.999 * (1.0 / c**2 - 1.0))))
        return f"{c!r}*sqrt(x^2 + {e!r})"
    return "1-x"


@st.composite
def _orbit_kinds(draw):
    """(distance, map, x0) of an interval orbit of one kind: monotone up or
    down to its fixed point, oscillating about it, clamped at lo or hi (also
    under a distance with d(x, x) > 0, so that the clamped repeats cycle),
    escaping by NaN on its way down or up, or climbing and then jumping back
    onto an earlier iterate."""
    kind = draw(st.sampled_from(("monotone", "oscillating", "clamped", "nan", "cycle")))
    if kind in ("monotone", "oscillating"):
        fixed = draw(_unit_floats(0.4, 0.6))
        if kind == "monotone":
            a = draw(_unit_floats(0.05, 0.99))
        else:  # |a| * max(fixed, 1 - fixed) <= min(fixed, 1 - fixed): [0, 1] maps into itself
            a = -draw(_unit_floats(0.05, 0.66))
        return "abs(x-y)", f"{fixed!r} + {a!r}*(x - {fixed!r})", draw(_unit_floats())
    if kind == "clamped":
        step, over = draw(_unit_floats(0.01, 0.2)), draw(_unit_floats(0.0, 9e-13))
        dist = draw(st.sampled_from(("abs(x-y)", "abs(x-y) + 1e-5")))
        expr = draw(st.sampled_from((f"min(x + {step!r}, 1 + {over!r})",
                                     f"max(x - {step!r}, -{over!r})")))
        return dist, expr, draw(_unit_floats())
    if kind == "nan":  # NaN exactly at an iterate, which no sampled point hits
        k = draw(st.integers(2, 33))
        spike = "(1/(x - {0!r}) - 1/(x - {0!r}))"
        if draw(st.booleans()):
            return "abs(x-y)", "x/2 + " + spike.format(2.0**-k), 1.0
        return "abs(x-y)", "1 - (1 - x)/2 + " + spike.format(1.0 - 2.0**-k), 0.0
    step, threshold = draw(_unit_floats(0.005, 0.02)), draw(_unit_floats(0.1, 0.6))
    lag = draw(st.integers(3, max(3, int(threshold / step))))
    return ("abs(x-y)", f"x + {step!r} - {lag * step!r}*min(1, max(0, (x - {threshold!r})*1e9))",
            0.0)


def _same(chunked, reference):
    """Equal bit for bit: repr spells every float exactly, -0.0 and nan too."""
    assert repr(chunked) == repr(reference)


def _audits_match(trace, phi, alpha, fixed_point):
    report = cl.verify_bound(trace, phi, alpha, fixed_point)
    _same((tuple(map(tuple, report.rows)), report.min_slack, report.bounds_ok, report.steps_ok),
          reference_audit(trace, phi, alpha, fixed_point))


class TestChunkedOrbitMatchesReference:
    """The chunked orbit and columnar audit against the step-by-step walk."""

    @settings(max_examples=120, deadline=None)
    @given(dist=st.sampled_from(REFERENCE_DISTANCES), expr=_interval_maps(), x0=_unit_floats(),
           max_iter=st.integers(1, 3000), tol=st.sampled_from((1e-10, 1e-6, 1e-3)),
           phi=st.sampled_from(REFERENCE_PHIS), alpha=_unit_floats(0.0, 0.99))
    def test_interval_orbits(self, dist, expr, x0, max_iter, tol, phi, alpha):
        space, mapping = cl.IntervalSpace(0.0, 1.0, dist), SelfMap(expr=expr)
        trace = cl.picard_iterate(space, mapping, x0, max_iter=max_iter, tol=tol)
        _same((list(trace.points), list(trace.step_dists), trace.stop_reason),
              reference_orbit(space, mapping, x0, max_iter=max_iter, tol=tol))
        assert all(type(step) is float for step in trace.step_dists)
        _audits_match(trace, phi, alpha, trace.points[-1])

    @settings(max_examples=150, deadline=None)
    @given(case=_orbit_kinds())
    @example(case=("abs(x-y)", "x+0.01-0.26*min(1,max(0,(x-0.295)*1e9))", 0.0))
    def test_orbit_kinds(self, case):
        dist, expr, x0 = case
        space, mapping = cl.IntervalSpace(0.0, 1.0, dist), SelfMap(expr=expr)
        try:
            reference = reference_orbit(space, mapping, x0)
        except DomainEscapeError as escape:
            with pytest.raises(DomainEscapeError) as chunked:
                cl.picard_iterate(space, mapping, x0)
            assert str(chunked.value) == str(escape)
            return
        trace = cl.picard_iterate(space, mapping, x0)
        _same((list(trace.points), list(trace.step_dists), trace.stop_reason), reference)

    @pytest.mark.parametrize("threshold, lag, points", [
        (0.295, 26, 32),  # the revisit lands in the second chunk
        (0.155, 5, 18),  # on the first iterate of the second chunk
        (0.475, 5, 50),  # on the first iterate of the third chunk
    ])
    def test_a_jump_back_after_a_climb_is_a_cycle(self, threshold, lag, points):
        """The orbit from 0 climbs by 0.01 past `threshold`, then falls
        `lag` steps back onto an earlier iterate: the first gap that breaks
        the monotone prefix is the revisit itself."""
        mapping = SelfMap(expr=f"x+0.01-{lag / 100!r}*min(1,max(0,(x-{threshold!r})*1e9))")
        trace = cl.picard_iterate(unit_interval(), mapping, 0.0)
        assert trace.stop_reason == "cycle_detected" and len(trace.points) == points
        _same((list(trace.points), list(trace.step_dists), trace.stop_reason),
              reference_orbit(unit_interval(), mapping, 0.0))

    def test_a_turn_on_a_chunk_boundary_ends_the_prefix(self):
        """The orbit climbs through the whole first chunk, turns down on the
        first iterate of the second and falls to within 7e-13 of x_15: the
        scan sees that revisit only if the climb's direction is carried
        across the chunks."""
        climb = [0.25 + 0.01 * k for k in range(17)]
        path = [*climb, climb[16] - 0.005, climb[15] + 7e-13, 0.1]
        table = dict(zip(path, [*path[1:], 0.1]))
        mapping = SelfMap(expr=" + ".join(f"{image!r}*max(0, 1 - abs(x - {point!r})/1e-13)"
                                         for point, image in table.items()))
        trace = cl.picard_iterate(unit_interval(), mapping, climb[0])
        assert trace.stop_reason == "cycle_detected" and len(trace.points) == 19
        _same((list(trace.points), list(trace.step_dists), trace.stop_reason),
              reference_orbit(unit_interval(), mapping, climb[0]))

    @pytest.mark.parametrize("period", [3, 40])
    @pytest.mark.parametrize("offset", [0.0, 7e-13, -7e-13, 2e-12])
    @pytest.mark.parametrize("tail", [False, True])
    def test_revisits_within_and_across_chunks(self, period, offset, tail):
        """An orbit that walks `period` points of [0.25, 0.75] and comes
        back `offset` away from the first; from 0.9 it enters the walk at
        iterate 1.  The first visit and the revisit share a chunk at period 3
        with the tail and lie in different chunks otherwise; at 7e-13 either
        way the two keys differ by one."""
        walk = [0.25 + k * 0.5 / period for k in range(period)]
        table = dict(zip(walk, [*walk[1:], 0.25 + offset]))
        table[0.9] = 0.25
        width = 0.1 / period
        mapping = SelfMap(expr=" + ".join(f"{image!r}*max(0, 1 - abs(x - {point!r})/{width!r})"
                                         for point, image in table.items()))
        x0 = 0.9 if tail else 0.25
        trace = cl.picard_iterate(unit_interval(), mapping, x0, max_iter=3 * period)
        _same((list(trace.points), list(trace.step_dists), trace.stop_reason),
              reference_orbit(unit_interval(), mapping, x0, max_iter=3 * period))
        if abs(offset) < 1e-12:
            assert trace.stop_reason == "cycle_detected"
            assert len(trace.points) == period + tail + 1

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_iter=st.integers(1, 10),
           tol=st.sampled_from((1e-10, 0.3, 0.6, math.inf)), alpha=_unit_floats(0.0, 0.99))
    def test_finite_image_tables(self, seed, max_iter, tol, alpha):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(3, 9))
        space, mapping = random_metric(rng, size), random_self_map(rng, size)
        for start in range(size):
            trace = cl.picard_iterate(space, mapping, start, max_iter=max_iter, tol=tol)
            _same((list(trace.points), list(trace.step_dists), trace.stop_reason),
                  reference_orbit(space, mapping, start, max_iter=max_iter, tol=tol))
            _audits_match(trace, cl.additive(), alpha, trace.points[-1])

    @pytest.mark.parametrize("max_iter, stop", [(299, "max_iter"),
                                                (solver.MAX_ITER_DEFAULT, "cycle_detected")])
    def test_a_long_finite_cycle(self, max_iter, stop):
        """A cyclic permutation of 300 points from one start: 299 steps
        reach every point, and the 300th comes back to the start."""
        size = 300
        space = random_metric(np.random.default_rng(300), size)
        mapping = SelfMap(images=tuple((i + 1) % size for i in range(size)))
        trace = cl.picard_iterate(space, mapping, 7, max_iter=max_iter)
        assert trace.stop_reason == stop and len(trace.points) == min(max_iter, size) + 1
        _same((list(trace.points), list(trace.step_dists), trace.stop_reason),
              reference_orbit(space, mapping, 7, max_iter=max_iter))

    @pytest.mark.parametrize("center, stop", [
        (GAP_CENTER, "escape"),  # from x0 = GAP_CENTER: the first map value escapes
        (2.0**-20, "escape"),  # x/2 from 1 meets it at iterate 20, inside the second chunk
        (2.0**-34, "converged"),  # the limit: the orbit stops before mapping it
        (2.0**-35, "converged"),  # the first iterate past the stop
    ])
    def test_spiked_maps(self, center, stop):
        space = unit_interval()
        spiky = SelfMap(expr=f"x/2 + 4*max(0, 1 - 1e20*abs(x - {center!r}))")
        spiky.validate_for(space)  # the sampled check cannot see the spike
        x0 = GAP_CENTER if center == GAP_CENTER else 1.0
        if stop == "escape":
            with pytest.raises(DomainEscapeError) as chunked:
                cl.picard_iterate(space, spiky, x0)
            with pytest.raises(DomainEscapeError) as reference:
                reference_orbit(space, spiky, x0)
            assert str(chunked.value) == str(reference.value)
            return
        trace = cl.picard_iterate(space, spiky, x0)
        assert trace.stop_reason == "converged" and len(trace.points) == 35
        _same((list(trace.points), list(trace.step_dists), trace.stop_reason),
              reference_orbit(space, spiky, x0))
