import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import contraction_lab as cl
from contraction_lab import trifun
from contraction_lab.trifun import TriangleFunctionSpec

from helpers import c_alpha_oracle, chain_oracle, phi_oracle, scalar_chain

NAMED = (
    cl.additive(),
    cl.maximum(),
    cl.bscaled(1.0),
    cl.bscaled(1.5),
    cl.bscaled(2.0),
    cl.power(0.5),
    cl.power(1.0),
    cl.power(2.0),
    cl.power(4.0),
)


class TestSpecValidation:
    def test_factories(self):
        assert cl.additive().kind == "additive"
        assert cl.maximum().kind == "max"
        assert cl.bscaled(2.0).K == 2.0
        assert cl.power(0.5).q == 0.5
        assert cl.custom("u+v").expr == "u+v"

    def test_bscaled_requires_K_at_least_one(self):
        with pytest.raises(ValueError):
            cl.bscaled(0.5)

    def test_power_requires_positive_q(self):
        with pytest.raises(ValueError):
            cl.power(0.0)
        with pytest.raises(ValueError):
            cl.power(-1.0)

    def test_custom_rejects_bad_expression(self):
        with pytest.raises(ValueError):
            cl.custom("u+")

    def test_custom_rejects_x_y_variables(self):
        with pytest.raises(ValueError):
            cl.custom("x+y")

    def test_json_round_trip(self):
        for phi in (*NAMED, cl.custom("max(u,v)")):
            assert TriangleFunctionSpec.from_json(phi.to_json()) == phi

    def test_from_json_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            TriangleFunctionSpec.from_json({"kind": "frobnicate"})

    def test_from_json_rejects_stray_fields(self):
        with pytest.raises(ValueError):
            TriangleFunctionSpec.from_json({"kind": "additive", "K": 2.0})

    def test_message_echoes_a_huge_int(self):
        # past Python's 4,300-digit limit for str(), the int is echoed by its digit count
        with pytest.raises(ValueError, match=r"^triangle function JSON must be an object, "
                           r"got \[<int of 5001 digits>\]$"):
            TriangleFunctionSpec.from_json([10**5000])
        with pytest.raises(ValueError, match=r"kind must be a string, got <int of 4301 digits>$"):
            TriangleFunctionSpec.from_json({"kind": -10**4300})

    def test_rejects_non_number_parameters(self):
        for doc in ({"kind": "bscaled", "K": "2"}, {"kind": "bscaled", "K": True},
                    {"kind": "power", "q": "0.5"}, {"kind": "power", "q": False}):
            with pytest.raises(ValueError):
                TriangleFunctionSpec.from_json(doc)


class TestEvaluate:
    def test_named_family_values(self):
        assert cl.evaluate(cl.additive(), 1.0, 2.0) == 3.0
        assert cl.evaluate(cl.maximum(), 1.0, 2.0) == 2.0
        assert cl.evaluate(cl.bscaled(2.0), 1.0, 2.0) == 6.0
        assert cl.evaluate(cl.power(2.0), 3.0, 4.0) == pytest.approx(5.0, rel=1e-12)
        assert cl.evaluate(cl.power(0.5), 1.0, 2.0) == pytest.approx(
            (1.0 + math.sqrt(2.0)) ** 2, rel=1e-12
        )

    def test_int_exponent_evaluates_in_float64(self):
        # an int q on int operands must not run np.power in int64, which wraps
        cases = ((2**40, 2**40), (3, 5), (0, 1), (np.array([2**40, 7]), np.array([2**40, 0])))
        for q in (1, 2, 3, 7):
            for u, v in cases:
                by_int = np.asarray(cl.evaluate(cl.power(q), u, v))
                by_float = np.asarray(cl.evaluate(cl.power(float(q)), np.asarray(u, float),
                                                  np.asarray(v, float)))
                assert by_int.dtype == np.float64, (q, u, v)
                assert by_int.tobytes() == by_float.tobytes(), (q, u, v)
        assert cl.evaluate(cl.power(3), 2**40, 2**40) == 1385297844439.1567

    def test_custom_value(self):
        assert cl.evaluate(cl.custom("u+v+u*v"), 1.0, 2.0) == 5.0

    def test_vectorized_matches_scalar(self):
        u = np.linspace(0.0, 3.0, 7)
        v = np.linspace(0.0, 2.0, 7)
        for phi in NAMED:
            vec = cl.evaluate(phi, u, v)
            scalar = [phi_oracle(phi, float(a), float(b)) for a, b in zip(u, v)]
            assert np.allclose(vec, scalar, rtol=1e-12, atol=0.0)

    def test_overflow_gives_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cl.evaluate(cl.additive(), 1e308, 1e308) == math.inf
            assert cl.unit_profile(cl.bscaled(2.0), 1e308) == math.inf

    def test_custom_negative_guard(self):
        with pytest.raises(cl.EvaluationError) as err:
            cl.evaluate(cl.custom("u*v-1"), 0.5, 0.5)
        assert "u=0.5" in str(err.value) and "v=0.5" in str(err.value)

    @settings(max_examples=150, deadline=None)
    @given(
        u=st.floats(min_value=0.0, max_value=50.0),
        v=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_symmetric_and_nonnegative(self, u, v):
        for phi in NAMED:
            a = cl.evaluate(phi, u, v)
            b = cl.evaluate(phi, v, u)
            assert a >= 0.0
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


class TestAxioms:
    def test_named_families_pass(self):
        for phi in NAMED:
            assert cl.check_axioms(phi).passed, phi

    def test_halved_max_passes(self):
        assert cl.check_axioms(cl.custom("max(u,v)/2")).passed

    def test_negative_at_origin_fails_with_witness(self):
        report = cl.check_axioms(cl.custom("u*v-1"))
        assert not report.passed
        assert report.failed_names() == ["zero_at_origin", "nonnegative"]
        origin = report.checks[0]
        assert origin.witness == (0.0, 0.0, -1.0)

    def test_asymmetric_fails_symmetry(self):
        report = cl.check_axioms(cl.custom("u+2*v"))
        assert report.failed_names() == ["symmetry"]
        (item,) = [c for c in report.checks if c.name == "symmetry"]
        u, v, left, right = item.witness
        assert left != pytest.approx(right)

    def test_overflowing_power_fails_without_warnings(self):
        # every value off the origin is inf; inf - inf must not warn
        assert cl.check_axioms(cl.power(1e-300)).failed_names() == ["nonnegative"]

    def test_constant_custom_is_spread_over_the_grid(self):
        report = cl.check_axioms(cl.custom("0.5"))
        assert report.failed_names() == ["zero_at_origin"]
        assert report.checks[0].witness == (0.0, 0.0, 0.5)

    def test_non_monotone_fails_both_slots(self):
        report = cl.check_axioms(cl.custom("abs(u-v)"))
        assert report.failed_names() == [
            "monotone_first_slot",
            "monotone_second_slot",
        ]


class TestHomogeneity:
    def test_named_families_are_homogeneous(self):
        for phi in NAMED:
            assert cl.check_homogeneity(phi).passed, phi

    def test_affine_custom_is_not(self):
        report = cl.check_homogeneity(cl.custom("u+v+u*v"))
        assert not report.passed
        k, u, v, scaled, direct = report.witness
        assert scaled != pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("expr", ("u+v+u*v", "u*u+v", "sqrt(u)+v", "1", "u/v", "max(u,v)",
                                      "(sqrt(u)+sqrt(v))^2", "u+v-1"))
    def test_one_array_pass_gives_the_scalar_loops_verdict(self, monkeypatch, expr):
        phi = cl.custom(expr)
        expected = trifun.HomogeneityReport(True)
        with np.errstate(all="ignore"):
            for k, u, v in zip(*trifun._HOMOGENEITY_SAMPLES.tolist()):
                scaled = float(trifun._eval(phi, k * u, k * v))
                direct = k * float(trifun._eval(phi, u, v))
                if abs(scaled - direct) > trifun.REL_TOL * max(1.0, abs(direct)):
                    expected = trifun.HomogeneityReport(False, (k, u, v, scaled, direct))
                    break
        calls = []
        raw = trifun._eval
        monkeypatch.setattr(trifun, "_eval", lambda phi, u, v: calls.append(u) or raw(phi, u, v))
        assert cl.check_homogeneity(phi) == expected
        assert len(calls) == 2


class TestChain:
    def test_additive_partial_sum(self):
        value = cl.chain_value(cl.additive(), 0.5, 10)
        assert value == 1.9990234375
        assert value == chain_oracle(cl.additive(), 0.5, 10)

    def test_max_chain_is_one(self):
        assert cl.chain_value(cl.maximum(), 0.9, 20) == 1.0

    def test_power_chain_matches_oracle(self):
        for q in (0.5, 1.0, 2.0):
            phi = cl.power(q)
            got = cl.chain_value(phi, 0.5, 16)
            assert got == pytest.approx(chain_oracle(phi, 0.5, 16), rel=1e-12)

    def test_bscaled_chain_below_proof_bound(self):
        phi = cl.bscaled(1.1)
        cap = 1.1 / 0.45
        values = [cl.chain_value(phi, 0.5, p) for p in range(1, 31)]
        assert all(v < cap for v in values)
        assert values == sorted(values)
        assert values[-1] == pytest.approx(chain_oracle(phi, 0.5, 30), rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            cl.chain_value(cl.additive(), 1.0, 4)
        with pytest.raises(ValueError):
            cl.chain_value(cl.additive(), -0.1, 4)
        with pytest.raises(ValueError):
            cl.chain_value(cl.additive(), 0.5, 0)

    def test_chain_never_exceeds_limit_constant(self):
        for phi in NAMED:
            for alpha in (0.0, 0.3, 0.7, 0.9):
                c = cl.chain_bound_constant(phi, alpha)
                if not math.isfinite(c):
                    continue
                for p in (1, 2, 8, 32, 64):
                    assert cl.chain_value(phi, alpha, p) <= c + 1e-9


class TestChainConstant:
    def test_closed_forms(self):
        assert cl.chain_bound_constant(cl.additive(), 0.5) == 2.0
        assert cl.chain_bound_constant(cl.maximum(), 0.9) == 1.0
        assert cl.chain_bound_constant(cl.power(2.0), 0.5) == 1.1547005383792515
        assert cl.chain_bound_constant(cl.power(0.5), 0.25) == pytest.approx(4.0, rel=1e-12)
        assert cl.chain_bound_constant(cl.bscaled(1.1), 0.5) == pytest.approx(
            1.1 / 0.45, rel=1e-12
        )

    def test_matches_oracle_on_grid(self):
        for phi in NAMED:
            for alpha in (0.1, 0.5, 0.9):
                assert cl.chain_bound_constant(phi, alpha) == pytest.approx(
                    c_alpha_oracle(phi, alpha), rel=1e-12, abs=0.0
                )

    def test_bscaled_divergence(self):
        assert cl.chain_bound_constant(cl.bscaled(2.0), 0.6) == math.inf
        assert cl.chain_bound_constant(cl.bscaled(2.0), 0.49) < math.inf

    def test_custom_settled_chain(self):
        assert cl.chain_bound_constant(cl.custom("u+v"), 0.5) == pytest.approx(
            2.0, rel=1e-12
        )

    def test_custom_unsettled_chain_is_inf(self):
        assert cl.chain_bound_constant(cl.custom("2*(u+v)"), 0.6) == math.inf

    def test_power_beyond_float_range_is_inf(self):
        # (1 - 0.3^0.001)^(-1000) overflows a float64
        assert cl.chain_bound_constant(cl.power(1e-3), 0.3) == math.inf
        report = cl.chain_report(cl.power(1e-3), 0.3)
        assert report.c_alpha == math.inf and report.certified
        assert cl.chain_bound_constant(cl.power(1e-3), 0.0) == 1.0

    def test_power_rounding_to_one_is_inf(self):
        # alpha**q rounds to 1.0, and 0.0**(-1/q) has no float value
        assert cl.chain_bound_constant(cl.power(1e-300), 0.5) == math.inf
        assert cl.chain_bound_constant(cl.power(1e-15), 0.999) == math.inf

    def test_report_fields(self):
        report = cl.chain_report(cl.additive(), 0.5)
        assert len(report.values) == 64
        assert report.certified and report.converged
        assert report.c_alpha == 2.0
        custom = cl.chain_report(cl.custom("u+v"), 0.5)
        assert custom.converged and not custom.certified
        divergent = cl.chain_report(cl.custom("2*(u+v)"), 0.6)
        assert not divergent.converged
        assert divergent.values[-1] > divergent.values[0]

    def test_report_values_equal_chain_value_exactly(self):
        # the report builds every depth in one sweep; each value must be
        # the one a scalar loop computes for that depth alone, bit for bit,
        # and chain_value reads the report
        cases = [(phi, alpha) for phi in NAMED for alpha in (0.0, 0.1, 0.5, 0.9)]
        cases += [
            (cl.custom("u+v"), 0.5),
            (cl.custom("(sqrt(u)+sqrt(v))^2"), 0.7),
            (cl.custom("2*(u+v)"), 0.6),
        ]
        for phi, alpha in cases:
            expected = tuple(scalar_chain(phi, alpha, p) for p in range(1, 65))
            assert cl.chain_report(phi, alpha).values == expected, (phi, alpha)
            assert cl.chain_value(phi, alpha, 64) == expected[-1]

    def test_report_evaluates_phi_once_per_level(self, monkeypatch):
        calls = []
        raw = trifun._eval
        monkeypatch.setattr(trifun, "_eval", lambda phi, u, v: calls.append(u) or raw(phi, u, v))
        report = cl.chain_report(cl.custom("u+v"), 0.5, p_max=100)
        assert len(report.values) == 100
        assert len(calls) == 100

    def test_report_rejects_bad_arguments(self):
        for alpha in (1.0, -0.1, math.nan):
            with pytest.raises(ValueError):
                cl.chain_report(cl.additive(), alpha)
            with pytest.raises(ValueError):
                cl.chain_report(cl.custom("u+v"), alpha)
        with pytest.raises(ValueError):
            cl.chain_report(cl.additive(), 0.5, p_max=0)


class TestLimitDeviationBattery:
    def test_vanishing_families_pass(self):
        for phi in (cl.additive(), cl.maximum(), cl.power(0.5), cl.power(1.0),
                    cl.power(2.0), cl.power(4.0), cl.bscaled(1.0)):
            report = cl.check_limit_deviation(phi)
            assert report.passed, (phi, report.witness)
            assert report.witness is None

    def test_bscaled_two_fails_with_constant_one_witness(self):
        report = cl.check_limit_deviation(cl.bscaled(2.0))
        assert not report.passed
        assert report.witness.y_name == "const_one"
        assert report.witness.x_name == "zero"
        assert report.witness.max_deviation == pytest.approx(1.0, rel=1e-6)

    def test_shifted_custom_fails(self):
        report = cl.check_limit_deviation(cl.custom("u+v+1"))
        assert not report.passed
        assert (report.witness.x_name, report.witness.y_name) == ("zero", "const_one")

    def test_custom_max_passes(self):
        assert cl.check_limit_deviation(cl.custom("max(u,v)")).passed

    def test_report_window_and_tol(self):
        report = cl.check_limit_deviation(cl.additive())
        assert report.window == (1000, 10001)
        assert report.tol == 1e-6
        assert report.origin_continuous


    def test_battery_runs_once_per_phi(self, monkeypatch):
        from contraction_lab import solver

        runs = []
        real = trifun.check_limit_deviation
        monkeypatch.setattr(trifun, "check_limit_deviation",
                            lambda phi: runs.append(phi) or real(phi))
        phi = cl.custom("max(u, v) + 0*u*v")  # a phi no other test runs the battery on
        for name in ("origin_continuity", "distance_continuity", "origin_continuity"):
            trifun.check_hypothesis(phi, name)
        space = cl.IntervalSpace(0.0, 1.0)
        trace = cl.picard_iterate(space, cl.SelfMap(expr="x/2"), 1.0)
        assert solver.verify_bound(trace, phi, 0.5, 0.0).certified
        assert runs == [phi]
        assert trifun.check_hypothesis(phi, "origin_continuity")[0]


class TestUnitProfile:
    def test_profile_values(self):
        assert cl.unit_profile(cl.additive(), 0.3) == 1.3
        assert cl.unit_profile(cl.maximum(), 2.0) == 2.0
        assert cl.unit_profile(cl.maximum(), 0.5) == 1.0

    def test_additive_inverse(self):
        assert cl.unit_profile_inverse(cl.additive(), 2.5) == 1.5
        assert cl.unit_profile_inverse(cl.additive(), 1.0) == 0.0
        assert cl.unit_profile_inverse(cl.additive(), 0.8) == 0.0

    def test_max_inverse_piecewise(self):
        assert cl.unit_profile_inverse(cl.maximum(), 0.7) == 0.0
        assert cl.unit_profile_inverse(cl.maximum(), 1.0) == 0.0
        assert cl.unit_profile_inverse(cl.maximum(), 1.3) == 1.3
        assert cl.unit_profile_inverse(cl.maximum(), 2.5) == 2.5

    def test_power_inverse(self):
        assert cl.unit_profile_inverse(cl.power(1.0), 2.0) == 1.0
        assert cl.unit_profile_inverse(cl.power(2.0), 2.0) == pytest.approx(
            math.sqrt(3.0), rel=1e-12
        )
        assert cl.unit_profile_inverse(cl.power(0.5), 4.0) == pytest.approx(
            1.0, rel=1e-12
        )
        # tau**q overflows here, although the inverse is tau to within float64
        assert cl.unit_profile_inverse(cl.power(200.0), 1000.0) == 1000.0

    def test_bscaled_inverse(self):
        assert cl.unit_profile_inverse(cl.bscaled(2.0), 3.0) == 0.5
        assert cl.unit_profile_inverse(cl.bscaled(2.0), 1.5) == 0.0

    def test_custom_bisection_matches_closed_form(self):
        got = cl.unit_profile_inverse(cl.custom("u+v"), 2.5)
        assert got == pytest.approx(1.5, abs=1e-9)

    def test_bounded_profile_gives_inf(self):
        assert cl.unit_profile_inverse(cl.custom("min(u,1)+v"), 3.0) == math.inf

    @pytest.mark.parametrize("tau", (-1.0, math.nan))
    def test_tau_must_be_non_negative(self, tau):
        for phi in (cl.additive(), cl.custom("u+v")):
            with pytest.raises(ValueError, match="^tau must be non-negative$"):
                cl.unit_profile_inverse(phi, tau)

    @settings(max_examples=150, deadline=None)
    @given(t=st.floats(min_value=0.0, max_value=50.0))
    @example(t=0.0006079079734155892)  # the power(4) closed form gave 0.00060814
    def test_generalized_inverse_never_overshoots(self, t):
        for phi in (*NAMED, cl.custom("u+v")):
            tau = cl.unit_profile(phi, t)
            assert cl.unit_profile_inverse(phi, tau) <= t + 1e-9


class TestSubadditivity:
    @settings(max_examples=150, deadline=None)
    @given(
        u=st.floats(min_value=0.0, max_value=20.0),
        v=st.floats(min_value=0.0, max_value=20.0),
    )
    def test_power_q_at_least_one_below_sum(self, u, v):
        for q in (1.0, 2.0, 4.0):
            assert cl.evaluate(cl.power(q), u, v) <= u + v + 1e-9

    def test_power_below_one_exceeds_sum(self):
        value = cl.evaluate(cl.power(0.5), 1.0, 1.0)
        assert value == pytest.approx(4.0, rel=1e-12)
        assert value > 2.0
