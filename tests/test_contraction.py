import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contraction_lab as cl
from contraction_lab import solver
from contraction_lab.contraction import ContractionKind, PairWitness, SelfMap
from contraction_lab.space import INEQ_ABS_TOL, INEQ_REL_TOL

from helpers import (ORACLE_RHS, _least_constants, line_space, pair_rhs, random_metric,
                     random_self_map, random_semimetric, stretched_space, unit_interval)

ALL_TAGS = (
    "partial",
    "partial_dual",
    "weak",
    "weak_dual",
    "bianchini",
    "chatterjea_bianchini",
)


def kind_for(tag, alpha, secondary):
    """A kind of the family `tag`; single-constant families take `alpha` as beta."""
    if tag in ("bianchini", "chatterjea_bianchini"):
        return ContractionKind(tag, beta=alpha)
    name = "beta" if tag.startswith("partial") else "delta"
    return ContractionKind(tag, alpha=alpha, **{name: secondary})


def two_point_space():
    return cl.FiniteSemimetricSpace(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestContractionKind:
    def test_constants_per_tag(self):
        assert ContractionKind("partial", alpha=0.3, beta=0.4).constants() == {
            "alpha": 0.3,
            "beta": 0.4,
        }
        assert ContractionKind("weak", alpha=0.3, delta=0.2).constants() == {
            "alpha": 0.3,
            "delta": 0.2,
        }
        assert ContractionKind("bianchini", beta=0.8).constants() == {"beta": 0.8}

    def test_rejects_missing_constant(self):
        with pytest.raises(ValueError):
            ContractionKind("partial", alpha=0.3)

    def test_rejects_extra_constant(self):
        with pytest.raises(ValueError):
            ContractionKind("bianchini", beta=0.5, alpha=0.1)

    def test_rejects_negative_constant(self):
        with pytest.raises(ValueError):
            ContractionKind("partial", alpha=-0.1, beta=0.2)
        # not a number: a string, a JSON boolean, null or a list
        for bad in ("x", True, False, None, [0.1]):
            with pytest.raises(ValueError):
                ContractionKind.from_json({"tag": "partial", "alpha": bad, "beta": 0.2})

    def test_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            ContractionKind("banach", alpha=0.5)

    def test_unknown_tag_message_echoes_a_huge_int(self):
        with pytest.raises(ValueError, match=r"^unknown contraction tag <int of 5001 digits>$"):
            ContractionKind(10**5000)

    def test_json_round_trip(self):
        for kind in (
            ContractionKind("partial", alpha=0.3, beta=0.4),
            ContractionKind("weak_dual", alpha=0.2, delta=0.7),
            ContractionKind("chatterjea_bianchini", beta=0.9),
        ):
            assert ContractionKind.from_json(kind.to_json()) == kind

    def test_from_json_rejects_stray_fields(self):
        with pytest.raises(ValueError):
            ContractionKind.from_json({"tag": "bianchini", "beta": 0.5, "gamma": 1})


class TestSelfMap:
    def test_requires_exactly_one_representation(self):
        with pytest.raises(ValueError):
            SelfMap()
        with pytest.raises(ValueError):
            SelfMap(images=(0,), expr="x")

    def test_images_validation_against_space(self):
        space = two_point_space()
        with pytest.raises(cl.StructuralError):
            SelfMap(images=(0, 2)).validate_for(space)
        with pytest.raises(cl.StructuralError):
            SelfMap(images=(0,)).validate_for(space)

    def test_expr_map_needs_interval_space(self):
        with pytest.raises(cl.StructuralError):
            SelfMap(expr="x/2").validate_for(two_point_space())
        with pytest.raises(cl.StructuralError):
            SelfMap(images=(0, 1)).validate_for(unit_interval())

    def test_expr_leaving_interval_rejected(self):
        with pytest.raises(cl.StructuralError) as err:
            SelfMap(expr="x*3").validate_for(unit_interval())
        assert "leaves the interval" in str(err.value)

    def test_from_json_rejects_bool_images(self):
        with pytest.raises(ValueError):
            SelfMap.from_json({"images": [0, True]})
        for bad in (5, "01", None, {"0": 1}):
            with pytest.raises(cl.StructuralError):
                SelfMap.from_json({"images": bad})

    def test_json_round_trip(self):
        table = SelfMap(images=(1, 0, 1))
        assert SelfMap.from_json(table.to_json()) == table
        formula = SelfMap(expr="x/2")
        assert SelfMap.from_json(formula.to_json()) == formula


class TestDefiningRhs:
    def test_all_six_families_on_worked_pair(self):
        space = stretched_space()
        to_x = SelfMap(images=(0, 0, 0))
        cases = {
            ContractionKind("partial", alpha=0.5, beta=0.3): 1.8,
            ContractionKind("partial_dual", alpha=0.5, beta=0.3): 1.8,
            ContractionKind("weak", alpha=0.5, delta=0.2): 1.7,
            ContractionKind("weak_dual", alpha=0.5, delta=0.2): 1.7,
            ContractionKind("bianchini", beta=0.8): 0.8,
            ContractionKind("chatterjea_bianchini", beta=0.8): 0.8,
        }
        for kind, expected in cases.items():
            assert pair_rhs(kind, space, to_x, "y", "z") == pytest.approx(
                expected, rel=1e-12
            ), kind.tag

    def test_primal_dual_asymmetry(self):
        space = line_space()
        mapping = SelfMap(images=(0, 0, 1))
        primal = pair_rhs(
            ContractionKind("partial", alpha=0.0, beta=1.0), space, mapping, "c", "a"
        )
        dual = pair_rhs(
            ContractionKind("partial_dual", alpha=0.0, beta=1.0), space, mapping, "c", "a"
        )
        assert primal == space.d(2, 1)
        assert dual == space.d(0, 0)


class TestVerifyContraction:
    def test_half_map_is_partial_contraction(self):
        cert = cl.verify_contraction(
            unit_interval(), SelfMap(expr="x/2"), ContractionKind("partial", alpha=0.5, beta=0.0)
        )
        assert cert.passed
        assert cert.scope == "sampled"
        assert cert.margin >= -1e-12

    def test_constant_map_passes_everything(self):
        space = stretched_space()
        const = SelfMap(images=(1, 1, 1))
        for tag in ALL_TAGS:
            kind = (
                ContractionKind(tag, beta=0.1)
                if tag in ("bianchini", "chatterjea_bianchini")
                else ContractionKind(tag, alpha=0.1, **(
                    {"beta": 0.0} if tag.startswith("partial") else {"delta": 0.0}
                ))
            )
            assert cl.verify_contraction(space, const, kind).passed, tag

    def test_identity_fails_bianchini_with_witness(self):
        cert = cl.verify_contraction(
            two_point_space(), SelfMap(images=(0, 1)), ContractionKind("bianchini", beta=0.9)
        )
        assert not cert.passed
        assert cert.witness == cl.contraction.PairWitness("a", "b", 1.0, 0.0)
        assert len(cert.violations) == 2

    def test_swap_fails_bianchini(self):
        cert = cl.verify_contraction(
            two_point_space(), SelfMap(images=(1, 0)), ContractionKind("bianchini", beta=0.9)
        )
        assert not cert.passed
        assert cert.violations[0].rhs == pytest.approx(0.9)

    def test_scaled_map_margin(self):
        cert = cl.verify_contraction(
            unit_interval(), SelfMap(expr="x/2"), ContractionKind("partial", alpha=0.6, beta=0.0)
        )
        assert cert.passed
        # coincident sample pairs pin the margin at zero
        assert cert.margin == 0.0
        assert cert.witness.lhs == cert.witness.rhs

    def test_interval_samples_are_seeded(self):
        kind = ContractionKind("partial", alpha=0.5, beta=0.0)
        a = cl.verify_contraction(unit_interval(), SelfMap(expr="x/2"), kind)
        b = cl.verify_contraction(unit_interval(), SelfMap(expr="x/2"), kind)
        assert a == b

    def test_constant_interval_map(self):
        # the expression evaluates to a scalar, not one image per sample
        const = SelfMap(expr="0.3")
        for tag in ALL_TAGS:
            cert = cl.verify_contraction(unit_interval(), const, kind_for(tag, 0.1, 0.0))
            assert cert.passed, tag
            assert cert.witness.lhs == 0.0
        kind = ContractionKind("bianchini", beta=0.1)
        cert = cl.verify_contraction(unit_interval(), const, kind, samples=50)
        assert cert.witness.rhs == pair_rhs(kind, unit_interval(), const,
                                            cert.witness.x, cert.witness.y)

    def test_huge_constant_does_not_warn(self):
        kind = ContractionKind("weak", alpha=0.1, delta=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # delta * d(x, Ty) = 2e308 overflows to inf at the pairs (a, b) and (0, 0)
            for space, mapping, x, y in ((line_space(), SelfMap(images=(1, 2, 0)), "a", "b"),
                                         (cl.IntervalSpace(0.0, 2.0), SelfMap(expr="2-x"), 0, 0)):
                cert = cl.verify_contraction(space, mapping, kind)
                assert math.isfinite(cert.margin)
                assert math.isinf(pair_rhs(kind, space, mapping, x, y))


class TestStepContractionFactor:
    def test_partial_sum(self):
        result = cl.step_contraction_factor(
            ContractionKind("partial", alpha=0.3, beta=0.4), cl.additive()
        )
        assert result.value == pytest.approx(0.7, rel=1e-12)
        assert result.derivable

    def test_partial_at_one_not_derivable(self):
        result = cl.step_contraction_factor(
            ContractionKind("partial", alpha=0.6, beta=0.5), cl.additive()
        )
        assert not result.derivable
        assert result.value is None

    def test_partial_dual_ratio(self):
        result = cl.step_contraction_factor(
            ContractionKind("partial_dual", alpha=0.3, beta=0.4), cl.additive()
        )
        assert result.value == pytest.approx(0.5, rel=1e-12)

    def test_weak_ratio_with_caveat(self):
        result = cl.step_contraction_factor(
            ContractionKind("weak", alpha=0.3, delta=0.2), cl.additive()
        )
        assert result.value == pytest.approx(0.625, rel=1e-12)
        assert result.caveats

    def test_weak_dual_keeps_alpha(self):
        result = cl.step_contraction_factor(
            ContractionKind("weak_dual", alpha=0.4, delta=0.9), cl.additive()
        )
        assert result.value == pytest.approx(0.4, rel=1e-12)

    def test_bianchini_keeps_beta(self):
        result = cl.step_contraction_factor(ContractionKind("bianchini", beta=0.7), cl.maximum())
        assert result.value == pytest.approx(0.7, rel=1e-12)

    def test_cb_max_recovers_beta(self):
        result = cl.step_contraction_factor(
            ContractionKind("chatterjea_bianchini", beta=0.8), cl.maximum()
        )
        assert result.value == pytest.approx(0.8, abs=1e-12)

    def test_cb_additive(self):
        result = cl.step_contraction_factor(
            ContractionKind("chatterjea_bianchini", beta=0.4), cl.additive()
        )
        # inverse of t+1 at 2.5 is 1.5, reciprocal 2/3
        assert result.value == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_cb_zero_beta(self):
        result = cl.step_contraction_factor(
            ContractionKind("chatterjea_bianchini", beta=0.0), cl.additive()
        )
        assert result.value == 0.0 and result.derivable

    def test_cb_power_one_boundary(self):
        for beta, ok in ((0.49, True), (0.5, False), (0.51, False)):
            result = cl.step_contraction_factor(
                ContractionKind("chatterjea_bianchini", beta=beta), cl.power(1.0)
            )
            assert result.derivable is ok, beta


class TestApplicability:
    def test_partial_additive(self):
        record = cl.applicability(ContractionKind("partial", alpha=0.3, beta=0.4), cl.additive())
        assert record.applicable and record.unique
        assert record.rate == pytest.approx(0.7)
        assert record.certified
        assert [c.name for c in record.checklist] == [
            "constants",
            "homogeneity",
            "chain_bound_finite",
            "origin_continuity",
        ]

    def test_partial_bscaled_chain_gate(self):
        kind = ContractionKind("partial", alpha=0.3, beta=0.3)
        blocked = cl.applicability(kind, cl.bscaled(2.0))
        assert not blocked.applicable
        assert blocked.failed() == ["chain_bound_finite"]
        allowed = cl.applicability(kind, cl.bscaled(1.5))
        assert allowed.applicable

    def test_partial_dual_zero_slot_gate(self):
        kind = ContractionKind("partial_dual", alpha=0.3, beta=0.4)
        assert cl.applicability(kind, cl.additive()).applicable
        blocked = cl.applicability(kind, cl.bscaled(2.0))
        assert "zero_slot_bound" in blocked.failed()
        assert cl.applicability(kind, cl.bscaled(1.0)).applicable

    def test_weak_subadditivity_gate(self):
        kind = ContractionKind("weak", alpha=0.2, delta=0.3)
        assert cl.applicability(kind, cl.additive()).applicable
        assert cl.applicability(kind, cl.power(2.0)).applicable
        blocked = cl.applicability(kind, cl.power(0.5))
        assert "bounded_by_sum" in blocked.failed()

    def test_weak_uniqueness_only_at_zero_delta(self):
        with_delta = cl.applicability(ContractionKind("weak", alpha=0.2, delta=0.3), cl.additive())
        assert with_delta.applicable and not with_delta.unique
        no_delta = cl.applicability(ContractionKind("weak", alpha=0.2, delta=0.0), cl.additive())
        assert no_delta.applicable and no_delta.unique

    def test_weak_constants_gate(self):
        blocked = cl.applicability(ContractionKind("weak", alpha=0.5, delta=0.3), cl.additive())
        assert "constants" in blocked.failed()  # alpha + 2*delta >= 1

    def test_weak_dual_needs_only_alpha(self):
        record = cl.applicability(ContractionKind("weak_dual", alpha=0.4, delta=2.0), cl.additive())
        assert record.applicable and not record.unique
        assert record.rate == pytest.approx(0.4)

    def test_bianchini_gates(self):
        assert cl.applicability(ContractionKind("bianchini", beta=0.8), cl.maximum()).applicable
        blocked = cl.applicability(ContractionKind("bianchini", beta=0.8), cl.bscaled(2.0))
        assert "zero_slot_bound" in blocked.failed()
        at_one = cl.applicability(ContractionKind("bianchini", beta=1.0), cl.maximum())
        assert "constants" in at_one.failed()

    def test_cb_power_one_boundary(self):
        for beta, ok in ((0.49, True), (0.5, False), (0.51, False)):
            record = cl.applicability(
                ContractionKind("chatterjea_bianchini", beta=beta), cl.power(1.0)
            )
            assert record.applicable is ok, beta
            if not ok:
                assert "inverse_gap" in record.failed()

    def test_cb_max_applies_for_all_beta_below_one(self):
        for beta in (0.1, 0.5, 0.9, 0.95):
            record = cl.applicability(
                ContractionKind("chatterjea_bianchini", beta=beta), cl.maximum()
            )
            assert record.applicable and record.unique
            assert record.rate == pytest.approx(beta, abs=1e-12)

    def test_cb_bscaled_distance_continuity_gate(self):
        blocked = cl.applicability(
            ContractionKind("chatterjea_bianchini", beta=0.2), cl.bscaled(2.0)
        )
        assert not blocked.applicable
        assert "distance_continuity" in blocked.failed()
        allowed = cl.applicability(
            ContractionKind("chatterjea_bianchini", beta=0.2), cl.bscaled(1.0)
        )
        assert allowed.applicable

    def test_custom_phi_reports_uncertified(self):
        record = cl.applicability(
            ContractionKind("chatterjea_bianchini", beta=0.25), cl.custom("u+v")
        )
        assert record.applicable
        assert not record.certified

    def test_custom_phi_slow_chain_blocks(self):
        # at rate 2/3 the chain has not settled at the depth cutoff
        record = cl.applicability(
            ContractionKind("chatterjea_bianchini", beta=0.4), cl.custom("u+v")
        )
        assert not record.applicable
        assert record.failed() == ["chain_bound_finite"]

    def test_constant_custom_phi_is_judged(self):
        for expr in ("0.5", "2"):
            for tag in ALL_TAGS:
                record = cl.applicability(kind_for(tag, 0.3, 0.2), cl.custom(expr))
                assert "homogeneity" in record.failed(), (expr, tag)
        bianchini = cl.applicability(ContractionKind("bianchini", beta=0.3), cl.custom("2"))
        zero_slot = {c.name: c for c in bianchini.checklist}["zero_slot_bound"]
        assert (zero_slot.passed, zero_slot.detail) == (False, "phi(0, 0) = 2")
        partial = cl.applicability(ContractionKind("partial", alpha=0.3, beta=0.2), cl.custom("0.5"))
        origin = {c.name: c for c in partial.checklist}["origin_continuity"]
        assert (origin.passed, origin.detail) == (False, "tail value 0.5")

    def test_named_families_agree_with_their_custom_restatements(self):
        # The closed-form verdicts of the table against the sampled probes on
        # the same function.  chain_bound_finite and full_continuity are left
        # out: their probes are conservative by design (an unsettled depth-64
        # chain, the infinite slope of power q = 0.5 at 0).
        restated = {
            cl.additive(): "u+v", cl.maximum(): "max(u,v)", cl.bscaled(1.0): "1*(u+v)",
            cl.bscaled(1.5): "1.5*(u+v)", cl.bscaled(2.0): "2*(u+v)",
            cl.power(0.5): "(sqrt(u)+sqrt(v))^2", cl.power(1.0): "u^1+v^1",
            cl.power(2.0): "sqrt(u^2+v^2)",
        }
        compared = ("homogeneity", "origin_continuity", "zero_slot_bound", "bounded_by_sum",
                    "distance_continuity", "zero_slot_at_beta", "inverse_gap")
        pairs = 0
        for (named, expr), tag, beta in itertools.product(
                restated.items(), ALL_TAGS, (0.3, 0.6, 0.9)):
            kind = kind_for(tag, beta, beta)
            closed = {c.name: c for c in cl.applicability(kind, named).checklist}
            sampled = {c.name: c for c in cl.applicability(kind, cl.custom(expr)).checklist}
            for name in compared:
                if name in closed:
                    assert closed[name].certified, (named, name)
                    assert closed[name].passed == sampled[name].passed, (named, tag, beta, name)
                    pairs += 1
        assert pairs == 8 * 3 * 15

    def test_principle_names_are_descriptive(self):
        for tag in ALL_TAGS:
            kind = (
                ContractionKind(tag, beta=0.3)
                if tag in ("bianchini", "chatterjea_bianchini")
                else ContractionKind(tag, alpha=0.2, **(
                    {"beta": 0.1} if tag.startswith("partial") else {"delta": 0.1}
                ))
            )
            record = cl.applicability(kind, cl.additive())
            assert "contraction" in record.principle


class TestStepRateOnOrbits:
    def test_weak_dual_orbit_rate_is_alpha(self):
        # the dual cross term vanishes on adjacent orbit pairs, so the
        # defining inequality itself caps every step ratio at alpha
        space = unit_interval()
        mapping = SelfMap(expr="x/2")
        kind = ContractionKind("weak_dual", alpha=0.6, delta=5.0)
        cert = cl.verify_contraction(space, mapping, kind)
        assert cert.passed
        trace = cl.picard_iterate(space, mapping, 1.0, max_iter=40)
        for prev, nxt in zip(trace.step_dists, trace.step_dists[1:]):
            assert nxt <= 0.6 * prev + 1e-12

    def test_weak_dual_rejects_orbit_rate_violator(self):
        # a chain a -> b -> c with unit steps cannot satisfy the dual form
        # for alpha < 1: the cross minimum is zero on the pair (c, b)
        cert = cl.verify_contraction(
            line_space(),
            SelfMap(images=(0, 0, 1)),
            ContractionKind("weak_dual", alpha=0.99, delta=100.0),
        )
        assert not cert.passed


# the part of the right-hand side beta multiplies, for the beta-only families
ORACLE_KERNEL = {
    "bianchini": lambda d, x, y, tx, ty: max(d(x, tx), d(y, ty)),
    "chatterjea_bianchini": lambda d, x, y, tx, ty: max(d(x, ty), d(y, tx)),
}


def oracle_certificate(kind, pairs, d, image, name):
    """(margin, witness, violations) by a double loop over `pairs`, in order."""
    margin, witness, violations = math.inf, None, []
    for x, y in pairs:
        lhs = d(image(x), image(y))
        rhs = ORACLE_RHS[kind.tag](kind, d, x, y, image(x), image(y))
        found = PairWitness(name(x), name(y), lhs, rhs)
        if rhs - lhs < margin:
            margin, witness = rhs - lhs, found
        if lhs > rhs * (1.0 + INEQ_REL_TOL) + INEQ_ABS_TOL:
            violations.append(found)
    return margin, witness, tuple(violations)


def oracle_beta_star(tag, pairs, d, image):
    """Brute-force max of lhs/kernel; None when some pair is unbounded."""
    best = 0.0
    for x, y in pairs:
        lhs = d(image(x), image(y))
        kernel = ORACLE_KERNEL[tag](d, x, y, image(x), image(y))
        if kernel > 0.0:
            best = max(best, lhs / kernel)
        elif lhs > 0.0:
            return None
    return best


class TestOracleParity:
    def test_verify_and_beta_star_match_double_loop(self):
        rng = np.random.default_rng(20261018)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            dist = rng.random((n, n)) * 2.0
            if rng.random() < 0.5:
                dist = np.round(dist, 1)  # ties and zero distances
            dist = dist + dist.T
            np.fill_diagonal(dist, 0.0)
            space = cl.FiniteSemimetricSpace(tuple(f"p{i}" for i in range(n)), dist)
            mapping = SelfMap(images=tuple(int(i) for i in rng.integers(0, n, n)))
            pairs = [(i, j) for i in range(n) for j in range(n)]

            def d(i, j):
                return float(dist[i, j])

            for tag in ALL_TAGS:
                alpha, secondary = (float(v) for v in rng.choice([0.0, 0.2, 0.5, 0.9, 1.3], 2))
                kind = kind_for(tag, alpha, secondary)
                cert = cl.verify_contraction(space, mapping, kind)
                margin, witness, violations = oracle_certificate(
                    kind, pairs, d, mapping, lambda i: space.labels[i])
                assert cert.scope == "all-pairs"
                assert (cert.margin, cert.witness, cert.violations) == (
                    margin, witness, violations), tag
                assert cert.violation_count == len(violations), tag
                for listed in (0, 1, 5):
                    short = cl.verify_contraction(space, mapping, kind, listed=listed)
                    assert short.violations == violations[:listed], (tag, listed)
                    assert short.violation_count == len(violations), (tag, listed)
                    assert short.passed == (not violations), (tag, listed)
                if tag in ORACLE_KERNEL:  # the acceptance fixture's least beta
                    assert _least_constants(tag, space, mapping) == oracle_beta_star(
                        tag, pairs, d, mapping), tag

        # one interval: the 9 corner/midpoint pairs, then the seeded samples
        space, mapping = cl.IntervalSpace(0.0, 2.0), SelfMap(expr="2-x/2")
        seed, samples = 11, 300
        ends = (0.0, 1.0, 2.0)
        drawn = 2.0 * np.random.default_rng(seed).random((samples, 2))
        pairs = [(x, y) for x in ends for y in ends] + [(float(x), float(y)) for x, y in drawn]

        def d(x, y):
            return abs(x - y)

        def image(x):
            return 2.0 - x / 2.0

        for tag in ALL_TAGS:
            for alpha, secondary in ((0.5, 0.0), (0.3, 0.4), (0.1, 0.05)):
                kind = kind_for(tag, alpha, secondary)
                cert = cl.verify_contraction(space, mapping, kind, seed=seed, samples=samples)
                margin, witness, violations = oracle_certificate(kind, pairs, d, image, float)
                assert cert.scope == "sampled"
                assert cert.margin == pytest.approx(margin, rel=1e-12, abs=1e-15), tag
                assert cert.witness == pytest.approx(witness, rel=1e-12, abs=1e-15), tag
                assert [(v.x, v.y) for v in cert.violations] == [
                    (v.x, v.y) for v in violations], tag


def _instance(kind: str, size: int, seed: int):
    """A finite space with a seeded self-map."""
    rng = np.random.default_rng(seed)
    if kind == "metric":
        space = random_metric(rng, size)
    elif kind == "semimetric":
        space = random_semimetric(rng, size)
    else:  # entries on a grid of quarters, so that many pairs are exactly tight
        upper = np.triu(rng.integers(1, 9, (size, size)) / 4.0, 1)
        space = cl.FiniteSemimetricSpace(tuple(f"p{i}" for i in range(size)), upper + upper.T)
    return space, random_self_map(rng, size)


INSTANCES = st.builds(_instance, st.sampled_from(["metric", "semimetric", "grid"]),
                      st.integers(2, 12), st.integers(0, 2**32 - 1))
RATES = st.floats(0.0, 1.0, exclude_max=True)


class TestCorollaries:
    """Relations the paper's corollaries give on the contraction side, exact
    in float64."""

    @settings(max_examples=40, deadline=None)
    @given(instance=INSTANCES, alpha=RATES)
    def test_banach_corollary(self, instance, alpha):
        # with secondary constant 0 every right-hand side is exactly alpha*d(x,y)
        space, mapping = instance
        kinds = [kind_for(tag, alpha, 0.0) for tag in ALL_TAGS[:4]]
        certificates = [cl.verify_contraction(space, mapping, kind).to_json() for kind in kinds]
        assert all({**c, "kind": None} == {**certificates[0], "kind": None} for c in certificates)
        for kind in kinds:
            for phi in (cl.additive(), cl.maximum(), cl.power(0.5)):
                assert cl.step_contraction_factor(kind, phi).value == alpha
            assert cl.applicability(kind, cl.additive()).applicable, kind

    @settings(max_examples=40, deadline=None)
    @given(instance=INSTANCES, constants=st.tuples(RATES, RATES), k=st.integers(0, 60))
    def test_scaling_by_a_power_of_two_keeps_every_violation(self, instance, constants, k):
        # the six right-hand sides scale exactly by 2^k, and the absolute slack does not
        space, mapping = instance
        scaled = cl.FiniteSemimetricSpace(space.labels, np.ldexp(space.dist, k))
        for tag in ALL_TAGS:
            kind = kind_for(tag, *constants)
            before = cl.verify_contraction(space, mapping, kind)
            after = cl.verify_contraction(scaled, mapping, kind)
            assert after.violation_count >= before.violation_count, tag
            assert ({(v.x, v.y) for v in before.violations}
                    <= {(v.x, v.y) for v in after.violations}), tag

    @settings(max_examples=40, deadline=None)
    @given(instance=INSTANCES, constants=st.tuples(RATES, RATES),
           seed=st.integers(0, 2**32 - 1))
    def test_relabelling_permutes_certificates_and_orbits(self, instance, constants, seed):
        space, mapping = instance
        perm = np.random.default_rng(seed).permutation(space.size)  # new point k is perm[k]
        where = np.argsort(perm)
        moved = cl.FiniteSemimetricSpace(tuple(space.labels[i] for i in perm),
                                         space.dist[np.ix_(perm, perm)])
        conjugate = SelfMap(images=tuple(int(where[mapping.images[i]]) for i in perm))
        for tag in ALL_TAGS:
            kind = kind_for(tag, *constants)
            before = cl.verify_contraction(space, mapping, kind)
            after = cl.verify_contraction(moved, conjugate, kind)
            assert after.violation_count == before.violation_count, tag
            assert after.margin == before.margin, tag
            # witnesses carry labels, which move with their points
            assert set(after.violations) == set(before.violations), tag
        assert ({moved.labels[i] for i in solver.brute_force_fixed_points(moved, conjugate)}
                == {space.labels[i] for i in solver.brute_force_fixed_points(space, mapping)})
        for start in range(space.size):
            trace = solver.picard_iterate(space, mapping, start)
            again = solver.picard_iterate(moved, conjugate, int(where[start]))
            assert again.point_labels() == trace.point_labels()
            assert again.step_dists == trace.step_dists
            assert again.stop_reason == trace.stop_reason
