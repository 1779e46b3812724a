"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single "criterion N: PASS/FAIL" line (run with -s to see
them all).  Criterion 2 checks the chain constant C(alpha) at 1e-9 in two
ways.  At depth 64 the chain value must equal C(alpha) less the chain's true
tail C(alpha) - nest(alpha, 64), which the closed-form oracles in helpers
give; at slow rates that tail is far above 1e-9, so comparing the depth-64
value with C(alpha) alone would demand the impossible.  At the depth where
the analytic tail drops below 1e-10 the chain value must equal C(alpha)
itself.  The tolerance and the 10 ms budget of the timed depth-64 body must
never be loosened; on failure the line names every failing combination with
its expected and measured values.
"""

import json
import math

import numpy as np
import pytest

import contraction_lab as cl
from contraction_lab.cli import main
from contraction_lab.contraction import ContractionKind, SelfMap

from helpers import (
    bianchini_bound_instances,
    c_alpha_oracle,
    nest_oracle,
    rate_instances,
    stretched_space,
    unit_interval,
)

import time

ALL_TAGS = (
    "partial",
    "partial_dual",
    "weak",
    "weak_dual",
    "bianchini",
    "chatterjea_bianchini",
)


def report(num: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num}: {status} - {detail}")
    if not passed:
        pytest.fail(f"criterion {num}: {detail}")


def timed(fn):
    fn()  # warm caches so the budget measures steady-state cost
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def rate_sets():
    return {tag: rate_instances(tag, 200, seed=20240814) for tag in ALL_TAGS}


def test_c1_three_point_example():
    space = stretched_space()

    def body():
        return (
            cl.triangle_report(space, cl.additive()).violations,
            cl.triangle_report(space, cl.power(0.5)).violations,
            cl.minimal_b_constant(space),
        )

    (additive_violations, power_violations, b), elapsed = timed(body)
    ok = (
        len(additive_violations) > 0
        and additive_violations[0].lhs == 3.0
        and additive_violations[0].rhs == 2.0
        and power_violations == ()
        and b == 1.5
        and elapsed < 1e-3
    )
    report(1, ok, f"violation 3>2 under additive, clean under power q=0.5, "
                  f"minimal scaling constant {b}, {elapsed * 1e3:.2f} ms")


def settling_depth(phi, alpha: float) -> int:
    """Least depth at which the analytic tail C(alpha) - nest drops below 1e-10."""
    limit = c_alpha_oracle(phi, alpha)
    for p in range(1, 10_000):
        if limit - nest_oracle(phi, alpha, p) < 1e-10:
            return p
    raise AssertionError(f"tail of {phi} at alpha={alpha} never settles")


def test_c2_chain_constant_closed_forms():
    families = [
        ("additive", cl.additive()),
        ("max", cl.maximum()),
        ("power q=0.5", cl.power(0.5)),
        ("power q=1", cl.power(1.0)),
        ("power q=2", cl.power(2.0)),
    ]
    # the depth-64 value falls short of C(alpha) by the chain's true tail,
    # which both oracles give in closed form
    combos = [
        (name, phi, alpha, c_alpha_oracle(phi, alpha) - nest_oracle(phi, alpha, 64))
        for name, phi in families
        for alpha in (0.1, 0.5, 0.9)
    ]

    def body():
        gaps = []
        for name, phi, alpha, tail in combos:
            value = cl.chain_value(phi, alpha, 64)
            expected = cl.chain_bound_constant(phi, alpha) - tail
            if not abs(value - expected) <= 1e-9:
                gaps.append((name, alpha, 64, expected, value))
        # the chain converges up to the ceiling; in doubles late values
        # round to it exactly, so "stays below" means "never exceeds"
        ceiling = 1.1 / 0.45
        scaled_ok = all(
            v <= ceiling for v in cl.chain_report(cl.bscaled(1.1), 0.5).values
        )
        return gaps, scaled_ok

    (gaps, scaled_ok), elapsed = timed(body)

    # at the depth its tail requires, the chain reaches C(alpha) itself
    deepest = 0
    for name, phi, alpha, _ in combos:
        p = settling_depth(phi, alpha)
        deepest = max(deepest, p)
        value = cl.chain_value(phi, alpha, p)
        limit = cl.chain_bound_constant(phi, alpha)
        if not abs(value - limit) <= 1e-9:
            gaps.append((name, alpha, p, limit, value))

    ok = not gaps and scaled_ok and elapsed < 1e-2
    detail = (
        f"{len(combos)} combinations match C(alpha) less the true tail at "
        f"depth 64 and C(alpha) at the settling depth (up to {deepest}) "
        f"within 1e-9; bscaled ceiling held: {scaled_ok}, {elapsed * 1e3:.2f} ms"
    )
    if gaps:
        detail = "; ".join(
            f"{name} alpha={alpha} depth {p}: expected {expected!r}, "
            f"got {value!r}, gap {expected - value:.3g}"
            for name, alpha, p, expected, value in gaps
        ) + "; " + detail
    report(2, ok, detail)


def test_c3_unit_profile_inverses():
    rng = np.random.default_rng(314159)

    def body():
        max_ok = all(
            abs(cl.unit_profile_inverse(cl.maximum(), tau)
                - (0.0 if tau <= 1.0 else tau)) <= 1e-9
            for tau in rng.uniform(0.0, 3.0, 100)
        )
        power_ok = all(
            abs(cl.unit_profile_inverse(cl.power(q), tau)
                - (tau**q - 1.0) ** (1.0 / q)) <= 1e-9
            for q, tau in zip(rng.uniform(0.3, 4.0, 100), rng.uniform(1.0, 6.0, 100))
        )
        families = (
            cl.additive(), cl.maximum(), cl.power(0.5), cl.power(1.0),
            cl.power(2.0), cl.bscaled(1.1), cl.bscaled(2.0), cl.custom("u+v"),
        )
        round_trip_ok = all(
            cl.unit_profile_inverse(phi, cl.unit_profile(phi, t)) <= t + 1e-9
            for phi in families
            for t in rng.uniform(0.0, 10.0, 1000)
        )
        return max_ok, power_ok, round_trip_ok

    (max_ok, power_ok, round_trip_ok), _ = timed(body)
    ok = max_ok and power_ok and round_trip_ok
    report(3, ok, f"max piecewise: {max_ok}, power closed form: {power_ok}, "
                  f"round trip at 1000 points x 8 families: {round_trip_ok}")


def test_c4_vanishing_deviation_battery():
    passers = [
        cl.additive(), cl.maximum(),
        cl.power(0.5), cl.power(1.0), cl.power(2.0), cl.power(4.0),
    ]

    def body():
        good = all(cl.check_limit_deviation(p).passed for p in passers)
        fail = cl.check_limit_deviation(cl.bscaled(2.0))
        return good, fail

    (good, fail), elapsed = timed(body)
    witness_ok = (
        not fail.passed
        and fail.witness is not None
        and fail.witness.y_name == "const_one"
        and fail.witness.max_deviation > 1e-6
    )
    ok = good and witness_ok and elapsed < 1.0
    report(4, ok, f"six families pass below 1e-6, bscaled K=2 rejected with "
                  f"constant-one witness, {elapsed * 1e3:.0f} ms")


def test_c5_step_rate_inequality(rate_sets):
    def body():
        checked = 0
        worst = math.inf
        for instances in rate_sets.values():
            for space, mapping, kind, phi in instances:
                factor = cl.step_contraction_factor(kind, phi).value
                for start in range(space.size):
                    trace = cl.picard_iterate(space, mapping, start)
                    for prev, nxt in zip(trace.step_dists, trace.step_dists[1:]):
                        slack = factor * prev + 1e-12 - nxt
                        worst = min(worst, slack)
                        if slack < 0.0:
                            return checked, worst
                        checked += 1
        return checked, worst

    start = time.perf_counter()
    checked, worst = body()
    elapsed = time.perf_counter() - start
    ok = worst >= 0.0 and checked > 0 and elapsed < 10.0
    report(5, ok, f"{checked} consecutive-step pairs over "
                  f"{sum(len(v) for v in rate_sets.values())} instances, "
                  f"min slack {worst:.2e}, {elapsed:.2f} s")


def test_c6_oracle_agreement(rate_sets):
    disagreements = 0
    uniqueness_breaks = 0
    instances_seen = 0
    for instances in rate_sets.values():
        for space, mapping, kind, phi in instances:
            instances_seen += 1
            record = cl.applicability(kind, phi)
            fixed = cl.brute_force_fixed_points(space, mapping)
            if record.unique and len(fixed) >= 2:
                uniqueness_breaks += 1
            for start in range(space.size):
                trace = cl.picard_iterate(space, mapping, start)
                if trace.stop_reason != "converged":
                    disagreements += 1
                elif record.unique and (len(fixed) != 1 or trace.points[-1] != fixed[0]):
                    disagreements += 1
                elif trace.points[-1] not in fixed:
                    disagreements += 1
    ok = disagreements == 0 and uniqueness_breaks == 0
    report(6, ok, f"{instances_seen} instances: every orbit limit matches the "
                  f"exhaustive oracle, {disagreements} disagreements, "
                  f"{uniqueness_breaks} uniqueness breaks")


def test_c7_bound_certification():
    # closed-form case: Tx = x/2 on [0,1], rate 1/2, additive chains
    trace = cl.picard_iterate(
        unit_interval(), SelfMap(expr="x/2"), 1.0, max_iter=200, tol=1e-300
    )
    half = cl.verify_bound(trace, cl.additive(), 0.5, 0.0)
    half_ok = (
        half.passed
        and half.min_slack >= -1e-9
        and len(half.rows) == 201
        and all(row.bound == 0.5**row.n for row in half.rows)
    )

    ultra_ok = True
    audited = 0
    for beta in (0.3, 0.6, 0.9):
        for space, mapping in bianchini_bound_instances(beta, 50, seed=77):
            fixed = cl.brute_force_fixed_points(space, mapping)
            if len(fixed) != 1:
                ultra_ok = False
                continue
            for start in range(space.size):
                orbit = cl.picard_iterate(space, mapping, start, max_iter=200)
                bound_report = cl.verify_bound(orbit, cl.maximum(), beta, fixed[0])
                d01 = bound_report.d01
                formula = all(
                    abs(row.bound - beta**row.n * d01) <= 1e-12 * max(1.0, d01)
                    for row in bound_report.rows
                )
                if bound_report.min_slack < -1e-9 or not formula:
                    ultra_ok = False
                audited += 1
    ok = half_ok and ultra_ok and audited >= 150
    report(7, ok, f"halving map bound is alpha^n exactly over 201 rows "
                  f"(min slack {half.min_slack:.1e}); {audited} ultrametric "
                  f"orbits hold beta^n*d01 within 1e-9")


def test_c8_applicability_boundary():
    grid = {0.49: True, 0.5: False, 0.51: False}
    boundary_ok = all(
        cl.applicability(
            ContractionKind("chatterjea_bianchini", beta=beta), cl.power(1.0)
        ).applicable is expected
        for beta, expected in grid.items()
    )
    max_ok = True
    for beta in (0.05, 0.25, 0.49, 0.5, 0.51, 0.75, 0.9, 0.99):
        record = cl.applicability(
            ContractionKind("chatterjea_bianchini", beta=beta), cl.maximum()
        )
        factor = cl.step_contraction_factor(
            ContractionKind("chatterjea_bianchini", beta=beta), cl.maximum()
        )
        if not record.applicable or abs(factor.value - beta) > 1e-12:
            max_ok = False
    ok = boundary_ok and max_ok
    report(8, ok, f"power q=1 flips exactly at beta=0.5 "
                  f"(0.49 yes, 0.5/0.51 no): {boundary_ok}; under max every "
                  f"beta<1 applies with step factor beta: {max_ok}")


def test_c9_cli_determinism(tmp_path, capsys):
    stretched = tmp_path / "stretched.json"
    stretched.write_text(json.dumps(stretched_space().to_json()))
    unit = tmp_path / "unit.json"
    unit.write_text(json.dumps({"lo": 0.0, "hi": 1.0, "dist": "abs(x-y)"}))

    suite = [
        ["validate", "--space", str(stretched), "--phi", '{"kind":"additive"}'],
        ["validate", "--space", str(stretched), "--phi", '{"kind":"power","q":0.5}'],
        ["validate", "--space", str(unit), "--phi", '{"kind":"max"}'],
        ["classify", "--space", str(stretched), "--map", '{"images":[0,0,0]}',
         "--kind", '{"tag":"partial","alpha":0.3,"beta":0.3}',
         "--phi", '{"kind":"additive"}'],
        ["classify", "--space", str(stretched), "--map", '{"images":[0,0,0]}',
         "--kind", '{"tag":"partial","alpha":0.3,"beta":0.3}',
         "--phi", '{"kind":"bscaled","K":2.0}'],
        ["iterate", "--space", str(unit), "--map", '{"expr":"x/2"}',
         "--x0", "1.0"],
        ["iterate", "--space", str(unit), "--map", '{"expr":"x/2"}',
         "--x0", "1.0", "--format", "csv"],
        ["bounds", "--space", str(unit), "--map", '{"expr":"x/2"}',
         "--phi", '{"kind":"additive"}',
         "--kind", '{"tag":"partial","alpha":0.5,"beta":0.0}',
         "--x0", "1.0"],
        ["bounds", "--space", str(unit), "--map", '{"expr":"x/2"}',
         "--phi", '{"kind":"additive"}',
         "--kind", '{"tag":"partial","alpha":0.5,"beta":0.0}',
         "--x0", "1.0", "--format", "csv"],
        ["search", "--phi", '{"kind":"bscaled","K":2.0}',
         "--kind", '{"tag":"partial","alpha":0.3,"beta":0.3}',
         "--budget", "50", "--seed", "7"],
        ["search", "--phi", '{"kind":"max"}',
         "--kind", '{"tag":"chatterjea_bianchini","beta":0.6}',
         "--budget", "50", "--seed", "7"],
        ["validate", "--space", str(unit), "--phi", '{"kind":"nope"}'],
    ]

    def sweep():
        chunks = []
        for argv in suite:
            code = main(argv)
            captured = capsys.readouterr()
            chunks.append((argv[0], code, captured.out, captured.err))
        return chunks

    first = sweep()
    second = sweep()
    ok = first == second
    capsys.readouterr()  # drop sweep output so only the verdict line prints
    report(9, ok, f"{len(suite)} invocations across all five commands "
                  f"repeated byte-identically: {ok}")
