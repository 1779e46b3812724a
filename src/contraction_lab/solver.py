"""Picard iteration and certified a-priori error bounds.

The orbit x_{n+1} = T(x_n) stops on convergence (step distance below tol),
on a detected cycle, or at the iteration cap.  When the per-step factor r
and the chain constant C(r) are both available, the tail of the orbit obeys

    d(x_n, x*) <= r^n * C(r) * d(x0, x1)

together with the per-step inequality d(x_n, x_{n+1}) <= r^n * d(x0, x1).
verify_bound audits a computed orbit against both, row by row.  The bound
certificate additionally requires the distance to be continuous; that is
established through the vanishing-deviation battery, and reports where the
battery fails are flagged as not certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import trifun
from .contraction import SelfMap
from .space import FiniteSemimetricSpace, IntervalSpace, Space
from .trifun import TriangleFunctionSpec, _json_float

MAX_ITER_DEFAULT = 100_000
STEP_TOL_DEFAULT = 1e-10

# Interval cycle detection: a revisit within this proximity of an earlier
# iterate (lag >= 2) counts as a cycle, but only while steps stay above the
# floor; without the floor every converging orbit would eventually trip the
# proximity test at its limit.
CYCLE_PROXIMITY = 1e-12
CYCLE_STEP_FLOOR = 1e-6

BOUND_SLACK_TOL = 1e-9


class DomainEscapeError(RuntimeError):
    """An interval orbit left [lo, hi]; the message names the iterate."""


class BoundUnavailable(RuntimeError):
    """No finite chain constant at this rate, so no a-priori bound."""


@dataclass(frozen=True)
class IterationTrace:
    """A computed Picard orbit with its step distances."""

    space: Space
    mapping: SelfMap
    points: tuple
    step_dists: tuple[float, ...]
    stop_reason: str  # "converged" | "max_iter" | "cycle_detected"
    tol: float
    rate_estimate: float | None
    rate_geomean: float | None

    @property
    def limit(self):
        return self.points[-1] if self.stop_reason == "converged" else None

    def point_labels(self) -> list:
        if isinstance(self.space, FiniteSemimetricSpace):
            return [self.space.labels[i] for i in self.points]
        return list(self.points)

    def to_json(self) -> dict:
        return {
            "points": self.point_labels(),
            "step_dists": [_json_float(d) for d in self.step_dists],
            "stop_reason": self.stop_reason,
            "tol": _json_float(self.tol),
            "rate_estimate": _json_float(self.rate_estimate),
            "rate_geomean": _json_float(self.rate_geomean),
        }

    def to_csv(self) -> str:
        lines = ["n,x_n,step_dist"]
        labels = self.point_labels()
        for n, point in enumerate(labels):
            step = self.step_dists[n] if n < len(self.step_dists) else ""
            lines.append(f"{n},{point},{step}")
        return "\n".join(lines) + "\n"


def _tail_rates(step_dists: list[float]) -> tuple[float | None, float | None]:
    """Max and geometric-mean step ratio over the final ten steps."""
    tail = step_dists[-11:]
    ratios = [tail[i + 1] / tail[i] for i in range(len(tail) - 1) if tail[i] > 0.0]
    if not ratios:
        return None, None
    if any(r == 0.0 for r in ratios):
        geomean = 0.0
    else:
        geomean = float(np.exp(np.mean(np.log(ratios))))
    return max(ratios), geomean


def picard_iterate(
    space: Space,
    mapping: SelfMap,
    x0,
    max_iter: int = MAX_ITER_DEFAULT,
    tol: float = STEP_TOL_DEFAULT,
) -> IterationTrace:
    """Iterate T from x0 until convergence, a cycle, or the cap.

    Finite spaces detect cycles by exact revisits; intervals use a bucketed
    proximity test (see CYCLE_PROXIMITY / CYCLE_STEP_FLOOR).  Interval
    orbits leaving [lo, hi] raise DomainEscapeError naming the iterate.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    mapping.validate_for(space)
    finite = isinstance(space, FiniteSemimetricSpace)
    if finite:
        x = space.index_of(x0) if isinstance(x0, str) else int(x0)
        if not 0 <= x < space.size:
            raise ValueError(f"start index {x0!r} out of range")
    else:
        x = float(x0)
        if not space.contains(x):
            raise ValueError(f"start {x0!r} outside [{space.lo}, {space.hi}]")

    points = [x]
    step_dists: list[float] = []
    stop_reason = "max_iter"
    visited: set[int] = {x} if finite else set()
    buckets: dict[int, int] = {}
    if not finite:
        buckets[round(x / CYCLE_PROXIMITY)] = 0

    for _ in range(max_iter):
        nxt = mapping(points[-1])
        if finite:
            nxt = int(nxt)
            step = space.d(points[-1], nxt)
        else:
            nxt = float(nxt)
            if not (space.lo - 1e-12 <= nxt <= space.hi + 1e-12):
                raise DomainEscapeError(
                    f"iterate {len(points)}: T({points[-1]!r}) = {nxt!r} "
                    f"leaves [{space.lo}, {space.hi}]"
                )
            nxt = min(max(nxt, space.lo), space.hi)
            step = float(space.d(points[-1], nxt))
        points.append(nxt)
        step_dists.append(step)
        if step < tol:
            stop_reason = "converged"
            break
        if finite:
            if nxt in visited:
                stop_reason = "cycle_detected"
                break
            visited.add(nxt)
        else:
            key = round(nxt / CYCLE_PROXIMITY)
            hit = None
            for k in (key - 1, key, key + 1):
                if k in buckets and buckets[k] <= len(points) - 3:
                    if abs(nxt - points[buckets[k]]) < CYCLE_PROXIMITY:
                        hit = buckets[k]
                        break
            if hit is not None and step >= CYCLE_STEP_FLOOR:
                stop_reason = "cycle_detected"
                break
            buckets.setdefault(key, len(points) - 1)

    rate_max, rate_geo = _tail_rates(step_dists)
    return IterationTrace(
        space, mapping, tuple(points), tuple(step_dists), stop_reason,
        tol, rate_max, rate_geo,
    )


def _chain_constant(phi: TriangleFunctionSpec, alpha: float, n: int = 0, d01: float = 0.0) -> float:
    """C(alpha) after checking the bound's inputs in turn; raises
    BoundUnavailable when C is infinite."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    if n < 0:
        raise ValueError("n must be non-negative")
    if d01 < 0.0:
        raise ValueError("d01 must be non-negative")
    c = trifun.chain_bound_constant(phi, alpha)
    if not math.isfinite(c):
        raise BoundUnavailable(
            f"chain constant C({alpha:g}) is not finite for this triangle function"
        )
    return c


def a_priori_bound(phi: TriangleFunctionSpec, alpha: float, n: int, d01: float) -> float:
    """The tail bound alpha^n * C(alpha) * d01; raises when C is infinite."""
    c = _chain_constant(phi, alpha, n, d01)
    return alpha**n * c * d01


def brute_force_fixed_points(space: FiniteSemimetricSpace, mapping: SelfMap) -> list[int]:
    """Exhaustive scan for T(x) = x on a finite space."""
    mapping.validate_for(space)
    return [i for i, img in enumerate(mapping.images) if img == i]


@dataclass(frozen=True)
class BoundRow:
    n: int
    point: str | float
    step_dist: float | None
    bound: float
    observed: float
    slack: float
    step_bound: float | None
    step_ok: bool


@dataclass(frozen=True)
class BoundReport:
    """Row-by-row audit of the a-priori bound along one orbit."""

    alpha: float
    c_alpha: float
    d01: float
    rows: tuple[BoundRow, ...]
    min_slack: float
    bounds_ok: bool
    steps_ok: bool
    certified: bool
    note: str

    @property
    def passed(self) -> bool:
        return self.bounds_ok and self.steps_ok

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "c_alpha": self.c_alpha,
            "d01": _json_float(self.d01),
            "min_slack": _json_float(self.min_slack),
            "bounds_ok": self.bounds_ok,
            "steps_ok": self.steps_ok,
            "certified": self.certified,
            "note": self.note,
            "rows": [
                {
                    "n": r.n,
                    "x_n": r.point,
                    "step_dist": _json_float(r.step_dist),
                    "bound": _json_float(r.bound),
                    "observed": _json_float(r.observed),
                    "slack": _json_float(r.slack),
                }
                for r in self.rows
            ],
        }

    def to_csv(self) -> str:
        lines = ["n,x_n,step_dist,bound,observed,slack"]
        for r in self.rows:
            step = "" if r.step_dist is None else r.step_dist
            lines.append(f"{r.n},{r.point},{step},{r.bound},{r.observed},{r.slack}")
        return "\n".join(lines) + "\n"


def verify_bound(
    trace: IterationTrace,
    phi: TriangleFunctionSpec,
    alpha: float,
    fixed_point,
    slack_tol: float = BOUND_SLACK_TOL,
) -> BoundReport:
    """Audit d(x_n, x*) <= alpha^n * C(alpha) * d01 along a computed orbit.

    Also audits the per-step inequality d(x_n, x_{n+1}) <= alpha^n * d01.
    The report is certified only when the distance-continuity battery
    passes for phi; otherwise it carries an explanatory note.
    """
    c = _chain_constant(phi, alpha)
    space = trace.space
    finite = isinstance(space, FiniteSemimetricSpace)
    if finite and isinstance(fixed_point, str):
        fixed_point = space.index_of(fixed_point)
    d01 = trace.step_dists[0] if trace.step_dists else 0.0
    labels = trace.point_labels()

    rows: list[BoundRow] = []
    min_slack = math.inf
    bounds_ok = True
    steps_ok = True
    for n, point in enumerate(trace.points):
        observed = float(space.d(point, fixed_point))
        bound = alpha**n * c * d01
        slack = bound - observed
        if slack < min_slack or math.isnan(slack):  # once a NaN, it stays
            min_slack = slack
        if not slack >= -slack_tol:  # a NaN slack fails too
            bounds_ok = False
        step = trace.step_dists[n] if n < len(trace.step_dists) else None
        step_bound = alpha**n * d01 if step is not None else None
        step_ok = True
        if step is not None:
            step_ok = step <= step_bound * (1.0 + 1e-12) + 1e-12
            if not step_ok:
                steps_ok = False
        rows.append(BoundRow(n, labels[n], step, bound, observed, slack, step_bound, step_ok))

    battery = trifun._deviation_report(phi).passed
    note = "" if battery else (
        "not certified: distance continuity not established by the "
        "vanishing-deviation battery"
    )
    return BoundReport(
        alpha=alpha,
        c_alpha=c,
        d01=d01,
        rows=tuple(rows),
        min_slack=float(min_slack) if rows else 0.0,
        bounds_ok=bounds_ok,
        steps_ok=steps_ok,
        certified=battery,
        note=note,
    )
