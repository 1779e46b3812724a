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

Each map call needs the value of the one before, so the map is called once
per iterate.  The distances are not: an interval orbit collects its
iterates in chunks of CHUNK_FIRST, doubling up to CHUNK_CAP, takes each
chunk's step distances in one array call of the distance and then scans the
chunk for the first stop; the audit takes its observed column d(x_n, x*) in
one call.  A finite orbit walks one step at a time, so that it makes one
map call per step.  An expression gives the same bits in scalar and array
calls, so the orbit and the audit give the values a step-by-step walk does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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

# Interval orbits take their step distances a chunk of iterates at a time:
# the first chunk holds CHUNK_FIRST iterates, and each next one twice as
# many, up to CHUNK_CAP.
CHUNK_FIRST = 16
CHUNK_CAP = 256


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


def _finite_steps(space: FiniteSemimetricSpace, mapping: SelfMap, x: int, max_iter: int):
    """(x_{n+1}, d(x_n, x_{n+1})) along a finite orbit from x, one image
    table lookup per step, for at most max_iter steps."""
    images, dist = mapping.images, space.dist
    for _ in range(max_iter):
        nxt = int(images[x])
        yield nxt, float(dist[x, nxt])
        x = nxt


def _interval_steps(space: IntervalSpace, mapping: SelfMap, x: float, max_iter: int):
    """(x_{n+1}, d(x_n, x_{n+1})) along an interval orbit from x, for at most
    max_iter steps, with the step distances of each chunk of iterates taken
    in one array call.  A map value outside [lo, hi] ends its chunk; the
    DomainEscapeError naming it comes after the chunk's earlier steps, so a
    caller that stops at one of them never sees it."""
    lo, hi = space.lo, space.hi
    done, size = 0, CHUNK_FIRST
    while done < max_iter:
        chunk, escape = [x], None
        for _ in range(min(size, max_iter - done)):
            nxt = float(mapping(chunk[-1]))
            if not (lo - 1e-12 <= nxt <= hi + 1e-12):
                escape = nxt
                break
            chunk.append(min(max(nxt, lo), hi))
        if len(chunk) > 1:
            steps = space.d(np.array(chunk[:-1]), np.array(chunk[1:])).tolist()
            yield from zip(chunk[1:], steps)
        done += len(chunk) - 1
        x = chunk[-1]
        if escape is not None:
            raise DomainEscapeError(
                f"iterate {done + 1}: T({x!r}) = {escape!r} leaves [{lo}, {hi}]"
            )
        size = min(2 * size, CHUNK_CAP)


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

    walk = _finite_steps if finite else _interval_steps
    for nxt, step in walk(space, mapping, x, max_iter):
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


class BoundRow(NamedTuple):
    """One audited point of the orbit: the bound alpha^n * C * d01 and the
    step bound alpha^n * d01, with what the orbit shows against them."""

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
    steps = trace.step_dists
    d01 = steps[0] if steps else 0.0
    observed = space.d(np.array(trace.points), fixed_point).tolist()

    rows: list[BoundRow] = []
    min_slack = math.inf
    for n, (point, seen) in enumerate(zip(trace.point_labels(), observed)):
        scale = alpha**n
        bound = scale * c * d01
        slack = bound - seen
        if slack < min_slack or math.isnan(slack):  # once a NaN, it stays
            min_slack = slack
        if n < len(steps):
            step, step_bound = steps[n], scale * d01
            step_ok = step <= step_bound * (1.0 + 1e-12) + 1e-12
        else:
            step, step_bound, step_ok = None, None, True
        rows.append(BoundRow(n, point, step, bound, seen, slack, step_bound, step_ok))

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
        bounds_ok=min_slack >= -slack_tol,  # a NaN slack fails too
        steps_ok=all(row.step_ok for row in rows),
        certified=battery,
        note=note,
    )
