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

Each map value needs the one before, so the map runs once per iterate,
on Python floats with no array or dict built: an interval orbit collects
its iterates in chunks of CHUNK_FIRST, doubling up to CHUNK_CAP, and each
chunk is one call of the expression's generated walk (see expressions),
which applies the map, clamps and stops at an escape in one loop, with
the bits of the keyword call iterated at 0-d bindings.  Each chunk's map
calls share one np.errstate, which closes before the chunk is handed on,
so the caller's error state holds outside it.  Each chunk's step
distances come from one array call of the distance; the chunk is then
searched for the first step below tol and for the first revisit.  No
revisit can come while the orbit is a monotone prefix (see _cycle_in),
so each chunk's gaps are checked in one np.diff, and the bucket walk runs
only once the prefix ends.  A finite orbit goes through _walk, the
search's walk of a stack of spaces from many starts, as one space from
one start; its step distances are one gather.

verify_bound builds its report as columns of float64 arrays, kept as
tuples of Python floats: the observed distances in one call, then alpha^n,
the bounds and the slacks from _bound_columns, which the search's audit
calls too, and the step checks.  A NaN slack is found on the array; the
least slack is the builtin min of the floats, the first of equal values.
The report's JSON and CSV read the columns, and spell a column's
non-finite values only when it has some, which a finite sum of the column
rules out; its rows are built on first use.  An expression gives the same
bits in scalar and array calls, and float64 array arithmetic rounds as
Python's floats do, so the orbit and the audit give the values a
step-by-step walk does.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import trifun
from .contraction import SelfMap
from .space import FiniteSemimetricSpace, IntervalSpace, Space
from .trifun import INEQ_ABS_TOL, TriangleFunctionSpec, _echo, _json_float

MAX_ITER_DEFAULT = 100_000
STEP_TOL_DEFAULT = 1e-10
_STOP_REASONS = ("converged", "cycle_detected", "max_iter")

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
            "step_dists": _json_column(self.step_dists),
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


def _walk(dist: np.ndarray, table: np.ndarray, starts, max_iter: int, tol: float):
    """The Picard orbits from the m `starts` on each space of a stack, (B, n, n)
    distances and (B, n) image tables, walked at once: a step below tol
    converges, else a revisit is a cycle, and max_iter steps end the orbit.
    Returns the points (B, m, K+1), an orbit in its first steps + 1 entries
    and its continuation after them, the step counts (B, m) and the stop
    reasons (B, m), indices into _STOP_REASONS."""
    b, m = table.shape[0], len(starts)
    rows, orbits = np.arange(b)[:, None], np.arange(m)
    x = np.broadcast_to(starts, (b, m))
    points = [x]
    visited = np.zeros((b, m, table.shape[1]), dtype=bool)
    visited[:, orbits, starts] = True
    steps = np.zeros((b, m), dtype=np.int64)
    reasons = np.full((b, m), 2)
    running = np.ones((b, m), dtype=bool)
    # an orbit of n points stops within n steps: a new point or a stop each
    while running.any() and len(points) <= max_iter:
        nxt = table[rows, x]
        converged = running & (dist[rows, x, nxt] < tol)
        cycle = running & ~converged & visited[rows, orbits, nxt]
        steps += running
        reasons[converged], reasons[cycle] = 0, 1
        running &= ~(converged | cycle)
        visited[rows, orbits, nxt] = True
        x = nxt
        points.append(x)
    return np.stack(points, axis=-1), steps, reasons


def _interval_chunks(space: IntervalSpace, mapping: SelfMap, x: float, max_iter: int):
    """Chunks (iterates, step distances), a list and a float64 array, of an
    interval orbit from x, for at most max_iter steps.  Each chunk's map calls run
    under one np.errstate, closed before the chunk is yielded, and its step
    distances come from one array call.  A map value outside [lo, hi] ends
    its chunk; the DomainEscapeError naming it comes after the chunk, so a
    caller that stops inside it never sees it."""
    lo, hi = space.lo, space.hi
    low, high = lo - INEQ_ABS_TOL, hi + INEQ_ABS_TOL  # contains' slack, clamped
    walk = mapping._fn.compiled.walk  # the expression's generated chunk loop
    done, size = 0, CHUNK_FIRST
    while done < max_iter:
        chunk = [x]
        with np.errstate(all="ignore"):
            escape = walk(x, min(size, max_iter - done), lo, hi, low, high, chunk)
        x = chunk[-1]
        if len(chunk) > 1:
            yield chunk[1:], space.d(np.array(chunk[:-1]), np.array(chunk[1:]))
        done += len(chunk) - 1
        if escape is not None:
            raise DomainEscapeError(
                f"iterate {done + 1}: T({x!r}) = {escape!r} leaves [{lo}, {hi}]"
            )
        size = min(2 * size, CHUNK_CAP)


def _cycle_in(points: list[float], step_dists: list[float], first: dict, base: int,
              end: int) -> int | None:
    """The first n in [base, end) where x_n comes back within CYCLE_PROXIMITY
    of an earlier iterate (lag >= 2) while its step is at least
    CYCLE_STEP_FLOOR, or None.  Iterates share a bucket when they share the
    key round(x / CYCLE_PROXIMITY); `first` maps each key to the first
    iterate in its bucket, and the iterates scanned are entered in it.

    No scan is needed on a monotone prefix: where x_0 ... x_n move the same
    way and every gap fl(x_k - x_{k-1}) is at least CYCLE_PROXIMITY in size,
    each earlier x_e (e <= n - 2) lies on the far side of x_{n-1} from x_n,
    so fl(|x_n - x_e|) >= fl(|x_n - x_{n-1}|) >= CYCLE_PROXIMITY, as rounded
    subtraction is monotone.  The argument reads the raw gaps, not the
    distance, so it holds for any distance; a zero gap (a clamped repeat)
    ends the prefix.  Once a chunk ends the prefix, _interval_orbit scans
    the orbit from x_1: the scan cannot fire before that point, and builds
    the buckets it reads after it."""
    for n in range(base, end):
        x = points[n]
        key = round(x / CYCLE_PROXIMITY)
        if step_dists[n - 1] >= CYCLE_STEP_FLOOR:
            for k in (key - 1, key, key + 1):
                earlier = first.get(k)
                if (earlier is not None and earlier <= n - 2
                        and abs(x - points[earlier]) < CYCLE_PROXIMITY):
                    return n
        first.setdefault(key, n)
    return None


def _interval_orbit(space: IntervalSpace, mapping: SelfMap, x: float, max_iter: int,
                    tol: float) -> tuple[list, list[float], str]:
    """(points, step_dists, stop_reason) of an interval orbit from x, a chunk
    at a time: the first step below tol and the first revisit (_cycle_in)
    are found in the chunk's lists, and whichever comes first ends it.  The
    revisit search starts once the chunk's gaps, checked in one np.diff,
    show the orbit is no longer a monotone prefix (see _cycle_in)."""
    points, step_dists = [x], []
    first, sign = None, 0.0  # no buckets while the orbit is a monotone prefix
    for iterates, steps in _interval_chunks(space, mapping, x, max_iter):
        base = len(points)
        points += iterates
        step_dists += steps.tolist()
        below = np.flatnonzero(steps < tol)
        end = base + int(below[0]) if len(below) else len(points)
        if first is None and end > base:
            gaps = np.diff(points[base - 1:end])
            sign = sign or (1.0 if gaps[0] > 0.0 else -1.0)
            if not np.all(sign * gaps >= CYCLE_PROXIMITY):  # the prefix ends: walk from x_1
                first, base = {round(points[0] / CYCLE_PROXIMITY): 0}, 1
        cycle = None if first is None else _cycle_in(points, step_dists, first, base, end)
        if cycle is not None or end < len(points):
            stop = end if cycle is None else cycle
            del points[stop + 1:], step_dists[stop:]
            return points, step_dists, "converged" if cycle is None else "cycle_detected"
    return points, step_dists, "max_iter"


def _finite_index(space: FiniteSemimetricSpace, point, role: str) -> int:
    """The index of `point`, a label or an in-range integer (not a bool), on a finite space."""
    if isinstance(point, str):
        return space.index_of(point)
    if not isinstance(point, numbers.Integral) or isinstance(point, bool):
        raise ValueError(f"{role} {_echo(point)} is neither a label nor an index")
    if not 0 <= point < space.size:
        raise ValueError(f"{role} index {_echo(point)} out of range")
    return int(point)


def _interval_point(point, role: str) -> float:
    """`point` on an interval space as a float: a real (not a bool or a
    string) that float64 holds, NaN and the infinities included."""
    if trifun._real(point):
        try:
            return float(point)
        except OverflowError:  # an integer beyond the float64 range
            pass
    raise ValueError(f"{role} {_echo(point)} is not a float64 number")


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
    if isinstance(space, FiniteSemimetricSpace):
        x = _finite_index(space, x0, "start")
        walk, steps, reasons = _walk(space.dist[None], np.array([mapping.images]), [x],
                                     max_iter, tol)
        points = walk[0, 0, : steps[0, 0] + 1]
        step_dists = space.dist[points[:-1], points[1:]].tolist()
        points, stop_reason = points.tolist(), _STOP_REASONS[reasons[0, 0]]
    else:
        x = _interval_point(x0, "start")
        if not space.contains(x):
            raise ValueError(f"start {x0!r} outside [{space.lo}, {space.hi}]")
        points, step_dists, stop_reason = _interval_orbit(space, mapping, x, max_iter, tol)

    rate_max, rate_geo = _tail_rates(step_dists)
    return IterationTrace(
        space, mapping, tuple(points), tuple(step_dists), stop_reason,
        tol, rate_max, rate_geo,
    )


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


def _json_column(values) -> list:
    """A column of floats as JSON data: passed through when every value is
    finite, else spelled value by value with _json_float.  A sum is finite
    only when every value is; finite values whose sum overflows take the
    value-by-value path, which passes them through too."""
    if math.isfinite(sum(values)):
        return list(values)
    return [_json_float(v) for v in values]


@dataclass(frozen=True)
class BoundReport:
    """Audit of the a-priori bound along one orbit, held as columns: row n
    is entry n of points, bounds, observed and slacks, and, for every row but
    the last, of step_dists, step_bounds and step_flags."""

    alpha: float
    c_alpha: float
    d01: float
    points: tuple
    step_dists: tuple[float, ...]
    bounds: tuple[float, ...]
    observed: tuple[float, ...]
    slacks: tuple[float, ...]
    step_bounds: tuple[float, ...]
    step_flags: tuple[bool, ...]
    min_slack: float
    bounds_ok: bool
    steps_ok: bool
    certified: bool
    note: str

    @property
    def passed(self) -> bool:
        return self.bounds_ok and self.steps_ok

    def _padded(self, column: list, fill) -> list:
        """A step column with one entry per row: `fill` on the rows without
        a step."""
        return column + [fill] * (len(self.points) - len(column))

    @functools.cached_property
    def rows(self) -> tuple[BoundRow, ...]:
        """The audit row by row, built from the columns on first use."""
        return tuple(map(BoundRow._make, zip(
            range(len(self.points)), self.points, self._padded(list(self.step_dists), None),
            self.bounds, self.observed, self.slacks,
            self._padded(list(self.step_bounds), None),
            self._padded(list(self.step_flags), True))))

    def to_json(self) -> dict:
        steps = self._padded(_json_column(self.step_dists), None)
        columns = zip(range(len(self.points)), self.points, steps, _json_column(self.bounds),
                      _json_column(self.observed), _json_column(self.slacks))
        return {
            "alpha": self.alpha,
            "c_alpha": self.c_alpha,
            "d01": _json_float(self.d01),
            "min_slack": _json_float(self.min_slack),
            "bounds_ok": self.bounds_ok,
            "steps_ok": self.steps_ok,
            "certified": self.certified,
            "note": self.note,
            "rows": [{"n": n, "x_n": point, "step_dist": step, "bound": bound,
                      "observed": seen, "slack": slack}
                     for n, point, step, bound, seen, slack in columns],
        }

    def to_csv(self) -> str:
        steps = self._padded(list(self.step_dists), "")
        columns = zip(range(len(self.points)), self.points, steps, self.bounds,
                      self.observed, self.slacks)
        lines = ["n,x_n,step_dist,bound,observed,slack"]
        lines += [f"{n},{point},{step},{bound},{seen},{slack}"
                  for n, point, step, bound, seen, slack in columns]
        return "\n".join(lines) + "\n"


def _bound_columns(alpha: float, c: float, d01, observed: np.ndarray):
    """(alpha^n, bounds alpha^n * c * d01, slacks bound - observed) over the last
    axis of `observed`, n = 0, 1, ..., d01 broadcast over its leading axes:
    alpha^n is libm's pow row by row (math.pow, the bits of Python's alpha**n),
    the rest float64 operations in a row-by-row audit's order, which round as
    Python's floats do.  The caller's error state holds."""
    depth = observed.shape[-1]
    scale = np.fromiter(map(math.pow, repeat(alpha), range(depth)), float, depth)
    bounds = scale * c * d01
    return scale, bounds, bounds - observed


def verify_bound(trace: IterationTrace, phi: TriangleFunctionSpec, alpha: float,
                 fixed_point) -> BoundReport:
    """Audit d(x_n, x*) <= alpha^n * C(alpha) * d01 along a computed orbit.

    Also audits the per-step inequality d(x_n, x_{n+1}) <= alpha^n * d01.
    The bounds hold when the least slack is at least -BOUND_SLACK_TOL
    (1e-9); a NaN slack fails them.  The report is certified only when the
    distance-continuity battery passes for phi; otherwise it carries an
    explanatory note.  The columns take the operations a row-by-row audit
    takes, in its order (see _bound_columns).  On a finite space the fixed
    point is a label or an index in range, on an interval a float64 number.
    An alpha outside [0, 1) raises ValueError, and an infinite C(alpha)
    BoundUnavailable.
    """
    c = trifun.chain_bound_constant(phi, alpha)  # checks alpha first
    if not math.isfinite(c):
        raise BoundUnavailable(
            f"chain constant C({alpha:g}) is not finite for this triangle function"
        )
    space = trace.space
    if isinstance(space, FiniteSemimetricSpace):
        fixed_point = _finite_index(space, fixed_point, "fixed point")
    else:
        fixed_point = _interval_point(fixed_point, "fixed point")
    points = trace.points
    steps = tuple(trace.step_dists[: len(points)])
    d01 = steps[0] if steps else 0.0
    observed = space.d(np.array(points), fixed_point)
    with np.errstate(all="ignore"):  # inf * 0 is a NaN slack, as in Python
        scale, bounds, slacks = _bound_columns(alpha, c, d01, observed)
        step_bounds = scale[: len(steps)] * d01
        step_flags = ~trifun.violates(np.fromiter(steps, float, len(steps)), step_bounds)
    # NaN once one slack is NaN, else the first smallest, which keeps -0.0 and
    # 0.0 apart as the row loop did
    nan_slack = bool(np.isnan(slacks).any())
    slacks = slacks.tolist()
    min_slack = math.nan if nan_slack else min(slacks, default=0.0)

    battery = trifun._deviation_report(phi).passed
    note = "" if battery else (
        "not certified: distance continuity not established by the "
        "vanishing-deviation battery"
    )
    return BoundReport(
        alpha=alpha,
        c_alpha=c,
        d01=d01,
        points=tuple(trace.point_labels()),
        step_dists=steps,
        bounds=tuple(bounds.tolist()),
        observed=tuple(observed.tolist()),
        slacks=tuple(slacks),
        step_bounds=tuple(step_bounds.tolist()),
        step_flags=tuple(step_flags.tolist()),
        min_slack=min_slack,
        bounds_ok=min_slack >= -BOUND_SLACK_TOL,  # a NaN slack fails too
        steps_ok=bool(np.all(step_flags)),
        certified=battery,
        note=note,
    )
