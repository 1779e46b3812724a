"""Semimetric spaces: finite label/matrix spaces and real intervals with a
distance formula.

The two semimetric axioms are d(x,y) = 0 iff x = y and symmetry; no triangle
inequality is assumed.  Compatibility with a triangle function phi is the
separate generalized condition d(x,y) <= phi(d(x,z), d(z,y)), checked over
all ordered triples on finite spaces (degenerate z included) and over seeded
samples plus corner/midpoint combinations on intervals.

On finite spaces the triangle check and the minimal b-metric constant come
from one O(N^3) kernel, `triple_pass`, which streams the triples in blocks
of at most BLOCK_ELEMENTS, in (x, y, z) row-major order, so its memory
grows as O(N^2).  Each block computes the sums d(x,z) + d(z,y) once.  Their
minimum over z is the minimal-b denominator of each pair (x, y), and the
family's sum floor c (`trifun._KINDS`) turns it into a screen: c times it
bounds the pair's least right-hand side from below.  Under a triangle
function that reads only u + v (additive, bscaled) the bound is exact,
since rounding is monotone.  Under power phi with q <= 1 on a matrix with
no negative entry, phi(u, v) >= u + v, and c = 1 - 2^-43/q absorbs the
rounding of the evaluated phi (derived in `trifun._power_floor`).  Other
families, power with q > 1 and power on a matrix with a negative entry,
whose phi is NaN there, evaluate phi on the block and take its minimum
instead.  The violation test is monotone in the right-hand side and a NaN
survives the minimum, so a pair that passes against a lower bound on its
least right-hand side passes for every z: only a block with a pair that
fails this screen is tested along z.  Power phi splits into operands d^q
and their combination, and the pass raises each distance to q once, not
once per block, and only when a block first evaluates phi.  The triangle
check keeps the exact violation count and builds only the first
violations a caller asks for (`triangle_report`'s `listed`).
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import trifun
from .expressions import Expression, parse_expression
from .trifun import (INEQ_ABS_TOL, INEQ_REL_TOL, CheckItem, TriangleFunctionSpec, _FINITE, _MATRIX,
                     _STRING, _STRINGS, _check, _finite, _json_fields, _json_float, violates)

DEFAULT_SEED = 0
TRIPLE_SAMPLES = 10_000
PAIR_SAMPLES = 10_000

# Triples per streamed block of the O(N^3) kernels; their temporaries stay
# this size whatever the space size.
BLOCK_ELEMENTS = 2**16


class StructuralError(ValueError):
    """Malformed space, matrix or expression payload."""


def _float_matrix(rows) -> np.ndarray:
    try:
        return np.asarray(rows, dtype=np.float64)
    except (ValueError, OverflowError) as exc:  # ragged rows, an integer beyond float64
        raise StructuralError(f"bad distance matrix: {exc}") from None


@dataclass(frozen=True)
class FiniteSemimetricSpace:
    """Finitely many labelled points with a full distance matrix."""

    labels: tuple[str, ...]
    dist: np.ndarray

    def __post_init__(self):
        # the field rule of from_json: string labels, and numbers only, read
        # off an array's dtype or checked row by row in a list
        if not set(map(type, self.labels)) <= {str}:
            raise StructuralError(f"labels must be strings, got {reprlib.repr(self.labels)}")
        if isinstance(self.dist, np.ndarray):
            if self.dist.dtype.kind not in "iuf":
                raise StructuralError(f"distances must be numbers, got dtype {self.dist.dtype}")
        elif not _MATRIX[1](self.dist):
            raise StructuralError(f"distance matrix must be an array or {_MATRIX[0]}, "
                                  f"got {reprlib.repr(self.dist)}")
        matrix = _float_matrix(self.dist)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise StructuralError("distance matrix must be square")
        if matrix.shape[0] != len(self.labels):
            raise StructuralError("matrix size does not match the label count")
        if len(set(self.labels)) != len(self.labels):
            raise StructuralError("labels must be distinct")
        if not np.all(np.isfinite(matrix)):
            raise StructuralError("distances must be finite")
        object.__setattr__(self, "dist", matrix)

    @property
    def size(self) -> int:
        return len(self.labels)

    def d(self, i, j):
        """d(i, j) by index: a float for two indices, the gathered array
        when either is an index array."""
        value = self.dist[i, j]
        return value if isinstance(value, np.ndarray) else float(value)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise StructuralError(f"unknown point label {label!r}") from None

    def to_json(self) -> dict:
        return {"labels": list(self.labels), "dist": self.dist.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteSemimetricSpace":
        obj = _json_fields(obj, StructuralError, "finite space",
                           {"labels": _STRINGS, "dist": _MATRIX})
        # an array, so that the constructor does not check the rows again
        return cls(tuple(obj["labels"]), _float_matrix(obj["dist"]))


@dataclass(frozen=True)
class IntervalSpace:
    """A real interval [lo, hi] with a two-variable distance expression."""

    lo: float
    hi: float
    dist_expr: str = "abs(x-y)"

    def __post_init__(self):
        if not (_finite(self.lo) and _finite(self.hi)):
            raise StructuralError(f"interval endpoints must be finite numbers, got "
                                  f"{reprlib.repr(self.lo)} and {reprlib.repr(self.hi)}")
        if not self.lo < self.hi:
            raise StructuralError("interval needs lo < hi")
        object.__setattr__(self, "_dist", parse_expression(self.dist_expr, allowed=("x", "y")))

    @property
    def distance(self) -> Expression:
        return self._dist  # type: ignore[attr-defined]

    def d(self, x, y):
        return self.distance(x=x, y=y)

    def contains(self, x) -> bool:
        return bool(np.all((np.asarray(x) >= self.lo - INEQ_ABS_TOL)
                           & (np.asarray(x) <= self.hi + INEQ_ABS_TOL)))

    def to_json(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "dist": self.dist_expr}

    @classmethod
    def from_json(cls, obj: dict) -> "IntervalSpace":
        obj = _json_fields(obj, StructuralError, "interval space",
                           {"lo": _FINITE, "hi": _FINITE}, {"dist": _STRING})
        return cls(float(obj["lo"]), float(obj["hi"]), obj.get("dist", "abs(x-y)"))


Space = Union[FiniteSemimetricSpace, IntervalSpace]


def space_from_json(obj: dict) -> Space:
    """Dispatch on the payload shape: labelled matrix or interval."""
    if "labels" in _json_fields(obj, StructuralError, "space"):
        return FiniteSemimetricSpace.from_json(obj)
    return IntervalSpace.from_json(obj)


@dataclass(frozen=True)
class SpaceReport:
    passed: bool
    scope: str  # "exhaustive" | "sampled"
    checks: tuple[CheckItem, ...]

    def to_json(self) -> dict:
        return {"passed": self.passed, "scope": self.scope,
                "checks": [c.to_json() for c in self.checks]}


def _interval_points(space: IntervalSpace, arity: int, samples: int, seed: int) -> np.ndarray:
    """Points of [lo, hi]^arity, one row per coordinate: every combination
    of the endpoints and the midpoint in row-major order, then `samples`
    seeded uniform points."""
    ends = np.array([space.lo, 0.5 * (space.lo + space.hi), space.hi])
    grid = np.array(np.meshgrid(*[ends] * arity, indexing="ij")).reshape(arity, -1).T
    rng = np.random.default_rng(seed)
    return np.vstack([grid, space.lo + (space.hi - space.lo) * rng.random((samples, arity))]).T


def validate_semimetric(space: Space, seed: int = DEFAULT_SEED) -> SpaceReport:
    """Check the two semimetric axioms (plus non-negativity of values)."""
    if isinstance(space, FiniteSemimetricSpace):
        return _validate_finite(space)
    return _validate_interval(space, seed)


def _validate_finite(space: FiniteSemimetricSpace) -> SpaceReport:
    D, labels = space.dist, space.labels
    checks = (
        _check("nonnegative", D < -INEQ_ABS_TOL,
               lambda i, j: (labels[i], labels[j], float(D[i, j]))),
        _check("symmetry",
               np.abs(D - D.T) > INEQ_REL_TOL * np.maximum(1.0, np.abs(D)) + INEQ_ABS_TOL,
               lambda i, j: (labels[i], labels[j], float(D[i, j]), float(D[j, i]))),
        _check("identity_zero_self", np.abs(np.diag(D)) > INEQ_ABS_TOL,
               lambda i: (labels[i], float(D[i, i]))),
        _check("identity_distinct_positive",
               (D <= INEQ_ABS_TOL) & ~np.eye(space.size, dtype=bool),
               lambda i, j: (labels[i], labels[j], float(D[i, j])),
               "distinct points at zero distance"),
    )
    return SpaceReport(all(c.passed for c in checks), "exhaustive", checks)


def _validate_interval(space: IntervalSpace, seed: int) -> SpaceReport:
    (xs,), (ys,) = (_interval_points(space, 1, PAIR_SAMPLES, s) for s in (seed, seed + 1))
    ys[[0, 2]] = ys[[2, 0]]  # the fixed pairs are (lo, hi), (mid, mid) and (hi, lo)
    dxy, dyx, dxx = space.d(xs, ys), space.d(ys, xs), space.d(xs, xs)
    with np.errstate(invalid="ignore"):  # inf - inf: equal infinities are symmetric
        gap = np.abs(dxy - dyx)
    checks = (
        _check("nonnegative", ~np.isfinite(dxy) | (dxy < -INEQ_ABS_TOL),
               lambda k: (float(xs[k]), float(ys[k]), float(dxy[k]))),
        _check("symmetry", np.isnan(dxy) | np.isnan(dyx)
               | (gap > INEQ_REL_TOL * np.maximum(1.0, np.abs(dxy)) + INEQ_ABS_TOL),
               lambda k: (float(xs[k]), float(ys[k]), float(dxy[k]), float(dyx[k]))),
        _check("identity_zero_self", ~(np.abs(dxx) <= INEQ_ABS_TOL),
               lambda k: (float(xs[k]), float(dxx[k]))),
        _check("identity_distinct_positive", (np.abs(xs - ys) > 1e-9) & (dxy <= INEQ_ABS_TOL),
               lambda k: (float(xs[k]), float(ys[k]), float(dxy[k])),
               "distinct points at zero distance"),
    )
    return SpaceReport(all(c.passed for c in checks), "sampled", checks)


@dataclass(frozen=True)
class TriangleViolation:
    """One failed instance of d(x,y) <= phi(d(x,z), d(z,y))."""

    x: str | float
    y: str | float
    z: str | float
    lhs: float
    rhs: float

    def to_json(self) -> dict:
        return {"x": self.x, "y": self.y, "z": self.z,
                "lhs": _json_float(self.lhs), "rhs": _json_float(self.rhs)}


@dataclass(frozen=True)
class TriangleReport:
    """Outcome of the generalized triangle check: the exact number of
    violating triples and the first of them in checking order."""

    count: int
    violations: tuple[TriangleViolation, ...]

    def to_json(self) -> dict:
        return {"passed": self.count == 0, "violation_count": self.count,
                "violations": [v.to_json() for v in self.violations]}


def _triple_blocks(n: int):
    """Row-major (x, y) slices of the ordered triples (x, y, z) of an n-point
    space, each block taking every z and holding at most BLOCK_ELEMENTS
    triples: whole x rows while an x row fits, else one x row split along y
    (a single (x, y) row of n triples when even that does not fit)."""
    if n * n <= BLOCK_ELEMENTS:
        rows, cols = BLOCK_ELEMENTS // max(n * n, 1), n
    else:
        rows, cols = 1, max(1, BLOCK_ELEMENTS // n)
    for x0 in range(0, n, rows):
        for y0 in range(0, n, cols):
            yield slice(x0, min(x0 + rows, n)), slice(y0, min(y0 + cols, n))


def _finite_triples(phi: TriangleFunctionSpec, D: np.ndarray, xs: slice, ys: slice):
    """(d(x,y), phi(d(x,z), d(z,y))) over the triples (x, y, z) with x in
    xs, y in ys and every z, shaped (..., x, y, z) for a matrix D with any
    leading axes, such as a stack of spaces.  phi reads d(x,z) as a row
    view of D and d(z,y) as a transposed one: numpy's power loop rounds by
    operand layout, so these are the views `triple_pass` maps once per
    pass.  It runs under the caller's numpy error state."""
    Dt = np.swapaxes(D, -1, -2)
    return D[..., xs, ys, None], trifun._eval(phi, D[..., xs, None, :], Dt[..., None, ys, :])


def triangle_report(
    space: Space,
    phi: TriangleFunctionSpec,
    seed: int = DEFAULT_SEED,
    samples: int = TRIPLE_SAMPLES,
    listed: int | None = None,
) -> TriangleReport:
    """Count the violations of the generalized triangle condition and list
    the first `listed` of them (all of them when `listed` is None).

    Finite spaces are checked over every ordered triple, including the
    degenerate ones with z = x or z = y, by `triple_pass`.  Interval spaces
    are sampled: corner/midpoint combinations first, then `samples` seeded
    triples.
    """
    if isinstance(space, FiniteSemimetricSpace):
        return triple_pass(space, phi, listed, minimal_b=False)[0]
    xs, ys, zs = _interval_points(space, 3, samples, seed)
    with np.errstate(all="ignore"):
        lhs = space.d(xs, ys)
        rhs = trifun._eval(phi, space.d(xs, zs), space.d(zs, ys))
        bad = np.flatnonzero(violates(lhs, rhs))
    return TriangleReport(len(bad), tuple(
        TriangleViolation(float(xs[k]), float(ys[k]), float(zs[k]), float(lhs[k]), float(rhs[k]))
        for k in bad[:listed]))


def triple_pass(
    space: FiniteSemimetricSpace,
    phi: TriangleFunctionSpec | None = None,
    listed: int | None = None,
    minimal_b: bool = True,
) -> tuple[TriangleReport | None, float | None]:
    """The streamed pass of the module docstring: the report of
    `triangle_report(space, phi, listed=listed)` (None without a phi) and,
    if asked, `minimal_b_constant(space)` (None on fewer than two points)."""
    D, labels, n = space.dist, space.labels, space.size
    Dt = np.ascontiguousarray(D.T)  # sums are exact in any layout; contiguous ones are faster
    count, violations, best, floor = 0, [], 0.0, None
    operands = []

    def phi_block(xs, ys):
        # phi(d(x,z), d(z,y)) = combine(rows[x, z], cols[z, y]) over the views
        # _finite_triples reads, each operand mapped once per pass, by the
        # first block that evaluates phi
        if not operands:
            operands[:] = D, np.swapaxes(D, -1, -2)
            if kind.operand is not None:
                operands[:] = [kind.operand(phi, view) for view in operands]
        rows, cols = operands
        return (kind.combine or kind.formula)(phi, rows[xs, None, :], cols[None, ys, :])

    with np.errstate(all="ignore"):
        if phi is not None:
            kind = trifun._KINDS[phi.kind]
            floor = kind.sum_floor(phi, bool(np.any(D < 0.0)))
        for xs, ys in _triple_blocks(n):
            lhs = D[xs, ys]
            if minimal_b or floor is not None:
                # shaped (z, x, y), so that the minimum over z reduces whole slabs
                sums = Dt[:, xs, None] + D[:, None, ys]
                least = np.min(sums, axis=0)
                if floor is not None:  # before _largest_ratio writes to least
                    suspects = violates(lhs, least * floor)
                if minimal_b:
                    best = max(best, _largest_ratio(lhs, sums, least, xs, ys))
            if phi is None:
                continue
            if floor is None:  # screen by the least phi over z instead
                sums = None  # free the block's sums before phi is evaluated on it
                rhs = phi_block(xs, ys)
                suspects = violates(lhs, np.min(rhs, axis=2))
            if not suspects.any():
                continue
            if floor is not None:
                rhs = (np.moveaxis(kind.of_sum(phi, sums), 0, -1) if kind.of_sum is not None
                       else phi_block(xs, ys))
            bad = violates(lhs[..., None], rhs)
            hits = int(np.count_nonzero(bad))
            count += hits
            room = None if listed is None else listed - len(violations)
            if hits and (room is None or room > 0):
                violations.extend(
                    TriangleViolation(labels[xs.start + x], labels[ys.start + y], labels[z],
                                      float(lhs[x, y]), float(rhs[x, y, z]))
                    for x, y, z in np.argwhere(bad)[:room].tolist())
    triangle = None if phi is None else TriangleReport(count, tuple(violations))
    return triangle, best if minimal_b and n >= 2 else None


def _largest_ratio(lhs, sums, least, xs: slice, ys: slice) -> float:
    """The largest d(x,y) / (d(x,z) + d(z,y)) of a block with x != y, from
    its sums shaped (z, x, y) and their minimum over z, which it
    overwrites; see `minimal_b_constant`."""
    distinct = np.arange(xs.start, xs.stop)[:, None] != np.arange(ys.start, ys.stop)[None, :]
    redo = distinct & (least <= 0.0)
    if np.any(redo):  # some denominator <= 0: take the least positive one
        below = sums[:, redo]
        least[redo] = np.min(np.where(below > 0.0, below, np.inf), axis=0)
    return float(np.max(np.where(distinct & (lhs > 0.0), lhs / least, 0.0)))


def minimal_b_constant(space: FiniteSemimetricSpace) -> float:
    """Smallest K making the space a b-metric space: the supremum of
    d(x,y) / (d(x,z) + d(z,y)) over ordered triples with x != y.

    Degenerate chains through z = x or z = y participate, so the result is
    at least 1 on any semimetric space with two or more points, with
    equality exactly when the space is metric.  The triples are streamed
    by `triple_pass`, with a running maximum.  Per pair the largest ratio
    sits at the smallest positive denominator, and rounded division keeps
    that order, so dividing once by that denominator is exact.  Triples
    with x = y or a denominator <= 0 count as ratio 0, which pairs with
    d(x,y) <= 0 never exceed.
    """
    if space.size < 2:
        raise ValueError("need at least two points")
    return triple_pass(space)[1]
