"""Contractive self-maps on semimetric spaces.

Six inequality families classify a self-map T through d(Tx, Ty) <= rhs(x, y):

    partial                rhs = alpha*d(x,y) + beta*d(x,Tx)
    partial_dual           rhs = alpha*d(x,y) + beta*d(y,Ty)
    weak                   rhs = alpha*d(x,y) + delta*d(x,Ty)
    weak_dual              rhs = alpha*d(x,y) + delta*d(y,Tx)
    bianchini              rhs = beta*max(d(x,Tx), d(y,Ty))
    chatterjea_bianchini   rhs = beta*max(d(x,Ty), d(y,Tx))

The module verifies membership (exhaustively on finite spaces, on seeded
samples on intervals), estimates minimal constants, derives the per-step
Picard factor of each family, and decides whether the matching fixed-point
principle applies for a given triangle function, with a per-hypothesis
checklist.

Everything that tells the families apart lives in one table, `_FAMILIES`.
Finite and interval spaces share one pair kernel: both are reduced to flat
vectors of the six distances above over the checked pairs, so verification
and estimation run the same code on either kind of space.  Interval maps
may be constant (an expression without x).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import trifun
from .expressions import parse_expression
from .space import (
    DEFAULT_SEED,
    PAIR_SAMPLES,
    FiniteSemimetricSpace,
    Space,
    StructuralError,
    violates,
)
from .trifun import TriangleFunctionSpec


@dataclass(frozen=True)
class _Family:
    """What sets one contraction family apart from the others.

    The right-hand side is alpha*d(x,y) + s*kernel when the family has two
    constants and s*kernel when it has one, where s is its last constant and
    the kernel is one pair component (see `_pair_components`) or the larger
    of two.  The callables take the constants in report order.
    """

    constants: tuple[str, ...]
    kernel: tuple[str, ...]
    rate: Callable[..., float]  # per-step Picard factor (phi = max for chatterjea_bianchini)
    gate: Callable[..., tuple[bool, str]]  # the "constants" hypothesis and its detail
    principle: str
    continuity: str  # "origin" | "full"
    side_checks: Callable[..., tuple] = lambda kind, phi: ()
    unique: Callable[..., bool] = lambda *constants: True  # granted once applicable
    rate_needs_secondary_below_one: bool = False  # the rate divides by 1 - s
    caveats: tuple[str, ...] = ()


_FAMILIES = {
    "partial": _Family(
        ("alpha", "beta"), ("x_tx",),
        rate=lambda a, b: a + b,
        gate=lambda a, b: (a + b < 1.0, f"alpha + beta = {a + b:g}"),
        principle="partial_contraction", continuity="origin",
    ),
    "partial_dual": _Family(
        ("alpha", "beta"), ("y_ty",),
        rate=lambda a, b: a / (1.0 - b),
        gate=lambda a, b: (b < 1.0 and a + b < 1.0,
                           f"alpha/(1-beta) = {a / (1.0 - b) if b < 1 else math.inf:g}"),
        principle="partial_contraction_dual_variant", continuity="origin",
        side_checks=lambda kind, phi: (_zero_slot_check(phi),),
        rate_needs_secondary_below_one=True,
    ),
    "weak": _Family(
        ("alpha", "delta"), ("x_ty",),
        rate=lambda a, d: (a + d) / (1.0 - d),
        gate=lambda a, d: (a + 2.0 * d < 1.0, f"alpha + 2*delta = {a + 2.0 * d:g}"),
        principle="weak_contraction_primal_variant", continuity="full",
        side_checks=lambda kind, phi: (_subadditive_check(phi),),
        unique=lambda a, d: d == 0.0,
        rate_needs_secondary_below_one=True,
        caveats=("valid only when phi is bounded by u+v on the orbit pairs",),
    ),
    "weak_dual": _Family(
        ("alpha", "delta"), ("y_tx",),
        rate=lambda a, d: a,
        gate=lambda a, d: (a < 1.0, f"alpha = {a:g}"),
        principle="weak_contraction", continuity="origin",
        unique=lambda a, d: d == 0.0,
    ),
    "bianchini": _Family(
        ("beta",), ("x_tx", "y_ty"),
        rate=lambda b: b,
        gate=lambda b: (b < 1.0, f"beta = {b:g}"),
        principle="bianchini_contraction", continuity="full",
        side_checks=lambda kind, phi: (_zero_slot_check(phi),),
    ),
    "chatterjea_bianchini": _Family(
        ("beta",), ("x_ty", "y_tx"),
        rate=lambda b: b,
        gate=lambda b: (True, f"beta = {b:g} (uniqueness needs beta < 1)"),
        principle="chatterjea_bianchini_contraction", continuity="full",
        side_checks=lambda kind, phi: _chatterjea_side_checks(kind, phi),
        unique=lambda b: b < 1.0,
        caveats=("relies on homogeneity of phi and on positive step distances",),
    ),
}

TAGS = tuple(_FAMILIES)

# tag -> names of the constants it uses, in report order
TAG_CONSTANTS = {tag: family.constants for tag, family in _FAMILIES.items()}

ESTIMATE_GRID = 101


@dataclass(frozen=True)
class ContractionKind:
    """A family tag plus the constants that family uses."""

    tag: str
    alpha: float | None = None
    beta: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ValueError(f"unknown contraction tag {self.tag!r}")
        wanted = TAG_CONSTANTS[self.tag]
        for name in ("alpha", "beta", "delta"):
            value = getattr(self, name)
            if name in wanted:
                if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                        or not math.isfinite(value) or value < 0.0):
                    raise ValueError(f"{self.tag} needs finite {name} >= 0")
            elif value is not None:
                raise ValueError(f"{self.tag} does not take {name}")

    def constants(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in TAG_CONSTANTS[self.tag]}

    def to_json(self) -> dict:
        return {"tag": self.tag, **self.constants()}

    @classmethod
    def from_json(cls, obj: dict) -> "ContractionKind":
        if not isinstance(obj, dict) or "tag" not in obj:
            raise ValueError("contraction kind JSON needs a 'tag' field")
        extra = set(obj) - {"tag", "alpha", "beta", "delta"}
        if extra:
            raise ValueError(f"unknown contraction kind fields: {sorted(extra)}")
        return cls(obj["tag"], obj.get("alpha"), obj.get("beta"), obj.get("delta"))


@dataclass(frozen=True)
class SelfMap:
    """A self-map: an image table on finite spaces, an expression in x on
    intervals."""

    images: tuple[int, ...] | None = None
    expr: str | None = None

    def __post_init__(self):
        if (self.images is None) == (self.expr is None):
            raise StructuralError("self-map needs exactly one of images or expr")
        if self.expr is not None:
            object.__setattr__(self, "_fn", parse_expression(self.expr, allowed=("x",)))

    @classmethod
    def from_json(cls, obj: dict) -> "SelfMap":
        if not isinstance(obj, dict):
            raise StructuralError("self-map JSON must be an object")
        if "images" in obj:
            images = obj["images"]
            if not isinstance(images, (list, tuple)) or not all(
                    isinstance(i, int) and not isinstance(i, bool) for i in images):
                raise StructuralError("self-map images must be integer indices")
            return cls(images=tuple(images))
        if "expr" in obj:
            return cls(expr=str(obj["expr"]))
        raise StructuralError("self-map JSON needs 'images' or 'expr'")

    def to_json(self) -> dict:
        if self.images is not None:
            return {"images": list(self.images)}
        return {"expr": self.expr}

    def validate_for(self, space: Space) -> None:
        """Structural fit: index range on finite spaces, domain fit sampled
        on intervals."""
        if isinstance(space, FiniteSemimetricSpace):
            if self.images is None:
                raise StructuralError("finite spaces need an image table")
            if len(self.images) != space.size:
                raise StructuralError("image table size does not match the space")
            if any(not 0 <= i < space.size for i in self.images):
                raise StructuralError("image index out of range")
            return
        if self.expr is None:
            raise StructuralError("interval spaces need an expression map")
        xs = np.concatenate([
            np.array([space.lo, 0.5 * (space.lo + space.hi), space.hi]),
            space.lo + (space.hi - space.lo) * np.random.default_rng(DEFAULT_SEED).random(1000),
        ])
        images = np.asarray(self(xs), dtype=np.float64)
        if not np.all(np.isfinite(images)) or not space.contains(images):
            k = int(np.argwhere(~np.isfinite(images) | (images < space.lo - 1e-12)
                                | (images > space.hi + 1e-12))[0][0])
            raise StructuralError(
                f"map leaves the interval at sampled x={float(xs[k]):g}: "
                f"T(x)={float(images[k]):g}"
            )

    def __call__(self, x):
        if self.images is not None:
            if np.ndim(x) == 0:
                return self.images[int(x)]
            return np.asarray(self.images, dtype=np.int64)[np.asarray(x, dtype=np.int64)]
        return self._fn(x=x)  # type: ignore[attr-defined]


@dataclass(frozen=True)
class PairWitness:
    x: str | float
    y: str | float
    lhs: float
    rhs: float


def _pair_components(space: Space, mapping: SelfMap, seed: int, samples: int):
    """The ordered pairs a family inequality is checked over, and the six
    distances every right-hand side is built from, as flat vectors:

        lhs = d(Tx,Ty)   dxy = d(x,y)   x_tx = d(x,Tx)   y_ty = d(y,Ty)
        x_ty = d(x,Ty)   y_tx = d(y,Tx)

    Finite spaces give all N^2 ordered pairs in row-major order; intervals
    give the 9 corner/midpoint pairs followed by `samples` seeded random
    pairs.  Returns (scope, pair_witness, components), where
    pair_witness(k, rhs) is the PairWitness of the pair at flat index k, with
    labels on finite spaces and floats on intervals.
    """
    mapping.validate_for(space)
    if isinstance(space, FiniteSemimetricSpace):
        scope, n, labels = "all-pairs", space.size, space.labels
        xs, ys = np.divmod(np.arange(n * n), n)

        def d(a, b):
            return space.dist[a, b]

        def point(k):
            return labels[k // n], labels[k % n]
    else:
        scope, d = "sampled", space.d
        ends = np.array([space.lo, 0.5 * (space.lo + space.hi), space.hi])
        grid = np.array(np.meshgrid(ends, ends, indexing="ij")).reshape(2, -1).T
        rng = np.random.default_rng(seed)
        random_part = space.lo + (space.hi - space.lo) * rng.random((samples, 2))
        xs, ys = np.vstack([grid, random_part]).T

        def point(k):
            return float(xs[k]), float(ys[k])
    txs, tys = mapping(xs), mapping(ys)
    components = {
        "lhs": d(txs, tys), "dxy": d(xs, ys),
        "x_tx": d(xs, txs), "y_ty": d(ys, tys),
        "x_ty": d(xs, tys), "y_tx": d(ys, txs),
    }
    for name, value in components.items():
        value = np.asarray(value, dtype=np.float64)
        # a constant map evaluates to a scalar: spread it over the pairs
        components[name] = value if value.shape == xs.shape else np.broadcast_to(value, xs.shape)
    lhs = components["lhs"]
    return scope, lambda k, rhs: PairWitness(*point(k), float(lhs[k]), float(rhs)), components


def _kernel(family: _Family, components: dict):
    first, *rest = (components[name] for name in family.kernel)
    return np.maximum(first, *rest) if rest else first


def _rhs(kind: ContractionKind, components: dict):
    """The family right-hand side over vector or scalar pair components."""
    family = _FAMILIES[kind.tag]
    *alpha, scale = (getattr(kind, name) for name in family.constants)
    term = scale * _kernel(family, components)
    return alpha[0] * components["dxy"] + term if alpha else term


def defining_rhs(kind: ContractionKind, space: Space, mapping: SelfMap, x, y) -> float:
    """The right-hand side of the family's inequality at the pair (x, y)."""
    if isinstance(space, FiniteSemimetricSpace):
        x = space.index_of(x) if isinstance(x, str) else x
        y = space.index_of(y) if isinstance(y, str) else y
    tx, ty = mapping(x), mapping(y)
    d = space.d
    components = {"dxy": d(x, y), "x_tx": d(x, tx), "y_ty": d(y, ty),
                  "x_ty": d(x, ty), "y_tx": d(y, tx)}
    with np.errstate(over="ignore"):
        return float(_rhs(kind, components))


@dataclass(frozen=True)
class ContractionCertificate:
    """Outcome of checking the family inequality over pairs.

    margin is min(rhs - lhs); the witness is the pair achieving it.  The
    certificate passes when no pair violates the inequality beyond the
    shared slack.
    """

    kind: ContractionKind
    scope: str  # "all-pairs" | "sampled"
    margin: float
    witness: PairWitness
    violations: tuple[PairWitness, ...]

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0


def verify_contraction(
    space: Space,
    mapping: SelfMap,
    kind: ContractionKind,
    seed: int = DEFAULT_SEED,
    samples: int = PAIR_SAMPLES,
) -> ContractionCertificate:
    """Check d(Tx,Ty) <= rhs over ordered pairs (exhaustive or sampled)."""
    scope, pair_witness, components = _pair_components(space, mapping, seed, samples)
    lhs = components["lhs"]
    with np.errstate(over="ignore"):
        rhs = _rhs(kind, components)
        bad = violates(lhs, rhs)
    margins = rhs - lhs
    k = int(np.argmin(margins))
    violations = tuple(pair_witness(a, rhs[a]) for a in np.flatnonzero(bad).tolist())
    return ContractionCertificate(kind, scope, float(margins[k]), pair_witness(k, rhs[k]),
                                  violations)


@dataclass(frozen=True)
class FrontierPoint:
    """Minimal feasible alpha at one grid value of the secondary constant."""

    secondary: float
    alpha_min: float


@dataclass(frozen=True)
class ConstantsEstimate:
    """Minimal constants achieving the family inequality for a given map.

    Single-constant families report beta_star (or unbounded with the witness
    pair).  Two-constant families report the (secondary, alpha_min) frontier
    over a grid of the secondary constant in [0, 1).
    """

    tag: str
    scope: str
    beta_star: float | None = None
    unbounded: bool = False
    witness: PairWitness | None = None
    frontier: tuple[FrontierPoint, ...] = ()

    def best_rate(self) -> tuple[float, "ContractionKind | None"]:
        """Smallest per-step factor available on the estimate, with a kind
        realizing it (None when nothing lies below 1)."""
        family = _FAMILIES[self.tag]
        if len(family.constants) == 1:
            bounded = not self.unbounded and self.beta_star is not None
            candidates = [(self.beta_star,)] if bounded else []
        else:
            candidates = [(point.alpha_min, point.secondary) for point in self.frontier]
        best, best_kind = math.inf, None
        for values in candidates:
            rate = family.rate(*values)
            if rate < best:
                best = rate
                best_kind = ContractionKind(self.tag, **dict(zip(family.constants, values)))
        return best, best_kind


def estimate_min_constants(
    space: Space,
    mapping: SelfMap,
    tag: str,
    seed: int = DEFAULT_SEED,
    samples: int = PAIR_SAMPLES,
) -> ConstantsEstimate:
    """Estimate the smallest constants placing the map in the family `tag`.

    On finite spaces the estimate is exhaustive and tight; on intervals it
    is a sampled lower bound (scope "sampled").
    """
    if tag not in TAGS:
        raise ValueError(f"unknown contraction tag {tag!r}")
    family = _FAMILIES[tag]
    scope, pair_witness, components = _pair_components(space, mapping, seed, samples)
    lhs = components["lhs"]
    kernel = _kernel(family, components)
    if len(family.constants) == 1:
        positive = kernel > 0.0
        stuck = ~positive & (lhs > 0.0)
        if np.any(stuck):
            return ConstantsEstimate(tag, scope, unbounded=True,
                                     witness=pair_witness(int(np.argmax(stuck)), 0.0))
        if not np.any(positive):
            return ConstantsEstimate(tag, scope, beta_star=0.0)
        ratios = np.where(positive, lhs / np.where(positive, kernel, 1.0), 0.0)
        k = int(np.argmax(ratios))
        return ConstantsEstimate(tag, scope, beta_star=float(ratios[k]),
                                 witness=pair_witness(k, kernel[k]))

    grid = np.arange(ESTIMATE_GRID, dtype=np.float64) / ESTIMATE_GRID
    residual = lhs[None, :] - grid[:, None] * kernel[None, :]
    dxy = components["dxy"]
    positive_d = dxy > 0.0
    needed = np.where(positive_d[None, :], residual / np.where(positive_d, dxy, 1.0), 0.0)
    alpha_min = np.clip(np.max(needed, axis=1), 0.0, None)
    frontier = tuple(FrontierPoint(float(g), float(a)) for g, a in zip(grid, alpha_min))
    return ConstantsEstimate(tag, scope, frontier=frontier)


@dataclass(frozen=True)
class StepFactorResult:
    """Per-step Picard factor of a family, when the derivation applies."""

    value: float | None
    derivable: bool
    reason: str = ""
    caveats: tuple[str, ...] = ()


def step_contraction_factor(kind: ContractionKind, phi: TriangleFunctionSpec) -> StepFactorResult:
    """The factor r with d(x_{n+1}, x_{n+2}) <= r * d(x_n, x_{n+1}).

    partial: alpha+beta.  partial_dual: alpha/(1-beta), needs beta < 1.
    weak: (alpha+delta)/(1-delta), needs delta < 1 and phi bounded by u+v
    (the applicability checklist carries that condition).  weak_dual: alpha.
    bianchini: beta.  chatterjea_bianchini: the reciprocal of the
    generalized inverse of the unit profile at 1/beta; 0 when beta = 0.
    Factors at or above 1 are reported as not derivable.
    """
    family = _FAMILIES[kind.tag]
    values = tuple(kind.constants().values())
    if kind.tag == "chatterjea_bianchini":
        if kind.beta == 0.0:
            return StepFactorResult(0.0, True)
        threshold = trifun.unit_profile_inverse(phi, 1.0 / kind.beta)
        if not threshold > 1.0:
            return StepFactorResult(
                None, False,
                f"unit profile inverse at 1/beta is {threshold:g}, needs > 1",
            )
        value = 0.0 if math.isinf(threshold) else 1.0 / threshold
    elif family.rate_needs_secondary_below_one and values[-1] >= 1.0:
        return StepFactorResult(None, False, f"needs {family.constants[-1]} < 1")
    else:
        value = family.rate(*values)
    if not value < 1.0:
        return StepFactorResult(None, False, f"factor {value:g} is not below 1", family.caveats)
    return StepFactorResult(float(value), True, "", family.caveats)


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    certified: bool
    detail: str = ""


@dataclass(frozen=True)
class ApplicabilityRecord:
    """Decision on whether the family's fixed-point principle applies.

    `principle` names the statement in force; `rate` is the per-step factor
    it guarantees; `unique` records whether it also grants uniqueness.
    `certified` is False when any hypothesis was only sampled (custom phi).
    """

    principle: str
    applicable: bool
    unique: bool
    rate: float | None
    certified: bool
    checklist: tuple[HypothesisCheck, ...]

    def failed(self) -> list[str]:
        return [c.name for c in self.checklist if not c.passed]


_ZERO_SLOT_GRID = np.concatenate([np.linspace(0.0, 0.999, 1000), [1.0 - 1e-9]])


def _homogeneity_check(phi: TriangleFunctionSpec) -> HypothesisCheck:
    if phi.kind != "custom":
        return HypothesisCheck("homogeneity", True, True, "closed form")
    report = trifun.check_homogeneity(phi)
    detail = "sampled" if report.passed else f"fails at {report.witness[:3]}"
    return HypothesisCheck("homogeneity", report.passed, False, detail)


def _continuity_check(phi: TriangleFunctionSpec, where: str) -> HypothesisCheck:
    """Continuity of phi at the origin or everywhere (`where` is "origin" or
    "full")."""
    name = f"{where}_continuity"
    if phi.kind != "custom":
        return HypothesisCheck(name, True, True, "closed form")
    if where == "origin":
        report = trifun.check_limit_deviation(phi)
        return HypothesisCheck(name, report.origin_continuous, False,
                               f"tail value {report.origin_tail:g}")
    passed, detail = _sampled_full_continuity(phi)
    return HypothesisCheck(name, passed, False, detail)


@lru_cache(maxsize=128)
def _sampled_full_continuity(phi: TriangleFunctionSpec) -> tuple[bool, str]:
    """Probe for jumps: tiny symmetric perturbations at sampled points."""
    h = 1e-9
    rng = np.random.default_rng(DEFAULT_SEED)
    base = np.concatenate([np.linspace(0.0, 4.0, 30), rng.uniform(0.0, 4.0, 70)])
    uu, vv = np.meshgrid(base, base, indexing="ij")
    with np.errstate(all="ignore"):
        lo = np.asarray(trifun._eval_raw(phi, np.maximum(uu - h, 0.0),
                                         np.maximum(vv - h, 0.0)), dtype=np.float64)
        hi = np.asarray(trifun._eval_raw(phi, uu + h, vv + h), dtype=np.float64)
        osc = np.abs(hi - lo)
        jump = osc > 1e-6 * np.maximum(1.0, np.abs(hi))
    if np.any(jump):
        i, j = np.argwhere(jump)[0]
        return False, f"oscillation {osc[i, j]:g} near (u={base[i]:g}, v={base[j]:g})"
    return True, "sampled"


def _zero_slot_check(phi: TriangleFunctionSpec) -> HypothesisCheck:
    """phi(0, v) < 1 for all 0 <= v < 1."""
    name = "zero_slot_bound"
    if phi.kind in ("additive", "max", "power"):
        return HypothesisCheck(name, True, True, "phi(0, v) = v")
    if phi.kind == "bscaled":
        ok = phi.K <= 1.0
        return HypothesisCheck(name, ok, True, f"sup over v < 1 is K = {phi.K:g}")
    with np.errstate(all="ignore"):
        values = np.asarray(trifun._eval_raw(phi, 0.0, _ZERO_SLOT_GRID), dtype=np.float64)
    bad = ~(values < 1.0)
    if np.any(bad):
        k = int(np.argwhere(bad)[0][0])
        return HypothesisCheck(name, False, False,
                               f"phi(0, {_ZERO_SLOT_GRID[k]:g}) = {values[k]:g}")
    return HypothesisCheck(name, True, False, "sampled")


def _subadditive_check(phi: TriangleFunctionSpec) -> HypothesisCheck:
    """phi(a, b) <= a + b."""
    name = "bounded_by_sum"
    if phi.kind == "additive":
        return HypothesisCheck(name, True, True, "equality")
    if phi.kind == "max":
        return HypothesisCheck(name, True, True, "max <= sum")
    if phi.kind == "bscaled":
        ok = phi.K <= 1.0
        return HypothesisCheck(name, ok, True, f"K = {phi.K:g}")
    if phi.kind == "power":
        ok = phi.q >= 1.0
        return HypothesisCheck(name, ok, True, f"q = {phi.q:g}")
    rng = np.random.default_rng(DEFAULT_SEED)
    a = np.concatenate([np.linspace(0.0, 5.0, 40), rng.uniform(0.0, 5.0, 200)])
    b = np.concatenate([np.linspace(5.0, 0.0, 40), rng.uniform(0.0, 5.0, 200)])
    with np.errstate(all="ignore"):
        values = np.asarray(trifun._eval_raw(phi, a, b), dtype=np.float64)
    bad = violates(values, a + b)
    if np.any(bad):
        k = int(np.argwhere(bad)[0][0])
        return HypothesisCheck(name, False, False,
                               f"phi({a[k]:g}, {b[k]:g}) = {values[k]:g} > {a[k] + b[k]:g}")
    return HypothesisCheck(name, True, False, "sampled")


def _distance_continuity_check(phi: TriangleFunctionSpec) -> HypothesisCheck:
    """Distance continuity via the vanishing-deviation route.

    Closed-form verdicts for the named families (additive, max and power
    satisfy the route for every parameter; bscaled does only at K = 1);
    custom functions run the battery.
    """
    name = "distance_continuity"
    if phi.kind in ("additive", "max", "power"):
        return HypothesisCheck(name, True, True, "vanishing-deviation route")
    if phi.kind == "bscaled":
        ok = phi.K <= 1.0
        detail = "K = 1 reduces to additive" if ok else \
            f"route unavailable at K = {phi.K:g}: deviation tends to (K-1)*y"
        return HypothesisCheck(name, ok, True, detail)
    ok = trifun.limit_deviation_passes(phi)
    return HypothesisCheck(name, ok, False, "battery " + ("passed" if ok else "failed"))


def _chain_check(phi: TriangleFunctionSpec, rate: float | None) -> HypothesisCheck:
    name = "chain_bound_finite"
    if rate is None:
        return HypothesisCheck(name, False, True, "no per-step factor available")
    if phi.kind == "custom":
        report = trifun.chain_report(phi, rate)
        ok = math.isfinite(report.c_alpha) and report.converged
        return HypothesisCheck(name, ok, False,
                               f"observed C({rate:g}) = {report.c_alpha:g}, "
                               + ("converged" if report.converged else "not converged"))
    c = trifun.chain_bound_constant(phi, rate)
    ok = math.isfinite(c)
    detail = f"C({rate:g}) = {c:g}"
    if phi.kind == "bscaled":
        detail += f", rate*K = {rate * phi.K:g}"
    return HypothesisCheck(name, ok, True, detail)


def _chatterjea_side_checks(kind: ContractionKind, phi: TriangleFunctionSpec):
    value = float(trifun._eval_raw(phi, 0.0, kind.beta))
    checks = [HypothesisCheck("zero_slot_at_beta", value < 1.0, True,
                              f"phi(0, beta) = {value:g}")]
    if kind.beta > 0.0:
        threshold = trifun.unit_profile_inverse(phi, 1.0 / kind.beta)
        checks.append(HypothesisCheck("inverse_gap", threshold > 1.0,
                                      phi.kind != "custom",
                                      f"inverse at 1/beta is {threshold:g}"))
    else:
        checks.append(HypothesisCheck("inverse_gap", True, True, "beta = 0"))
    checks.append(_distance_continuity_check(phi))
    return tuple(checks)


def applicability(kind: ContractionKind, phi: TriangleFunctionSpec) -> ApplicabilityRecord:
    """Decide whether the family's fixed-point principle applies to (kind, phi).

    The checklist mirrors the hypotheses of the matching principle: the
    constants inequality, homogeneity, a finite chain bound at the per-step
    rate, the continuity requirement (at the origin for the partial and weak
    principles, full continuity for the bianchini and chatterjea families),
    and the family-specific side conditions.  The dual/primal variants carry
    the extra conditions their derivations need; they are reported as
    requirements of this route without any claim of necessity.
    """
    family = _FAMILIES[kind.tag]
    values = tuple(kind.constants().values())
    factor = step_contraction_factor(kind, phi)
    rate = factor.value if factor.derivable else None
    ok, detail = family.gate(*values)
    checks = [
        HypothesisCheck("constants", ok, True, detail),
        _homogeneity_check(phi),
        _chain_check(phi, rate),
        _continuity_check(phi, family.continuity),
        *family.side_checks(kind, phi),
    ]
    applicable = all(c.passed for c in checks)
    return ApplicabilityRecord(
        principle=family.principle,
        applicable=applicable,
        unique=applicable and family.unique(*values),
        rate=rate,
        certified=all(c.certified for c in checks),
        checklist=tuple(checks),
    )
