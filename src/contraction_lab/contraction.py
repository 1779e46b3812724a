"""Contractive self-maps on semimetric spaces.

Six inequality families classify a self-map T through d(Tx, Ty) <= rhs(x, y):

    partial                rhs = alpha*d(x,y) + beta*d(x,Tx)
    partial_dual           rhs = alpha*d(x,y) + beta*d(y,Ty)
    weak                   rhs = alpha*d(x,y) + delta*d(x,Ty)
    weak_dual              rhs = alpha*d(x,y) + delta*d(y,Tx)
    bianchini              rhs = beta*max(d(x,Tx), d(y,Ty))
    chatterjea_bianchini   rhs = beta*max(d(x,Ty), d(y,Tx))

The module verifies membership (exhaustively on finite spaces, on seeded
samples on intervals), derives the per-step Picard factor of each family,
and decides whether the matching fixed-point principle applies for a given
triangle function, with a per-hypothesis checklist.

Everything that tells the families apart lives in one table, `_FAMILIES`.
Finite and interval spaces share one pair kernel: both are reduced to flat
vectors of the six distances above over the checked pairs, so verification
runs the same code on either kind of space.  Interval maps may be constant
(an expression without x).  Verification counts every violating pair exactly
but builds a witness only for the first ones a caller lists
(`verify_contraction`'s `listed`).  The checklist's hypotheses on phi come
from `trifun.check_hypothesis`, one lookup each: what sets the
triangle-function families apart lives in trifun's own table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    _interval_points,
    violates,
)
from .trifun import (TriangleFunctionSpec, _INTEGERS, _NUMBER, _STRING, _finite, _json_fields,
                     _json_float)


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
    factor: Callable[..., tuple]  # (phi, *constants): (factor, "") or (None, why there is none)
    gate: Callable[..., tuple[bool, str]]  # the "constants" hypothesis and its detail
    principle: str
    # hypotheses on phi after the chain bound, checked at the kind's beta: the
    # continuity the principle needs, then the family's side conditions
    phi_checks: tuple[str, ...]
    unique: Callable[..., bool] = lambda *constants: True  # granted once applicable
    # the conditions a derived factor rests on
    caveats: Callable[..., tuple[str, ...]] = lambda *constants: ()


def _inverse_factor(phi: TriangleFunctionSpec, beta: float) -> tuple[float | None, str]:
    """The chatterjea_bianchini factor: 1 / (the unit-profile inverse at
    1/beta), which is beta only for phi = max; 0 when beta = 0."""
    if beta == 0.0:
        return 0.0, ""
    threshold = trifun.unit_profile_inverse(phi, 1.0 / beta)
    if not threshold > 1.0:
        return None, f"unit profile inverse at 1/beta is {threshold:g}, needs > 1"
    return 0.0 if math.isinf(threshold) else 1.0 / threshold, ""


_FAMILIES = {
    "partial": _Family(
        ("alpha", "beta"), ("x_tx",),
        factor=lambda phi, a, b: (a + b, ""),
        gate=lambda a, b: (a + b < 1.0, f"alpha + beta = {a + b:g}"),
        principle="partial_contraction", phi_checks=("origin_continuity",),
    ),
    "partial_dual": _Family(
        ("alpha", "beta"), ("y_ty",),
        factor=lambda phi, a, b: (a / (1.0 - b), "") if b < 1.0 else (None, "needs beta < 1"),
        gate=lambda a, b: (b < 1.0 and a + b < 1.0,
                           f"alpha/(1-beta) = {a / (1.0 - b) if b < 1 else math.inf:g}"),
        principle="partial_contraction_dual_variant",
        phi_checks=("origin_continuity", "zero_slot_bound"),
    ),
    "weak": _Family(
        ("alpha", "delta"), ("x_ty",),
        factor=lambda phi, a, d: ((a + d) / (1.0 - d), "") if d < 1.0 else
        (None, "needs delta < 1"),
        gate=lambda a, d: (a + 2.0 * d < 1.0, f"alpha + 2*delta = {a + 2.0 * d:g}"),
        principle="weak_contraction_primal_variant",
        phi_checks=("full_continuity", "bounded_by_sum"),
        unique=lambda a, d: d == 0.0,
        caveats=lambda a, d: ("valid only when phi is bounded by u+v on the orbit pairs",),
    ),
    "weak_dual": _Family(
        ("alpha", "delta"), ("y_tx",),
        factor=lambda phi, a, d: (a, ""),
        gate=lambda a, d: (a < 1.0, f"alpha = {a:g}"),
        principle="weak_contraction", phi_checks=("origin_continuity",),
        unique=lambda a, d: d == 0.0,
    ),
    "bianchini": _Family(
        ("beta",), ("x_tx", "y_ty"),
        factor=lambda phi, b: (b, ""),
        gate=lambda b: (b < 1.0, f"beta = {b:g}"),
        principle="bianchini_contraction", phi_checks=("full_continuity", "zero_slot_bound"),
    ),
    "chatterjea_bianchini": _Family(
        ("beta",), ("x_ty", "y_tx"),
        factor=_inverse_factor,
        gate=lambda b: (True, f"beta = {b:g} (uniqueness needs beta < 1)"),
        principle="chatterjea_bianchini_contraction",
        phi_checks=("full_continuity", "zero_slot_at_beta", "inverse_gap",
                    "distance_continuity"),
        unique=lambda b: b < 1.0,
        # beta = 0 makes every d(Tx, Ty) zero, which needs neither
        caveats=lambda b: ("relies on homogeneity of phi and on positive step distances",)
        if b > 0.0 else (),
    ),
}

TAGS = tuple(_FAMILIES)

# tag -> names of the constants it uses, in report order
TAG_CONSTANTS = {tag: family.constants for tag, family in _FAMILIES.items()}


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
                if not (_finite(value) and value >= 0.0):
                    raise ValueError(f"{self.tag} needs finite {name} >= 0")
            elif value is not None:
                raise ValueError(f"{self.tag} does not take {name}")

    def constants(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in TAG_CONSTANTS[self.tag]}

    def to_json(self) -> dict:
        return {"tag": self.tag, **self.constants()}

    @classmethod
    def from_json(cls, obj: dict) -> "ContractionKind":
        obj = _json_fields(obj, ValueError, "contraction kind", {"tag": _STRING},
                           dict.fromkeys(("alpha", "beta", "delta"), _NUMBER))
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
        obj = _json_fields(obj, StructuralError, "self-map", {},
                           {"images": _INTEGERS, "expr": _STRING})
        images = obj.get("images")
        return cls(None if images is None else tuple(map(int, images)), obj.get("expr"))

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
            _check_images(np.asarray(self.images), space.size)
            return
        if self.expr is None:
            raise StructuralError("interval spaces need an expression map")
        (xs,) = _interval_points(space, 1, 1000, DEFAULT_SEED)
        images = self(xs)
        if not space.contains(images):  # a NaN or infinity is outside too
            k = next(k for k, image in enumerate(images) if not space.contains(image))
            raise StructuralError(
                f"map leaves the interval at sampled x={float(xs[k]):g}: "
                f"T(x)={float(images[k]):g}"
            )

    def __call__(self, x):
        if self.images is not None:
            return self.images[int(x)]
        return self._fn(x=x)  # type: ignore[attr-defined]

    @property
    def at(self) -> Callable[[float], float]:
        """The float entry T(x) of an expression map, Expression.at itself:
        one float in, one float out, under the caller's error state."""
        return self._fn.at  # type: ignore[attr-defined]


@dataclass(frozen=True)
class PairWitness:
    x: str | float
    y: str | float
    lhs: float
    rhs: float

    def to_json(self) -> dict:
        return {"x": self.x, "y": self.y, "lhs": _json_float(self.lhs),
                "rhs": _json_float(self.rhs)}


def _check_images(images: np.ndarray, size: int) -> None:
    """Raise unless every entry of an image table, or of a stack of them,
    indexes one of `size` points."""
    if np.any((images < 0) | (images >= size)):
        raise StructuralError("image index out of range")


def _components(d, xs, ys, txs, tys) -> dict:
    return {"lhs": d(txs, tys), "dxy": d(xs, ys), "x_tx": d(xs, txs), "y_ty": d(ys, tys),
            "x_ty": d(xs, tys), "y_tx": d(ys, txs)}


def _finite_pair_components(dist: np.ndarray, images: np.ndarray) -> dict:
    """The pair components of `_pair_components` for a stack of finite
    spaces: dist is a (B, n, n) stack of distance matrices and images the
    (B, n) stack of their image tables, whose entries must index points.
    Each component is (B, n^2), over all ordered pairs in row-major order."""
    b, n = images.shape
    xs, ys = np.divmod(np.arange(n * n), n)
    flat, offsets = dist.reshape(-1), np.arange(0, b * n * n, n * n)[:, None]
    # one flat gather per component is faster than indexing three axes
    return _components(lambda a, c: flat[offsets + a * n + c], xs, ys,
                       images[:, xs], images[:, ys])


def _pair_components(space: Space, mapping: SelfMap, seed: int, samples: int):
    """The ordered pairs a family inequality is checked over, and the six
    distances every right-hand side is built from, as flat vectors:

        lhs = d(Tx,Ty)   dxy = d(x,y)   x_tx = d(x,Tx)   y_ty = d(y,Ty)
        x_ty = d(x,Ty)   y_tx = d(y,Tx)

    Finite spaces give all N^2 ordered pairs in row-major order, through
    the stacked kernel `_finite_pair_components` with a stack of one;
    intervals give the 9 corner/midpoint pairs followed by `samples` seeded
    random pairs.  Returns (scope, pair_witness, components), where
    pair_witness(k, rhs) is the PairWitness of the pair at flat index k, with
    labels on finite spaces and floats on intervals.
    """
    mapping.validate_for(space)
    if isinstance(space, FiniteSemimetricSpace):
        scope, n, labels = "all-pairs", space.size, space.labels
        stack = _finite_pair_components(space.dist[None],
                                        np.asarray(mapping.images, dtype=np.int64)[None])
        components = {name: value[0] for name, value in stack.items()}

        def point(k):
            return labels[k // n], labels[k % n]
    else:
        scope = "sampled"
        xs, ys = _interval_points(space, 2, samples, seed)
        components = _components(space.d, xs, ys, mapping(xs), mapping(ys))

        def point(k):
            return float(xs[k]), float(ys[k])
    lhs = components["lhs"]
    return scope, lambda k, rhs: PairWitness(*point(k), float(lhs[k]), float(rhs)), components


def _rhs(kind: ContractionKind, components: dict):
    """The family right-hand side, elementwise over the pair components."""
    family = _FAMILIES[kind.tag]
    *alpha, scale = (getattr(kind, name) for name in family.constants)
    first, *rest = (components[name] for name in family.kernel)
    term = scale * (np.maximum(first, *rest) if rest else first)
    return alpha[0] * components["dxy"] + term if alpha else term


@dataclass(frozen=True)
class ContractionCertificate:
    """Outcome of checking the family inequality over pairs.

    margin is min(rhs - lhs); the witness is the pair achieving it.
    violation_count is the exact number of pairs that violate the inequality
    beyond the shared slack, and violations lists the first of them in pair
    order, as many as the caller asked for.  The certificate passes when no
    pair violates.
    """

    kind: ContractionKind
    scope: str  # "all-pairs" | "sampled"
    margin: float
    witness: PairWitness
    violations: tuple[PairWitness, ...]
    violation_count: int

    @property
    def passed(self) -> bool:
        return self.violation_count == 0

    def to_json(self) -> dict:
        return {
            "kind": self.kind.to_json(),
            "scope": self.scope,
            "passed": self.passed,
            "margin": _json_float(self.margin),
            "witness": self.witness.to_json(),
            "violation_count": self.violation_count,
            "violations": [v.to_json() for v in self.violations],
        }


def verify_contraction(
    space: Space,
    mapping: SelfMap,
    kind: ContractionKind,
    seed: int = DEFAULT_SEED,
    samples: int = PAIR_SAMPLES,
    listed: int | None = None,
) -> ContractionCertificate:
    """Check d(Tx,Ty) <= rhs over ordered pairs (exhaustive or sampled),
    listing the first `listed` violating pairs (all of them when None)."""
    scope, pair_witness, components = _pair_components(space, mapping, seed, samples)
    lhs = components["lhs"]
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf and inf - inf are nan
        rhs = _rhs(kind, components)
        bad = np.flatnonzero(violates(lhs, rhs))
        margins = rhs - lhs
    k = int(np.argmin(margins))
    violations = tuple(pair_witness(a, rhs[a]) for a in bad[:listed].tolist())
    return ContractionCertificate(kind, scope, float(margins[k]), pair_witness(k, rhs[k]),
                                  violations, len(bad))


@dataclass(frozen=True)
class StepFactorResult:
    """Per-step Picard factor of a family, when the derivation applies."""

    value: float | None
    derivable: bool
    reason: str = ""
    caveats: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"value": _json_float(self.value), "derivable": self.derivable,
                "reason": self.reason, "caveats": list(self.caveats)}


def step_contraction_factor(kind: ContractionKind, phi: TriangleFunctionSpec) -> StepFactorResult:
    """The factor r with d(x_{n+1}, x_{n+2}) <= r * d(x_n, x_{n+1}).

    partial: alpha+beta.  partial_dual: alpha/(1-beta), needs beta < 1.
    weak: (alpha+delta)/(1-delta), needs delta < 1 and phi bounded by u+v
    (the applicability checklist carries that condition).  weak_dual: alpha.
    bianchini: beta.  chatterjea_bianchini: the reciprocal of the
    generalized inverse of the unit profile at 1/beta; 0 when beta = 0.
    Factors at or above 1 are reported as not derivable.
    """
    family, values = _FAMILIES[kind.tag], tuple(kind.constants().values())
    value, reason = family.factor(phi, *values)
    if value is None:
        return StepFactorResult(None, False, reason)
    caveats = family.caveats(*values)
    if not value < 1.0:
        return StepFactorResult(None, False, f"factor {value:g} is not below 1", caveats)
    return StepFactorResult(float(value), True, "", caveats)


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    certified: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "certified": self.certified,
                "detail": self.detail}


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

    def to_json(self) -> dict:
        return {"principle": self.principle, "applicable": self.applicable,
                "unique": self.unique, "rate": _json_float(self.rate), "certified": self.certified,
                "checklist": [c.to_json() for c in self.checklist]}


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
    on_phi = (("homogeneity", None), ("chain_bound_finite", rate),
              *((name, kind.beta) for name in family.phi_checks))
    checks = [
        HypothesisCheck("constants", ok, True, detail),
        *(HypothesisCheck(name, *trifun.check_hypothesis(phi, name, at)) for name, at in on_phi),
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
