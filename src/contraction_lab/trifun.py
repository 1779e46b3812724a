"""Triangle functions: the two-argument bounds that generalize the triangle
inequality to d(x,y) <= Phi(d(x,z), d(z,y)).

A triangle function maps R+ x R+ to R+, is symmetric, non-decreasing in each
slot and vanishes at the origin.  Five families are supported:

    additive    Phi(u,v) = u + v           (ordinary metric bound)
    max         Phi(u,v) = max(u, v)       (ultrametric bound)
    bscaled     Phi(u,v) = K*(u + v), K>=1 (b-metric bound)
    power       Phi(u,v) = (u^q + v^q)^(1/q), q > 0
    custom      any expression in u, v from the restricted grammar

Beyond evaluation this module checks the defining axioms, positive
homogeneity Phi(k*u, k*v) = k*Phi(u, v), the nested chain bound

    Phi(1, Phi(a, Phi(a^2, ..., Phi(a^(p-1), a^p))))

together with its limiting constant C(a), the vanishing-deviation condition
|Phi(x_n, y_n) - y_n| -> 0 for x_n -> 0 (the route by which distance
continuity is established), and the generalized inverse of the unit profile
Psi(t) = Phi(t, 1).

Everything that tells the families apart lives in one table, `_KINDS`: the
parameter and its validity rule, the formula (as a function of u + v alone
where it reads only the sum, split into per-slot operands and their
combination for power), the factor by which u + v bounds it from below on a
finite space's triangle screen (the sum floor), the closed forms of C(a) and
of the unit-profile inverse, and the closed-form verdicts on the hypotheses
the applicability checklist asks about phi (`check_hypothesis`).  A missing
closed form means the fact is probed instead and the result is not
certified: custom functions have none.
"""

from __future__ import annotations

import math
import numbers
import reprlib
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .expressions import Expression, parse_expression

ABS_TOL = 1e-12
REL_TOL = 1e-9

# A violation of lhs <= rhs is declared only beyond this slack.
INEQ_REL_TOL = 1e-12
INEQ_ABS_TOL = 1e-12

# The power family's sum floor gives up this much times 1/q; see _power_floor.
SCREEN_MARGIN = 2.0**-43

CHAIN_DEPTH_LIMIT = 64
CHAIN_CONVERGENCE_TOL = 1e-12

# Inverse-by-bisection parameters for custom unit profiles.
BISECTION_STEPS = 200
BRACKET_CAP = 1e18
# The power family's closed-form inverse counts as overshooting when the
# profile reaches tau this far below it, relatively; closer than this is
# rounding in the closed form itself.
INVERSE_PROBE = 1e-12

_BATTERY_WINDOW = (1000, 10001)
_BATTERY_SEED = 20260201
_BATTERY_TRIALS = 16
_BATTERY_TOL = 1e-6
_PROBE_SEED = 0


class EvaluationError(ValueError):
    """A custom expression produced a negative or non-finite value."""


def violates(lhs, rhs):
    """Elementwise test of lhs > rhs beyond the shared inequality slack; a
    NaN on either side violates."""
    return ~(np.asarray(lhs) <= np.asarray(rhs) * (1.0 + INEQ_REL_TOL) + INEQ_ABS_TOL)


def _json_float(value):
    """`value` as JSON data: a non-finite float is spelled "inf", "-inf" or
    "nan", which JSON has no number for; anything else is returned as is.
    The reports of every module apply it in their `to_json` to the fields
    that can hold one: it is private to the package, not to this module."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else "inf" if value > 0.0 else "-inf"
    return value


class _Echo(reprlib.Repr):
    """reprlib's abbreviated repr, which the package's error messages echo
    values through, with an int beyond Python's digit limit for str()
    spelled by its digit count instead of raising that limit's ValueError."""

    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:
            n = abs(x)
            digits = max(1, int((n.bit_length() - 1) * math.log10(2.0)))  # at most the count
            while n >= 10**digits:
                digits += 1
            return f"<int of {digits} digits>"


# `value` abbreviated for an error message; private to the package, like _json_float
_echo = _Echo().repr


def _number_type(kind: type) -> bool:
    """The package's one number rule, on a type: a real number, not a bool
    (a string is no number at all)."""
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def _real(value) -> bool:
    return _number_type(type(value))


def _finite(value) -> bool:
    """The number rule where a number must be finite: a real, not a bool,
    within the float64 range, so that no integer beyond it rounds to inf."""
    return _real(value) and abs(value) <= sys.float_info.max


def _numbers(row) -> bool:
    """A list of numbers, checked in one C-level pass over its entry types."""
    return isinstance(row, list) and all(map(_number_type, set(map(type, row))))


# Field rules: what a field must hold, and the test of it.
_NUMBER = ("a number", _real)
_FINITE = ("a finite number", _finite)
_STRING = ("a string", lambda value: isinstance(value, str))
_STRINGS = ("a list of strings", lambda value: isinstance(value, list)
            and set(map(type, value)) <= {str})
_MATRIX = ("a list of lists of numbers", lambda value: isinstance(value, list)
           and all(map(_numbers, value)))
# JSON has one number type, so an integer is one without a fractional part
_INTEGERS = ("a list of integers", lambda value: isinstance(value, list) and all(
    type(i) is int and abs(i) <= sys.float_info.max or type(i) is float and i.is_integer()
    for i in value))


def _json_fields(obj, error: type, what: str, required=None, optional=None) -> dict:
    """`obj`, the JSON document a `from_json` reader is given, once it holds
    to the package's one field rule: a JSON object with every `required`
    field, no field outside `required` and `optional`, no null, and each
    field passing its rule; these map field names to (description, test)
    pairs.  With no rules given only the object is checked.  A breach
    raises `error`.  Private to the package, like `_json_float`."""
    if not isinstance(obj, dict):
        raise error(f"{what} JSON must be an object, got {_echo(obj)}")
    if required is None:
        return obj
    missing = [name for name in required if name not in obj]
    if missing:
        raise error(f"{what} JSON needs {', '.join(map(repr, missing))}")
    rules = {**required, **(optional or {})}
    unknown = [name for name in obj if name not in rules]
    if unknown:
        raise error(f"unknown {what} fields: {unknown}")
    for name, value in obj.items():
        description, test = rules[name]
        if value is None or not test(value):
            got = "null" if value is None else _echo(value)
            raise error(f"{what} {name} must be {description}, got {got}")
    return obj


@dataclass(frozen=True)
class _Kind:
    """What sets one triangle-function family apart; the callables take the
    spec first."""

    formula: Callable[..., object]  # (phi, u, v); see _eval
    of_sum: Callable[..., object] | None = None  # (phi, u + v) when the formula reads only the sum
    # a formula combine(operand(u), operand(v)) split in two, so that a pass
    # over a matrix maps each entry once: operand (phi, d), combine (phi, a, b)
    operand: Callable[..., object] | None = None
    combine: Callable[..., object] | None = None
    # (phi, signed) -> a factor c whose c * fl(u + v) screens phi(u, v): what
    # passes `violates` against it passes against phi; signed when an operand
    # may be negative; None when there is none
    sum_floor: Callable[..., float | None] = lambda phi, signed: None
    param: str | None = None  # the one field the kind takes
    valid: Callable[[object], bool] | None = None  # the parameter's validity rule
    requirement: str = ""  # the error when `valid` fails
    checked: bool = False  # evaluate() rejects negative or non-finite values
    c_alpha: Callable[..., float] | None = None  # (phi, alpha) -> C(alpha)
    inverse: Callable[..., float] | None = None  # (phi, tau) -> inf{t : Phi(t, 1) >= tau}
    verdicts: dict = field(default_factory=dict)  # hypothesis -> phi -> (passed, detail)
    chain_detail: Callable[..., str] = lambda phi, rate: ""  # suffix of the chain check


def _sum_kind(of_sum, **fields) -> _Kind:
    """A family whose formula reads only u + v: the formula is `of_sum`
    applied to the float64 sum."""
    return _Kind(lambda phi, u, v: of_sum(phi, np.add(u, v, dtype=np.float64)), of_sum, **fields)


def _split_kind(operand, combine, **fields) -> _Kind:
    """A family whose formula is combine(operand(u), operand(v))."""
    return _Kind(lambda phi, u, v: combine(phi, operand(phi, u), operand(phi, v)),
                 operand=operand, combine=combine, **fields)


def _holds(detail: str):
    return lambda phi: (True, detail)


def _power_c_alpha(phi, alpha: float) -> float:
    try:
        return (1.0 - alpha**phi.q) ** (-1.0 / phi.q)
    # beyond the float64 range, or alpha**q rounded to 1 (tiny q): no usable bound
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _power_floor(phi, signed: bool) -> float | None:
    """The power family's sum floor: c = 1 - SCREEN_MARGIN/q for q <= 1 on
    operands that are not negative, else None (for q > 1 phi lies below
    u + v, and a negative operand gives a NaN phi against a finite sum).

    For q <= 1 and u, v >= 0 the exact phi(u, v) = (u^q + v^q)^(1/q) is at
    least u + v, since t -> t^(1/q) is superadditive.  It is evaluated as
    pow(pow(u, q) + pow(v, q), r) with r = fl(1/q).  Let eps = 2^-53 and let
    each pow lie within k*eps of its exact value, relatively, where that
    value is a normal float.  Then, to first order:

    - the operand sum is at least (u^q + v^q)(1 - (k+1)*eps), so raising
      it to 1/q gives at least phi(u, v)(1 - (k+1)*eps/q) (Bernoulli);
    - r = (1 + delta)/q with |delta| <= eps scales that power by
      exp(delta * ln(result)), at least 1 - 745*eps while the result is
      finite (|ln| <= 745 down to the least subnormal);
    - the outer pow loses k*eps, and fl(u + v) <= (u + v)(1 + eps).

    So fl(phi) >= fl(u + v)(1 - eta) with eta = (k+1)*eps/q + (k+746)*eps:
    751*eps at q = 1 for a pow within one ulp (k = 2).  The margin is
    1024*eps/q, which covers any pow within 69 ulps (k <= 138, checked at
    q = 1, the worst case), with room for second-order terms and for the
    rounding of c and of c * fl(u + v): rounding is monotone, so
    fl(c * s) <= fl(phi) once c * s <= fl(phi).  Shortfalls measured with
    libm and with numpy's AVX-512 loop reach 675*eps/q, near q = 1.

    Two ranges fall outside that argument, and `violates` covers both.
    Where fl(u + v) < 2^-94, its absolute slack INEQ_ABS_TOL swallows
    c * fl(u + v) and the non-negative fl(phi) alike, so the screen's
    threshold is the exact one.  Where fl(u + v) is inf, so is the
    screen's threshold; fl(phi) then lies within eta of the overflow
    threshold or above it, which its relative slack INEQ_REL_TOL carries
    to inf as long as eta < INEQ_REL_TOL (q >= 1e-3); below that q both
    operands are at least 2^970 there, so phi(u, v) >= 2^(1/q + 970)
    overflows with room to spare.  At small q the margin grows until the
    screen passes only pairs that hold at lhs <= INEQ_ABS_TOL; the result
    is unchanged.
    """
    if signed or phi.q > 1.0:
        return None
    return 1.0 - SCREEN_MARGIN / phi.q


def _power_inverse(phi, tau: float) -> float:
    if tau <= 1.0:
        return 0.0
    try:
        t = (tau**phi.q - 1.0) ** (1.0 / phi.q)
    except OverflowError:
        # tau**q lies beyond float64 while the inverse is about tau; this form
        # cannot overflow, but it rounds differently, so it serves only here
        return tau * (1.0 - tau**-phi.q) ** (1.0 / phi.q)
    # Near tau = 1 the profile is flat, so the rounding in tau comes back
    # magnified in t, which can overshoot: where the computed profile
    # already reaches tau just below t, bisect down to where it first does.
    below = t * (1.0 - INVERSE_PROBE)
    if unit_profile(phi, below) >= tau:
        return _bisect_profile(phi, tau, 0.0, below)
    return t


# every named family is homogeneous and continuous
_CLOSED_FORM = {name: _holds("closed form")
                for name in ("homogeneity", "origin_continuity", "full_continuity")}
# and all but bscaled have phi(0, v) = v and a deviation phi(x_n, y) - y -> 0
_VANISHING = {"zero_slot_bound": _holds("phi(0, v) = v"),
              "distance_continuity": _holds("vanishing-deviation route")}

_KINDS = {
    "additive": _sum_kind(
        lambda phi, s: s,
        sum_floor=lambda phi, signed: 1.0,
        c_alpha=lambda phi, a: 1.0 / (1.0 - a),
        inverse=lambda phi, tau: max(tau - 1.0, 0.0),
        verdicts={**_CLOSED_FORM, **_VANISHING, "bounded_by_sum": _holds("equality")},
    ),
    "max": _Kind(
        lambda phi, u, v: np.maximum(np.asarray(u, dtype=np.float64), v),
        c_alpha=lambda phi, a: 1.0,
        inverse=lambda phi, tau: tau if tau > 1.0 else 0.0,
        verdicts={**_CLOSED_FORM, **_VANISHING, "bounded_by_sum": _holds("max <= sum")},
    ),
    "bscaled": _sum_kind(
        lambda phi, s: phi.K * s,
        param="K",
        valid=lambda K: _finite(K) and K >= 1.0,
        requirement="bscaled requires a finite scale K >= 1",
        sum_floor=lambda phi, signed: phi.K,
        c_alpha=lambda phi, a: phi.K / (1.0 - a * phi.K) if a * phi.K < 1.0 else math.inf,
        inverse=lambda phi, tau: max(tau / phi.K - 1.0, 0.0),
        verdicts={
            **_CLOSED_FORM,
            "zero_slot_bound": lambda phi: (phi.K <= 1.0, f"sup over v < 1 is K = {phi.K:g}"),
            "bounded_by_sum": lambda phi: (phi.K <= 1.0, f"K = {phi.K:g}"),
            "distance_continuity": lambda phi: (
                (True, "K = 1 reduces to additive") if phi.K <= 1.0 else
                (False, f"route unavailable at K = {phi.K:g}: deviation tends to (K-1)*y")),
        },
        chain_detail=lambda phi, rate: f", rate*K = {rate * phi.K:g}",
    ),
    "power": _split_kind(
        # float64 even for an int q, where an int operand would wrap in int64
        lambda phi, d: np.power(d, phi.q, dtype=np.float64),
        lambda phi, a, b: np.power(a + b, 1.0 / phi.q),
        sum_floor=_power_floor,
        param="q",
        valid=lambda q: _finite(q) and q > 0.0,
        requirement="power requires a finite exponent q > 0",
        c_alpha=_power_c_alpha,
        inverse=_power_inverse,
        verdicts={**_CLOSED_FORM, **_VANISHING,
                  "bounded_by_sum": lambda phi: (phi.q >= 1.0, f"q = {phi.q:g}")},
    ),
    "custom": _Kind(
        lambda phi, u, v: _parsed_phi(phi.expr)(u=u, v=v),
        param="expr",
        # parsing raises on bad syntax or bad variables
        valid=lambda expr: isinstance(expr, str) and expr != "" and _parsed_phi(expr) is not None,
        requirement="custom requires an expression in u, v",
        checked=True,
    ),
}

KINDS = tuple(_KINDS)


@dataclass(frozen=True)
class TriangleFunctionSpec:
    """One triangle function: a family tag plus its parameter, if any."""

    kind: str
    K: float | None = None
    q: float | None = None
    expr: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown triangle function kind {self.kind!r}")
        row = _KINDS[self.kind]
        for name, label in (("K", "K"), ("q", "q"), ("expr", "an expression")):
            value = getattr(self, name)
            if name == row.param:
                if not row.valid(value):
                    raise ValueError(row.requirement)
            elif value is not None:
                raise ValueError(f"kind {self.kind!r} does not take {label}")

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        param = _KINDS[self.kind].param
        if param is not None:
            out[param] = getattr(self, param)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "TriangleFunctionSpec":
        obj = _json_fields(obj, ValueError, "triangle function", {"kind": _STRING},
                           {"K": _NUMBER, "q": _NUMBER, "expr": _STRING})
        return cls(obj["kind"], obj.get("K"), obj.get("q"), obj.get("expr"))


def additive() -> TriangleFunctionSpec:
    return TriangleFunctionSpec("additive")


def maximum() -> TriangleFunctionSpec:
    return TriangleFunctionSpec("max")


def bscaled(K: float) -> TriangleFunctionSpec:
    return TriangleFunctionSpec("bscaled", K=K)


def power(q: float) -> TriangleFunctionSpec:
    return TriangleFunctionSpec("power", q=q)


def custom(expr: str) -> TriangleFunctionSpec:
    return TriangleFunctionSpec("custom", expr=expr)


@lru_cache(maxsize=256)
def _parsed_phi(expr: str) -> Expression:
    return parse_expression(expr, allowed=("u", "v"))


def _eval(phi: TriangleFunctionSpec, u, v):
    """Phi(u, v) by the family's formula, without the custom guard; arrays
    broadcast.  It runs under the caller's numpy error state: every caller
    enters np.errstate(all="ignore") once around all its calls, since
    entering one costs about as much as a power-family evaluation."""
    return _KINDS[phi.kind].formula(phi, u, v)


def evaluate(phi: TriangleFunctionSpec, u, v):
    """Phi(u, v) for scalars or arrays, without numpy warnings: an overflow
    gives inf.

    For custom expressions a negative or non-finite result raises
    EvaluationError naming the offending inputs.
    """
    with np.errstate(all="ignore"):
        result = _eval(phi, u, v)
    if _KINDS[phi.kind].checked:
        arr = np.asarray(result, dtype=np.float64)
        bad = ~np.isfinite(arr) | (arr < 0.0)
        if np.any(bad):
            idx = tuple(np.argwhere(bad)[0])
            bad_u = np.broadcast_to(np.asarray(u, dtype=np.float64), arr.shape)[idx]
            bad_v = np.broadcast_to(np.asarray(v, dtype=np.float64), arr.shape)[idx]
            raise EvaluationError(
                f"custom expression {phi.expr!r} gives {arr[idx]} "
                f"at u={bad_u}, v={bad_v}"
            )
    if np.ndim(result) == 0:
        return float(result)
    return result


def unit_profile(phi: TriangleFunctionSpec, t: float) -> float:
    """Psi(t) = Phi(t, 1), the slice used by the generalized inverse."""
    with np.errstate(all="ignore"):
        return float(_eval(phi, t, 1.0))


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    witness: tuple | None = None
    detail: str = ""

    def to_json(self) -> dict:
        witness = None if self.witness is None else [_json_float(w) for w in self.witness]
        return {"name": self.name, "passed": self.passed, "witness": witness,
                "detail": self.detail}


def _check(name: str, failed, witness, detail: str = "") -> CheckItem:
    """The check `name`, failing at the first set entry of the mask `failed`
    with the witness witness(*index) of that entry."""
    if not np.any(failed):
        return CheckItem(name, True)
    return CheckItem(name, False, witness(*np.argwhere(failed)[0]), detail)


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    checks: tuple[CheckItem, ...]

    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_json() for c in self.checks]}


def check_axioms(phi: TriangleFunctionSpec) -> AxiomReport:
    """Probe the defining axioms on the 17 x 17 grid over [0, 2]^2 (step 1/8).

    Checks the codomain (finite, non-negative), Phi(0,0) = 0, symmetry and
    monotonicity in each slot, to ABS_TOL and REL_TOL.  Each failed check
    carries the first witness in grid order.
    """
    axis = np.linspace(0.0, 2.0, 17)
    uu, vv = np.meshgrid(axis, axis, indexing="ij")
    with np.errstate(all="ignore"):
        values = _eval(phi, uu, vv)
        # differences of infinite values are nan, which flags nothing
        gap = np.abs(values - values.T)
        slot_diffs = (np.diff(values, axis=0), np.diff(values, axis=1))
    origin = float(values[0, 0])
    at_origin = abs(origin) <= ABS_TOL
    checks = (
        CheckItem("zero_at_origin", at_origin, None if at_origin else (0.0, 0.0, origin),
                  f"phi(0,0) = {origin}"),
        _check("nonnegative", ~np.isfinite(values) | (values < -ABS_TOL),
               lambda i, j: (float(axis[i]), float(axis[j]), float(values[i, j])),
               "value out of R+"),
        _check("symmetry", gap > REL_TOL * np.maximum(1.0, np.abs(values)),
               lambda i, j: (float(axis[i]), float(axis[j]), float(values[i, j]),
                             float(values[j, i])),
               "phi(u,v) != phi(v,u)"),
        _check("monotone_first_slot",
               slot_diffs[0] < -(REL_TOL * np.maximum(1.0, np.abs(values[:-1, :])) + ABS_TOL),
               lambda i, j: (float(axis[i]), float(axis[i + 1]), float(axis[j])),
               "value decreases along the slot"),
        _check("monotone_second_slot",
               slot_diffs[1] < -(REL_TOL * np.maximum(1.0, np.abs(values[:, :-1])) + ABS_TOL),
               lambda i, j: (float(axis[i]), float(axis[j]), float(axis[j + 1])),
               "value decreases along the slot"),
    )
    return AxiomReport(all(c.passed for c in checks), tuple(checks))


_HOMOGENEITY_SAMPLES = np.array([  # rows k, u and v
    (k, u, v)
    for k in (0.0, 0.5, 1.0, 2.0, 3.7, 10.0)
    for (u, v) in ((0.0, 0.0), (1.0, 0.0), (0.3, 0.7), (1.0, 1.0), (2.0, 1.0), (5.0, 0.2))
]).T.copy()


@dataclass(frozen=True)
class HomogeneityReport:
    passed: bool
    witness: tuple | None = None  # (k, u, v, phi(ku,kv), k*phi(u,v))
    tol: float = REL_TOL


def check_homogeneity(phi: TriangleFunctionSpec) -> HomogeneityReport:
    """Check Phi(k*u, k*v) = k*Phi(u, v) on the 36 triples (k, u, v) of
    _HOMOGENEITY_SAMPLES, to REL_TOL relative to max(1, |k*Phi(u, v)|), each
    side in one array evaluation; the witness is the first failing triple."""
    k, u, v = _HOMOGENEITY_SAMPLES
    with np.errstate(all="ignore"):
        scaled = _eval(phi, k * u, k * v)
        direct = k * _eval(phi, u, v)
        # a NaN on either side fails nothing, as NaN comparisons are false
        bad = np.abs(scaled - direct) > REL_TOL * np.maximum(1.0, np.abs(direct))
    if not bad.any():
        return HomogeneityReport(True)
    first = np.argmax(bad)
    return HomogeneityReport(False, tuple(float(c[first]) for c in (k, u, v, scaled, direct)))


def chain_value(phi: TriangleFunctionSpec, alpha: float, p: int) -> float:
    """The nested bound Phi(1, Phi(alpha, ... Phi(alpha^(p-1), alpha^p))):
    the last value of chain_report to depth p."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    if p < 1:
        raise ValueError("depth p must be at least 1")
    return chain_report(phi, alpha, p).values[-1]


def chain_bound_constant(phi: TriangleFunctionSpec, alpha: float) -> float:
    """The limiting constant C(alpha) of the nested chain bound.

    Closed forms: 1/(1-a) for additive, 1 for max, (1-a^q)^(-1/q) for power,
    and K/(1-a*K) for bscaled when a*K < 1 (+inf otherwise).  For custom
    functions this is the observed supremum up to the depth cutoff when the
    chain has settled, +inf when it is still growing there; see chain_report.
    A C(alpha) beyond the float64 range (power with small q) reads as +inf,
    which means no usable bound, just as a divergent chain does.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    closed_form = _KINDS[phi.kind].c_alpha
    if closed_form is not None:
        return closed_form(phi, alpha)
    report = chain_report(phi, alpha)
    return report.c_alpha if report.converged else math.inf


@dataclass(frozen=True)
class ChainBoundReport:
    """Chain values by depth plus the limiting constant c_alpha."""

    alpha: float
    values: tuple[float, ...]
    c_alpha: float
    converged: bool
    certified: bool


def chain_report(
    phi: TriangleFunctionSpec, alpha: float, p_max: int = CHAIN_DEPTH_LIMIT
) -> ChainBoundReport:
    """Chain values for p = 1..p_max with the limiting constant.

    The values come from one backward sweep: entry p starts at alpha^p and
    is wrapped by Phi(alpha^i, .) for every level i < p, innermost first, in
    p_max array evaluations with a per-depth scalar loop's bits.  For the
    named families c_alpha is the closed form and certified; for custom
    functions it is the observed supremum, with `converged` recording
    whether successive values settled to within 1e-12.
    """
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    sweep = np.array([alpha**p for p in range(1, p_max + 1)], dtype=np.float64)
    with np.errstate(all="ignore"):
        for i in range(p_max - 1, -1, -1):
            sweep[i:] = _eval(phi, alpha**i, sweep[i:])
    values = tuple(sweep.tolist())
    converged = len(values) >= 2 and abs(values[-1] - values[-2]) < CHAIN_CONVERGENCE_TOL
    closed_form = _KINDS[phi.kind].c_alpha
    if closed_form is not None:
        c = closed_form(phi, alpha)
    else:
        finite = [v for v in values if math.isfinite(v)]
        c = max(finite) if len(finite) == len(values) else math.inf
    return ChainBoundReport(alpha, values, c, converged, certified=closed_form is not None)


def _x_battery(n: np.ndarray, rng: np.random.Generator) -> list[tuple[str, np.ndarray]]:
    with np.errstate(all="ignore"):
        return [
            ("zero", np.zeros_like(n)),
            ("inv_pow5", n**-5.0),
            ("inv_pow8", n**-8.0),
            ("geo_half", np.power(0.5, n)),
            ("geo_09", np.power(0.9, n)),
            ("exp_20", np.exp(-n / 20.0)),
            ("sin_decay", np.abs(np.sin(n)) * np.exp(-n / 10.0)),
            ("random_decay", rng.random(n.size) * np.power(0.7, n)),
        ]


def _y_battery(n: np.ndarray, rng: np.random.Generator) -> list[tuple[str, np.ndarray]]:
    return [
        ("const_one", np.ones_like(n)),
        ("const_zero", np.zeros_like(n)),
        ("const_half", np.full_like(n, 0.5)),
        ("osc_sin", 1.0 + 0.5 * np.sin(n)),
        ("alternating", np.where(n.astype(np.int64) % 2 == 1, 2.0, 0.25)),
        ("random_bounded", rng.uniform(0.0, 2.0, n.size)),
        ("harmonic", 1.0 / n),
        ("drift_to_one", 1.0 + 1.0 / n),
    ]


@dataclass(frozen=True)
class PairDeviation:
    x_name: str
    y_name: str
    max_deviation: float


@dataclass(frozen=True)
class LimitDeviationReport:
    """Result of the vanishing-deviation battery.

    `passed` means every pair (x-sequence -> 0, bounded y-sequence) kept the
    tail of |Phi(x_n, y_n) - y_n| below tol on the index window; it is the
    empirical route by which a semimetric built on phi is shown continuous.
    A False verdict is a falsification witness, the first failing pair in
    battery order, not a proof of failure: slowly decaying families can
    miss the fixed window.
    """

    passed: bool
    tol: float
    window: tuple[int, int]
    witness: PairDeviation | None
    origin_continuous: bool
    origin_tail: float


def check_limit_deviation(phi: TriangleFunctionSpec) -> LimitDeviationReport:
    """Run the deviation battery |Phi(x_n, y_n) - y_n| over the tail window.

    The battery pairs 8 deterministic vanishing x-sequences with 8 bounded
    y-sequences (the constant-1 sequence first), plus _BATTERY_TRIALS = 16
    extra seeded random pairs, and passes when every pair's deviation stays
    below _BATTERY_TOL = 1e-6.  Also probes Phi along rays into the origin
    and reports whether the values vanish there, to the same tolerance.
    """
    n = np.arange(*_BATTERY_WINDOW, dtype=np.float64)
    rng = np.random.default_rng(_BATTERY_SEED)
    xs = _x_battery(n, rng)
    ys = _y_battery(n, rng)
    pairs = [(xn, xv, yn, yv) for (xn, xv) in xs for (yn, yv) in ys]
    for i in range(_BATTERY_TRIALS):
        xv = rng.random() * np.power(0.8, n)
        yv = rng.uniform(0.0, 2.0, n.size)
        pairs.append((f"rand_x{i}", xv, f"rand_y{i}", yv))

    witness: PairDeviation | None = None
    with np.errstate(all="ignore"):
        for x_name, xv, y_name, yv in pairs:
            deviation = float(np.max(np.abs(_eval(phi, xv, yv) - yv)))
            if not deviation < _BATTERY_TOL:
                witness = PairDeviation(x_name, y_name, deviation)
                break

        t = np.power(2.0, -np.arange(0, 48, dtype=np.float64))
        origin_tail = 0.0
        for a, b in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.37)):
            ray = _eval(phi, t * a, t * b)
            origin_tail = max(origin_tail, float(np.abs(ray[-1])))

    return LimitDeviationReport(
        passed=witness is None,
        tol=_BATTERY_TOL,
        window=_BATTERY_WINDOW,
        witness=witness,
        origin_continuous=origin_tail < _BATTERY_TOL,
        origin_tail=origin_tail,
    )


@lru_cache(maxsize=256)
def _deviation_report(phi: TriangleFunctionSpec) -> LimitDeviationReport:
    """The vanishing-deviation battery on phi, run once per phi; the
    continuity probes and the bound audit all read this report."""
    return check_limit_deviation(phi)


# Probes of the applicability hypotheses, each giving (passed, certified,
# detail).  The sampled ones stand in for a closed-form verdict the family
# lacks and ignore `at`.

_ZERO_SLOT_GRID = np.concatenate([np.linspace(0.0, 0.999, 1000), [1.0 - 1e-9]])


def _sampled(bad, detail):
    """A sampled probe's verdict: failing at the first set entry of the mask
    `bad`, which detail(*index) spells, else passing."""
    return (False, False, detail(*np.argwhere(bad)[0])) if bad.any() else (True, False, "sampled")


def _sampled_homogeneity(phi: TriangleFunctionSpec, at):
    report = check_homogeneity(phi)
    return report.passed, False, "sampled" if report.passed else f"fails at {report.witness[:3]}"


def _sampled_origin_continuity(phi: TriangleFunctionSpec, at):
    report = _deviation_report(phi)
    return report.origin_continuous, False, f"tail value {report.origin_tail:g}"


@lru_cache(maxsize=128)
def _sampled_full_continuity(phi: TriangleFunctionSpec):
    """Probe for jumps: tiny symmetric perturbations at sampled points."""
    h = 1e-9
    rng = np.random.default_rng(_PROBE_SEED)
    base = np.concatenate([np.linspace(0.0, 4.0, 30), rng.uniform(0.0, 4.0, 70)])
    uu, vv = np.meshgrid(base, base, indexing="ij")
    with np.errstate(all="ignore"):
        lo = _eval(phi, np.maximum(uu - h, 0.0), np.maximum(vv - h, 0.0))
        hi = _eval(phi, uu + h, vv + h)
        osc = np.abs(hi - lo)
        jump = osc > 1e-6 * np.maximum(1.0, np.abs(hi))
    return _sampled(jump, lambda i, j: f"oscillation {osc[i, j]:g} near "
                    f"(u={base[i]:g}, v={base[j]:g})")


def _sampled_zero_slot_bound(phi: TriangleFunctionSpec, at):
    """phi(0, v) < 1 for all 0 <= v < 1, on a grid."""
    with np.errstate(all="ignore"):
        values = _eval(phi, 0.0, _ZERO_SLOT_GRID)
    return _sampled(~(values < 1.0), lambda k: f"phi(0, {_ZERO_SLOT_GRID[k]:g}) = {values[k]:g}")


def _sampled_bounded_by_sum(phi: TriangleFunctionSpec, at):
    """phi(a, b) <= a + b on seeded samples."""
    rng = np.random.default_rng(_PROBE_SEED)
    a = np.concatenate([np.linspace(0.0, 5.0, 40), rng.uniform(0.0, 5.0, 200)])
    b = np.concatenate([np.linspace(5.0, 0.0, 40), rng.uniform(0.0, 5.0, 200)])
    with np.errstate(all="ignore"):
        values = _eval(phi, a, b)
    return _sampled(violates(values, a + b),
                    lambda k: f"phi({a[k]:g}, {b[k]:g}) = {values[k]:g} > {a[k] + b[k]:g}")


def _sampled_distance_continuity(phi: TriangleFunctionSpec, at):
    ok = _deviation_report(phi).passed
    return ok, False, "battery " + ("passed" if ok else "failed")


def unit_profile_inverse(phi: TriangleFunctionSpec, tau: float) -> float:
    """Generalized inverse inf{t >= 0 : Phi(t, 1) >= tau}.

    Closed forms for the named families; custom profiles fall back to
    bracketing plus bisection on the non-decreasing unit profile.  Returns
    +inf when the profile never reaches tau.
    """
    if not tau >= 0.0:
        raise ValueError("tau must be non-negative")
    closed_form = _KINDS[phi.kind].inverse
    if closed_form is not None:
        return closed_form(phi, tau)
    return _probed_inverse(phi, tau)


@lru_cache(maxsize=256)
def _probed_inverse(phi: TriangleFunctionSpec, tau: float) -> float:
    """unit_profile_inverse for a profile with no closed form, cached per
    (phi, tau): it costs a bracketing plus BISECTION_STEPS evaluations, and
    a chatterjea_bianchini classify asks for the one at 1/beta three times
    (its step factor, the rate of its applicability and the inverse_gap
    probe)."""
    if unit_profile(phi, 0.0) >= tau:
        return 0.0
    hi = 1.0
    with np.errstate(all="ignore"):
        while float(_eval(phi, hi, 1.0)) < tau:
            hi *= 2.0
            if hi > BRACKET_CAP:
                return math.inf
    return _bisect_profile(phi, tau, 0.0, hi)


def _bisect_profile(phi: TriangleFunctionSpec, tau: float, lo: float, hi: float) -> float:
    """The least t in (lo, hi] with Phi(t, 1) >= tau, to float resolution,
    by bisection on the non-decreasing unit profile; the profile must stay
    below tau at lo and reach it at hi."""
    with np.errstate(all="ignore"):
        for _ in range(BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            if float(_eval(phi, mid, 1.0)) >= tau:
                hi = mid
            else:
                lo = mid
    return hi


def _chain_bound_finite(phi: TriangleFunctionSpec, rate: float | None):
    if rate is None:
        return False, True, "no per-step factor available"
    row = _KINDS[phi.kind]
    if row.c_alpha is None:
        report = chain_report(phi, rate)
        ok = math.isfinite(report.c_alpha) and report.converged
        return ok, False, (f"observed C({rate:g}) = {report.c_alpha:g}, "
                           + ("converged" if report.converged else "not converged"))
    c = chain_bound_constant(phi, rate)
    return math.isfinite(c), True, f"C({rate:g}) = {c:g}" + row.chain_detail(phi, rate)


def _zero_slot_at_beta(phi: TriangleFunctionSpec, beta: float):
    with np.errstate(all="ignore"):
        value = float(_eval(phi, 0.0, beta))
    return value < 1.0, True, f"phi(0, beta) = {value:g}"


def _inverse_gap(phi: TriangleFunctionSpec, beta: float):
    if not beta > 0.0:
        return True, True, "beta = 0"
    threshold = unit_profile_inverse(phi, 1.0 / beta)
    return (threshold > 1.0, _KINDS[phi.kind].inverse is not None,
            f"inverse at 1/beta is {threshold:g}")


_PROBES = {
    "homogeneity": _sampled_homogeneity,
    "origin_continuity": _sampled_origin_continuity,
    "full_continuity": lambda phi, at: _sampled_full_continuity(phi),  # cached per phi
    "zero_slot_bound": _sampled_zero_slot_bound,
    "bounded_by_sum": _sampled_bounded_by_sum,
    "distance_continuity": _sampled_distance_continuity,
    "chain_bound_finite": _chain_bound_finite,
    "zero_slot_at_beta": _zero_slot_at_beta,
    "inverse_gap": _inverse_gap,
}


def check_hypothesis(
    phi: TriangleFunctionSpec, name: str, at: float | None = None
) -> tuple[bool, bool, str]:
    """(passed, certified, detail) of the applicability hypothesis `name` on phi.

    The family's closed-form verdict when it has one; otherwise a probe, which
    is certified only where it reads a closed form (C(alpha), the inverse) or
    evaluates phi exactly.  `at` is the per-step rate for chain_bound_finite
    (None when there is none) and beta for zero_slot_at_beta and inverse_gap.
    """
    closed_form = _KINDS[phi.kind].verdicts.get(name)
    if closed_form is not None:
        passed, detail = closed_form(phi)
        return passed, True, detail
    return _PROBES[name](phi, at)
