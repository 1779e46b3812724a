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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expressions import Expression, parse_expression

KINDS = ("additive", "max", "bscaled", "power", "custom")

ABS_TOL = 1e-12
REL_TOL = 1e-9

CHAIN_DEPTH_LIMIT = 64
CHAIN_CONVERGENCE_TOL = 1e-12

# Inverse-by-bisection parameters for custom unit profiles.
BISECTION_STEPS = 200
BRACKET_CAP = 1e18

_BATTERY_WINDOW = (1000, 10001)
_BATTERY_SEED = 20260201


class EvaluationError(ValueError):
    """A custom expression produced a negative or non-finite value."""


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
        if self.kind == "bscaled":
            if self.K is None or not math.isfinite(self.K) or self.K < 1.0:
                raise ValueError("bscaled requires a finite scale K >= 1")
        elif self.K is not None:
            raise ValueError(f"kind {self.kind!r} does not take K")
        if self.kind == "power":
            if self.q is None or not math.isfinite(self.q) or self.q <= 0.0:
                raise ValueError("power requires a finite exponent q > 0")
        elif self.q is not None:
            raise ValueError(f"kind {self.kind!r} does not take q")
        if self.kind == "custom":
            if not self.expr:
                raise ValueError("custom requires an expression in u, v")
            _parsed_phi(self.expr)  # raises on bad syntax or bad variables
        elif self.expr is not None:
            raise ValueError(f"kind {self.kind!r} does not take an expression")

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.K is not None:
            out["K"] = self.K
        if self.q is not None:
            out["q"] = self.q
        if self.expr is not None:
            out["expr"] = self.expr
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "TriangleFunctionSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("triangle function JSON needs a 'kind' field")
        extra = set(obj) - {"kind", "K", "q", "expr"}
        if extra:
            raise ValueError(f"unknown triangle function fields: {sorted(extra)}")
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


def _eval_raw(phi: TriangleFunctionSpec, u, v):
    """Evaluate without the non-negativity guard; arrays broadcast."""
    if phi.kind == "power":
        with np.errstate(all="ignore"):
            return _eval_formula(phi, u, v)
    return _eval_formula(phi, u, v)


def _eval_formula(phi: TriangleFunctionSpec, u, v):
    """The family's formula under the caller's numpy error state."""
    if phi.kind == "additive":
        return np.add(u, v, dtype=np.float64)
    if phi.kind == "max":
        return np.maximum(np.asarray(u, dtype=np.float64), v)
    if phi.kind == "bscaled":
        return phi.K * np.add(u, v, dtype=np.float64)
    if phi.kind == "power":
        q = phi.q
        return np.power(np.power(u, q) + np.power(v, q), 1.0 / q)
    return _parsed_phi(phi.expr)(u=u, v=v)


def evaluate(phi: TriangleFunctionSpec, u, v):
    """Phi(u, v) for scalars or arrays.

    For custom expressions a negative or non-finite result raises
    EvaluationError naming the offending inputs.
    """
    result = _eval_raw(phi, u, v)
    if phi.kind == "custom":
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
    return float(_eval_raw(phi, t, 1.0))


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    witness: tuple | None = None
    detail: str = ""


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    checks: tuple[CheckItem, ...]

    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def check_axioms(
    phi: TriangleFunctionSpec, u_max: float = 2.0, points: int = 17
) -> AxiomReport:
    """Probe the defining axioms on a [0, u_max]^2 grid.

    Checks the codomain (finite, non-negative), Phi(0,0) = 0, symmetry and
    monotonicity in each slot.  Each failed check carries the first witness
    in grid order.
    """
    if points < 2 or u_max <= 0.0:
        raise ValueError("grid needs u_max > 0 and at least 2 points per axis")
    axis = np.linspace(0.0, u_max, points)
    uu, vv = np.meshgrid(axis, axis, indexing="ij")
    with np.errstate(all="ignore"):
        values = np.asarray(_eval_raw(phi, uu, vv), dtype=np.float64)
    checks: list[CheckItem] = []

    origin = float(values[0, 0])
    checks.append(
        CheckItem(
            "zero_at_origin",
            abs(origin) <= ABS_TOL,
            None if abs(origin) <= ABS_TOL else (0.0, 0.0, origin),
            f"phi(0,0) = {origin}",
        )
    )

    bad = ~np.isfinite(values) | (values < -ABS_TOL)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        witness = (float(axis[i]), float(axis[j]), float(values[i, j]))
        checks.append(CheckItem("nonnegative", False, witness, "value out of R+"))
    else:
        checks.append(CheckItem("nonnegative", True))

    gap = np.abs(values - values.T)
    tol = REL_TOL * np.maximum(1.0, np.abs(values))
    asym = gap > tol
    if np.any(asym):
        i, j = np.argwhere(asym)[0]
        witness = (float(axis[i]), float(axis[j]), float(values[i, j]), float(values[j, i]))
        checks.append(CheckItem("symmetry", False, witness, "phi(u,v) != phi(v,u)"))
    else:
        checks.append(CheckItem("symmetry", True))

    for name, diffs, argpair in (
        ("monotone_first_slot", np.diff(values, axis=0), 0),
        ("monotone_second_slot", np.diff(values, axis=1), 1),
    ):
        slack = REL_TOL * np.maximum(1.0, np.abs(values[:-1, :] if argpair == 0 else values[:, :-1]))
        drop = diffs < -(slack + ABS_TOL)
        if np.any(drop):
            i, j = np.argwhere(drop)[0]
            if argpair == 0:
                witness = (float(axis[i]), float(axis[i + 1]), float(axis[j]))
            else:
                witness = (float(axis[i]), float(axis[j]), float(axis[j + 1]))
            checks.append(CheckItem(name, False, witness, "value decreases along the slot"))
        else:
            checks.append(CheckItem(name, True))

    return AxiomReport(all(c.passed for c in checks), tuple(checks))


_HOMOGENEITY_SAMPLES: tuple[tuple[float, float, float], ...] = tuple(
    (k, u, v)
    for k in (0.0, 0.5, 1.0, 2.0, 3.7, 10.0)
    for (u, v) in ((0.0, 0.0), (1.0, 0.0), (0.3, 0.7), (1.0, 1.0), (2.0, 1.0), (5.0, 0.2))
)


@dataclass(frozen=True)
class HomogeneityReport:
    passed: bool
    witness: tuple | None = None  # (k, u, v, phi(ku,kv), k*phi(u,v))
    tol: float = REL_TOL


def check_homogeneity(
    phi: TriangleFunctionSpec,
    samples: tuple[tuple[float, float, float], ...] | None = None,
    tol: float = REL_TOL,
) -> HomogeneityReport:
    """Check Phi(k*u, k*v) = k*Phi(u, v) on sample triples (k, u, v)."""
    if samples is None:
        samples = _HOMOGENEITY_SAMPLES
    for k, u, v in samples:
        scaled = float(_eval_raw(phi, k * u, k * v))
        direct = k * float(_eval_raw(phi, u, v))
        if abs(scaled - direct) > tol * max(1.0, abs(direct)):
            return HomogeneityReport(False, (k, u, v, scaled, direct), tol)
    return HomogeneityReport(True, None, tol)


def chain_value(phi: TriangleFunctionSpec, alpha: float, p: int) -> float:
    """The nested bound Phi(1, Phi(alpha, ... Phi(alpha^(p-1), alpha^p)))."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    if p < 1:
        raise ValueError("depth p must be at least 1")
    value = alpha**p
    # entering an error state costs about as much as a power-family level,
    # so the whole nest runs under one
    with np.errstate(all="ignore"):
        for i in range(p - 1, -1, -1):
            value = float(_eval_formula(phi, alpha**i, value))
    return value


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
    if phi.kind == "additive":
        return 1.0 / (1.0 - alpha)
    if phi.kind == "max":
        return 1.0
    if phi.kind == "power":
        try:
            return (1.0 - alpha**phi.q) ** (-1.0 / phi.q)
        except OverflowError:
            return math.inf
    if phi.kind == "bscaled":
        if alpha * phi.K < 1.0:
            return phi.K / (1.0 - alpha * phi.K)
        return math.inf
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


def _chain_sweep(
    phi: TriangleFunctionSpec, alpha: float, p_max: int
) -> tuple[float, ...]:
    """chain_value(phi, alpha, p) for p = 1..p_max in one backward sweep.

    Entry p starts at alpha^p and is wrapped by Phi(alpha^i, .) for every
    level i < p, innermost first, exactly as chain_value does for one depth:
    p_max array evaluations instead of p_max*(p_max+1)/2 scalar ones, with
    the same operations per entry and so the same values bit for bit.
    """
    values = np.array([alpha**p for p in range(1, p_max + 1)], dtype=np.float64)
    with np.errstate(all="ignore"):
        for i in range(p_max - 1, -1, -1):
            values[i:] = _eval_formula(phi, alpha**i, values[i:])
    return tuple(values.tolist())


def chain_report(
    phi: TriangleFunctionSpec, alpha: float, p_max: int = CHAIN_DEPTH_LIMIT
) -> ChainBoundReport:
    """Chain values for p = 1..p_max with the limiting constant.

    The values equal chain_value at each depth; they are built in one sweep
    over the nesting levels.  For the named families c_alpha is the closed
    form and certified; for custom functions it is the observed supremum,
    with `converged` recording whether successive values settled to within
    1e-12.
    """
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    values = _chain_sweep(phi, alpha, p_max)
    converged = len(values) >= 2 and abs(values[-1] - values[-2]) < CHAIN_CONVERGENCE_TOL
    if phi.kind == "custom":
        finite = [v for v in values if math.isfinite(v)]
        c = max(finite) if len(finite) == len(values) else math.inf
        return ChainBoundReport(alpha, values, c, converged, certified=False)
    c = chain_bound_constant(phi, alpha)
    return ChainBoundReport(alpha, values, c, converged, certified=True)


def _battery_index() -> np.ndarray:
    lo, hi = _BATTERY_WINDOW
    return np.arange(lo, hi, dtype=np.float64)


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
    A False verdict is a falsification witness, not a proof of failure:
    slowly decaying families can miss the fixed window.
    """

    passed: bool
    tol: float
    window: tuple[int, int]
    pairs: tuple[PairDeviation, ...]
    witness: PairDeviation | None
    origin_continuous: bool
    origin_tail: float


def check_limit_deviation(
    phi: TriangleFunctionSpec, trials: int = 16, tol: float = 1e-6
) -> LimitDeviationReport:
    """Run the deviation battery |Phi(x_n, y_n) - y_n| over the tail window.

    The battery pairs 8 deterministic vanishing x-sequences with 8 bounded
    y-sequences (the constant-1 sequence first), plus `trials` extra seeded
    random pairs.  Also probes Phi along rays into the origin and reports
    whether the values vanish there.
    """
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = _battery_index()
    rng = np.random.default_rng(_BATTERY_SEED)
    xs = _x_battery(n, rng)
    ys = _y_battery(n, rng)
    pairs = [(xn, xv, yn, yv) for (xn, xv) in xs for (yn, yv) in ys]
    for i in range(trials):
        xv = rng.random() * np.power(0.8, n)
        yv = rng.uniform(0.0, 2.0, n.size)
        pairs.append((f"rand_x{i}", xv, f"rand_y{i}", yv))

    results: list[PairDeviation] = []
    witness: PairDeviation | None = None
    with np.errstate(all="ignore"):
        for x_name, xv, y_name, yv in pairs:
            deviation = float(np.max(np.abs(_eval_raw(phi, xv, yv) - yv)))
            entry = PairDeviation(x_name, y_name, deviation)
            results.append(entry)
            if witness is None and not deviation < tol:
                witness = entry

        t = np.power(2.0, -np.arange(0, 48, dtype=np.float64))
        origin_tail = 0.0
        for a, b in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.37)):
            ray = np.asarray(_eval_raw(phi, t * a, t * b), dtype=np.float64)
            origin_tail = max(origin_tail, float(np.abs(ray[-1])))

    return LimitDeviationReport(
        passed=witness is None,
        tol=tol,
        window=_BATTERY_WINDOW,
        pairs=tuple(results),
        witness=witness,
        origin_continuous=origin_tail < tol,
        origin_tail=origin_tail,
    )


@lru_cache(maxsize=256)
def limit_deviation_passes(phi: TriangleFunctionSpec) -> bool:
    """Cached pass/fail of the default vanishing-deviation battery."""
    return check_limit_deviation(phi).passed


def unit_profile_inverse(phi: TriangleFunctionSpec, tau: float) -> float:
    """Generalized inverse inf{t >= 0 : Phi(t, 1) >= tau}.

    Closed forms for the named families; custom profiles fall back to
    bracketing plus bisection on the non-decreasing unit profile.  Returns
    +inf when the profile never reaches tau.
    """
    if not tau >= 0.0:
        raise ValueError("tau must be non-negative")
    if phi.kind == "additive":
        return max(tau - 1.0, 0.0)
    if phi.kind == "max":
        return tau if tau > 1.0 else 0.0
    if phi.kind == "bscaled":
        return max(tau / phi.K - 1.0, 0.0)
    if phi.kind == "power":
        if tau <= 1.0:
            return 0.0
        return (tau**phi.q - 1.0) ** (1.0 / phi.q)

    if unit_profile(phi, 0.0) >= tau:
        return 0.0
    lo, hi = 0.0, 1.0
    while unit_profile(phi, hi) < tau:
        hi *= 2.0
        if hi > BRACKET_CAP:
            return math.inf
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if unit_profile(phi, mid) >= tau:
            hi = mid
        else:
            lo = mid
    return hi
