"""Shared test fixtures: hand-rolled oracles, seeded instance builders and
expression trees.

The oracles here are deliberately independent of the package internals:
plain-Python loops and closed formulas recomputed from scratch, used to
freeze expected values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from hypothesis import strategies as st

import contraction_lab as cl
from contraction_lab import solver, trifun
from contraction_lab.search import (SIZE_RANGE, Finding, SearchResult, _draw_images, _labels,
                                    _semimetric)
from contraction_lab.space import INEQ_ABS_TOL, INEQ_REL_TOL

# ---------------------------------------------------------------------------
# independent oracles


def phi_oracle(phi: cl.TriangleFunctionSpec, u: float, v: float) -> float:
    """Scalar triangle-function evaluation via math.* only."""
    if phi.kind == "additive":
        return u + v
    if phi.kind == "max":
        return max(u, v)
    if phi.kind == "bscaled":
        return phi.K * (u + v)
    if phi.kind == "power":
        return (u**phi.q + v**phi.q) ** (1.0 / phi.q)
    raise NotImplementedError(phi.kind)


def chain_oracle(phi: cl.TriangleFunctionSpec, alpha: float, p: int) -> float:
    """Right-to-left nested chain value, plain floats."""
    value = alpha**p
    for i in range(p - 1, -1, -1):
        value = phi_oracle(phi, alpha**i, value)
    return value


def scalar_chain(phi: cl.TriangleFunctionSpec, alpha: float, p: int) -> float:
    """The depth-p chain value by the package's own Phi entry, one scalar
    evaluation per level, innermost first: the per-depth loop the sweep of
    `chain_report` must match bit for bit."""
    value = alpha**p
    with np.errstate(all="ignore"):
        for i in range(p - 1, -1, -1):
            value = float(trifun._eval(phi, alpha**i, value))
    return value


def c_alpha_oracle(phi: cl.TriangleFunctionSpec, alpha: float) -> float:
    if phi.kind == "additive":
        return 1.0 / (1.0 - alpha)
    if phi.kind == "max":
        return 1.0
    if phi.kind == "power":
        return (1.0 - alpha**phi.q) ** (-1.0 / phi.q)
    if phi.kind == "bscaled":
        return phi.K / (1.0 - alpha * phi.K) if alpha * phi.K < 1.0 else math.inf
    raise NotImplementedError(phi.kind)


def nest_oracle(phi: cl.TriangleFunctionSpec, alpha: float, p: int) -> float:
    """Closed form of the depth-p nest: a geometric partial sum of a^q.

    ((1 - a^(q(p+1))) / (1 - a^q))^(1/q), with q = 1 for additive; 1 for max.
    C(alpha) - nest_oracle(phi, alpha, p) is the true tail of the chain.
    """
    if phi.kind == "max":
        return 1.0
    if phi.kind == "additive":
        q = 1.0
    elif phi.kind == "power":
        q = phi.q
    else:
        raise NotImplementedError(phi.kind)
    return ((1.0 - alpha ** (q * (p + 1))) / (1.0 - alpha**q)) ** (1.0 / q)


def minimal_b_oracle(dist: np.ndarray) -> float:
    """Triple loop over ordered triples with x != y."""
    n = dist.shape[0]
    best = 1.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for k in range(n):
                denom = dist[i, k] + dist[k, j]
                if denom > 0.0:
                    best = max(best, dist[i, j] / denom)
    return best


def triangle_oracle(triples, d, phi) -> list[tuple]:
    """Every violation (x, y, z, lhs, rhs) of d(x,y) <= phi(d(x,z), d(z,y)),
    by a plain loop over `triples` in order, with the package's documented
    slack: lhs > rhs*(1 + 1e-12) + 1e-12, where a NaN on either side
    violates.  `d` and `phi` are plain Python functions."""
    found = []
    for x, y, z in triples:
        lhs = d(x, y)
        rhs = phi(d(x, z), d(z, y))
        if not lhs <= rhs * (1.0 + INEQ_REL_TOL) + INEQ_ABS_TOL:
            found.append((x, y, z, lhs, rhs))
    return found


# The six right-hand sides written out from contraction's module docstring,
# applied pair by pair in plain Python: an oracle that shares no code with the
# vectorised pair kernel.
ORACLE_RHS = {
    "partial": lambda k, d, x, y, tx, ty: k.alpha * d(x, y) + k.beta * d(x, tx),
    "partial_dual": lambda k, d, x, y, tx, ty: k.alpha * d(x, y) + k.beta * d(y, ty),
    "weak": lambda k, d, x, y, tx, ty: k.alpha * d(x, y) + k.delta * d(x, ty),
    "weak_dual": lambda k, d, x, y, tx, ty: k.alpha * d(x, y) + k.delta * d(y, tx),
    "bianchini": lambda k, d, x, y, tx, ty: k.beta * max(d(x, tx), d(y, ty)),
    "chatterjea_bianchini": lambda k, d, x, y, tx, ty: k.beta * max(d(x, ty), d(y, tx)),
}


def pair_rhs(kind: cl.ContractionKind, space, mapping: cl.SelfMap, x, y) -> float:
    """ORACLE_RHS at the pair (x, y), labels on a finite space and numbers
    on an interval, in Python floats: the images come from the image table
    or from the map's expression, the distances from the matrix or from
    space.d, and nothing goes through the contraction module."""
    if isinstance(space, cl.FiniteSemimetricSpace):
        x, y = space.labels.index(x), space.labels.index(y)
        tx, ty = mapping.images[x], mapping.images[y]

        def d(a, b):
            return float(space.dist[a, b])
    else:
        image = cl.parse_expression(mapping.expr, allowed=("x",))
        tx, ty = float(image(x=x)), float(image(x=y))

        def d(a, b):
            return float(space.d(a, b))
    return ORACLE_RHS[kind.tag](kind, d, x, y, tx, ty)


def reference_orbit(space, mapping, x0, max_iter=solver.MAX_ITER_DEFAULT,
                    tol=solver.STEP_TOL_DEFAULT) -> tuple[list, list[float], str]:
    """(points, step_dists, stop_reason) of the Picard orbit from x0 (an
    index on finite spaces), walked one step at a time with one scalar
    distance call per step; an interval orbit that leaves [lo, hi] raises
    DomainEscapeError naming the iterate."""
    finite = isinstance(space, cl.FiniteSemimetricSpace)
    points, step_dists = [x0], []
    visited = {x0}
    buckets = {} if finite else {round(x0 / solver.CYCLE_PROXIMITY): 0}
    for _ in range(max_iter):
        nxt = mapping(points[-1])
        if finite:
            nxt = int(nxt)
        else:
            nxt = float(nxt)
            if not (space.lo - 1e-12 <= nxt <= space.hi + 1e-12):
                raise solver.DomainEscapeError(
                    f"iterate {len(points)}: T({points[-1]!r}) = {nxt!r} "
                    f"leaves [{space.lo}, {space.hi}]"
                )
            nxt = min(max(nxt, space.lo), space.hi)
        step = float(space.d(points[-1], nxt))
        points.append(nxt)
        step_dists.append(step)
        if step < tol:
            return points, step_dists, "converged"
        if finite:
            if nxt in visited:
                return points, step_dists, "cycle_detected"
            visited.add(nxt)
            continue
        key = round(nxt / solver.CYCLE_PROXIMITY)
        revisit = any(k in buckets and buckets[k] <= len(points) - 3
                      and abs(nxt - points[buckets[k]]) < solver.CYCLE_PROXIMITY
                      for k in (key - 1, key, key + 1))
        if revisit and step >= solver.CYCLE_STEP_FLOOR:
            return points, step_dists, "cycle_detected"
        buckets.setdefault(key, len(points) - 1)
    return points, step_dists, "max_iter"


def reference_audit(trace, phi, alpha, fixed_point):
    """(rows, min_slack, bounds_ok, steps_ok) of the bound audit, one row at
    a time with one scalar distance call per row; each row is the tuple
    (n, point, step_dist, bound, observed, slack, step_bound, step_ok)."""
    c = cl.chain_bound_constant(phi, alpha)
    steps = trace.step_dists
    d01 = steps[0] if steps else 0.0
    labels = trace.point_labels()
    rows, min_slack = [], math.inf
    for n, point in enumerate(trace.points):
        observed = float(trace.space.d(point, fixed_point))
        bound = alpha**n * c * d01
        slack = bound - observed
        if slack < min_slack or math.isnan(slack):
            min_slack = slack
        step = steps[n] if n < len(steps) else None
        step_bound = None if step is None else alpha**n * d01
        step_ok = step is None or step <= step_bound * (1.0 + 1e-12) + 1e-12
        rows.append((n, labels[n], step, bound, observed, slack, step_bound, step_ok))
    return (tuple(rows), min_slack, all(row[5] >= -solver.BOUND_SLACK_TOL for row in rows),
            all(row[7] for row in rows))


def reference_search(config) -> SearchResult:
    """The counterexample search one instance at a time: each instance is
    drawn, checked with verify_contraction and, when it is a finding, walked
    with one picard_iterate per start, audited with one verify_bound per
    converged start and checked with its own triangle_report."""
    rng = np.random.default_rng(config.seed)
    record = cl.applicability(config.kind, config.phi)
    factor = cl.step_contraction_factor(config.kind, config.phi)
    findings, satisfied = [], 0
    for index in range(config.budget):
        size = int(rng.integers(SIZE_RANGE[0], SIZE_RANGE[1] + 1))
        space = random_semimetric(rng, size)
        mapping = random_self_map(rng, size)
        if not cl.verify_contraction(space, mapping, config.kind, listed=0).passed:
            continue
        satisfied += 1
        if record.applicable:
            continue
        outcomes, limits = [], []
        for start in range(space.size):
            trace = solver.picard_iterate(space, mapping, start, max_iter=10_000)
            converged = trace.stop_reason == "converged"
            outcomes.append({
                "start": space.labels[start],
                "stop_reason": trace.stop_reason,
                "limit": space.labels[trace.points[-1]] if converged else None,
                "steps": len(trace.step_dists),
            })
            if converged:
                limits.append(trace)
        bound = "unavailable"
        if factor.derivable and limits:
            c = cl.chain_bound_constant(config.phi, factor.value)
            if math.isfinite(c):
                held = all(solver.verify_bound(trace, config.phi, factor.value,
                                               trace.points[-1]).bounds_ok
                           for trace in limits)
                bound = "held" if held else "violated"
        findings.append(Finding(
            index=index,
            space=space,
            mapping=mapping,
            failed_hypotheses=tuple(record.failed()),
            space_compatible=cl.triangle_report(space, config.phi, listed=0).count == 0,
            picard=tuple(outcomes),
            fixed_points=tuple(space.labels[i]
                               for i in solver.brute_force_fixed_points(space, mapping)),
            bound=bound,
        ))
    return SearchResult(config, config.budget, satisfied, tuple(findings))


# ---------------------------------------------------------------------------
# recurring spaces


def stretched_space() -> cl.FiniteSemimetricSpace:
    """Three points with d(x,y)=d(x,z)=1 and d(y,z)=3."""
    dist = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 3.0], [1.0, 3.0, 0.0]])
    return cl.FiniteSemimetricSpace(("x", "y", "z"), dist)


def line_space() -> cl.FiniteSemimetricSpace:
    """Three collinear points, an honest metric."""
    dist = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    return cl.FiniteSemimetricSpace(("a", "b", "c"), dist)


def unit_interval() -> cl.IntervalSpace:
    return cl.IntervalSpace(0.0, 1.0)


def random_semimetric(rng: np.random.Generator, size: int) -> cl.FiniteSemimetricSpace:
    """Symmetric matrix with off-diagonal entries in (0, 1], rescaled to
    maximum 1: one search instance's matrix, from the same draws."""
    return cl.FiniteSemimetricSpace(_labels(size), _semimetric(rng.random((size, size))))


def random_self_map(rng: np.random.Generator, size: int) -> cl.SelfMap:
    """Mixture of constant, near-constant and uniform image tables: one
    search instance's map, from the same draws."""
    return cl.SelfMap(images=tuple(_draw_images(rng, size)))


def random_metric(rng: np.random.Generator, size: int) -> cl.FiniteSemimetricSpace:
    """Euclidean distances of random points in R^3, rescaled to maximum 1."""
    while True:
        pts = rng.random((size, 3))
        diff = pts[:, None, :] - pts[None, :, :]
        matrix = np.sqrt(np.sum(diff * diff, axis=2))
        if np.all(matrix + np.eye(size) > 1e-6):
            if size > 1:
                matrix /= matrix.max()
            return cl.FiniteSemimetricSpace(_labels(size), matrix)


def random_ultrametric(rng: np.random.Generator, size: int) -> cl.FiniteSemimetricSpace:
    """Hierarchical split construction: pairs across a split sit at the
    split's level, levels strictly decrease inward."""
    matrix = np.zeros((size, size))

    def fill(indices: list[int], level: float) -> None:
        if len(indices) < 2:
            return
        cut = int(rng.integers(1, len(indices)))
        left, right = indices[:cut], indices[cut:]
        for i in left:
            for j in right:
                matrix[i, j] = matrix[j, i] = level
        fill(left, level * rng.uniform(0.4, 0.9))
        fill(right, level * rng.uniform(0.4, 0.9))

    order = list(rng.permutation(size))
    fill(order, 1.0)
    return cl.FiniteSemimetricSpace(_labels(size), matrix)


# ---------------------------------------------------------------------------
# seeded instance sets for the rate / oracle / bound criteria

RATE_CAP = 0.95
EPS_UP = 1e-9


def _least_constants(tag: str, space, mapping):
    """The least constants placing the map in the family `tag`, over all
    ordered pairs: the largest lhs/kernel for the one-constant families
    (None when some pair has kernel <= 0 < lhs), else the frontier of
    (k/101, least alpha) for k = 0..100."""
    d, t = space.dist, np.asarray(mapping.images)
    x, y = np.divmod(np.arange(space.size ** 2), space.size)
    lhs, dxy = d[t[x], t[y]], d[x, y]
    kernel = {"partial": d[x, t[x]], "partial_dual": d[y, t[y]], "weak": d[x, t[y]],
              "weak_dual": d[y, t[x]], "bianchini": np.maximum(d[x, t[x]], d[y, t[y]]),
              "chatterjea_bianchini": np.maximum(d[x, t[y]], d[y, t[x]])}[tag]
    if tag in ("bianchini", "chatterjea_bianchini"):
        positive = kernel > 0.0
        if np.any(lhs[~positive] > 0.0):
            return None
        return float(np.max(lhs[positive] / kernel[positive], initial=0.0))
    grid, apart = np.arange(101) / 101, dxy > 0.0
    needed = (lhs[apart] - grid[:, None] * kernel[apart]) / dxy[apart]
    return list(zip(grid.tolist(), np.max(needed, axis=1, initial=0.0).tolist()))


def _pick_kind(tag: str, space, mapping, rng) -> cl.ContractionKind | None:
    """Constants just above the least ones, under the rate cap."""
    least = _least_constants(tag, space, mapping)
    if least is None:
        return None
    if tag in ("bianchini", "chatterjea_bianchini"):
        beta = least + EPS_UP
        if beta >= RATE_CAP:
            return None
        return cl.ContractionKind(tag, beta=beta)

    for idx in rng.permutation(len(least)):
        second, alpha = least[idx]
        alpha += EPS_UP
        if tag == "partial" and alpha + second < RATE_CAP:
            return cl.ContractionKind(tag, alpha=alpha, beta=second)
        if tag == "partial_dual" and alpha + second < RATE_CAP:
            return cl.ContractionKind(tag, alpha=alpha, beta=second)
        if tag == "weak" and alpha + 2.0 * second < RATE_CAP:
            return cl.ContractionKind(tag, alpha=alpha, delta=second)
        if tag == "weak_dual" and alpha < RATE_CAP and second < RATE_CAP:
            return cl.ContractionKind(tag, alpha=alpha, delta=second)
    return None


def rate_instances(tag: str, count: int, seed: int) -> list[tuple]:
    """(space, mapping, kind, phi) tuples that verify and are applicable."""
    rng = np.random.default_rng(seed)
    ultra = tag in ("bianchini", "chatterjea_bianchini")
    phi = cl.maximum() if ultra else cl.additive()
    out: list[tuple] = []
    while len(out) < count:
        size = int(rng.integers(3, 9))
        space = random_ultrametric(rng, size) if ultra else random_metric(rng, size)
        mapping = random_self_map(rng, size)
        kind = _pick_kind(tag, space, mapping, rng)
        if kind is None:
            continue
        if not cl.verify_contraction(space, mapping, kind).passed:
            continue
        if not cl.applicability(kind, phi).applicable:
            continue
        out.append((space, mapping, kind, phi))
    return out


def bianchini_bound_instances(beta: float, count: int, seed: int) -> list[tuple]:
    """(space, mapping) pairs on ultrametrics verifying Bianchini at beta."""
    rng = np.random.default_rng(seed)
    kind = cl.ContractionKind("bianchini", beta=beta)
    out: list[tuple] = []
    while len(out) < count:
        size = int(rng.integers(3, 9))
        space = random_ultrametric(rng, size)
        mapping = random_self_map(rng, size)
        if cl.verify_contraction(space, mapping, kind).passed:
            out.append((space, mapping))
    return out


# ---------------------------------------------------------------------------
# expression trees and their text


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Node", ...]


Node = Union[Num, Var, Neg, BinOp, Call]


# Grammar slots, loosest to tightest.  A node prints bare in a slot when its
# own rank is at least the slot's; otherwise it gets wrapped in parentheses.
_RANK_EXPR, _RANK_TERM, _RANK_FACTOR, _RANK_UNARY, _RANK_ATOM = range(5)


def _rank(node: Node) -> int:
    if isinstance(node, (Num, Var, Call)):
        return _RANK_ATOM
    if isinstance(node, Neg):
        return _RANK_UNARY
    if isinstance(node, BinOp):
        if node.op == "^":
            return _RANK_FACTOR
        if node.op in "*/":
            return _RANK_TERM
        return _RANK_EXPR
    raise TypeError(f"not an expression node: {node!r}")


def unparse(node: Node, slot: int = _RANK_EXPR) -> str:
    """Render a tree as text with the fewest parentheses the grammar needs."""
    if _rank(node) < slot:
        return "(" + unparse(node, _RANK_EXPR) + ")"
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return "-" + unparse(node.operand, _RANK_UNARY)
    if isinstance(node, Call):
        args = ", ".join(unparse(a, _RANK_EXPR) for a in node.args)
        return f"{node.func}({args})"
    if node.op == "^":
        return unparse(node.left, _RANK_UNARY) + "^" + unparse(node.right, _RANK_FACTOR)
    if node.op in "*/":
        return unparse(node.left, _RANK_TERM) + node.op + unparse(node.right, _RANK_FACTOR)
    return unparse(node.left, _RANK_EXPR) + node.op + unparse(node.right, _RANK_TERM)


def parenthesised(node: Node) -> str:
    """Render a tree as text with every operation in parentheses."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{parenthesised(node.operand)})"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(parenthesised(a) for a in node.args)})"
    return f"({parenthesised(node.left)}{node.op}{parenthesised(node.right)})"


def _reads_a_variable(node: Node) -> bool:
    if isinstance(node, Num):
        return False
    if isinstance(node, Var):
        return True
    if isinstance(node, Neg):
        return _reads_a_variable(node.operand)
    if isinstance(node, BinOp):
        return _reads_a_variable(node.left) or _reads_a_variable(node.right)
    return any(_reads_a_variable(arg) for arg in node.args)


def reference_eval(node: Node, env: dict):
    """The value of a tree on float64 bindings by a plain tree walk, depth
    first and left operand first, with the numpy operation the language
    names for each node: numbers as np.float64, + - * as Python operators,
    np.divide, np.abs, np.sqrt, min and max folded left over np.minimum and
    np.maximum once all their arguments are evaluated, and np.power, on an
    exponent materialised element by element at the broadcast shape (at
    least one element) when the exponent reads a variable.  A variable
    missing from env raises KeyError naming it at its first use."""
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -reference_eval(node.operand, env)
    if isinstance(node, BinOp):
        left, right = reference_eval(node.left, env), reference_eval(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return np.divide(left, right)
        if not _reads_a_variable(node.right):
            return np.power(left, right)
        shape = np.broadcast(left, right).shape
        exponent = np.array(np.broadcast_to(right, shape), ndmin=1)
        return np.power(left, exponent).reshape(shape)
    args = [reference_eval(arg, env) for arg in node.args]
    if node.func == "abs":
        return np.abs(args[0])
    if node.func == "sqrt":
        return np.sqrt(args[0])
    fold = np.minimum if node.func == "min" else np.maximum
    value = args[0]
    for arg in args[1:]:
        value = fold(value, arg)
    return value


def expression_trees(allowed):
    """Hypothesis trees over the variables `allowed`: numbers in [0, 9],
    the four operations and '^', negation and every function, min and max
    with two to four arguments."""
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=9.0, allow_nan=False).map(
            lambda f: Num(float(f))
        ),
        st.sampled_from([Var(v) for v in allowed]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])
            ),
            children.map(Neg),
            st.tuples(st.sampled_from(["abs", "sqrt"]), children).map(
                lambda t: Call(t[0], (t[1],))
            ),
            st.tuples(st.sampled_from(["min", "max"]),
                      st.lists(children, min_size=2, max_size=4)).map(
                lambda t: Call(t[0], tuple(t[1]))
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def deep_trees(allowed, depth: int):
    """Hypothesis trees `depth` nodes deep over the variables `allowed`: a
    variable wrapped `depth` times, each time in a negation, abs or sqrt, a
    binary operation with a leaf on either side, or a min or max of three
    with leaves around it."""
    leaves = st.one_of(st.sampled_from([Var(v) for v in allowed]),
                       st.sampled_from([0.0, 0.5, 1.5, 2.0, 3.0]).map(Num))
    steps = st.tuples(st.sampled_from(["neg", "abs", "sqrt", "min", "max", "+", "-", "*", "/", "^"]),
                      st.booleans(), leaves)

    def build(chain):
        node = Var(allowed[0])
        for op, first, leaf in chain:
            if op == "neg":
                node = Neg(node)
            elif op in ("abs", "sqrt"):
                node = Call(op, (node,))
            elif op in ("min", "max"):
                node = Call(op, (leaf, node, leaf) if first else (node, leaf, leaf))
            else:
                node = BinOp(op, node, leaf) if first else BinOp(op, leaf, node)
        return node

    return st.lists(steps, min_size=depth, max_size=depth).map(build)
