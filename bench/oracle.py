"""Reply oracle: checks every reply against references computed here.

The references are written from the definitions (closed forms, plain loops
and per-row array passes) and never call into the package, so a wrong reply
cannot be confirmed by the code that produced it.  `check` returns None for
an accepted reply and a one-line reason otherwise; every rejection counts as
a failed request in the benchmark's error rate.

Search replies carry dozens of findings each.  Every finding is checked for
consistency with the reply, and DEEP_FINDINGS of them, spread evenly over the
list, are re-derived in full: semimetric axioms, the contraction inequality,
fixed points by brute force, each Picard outcome, the bound state and the
compatibility flag.  That keeps the oracle's time between requests a small
share of a search-mix run.
"""

from __future__ import annotations

import math

import numpy as np

# The program's comparison slack and tolerances, restated.
REL_TOL = 1e-12
ABS_TOL = 1e-12
STEP_TOL = 1e-10
BOUND_SLACK_TOL = 1e-9
CHAIN_DEPTH = 64
CHAIN_CONVERGENCE_TOL = 1e-12
SEARCH_MAX_ITER = 10_000
DEEP_FINDINGS = 6  # findings per search reply that are re-derived in full
LISTED = 5
TRIPLE_BLOCK = 1 << 20  # triples per array pass


class Rejected(Exception):
    """A reply that disagrees with the reference."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Rejected(message)


def _close(a: float, b: float, rel: float = 1e-12, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


# --- triangle functions and contraction constants ----------------------------

def phi_array(phi: dict, u, v):
    """Named triangle function with the program's operation order."""
    kind = phi["kind"]
    if kind == "additive":
        return np.add(u, v, dtype=np.float64)
    if kind == "max":
        return np.maximum(np.asarray(u, dtype=np.float64), v)
    if kind == "bscaled":
        return phi["K"] * np.add(u, v, dtype=np.float64)
    if kind == "power":
        q = phi["q"]
        with np.errstate(all="ignore"):
            return np.power(np.power(u, q) + np.power(v, q), 1.0 / q)
    raise ValueError(f"no reference for triangle function {kind!r}")


def phi_scalar(family: tuple, u: float, v: float) -> float:
    kind, q = family
    if kind == "additive":
        return u + v
    return (math.sqrt(u) + math.sqrt(v)) ** 2 if q == 0.5 else (u**q + v**q) ** (1.0 / q)


def chain_constant(phi: dict, alpha: float) -> float:
    """Closed-form limit C(alpha) of the nested chain bound."""
    kind = phi["kind"]
    if kind == "additive":
        return 1.0 / (1.0 - alpha)
    if kind == "max":
        return 1.0
    if kind == "power":
        return (1.0 - alpha ** phi["q"]) ** (-1.0 / phi["q"])
    if alpha * phi["K"] < 1.0:
        return phi["K"] / (1.0 - alpha * phi["K"])
    return math.inf


def profile_inverse(phi: dict, tau: float) -> float:
    """Closed-form inf{t >= 0 : phi(t, 1) >= tau}."""
    kind = phi["kind"]
    if kind == "additive":
        return max(tau - 1.0, 0.0)
    if kind == "max":
        return tau if tau > 1.0 else 0.0
    if kind == "bscaled":
        return max(tau / phi["K"] - 1.0, 0.0)
    return 0.0 if tau <= 1.0 else (tau ** phi["q"] - 1.0) ** (1.0 / phi["q"])


def step_factor(kind: dict, phi: dict) -> float | None:
    """Per-step Picard factor of each family; None where it is not derivable."""
    tag = kind["tag"]
    if tag == "partial":
        value = kind["alpha"] + kind["beta"]
    elif tag == "partial_dual":
        if kind["beta"] >= 1.0:
            return None
        value = kind["alpha"] / (1.0 - kind["beta"])
    elif tag == "weak":
        if kind["delta"] >= 1.0:
            return None
        value = (kind["alpha"] + kind["delta"]) / (1.0 - kind["delta"])
    elif tag == "weak_dual":
        value = kind["alpha"]
    elif tag == "bianchini":
        value = kind["beta"]
    else:
        if kind["beta"] == 0.0:
            return 0.0
        threshold = profile_inverse(phi, 1.0 / kind["beta"])
        if not threshold > 1.0:
            return None
        value = 0.0 if math.isinf(threshold) else 1.0 / threshold
    return float(value) if value < 1.0 else None


def contraction_rhs(kind: dict, dxy, x_tx, y_ty, x_ty, y_tx):
    """Right-hand side of the family inequality from its definition."""
    tag = kind["tag"]
    if tag == "partial":
        return kind["alpha"] * dxy + kind["beta"] * x_tx
    if tag == "partial_dual":
        return kind["alpha"] * dxy + kind["beta"] * y_ty
    if tag == "weak":
        return kind["alpha"] * dxy + kind["delta"] * x_ty
    if tag == "weak_dual":
        return kind["alpha"] * dxy + kind["delta"] * y_tx
    if tag == "bianchini":
        return kind["beta"] * np.maximum(x_tx, y_ty)
    return kind["beta"] * np.maximum(x_ty, y_tx)


def _violates(lhs, rhs):
    return np.asarray(lhs) > np.asarray(rhs) * (1.0 + REL_TOL) + ABS_TOL


# --- finite spaces -----------------------------------------------------------

def triangle_reference(D: np.ndarray, phi: dict):
    """Violations of d(x,y) <= phi(d(x,z), d(z,y)) in blocks of x: the
    count, the first LISTED in (x, y, z) order, and the minimal b constant."""
    n = D.shape[0]
    count = 0
    first: list[tuple] = []
    best_b = 0.0
    block = max(1, TRIPLE_BLOCK // (n * n))
    for lo in range(0, n, block):
        rows = D[lo:lo + block]  # d(x, .) for the block's x
        lhs = rows[:, :, None]  # d(x, y)
        with np.errstate(all="ignore"):
            rhs = np.asarray(phi_array(phi, rows[:, None, :], D.T[None, :, :]))  # [x, y, z]
        bad = _violates(lhs, rhs)
        count += int(bad.sum())
        if len(first) < LISTED:
            for x, y, z in np.argwhere(bad)[: LISTED - len(first)]:
                first.append((lo + x, y, z, float(rows[x, y]), float(rhs[x, y, z])))
        denom = rows[:, None, :] + D.T[None, :, :]  # d(x,z) + d(z,y)
        distinct = (np.arange(n)[None, :] != np.arange(lo, lo + len(rows))[:, None])[:, :, None]
        usable = distinct & (denom > 0.0)
        ratios = np.where(usable, lhs / np.where(denom > 0.0, denom, 1.0), 0.0)
        best_b = max(best_b, float(ratios.max()))
    return count, first, best_b


def contraction_reference(D: np.ndarray, images, kind: dict):
    """Pairs (x, y) violating d(Tx,Ty) <= rhs: the count, the first LISTED
    in (x, y) order, and the minimal margin rhs - lhs."""
    T = np.asarray(images)
    n = D.shape[0]
    step = D[np.arange(n), T]  # d(x, Tx)
    lhs = D[T[:, None], T[None, :]]  # d(Tx, Ty)
    rhs = contraction_rhs(kind, D, step[:, None], step[None, :], D[:, T], D[:, T].T)
    rhs = np.broadcast_to(rhs, lhs.shape)
    bad = _violates(lhs, rhs)
    first = [(int(x), int(y), float(lhs[x, y]), float(rhs[x, y]))
             for x, y in np.argwhere(bad)[:LISTED]]
    return int(bad.sum()), first, float(np.min(rhs - lhs))


def check_validate(reply, expect: dict, cache: dict) -> None:
    key = (expect["path"], repr(expect["phi"]))
    if key not in cache:
        cache[key] = triangle_reference(expect["matrix"], expect["phi"])
    count, first, best_b = cache[key]
    payload = reply.payload
    _require(payload["space"]["passed"], "space axioms rejected a semimetric")
    _require(payload["phi_axioms"]["passed"], "named triangle function failed its axioms")
    tri = payload["triangle"]
    _require(tri["violation_count"] == count,
             f"violation_count {tri['violation_count']} != reference {count}")
    _require(tri["passed"] == (count == 0), "triangle.passed disagrees with the count")
    listed = [(v["x"], v["y"], v["z"], v["lhs"], v["rhs"]) for v in tri["violations"]]
    wanted = [(f"p{x}", f"p{y}", f"p{z}", lhs, rhs) for x, y, z, lhs, rhs in first]
    _require(listed == wanted, "listed violations differ from the first reference triples")
    _require(_close(payload["minimal_b"], best_b),
             f"minimal_b {payload['minimal_b']!r} != reference {best_b!r}")
    if expect["euclidean"]:
        _require(count == 0, "Euclidean space reported triangle violations")
        _require(abs(payload["minimal_b"] - 1.0) <= 1e-12,
                 f"Euclidean space has minimal_b {payload['minimal_b']!r}, not 1")
    _require(reply.status == ("ok" if count == 0 else "violation"),
             f"status {reply.status!r} for {count} violations")


def check_classify_finite(reply, expect: dict) -> None:
    count, first, margin = contraction_reference(expect["matrix"], expect["images"],
                                                 expect["kind"])
    cert = reply.payload["certificate"]
    _require(cert["violation_count"] == count,
             f"contraction violation_count {cert['violation_count']} != reference {count}")
    _require(cert["passed"] == (count == 0), "certificate.passed disagrees with the count")
    listed = [(v["x"], v["y"], v["lhs"], v["rhs"]) for v in cert["violations"]]
    wanted = [(f"p{x}", f"p{y}", lhs, rhs) for x, y, lhs, rhs in first]
    _require(listed == wanted, "listed contraction violations differ from the reference")
    _require(_close(cert["margin"], margin, 1e-12, 1e-15),
             f"margin {cert['margin']!r} != reference {margin!r}")
    factor = step_factor(expect["kind"], expect["phi"])
    reported = reply.payload["step_factor"]
    _require(reported["derivable"] == (factor is not None), "step factor derivability differs")
    if factor is not None:
        _require(_close(reported["value"], factor), "step factor value differs")
    applicable = reply.payload["applicability"]["applicable"]
    wanted_status = "violation" if count else ("ok" if applicable else "not-applicable")
    _require(reply.status == wanted_status, f"status {reply.status!r}, expected {wanted_status!r}")


# --- search ------------------------------------------------------------------

def picard_finite(D: np.ndarray, images, start: int):
    """Orbit of an image table: points, step distances and stop reason."""
    points = [start]
    steps: list[float] = []
    visited = {start}
    for _ in range(SEARCH_MAX_ITER):
        nxt = images[points[-1]]
        step = float(D[points[-1], nxt])
        points.append(nxt)
        steps.append(step)
        if step < STEP_TOL:
            return points, steps, "converged"
        if nxt in visited:
            return points, steps, "cycle_detected"
        visited.add(nxt)
    return points, steps, "max_iter"


def check_search(reply, expect: dict) -> None:
    payload = reply.payload
    phi, kind, budget = expect["phi"], expect["kind"], expect["budget"]
    _require(reply.status == "ok", f"search status {reply.status!r}")
    _require(payload["examined"] == budget, "examined differs from the budget")
    findings = payload["findings"]
    _require(0 <= len(findings) <= payload["satisfied"] <= budget, "inconsistent counts")
    indices = [f["index"] for f in findings]
    _require(indices == sorted(set(indices)) and all(0 <= i < budget for i in indices),
             "finding indices are not increasing within the budget")
    _require(all(f["failed_hypotheses"] for f in findings), "finding without a failed hypothesis")
    factor = step_factor(kind, phi)
    picked = sorted({round(k) for k in np.linspace(0, len(findings) - 1, DEEP_FINDINGS)}) \
        if findings else []
    for finding in (findings[k] for k in picked):
        D = np.asarray(finding["space"]["dist"], dtype=np.float64)
        labels = finding["space"]["labels"]
        images = finding["map"]["images"]
        n = len(labels)
        _require(np.array_equal(D, D.T) and not np.any(np.diag(D))
                 and np.all(D + np.eye(n) > 0.0), "finding space is not a semimetric")
        count, _, _ = contraction_reference(D, images, kind)
        _require(count == 0, "finding map breaks the contraction inequality")
        fixed = [labels[i] for i in range(n) if images[i] == i]
        _require(finding["fixed_points"] == fixed,
                 f"fixed points {finding['fixed_points']} != brute force {fixed}")
        converged = []
        for start, outcome in enumerate(finding["picard"]):
            points, steps, reason = picard_finite(D, images, start)
            limit = labels[points[-1]] if reason == "converged" else None
            _require(outcome == {"start": labels[start], "stop_reason": reason,
                                 "limit": limit, "steps": len(steps)},
                     f"Picard outcome from {labels[start]} differs from the reference")
            _require(limit is None or limit in fixed, "Picard limit is not a fixed point")
            if reason == "converged":
                converged.append((points, steps))
        bound = "unavailable"
        if factor is not None and converged and math.isfinite(chain_constant(phi, factor)):
            c = chain_constant(phi, factor)
            held = all(
                factor**k * c * steps[0] - float(D[point, points[-1]]) >= -BOUND_SLACK_TOL
                for points, steps in converged
                for k, point in enumerate(points)
            )
            bound = "held" if held else "violated"
        _require(finding["bound"] == bound, f"bound {finding['bound']!r} != reference {bound!r}")
        tri, _, _ = triangle_reference(D, phi)
        _require(finding["space_compatible"] == (tri == 0), "space_compatible differs")


# --- interval certification --------------------------------------------------

def chain_outcome(family: tuple, alpha: float):
    """Depth-64 chain values of a named family in plain floats.  Returns
    (closed-form C, max chain value, expected convergence) where convergence
    is None inside a factor-two band around the program's 1e-12 threshold."""
    values = []
    for depth in range(1, CHAIN_DEPTH + 1):
        value = alpha**depth
        for i in range(depth - 1, -1, -1):
            value = phi_scalar(family, alpha**i, value)
        values.append(value)
    gap = abs(values[-1] - values[-2])
    converged = None
    if gap < 0.5 * CHAIN_CONVERGENCE_TOL:
        converged = True
    elif gap > 2.0 * CHAIN_CONVERGENCE_TOL:
        converged = False
    phi = {"kind": family[0]} if family[1] is None else {"kind": family[0], "q": family[1]}
    return chain_constant(phi, alpha), max(values), converged


def check_certify(replies, expect: dict, cache: dict) -> None:
    classify, bounds = replies
    alpha, p = expect["alpha"], expect["p"]
    key = (expect["family"], alpha)
    if key not in cache:
        cache[key] = chain_outcome(expect["family"], alpha)
    c_ref, chain_max, converged = cache[key]
    if expect["mode"] == "named":
        converged = True

    cert = classify.payload["certificate"]
    _require(cert["passed"] and cert["violation_count"] == 0,
             "contraction certificate failed on a contracting map")
    record = classify.payload["applicability"]
    _require(_close(record["rate"], alpha), f"rate {record['rate']!r} != alpha {alpha!r}")
    checks = {c["name"]: c["passed"] for c in record["checklist"]}
    finite = checks.pop("chain_bound_finite")
    _require(converged is None or finite == converged,
             f"chain_bound_finite {finite} where the tail-aware reference expects {converged}")
    _require(all(checks.values()), f"hypotheses failed: {[k for k, v in checks.items() if not v]}")
    _require(classify.status == ("ok" if finite else "not-applicable"),
             f"classify status {classify.status!r}")

    if not finite:
        _require(bounds.status == "not-applicable" and "not finite" in bounds.payload["reason"],
                 f"bounds status {bounds.status!r} without a finite chain constant")
        return
    payload = bounds.payload
    _require(bounds.status == "ok", f"bounds status {bounds.status!r}: {payload.get('reason')}")
    c = payload["c_alpha"]
    if expect["mode"] == "named":
        _require(_close(c, c_ref), f"c_alpha {c!r} != closed form {c_ref!r}")
    else:
        _require(c <= c_ref * (1.0 + 1e-12) and c_ref - c <= (c_ref - chain_max) + 1e-9 * c_ref,
                 f"custom c_alpha {c!r} outside the tail-aware band of {c_ref!r}")
    rows = payload["rows"]
    _require(payload["stop_reason"] == "converged" and len(rows) >= 2, "orbit did not converge")
    _require(rows[0]["x_n"] == expect["x0"], "orbit does not start at x0")
    last_step = rows[-2]["step_dist"]
    lip = expect["lipschitz"]
    tol = lip / (1.0 - lip) * last_step ** (1.0 / p) * (1.0 + 1e-6) + 1e-11
    limit = rows[-1]["x_n"]
    _require(abs(limit - expect["fixed"]) <= tol,
             f"limit {limit!r} is {abs(limit - expect['fixed']):.3g} from the analytic "
             f"fixed point {expect['fixed']!r} (tolerance {tol:.3g})")


# --- dispatch ------------------------------------------------------------------

class Oracle:
    """Holds the per-run reference caches (keyed by input, never by reply)."""

    def __init__(self):
        self.triangle_cache: dict = {}
        self.chain_cache: dict = {}

    def check(self, request, replies) -> str | None:
        """None when every reply is accepted, else the first reason."""
        try:
            for reply in replies:
                _require(reply.status != "error", f"error reply: {reply.payload.get('error')}")
            if request.kind == "search":
                check_search(replies[0], request.expect)
            elif request.kind == "certify":
                check_certify(replies, request.expect, self.chain_cache)
            elif request.kind == "validate":
                check_validate(replies[0], request.expect, self.triangle_cache)
            else:
                check_classify_finite(replies[0], request.expect)
        except Rejected as exc:
            return f"{request.kind}: {exc}"
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            return f"{request.kind}: malformed reply ({type(exc).__name__}: {exc})"
        return None
