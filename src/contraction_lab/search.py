"""Randomized counterexample search over small finite spaces.

Instances are seeded and reproducible: spaces are random semimetrics on 3-8
points (symmetric, entries drawn in (0, 1] and rescaled), maps mix constant,
near-constant and uniform images.  The search keeps instances whose map
satisfies the configured contraction inequality while some hypothesis of the
matching fixed-point principle fails, and records what Picard iteration and
the a-priori bound did anyway.

The search runs in three stages.  Draw: each instance takes from the
seeded stream its size, then its matrix draws (one uniform (n, n) block,
`_semimetric`), then its image table (`_draw_images`), and at most
BATCH_CAP instances are buffered at a time, so memory does not grow with
the budget.
Check: the buffered instances of one size are stacked into a (B, n, n)
matrix stack and a (B, n) image table, checked against the family
inequality in one call of the finite pair kernel in `contraction`.
Findings: the satisfied instances of a principle that does not apply walk
every start's Picard orbit at once in `solver._walk`, `picard_iterate`'s
finite walk; their converged orbits are audited in one array by
`verify_bound`'s `solver._bound_columns`, and their triangle violations
are counted over the whole stack.  Spaces, maps and findings are built for
the findings only, and merged in instance-index order, so identical
configurations reproduce identical reports.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import solver, trifun
from .contraction import (
    ContractionKind,
    SelfMap,
    _check_images,
    _finite_pair_components,
    _rhs,
    applicability,
    step_contraction_factor,
)
from .space import FiniteSemimetricSpace, _finite_triples
from .trifun import TriangleFunctionSpec, violates

SIZE_RANGE = (3, 8)

# Instances drawn before they are checked: the search holds at most this
# many in memory, whatever its budget.
BATCH_CAP = 256

# The iteration cap of every finding's Picard orbits.
MAX_ITER = 10_000


def _labels(size: int) -> tuple[str, ...]:
    return tuple(f"p{i}" for i in range(size))


def _semimetric(draws: np.ndarray) -> np.ndarray:
    """Semimetric matrices from uniform draws in [0, 1) shaped (..., n, n):
    1 - draw above the diagonal, in (0, 1], mirrored below it, and each
    matrix rescaled to maximum 1 (a one-point matrix stays [[0]])."""
    matrix = np.triu(1.0 - draws, 1)
    matrix = matrix + np.swapaxes(matrix, -1, -2)
    if matrix.shape[-1] > 1:  # off the diagonal every entry is positive
        matrix /= matrix.max(axis=(-2, -1), keepdims=True)
    return matrix


def _draw_images(rng: np.random.Generator, size: int) -> list[int]:
    style = rng.integers(0, 3)
    target = int(rng.integers(0, size))
    if style == 0:
        return [target] * size
    if style == 1:
        return [target if rng.random() < 0.7 else int(rng.integers(0, size))
                for _ in range(size)]
    return [int(rng.integers(0, size)) for _ in range(size)]


@dataclass(frozen=True)
class SearchConfig:
    phi: TriangleFunctionSpec
    kind: ContractionKind
    budget: int
    seed: int = 0

    def __post_init__(self):
        # integers that are not bools, kept as Python ints so replies are plain JSON
        for name, rule, least in (("budget", "an integer >= 1", 1),
                                  ("seed", "a non-negative integer", 0)):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
                    or value < least):
                raise ValueError(f"{name} must be {rule}, got {trifun._echo(value)}")
            object.__setattr__(self, name, int(value))


@dataclass(frozen=True)
class Finding:
    """One retained instance: in the class, outside the principle."""

    index: int
    space: FiniteSemimetricSpace
    mapping: SelfMap
    failed_hypotheses: tuple[str, ...]
    space_compatible: bool
    picard: tuple[dict, ...]
    fixed_points: tuple[str, ...]
    bound: str  # "held" | "violated" | "unavailable"

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "space": self.space.to_json(),
            "map": self.mapping.to_json(),
            "failed_hypotheses": list(self.failed_hypotheses),
            "space_compatible": self.space_compatible,
            "picard": list(self.picard),
            "fixed_points": list(self.fixed_points),
            "bound": self.bound,
        }


@dataclass(frozen=True)
class SearchResult:
    config: SearchConfig
    examined: int
    satisfied: int
    findings: tuple[Finding, ...]

    def to_json(self) -> dict:
        return {
            "phi": self.config.phi.to_json(),
            "kind": self.config.kind.to_json(),
            "budget": self.config.budget,
            "seed": self.config.seed,
            "examined": self.examined,
            "satisfied": self.satisfied,
            "findings": [f.to_json() for f in self.findings],
        }


def counterexample_search(config: SearchConfig) -> SearchResult:
    """Run the seeded search; see the module docstring for semantics."""
    rng = np.random.default_rng(config.seed)
    record = applicability(config.kind, config.phi)
    factor = step_contraction_factor(config.kind, config.phi)
    satisfied, findings = 0, []
    for first in range(0, config.budget, BATCH_CAP):
        count, found = _check_batch(config, record, factor, _draw_batch(
            rng, range(first, min(first + BATCH_CAP, config.budget))))
        satisfied += count
        findings += found
    return SearchResult(config, config.budget, satisfied, tuple(findings))


def _draw_batch(rng: np.random.Generator, indices: range) -> dict[int, list]:
    """The instances at `indices`, drawn in order and grouped by size, each
    an (index, matrix draw, image table) triple."""
    by_size: dict[int, list] = {}
    for index in indices:
        size = int(rng.integers(SIZE_RANGE[0], SIZE_RANGE[1] + 1))
        by_size.setdefault(size, []).append(
            (index, rng.random((size, size)), _draw_images(rng, size)))
    return by_size


def _check_batch(config: SearchConfig, record, factor, by_size: dict[int, list]):
    """(satisfied count, findings in index order) of a drawn batch: each
    size class is checked against the family inequality in one stacked
    call, and its satisfied instances go on to the findings stage when the
    principle does not apply."""
    satisfied, found = 0, []
    for instances in by_size.values():
        indices, draws, tables = zip(*instances)
        dist, table = _semimetric(np.stack(draws)), np.array(tables)
        _check_images(table, table.shape[1])
        components = _finite_pair_components(dist, table)
        with np.errstate(over="ignore", invalid="ignore"):  # as verify_contraction
            bad = violates(components["lhs"], _rhs(config.kind, components))
        passed = ~np.any(bad, axis=1)
        satisfied += int(np.count_nonzero(passed))
        if not record.applicable and passed.any():
            keep = np.flatnonzero(passed)
            found += _findings(config.phi, tuple(record.failed()),
                               factor.value if factor.derivable else None, dist[keep],
                               table[keep], [(indices[k], tables[k]) for k in keep.tolist()])
    return satisfied, sorted(found, key=lambda finding: finding.index)


def _bounds_held(dist: np.ndarray, points: np.ndarray, steps: np.ndarray, limits: np.ndarray,
                 converged: np.ndarray, alpha: float, c: float) -> np.ndarray:
    """Per space of a stack, whether `verify_bound` passes every converged
    orbit of `solver._walk`, each ending at its entry in limits: every row's
    slack from `solver._bound_columns` is at least -BOUND_SLACK_TOL (NaN fails)."""
    b, n, depth = points.shape
    rows = np.arange(b)[:, None, None]
    observed = dist[rows, points, limits[..., None]]
    d01 = dist[rows, points[..., :1], points[..., 1:2]]
    _, _, slack = solver._bound_columns(alpha, c, d01, observed)
    audited = converged[..., None] & (np.arange(depth) <= steps[..., None])
    return np.all(~audited | (slack >= -solver.BOUND_SLACK_TOL), axis=(1, 2))


def _findings(phi: TriangleFunctionSpec, failed: tuple[str, ...], rate: float | None,
              dist: np.ndarray, table: np.ndarray, instances: list) -> list[Finding]:
    """The findings of a stack of satisfied instances of one size, each
    instance an (index, images) pair, under a principle whose `failed`
    hypotheses are given and whose per-step factor is `rate` (None when it
    is not derivable)."""
    labels = _labels(table.shape[1])
    points, steps, reasons = solver._walk(dist, table, np.arange(table.shape[1]), MAX_ITER,
                                          solver.STEP_TOL_DEFAULT)
    limits = np.take_along_axis(points, steps[..., None], axis=-1)[..., 0]
    converged = reasons == 0
    bound = ["unavailable"] * len(instances)
    if rate is not None and converged.any():
        c = trifun.chain_bound_constant(phi, rate)
        if math.isfinite(c):
            held = _bounds_held(dist, points, steps, limits, converged, rate, c)
            bound = [("held" if ok else "violated") if any_limit else "unavailable"
                     for ok, any_limit in zip(held.tolist(), converged.any(axis=1).tolist())]
    with np.errstate(all="ignore"):  # as triangle_report
        lhs, rhs = _finite_triples(phi, dist, slice(None), slice(None))
        compatible = ~np.any(violates(lhs, rhs), axis=(1, 2, 3))
    found = []
    for k, (index, images) in enumerate(instances):
        picard = tuple(
            {"start": labels[start], "stop_reason": solver._STOP_REASONS[reason],
             "limit": labels[limit] if reason == 0 else None, "steps": count}
            for start, (reason, limit, count)
            in enumerate(zip(reasons[k].tolist(), limits[k].tolist(), steps[k].tolist())))
        found.append(Finding(
            index=index,
            space=FiniteSemimetricSpace(labels, dist[k]),
            mapping=SelfMap(images=tuple(images)),
            failed_hypotheses=failed,
            space_compatible=bool(compatible[k]),
            picard=picard,
            fixed_points=tuple(labels[i] for i, image in enumerate(images) if image == i),
            bound=bound[k],
        ))
    return found
