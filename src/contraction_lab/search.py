"""Randomized counterexample search over small finite spaces.

Instances are seeded and reproducible: spaces are random semimetrics on 3-8
points (symmetric, entries drawn in (0, 1] and rescaled), maps mix constant,
near-constant and uniform images.  The search keeps instances whose map
satisfies the configured contraction inequality while some hypothesis of the
matching fixed-point principle fails, and records what Picard iteration and
the a-priori bound did anyway.  Findings are merged in instance-index order,
so identical configurations reproduce identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import solver, trifun
from .contraction import (
    ContractionKind,
    SelfMap,
    applicability,
    step_contraction_factor,
    verify_contraction,
)
from .space import FiniteSemimetricSpace, triangle_report
from .trifun import TriangleFunctionSpec

SIZE_RANGE = (3, 8)


def random_semimetric(rng: np.random.Generator, size: int) -> FiniteSemimetricSpace:
    """Symmetric matrix with off-diagonal entries in (0, 1], rescaled to
    maximum 1; degenerate draws (a zero off-diagonal) are redrawn."""
    while True:
        upper = 1.0 - rng.random((size, size))  # in (0, 1]
        matrix = np.triu(upper, 1)
        matrix = matrix + matrix.T
        if np.all(matrix + np.eye(size) > 0.0):
            matrix /= matrix.max()
            labels = tuple(f"p{i}" for i in range(size))
            return FiniteSemimetricSpace(labels, matrix)


def random_metric(rng: np.random.Generator, size: int) -> FiniteSemimetricSpace:
    """Euclidean distances of random points in R^3, rescaled to maximum 1."""
    while True:
        pts = rng.random((size, 3))
        diff = pts[:, None, :] - pts[None, :, :]
        matrix = np.sqrt(np.sum(diff * diff, axis=2))
        if np.all(matrix + np.eye(size) > 1e-6):
            matrix /= matrix.max()
            labels = tuple(f"p{i}" for i in range(size))
            return FiniteSemimetricSpace(labels, matrix)


def random_ultrametric(rng: np.random.Generator, size: int) -> FiniteSemimetricSpace:
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
    labels = tuple(f"p{i}" for i in range(size))
    return FiniteSemimetricSpace(labels, matrix)


def random_self_map(rng: np.random.Generator, size: int) -> SelfMap:
    """Mixture of constant, near-constant and uniform image tables."""
    style = rng.integers(0, 3)
    target = int(rng.integers(0, size))
    if style == 0:
        images = [target] * size
    elif style == 1:
        images = [target if rng.random() < 0.7 else int(rng.integers(0, size))
                  for _ in range(size)]
    else:
        images = [int(rng.integers(0, size)) for _ in range(size)]
    return SelfMap(images=tuple(images))


@dataclass(frozen=True)
class SearchConfig:
    phi: TriangleFunctionSpec
    kind: ContractionKind
    budget: int
    seed: int = 0

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be at least 1")


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
    findings: list[Finding] = []
    satisfied = 0

    for index in range(config.budget):
        size = int(rng.integers(SIZE_RANGE[0], SIZE_RANGE[1] + 1))
        space = random_semimetric(rng, size)
        mapping = random_self_map(rng, size)
        certificate = verify_contraction(space, mapping, config.kind, listed=0)
        if not certificate.passed:
            continue
        satisfied += 1
        if record.applicable:
            continue

        outcomes = []
        limits = []
        for start in range(space.size):
            trace = solver.picard_iterate(space, mapping, start, max_iter=10_000)
            outcomes.append({
                "start": space.labels[start],
                "stop_reason": trace.stop_reason,
                "limit": space.labels[trace.points[-1]]
                if trace.stop_reason == "converged" else None,
                "steps": len(trace.step_dists),
            })
            if trace.stop_reason == "converged":
                limits.append((start, trace))
        brute = solver.brute_force_fixed_points(space, mapping)

        bound_state = "unavailable"
        if factor.derivable and limits:
            c = trifun.chain_bound_constant(config.phi, factor.value)
            if math.isfinite(c):
                held = True
                for start, trace in limits:
                    report = solver.verify_bound(
                        trace, config.phi, factor.value, trace.points[-1]
                    )
                    if not report.bounds_ok:
                        held = False
                        break
                bound_state = "held" if held else "violated"

        compatible = triangle_report(space, config.phi, listed=0).count == 0
        findings.append(
            Finding(
                index=index,
                space=space,
                mapping=mapping,
                failed_hypotheses=tuple(record.failed()),
                space_compatible=compatible,
                picard=tuple(outcomes),
                fixed_points=tuple(space.labels[i] for i in brute),
                bound=bound_state,
            )
        )
    return SearchResult(config, config.budget, satisfied, tuple(findings))
