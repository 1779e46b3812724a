"""Seeded request streams for the three benchmark workloads.

Every workload is a closed loop with one client: the next request is sent
only after the previous reply arrived.  A stream is an endless sequence of
*cycles*; a cycle is a fixed design of request classes, and the seed only
fills in the details of each class (matrix entries, fixed points, start
points, search seeds, request order).  Runs with different seeds therefore
see the same mix of costs, which is what keeps medians and tails comparable
between runs.  Cycle ``c`` is rebuilt from ``(seed, c)`` alone, so replaying
a cycle gives the very same requests.

The program only ever sees the generated JSON: space files written by
``setup`` and the inline JSON arguments of each request.  What the oracle
needs to know about a request (analytic fixed points, the named family a
custom triangle function restates, the matrices behind the space files)
travels alongside in ``Request.expect`` and never reaches the program.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np


@dataclass
class Request:
    """One client request: one or more CLI invocations answered in order."""

    kind: str
    argvs: list[list[str]]
    expect: dict


def _json_arg(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True)


# --- search-mix --------------------------------------------------------------

SEARCH_PHIS = (
    {"kind": "additive"},
    {"kind": "max"},
    {"kind": "bscaled", "K": 1.5},
    {"kind": "bscaled", "K": 2.0},
    {"kind": "power", "q": 0.5},
    {"kind": "power", "q": 2.0},
)

# One admissible setting per tag and two whose constants break the principle,
# so most configurations are not applicable and the Picard/bound path runs.
SEARCH_KINDS = {
    "partial": ({"alpha": 0.3, "beta": 0.3}, {"alpha": 0.5, "beta": 0.6},
                {"alpha": 0.7, "beta": 0.45}),
    "partial_dual": ({"alpha": 0.3, "beta": 0.4}, {"alpha": 0.5, "beta": 0.6},
                     {"alpha": 0.6, "beta": 0.5}),
    "weak": ({"alpha": 0.3, "delta": 0.2}, {"alpha": 0.4, "delta": 0.35},
             {"alpha": 0.6, "delta": 0.3}),
    "weak_dual": ({"alpha": 0.4, "delta": 0.2}, {"alpha": 1.05, "delta": 0.1},
                  {"alpha": 1.2, "delta": 0.3}),
    "bianchini": ({"beta": 0.6}, {"beta": 1.1}, {"beta": 1.3}),
    "chatterjea_bianchini": ({"beta": 0.3}, {"beta": 0.6}, {"beta": 0.9}),
}

SEARCH_BUDGETS = (48, 64, 96)

# Twice per cycle, a larger search whose configuration is not applicable
# (rate * K > 1), so every satisfied instance becomes a finding.  These are
# the slowest requests and hold the samples beyond the tail percentile.
SEARCH_HEAVY = ({"kind": "bscaled", "K": 2.0}, {"tag": "partial", "alpha": 0.3, "beta": 0.3}, 384)
SEARCH_HEAVY_PER_CYCLE = 2


class SearchMix:
    """`search` requests over every (phi, tag, constants) combination, plus
    the heavy searches."""

    name = "search-mix"

    def __init__(self, seed: int):
        self.seed = seed
        self.design = [
            (phi, {"tag": tag, **consts})
            for phi in SEARCH_PHIS
            for tag, grid in SEARCH_KINDS.items()
            for consts in grid
        ]

    def setup(self, workdir: str) -> None:
        """Nothing to write: search requests carry all inputs inline."""

    def cycle(self, index: int) -> list[Request]:
        rng = np.random.default_rng([self.seed, index])
        slots = [(phi, kind, SEARCH_BUDGETS[(i + index) % len(SEARCH_BUDGETS)])
                 for i, (phi, kind) in enumerate(self.design)]
        slots += [SEARCH_HEAVY] * SEARCH_HEAVY_PER_CYCLE
        requests = []
        for slot in rng.permutation(len(slots)):
            phi, kind, budget = slots[slot]
            seed = int(rng.integers(0, 2**31 - 1))
            argv = ["search", "--phi", _json_arg(phi), "--kind", _json_arg(kind),
                    "--budget", str(budget), "--seed", str(seed)]
            requests.append(Request("search", [argv],
                                    {"phi": phi, "kind": kind, "budget": budget, "seed": seed}))
        return requests


# --- certify-interval --------------------------------------------------------

# (rate, distance power p, triangle function mode, map shape).  p = 1 is
# abs(x-y) with the additive family, p = 2 is abs(x-y)^2 with the power
# q = 0.5 family; custom triangle functions restate the same family as an
# expression.  Every variant appears, rates run from 0.5 to 0.999, and six
# of the eleven requests use a custom triangle function.  The first slot, a
# long affine orbit at rate 0.999, is the slowest request of every cycle and
# holds the tail.  Five slots cost more than the two 0.9/0.75 custom
# nonlinear slots and four cost less, so the median falls in that pair.
# Custom functions reach a finite chain constant only at rates up to about
# 0.65, so the 0.6 and 0.5 slots are the custom ones whose bound audit runs.
CERTIFY_DESIGN = (
    (0.999, 1, "named", "affine"),
    (0.999, 2, "named", "nonlinear"),
    (0.995, 2, "named", "affine"),
    (0.99, 2, "custom", "affine"),
    (0.995, 1, "custom", "nonlinear"),
    (0.9, 2, "custom", "nonlinear"),
    (0.75, 2, "custom", "nonlinear"),
    (0.6, 1, "custom", "affine"),
    (0.5, 1, "custom", "affine"),
    (0.9, 2, "named", "affine"),
    (0.97, 1, "named", "nonlinear"),
)
CERTIFY_FAMILIES = {
    1: {"named": {"kind": "additive"}, "custom": {"kind": "custom", "expr": "u+v"},
        "family": ("additive", None)},
    2: {"named": {"kind": "power", "q": 0.5},
        "custom": {"kind": "custom", "expr": "(sqrt(u)+sqrt(v))^2"},
        "family": ("power", 0.5)},
}
CERTIFY_TAGS = ({"tag": "partial", "beta": 0.0}, {"tag": "partial_dual", "beta": 0.0},
                {"tag": "weak_dual", "delta": 0.0})


def interval_case(rng: np.random.Generator, rate: float, p: int, shape: str) -> dict:
    """A self-map of [0, 1] whose distance contracts at about `rate` near its
    fixed point, with the analytic fixed point and a global Lipschitz bound
    in x.  Affine maps a*x + b contract at exactly a; the nonlinear map
    c*sqrt(x^2 + e) has slope c^2 at its fixed point and at most
    c/sqrt(1 + e) on [0, 1]."""
    one_minus = (1.0 - rate) * math.exp(rng.uniform(-0.05, 0.05))
    local = (1.0 - one_minus) ** (1.0 / p)  # rate in x near the fixed point
    if shape == "affine":
        fixed = float(rng.uniform(0.3, 0.7))
        b = fixed * (1.0 - local)
        return {"expr": f"{local!r}*x+{b!r}", "fixed": fixed, "lipschitz": local,
                "shape": shape}
    c = math.sqrt(local)
    e = float(rng.uniform(0.5e-4, 2e-4))
    fixed = c * math.sqrt(e / (1.0 - c * c))
    return {"expr": f"{c!r}*sqrt(x^2+{e!r})", "fixed": fixed,
            "lipschitz": c / math.sqrt(1.0 + e), "shape": shape}


class CertifyInterval:
    """`classify` then `bounds` on interval spaces with expression maps."""

    name = "certify-interval"

    def __init__(self, seed: int):
        self.seed = seed
        self.spaces: dict[int, str] = {}

    def setup(self, workdir: str) -> None:
        for p, dist in ((1, "abs(x-y)"), (2, "abs(x-y)^2")):
            path = os.path.join(workdir, f"interval-p{p}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"lo": 0.0, "hi": 1.0, "dist": dist}, handle)
            self.spaces[p] = path

    def _request(self, rng, rate, p, mode, shape, index) -> Request:
        case = interval_case(rng, rate, p, shape)
        alpha = case["lipschitz"] ** p
        kind = dict(CERTIFY_TAGS[index % len(CERTIFY_TAGS)])
        kind["alpha"] = alpha
        phi = CERTIFY_FAMILIES[p][mode]
        x0 = (0.0, 1.0)[int(rng.integers(0, 2))]
        common = ["--space", self.spaces[p], "--map", json.dumps({"expr": case["expr"]}),
                  "--phi", _json_arg(phi), "--kind", _json_arg(kind)]
        expect = dict(case, p=p, mode=mode, alpha=alpha, x0=x0,
                      family=CERTIFY_FAMILIES[p]["family"])
        return Request("certify", [["classify", *common], ["bounds", *common, "--x0", repr(x0)]],
                       expect)

    def cycle(self, index: int) -> list[Request]:
        rng = np.random.default_rng([self.seed, index])
        requests = [self._request(rng, *slot, index + k) for k, slot in enumerate(CERTIFY_DESIGN)]
        return [requests[i] for i in rng.permutation(len(requests))]


# --- dense-finite ------------------------------------------------------------

def euclidean_matrix(rng: np.random.Generator, size: int) -> np.ndarray:
    """Distances of random points in R^3, scaled to maximum 1."""
    pts = rng.random((size, 3))
    diff = pts[:, None, :] - pts[None, :, :]
    matrix = np.sqrt(np.sum(diff * diff, axis=2))
    return matrix / matrix.max()


def semimetric_matrix(rng: np.random.Generator, size: int) -> np.ndarray:
    """Symmetric entries in (0, 1], scaled to maximum 1; about one ordered
    triple in six breaks the additive triangle inequality."""
    upper = np.triu(1.0 - rng.random((size, size)), 1)
    matrix = upper + upper.T
    return matrix / matrix.max()


# name -> (matrix generator, size).  Sizes stay at or below 192 points: one N^3
# float64 temporary at N = 192 is 54 MiB against the 300 MiB L3 cache.
DENSE_SPACES = {
    "euclid192": (euclidean_matrix, 192),
    "euclid160": (euclidean_matrix, 160),
    "euclid128": (euclidean_matrix, 128),
    "euclid96": (euclidean_matrix, 96),
    "semi80": (semimetric_matrix, 80),
    "semi64": (semimetric_matrix, 64),
}
DENSE_POOL = 4  # distinct files per space class

DENSE_PHIS = ({"kind": "additive"}, {"kind": "power", "q": 0.5}, {"kind": "bscaled", "K": 1.5})

# (command, space class, triangle functions to rotate through, map style).
# Five slots cost more than the three euclid128 validations and five cost
# less, so the median latency falls inside that one class; the two semi80
# validations are the slowest slots and hold the tail.
DENSE_DESIGN = (
    ("validate", "semi80", (0,), None),
    ("validate", "semi80", (0,), None),
    ("validate", "euclid192", (0, 1, 2), None),
    ("validate", "semi64", (0,), None),
    ("classify", "euclid192", (0, 1, 2), "uniform"),
    ("validate", "euclid128", (0,), None),
    ("validate", "euclid128", (1,), None),
    ("validate", "euclid128", (2,), None),
    ("validate", "euclid96", (0, 1, 2), None),
    ("classify", "euclid160", (0, 1, 2), "constant"),
    ("classify", "euclid128", (0, 1, 2), "constant"),
    ("classify", "semi80", (0, 2), "near-constant"),
    ("classify", "semi64", (0, 1, 2), "uniform"),
)

DENSE_KINDS = (
    {"tag": "partial", "alpha": 0.4, "beta": 0.3},
    {"tag": "weak", "alpha": 0.3, "delta": 0.2},
    {"tag": "bianchini", "beta": 0.7},
    {"tag": "chatterjea_bianchini", "beta": 0.4},
)


def random_images(rng: np.random.Generator, size: int, style: str) -> list[int]:
    """A constant, near-constant (nine in ten points to one target) or
    uniform image table."""
    target = int(rng.integers(0, size))
    if style == "constant":
        return [target] * size
    if style == "near-constant":
        keep = rng.random(size) < 0.9
        return [target if k else int(i) for k, i in zip(keep, rng.integers(0, size, size))]
    return [int(i) for i in rng.integers(0, size, size)]


class DenseFinite:
    """`validate` and `classify` on finite spaces written to files."""

    name = "dense-finite"

    def __init__(self, seed: int):
        self.seed = seed
        self.files: dict[tuple[str, int], str] = {}
        self.matrices: dict[str, np.ndarray] = {}

    def setup(self, workdir: str) -> None:
        rng = np.random.default_rng([self.seed, 2**20])
        for cls, (generate, size) in DENSE_SPACES.items():
            labels = [f"p{i}" for i in range(size)]
            for k in range(DENSE_POOL):
                matrix = generate(rng, size)
                path = os.path.join(workdir, f"{cls}-{k}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump({"labels": labels, "dist": matrix.tolist()}, handle)
                self.files[cls, k] = path
                self.matrices[path] = matrix

    def cycle(self, index: int) -> list[Request]:
        rng = np.random.default_rng([self.seed, index])
        requests = []
        for slot, (command, cls, phis, style) in enumerate(DENSE_DESIGN):
            path = self.files[cls, int(rng.integers(0, DENSE_POOL))]
            phi = DENSE_PHIS[phis[(index + slot) % len(phis)]]
            expect = {"path": path, "matrix": self.matrices[path], "phi": phi,
                      "euclidean": cls.startswith("euclid")}
            argv = [command, "--space", path, "--phi", _json_arg(phi)]
            if command == "classify":
                images = random_images(rng, DENSE_SPACES[cls][1], style)
                kind = DENSE_KINDS[(index + slot) % len(DENSE_KINDS)]
                argv += ["--map", json.dumps({"images": images}), "--kind", _json_arg(kind)]
                expect.update(images=images, kind=kind)
            requests.append(Request(command, [argv], expect))
        return [requests[i] for i in rng.permutation(len(requests))]


WORKLOADS = {cls.name: cls for cls in (SearchMix, CertifyInterval, DenseFinite)}
