"""Span tracing of the package's layers, installed from outside the package.

Each layer is one module of ``contraction_lab``.  The tracer replaces every
public function a module holds, whether defined there or imported from a
sibling, with a wrapper at that module attribute, which is exactly where a
caller resolves it: ``contraction_lab.search.verify_contraction`` and
``contraction_lab.cli.check_generalized_triangle`` are wrapped separately,
and so are intra-module calls such as ``trifun.chain_report`` made from
``trifun.chain_bound_constant``.  ``Expression.__call__`` is wrapped on the
class so that expression evaluations count as ``expressions`` work.

A span records name, start, end, parent span and request id in flat arrays;
spans stay in memory and are written out once, when the run ends.  A
layer's self time is the sum over its spans of duration minus the duration
of their direct child spans.  The counters behind the ``*_ratio`` and
``*_built`` metrics are taken in the wrappers from the arguments and results
of the calls, so they count work where it happens.
"""

from __future__ import annotations

import functools
import importlib
import types
from array import array

import numpy as np

LAYERS = ("cli", "search", "contraction", "solver", "space", "trifun", "expressions")
PACKAGE = "contraction_lab"
CHAIN_SPANS = ("trifun.chain_bound_constant", "trifun.chain_report")


def layer_modules():
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}


class Tracer:
    """In-memory span recorder plus the counters the per-layer metrics need."""

    def __init__(self, clock):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.request_id = -1
        self.requests = 0
        self.counts = dict.fromkeys((
            "search.instances", "search.satisfied", "search.findings",
            "solver.picard_steps", "solver.bound_rows",
            "expressions.scalar_calls",
            "trifun.chain_requests", "trifun.chain_repeats",
            "space.triples_checked", "space.violations_built", "space.violations_reported",
            "contraction.pairs_checked", "contraction.violations_built",
            "cli.errors",
        ), 0)
        self.chain_seen: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "search.counterexample_search": (None, self._after_search),
            "solver.picard_iterate": (None, self._after_picard),
            "solver.verify_bound": (None, self._after_bound),
            "space.check_generalized_triangle": (self._before_triangle, self._after_triangle),
            "contraction.verify_contraction": (self._before_pairs, self._after_pairs),
            "trifun.chain_bound_constant": (self._before_chain, None),
            "trifun.chain_report": (self._before_chain, None),
            "expressions.Expression.__call__": (self._before_expression, None),
            "cli.run_command": (None, self._after_command),
        }

    # --- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, fn, name: str):
        """`fn` recording one span named `name` per call."""
        nid = self._name_id(name)
        before, after = self._hooks.get(name, (None, None))
        clock = self.clock
        stack = self.stack
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            ends.append(0.0)
            if before is not None:
                before(args, kwargs)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__traced__ = True
        return traced

    def install(self) -> None:
        """Wrap every public function of every layer module where callers
        resolve it.  Classes, constants and private helpers stay as they are."""
        modules = layer_modules()
        self.triple_samples = modules["space"].TRIPLE_SAMPLES
        self.pair_samples = modules["space"].PAIR_SAMPLES
        owner_of = {mod.__name__: layer for layer, mod in modules.items()}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or isinstance(value, type) or not callable(value):
                    continue
                if isinstance(value, types.ModuleType) or getattr(value, "__traced__", False):
                    continue
                owner = owner_of.get(getattr(value, "__module__", None))
                if owner is None:
                    continue
                self._patch(module, attr, self.wrap(value, f"{owner}.{value.__name__}"))
        expression = modules["expressions"].Expression
        self._patch(expression, "__call__",
                    self.wrap(expression.__call__, "expressions.Expression.__call__"))

    def _patch(self, obj, attr: str, replacement) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # --- counters ----------------------------------------------------------------

    def _after_search(self, args, kwargs, result):
        self.counts["search.instances"] += result.examined
        self.counts["search.satisfied"] += result.satisfied
        self.counts["search.findings"] += len(result.findings)

    def _after_picard(self, args, kwargs, result):
        self.counts["solver.picard_steps"] += len(result.step_dists)

    def _after_bound(self, args, kwargs, result):
        self.counts["solver.bound_rows"] += len(result.rows)

    def _before_triangle(self, args, kwargs):
        space = args[0]
        if hasattr(space, "labels"):
            self.counts["space.triples_checked"] += space.size ** 3
        else:
            samples = args[3] if len(args) > 3 else kwargs.get("samples", self.triple_samples)
            self.counts["space.triples_checked"] += 27 + samples

    def _after_triangle(self, args, kwargs, result):
        self.counts["space.violations_built"] += len(result)

    def _before_pairs(self, args, kwargs):
        space = args[0]
        if hasattr(space, "labels"):
            self.counts["contraction.pairs_checked"] += space.size ** 2
        else:
            samples = args[4] if len(args) > 4 else kwargs.get("samples", self.pair_samples)
            self.counts["contraction.pairs_checked"] += 9 + samples

    def _after_pairs(self, args, kwargs, result):
        self.counts["contraction.violations_built"] += len(result.violations)

    def _before_chain(self, args, kwargs):
        """Count a chain-constant request unless another one is computing it
        (chain_bound_constant hands custom functions to chain_report)."""
        if self.stack and self.names[self.span_name[self.stack[-1]]] in CHAIN_SPANS:
            return
        key = (args[0], float(args[1]))
        self.counts["trifun.chain_requests"] += 1
        self.counts["trifun.chain_repeats"] += key in self.chain_seen
        self.chain_seen.add(key)

    def _before_expression(self, args, kwargs):
        if all(isinstance(v, (float, int)) for v in kwargs.values()):
            self.counts["expressions.scalar_calls"] += 1

    def _after_command(self, args, kwargs, result):
        if result.status == "error":
            self.counts["cli.errors"] += 1
        elif result.command == "validate":
            self.counts["space.violations_reported"] += len(result.payload["triangle"]["violations"])

    # --- results -----------------------------------------------------------------

    def arrays(self) -> dict:
        """Copies of the span columns (copies, so recording can go on)."""
        return {
            "name": np.array(self.span_name, dtype=np.int32),
            "parent": np.array(self.span_parent, dtype=np.int32),
            "request": np.array(self.span_request, dtype=np.int32),
            "start": np.array(self.span_start, dtype=np.float64),
            "end": np.array(self.span_end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics, normalised per traced request where they are
        counts or times; ratios carry their base under its own name."""
        spans = self.arrays()
        layer_of_name = np.array([LAYERS.index(n.split(".", 1)[0]) for n in self.names] or [0],
                                 dtype=np.int64)
        layer = layer_of_name[spans["name"]] if len(spans["name"]) else np.zeros(0, np.int64)
        duration = spans["end"] - spans["start"]
        parent = spans["parent"].astype(np.int64)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested],
                                 minlength=len(duration))
        self_time = duration - child_time
        parent_layer = np.where(nested, layer[np.where(nested, parent, 0)], -1)
        entries = parent_layer != layer

        per = max(self.requests, 1)
        c = self.counts
        out: dict[str, float] = {}
        for i, name in enumerate(LAYERS):
            mine = layer == i
            out[f"{name}.calls"] = int(np.count_nonzero(mine & entries)) / per
            out[f"{name}.self_s"] = float(self_time[mine].sum()) / per

        def ratio(num, den):
            return num / den if den else 0.0

        picard = self.name_ids.get("solver.picard_iterate")
        picard_time = float(duration[spans["name"] == picard].sum()) if picard is not None else 0.0
        expression_calls = int(np.count_nonzero(layer == LAYERS.index("expressions")))
        chain_reports = self.name_ids.get("trifun.chain_report")
        out.update({
            "search.instances": c["search.instances"] / per,
            "search.satisfied_ratio": ratio(c["search.satisfied"], c["search.instances"]),
            "search.finding_ratio": ratio(c["search.findings"], c["search.instances"]),
            "solver.picard_steps": c["solver.picard_steps"] / per,
            "solver.bound_rows": c["solver.bound_rows"] / per,
            "solver.us_per_step": ratio(picard_time * 1e6, c["solver.picard_steps"]),
            "expressions.scalar_call_ratio": ratio(c["expressions.scalar_calls"], expression_calls),
            "trifun.chain_reports": (int(np.count_nonzero(spans["name"] == chain_reports))
                                     if chain_reports is not None else 0) / per,
            "trifun.chain_requests": c["trifun.chain_requests"] / per,
            "trifun.chain_repeat_ratio": ratio(c["trifun.chain_repeats"], c["trifun.chain_requests"]),
            "space.triples_checked": c["space.triples_checked"] / per,
            "space.violations_built": c["space.violations_built"] / per,
            "space.violations_reported_ratio": ratio(c["space.violations_reported"],
                                                     c["space.violations_built"]),
            "contraction.pairs_checked": c["contraction.pairs_checked"] / per,
            "contraction.violations_built": c["contraction.violations_built"] / per,
            "cli.errors": c["cli.errors"] / per,
        })
        return out
