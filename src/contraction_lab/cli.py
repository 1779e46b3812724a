"""Command line front end.

Commands: validate, classify, iterate, bounds, search.  Inputs are JSON
(space from a file, map inline or from a file, phi/kind inline); reports are
JSON envelopes {command, status, payload} on stdout with deterministic key
order, CSV tables for iterate/bounds with --format csv, or help text with
-h.  Exit codes: 0 ok (help included), 1 violation or not-applicable, 2
operational error, usage errors included.

One table, `_COMMANDS`, gives each command its help text, the inputs it
reads in order, whether it prints CSV and its handler; `_INPUTS` reads each
input, and the `from_json` readers hold every document to one field rule.

A process, the CLI or a script calling `run_command`, decodes a finite
space file's text once while that text is unchanged: the decoded space is
held, keyed by the SHA-256 of the text and with its matrix read-only, in a
least-recently-used cache of at most SPACE_CACHE_BYTES of matrices.  Only
decoded finite spaces are held, never replies.

Setting CONTRACTION_LAB_SEED in the environment overrides --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import threading
from typing import Callable

from . import solver, trifun
from .contraction import (
    ContractionKind,
    SelfMap,
    applicability,
    step_contraction_factor,
    verify_contraction,
)
from .search import SearchConfig, counterexample_search
from .space import (
    FiniteSemimetricSpace,
    space_from_json,
    triangle_report,
    triple_pass,
    validate_semimetric,
)
from .trifun import TriangleFunctionSpec, _json_float

ENV_SEED = "CONTRACTION_LAB_SEED"
EXIT_CODES = {"ok": 0, "violation": 1, "not-applicable": 1, "error": 2}
MAX_LISTED_VIOLATIONS = 5
# bytes of distance matrices the decoded-space cache holds, each space
# weighing at least SPACE_MIN_BYTES
SPACE_CACHE_BYTES = 32 * 2**20
SPACE_MIN_BYTES = 4096


@dataclasses.dataclass(frozen=True)
class CommandResult:
    command: str | None  # None when argv names no command
    status: str  # "ok" | "violation" | "not-applicable" | "error"
    payload: dict

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "status": self.status,
            "payload": self.payload,
        }


def _read_json(flag: str, text: str, inline: bool = True):
    """The JSON document `flag` gives: `text` itself when `inline`, else the
    file at path `text`."""
    if not inline:
        with open(text, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{flag} is not valid JSON: {exc}") from None


class _SpaceCache:
    """Decoded finite spaces by the SHA-256 of their file's text, least
    recently used first, under one lock: at most SPACE_CACHE_BYTES of
    distance matrices, a larger one never held."""

    def __init__(self):
        self.spaces: dict[bytes, FiniteSemimetricSpace] = {}
        self.held = 0  # bytes, by each space's weight
        self.lock = threading.Lock()

    def get(self, key: bytes) -> FiniteSemimetricSpace | None:
        with self.lock:
            space = self.spaces.pop(key, None)
            if space is not None:  # now the most recently used
                self.spaces[key] = space
            return space

    def put(self, key: bytes, space: FiniteSemimetricSpace) -> None:
        weight = max(space.dist.nbytes, SPACE_MIN_BYTES)
        with self.lock:
            if key in self.spaces or weight > SPACE_CACHE_BYTES:
                return
            while self.held + weight > SPACE_CACHE_BYTES:
                oldest = self.spaces.pop(next(iter(self.spaces)))
                self.held -= max(oldest.dist.nbytes, SPACE_MIN_BYTES)
            self.spaces[key] = space
            self.held += weight


_spaces = _SpaceCache()


def _read_space(path: str):
    """The space in the file at `path`.  A finite space is decoded once
    while the file's text is unchanged, and held with a read-only matrix;
    an interval space, quick to decode, is decoded on every read."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    key = hashlib.sha256(text.encode("utf-8")).digest()
    space = _spaces.get(key)
    if space is None:
        space = space_from_json(_read_json("--space", text))
        if isinstance(space, FiniteSemimetricSpace):
            space.dist.flags.writeable = False
            _spaces.put(key, space)
    return space


def _parse_x0(space, text: str):
    if isinstance(space, FiniteSemimetricSpace):
        if text in space.labels:
            return text
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"--x0 {text!r} is neither a label nor an index") from None
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"--x0 {text!r} is not a number") from None


# --map text that opens a JSON object, array or string is the document, any
# other text a path
_JSON_OPENERS = ("{", "[", '"')

# flag -> reader of its value, given the inputs read before it
_INPUTS = {
    "space": lambda text, read: _read_space(text),
    "map": lambda text, read: SelfMap.from_json(
        _read_json("--map", text, inline=text.lstrip().startswith(_JSON_OPENERS))),
    "phi": lambda text, read: TriangleFunctionSpec.from_json(_read_json("--phi", text)),
    "kind": lambda text, read: ContractionKind.from_json(_read_json("--kind", text)),
    "x0": lambda text, read: _parse_x0(read["space"], text),
    "budget": lambda value, read: value,
}


def _resolve_seed(args) -> int:
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{ENV_SEED} must be an integer, got {env!r}") from None
    return args.seed if args.seed is not None else 0


class _HelpRequested(Exception):
    """-h or --help was given; the argument is the help text."""


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, such as an unknown subcommand or option, as
    ValueError and a help request as _HelpRequested, instead of printing
    them and exiting."""

    def error(self, message):
        raise ValueError(message)

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="contraction-lab",
        description="Validate semimetric spaces, classify contractions, "
        "iterate maps, audit error bounds, and search for boundary instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        cmd.add_argument("--space", metavar="FILE", help="space JSON file")
        cmd.add_argument("--map", metavar="JSON|FILE", help="self-map JSON or file")
        cmd.add_argument("--phi", metavar="JSON", help="triangle function JSON")
        cmd.add_argument("--kind", metavar="JSON", help="contraction kind JSON")
        cmd.add_argument("--x0", metavar="VALUE", help="start point (label, index, or number)")
        cmd.add_argument("--max-iter", type=int, metavar="N", default=solver.MAX_ITER_DEFAULT)
        cmd.add_argument("--tol", type=float, metavar="T", default=solver.STEP_TOL_DEFAULT)
        cmd.add_argument("--seed", type=int, metavar="S", default=None)
        cmd.add_argument("--budget", type=int, metavar="N", default=None)
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _orbit(args, space, mapping, x0):
    return solver.picard_iterate(space, mapping, x0, max_iter=args.max_iter, tol=args.tol)


def _cmd_validate(args, space, phi):
    space_report = validate_semimetric(space)
    phi_report = trifun.check_axioms(phi)
    if isinstance(space, FiniteSemimetricSpace):
        triangle, minimal_b = triple_pass(space, phi, MAX_LISTED_VIOLATIONS)
    else:  # undefined on intervals, as on a single point
        triangle, minimal_b = triangle_report(space, phi, listed=MAX_LISTED_VIOLATIONS), None
    payload = {
        "space": space_report.to_json(),
        "phi_axioms": phi_report.to_json(),
        "triangle": triangle.to_json(),
        "minimal_b": _json_float(minimal_b),
    }
    ok = space_report.passed and phi_report.passed and triangle.count == 0
    return CommandResult("validate", "ok" if ok else "violation", payload), None


def _cmd_classify(args, space, mapping, phi, kind):
    certificate = verify_contraction(space, mapping, kind, listed=MAX_LISTED_VIOLATIONS)
    record = applicability(kind, phi)
    factor = step_contraction_factor(kind, phi)
    payload = {
        "certificate": certificate.to_json(),
        "applicability": record.to_json(),
        "step_factor": factor.to_json(),
    }
    if not certificate.passed:
        status = "violation"
    elif not record.applicable:
        status = "not-applicable"
    else:
        status = "ok"
    return CommandResult("classify", status, payload), None


def _cmd_iterate(args, space, mapping, x0):
    trace = _orbit(args, space, mapping, x0)
    status = "ok" if trace.stop_reason == "converged" else "violation"
    csv_text = trace.to_csv() if args.format == "csv" else None
    return CommandResult("iterate", status, trace.to_json()), csv_text


def _cmd_bounds(args, space, mapping, phi, kind, x0):
    factor = step_contraction_factor(kind, phi)
    if not factor.derivable:
        payload = {"reason": factor.reason, "step_factor": factor.to_json()}
        return CommandResult("bounds", "not-applicable", payload), None
    trace = _orbit(args, space, mapping, x0)
    if isinstance(space, FiniteSemimetricSpace):
        fixed = solver.brute_force_fixed_points(space, mapping)
        if len(fixed) != 1:
            payload = {
                "reason": f"oracle found {len(fixed)} fixed points; bound needs exactly one",
                "fixed_points": [space.labels[i] for i in fixed],
            }
            return CommandResult("bounds", "not-applicable", payload), None
        target = fixed[0]
    else:
        if trace.stop_reason != "converged":
            payload = {
                "reason": f"orbit stopped with {trace.stop_reason}; no limit to audit against",
            }
            return CommandResult("bounds", "not-applicable", payload), None
        target = trace.points[-1]
    try:
        report = solver.verify_bound(trace, phi, factor.value, target)
    except solver.BoundUnavailable as exc:
        return CommandResult("bounds", "not-applicable", {"reason": str(exc)}), None
    payload = report.to_json()
    payload["stop_reason"] = trace.stop_reason
    status = "ok" if report.passed else "violation"
    csv_text = report.to_csv() if args.format == "csv" else None
    return CommandResult("bounds", status, payload), csv_text


def _cmd_search(args, phi, kind, budget):
    config = SearchConfig(phi=phi, kind=kind, budget=budget, seed=_resolve_seed(args))
    result = counterexample_search(config)
    return CommandResult("search", "ok", result.to_json()), None


@dataclasses.dataclass(frozen=True)
class _Command:
    help: str
    inputs: tuple[str, ...]  # required flags, read in this order and passed to the handler
    handler: Callable[..., tuple[CommandResult, str | None]]
    csv: bool = False  # --format csv is allowed


_COMMANDS = {
    "validate": _Command("check space axioms and the triangle condition for phi",
                         ("space", "phi"), _cmd_validate),
    "classify": _Command("verify a contraction inequality and the matching principle",
                         ("space", "map", "phi", "kind"), _cmd_classify),
    "iterate": _Command("run Picard iteration and report the trace",
                        ("space", "map", "x0"), _cmd_iterate, csv=True),
    "bounds": _Command("audit the a-priori error bound along an orbit",
                       ("space", "map", "phi", "kind", "x0"), _cmd_bounds, csv=True),
    "search": _Command("seeded randomized search for boundary instances",
                       ("phi", "kind", "budget"), _cmd_search),
}


# built on the first call, not at import, and reused: it never changes
_shared_parser = functools.cache(build_parser)


def _run(args) -> tuple[CommandResult, str | None]:
    command = _COMMANDS[args.command]
    if args.format == "csv" and not command.csv:
        tabular = " and ".join(name for name, c in _COMMANDS.items() if c.csv)
        raise ValueError(f"--format csv is only available for {tabular}")
    missing = [f"--{name}" for name in command.inputs if getattr(args, name) is None]
    if missing:
        raise ValueError(f"{args.command} requires {', '.join(missing)}")
    read = {}
    for name in command.inputs:
        read[name] = _INPUTS[name](getattr(args, name), read)
    return command.handler(args, *read.values())


def _execute(argv) -> tuple[CommandResult, str | None]:
    """The result envelope, and the text `main` prints in its place (CSV
    tables and help), if any."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        return _run(_shared_parser().parse_args(argv))
    except _HelpRequested as request:
        text = request.args[0]
        return CommandResult(command, "ok", {"help": text}), text.rstrip("\n")
    except (ValueError, RuntimeError, OSError) as exc:
        payload = {"error": f"{type(exc).__name__}: {exc}"}
        return CommandResult(command, "error", payload), None


def run_command(argv) -> CommandResult:
    """Parse argv and run the named command, returning the result envelope."""
    return _execute(argv)[0]


def main(argv=None) -> int:
    result, text = _execute(argv)
    if result.status == "error":
        print(json.dumps(result.to_json(), indent=2, sort_keys=True), file=sys.stderr)
    elif text is not None:
        print(text)
    else:
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    return EXIT_CODES[result.status]


if __name__ == "__main__":
    sys.exit(main())
