"""Command line front end.

Commands: validate, classify, iterate, bounds, search.  Inputs are JSON
(space from a file, map inline or from a file, phi/kind inline); reports are
JSON envelopes {command, status, payload} on stdout with deterministic key
order, CSV tables for iterate/bounds with --format csv, or help text with
-h.  Exit codes: 0 ok (help included), 1 violation or not-applicable, 2
operational error, usage errors included.

Setting CONTRACTION_LAB_SEED in the environment overrides --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

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
    minimal_b_constant,
    space_from_json,
    triangle_report,
    validate_semimetric,
)
from .trifun import TriangleFunctionSpec, _json_float

ENV_SEED = "CONTRACTION_LAB_SEED"
EXIT_CODES = {"ok": 0, "violation": 1, "not-applicable": 1, "error": 2}
MAX_LISTED_VIOLATIONS = 5


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


def _parse_int(text: str) -> int:
    """A JSON integer literal, refused when no float64 can hold it: every
    number read is used as a float."""
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"a {len(text.lstrip('-'))}-digit integer lies beyond the float64 range")
    return value


def _inline_json(text: str, flag: str) -> dict:
    try:
        obj = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{flag} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{flag} must be a JSON object")
    return obj


def _load_space(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        obj = json.load(handle, parse_int=_parse_int)
    if not isinstance(obj, dict):
        raise ValueError("space file must hold a JSON object")
    return space_from_json(obj)


def _load_map(text: str) -> SelfMap:
    if text.lstrip().startswith("{"):
        obj = _inline_json(text, "--map")
    else:
        with open(text, "r", encoding="utf-8") as handle:
            obj = json.load(handle, parse_int=_parse_int)
        if not isinstance(obj, dict):
            raise ValueError("map file must hold a JSON object")
    return SelfMap.from_json(obj)


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
    for name, blurb in (
        ("validate", "check space axioms and the triangle condition for phi"),
        ("classify", "verify a contraction inequality and the matching principle"),
        ("iterate", "run Picard iteration and report the trace"),
        ("bounds", "audit the a-priori error bound along an orbit"),
        ("search", "seeded randomized search for boundary instances"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--space", metavar="FILE", help="space JSON file")
        cmd.add_argument("--map", metavar="JSON|FILE", help="self-map JSON or file")
        cmd.add_argument("--phi", metavar="JSON", help="triangle function JSON")
        cmd.add_argument("--kind", metavar="JSON", help="contraction kind JSON")
        cmd.add_argument("--x0", metavar="VALUE", help="start point (label, index, or number)")
        cmd.add_argument("--max-iter", type=int, metavar="N", default=None)
        cmd.add_argument("--tol", type=float, metavar="T", default=None)
        cmd.add_argument("--seed", type=int, metavar="S", default=None)
        cmd.add_argument("--budget", type=int, metavar="N", default=None)
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _require(args, names):
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(f"{args.command} requires {', '.join(missing)}")


def _orbit(args, space, mapping, x0):
    return solver.picard_iterate(
        space, mapping, x0,
        max_iter=args.max_iter if args.max_iter is not None else solver.MAX_ITER_DEFAULT,
        tol=args.tol if args.tol is not None else solver.STEP_TOL_DEFAULT,
    )


def _cmd_validate(args):
    _require(args, ("space", "phi"))
    space = _load_space(args.space)
    phi = TriangleFunctionSpec.from_json(_inline_json(args.phi, "--phi"))
    space_report = validate_semimetric(space)
    phi_report = trifun.check_axioms(phi)
    triangle = triangle_report(space, phi, listed=MAX_LISTED_VIOLATIONS)
    payload = {
        "space": space_report.to_json(),
        "phi_axioms": phi_report.to_json(),
        "triangle": triangle.to_json(),
        "minimal_b": _json_float(minimal_b_constant(space))
        if isinstance(space, FiniteSemimetricSpace)
        else None,
    }
    ok = space_report.passed and phi_report.passed and triangle.count == 0
    return CommandResult("validate", "ok" if ok else "violation", payload), None


def _cmd_classify(args):
    _require(args, ("space", "map", "phi", "kind"))
    space = _load_space(args.space)
    mapping = _load_map(args.map)
    mapping.validate_for(space)
    phi = TriangleFunctionSpec.from_json(_inline_json(args.phi, "--phi"))
    kind = ContractionKind.from_json(_inline_json(args.kind, "--kind"))
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


def _cmd_iterate(args):
    _require(args, ("space", "map", "x0"))
    space = _load_space(args.space)
    mapping = _load_map(args.map)
    x0 = _parse_x0(space, args.x0)
    trace = _orbit(args, space, mapping, x0)
    status = "ok" if trace.stop_reason == "converged" else "violation"
    csv_text = trace.to_csv() if args.format == "csv" else None
    return CommandResult("iterate", status, trace.to_json()), csv_text


def _cmd_bounds(args):
    _require(args, ("space", "map", "phi", "kind", "x0"))
    space = _load_space(args.space)
    mapping = _load_map(args.map)
    phi = TriangleFunctionSpec.from_json(_inline_json(args.phi, "--phi"))
    kind = ContractionKind.from_json(_inline_json(args.kind, "--kind"))
    x0 = _parse_x0(space, args.x0)
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


def _cmd_search(args):
    _require(args, ("phi", "kind", "budget"))
    phi = TriangleFunctionSpec.from_json(_inline_json(args.phi, "--phi"))
    kind = ContractionKind.from_json(_inline_json(args.kind, "--kind"))
    config = SearchConfig(phi=phi, kind=kind, budget=args.budget, seed=_resolve_seed(args))
    result = counterexample_search(config)
    return CommandResult("search", "ok", result.to_json()), None


_HANDLERS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "iterate": _cmd_iterate,
    "bounds": _cmd_bounds,
    "search": _cmd_search,
}


# built on the first call, not at import, and reused: it never changes
_shared_parser = functools.cache(build_parser)


def _execute(argv) -> tuple[CommandResult, str | None]:
    """The result envelope, and the text `main` prints in its place (CSV
    tables and help), if any."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _HANDLERS else None
    try:
        args = _shared_parser().parse_args(argv)
        if args.format == "csv" and args.command not in ("iterate", "bounds"):
            raise ValueError("--format csv is only available for iterate and bounds")
        return _HANDLERS[args.command](args)
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
