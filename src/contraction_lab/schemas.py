"""JSON Schemas for the documents the command line reads and writes.

They describe the `to_json`/`from_json` pairs on the core types, so that
other tooling can validate payloads with a JSON Schema validator.  The
program itself reads its inputs with the `from_json` readers, which are the
source of truth; a drift test (`tests/test_boundary.py`) holds each input
schema to its reader, which rejects a document exactly when the schema does
or when it breaks a rule no schema states (finite numbers, distinct labels,
a square matrix, lo < hi, a parseable expression).  Importing this module
runs the package `__init__` (numpy included); the families come from the
tables in `trifun` and `contraction`, and the commands from the CLI's.
"""

from __future__ import annotations

from .cli import _COMMANDS
from .contraction import TAG_CONSTANTS
from .trifun import _KINDS

_NUMBER = {"type": "number"}
_STRING = {"type": "string"}
_CONSTANT = {"type": "number", "minimum": 0}
# the parameters of the triangle-function and contraction families
_PARAMS = {"K": {"type": "number", "minimum": 1}, "q": {"type": "number", "exclusiveMinimum": 0},
           "expr": _STRING, "alpha": _CONSTANT, "beta": _CONSTANT, "delta": _CONSTANT}


def _families(tag: str, params: dict) -> list:
    """One branch per family in `params` (name -> its parameters): `tag`
    names the family, and its parameters are required and no other field
    is allowed."""
    return [{"properties": {tag: {"const": name}, **{p: _PARAMS[p] for p in names}},
             "required": [tag, *names], "additionalProperties": False}
            for name, names in params.items()]


PHI_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "Triangle function",
    "type": "object",
    "oneOf": _families("kind", {kind: [row.param] if row.param else []
                                for kind, row in _KINDS.items()}),
}

FINITE_SPACE_SCHEMA = {
    "type": "object",
    "properties": {
        "labels": {"type": "array", "items": _STRING, "minItems": 1},
        "dist": {"type": "array", "items": {"type": "array", "items": _NUMBER}},
    },
    "required": ["labels", "dist"],
    "additionalProperties": False,
}

INTERVAL_SPACE_SCHEMA = {
    "type": "object",
    "properties": {"lo": _NUMBER, "hi": _NUMBER, "dist": _STRING},
    "required": ["lo", "hi"],
    "additionalProperties": False,
}

SPACE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "Semimetric space",
    "oneOf": [FINITE_SPACE_SCHEMA, INTERVAL_SPACE_SCHEMA],
}

MAP_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "Self map",
    "type": "object",
    "oneOf": [
        {
            "properties": {"images": {"type": "array", "items": {"type": "integer"}}},
            "required": ["images"],
            "additionalProperties": False,
        },
        {
            "properties": {"expr": _STRING},
            "required": ["expr"],
            "additionalProperties": False,
        },
    ],
}

KIND_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "Contraction kind",
    "type": "object",
    "oneOf": _families("tag", TAG_CONSTANTS),
}

RESULT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "Command result envelope",
    "type": "object",
    "properties": {
        # null in the error envelope of an argv that names no command
        "command": {"enum": [*_COMMANDS, None]},
        "status": {"enum": ["ok", "violation", "not-applicable", "error"]},
        "payload": {"type": "object"},
    },
    "required": ["command", "status", "payload"],
    "additionalProperties": False,
}

ALL_SCHEMAS = {
    "phi": PHI_SCHEMA,
    "space": SPACE_SCHEMA,
    "map": MAP_SCHEMA,
    "kind": KIND_SCHEMA,
    "result": RESULT_SCHEMA,
}
