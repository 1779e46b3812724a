"""JSON Schemas for the documents the command line reads and writes.

These mirror the `to_json`/`from_json` pairs on the core types, so that
other tooling can validate payloads with a JSON Schema validator.  Importing
this module runs the package `__init__` (numpy included); the contraction
tags come from `contraction.TAGS`.
"""

from __future__ import annotations

from .contraction import TAGS

_NUMBER = {"type": "number"}

PHI_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "Triangle function",
    "type": "object",
    "oneOf": [
        {
            "properties": {"kind": {"const": "additive"}},
            "required": ["kind"],
            "additionalProperties": False,
        },
        {
            "properties": {"kind": {"const": "max"}},
            "required": ["kind"],
            "additionalProperties": False,
        },
        {
            "properties": {"kind": {"const": "bscaled"}, "K": {"type": "number", "minimum": 1}},
            "required": ["kind", "K"],
            "additionalProperties": False,
        },
        {
            "properties": {"kind": {"const": "power"}, "q": {"type": "number", "exclusiveMinimum": 0}},
            "required": ["kind", "q"],
            "additionalProperties": False,
        },
        {
            "properties": {"kind": {"const": "custom"}, "expr": {"type": "string"}},
            "required": ["kind", "expr"],
            "additionalProperties": False,
        },
    ],
}

FINITE_SPACE_SCHEMA = {
    "type": "object",
    "properties": {
        "labels": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "dist": {"type": "array", "items": {"type": "array", "items": _NUMBER}},
    },
    "required": ["labels", "dist"],
    "additionalProperties": False,
}

INTERVAL_SPACE_SCHEMA = {
    "type": "object",
    "properties": {
        "lo": _NUMBER,
        "hi": _NUMBER,
        "dist": {"type": "string"},
    },
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
            "properties": {"expr": {"type": "string"}},
            "required": ["expr"],
            "additionalProperties": False,
        },
    ],
}

KIND_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "Contraction kind",
    "type": "object",
    "properties": {
        "tag": {"enum": list(TAGS)},
        "alpha": {"type": "number", "minimum": 0},
        "beta": {"type": "number", "minimum": 0},
        "delta": {"type": "number", "minimum": 0},
    },
    "required": ["tag"],
    "additionalProperties": False,
}

RESULT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "Command result envelope",
    "type": "object",
    "properties": {
        "command": {"enum": ["validate", "classify", "iterate", "bounds", "search"]},
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
