"""The input boundary: the `from_json` readers against the JSON Schemas in
`schemas.py`, the command line driven with generated argv, and the public
names the package exports."""

import contextlib
import copy
import io
import json
import math
import types
import warnings

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import contraction_lab
from contraction_lab import cli
from contraction_lab.cli import EXIT_CODES, main, run_command
from contraction_lab.contraction import TAG_CONSTANTS, ContractionKind, SelfMap
from contraction_lab.expressions import parse_expression
from contraction_lab.schemas import KIND_SCHEMA, MAP_SCHEMA, PHI_SCHEMA, RESULT_SCHEMA, SPACE_SCHEMA
from contraction_lab.space import IntervalSpace, StructuralError, space_from_json
from contraction_lab.trifun import TriangleFunctionSpec

from helpers import expression_trees, unparse

NUMBERS = st.one_of(st.integers(-3, 10**6), st.floats(allow_nan=True, allow_infinity=True))
SMALL = st.one_of(st.integers(-1, 3), st.floats(-0.5, 3.0))
# what a mutation puts in place of a field or an entry
ODD = st.one_of(st.booleans(), st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2),
                NUMBERS)
FIELD_NAMES = ("foo", "kind", "K", "q", "expr", "tag", "alpha", "beta", "delta",
               "labels", "dist", "lo", "hi", "images")
# custom triangle functions and interval maps from generated expression trees
PHI_TREES = expression_trees(("u", "v")).map(lambda tree: {"kind": "custom",
                                                          "expr": unparse(tree)})
MAP_TREES = expression_trees(("x",)).map(unparse)


def _fits_unit_interval(expr: str) -> bool:
    try:
        SelfMap(expr=expr).validate_for(IntervalSpace(0.0, 1.0))
    except StructuralError:
        return False
    return True


# clamped into [0, 1]; a map that gives NaN somewhere still leaves it
FITTING_MAP_TREES = MAP_TREES.map(lambda expr: f"min(max({expr}, 0), 1)").filter(
    _fits_unit_interval)

PHI_DOCS = st.one_of(
    st.just({"kind": "additive"}),
    st.just({"kind": "max"}),
    st.builds(lambda K: {"kind": "bscaled", "K": K}, SMALL),
    st.builds(lambda q: {"kind": "power", "q": q}, SMALL),
    st.builds(lambda expr: {"kind": "custom", "expr": expr},
              st.sampled_from(["u+v", "max(u,v)", "(sqrt(u)+sqrt(v))^2", "u+", "x+y", ""])),
    PHI_TREES,
)
KIND_DOCS = st.sampled_from(sorted(TAG_CONSTANTS.items())).flatmap(
    lambda item: st.fixed_dictionaries({"tag": st.just(item[0]),
                                        **{name: SMALL for name in item[1]}}))
MAP_DOCS = st.one_of(
    st.fixed_dictionaries({"images": st.lists(st.one_of(st.integers(-1, 3), st.just(1.0)),
                                              max_size=4)}),
    st.fixed_dictionaries({"expr": st.one_of(
        st.sampled_from(["x/2", "0.5", "1-x", "x*x", "5", "y", "x+"]), MAP_TREES)}),
)
FINITE_DOCS = st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries({
    "labels": st.one_of(st.just(list("abc"[:n])),
                        st.lists(st.sampled_from("abc"), min_size=n, max_size=n)),
    "dist": st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=n, max_size=n),
}))
INTERVAL_DOCS = st.fixed_dictionaries(
    {"lo": st.one_of(st.just(0), SMALL), "hi": st.one_of(st.just(1), SMALL)},
    optional={"dist": st.sampled_from(["abs(x-y)", "(x-y)^2", "abs(x-y)/x", "u", "0.5"])},
)
SPACE_DOCS = st.one_of(FINITE_DOCS, INTERVAL_DOCS)


@st.composite
def mutated(draw, docs):
    """A document from `docs` after up to two mutations: a field dropped,
    added, set to null or swapped for a bool, string, list or number, an
    entry of a list field (or of one of its rows) swapped, or the whole
    document swapped."""
    doc = copy.deepcopy(draw(docs))
    for _ in range(max(0, draw(st.integers(0, 5)) - 3)):
        if not isinstance(doc, dict):
            break
        op = draw(st.sampled_from(("drop", "add", "null", "swap", "entry", "whole")))
        if op == "add":
            doc[draw(st.sampled_from(FIELD_NAMES))] = draw(st.one_of(ODD, st.none()))
        elif op == "whole":
            doc = draw(ODD)
        elif doc:
            key = draw(st.sampled_from(sorted(doc)))
            if op == "drop":
                del doc[key]
            elif op == "null":
                doc[key] = None
            elif op == "swap":
                doc[key] = draw(ODD)
            elif isinstance(doc[key], list) and doc[key]:
                target = doc[key]
                index = draw(st.integers(0, len(target) - 1))
                if isinstance(target[index], list) and target[index] and draw(st.booleans()):
                    target = target[index]
                    index = draw(st.integers(0, len(target) - 1))
                target[index] = draw(ODD)
    return doc


def _non_finite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, list):
        return any(map(_non_finite, value))
    return isinstance(value, dict) and any(map(_non_finite, value.values()))


def _unparseable(doc) -> bool:
    """Whether the expression the document holds, if any, fails to parse in
    the variables it may read."""
    if doc.get("kind") == "custom":
        text, allowed = doc["expr"], ("u", "v")
    elif "lo" in doc:
        text, allowed = doc.get("dist", "abs(x-y)"), ("x", "y")
    elif "expr" in doc and "kind" not in doc:
        text, allowed = doc["expr"], ("x",)
    else:
        return False
    try:
        parse_expression(text, allowed=allowed)
    except ValueError:
        return True
    return False


def _not_square(doc) -> bool:
    n = len(doc["labels"])
    return len(doc["dist"]) != n or any(len(row) != n for row in doc["dist"])


# The rules a reader applies that no schema states, each on a document the
# schema accepts.
SEMANTIC_RULES = {
    "finite numbers": lambda doc: _non_finite(doc),
    "distinct labels": lambda doc: "labels" in doc and len(set(doc["labels"])) < len(doc["labels"]),
    "a square matrix": lambda doc: "labels" in doc and _not_square(doc),
    "lo < hi": lambda doc: "lo" in doc and not doc["lo"] < doc["hi"],
    "a parseable expression": _unparseable,
}

DRIFT = {
    "phi": (PHI_SCHEMA, TriangleFunctionSpec.from_json, PHI_DOCS),
    "space": (SPACE_SCHEMA, space_from_json, SPACE_DOCS),
    "map": (MAP_SCHEMA, SelfMap.from_json, MAP_DOCS),
    "kind": (KIND_SCHEMA, ContractionKind.from_json, KIND_DOCS),
}


@pytest.mark.parametrize("name", DRIFT)
def test_readers_reject_exactly_what_the_schemas_reject(name):
    schema, reader, docs = DRIFT[name]
    validator = jsonschema.Draft202012Validator(schema)

    @settings(max_examples=300, deadline=None, database=None)
    @given(mutated(docs))
    def check(doc):
        try:
            reader(copy.deepcopy(doc))
            read = True
        except ValueError:
            read = False
        accepted = validator.is_valid(doc)
        broken = [rule for rule, test in SEMANTIC_RULES.items() if accepted and test(doc)]
        assert read == (accepted and not broken), (doc, accepted, broken)

    check()


def _write(path, doc) -> str:
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


# command -> the flags it requires
COMMANDS = {name: tuple(f"--{flag}" for flag in command.inputs)
            for name, command in cli._COMMANDS.items()}


@st.composite
def fitting_documents(draw):
    """A space document and a self-map document that fits it: a symmetric
    matrix with an image table, or [0, 1] with an expression."""
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        upper = draw(st.lists(st.floats(0.1, 3.0), min_size=n * n, max_size=n * n))
        dist = [[0.0 if i == j else upper[min(i, j) * n + max(i, j)] for j in range(n)]
                for i in range(n)]
        images = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        return {"labels": [f"p{i}" for i in range(n)], "dist": dist}, {"images": images}
    dist = draw(st.sampled_from(["abs(x-y)", "(x-y)^2", "abs(x-y)/x", "1/abs(x-y)"]))
    expr = draw(st.one_of(st.sampled_from(["x/2", "0.5", "1-x", "x*x", "sqrt(x)", "x/2+0.25"]),
                          FITTING_MAP_TREES))
    return {"lo": 0, "hi": 1, "dist": dist}, {"expr": expr}


# the extreme parameters put C(alpha) and the profile inverse at the edge
# of the float64 range
FUZZ_PHIS = st.one_of(st.sampled_from([
    {"kind": "additive"}, {"kind": "max"}, {"kind": "bscaled", "K": 2},
    {"kind": "power", "q": 0.5}, {"kind": "custom", "expr": "u+v"},
    {"kind": "custom", "expr": "1/(u*v)"}, {"kind": "custom", "expr": "u/v"},
    {"kind": "power", "q": 1e-300}, {"kind": "power", "q": 1e-15},
    {"kind": "power", "q": 1e300}, {"kind": "bscaled", "K": 1e308}]), PHI_TREES)
FUZZ_KINDS = st.sampled_from(sorted(TAG_CONSTANTS.items())).flatmap(
    lambda item: st.fixed_dictionaries({"tag": st.just(item[0]),
                                        **{name: st.sampled_from([0, 0.3, 0.6, 0.999, 1.2])
                                           for name in item[1]}}))


@st.composite
def argvs(draw, folder):
    """An argv of a known or unknown command: mostly with the flags it
    requires, each other flag at odds of one in four, and mostly valid
    values.  One document in three is mutated, and an eighth of the
    values are invalid; iteration limits and budgets stay tiny."""
    command = draw(st.sampled_from([*COMMANDS, "frobnicate", *COMMANDS, *COMMANDS]))
    argv = [command]

    def wants(flag):
        return draw(st.integers(0, 7)) != 3 if flag in COMMANDS.get(command, ()) else \
            draw(st.integers(0, 3)) == 1

    def rarely():
        return draw(st.integers(0, 7)) == 3

    space, mapping = draw(fitting_documents())
    starts = ["p0", "1"] if "labels" in space else ["0", "0.5", "1"]
    if wants("--space"):
        space = draw(st.sampled_from(["{", "[1]", ""]) if rarely() else mutated(st.just(space)))
        argv += ["--space", _write(folder / "space.json", space)]
    if wants("--map"):
        doc = json.dumps(draw(mutated(st.just(mapping))))
        argv += ["--map", _write(folder / "map.json", doc) if draw(st.booleans()) else doc]
    for flag, docs in (("--phi", FUZZ_PHIS), ("--kind", FUZZ_KINDS)):
        if wants(flag):
            argv += [flag, "nope" if rarely() else json.dumps(draw(mutated(docs)))]
    # flag -> (valid values, invalid ones)
    for flag, (valid, invalid) in {
        "--x0": (starts, ["-1", "7", "x"]),
        "--max-iter": (["40", "1", "5"], ["0", "many"]),
        "--tol": (["1e-10", "0.1", "1e400"], ["0", "-1", "nan"]),
        "--seed": (["0", "3"], ["x", "-4"]),
        "--budget": (["2", "1", "3"], ["0", "-2"]),
        "--format": (["json", "csv"], ["xml"]),
    }.items():
        # orbits always get a small cap: the default runs 100000 steps
        if wants(flag) or flag == "--max-iter":
            argv += [flag, draw(st.sampled_from(invalid if rarely() else valid))]
    return argv


def _answer(argv):
    """The envelope run_command gives for argv, checked against main's exit
    code and output, with every RuntimeWarning an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        envelope = run_command(argv).to_json()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    jsonschema.validate(envelope, RESULT_SCHEMA)
    assert code == EXIT_CODES[envelope["status"]], (argv, envelope)
    if envelope["status"] == "error":
        assert out.getvalue() == "" and json.loads(err.getvalue()) == envelope, argv
    return envelope


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_answers_every_argv_with_an_envelope(tmp_path, monkeypatch, data):
    monkeypatch.delenv("CONTRACTION_LAB_SEED", raising=False)
    _answer(data.draw(argvs(tmp_path)))


TINY_POWERS = ({"kind": "power", "q": 1e-300}, {"kind": "power", "q": 1e-15})
FITTING = ({"labels": ["p0", "p1"], "dist": [[0.0, 1.0], [1.0, 0.0]]}, {"images": [0, 0]})


# Every argv here is complete and every document reads and fits, so every
# example gets past the input boundary to the numbers of its triangle
# function: the chain constant, the unit-profile inverse and the hypotheses.
@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["classify", "bounds", "search"]), phi=FUZZ_PHIS,
       kind=FUZZ_KINDS, documents=fitting_documents(), start=st.integers(0, 2),
       budget=st.sampled_from(["1", "2", "3"]), seed=st.sampled_from(["0", "3"]))
@example(command="classify", phi=TINY_POWERS[0], kind={"tag": "partial", "alpha": 0.3,
                                                       "beta": 0.3},
         documents=FITTING, start=0, budget="1", seed="0")
@example(command="bounds", phi=TINY_POWERS[1], kind={"tag": "weak_dual", "alpha": 0.6,
                                                     "delta": 0.0},
         documents=FITTING, start=1, budget="1", seed="0")
def test_valid_argvs_reach_the_numbers_of_their_phi(tmp_path, monkeypatch, command, phi, kind,
                                                    documents, start, budget, seed):
    monkeypatch.delenv("CONTRACTION_LAB_SEED", raising=False)
    space, mapping = documents
    argv = [command, "--phi", json.dumps(phi), "--kind", json.dumps(kind)]
    if command == "search":
        argv += ["--budget", budget, "--seed", seed]
    else:
        starts = ["p0", "1"] if "labels" in space else ["0", "0.5", "1"]
        argv += ["--space", _write(tmp_path / "space.json", space), "--map", json.dumps(mapping)]
        if command == "bounds":
            argv += ["--x0", starts[start % len(starts)], "--max-iter", "40"]
    envelope = _answer(argv)
    assert envelope["status"] != "error", (argv, envelope)


def test_all_names_exactly_the_public_names_the_package_binds():
    """`__init__.py` states the public API twice, in its imports and in
    `__all__`; they agree: every name it binds but modules and `_` names."""
    bound = {name for name, value in vars(contraction_lab).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(contraction_lab.__all__) == sorted(bound)
    assert len(set(contraction_lab.__all__)) == len(contraction_lab.__all__)
