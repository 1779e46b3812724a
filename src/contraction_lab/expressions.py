"""Parsing and evaluation of the small arithmetic language used for custom
triangle functions, distance formulas and interval self-maps.

Grammar, parsed by precedence climbing:

    expr  := unary (binop unary)*
    unary := "-" unary | atom
    atom  := number | ident | ident "(" expr ("," expr)* ")" | "(" expr ")"

where binop is + - (loosest), * / or ^ (tightest); + - * / fold left and
'^' groups right, with a unary base ("-x^2" is (-x)^2).
Numbers are decimal with an optional exponent.  Identifiers are limited to
the variables x, y, u, v and the functions abs, min, max, sqrt.  Only
nesting counts toward MAX_NESTING: parentheses, function arguments, unary
minus and '^' together may go that many levels deep, and a deeper level is
a syntax error at its token.  A chain of + - * / of any length parses, in
a loop.  The parser writes straight-line Python as it reduces: numbers are
np.float64, + - * Python operators, and / ^ abs sqrt min max the numpy
ufuncs.  The numbers are parameters of a generated factory, never text,
which is compiled once per operator skeleton (`_skeleton`), so expressions
that differ only in their numbers share compiled code.  Calling an
Expression converts each keyword binding to C-ordered float64 and
evaluates in double precision throughout.  Replies echo an expression's
source text; no tree is built.
Division by zero and fractional powers of negatives produce inf/nan rather
than raising; callers that need finite non-negative values check the result.

The value has the shape of the bindings: arrays pass through element-wise,
so an expression applies to whole sample batches at once, and the value has
the broadcast shape of all bindings even where the expression does not read
one of them ("1" or "x" bound to arrays x and y).  When every binding is a
scalar the value is a Python float.  A scalar call gives the bits an array
call gives at the same point.

A self-map, parsed with the variable x alone, also gets a second generated
function, walk(x, n, lo, hi, low, high, chunk): the loop of an interval
orbit's chunk (see solver), which runs up to n Picard steps on Python
floats, clamps a value outside [lo, hi] but within [low, high] onto it,
appends each iterate to chunk and returns the first value beyond [low,
high], or None.  Its operations give the bits of the keyword call at 0-d
bindings: + - *, unary minus and abs are Python's float operations, which
round as numpy's do; / is Python's unless the divisor is zero and sqrt is
math.sqrt unless its operand is negative or NaN, where Python would raise,
and numpy's there; '^', min and max stay the numpy ufuncs, since libm's
pow and numpy's AVX-512 power loop differ in the last bit, and Python's
min and max drop a NaN.  Each numpy value is made a float where it is
computed, so every local is a float.  The constants enter as float
copies, by one tuple unpack per call.  Unlike the keyword call, which
enters np.errstate on every call, the walk runs under its caller's error
state.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

VARIABLES = ("x", "y", "u", "v")

# function name -> (min arity, max arity or None for unbounded)
FUNCTIONS = {"abs": (1, 1), "sqrt": (1, 1), "min": (2, None), "max": (2, None)}

# Levels of parentheses, function arguments, unary minus and '^', counted
# together.  The parser recurses at each level, up to five frames a level
# for function arguments (call, nested, binary, unary, atom), so this many
# stay well inside Python's default recursion limit of 1,000 frames, also
# under a test runner's own frames.
MAX_NESTING = 100


class ExpressionError(ValueError):
    """Base class for problems with expression text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ExpressionSyntaxError(ExpressionError):
    """Malformed expression text."""


class UnknownIdentifierError(ExpressionError):
    """Identifier outside the allowed variables and functions."""


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExpressionSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = str(match.lastgroup)
        tokens.append(Token(kind, match.group(), match.start()))
        pos = match.end()
    tokens.append(Token("end", "", n))
    return tokens


# binary operator -> (precedence, least precedence of its right operand, code):
# + - * / fold left; '^' groups right, so its right operand is a nesting level
_BINARY = {"+": (1, 2, "{} + {}"), "-": (1, 2, "{} - {}"), "*": (2, 3, "{} * {}"),
           "/": (2, 3, "_divide({}, {})"), "^": (3, 3, "_pow({}, {})")}
_FUNCS = {"abs": "_abs", "sqrt": "_sqrt", "min": "_minimum", "max": "_maximum"}
# operation -> its code in the walk on Python floats, where it differs: the
# float operation where it gives the bits of the keyword call at 0-d
# bindings, else numpy's value made a float: where Python raises (a zero
# divisor, the root of a negative or NaN), where libm rounds differently
# ('^') and where Python's builtins drop NaN (min, max)
_WALK = {"/": "{0} / {1} if {1} else float(_divide({0}, {1}))",
         "^": "float(_pow({}, {}))", "_power": "float(_power({}, {}))", "abs": "abs({})",
         "sqrt": "_fsqrt({0}) if {0} >= 0.0 else float(_sqrt({0}))",
         "min": "float(_minimum({}, {}))", "max": "float(_maximum({}, {}))"}

# What a parse step returns: its text in the generated code and whether it
# reads a variable.
_Step = tuple[str, bool]


class _Parser:
    """Precedence climbing that writes the generated code as it reduces:
    constants, statements (one local per operation) and each variable's
    first read are appended depth first, left operand first, the order a
    tree walk evaluates in, so a missing variable is named in that order.
    Chains of + - * / are folded in a loop; only nesting recurses."""

    def __init__(self, tokens: list[Token], allowed_vars: frozenset[str]):
        self.tokens = tokens
        self.index = 0
        self.allowed_vars = allowed_vars
        self.depth = 0
        self.constants: list = []
        self.body: list[str] = []  # the statements of call(env)
        self.walk: list[str] = []  # the same statements on Python floats
        self.read: list[str] = []

    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, text: str) -> Token:
        token = self.peek()
        if token.kind != "op" or token.text != text:
            raise ExpressionSyntaxError(f"expected {text!r}", token.pos)
        return self.advance()

    def nested(self, token: Token, parse: Callable[..., _Step], *args) -> _Step:
        """parse(*args) one nesting level below `token`, which is named when
        the levels pass MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ExpressionSyntaxError("expression nests too deeply", token.pos)
        self.depth += 1
        step = parse(*args)
        self.depth -= 1
        return step

    def assign(self, expression: str, walk: str | None = None) -> str:
        """A new local for `expression`, which the walk computes as `walk`
        when that is given."""
        local = f"t{len(self.body)}"
        self.body.append(f"{local} = {expression}")
        self.walk.append(f"{local} = {expression if walk is None else walk}")
        return local

    def parse(self) -> str:
        """The source of a factory that returns the keyword entry call(env),
        with the walk as its attribute call.walk for a self-map (allowed
        variables exactly x); the factory takes the constants in order as
        c0, c1, ..."""
        result, _ = self.binary()
        tail = self.peek()
        if tail.kind != "end":
            raise ExpressionSyntaxError(f"unexpected {tail.text!r}", tail.pos)
        params = ", ".join(f"c{k}" for k in range(len(self.constants)))
        body = "".join(f"        {line}\n" for line in self.body)
        walk = self.walk_source(params, result) if self.allowed_vars == {"x"} else ""
        return (f"def _factory({params}):\n"
                f"    def call(env):\n{body}        return {result}\n"
                f"{walk}"
                "    return call\n")

    def walk_source(self, params: str, result: str) -> str:
        """The factory lines of walk(x, n, lo, hi, low, high, chunk): up to n
        Picard steps from x on Python floats, each value outside [lo, hi]
        clamped to it when it lies within [low, high], else returned as the
        escape; the iterates are appended to chunk, and None is returned
        when all n steps stay.  The constants enter as float copies, by one
        tuple unpack per call."""
        steps = "".join(f"            {line}\n" for line in self.walk)
        return (f"    floats = tuple(map(float, [{params}]))\n"
                "    def walk(x, n, lo, hi, low, high, chunk):\n"
                f"        [{params}] = floats\n"
                "        append = chunk.append\n"
                "        for _ in range(n):\n"
                f"{steps}"
                f"            x = {result}\n"
                "            if not lo <= x <= hi:\n"
                "                if not low <= x <= high:\n"
                "                    return x\n"
                "                x = lo if x < lo else hi\n"
                "            append(x)\n"
                "        return None\n"
                "    call.walk = walk\n")

    def binary(self, floor: int = 1) -> _Step:
        """A unary operand, then operators of precedence `floor` or above
        with their right operands.  A power whose exponent reads a variable
        goes through _power."""
        text, reads = self.unary()
        while (token := self.peek()).kind == "op" and token.text in _BINARY:
            precedence, right_floor, form = _BINARY[token.text]
            if precedence < floor:
                break
            self.advance()
            right, right_reads = (
                self.nested(token, self.binary, right_floor) if right_floor == precedence
                else self.binary(right_floor))
            op = token.text
            if op == "^" and right_reads:
                op, form = "_power", "_power({}, {})"
            walk = _WALK.get(op, form).format(text, right)
            text, reads = self.assign(form.format(text, right), walk), reads or right_reads
        return text, reads

    def unary(self) -> _Step:
        token = self.peek()
        if token.kind == "op" and token.text == "-":
            text, reads = self.nested(self.advance(), self.unary)
            return self.assign(f"-{text}"), reads
        return self.atom()

    def atom(self) -> _Step:
        token = self.advance()
        if token.kind == "num":
            value = float(token.text)
            if not np.isfinite(value):
                raise ExpressionSyntaxError("numeric literal overflows", token.pos)
            self.constants.append(np.float64(value))
            return f"c{len(self.constants) - 1}", False
        if token.kind == "ident":
            if self.peek().kind == "op" and self.peek().text == "(":
                return self.call(token)
            if token.text in FUNCTIONS:
                raise ExpressionSyntaxError(
                    f"{token.text!r} is a function and needs arguments", token.pos
                )
            if token.text not in VARIABLES:
                raise UnknownIdentifierError(
                    f"unknown identifier {token.text!r}", token.pos
                )
            if token.text not in self.allowed_vars:
                allowed = ", ".join(sorted(self.allowed_vars))
                raise UnknownIdentifierError(
                    f"variable {token.text!r} not allowed here (allowed: {allowed})",
                    token.pos,
                )
            if token.text not in self.read:
                self.read.append(token.text)
                self.body.append(f"v_{token.text} = env[k_{token.text}]")
                self.walk.append(f"v_{token.text} = {token.text}")
            return f"v_{token.text}", True
        if token.kind == "op" and token.text == "(":
            step = self.nested(token, self.binary)
            self.expect_op(")")
            return step
        raise ExpressionSyntaxError("expected a value", token.pos)

    def call(self, name: Token) -> _Step:
        """A function call; n-ary min and max fold left once all their
        arguments are parsed."""
        if name.text not in FUNCTIONS:
            raise UnknownIdentifierError(f"unknown function {name.text!r}", name.pos)
        opening = self.expect_op("(")
        args = [self.nested(opening, self.binary)]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            args.append(self.nested(opening, self.binary))
        self.expect_op(")")
        lo, hi = FUNCTIONS[name.text]
        if len(args) < lo or (hi is not None and len(args) > hi):
            wanted = str(lo) if hi == lo else f"at least {lo}"
            raise ExpressionSyntaxError(
                f"{name.text} expects {wanted} argument(s), got {len(args)}", name.pos
            )
        func, walk = _FUNCS[name.text], _WALK[name.text]
        text = (self.assign(f"{func}({args[0][0]})", walk.format(args[0][0])) if len(args) == 1
                else args[0][0])
        for arg, _ in args[1:]:
            text = self.assign(f"{func}({text}, {arg})", walk.format(text, arg))
        return text, any(reads for _, reads in args)


def _power(base, exponent):
    """base^exponent for an exponent that reads a variable, element by
    element whatever the shapes of the bindings.  numpy's power loop takes
    fast paths (x*x for 2, sqrt for 0.5, 1/x for -1) when one exponent value
    serves the whole call, as for a scalar or a broadcast exponent, and
    these round differently from the general loop, so the exponent is
    materialised at the broadcast shape, with at least one element."""
    shape = np.broadcast_shapes(np.shape(base), np.shape(exponent))
    exponent = np.array(np.broadcast_to(exponent, shape), ndmin=1)
    return np.power(base, exponent).reshape(shape)


# The generated code's whole vocabulary.  It names only these globals, its
# parameters env and x, and the locals c<k> (constants), v_<name>
# (variables) and t<k> (operation results).
_NAMESPACE = {"_divide": np.divide, "_pow": np.power, "_power": _power, "_abs": np.abs,
              "_sqrt": np.sqrt, "_minimum": np.minimum, "_maximum": np.maximum,
              "_fsqrt": math.sqrt, **{f"k_{name}": name for name in VARIABLES}}


@functools.lru_cache(maxsize=256)
def _skeleton(source: str) -> Callable:
    """The factory that the parser's source defines, compiled once per
    operator skeleton.  The source holds only the generated code's
    vocabulary, never an expression's text or numbers."""
    namespace = dict(_NAMESPACE)
    exec(compile(source, "<expression>", "exec"), namespace)
    return namespace["_factory"]


@dataclass(frozen=True)
class Expression:
    """A parsed expression: source text, the variables it reads and its
    generated function, which evaluates it on a dict of float64 bindings;
    no tree is built."""

    source: str
    variables: frozenset[str]
    compiled: Callable[[dict], object] = field(repr=False, compare=False)

    def __call__(self, **env):
        """Evaluate with keyword bindings; see the module docstring for the
        shape of the value."""
        # C order: numpy's power loop rounds differently on reversed views
        env = {name: np.asarray(value, dtype=np.float64, order="C") for name, value in env.items()}
        try:
            with np.errstate(all="ignore"):
                result = self.compiled(env)
        except KeyError as exc:
            raise ValueError(f"no value supplied for variable {exc.args[0]!r}") from None
        if len(env) > len(self.variables):  # a binding the value does not read
            shape = np.broadcast(*env.values()).shape
            if result.shape != shape:
                result = np.full(shape, result)
        return float(result) if result.ndim == 0 else result


def parse_expression(text: str, allowed: Iterable[str] | None = None) -> Expression:
    """Parse ``text``; ``allowed`` restricts which variables may appear."""
    allowed_vars = frozenset(VARIABLES if allowed is None else allowed)
    parser = _Parser(_tokenize(text), allowed_vars)
    source = parser.parse()
    return Expression(text, frozenset(parser.read), _skeleton(source)(*parser.constants))
