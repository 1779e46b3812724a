"""Parsing and evaluation of the small arithmetic language used for custom
triangle functions, distance formulas and interval self-maps.

Grammar ('^' is right-associative and binds a unary base):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := unary ("^" factor)?
    unary  := "-" unary | atom
    atom   := number | ident | ident "(" expr ("," expr)* ")" | "(" expr ")"

Numbers are decimal with an optional exponent.  Identifiers are limited to
the variables x, y, u, v and the functions abs, min, max, sqrt.  Parsing
compiles the tree once into a closure; calling an Expression converts each
keyword binding to C-ordered float64 and evaluates in double precision
throughout.  Replies echo an expression's source text; no tree is printed.
Division by zero and fractional powers of negatives produce inf/nan rather
than raising; callers that need finite non-negative values check the result.

The value has the shape of the bindings: arrays pass through element-wise,
so an expression applies to whole sample batches at once, and the value has
the broadcast shape of all bindings even where the expression does not read
one of them ("1" or "x" bound to arrays x and y).  When every binding is a
scalar the value is a Python float.  A scalar call gives the bits an array
call gives at the same point.

A keyword call converts its bindings and enters np.errstate on every call.
Expression.at is the entry for a caller that evaluates one float at a time,
such as a Picard orbit: it binds x as np.float64 and runs the same closure,
so '^' is still the np.power ufunc and the value has the keyword call's
bits.  It leaves the error state to its caller, who enters np.errstate
once around many calls; outside one, a division by zero warns or raises
as numpy's current settings say.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Union

import numpy as np

VARIABLES = ("x", "y", "u", "v")

# function name -> (min arity, max arity or None for unbounded)
FUNCTIONS = {"abs": (1, 1), "sqrt": (1, 1), "min": (2, None), "max": (2, None)}


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
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Node", ...]


Node = Union[Num, Var, Neg, BinOp, Call]


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


class _Parser:
    def __init__(self, tokens: list[Token], allowed_vars: frozenset[str]):
        self.tokens = tokens
        self.index = 0
        self.allowed_vars = allowed_vars

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

    def parse(self) -> Node:
        node = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ExpressionSyntaxError(f"unexpected {tail.text!r}", tail.pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        base = self.unary()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return BinOp("^", base, self.factor())
        return base

    def unary(self) -> Node:
        token = self.peek()
        if token.kind == "op" and token.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.atom()

    def atom(self) -> Node:
        token = self.advance()
        if token.kind == "num":
            value = float(token.text)
            if not np.isfinite(value):
                raise ExpressionSyntaxError("numeric literal overflows", token.pos)
            return Num(value)
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
            return Var(token.text)
        if token.kind == "op" and token.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError("expected a value", token.pos)

    def call(self, name: Token) -> Node:
        if name.text not in FUNCTIONS:
            raise UnknownIdentifierError(f"unknown function {name.text!r}", name.pos)
        self.expect_op("(")
        args = [self.expr()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            args.append(self.expr())
        self.expect_op(")")
        lo, hi = FUNCTIONS[name.text]
        if len(args) < lo or (hi is not None and len(args) > hi):
            wanted = str(lo) if hi == lo else f"at least {lo}"
            raise ExpressionSyntaxError(
                f"{name.text} expects {wanted} argument(s), got {len(args)}", name.pos
            )
        return Call(name.text, tuple(args))


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": np.divide, "^": np.power}
_CALLS = {"abs": np.abs, "sqrt": np.sqrt,
          "min": lambda *args: functools.reduce(np.minimum, args),
          "max": lambda *args: functools.reduce(np.maximum, args)}


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


def _compile(node: Node) -> tuple[Callable[[dict], object], frozenset[str]]:
    """The tree as one closure over a dict of float64 bindings, and the
    variables it reads.  Numbers are np.float64; the operations are applied
    depth first, left operand first, and a power whose exponent reads a
    variable goes through _power."""
    if isinstance(node, Num):
        value = np.float64(node.value)
        return (lambda env: value), frozenset()
    if isinstance(node, Var):
        name = node.name
        return (lambda env: env[name]), frozenset((name,))
    if isinstance(node, Neg):
        operand, names = _compile(node.operand)
        return (lambda env: -operand(env)), names
    if isinstance(node, BinOp):
        (left, lnames), (right, rnames) = _compile(node.left), _compile(node.right)
        op = _power if node.op == "^" and rnames else _BINARY[node.op]
        return (lambda env: op(left(env), right(env))), lnames | rnames
    args, names = zip(*(_compile(arg) for arg in node.args))
    fn = _CALLS[node.func]
    return (lambda env: fn(*[arg(env) for arg in args])), frozenset().union(*names)


@dataclass(frozen=True)
class Expression:
    """A parsed expression: source text, tree, the variables it reads and
    its compiled closure."""

    source: str
    tree: Node
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

    def at(self, x: float) -> float:
        """The value at x as a float, for an expression that reads at most
        x: the closure bound to one np.float64 under the caller's error
        state, so a caller that makes many calls enters np.errstate once.
        It gives the bits that the keyword call gives at the same x."""
        try:
            return float(self.compiled({"x": np.float64(x)}))
        except KeyError as exc:
            raise ValueError(f"no value supplied for variable {exc.args[0]!r}") from None


def parse_expression(text: str, allowed: Iterable[str] | None = None) -> Expression:
    """Parse ``text``; ``allowed`` restricts which variables may appear."""
    allowed_vars = frozenset(VARIABLES if allowed is None else allowed)
    tree = _Parser(_tokenize(text), allowed_vars).parse()
    compiled, variables = _compile(tree)
    return Expression(text, tree, variables, compiled)
