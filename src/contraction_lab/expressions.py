"""Parsing and evaluation of the small arithmetic language used for custom
triangle functions, distance formulas and interval self-maps.

Grammar ('^' is right-associative and binds a unary base):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := unary ("^" factor)?
    unary  := "-" unary | atom
    atom   := number | ident | ident "(" expr ("," expr)* ")" | "(" expr ")"

Numbers are decimal with an optional exponent.  Identifiers are limited to
the variables x, y, u, v and the functions abs, min, max, sqrt.  Nesting
(parentheses, function arguments, unary minus and '^' together) may go
MAX_NESTING levels deep; a deeper level is a syntax error at its token.
Parsing emits the tree as straight-line Python (`_emit`): numbers are
np.float64, + - * Python operators, and / ^ abs sqrt min max the numpy
ufuncs.  The
numbers are parameters of a generated factory, never text, which is
compiled once per operator skeleton (`_skeleton`), so expressions that
differ only in their numbers share compiled code.  Calling an Expression
converts each keyword binding to C-ordered float64 and evaluates in
double precision throughout.  Replies echo an expression's source text;
no tree is printed.
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
such as a Picard orbit: the emitter's second function, which binds x as
np.float64 and runs the same operations with no dict of bindings, so '^'
is still the np.power ufunc and the value has the keyword call's bits.
It leaves the error state to its caller, who enters np.errstate once
around many calls; outside one, a division by zero warns or raises as
numpy's current settings say.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Union

import numpy as np

VARIABLES = ("x", "y", "u", "v")

# function name -> (min arity, max arity or None for unbounded)
FUNCTIONS = {"abs": (1, 1), "sqrt": (1, 1), "min": (2, None), "max": (2, None)}

# Levels of parentheses, function arguments, unary minus and '^', counted
# together.  The parser recurses at each level, up to seven frames a level
# for function arguments, so this many stay well inside Python's default
# recursion limit of 1,000 frames, also under a test runner's own frames.
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
        self.depth = 0

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

    def nested(self, token: Token, parse: Callable[[], Node]) -> Node:
        """parse() one nesting level below `token`, which is named when the
        levels pass MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ExpressionSyntaxError("expression nests too deeply", token.pos)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

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
            return BinOp("^", base, self.nested(self.advance(), self.factor))
        return base

    def unary(self) -> Node:
        token = self.peek()
        if token.kind == "op" and token.text == "-":
            return Neg(self.nested(self.advance(), self.unary))
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
            node = self.nested(token, self.expr)
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError("expected a value", token.pos)

    def call(self, name: Token) -> Node:
        if name.text not in FUNCTIONS:
            raise UnknownIdentifierError(f"unknown function {name.text!r}", name.pos)
        opening = self.expect_op("(")
        args = [self.nested(opening, self.expr)]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            args.append(self.nested(opening, self.expr))
        self.expect_op(")")
        lo, hi = FUNCTIONS[name.text]
        if len(args) < lo or (hi is not None and len(args) > hi):
            wanted = str(lo) if hi == lo else f"at least {lo}"
            raise ExpressionSyntaxError(
                f"{name.text} expects {wanted} argument(s), got {len(args)}", name.pos
            )
        return Call(name.text, tuple(args))


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


def _unbound(name: str):
    raise ValueError(f"no value supplied for variable {name!r}")


# The emitter's whole vocabulary.  Generated code names only these globals,
# its parameters env and x, and the locals c<k> (constants), v_<name>
# (variables) and t<k> (operation results).
_NAMESPACE = {"_f64": np.float64, "_divide": np.divide, "_pow": np.power, "_power": _power,
              "_abs": np.abs, "_sqrt": np.sqrt, "_minimum": np.minimum,
              "_maximum": np.maximum, "_unbound": _unbound,
              **{f"k_{name}": name for name in VARIABLES}}
# variable -> its read into v_<name> in call(env), and in at(x)
_ENV_READS = {name: f"env[k_{name}]" for name in VARIABLES}
_FLOAT_READS = {name: "_f64(x)" if name == "x" else f"_unbound(k_{name})" for name in VARIABLES}
_INFIX = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "_divide({}, {})",
          "^": "_pow({}, {})"}
_FUNCS = {"abs": "_abs", "sqrt": "_sqrt", "min": "_minimum", "max": "_maximum"}


def _emit(tree: Node) -> tuple[str, list, frozenset[str]]:
    """The source of a factory for the tree, the constants it takes and the
    variables the tree reads.  The factory returns the keyword entry
    call(env), with the float entry at(x) as its attribute call.at: two
    straight-line functions with one local per operation, applied depth
    first, left operand first.  A variable is read at its first use, so a
    missing one is named in evaluation order; n-ary min and max fold left
    once all their arguments are evaluated, and a power whose exponent
    reads a variable goes through _power."""
    constants: list = []
    body: list = []  # statements, with a variable's first read as its Var node
    read: list[str] = []

    def assign(expression: str) -> str:
        local = f"t{len(body)}"
        body.append(f"{local} = {expression}")
        return local

    def operand(node: Node) -> tuple[str, bool]:  # its text, and whether it reads a variable
        if isinstance(node, Num):
            constants.append(np.float64(node.value))
            return f"c{len(constants) - 1}", False
        if isinstance(node, Var):
            if node.name not in read:
                read.append(node.name)
                body.append(node)
            return f"v_{node.name}", True
        if isinstance(node, Neg):
            text, reads = operand(node.operand)
            return assign(f"-{text}"), reads
        if isinstance(node, BinOp):
            (left, lreads), (right, rreads) = operand(node.left), operand(node.right)
            form = "_power({}, {})" if node.op == "^" and rreads else _INFIX[node.op]
            return assign(form.format(left, right)), lreads or rreads
        args = [operand(arg) for arg in node.args]
        func = _FUNCS[node.func]
        text = assign(f"{func}({args[0][0]})") if len(args) == 1 else args[0][0]
        for arg, _ in args[1:]:
            text = assign(f"{func}({text}, {arg})")
        return text, any(reads for _, reads in args)

    result, _ = operand(tree)

    def function(head: str, reads: dict, value: str) -> list[str]:
        lines = [f"v_{line.name} = {reads[line.name]}" if isinstance(line, Var) else line
                 for line in body]
        return [f"    def {head}:", *(f"        {line}" for line in lines),
                f"        return {value}"]

    params = ", ".join(f"c{k}" for k in range(len(constants)))
    source = "\n".join([f"def _factory({params}):",
                         *function("call(env)", _ENV_READS, result),
                         *function("at(x)", _FLOAT_READS, f"float({result})"),
                         "    call.at = at",
                         "    return call\n"])
    return source, constants, frozenset(read)


@functools.lru_cache(maxsize=256)
def _skeleton(source: str) -> Callable:
    """The factory that `_emit`'s source defines, compiled once per
    operator skeleton.  The source holds only the emitter's vocabulary,
    never an expression's text or numbers."""
    namespace = dict(_NAMESPACE)
    exec(compile(source, "<expression>", "exec"), namespace)
    return namespace["_factory"]


@dataclass(frozen=True)
class Expression:
    """A parsed expression: source text, tree, the variables it reads and
    its generated function, which evaluates the tree on a dict of float64
    bindings."""

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

    @property
    def at(self) -> Callable[[float], float]:
        """The float entry of the module docstring, generated with
        `compiled`: the value at one float x as a float, for an expression
        that reads at most x (another variable raises the keyword call's
        ValueError), under the caller's error state."""
        return self.compiled.at  # type: ignore[attr-defined]


def parse_expression(text: str, allowed: Iterable[str] | None = None) -> Expression:
    """Parse ``text``; ``allowed`` restricts which variables may appear."""
    allowed_vars = frozenset(VARIABLES if allowed is None else allowed)
    tree = _Parser(_tokenize(text), allowed_vars).parse()
    source, constants, variables = _emit(tree)
    return Expression(text, tree, variables, _skeleton(source)(*constants))
