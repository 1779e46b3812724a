import functools
import inspect
import io
import json
import math
import re
import sys
import tokenize
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contraction_lab import solver
from contraction_lab.cli import run_command
from contraction_lab.contraction import SelfMap
from contraction_lab.expressions import (
    Expression,
    ExpressionError,
    ExpressionSyntaxError,
    MAX_NESTING,
    UnknownIdentifierError,
    VARIABLES,
    _NAMESPACE,
    _Parser,
    _skeleton,
    _tokenize,
    parse_expression,
)
from contraction_lab.space import IntervalSpace
from contraction_lab.trifun import INEQ_ABS_TOL

from helpers import (BinOp, Call, Neg, Num, Var, deep_trees, expression_trees, parenthesised,
                     reference_eval, unparse)


def _generated(text):
    """The factory source the parser writes for ``text`` and the bits of
    the constants it passes to the factory, in order."""
    parser = _Parser(_tokenize(text), frozenset(VARIABLES))
    return parser.parse(), [float(constant).hex() for constant in parser.constants]


def _source(text):
    """The factory source the parser writes for ``text``."""
    return _generated(text)[0]


class TestParsing:
    def test_abs_difference_tree(self):
        expr = parse_expression("abs(x-y)")
        assert _source(expr.source) == (
            "def _factory():\n"
            "    def call(env):\n"
            "        v_x = env[k_x]\n"
            "        v_y = env[k_y]\n"
            "        t2 = v_x - v_y\n"
            "        t3 = _abs(t2)\n"
            "        return t3\n"
            "    return call\n")
        assert expr.variables == frozenset({"x", "y"})

    def test_power_composition_tree(self):
        # (u^0.5 + v^0.5)^2: each operand before its operation, left first
        assert _generated("(u^0.5+v^0.5)^2") == (
            "def _factory(c0, c1, c2):\n"
            "    def call(env):\n"
            "        v_u = env[k_u]\n"
            "        t1 = _pow(v_u, c0)\n"
            "        v_v = env[k_v]\n"
            "        t3 = _pow(v_v, c1)\n"
            "        t4 = t1 + t3\n"
            "        t5 = _pow(t4, c2)\n"
            "        return t5\n"
            "    return call\n",
            [(0.5).hex(), (0.5).hex(), (2.0).hex()])

    def test_double_slash_is_syntax_error_at_offset_2(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("x//2")
        assert err.value.position == 2
        assert "(at offset 2)" in str(err.value)

    def test_power_is_right_associative(self):
        expr = parse_expression("2^3^2")
        assert expr() == 512.0

    def test_unary_minus_binds_as_power_base(self):
        # factor := unary ("^" factor)?, so -2^2 parses as (-2)^2
        assert parse_expression("-2^2")() == 4.0

    def test_precedence(self):
        assert parse_expression("1+2*3")() == 7.0
        assert parse_expression("(1+2)*3")() == 9.0
        assert parse_expression("2*3^2")() == 18.0

    def test_scientific_notation(self):
        assert parse_expression("1e3+2.5E-1")() == 1000.25

    def test_whitespace_tolerated(self):
        assert parse_expression("  u +\tv ")(u=1.0, v=2.0) == 3.0

    def test_unknown_variable_rejected(self):
        with pytest.raises(UnknownIdentifierError):
            parse_expression("w+1")

    def test_unknown_function_rejected(self):
        with pytest.raises(UnknownIdentifierError):
            parse_expression("foo(x)")

    def test_disallowed_variable_rejected(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse_expression("u+v", allowed=("x",))
        assert "not allowed" in str(err.value)

    def test_arity_enforced(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("abs(x,y)")
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("min(x)")

    def test_min_max_accept_many_arguments(self):
        assert parse_expression("min(x,y,1,2)")(x=5.0, y=3.0) == 1.0
        assert parse_expression("max(x,y,1)")(x=5.0, y=3.0) == 5.0

    def test_function_without_arguments_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("abs + 1")

    def test_empty_parens_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("()")

    def test_trailing_operator_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("x+")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("x 2")

    def test_unbalanced_paren_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("(x+1")

    def test_stray_character_rejected(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("x?1")
        assert err.value.position == 1

    def test_position_is_part_of_base_error(self):
        with pytest.raises(ExpressionError):
            parse_expression("x//2")


def _wrapped(wrap, times):
    """The variable x wrapped `times` times by `wrap`."""
    return functools.reduce(lambda node, _: wrap(node), range(times), Var("x"))


# each text at the nesting limit with its tree
_AT_THE_LIMIT = [
    pytest.param("(" * MAX_NESTING + "x/2" + ")" * MAX_NESTING, BinOp("/", Var("x"), Num(2.0)),
                 id="parentheses"),
    pytest.param("-" * MAX_NESTING + "x", _wrapped(Neg, MAX_NESTING), id="unary minus"),
    pytest.param("sqrt(" * MAX_NESTING + "x" + ")" * MAX_NESTING,
                 _wrapped(lambda node: Call("sqrt", (node,)), MAX_NESTING), id="arguments"),
    pytest.param("max(0.5, " * MAX_NESTING + "x" + ")" * MAX_NESTING,
                 _wrapped(lambda node: Call("max", (Num(0.5), node)), MAX_NESTING),
                 id="second arguments"),
    pytest.param("x" + "^x" * MAX_NESTING,
                 _wrapped(lambda node: BinOp("^", Var("x"), node), MAX_NESTING), id="powers"),
    pytest.param("-(" * (MAX_NESTING // 2) + "x" + ")" * (MAX_NESTING // 2),
                 _wrapped(Neg, MAX_NESTING // 2), id="mixed"),
    # levels close again, so siblings do not add up
    pytest.param(" + ".join(["(x)"] * 2 * MAX_NESTING),
                 functools.reduce(lambda left, right: BinOp("+", left, right),
                                  [Var("x")] * 2 * MAX_NESTING), id="siblings"),
]


class TestNesting:
    """Parentheses, function arguments, unary minus and '^' count toward one
    nesting limit, checked before the parser's recursion could overflow;
    chains of + - * / do not nest."""

    @pytest.mark.parametrize("text, offset", [
        pytest.param("(" * 200 + "x/2" + ")" * 200, MAX_NESTING, id="parentheses"),
        pytest.param("-" * 990 + "x", MAX_NESTING, id="unary minus"),
        pytest.param("sqrt(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
                     5 * MAX_NESTING + 4, id="arguments"),
        pytest.param("min(x, " * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
                     7 * MAX_NESTING + 3, id="second arguments"),
        pytest.param("x" + "^x" * (MAX_NESTING + 1), 2 * MAX_NESTING + 1, id="powers"),
        pytest.param("-(" * (MAX_NESTING // 2) + "-x" + ")" * (MAX_NESTING // 2), MAX_NESTING,
                     id="mixed"),
    ])
    def test_a_level_past_the_limit_is_an_error_at_its_token(self, text, offset):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression(text)
        assert err.value.position == offset
        assert str(err.value) == f"expression nests too deeply (at offset {offset})"

    @pytest.mark.parametrize("text, tree", _AT_THE_LIMIT)
    def test_the_limit_itself_parses_and_evaluates(self, text, tree):
        expr = parse_expression(text)
        assert _source(text) == _source(unparse(tree))
        walked = float(reference_eval(tree, {"x": np.float64(0.75)}))
        assert repr(expr(x=0.75)) == repr(walked)

    @pytest.mark.parametrize("text, tree", _AT_THE_LIMIT)
    def test_the_limit_parses_within_five_frames_a_level(self, text, tree):
        # the figure in MAX_NESTING's comment, plus a fixed margin for the
        # frames around the parser's recursion
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 5 * MAX_NESTING + 25)
        try:
            parse_expression(text)
        finally:
            sys.setrecursionlimit(limit)

    def test_a_flat_sum_of_10000_terms_is_the_left_fold_of_its_terms(self, tmp_path):
        # a chain of + - * / is folded in a loop, at any length, and the
        # parsed expression prints, compares and hashes by its fields
        divisors = [20000.0 + k for k in range(10_000)]
        text = "+".join(f"x/{divisor!r}" for divisor in divisors)
        expr = parse_expression(text)
        copy = Expression(text, frozenset({"x"}), expr.compiled)
        assert repr(expr) == f"Expression(source={text!r}, variables=frozenset({{'x'}}))"
        assert expr == copy and hash(expr) == hash(copy)
        for x in (0.75, 3.0):
            terms = [np.divide(np.float64(x), np.float64(divisor)) for divisor in divisors]
            folded = float(functools.reduce(lambda a, b: a + b, terms))
            assert repr(expr(x=x)) == repr(folded)
        interval = tmp_path / "unit.json"
        interval.write_text('{"lo": 0, "hi": 1, "dist": "abs(x-y)"}')
        reply = run_command(["iterate", "--space", str(interval), "--x0", "1",
                             "--map", json.dumps({"expr": text})])
        assert reply.status == "ok", reply.payload


class TestEvaluation:
    def test_basic_arithmetic(self):
        expr = parse_expression("x/2 + y*3 - 1")
        assert expr(x=4.0, y=2.0) == 7.0

    def test_division_by_zero_is_inf(self):
        assert parse_expression("x/y")(x=1.0, y=0.0) == math.inf

    def test_sqrt_of_negative_is_nan(self):
        assert math.isnan(parse_expression("sqrt(x)")(x=-1.0))

    def test_negative_base_fractional_power_is_nan(self):
        assert math.isnan(parse_expression("x^0.5")(x=-2.0))

    def test_missing_binding_rejected(self):
        with pytest.raises(ValueError):
            parse_expression("x+y")(x=1.0)

    def test_nested_calls(self):
        expr = parse_expression("max(abs(x-y), min(x, y))")
        assert expr(x=0.2, y=0.9) == pytest.approx(0.7)

    def test_mixed_scalar_and_array_call_args(self):
        import numpy as np

        fn = parse_expression("max(0, 1 - x) + min(1, x)")
        out = np.asarray(fn(x=np.array([0.5, 2.0])))
        assert out.tolist() == pytest.approx([1.0, 1.0])

    def test_deterministic(self):
        expr = parse_expression("sqrt(x)*y + x^y")
        first = expr(x=2.3, y=1.7)
        assert all(expr(x=2.3, y=1.7) == first for _ in range(5))


_x, _y, _u, _v = (Var(name) for name in "xyuv")


class TestRoundTrip:
    """The text with the fewest parentheses and the fully parenthesised
    text of one tree give the same generated code and constants, which
    pins precedence and associativity."""

    def test_canonical_text_reparses_identically(self):
        for source, tree in (
            ("abs(x-y)", Call("abs", (BinOp("-", _x, _y),))),
            ("(u^0.5+v^0.5)^2", BinOp("^", BinOp("+", BinOp("^", _u, Num(0.5)),
                                                 BinOp("^", _v, Num(0.5))), Num(2.0))),
            ("-x + y*-2", BinOp("+", Neg(_x), BinOp("*", _y, Neg(Num(2.0))))),
            ("min(u, v, u*v)", Call("min", (_u, _v, BinOp("*", _u, _v)))),
            ("1/(1-x)", BinOp("/", Num(1.0), BinOp("-", Num(1.0), _x))),
            ("2^3^2", BinOp("^", Num(2.0), BinOp("^", Num(3.0), Num(2.0)))),
            ("-(x+y)", Neg(BinOp("+", _x, _y))),
            ("x-(y-1)", BinOp("-", _x, BinOp("-", _y, Num(1.0)))),
            ("x-y-1", BinOp("-", BinOp("-", _x, _y), Num(1.0))),
            ("x/(y/2)", BinOp("/", _x, BinOp("/", _y, Num(2.0)))),
            ("x/y/2", BinOp("/", BinOp("/", _x, _y), Num(2.0))),
            ("-x^2", BinOp("^", Neg(_x), Num(2.0))),
        ):
            assert _generated(source) == _generated(unparse(tree)), source
            assert _generated(source) == _generated(parenthesised(tree)), source


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(tree=expression_trees(("x", "y", "u", "v")))
    def test_print_parse_identity(self, tree):
        assert _generated(unparse(tree)) == _generated(parenthesised(tree))


# Bindings for the array-against-scalar property: zero, negatives, values
# below and above one, and large ones, so that inf and nan arise too.
_POINTS = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-3, 7.25, 1e200])
# The scalar calls' points: both zeros, both infinities and nan as well.
_EDGES = np.concatenate((_POINTS, [-1e200, math.inf, -math.inf, math.nan]))
_XS, _YS = (grid.ravel() for grid in np.meshgrid(_POINTS, _POINTS[::-1], indexing="ij"))


def _same_bits(a, b):
    """Equal bit for bit, with any NaN matching any NaN."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


class TestArrayCalls:
    @settings(max_examples=300, deadline=None)
    @given(tree=expression_trees(("x", "y")))
    def test_array_call_equals_scalar_calls(self, tree):
        expr = parse_expression(unparse(tree))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = expr(x=_XS, y=_YS)
            # the same grid from a column and a row, each broadcast along the other
            broadcast = expr(x=_POINTS[:, None], y=_POINTS[::-1][None, :])
            scalars = [expr(x=float(x), y=float(y)) for x, y in zip(_XS, _YS)]
        assert all(type(value) is float for value in scalars)
        assert _same_bits(values, scalars)
        assert _same_bits(broadcast.ravel(), scalars)

    @settings(max_examples=300, deadline=None)
    @given(tree=expression_trees(("x",)))
    def test_scalar_entry_equals_keyword_and_array_calls(self, tree):
        expr = parse_expression(unparse(tree))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = expr(x=_EDGES)
            scalars = [expr(x=float(x)) for x in _EDGES]
        assert all(type(value) is float for value in scalars)
        assert _same_bits(scalars, values)

    def test_variable_exponent_takes_one_path(self):
        # the scalar call and both array calls give numpy's general power loop
        # on materialised one-dimensional operands; what it rounds 0.1^2 to
        # depends on the loop (0.01 with AVX-512, 0.010000000000000002 with
        # libm, as the x*x fast path and a 0-d call give on either)
        expr = parse_expression("x^y")
        general = np.power(np.array([0.1]), np.array([2.0]))
        assert _same_bits(expr(x=0.1, y=2), general[0])
        assert _same_bits(expr(x=np.array([0.1, 0.1]), y=2.0), np.repeat(general, 2))
        assert _same_bits(expr(x=np.array([0.1, 0.1]), y=np.array([2.0, 2.0])),
                          np.repeat(general, 2))
        assert np.shape(expr(x=np.arange(3.0)[:, None], y=np.arange(2.0))) == (3, 2)

    def test_constant_and_partial_expressions_take_the_bindings_shape(self):
        column, row = np.arange(3.0)[:, None], np.arange(4.0)[None, :]
        for text in ("1", "x", "2*x + 1", "min(x, 2)"):
            expr = parse_expression(text)
            assert np.shape(expr(x=column, y=row)) == (3, 4), text
            assert np.shape(expr(x=np.arange(3.0), y=0.0)) == (3,), text
            assert type(expr(x=0.5, y=0.25)) is float, text
            assert type(expr(x=np.float64(0.5), y=np.asarray(0.25))) is float, text
        assert _same_bits(parse_expression("1")(x=column, y=row), np.ones((3, 4)))
        assert _same_bits(parse_expression("x")(x=column, y=row), np.repeat(column, 4, axis=1))
        assert type(parse_expression("1")()) is float


def _outcome(evaluate):
    """A value, or a missing variable (KeyError or ValueError) by the
    variable it names."""
    try:
        return evaluate()
    except KeyError as exc:
        return ("missing", exc.args[0])
    except ValueError as exc:
        return ("missing", re.search(r"variable '(\w)'", str(exc)).group(1))


def _same_outcome(a, b):
    return a == b if isinstance(a, tuple) or isinstance(b, tuple) else _same_bits(a, b)


class TestEmitter:
    """The generated code against an independent tree walk, bit for bit."""

    @staticmethod
    def _check(tree, expr):
        grid = {"x": _XS, "y": _YS}
        with np.errstate(all="ignore"):
            assert _same_bits(expr.compiled(grid), reference_eval(tree, grid))
            for x, y in zip(_XS, _YS):
                point = {"x": np.asarray(x), "y": np.asarray(y)}
                assert _same_bits(expr.compiled(point), reference_eval(tree, point))
            for x in _EDGES:
                value = _outcome(lambda: expr(x=float(x)))
                assert type(value) in (float, tuple)
                assert _same_outcome(value, _outcome(
                    lambda: float(reference_eval(tree, {"x": np.float64(x)}))))

    @settings(max_examples=300, deadline=None)
    @given(tree=expression_trees(("x", "y")))
    def test_parsed_entries_match_a_tree_walk(self, tree):
        expr = parse_expression(unparse(tree))
        self._check(tree, expr)

    @settings(max_examples=25, deadline=None)
    @given(tree=deep_trees(("x", "y"), MAX_NESTING // 2))
    def test_entries_of_trees_at_the_nesting_limit_match_a_tree_walk(self, tree):
        # each step of a deep tree prints at most two nesting levels
        expr = parse_expression(unparse(tree))
        self._check(tree, expr)

    def test_variable_exponents_and_unary_minus_chains(self):
        for text, tree in (
            ("x^y", BinOp("^", _x, _y)),
            ("2^x", BinOp("^", Num(2.0), _x)),
            ("x^(y-1)", BinOp("^", _x, BinOp("-", _y, Num(1.0)))),
            ("(-x)^-y", BinOp("^", Neg(_x), Neg(_y))),
            ("x^y^0.5", BinOp("^", _x, BinOp("^", _y, Num(0.5)))),
            ("--x", Neg(Neg(_x))),
            ("-(-(-x))^2", BinOp("^", Neg(Neg(Neg(_x))), Num(2.0))),
            ("-x^--y", BinOp("^", Neg(_x), Neg(Neg(_y)))),
            ("min(x, y, 0.5, -x)", Call("min", (_x, _y, Num(0.5), Neg(_x)))),
            ("max(x, 1, y, x^y)", Call("max", (_x, Num(1.0), _y, BinOp("^", _x, _y)))),
        ):
            expr = parse_expression(text)
            assert _source(text) == _source(unparse(tree)), text
            self._check(tree, expr)

    @settings(max_examples=200, deadline=None)
    @given(tree=expression_trees(("x", "y", "u", "v")),
           bound=st.sets(st.sampled_from("xyuv")))
    def test_a_missing_variable_is_the_one_a_tree_walk_names(self, tree, bound):
        expr = parse_expression(unparse(tree))
        env = {name: 0.5 for name in bound}
        with np.errstate(all="ignore"):
            walked = _outcome(lambda: reference_eval(
                tree, {name: np.asarray(value) for name, value in env.items()}))
        assert _same_outcome(_outcome(lambda: np.float64(expr(**env))),
                             walked if isinstance(walked, tuple) else np.float64(walked))


def _entry_walk(expr, x, n, lo, hi):
    """n Picard steps of the keyword call expr(x=x) from x, with the
    interval orbit's clamp: the iterates, and the message of the escape
    that ends them early, or None."""
    low, high = lo - INEQ_ABS_TOL, hi + INEQ_ABS_TOL
    iterates = []
    for _ in range(n):
        value = expr(x=x)
        if not lo <= value <= hi:
            if not low <= value <= high:
                return iterates, (f"iterate {len(iterates) + 1}: T({x!r}) = {value!r} "
                                  f"leaves [{lo}, {hi}]")
            value = lo if value < lo else hi
        iterates.append(value)
        x = value
    return iterates, None


def _check_walk(text, lo, hi, x, n):
    """The orbit's chunks, which the generated walk fills, against the
    iterated keyword call bit for bit, with the same escape message."""
    space, mapping = IntervalSpace(lo, hi), SelfMap(expr=text)
    iterates, escape = [], None
    try:
        for chunk, _ in solver._interval_chunks(space, mapping, x, n):
            iterates += chunk
    except solver.DomainEscapeError as exc:
        escape = str(exc)
    expected, expected_escape = _entry_walk(parse_expression(text, allowed=("x",)), x, n, lo, hi)
    assert all(type(value) is float for value in iterates)
    assert _same_bits(iterates, expected), text
    assert escape == expected_escape, text
    return iterates, escape


_WALK_INTERVALS = ((0.0, 1.0), (-1.0, 1.0), (-2.5, 3.0), (0.0, 1e200), (-1e300, 1e300))


class TestWalk:
    """The self-map walk on Python floats against the iterated keyword call
    at 0-d bindings."""

    @settings(max_examples=300, deadline=None)
    @given(tree=expression_trees(("x",)), interval=st.sampled_from(_WALK_INTERVALS),
           clamp=st.booleans(), data=st.data())
    def test_walk_equals_iterated_float_entry(self, tree, interval, clamp, data):
        lo, hi = interval
        text = unparse(tree)
        if clamp:  # long orbits: the map held inside [lo, hi], NaN still escaping
            text = f"max({lo!r}, min({hi!r}, {text}))"
        x = data.draw(st.one_of(st.sampled_from([lo, hi, (lo + hi) / 2, 0.5]),
                                st.floats(lo, hi)))
        _check_walk(text, lo, hi, x, data.draw(st.integers(1, 300)))

    @pytest.mark.parametrize("text, lo, x, last, escape", [
        # a zero divisor and the root of a negative inside the orbit
        ("max(0, min(1, 1/(x - 0.5)))", 0.0, 0.5, 1.0, None),
        ("sqrt(x - 0.75)^0 * x/2", 0.0, 0.5, 0.0, None),
        # NaN reaching min and max in either slot, which Python's builtins drop
        ("min(0.5, sqrt(x - 0.75))", 0.0, 0.5, None, "iterate 1: T(0.5) = nan"),
        ("min(sqrt(x - 0.75), 0.5)", 0.0, 0.5, None, "iterate 1: T(0.5) = nan"),
        ("max(0.5, sqrt(x - 0.75), 0.25)", 0.0, 0.5, None, "iterate 1: T(0.5) = nan"),
        # clamped at lo and at hi, and signed zeros on [-1, 1]
        ("x/2 - 1e-13", 0.0, 0.5, 0.0, None),
        ("x/2 + 0.5 + 1e-13", 0.0, 0.5, 1.0, None),
        ("-x/2", -1.0, 1.0, 0.0, None),
        # escapes by NaN, by +inf and -inf, and by a finite value
        ("0/(x - 0.5)", 0.0, 0.5, None, "iterate 1: T(0.5) = nan"),
        ("x/2 + 1e-300/abs(x - 0.25)*1e-300", 0.0, 1.0, 0.25, "iterate 3: T(0.25) = inf"),
        ("x/2 - 1e-300/abs(x - 0.25)*1e-300", 0.0, 1.0, 0.25, "iterate 3: T(0.25) = -inf"),
        ("x + 0.25", 0.0, 0.25, 1.0, "iterate 4: T(1.0) = 1.25 leaves [0.0, 1.0]"),
    ])
    def test_float_edge_cases(self, text, lo, x, last, escape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            iterates, message = _check_walk(text, lo, 1.0, x, 2000)
        if escape is None:
            assert message is None and len(iterates) == 2000
        else:
            assert message.startswith(escape), message
        assert iterates[-1:] == ([] if last is None else [last])

    def test_walk_is_generated_for_self_maps_only(self):
        assert hasattr(parse_expression("x/2", allowed=("x",)).compiled, "walk")
        for text, allowed in (("x/2", ("x", "y")), ("u/2", ("u", "v")), ("x/2", None)):
            assert not hasattr(parse_expression(text, allowed=allowed).compiled, "walk")


class TestSkeletonCache:
    def test_maps_that_differ_only_in_numbers_share_one_entry(self):
        def tree(a, b, c, d, e):  # a*sqrt(x^2+b) - min(x, c, d)/e
            return BinOp("-", BinOp("*", Num(a), Call("sqrt", (BinOp("+", BinOp(
                "^", _x, Num(2.0)), Num(b)),))), BinOp("/", Call("min", (_x, Num(c), Num(d))), Num(e)))

        first = parse_expression("0.25*sqrt(x^2+0.5)-min(x, 0.125, 3)/7e-3")
        before = _skeleton.cache_info()
        second = parse_expression("0.75*sqrt(x^2+1.5)-min(x, 0.375, 9)/2e-2")
        after = _skeleton.cache_info()
        assert (after.hits, after.misses, after.currsize) == (
            before.hits + 1, before.misses, before.currsize)
        assert _source(first.source) == _source(second.source)
        for expr, constants in ((first, (0.25, 0.5, 0.125, 3.0, 7e-3)),
                                (second, (0.75, 1.5, 0.375, 9.0, 2e-2))):
            TestEmitter._check(tree(*constants), expr)
        assert first(x=0.5) != second(x=0.5)
        assert first(x=np.array([0.5, 1.0])).tolist() != second(x=np.array([0.5, 1.0])).tolist()

    @settings(max_examples=200, deadline=None)
    @given(tree=expression_trees(("x", "y", "u", "v")))
    def test_generated_source_holds_only_the_emitters_vocabulary(self, tree):
        source = _source(unparse(tree))
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        assert not [token for token in tokens if token.type in (tokenize.NUMBER, tokenize.STRING)]
        vocabulary = set(_NAMESPACE) | {"def", "return", "_factory", "call", "env"}
        names = {token.string for token in tokens if token.type == tokenize.NAME}
        assert all(name in vocabulary or re.fullmatch(r"[ct]\d+|v_[xyuv]", name)
                   for name in names), names

    @settings(max_examples=200, deadline=None)
    @given(tree=expression_trees(("x",)))
    def test_walk_source_holds_only_the_emitters_vocabulary(self, tree):
        # the one number is the root's sign test, the same in every walk
        source = _Parser(_tokenize(unparse(tree)), frozenset({"x"})).parse()
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        assert {token.string for token in tokens
                if token.type in (tokenize.NUMBER, tokenize.STRING)} <= {"0.0"}
        vocabulary = set(_NAMESPACE) | {
            "def", "return", "float", "_factory", "call", "env", "x", "floats", "tuple",
            "map", "walk", "n", "lo", "hi", "low", "high", "chunk", "append", "for", "_", "in",
            "range", "if", "else", "not", "abs", "None"}
        names = {token.string for token in tokens if token.type == tokenize.NAME}
        assert all(name in vocabulary or re.fullmatch(r"[ct]\d+|v_x", name)
                   for name in names), names
