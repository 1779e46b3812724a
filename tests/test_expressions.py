import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contraction_lab.expressions import (
    BinOp,
    Call,
    ExpressionError,
    ExpressionSyntaxError,
    Neg,
    Num,
    UnknownIdentifierError,
    Var,
    parse_expression,
)

from helpers import expression_trees, unparse


class TestParsing:
    def test_abs_difference_tree(self):
        expr = parse_expression("abs(x-y)")
        assert expr.tree == Call("abs", (BinOp("-", Var("x"), Var("y")),))
        assert expr.variables == frozenset({"x", "y"})

    def test_power_composition_tree(self):
        expr = parse_expression("(u^0.5+v^0.5)^2")
        inner = BinOp("+", BinOp("^", Var("u"), Num(0.5)), BinOp("^", Var("v"), Num(0.5)))
        assert expr.tree == BinOp("^", inner, Num(2.0))

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


class TestRoundTrip:
    def test_canonical_text_reparses_identically(self):
        for source in (
            "abs(x-y)",
            "(u^0.5+v^0.5)^2",
            "-x + y*-2",
            "min(u, v, u*v)",
            "1/(1-x)",
            "2^3^2",
            "-(x+y)",
            "x-(y-1)",
            "x/(y/2)",
        ):
            expr = parse_expression(source)
            again = parse_expression(unparse(expr.tree))
            assert again.tree == expr.tree, source
            assert unparse(again.tree) == unparse(expr.tree), source


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(tree=expression_trees(("x", "y", "u", "v")))
    def test_print_parse_identity(self, tree):
        text = unparse(tree)
        assert parse_expression(text).tree == tree


# Bindings for the array-against-scalar property: zero, negatives, values
# below and above one, and large ones, so that inf and nan arise too.
_POINTS = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-3, 7.25, 1e200])
# The scalar entry's points: both zeros, both infinities and nan as well.
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
            with np.errstate(all="ignore"):
                entries = [expr.at(float(x)) for x in _EDGES]
        assert all(type(value) is float for value in entries)
        assert _same_bits(entries, scalars)
        assert _same_bits(entries, values)

    def test_scalar_entry_runs_under_the_callers_error_state(self):
        expr = parse_expression("1/x")
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            expr.at(0.0)
        with np.errstate(divide="ignore"):
            assert expr.at(0.0) == math.inf and expr.at(-0.0) == -math.inf
        with pytest.raises(ValueError, match="'y'"):
            parse_expression("x+y").at(1.0)

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
