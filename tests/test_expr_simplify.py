"""Unit and property-based tests for the expression simplifier."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.expr import (
    BinaryOp,
    Call,
    Conditional,
    Constant,
    Derivative,
    Previous,
    UnaryOp,
    Variable,
    constant_value,
    evaluate,
    is_constant,
    simplify,
)
from repro.errors import NonLinearExpressionError
from repro.expr.linear import affine_decompose


class TestIdentities:
    def test_addition_with_zero(self):
        x = Variable("x")
        assert simplify(x + 0) == x
        assert simplify(0 + x) == x

    def test_multiplication_identities(self):
        x = Variable("x")
        assert simplify(x * 1) == x
        assert simplify(1 * x) == x
        assert simplify(x * 0) == Constant(0.0)
        assert simplify(x * -1) == UnaryOp("-", x)

    def test_subtraction_identities(self):
        x = Variable("x")
        assert simplify(x - 0) == x
        assert simplify(x - x) == Constant(0.0)
        assert simplify(0 - x) == UnaryOp("-", x)

    def test_division_identities(self):
        x = Variable("x")
        assert simplify(x / 1) == x
        assert simplify(0 / x) == Constant(0.0)

    def test_power_identities(self):
        x = Variable("x")
        assert simplify(x ** 1) == x
        assert simplify(x ** 0) == Constant(1.0)

    def test_double_negation_removed(self):
        x = Variable("x")
        assert simplify(UnaryOp("-", UnaryOp("-", x))) == x

    def test_negative_divided_by_negative(self):
        x = Variable("x")
        expr = BinaryOp("/", UnaryOp("-", x), Constant(-5.0))
        assert simplify(expr) == BinaryOp("/", x, Constant(5.0))

    def test_subtracting_a_negation_becomes_addition(self):
        x, y = Variable("x"), Variable("y")
        assert simplify(BinaryOp("-", x, UnaryOp("-", y))) == BinaryOp("+", x, y)


class TestConstantFolding:
    def test_arithmetic_folding(self):
        assert simplify(Constant(2) + Constant(3)) == Constant(5.0)
        assert simplify(Constant(2) * Constant(3)) == Constant(6.0)
        assert simplify(Constant(7) / Constant(2)) == Constant(3.5)

    def test_division_by_zero_not_folded(self):
        expr = BinaryOp("/", Constant(1), Constant(0))
        assert simplify(expr) == expr

    @pytest.mark.parametrize("base, exponent", [(0.0, -1.0), (-8.0, 0.5)])
    def test_power_outside_the_real_domain_not_folded(self, base, exponent):
        # 0.0 ** -1.0 raises ZeroDivisionError and (-8.0) ** 0.5 is complex:
        # like a division by zero, neither folds, and neither decomposes.
        expr = BinaryOp("**", Constant(base), Constant(exponent))
        assert simplify(expr) == expr
        assert constant_value(expr) is None
        with pytest.raises(NonLinearExpressionError, match=r"\*\*"):
            affine_decompose(expr, [])

    def test_function_folding(self):
        assert simplify(Call("sqrt", (Constant(16.0),))) == Constant(4.0)
        assert simplify(Call("max", (Constant(1.0), Constant(3.0)))) == Constant(3.0)

    def test_comparison_folding(self):
        assert simplify(BinaryOp("<", Constant(1), Constant(2))) == Constant(1.0)

    def test_conditional_with_constant_condition(self):
        expr = Conditional(Constant(1.0), Variable("a"), Variable("b"))
        assert simplify(expr) == Variable("a")
        expr = Conditional(Constant(0.0), Variable("a"), Variable("b"))
        assert simplify(expr) == Variable("b")

    def test_conditional_with_identical_branches(self):
        expr = Conditional(Variable("c"), Variable("a"), Variable("a"))
        assert simplify(expr) == Variable("a")

    def test_ddt_of_constant_is_zero(self):
        assert simplify(Derivative(Constant(5.0))) == Constant(0.0)


class TestHelpers:
    def test_is_constant(self):
        assert is_constant(Constant(1) + Constant(2))
        assert not is_constant(Variable("x") + Constant(2))
        assert not is_constant(Previous("x"))

    def test_constant_value(self):
        assert constant_value(Constant(2) * Constant(3)) == 6.0
        assert constant_value(Variable("x")) is None


# -- property-based: simplification preserves the numeric value --------------------------
_leaf = st.one_of(
    st.floats(min_value=-10, max_value=10, allow_nan=False).map(Constant),
    st.sampled_from([Variable("x"), Variable("y"), Previous("x")]),
)


def _combine(children):
    operator = st.sampled_from(["+", "-", "*"])
    return st.builds(lambda op, a, b: BinaryOp(op, a, b), operator, children, children)


_expression = st.recursive(_leaf, _combine, max_leaves=12)


@given(_expression)
def test_simplify_preserves_value(expr):
    bindings = {"x": 1.37, "y": -2.5}
    previous = {"x": 0.25}
    original = evaluate(expr, bindings, previous=previous)
    simplified = evaluate(simplify(expr), bindings, previous=previous)
    assert simplified == pytest.approx(original, rel=1e-9, abs=1e-9)


@given(_expression)
def test_simplify_is_idempotent(expr):
    once = simplify(expr)
    twice = simplify(once)
    assert once == twice
