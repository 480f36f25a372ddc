"""Algebraic simplification of expression trees.

The abstraction pipeline builds very large expressions by substituting dipole
and Kirchhoff equations into one another (paper Section IV.C).  Constant
folding and identity elimination keep these trees small enough for the final
linear solve and for the generated code to be readable.

The simplifier is intentionally conservative: it only applies rewrites that
are valid for every real-valued input (no reassociation of floating point
sums beyond folding literal constants that are directly adjacent).
"""

from __future__ import annotations

import math

from .ast import (
    BinaryOp,
    Call,
    Conditional,
    Constant,
    Derivative,
    Expr,
    Integral,
    Previous,
    UnaryOp,
    Variable,
    transform,
)
from .evaluate import FUNCTION_TABLE


def _is_const(node: Expr, value: float | None = None) -> bool:
    if not isinstance(node, Constant):
        return False
    if value is None:
        return True
    return node.value == value


def _fold_binary(op: str, lhs: float, rhs: float) -> Expr | None:
    """Fold two literal operands; return ``None`` when folding is unsafe."""
    try:
        if op == "+":
            return Constant(lhs + rhs)
        if op == "-":
            return Constant(lhs - rhs)
        if op == "*":
            return Constant(lhs * rhs)
        if op == "/":
            if rhs == 0.0:
                return None
            return Constant(lhs / rhs)
        if op == "**":
            return fold_power(lhs, rhs)
        if op == "<":
            return Constant(1.0 if lhs < rhs else 0.0)
        if op == "<=":
            return Constant(1.0 if lhs <= rhs else 0.0)
        if op == ">":
            return Constant(1.0 if lhs > rhs else 0.0)
        if op == ">=":
            return Constant(1.0 if lhs >= rhs else 0.0)
        if op == "==":
            return Constant(1.0 if lhs == rhs else 0.0)
        if op == "!=":
            return Constant(1.0 if lhs != rhs else 0.0)
        if op == "&&":
            return Constant(1.0 if (lhs != 0.0 and rhs != 0.0) else 0.0)
        if op == "||":
            return Constant(1.0 if (lhs != 0.0 or rhs != 0.0) else 0.0)
    except OverflowError:
        return None
    return None


def fold_power(lhs: float, rhs: float) -> Expr | None:
    """``lhs ** rhs`` as a real constant; ``None`` outside the real domain
    (``0.0 ** -1.0``, ``(-8.0) ** 0.5``) or on overflow, like ``x / 0``."""
    try:
        value = lhs**rhs
    except (OverflowError, ZeroDivisionError):
        return None
    return None if isinstance(value, complex) else Constant(value)


def _negate(node: Expr) -> Expr:
    """Build ``-node`` while removing double negations and folding constants."""
    if isinstance(node, Constant):
        return Constant(-node.value)
    if isinstance(node, UnaryOp) and node.op == "-":
        return node.operand
    return UnaryOp("-", node)


def _is_negation(node: Expr) -> bool:
    return isinstance(node, UnaryOp) and node.op == "-"


def _simplify_binary(node: BinaryOp) -> Expr:
    """Apply the binary rules until the node stops changing.

    A rewrite can expose another rule (``x + (-x)`` becomes ``x - x``, which
    folds to ``0``), so the rules are re-applied locally until a fixpoint —
    this is what makes one ``simplify`` pass idempotent.  Every rewrite
    either folds to a leaf or strips a negation, so the loop terminates.
    """
    result = _simplify_binary_once(node)
    while result is not node and isinstance(result, BinaryOp):
        node = result
        result = _simplify_binary_once(node)
    return result


def _simplify_binary_once(node: BinaryOp) -> Expr:
    lhs, rhs = node.lhs, node.rhs
    if isinstance(lhs, Constant) and isinstance(rhs, Constant):
        folded = _fold_binary(node.op, lhs.value, rhs.value)
        if folded is not None:
            return folded

    op = node.op
    if op == "+":
        if _is_const(lhs, 0.0):
            return rhs
        if _is_const(rhs, 0.0):
            return lhs
        if _is_negation(rhs):
            return BinaryOp("-", lhs, rhs.operand)
    elif op == "-":
        if _is_const(rhs, 0.0):
            return lhs
        if _is_const(lhs, 0.0):
            return _negate(rhs)
        if lhs == rhs:
            return Constant(0.0)
        if _is_negation(rhs):
            return BinaryOp("+", lhs, rhs.operand)
    elif op == "*":
        if _is_const(lhs, 0.0) or _is_const(rhs, 0.0):
            return Constant(0.0)
        if _is_const(lhs, 1.0):
            return rhs
        if _is_const(rhs, 1.0):
            return lhs
        if _is_const(lhs, -1.0):
            return _negate(rhs)
        if _is_const(rhs, -1.0):
            return _negate(lhs)
        if _is_negation(lhs) and _is_negation(rhs):
            return BinaryOp("*", lhs.operand, rhs.operand)
        if isinstance(lhs, Constant) and _is_negation(rhs):
            return BinaryOp("*", Constant(-lhs.value), rhs.operand)
        if isinstance(rhs, Constant) and _is_negation(lhs):
            return BinaryOp("*", lhs.operand, Constant(-rhs.value))
    elif op == "/":
        if _is_const(lhs, 0.0) and not _is_const(rhs, 0.0):
            return Constant(0.0)
        if _is_const(rhs, 1.0):
            return lhs
        if _is_const(rhs, -1.0):
            return _negate(lhs)
        if _is_negation(lhs) and _is_negation(rhs):
            return BinaryOp("/", lhs.operand, rhs.operand)
        if isinstance(rhs, Constant) and rhs.value < 0.0 and _is_negation(lhs):
            return BinaryOp("/", lhs.operand, Constant(-rhs.value))
    elif op == "**":
        if _is_const(rhs, 1.0):
            return lhs
        if _is_const(rhs, 0.0):
            return Constant(1.0)
    return node


def _simplify_unary(node: UnaryOp) -> Expr:
    operand = node.operand
    if node.op == "+":
        return operand
    if node.op == "-":
        return _negate(operand)
    if node.op == "!":
        if isinstance(operand, Constant):
            return Constant(1.0 if operand.value == 0.0 else 0.0)
    return node


def _simplify_call(node: Call) -> Expr:
    if all(isinstance(arg, Constant) for arg in node.args) and node.func in FUNCTION_TABLE:
        try:
            value = FUNCTION_TABLE[node.func](*[arg.value for arg in node.args])
        except (ValueError, OverflowError, ZeroDivisionError):
            return node
        if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
            return node
        return Constant(float(value))
    return node


def _simplify_conditional(node: Conditional) -> Expr:
    if isinstance(node.condition, Constant):
        return node.then if node.condition.value != 0.0 else node.otherwise
    if node.then == node.otherwise:
        return node.then
    return node


def simplify(expr: Expr) -> Expr:
    """Return a simplified, semantically equivalent copy of ``expr``.

    The rewrite is a single bottom-up pass applying constant folding,
    arithmetic identities (``x + 0``, ``x * 1``, ``x * 0``, ``x - x``,
    double negation, ...) and folding of calls whose arguments are literal.
    """

    def visit(node: Expr) -> Expr:
        if isinstance(node, BinaryOp):
            return _simplify_binary(node)
        if isinstance(node, UnaryOp):
            return _simplify_unary(node)
        if isinstance(node, Call):
            return _simplify_call(node)
        if isinstance(node, Conditional):
            return _simplify_conditional(node)
        if isinstance(node, Derivative) and isinstance(node.operand, Constant):
            return Constant(0.0)
        return node

    return transform(expr, visit)


def is_constant(expr: Expr) -> bool:
    """Return ``True`` when the expression contains no variables or states."""
    return not any(isinstance(node, (Variable, Previous)) for node in expr.walk())


def constant_value(expr: Expr) -> float | None:
    """Return the numeric value of a constant expression, else ``None``."""
    simplified = simplify(expr)
    if isinstance(simplified, Constant):
        return simplified.value
    return None
