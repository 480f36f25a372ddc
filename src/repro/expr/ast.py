"""Expression AST used throughout the abstraction methodology.

The paper (Section IV.A) parses the right-hand side of every dipole equation
into an abstract syntax tree whose leaves are values and variables and whose
intermediate nodes are operators, with per-node flags recording e.g. the
presence of a derivative operator.  This module provides that AST.

Nodes are immutable value objects: equality and hashing are structural, and
every transformation (substitution, simplification, discretisation, ...)
returns new nodes.  Python operator overloading is provided so that
expressions can be written naturally in library code and tests::

    >>> from repro.expr import Variable, Constant
    >>> v = Variable("V(out,gnd)")
    >>> e = 2.0 * v + Constant(1.0)
    >>> sorted(e.variables())
    ['V(out,gnd)']
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Mapping, Sequence, Union

Number = Union[int, float]

#: Binary arithmetic operators understood by the engine.
ARITHMETIC_OPERATORS = ("+", "-", "*", "/", "**")

#: Binary comparison operators (used by signal-flow conditionals).
COMPARISON_OPERATORS = ("<", "<=", ">", ">=", "==", "!=")

#: Binary logical operators (used by signal-flow conditionals).
LOGICAL_OPERATORS = ("&&", "||")

#: Every binary operator accepted by :class:`BinaryOp`.
BINARY_OPERATORS = ARITHMETIC_OPERATORS + COMPARISON_OPERATORS + LOGICAL_OPERATORS

#: Unary operators accepted by :class:`UnaryOp`.
UNARY_OPERATORS = ("-", "+", "!")

#: Mathematical functions accepted by :class:`Call` (Verilog-AMS analog functions).
KNOWN_FUNCTIONS = (
    "sin",
    "cos",
    "tan",
    "asin",
    "acos",
    "atan",
    "atan2",
    "sinh",
    "cosh",
    "tanh",
    "exp",
    "ln",
    "log",
    "sqrt",
    "abs",
    "min",
    "max",
    "pow",
    "floor",
    "ceil",
    "limexp",
)


def _coerce(value: "Expr | Number") -> "Expr":
    """Turn plain numbers into :class:`Constant` nodes for operator overloading."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Constant(float(value))
    raise TypeError(f"cannot build an expression from {value!r}")


class Expr:
    """Base class of every expression node.

    Subclasses must define ``__slots__``, provide :meth:`children` and a
    structural key via :meth:`_key` used for equality and hashing.
    """

    __slots__ = ()

    # -- structural protocol -------------------------------------------------
    def children(self) -> tuple["Expr", ...]:
        """Return the direct sub-expressions of this node."""
        return ()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expr):
            return NotImplemented
        return self._key() == other._key()

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash(self._key())

    # -- convenience queries -------------------------------------------------
    def walk(self) -> Iterator["Expr"]:
        """Yield this node and every descendant in pre-order."""
        stack: list[Expr] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def variables(self) -> set[str]:
        """Return the names of all :class:`Variable` leaves in the expression."""
        return {node.name for node in self.walk() if isinstance(node, Variable)}

    def previous_values(self) -> set[str]:
        """Return the names referenced through :class:`Previous` nodes."""
        return {node.name for node in self.walk() if isinstance(node, Previous)}

    def contains_variable(self, name: str) -> bool:
        """Return ``True`` when the variable ``name`` appears in the expression."""
        return any(isinstance(node, Variable) and node.name == name for node in self.walk())

    def has_derivative(self) -> bool:
        """Return ``True`` when a ``ddt`` operator appears in the expression.

        This is the per-node flag the paper stores during acquisition.
        """
        return any(isinstance(node, Derivative) for node in self.walk())

    def has_integral(self) -> bool:
        """Return ``True`` when an ``idt`` operator appears in the expression."""
        return any(isinstance(node, Integral) for node in self.walk())

    def size(self) -> int:
        """Return the number of nodes in the expression tree."""
        return sum(1 for _ in self.walk())

    def depth(self) -> int:
        """Return the height of the expression tree (a leaf has depth 1)."""
        children = self.children()
        if not children:
            return 1
        return 1 + max(child.depth() for child in children)

    # -- operator overloading ------------------------------------------------
    def __add__(self, other: "Expr | Number") -> "BinaryOp":
        return BinaryOp("+", self, _coerce(other))

    def __radd__(self, other: "Expr | Number") -> "BinaryOp":
        return BinaryOp("+", _coerce(other), self)

    def __sub__(self, other: "Expr | Number") -> "BinaryOp":
        return BinaryOp("-", self, _coerce(other))

    def __rsub__(self, other: "Expr | Number") -> "BinaryOp":
        return BinaryOp("-", _coerce(other), self)

    def __mul__(self, other: "Expr | Number") -> "BinaryOp":
        return BinaryOp("*", self, _coerce(other))

    def __rmul__(self, other: "Expr | Number") -> "BinaryOp":
        return BinaryOp("*", _coerce(other), self)

    def __truediv__(self, other: "Expr | Number") -> "BinaryOp":
        return BinaryOp("/", self, _coerce(other))

    def __rtruediv__(self, other: "Expr | Number") -> "BinaryOp":
        return BinaryOp("/", _coerce(other), self)

    def __pow__(self, other: "Expr | Number") -> "BinaryOp":
        return BinaryOp("**", self, _coerce(other))

    def __neg__(self) -> "UnaryOp":
        return UnaryOp("-", self)

    def __pos__(self) -> "Expr":
        return self

    # -- rendering -----------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self!s})"

    def __str__(self) -> str:
        return to_string(self)


class Constant(Expr):
    """A literal numeric value (a *Value* leaf in the paper's AST)."""

    __slots__ = ("value",)

    def __init__(self, value: Number) -> None:
        self.value = value if type(value) is float else _constant_value(value)

    def _key(self) -> tuple:
        return ("const", self.value)


def _constant_value(value):
    """``float(value)``, except that a value recorded on a tape stays itself
    until the recorder lowers the model (:mod:`repro.core.tape`)."""
    return value if type(value) is _tape_value() else float(value)


@functools.cache
def _tape_value() -> type:
    # Imported on first use: the core package imports this module.
    from ..core.tape import TapeValue

    return TapeValue


class Variable(Expr):
    """A named quantity: a node potential, a branch flow, an input or a parameter.

    The name convention used by the rest of the library is:

    * ``"V(a,b)"`` — branch/port potential difference between nodes ``a`` and ``b``
    * ``"V(a)"`` — node potential of ``a`` referred to ground
    * ``"I(br)"`` — flow through branch ``br``
    * anything else — an input stimulus, parameter or local variable
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("a Variable needs a non-empty name")
        self.name = name

    def _key(self) -> tuple:
        return ("var", self.name)


class Access(Variable):
    """A :class:`Variable` produced by a Verilog-AMS access function.

    ``Access("I(br)", "I")`` behaves exactly like ``Variable("I(br)")`` for
    equality, hashing, substitution and simplification (the structural key is
    inherited), but additionally records which access *kind* produced it —
    ``"V"`` (potential) or ``"I"`` (flow).  Consumers such as
    :mod:`repro.vams.classify` use the kind instead of string-matching the
    rendered name, which is spacing- and aliasing-safe.
    """

    __slots__ = ("kind",)

    def __init__(self, name: str, kind: str) -> None:
        super().__init__(name)
        self.kind = kind


class Previous(Expr):
    """The value a quantity had one timestep earlier (``x`` at ``t - dt``).

    Discretising ``ddt``/``idt`` operators introduces these nodes; they become
    state variables of the generated signal-flow model.  The paper refers to
    this as "the explicit interest on the output value at -Δt".
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("a Previous node needs a non-empty name")
        self.name = name

    def _key(self) -> tuple:
        return ("prev", self.name)


class BinaryOp(Expr):
    """A binary operator node (arithmetic, comparison or logical)."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr) -> None:
        if op not in BINARY_OPERATORS:
            raise ValueError(f"unknown binary operator {op!r}")
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def children(self) -> tuple[Expr, ...]:
        return (self.lhs, self.rhs)

    def _key(self) -> tuple:
        return ("bin", self.op, self.lhs._key(), self.rhs._key())


class UnaryOp(Expr):
    """A unary operator node (negation, identity or logical not)."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr) -> None:
        if op not in UNARY_OPERATORS:
            raise ValueError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = operand

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def _key(self) -> tuple:
        return ("un", self.op, self.operand._key())


class Call(Expr):
    """A call to a mathematical function (``exp``, ``sin``, ``pow``, ...)."""

    __slots__ = ("func", "args")

    def __init__(self, func: str, args: Sequence[Expr]) -> None:
        if func not in KNOWN_FUNCTIONS:
            raise ValueError(f"unknown function {func!r}")
        self.func = func
        self.args = tuple(args)

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def _key(self) -> tuple:
        return ("call", self.func) + tuple(arg._key() for arg in self.args)


class Derivative(Expr):
    """The Verilog-AMS ``ddt()`` analog operator (time derivative)."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def _key(self) -> tuple:
        return ("ddt", self.operand._key())


class Integral(Expr):
    """The Verilog-AMS ``idt()`` analog operator (time integral).

    ``initial`` is the optional initial condition of the integral.
    """

    __slots__ = ("operand", "initial")

    def __init__(self, operand: Expr, initial: Expr | None = None) -> None:
        self.operand = operand
        self.initial = initial

    def children(self) -> tuple[Expr, ...]:
        if self.initial is None:
            return (self.operand,)
        return (self.operand, self.initial)

    def _key(self) -> tuple:
        initial_key = self.initial._key() if self.initial is not None else None
        return ("idt", self.operand._key(), initial_key)


class Conditional(Expr):
    """A ternary choice, modelling Verilog-AMS ``if``/``else`` in signal-flow code."""

    __slots__ = ("condition", "then", "otherwise")

    def __init__(self, condition: Expr, then: Expr, otherwise: Expr) -> None:
        self.condition = condition
        self.then = then
        self.otherwise = otherwise

    def children(self) -> tuple[Expr, ...]:
        return (self.condition, self.then, self.otherwise)

    def _key(self) -> tuple:
        return ("cond", self.condition._key(), self.then._key(), self.otherwise._key())


# ---------------------------------------------------------------------------
# Tree rebuilding helpers
# ---------------------------------------------------------------------------
def rebuild(node: Expr, children: Sequence[Expr]) -> Expr:
    """Return a copy of ``node`` with its children replaced by ``children``."""
    if isinstance(node, (Constant, Variable, Previous)):
        return node
    if isinstance(node, BinaryOp):
        lhs, rhs = children
        return BinaryOp(node.op, lhs, rhs)
    if isinstance(node, UnaryOp):
        (operand,) = children
        return UnaryOp(node.op, operand)
    if isinstance(node, Call):
        return Call(node.func, tuple(children))
    if isinstance(node, Derivative):
        (operand,) = children
        return Derivative(operand)
    if isinstance(node, Integral):
        if len(children) == 1:
            return Integral(children[0])
        operand, initial = children
        return Integral(operand, initial)
    if isinstance(node, Conditional):
        condition, then, otherwise = children
        return Conditional(condition, then, otherwise)
    raise TypeError(f"cannot rebuild node of type {type(node).__name__}")


def transform(node: Expr, visit) -> Expr:
    """Apply ``visit`` bottom-up to every node of the expression.

    ``visit`` receives a node whose children have already been transformed and
    must return a node (possibly the same one).
    """
    children = node.children()
    if children:
        new_children = [transform(child, visit) for child in children]
        if any(new is not old for new, old in zip(new_children, children)):
            node = rebuild(node, new_children)
    return visit(node)


def substitute(node: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace every :class:`Variable` whose name is in ``mapping`` by its image."""

    def visit(current: Expr) -> Expr:
        if isinstance(current, Variable) and current.name in mapping:
            return mapping[current.name]
        return current

    return transform(node, visit)


def substitute_previous(node: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace every :class:`Previous` whose name is in ``mapping`` by its image."""

    def visit(current: Expr) -> Expr:
        if isinstance(current, Previous) and current.name in mapping:
            return mapping[current.name]
        return current

    return transform(node, visit)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "**": 7,
}


def to_string(node: Expr, parent_precedence: int = 0) -> str:
    """Render an expression with minimal parentheses (infix notation)."""
    if isinstance(node, Constant):
        if node.value == int(node.value) and abs(node.value) < 1e16:
            return str(int(node.value))
        return repr(node.value)
    if isinstance(node, Variable):
        return node.name
    if isinstance(node, Previous):
        return f"prev({node.name})"
    if isinstance(node, UnaryOp):
        inner = to_string(node.operand, 8)
        return f"{node.op}{inner}"
    if isinstance(node, Call):
        args = ", ".join(to_string(arg) for arg in node.args)
        return f"{node.func}({args})"
    if isinstance(node, Derivative):
        return f"ddt({to_string(node.operand)})"
    if isinstance(node, Integral):
        if node.initial is None:
            return f"idt({to_string(node.operand)})"
        return f"idt({to_string(node.operand)}, {to_string(node.initial)})"
    if isinstance(node, Conditional):
        return (
            f"({to_string(node.condition)} ? {to_string(node.then)}"
            f" : {to_string(node.otherwise)})"
        )
    if isinstance(node, BinaryOp):
        precedence = _PRECEDENCE[node.op]
        lhs = to_string(node.lhs, precedence)
        rhs = to_string(node.rhs, precedence + 1)
        text = f"{lhs} {node.op} {rhs}"
        if precedence < parent_precedence:
            return f"({text})"
        return text
    raise TypeError(f"cannot render node of type {type(node).__name__}")


def constant(value: Number) -> Constant:
    """Shorthand constructor for :class:`Constant`."""
    return Constant(value)


def variable(name: str) -> Variable:
    """Shorthand constructor for :class:`Variable`."""
    return Variable(name)


def iter_leaves(node: Expr) -> Iterable[Expr]:
    """Yield every leaf node (constants, variables and previous values)."""
    for item in node.walk():
        if not item.children():
            yield item


ZERO = Constant(0.0)
ONE = Constant(1.0)
