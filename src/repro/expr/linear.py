"""Linear-form extraction and linear equation solving.

The last stage of the assemble step (paper Section IV.C, Figure 7) must
remove every un-delayed occurrence of the output of interest from the right
hand side of the assembled equation.  Because conservative descriptions of
electrical linear networks are linear in node potentials and branch flows,
this amounts to extracting the linear form of an expression with respect to a
set of unknowns and solving the resulting (small) linear system symbolically.
The paper quotes a worst-case cost of O(|N|³) for this step — Gaussian
elimination, which is exactly what :func:`solve_linear_system` performs, with
expression-valued coefficients that constant-fold to numbers whenever the
circuit parameters are numeric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import NonLinearExpressionError, UnsolvableEquationError
from .ast import BinaryOp, Call, Conditional, Constant, Derivative, Expr, Integral, Previous, UnaryOp, Variable
from .simplify import constant_value, fold_power, is_constant, simplify


@dataclass(frozen=True)
class LinearForm:
    """The decomposition ``expr == sum(coefficients[name] * name) + remainder``.

    ``remainder`` groups everything that does not depend on the chosen
    unknowns (inputs, parameters, previous-step values, other variables).
    """

    coefficients: dict[str, Expr]
    remainder: Expr

    def coefficient(self, name: str) -> Expr:
        """Return the coefficient of ``name`` (zero when absent)."""
        return self.coefficients.get(name, Constant(0.0))

    def depends_on(self, name: str) -> bool:
        """Return ``True`` when the coefficient of ``name`` is not exactly zero."""
        coefficient = self.coefficients.get(name)
        if coefficient is None:
            return False
        value = constant_value(coefficient)
        return value is None or value != 0.0


def _merge(
    lhs: dict[str, Expr], rhs: dict[str, Expr], combine
) -> dict[str, Expr]:
    merged = dict(lhs)
    for name, coefficient in rhs.items():
        if name in merged:
            merged[name] = combine(merged[name], coefficient)
        else:
            merged[name] = combine(Constant(0.0), coefficient)
    return merged


def _scale(coefficients: dict[str, Expr], factor: Expr) -> dict[str, Expr]:
    return {name: BinaryOp("*", coefficient, factor) for name, coefficient in coefficients.items()}


def linear_form(expr: Expr, unknowns: Sequence[str] | set[str]) -> LinearForm:
    """Decompose ``expr`` as an affine combination of ``unknowns``.

    Raises
    ------
    NonLinearExpressionError
        When ``expr`` is not affine in the unknowns (e.g. a product of two
        unknowns, an unknown inside a function call or under ``ddt``).
    """
    unknown_set = set(unknowns)

    def visit(node: Expr) -> tuple[dict[str, Expr], Expr]:
        if isinstance(node, Constant) or isinstance(node, Previous):
            return {}, node
        if isinstance(node, Variable):
            if node.name in unknown_set:
                return {node.name: Constant(1.0)}, Constant(0.0)
            return {}, node
        if isinstance(node, UnaryOp):
            coefficients, remainder = visit(node.operand)
            if node.op == "+":
                return coefficients, remainder
            if node.op == "-":
                negated = {
                    name: UnaryOp("-", coefficient)
                    for name, coefficient in coefficients.items()
                }
                return negated, UnaryOp("-", remainder)
            if coefficients:
                raise NonLinearExpressionError(
                    f"logical operator applied to unknowns in {node}"
                )
            return {}, node
        if isinstance(node, BinaryOp):
            left_coefficients, left_remainder = visit(node.lhs)
            right_coefficients, right_remainder = visit(node.rhs)
            if node.op == "+":
                merged = _merge(
                    left_coefficients,
                    right_coefficients,
                    lambda a, b: BinaryOp("+", a, b),
                )
                return merged, BinaryOp("+", left_remainder, right_remainder)
            if node.op == "-":
                merged = _merge(
                    left_coefficients,
                    right_coefficients,
                    lambda a, b: BinaryOp("-", a, b),
                )
                return merged, BinaryOp("-", left_remainder, right_remainder)
            if node.op == "*":
                if left_coefficients and right_coefficients:
                    raise NonLinearExpressionError(
                        f"product of unknowns in {node}"
                    )
                if left_coefficients:
                    return (
                        _scale(left_coefficients, node.rhs),
                        BinaryOp("*", left_remainder, node.rhs),
                    )
                if right_coefficients:
                    return (
                        _scale(right_coefficients, node.lhs),
                        BinaryOp("*", node.lhs, right_remainder),
                    )
                return {}, node
            if node.op == "/":
                if right_coefficients:
                    raise NonLinearExpressionError(
                        f"unknown in a denominator in {node}"
                    )
                if left_coefficients:
                    scaled = {
                        name: BinaryOp("/", coefficient, node.rhs)
                        for name, coefficient in left_coefficients.items()
                    }
                    return scaled, BinaryOp("/", left_remainder, node.rhs)
                return {}, node
            if left_coefficients or right_coefficients:
                raise NonLinearExpressionError(
                    f"operator {node.op!r} applied to unknowns in {node}"
                )
            return {}, node
        if isinstance(node, (Call, Conditional, Derivative, Integral)):
            if any(name in unknown_set for name in node.variables()):
                raise NonLinearExpressionError(
                    f"unknowns appear inside a non-linear construct: {node}"
                )
            return {}, node
        raise NonLinearExpressionError(
            f"cannot extract a linear form from {type(node).__name__}"
        )

    coefficients, remainder = visit(expr)
    simplified = {name: simplify(value) for name, value in coefficients.items()}
    nonzero = {
        name: value
        for name, value in simplified.items()
        if constant_value(value) != 0.0
    }
    return LinearForm(nonzero, simplify(remainder))


def solve_for(lhs: Expr, rhs: Expr, name: str) -> Expr:
    """Solve the equation ``lhs == rhs`` for the variable ``name``.

    This is the ``Solve`` routine of the paper's enrichment step
    (Algorithm 1, line 7): each equation is re-solved for every term that
    appears in it, producing the enriched hash table.

    Raises
    ------
    UnsolvableEquationError
        When ``name`` does not appear linearly with a non-zero coefficient.
    """
    difference = BinaryOp("-", lhs, rhs)
    try:
        form = linear_form(difference, {name})
    except NonLinearExpressionError as exc:
        raise UnsolvableEquationError(
            f"equation is not linear in {name!r}: {exc}"
        ) from exc
    coefficient = form.coefficient(name)
    coefficient_value = constant_value(coefficient)
    if coefficient_value == 0.0 or (coefficient_value is None and not form.depends_on(name)):
        raise UnsolvableEquationError(f"{name!r} does not appear in the equation")
    solution = BinaryOp("/", UnaryOp("-", form.remainder), coefficient)
    return simplify(solution)


def solve_linear_system(
    equations: Mapping[str, Expr], unknowns: Sequence[str]
) -> dict[str, Expr]:
    """Solve a system ``unknown == expression`` for all ``unknowns`` symbolically.

    ``equations`` maps each unknown to an expression that may reference any of
    the unknowns (an implicit algebraic coupling, as produced by the assemble
    step on circuits with more than one storage element).  The system must be
    linear; Gaussian elimination with expression-valued coefficients is used,
    pivoting on the entry with the largest constant-foldable magnitude.

    Returns a mapping from unknown name to an expression free of every
    unknown.
    """
    order = list(unknowns)
    n = len(order)
    if n == 0:
        return {}

    # Build the augmented system  A x = b  from  x_i = expr_i, i.e.
    # (I - J) x = remainder, where J holds the coefficients of the unknowns.
    matrix: list[list[Expr]] = []
    rhs: list[Expr] = []
    for row_index, name in enumerate(order):
        expression = equations[name]
        form = linear_form(expression, order)
        row = []
        for column_index, column_name in enumerate(order):
            coefficient = form.coefficient(column_name)
            identity = Constant(1.0) if row_index == column_index else Constant(0.0)
            row.append(simplify(BinaryOp("-", identity, coefficient)))
        matrix.append(row)
        rhs.append(form.remainder)

    # Forward elimination with partial pivoting on constant-valued entries.
    for pivot_index in range(n):
        pivot_row = _select_pivot(matrix, pivot_index, n)
        if pivot_row != pivot_index:
            matrix[pivot_index], matrix[pivot_row] = matrix[pivot_row], matrix[pivot_index]
            rhs[pivot_index], rhs[pivot_row] = rhs[pivot_row], rhs[pivot_index]
        pivot = matrix[pivot_index][pivot_index]
        if constant_value(pivot) == 0.0:
            raise UnsolvableEquationError(
                f"singular algebraic system while solving for {order[pivot_index]!r}"
            )
        for row_index in range(pivot_index + 1, n):
            entry = matrix[row_index][pivot_index]
            if constant_value(entry) == 0.0:
                continue
            factor = simplify(BinaryOp("/", entry, pivot))
            for column_index in range(pivot_index, n):
                updated = BinaryOp(
                    "-",
                    matrix[row_index][column_index],
                    BinaryOp("*", factor, matrix[pivot_index][column_index]),
                )
                matrix[row_index][column_index] = simplify(updated)
            rhs[row_index] = simplify(
                BinaryOp("-", rhs[row_index], BinaryOp("*", factor, rhs[pivot_index]))
            )

    # Back substitution.
    solutions: list[Expr | None] = [None] * n
    for row_index in range(n - 1, -1, -1):
        accumulated = rhs[row_index]
        for column_index in range(row_index + 1, n):
            coefficient = matrix[row_index][column_index]
            if constant_value(coefficient) == 0.0:
                continue
            accumulated = BinaryOp(
                "-",
                accumulated,
                BinaryOp("*", coefficient, solutions[column_index]),
            )
        pivot = matrix[row_index][row_index]
        solutions[row_index] = simplify(BinaryOp("/", accumulated, pivot))

    return {name: solution for name, solution in zip(order, solutions)}


@dataclass
class AffineDecomposition:
    """Numeric affine decomposition of an expression.

    ``expr == sum(unknown_coefficients[u] * u) + sum(atom_coefficients[a] * a) + constant``

    where the unknowns are instantaneous :class:`Variable` quantities chosen by
    the caller and the atoms are every other leaf carrying a value at run time:
    input variables (``("var", name)``) and previous-step values
    (``("prev", name)``).  All coefficients must fold to numbers; otherwise
    :class:`~repro.errors.NonLinearExpressionError` is raised and the caller
    should fall back to the fully symbolic path.
    """

    unknown_coefficients: dict[str, float]
    atom_coefficients: dict[tuple[str, str], float]
    constant: float

    def scaled(self, factor: float) -> "AffineDecomposition":
        """Return this decomposition multiplied by ``factor``."""
        return AffineDecomposition(
            {name: value * factor for name, value in self.unknown_coefficients.items()},
            {atom: value * factor for atom, value in self.atom_coefficients.items()},
            self.constant * factor,
        )

    def add(self, other: "AffineDecomposition", sign: float = 1.0) -> "AffineDecomposition":
        """Return ``self + sign * other``."""
        unknowns = dict(self.unknown_coefficients)
        for name, value in other.unknown_coefficients.items():
            unknowns[name] = unknowns.get(name, 0.0) + sign * value
        atoms = dict(self.atom_coefficients)
        for atom, value in other.atom_coefficients.items():
            atoms[atom] = atoms.get(atom, 0.0) + sign * value
        return AffineDecomposition(unknowns, atoms, self.constant + sign * other.constant)

    def is_pure_number(self) -> bool:
        """True when the decomposition has no unknown and no atom contribution."""
        return not any(self.unknown_coefficients.values()) and not any(
            self.atom_coefficients.values()
        )


def affine_decompose(expr: Expr, unknowns: Sequence[str] | set[str]) -> AffineDecomposition:
    """Decompose ``expr`` with *numeric* coefficients; see :class:`AffineDecomposition`.

    Raises
    ------
    NonLinearExpressionError
        When the expression is not affine in the unknowns and atoms, or when a
        coefficient does not fold to a number (symbolic parameters).
    """
    unknown_set = set(unknowns)

    def visit(node: Expr) -> AffineDecomposition:
        if isinstance(node, Constant):
            return AffineDecomposition({}, {}, node.value)
        if isinstance(node, Variable):
            if node.name in unknown_set:
                return AffineDecomposition({node.name: 1.0}, {}, 0.0)
            return AffineDecomposition({}, {("var", node.name): 1.0}, 0.0)
        if isinstance(node, Previous):
            return AffineDecomposition({}, {("prev", node.name): 1.0}, 0.0)
        if isinstance(node, UnaryOp):
            inner = visit(node.operand)
            if node.op == "+":
                return inner
            if node.op == "-":
                return inner.scaled(-1.0)
            raise NonLinearExpressionError(f"cannot decompose logical operator {node.op!r}")
        if isinstance(node, BinaryOp):
            if node.op == "+":
                return visit(node.lhs).add(visit(node.rhs))
            if node.op == "-":
                return visit(node.lhs).add(visit(node.rhs), sign=-1.0)
            if node.op == "*":
                left = visit(node.lhs)
                right = visit(node.rhs)
                if left.is_pure_number():
                    return right.scaled(left.constant)
                if right.is_pure_number():
                    return left.scaled(right.constant)
                raise NonLinearExpressionError(f"product of run-time quantities in {node}")
            if node.op == "/":
                left = visit(node.lhs)
                right = visit(node.rhs)
                if not right.is_pure_number():
                    raise NonLinearExpressionError(f"run-time quantity in a denominator in {node}")
                if right.constant == 0.0:
                    raise NonLinearExpressionError(f"division by zero in {node}")
                return left.scaled(1.0 / right.constant)
            if node.op == "**":
                left = visit(node.lhs)
                right = visit(node.rhs)
                if left.is_pure_number() and right.is_pure_number():
                    power = fold_power(left.constant, right.constant)
                    if power is not None:
                        return AffineDecomposition({}, {}, power.value)
            raise NonLinearExpressionError(f"operator {node.op!r} is not affine in {node}")
        if isinstance(node, (Call, Conditional, Derivative, Integral)):
            value = constant_value(node) if not isinstance(node, (Derivative, Integral)) else None
            if value is not None:
                return AffineDecomposition({}, {}, value)
            raise NonLinearExpressionError(
                f"non-affine construct {type(node).__name__} in {node}"
            )
        raise NonLinearExpressionError(f"cannot decompose {type(node).__name__}")

    return visit(expr)


def solve_affine_system(
    equations: Mapping[str, Expr],
    unknowns: Sequence[str],
    tolerance: float = 1e-18,
) -> dict[str, Expr]:
    """Numerically solve ``unknown == expression`` for all ``unknowns``.

    This is the fast path of the paper's "solution of the linear equation":
    when every coefficient folds to a number (circuit parameters are known at
    abstraction time), the implicit system is solved with dense numeric
    Gaussian elimination and each unknown becomes a compact affine combination
    of inputs and previous-step values.

    Raises
    ------
    NonLinearExpressionError
        When a coefficient is not numeric; callers should then fall back to
        :func:`solve_linear_system`.
    UnsolvableEquationError
        When the system is singular.
    """
    import numpy as np

    from ..core.tape import TapeValue

    order = list(unknowns)
    n = len(order)
    if n == 0:
        return {}
    index = {name: i for i, name in enumerate(order)}

    decompositions = [affine_decompose(equations[name], order) for name in order]
    atoms: list[tuple[str, str]] = []
    atom_index: dict[tuple[str, str], int] = {}
    for decomposition in decompositions:
        for atom in decomposition.atom_coefficients:
            if atom not in atom_index:
                atom_index[atom] = len(atoms)
                atoms.append(atom)

    # Python lists, not arrays: a coefficient recorded on a tape
    # (repro.core.tape) is not a float, and its tape records the solve.
    matrix: list[list] = [[0.0] * n for _ in range(n)]
    for row in range(n):
        matrix[row][row] = 1.0
    rhs: list[list] = [[0.0] * (len(atoms) + 1) for _ in range(n)]
    tape = None
    for row, decomposition in enumerate(decompositions):
        for name, value in decomposition.unknown_coefficients.items():
            matrix[row][index[name]] -= value
            if type(value) is TapeValue:
                tape = value.tape
        for atom, value in decomposition.atom_coefficients.items():
            rhs[row][atom_index[atom]] += value
            if type(value) is TapeValue:
                tape = value.tape
        rhs[row][-1] += decomposition.constant
        if type(decomposition.constant) is TapeValue:
            tape = decomposition.constant.tape

    try:
        if tape is None:
            solution = np.linalg.solve(np.array(matrix), np.array(rhs))
            negligible = (np.abs(solution[:, :-1]) <= tolerance).tolist()
            solution = solution.tolist()
        else:
            solution, negligible = tape.solve(matrix, rhs, tolerance)
    except np.linalg.LinAlgError as exc:
        raise UnsolvableEquationError(
            "the assembled algebraic system is singular"
        ) from exc

    results: dict[str, Expr] = {}
    for row, name in enumerate(order):
        terms: list[Expr] = []
        for column, atom in enumerate(atoms):
            if negligible[row][column]:
                continue
            coefficient = solution[row][column]
            kind, atom_name = atom
            leaf: Expr = Previous(atom_name) if kind == "prev" else Variable(atom_name)
            terms.append(BinaryOp("*", Constant(coefficient), leaf))
        constant = solution[row][-1]
        expression: Expr
        if abs(constant) > tolerance or not terms:
            expression = Constant(constant)
            for term in terms:
                expression = BinaryOp("+", expression, term)
        else:
            expression = terms[0]
            for term in terms[1:]:
                expression = BinaryOp("+", expression, term)
        results[name] = simplify(expression)
    return results


def _select_pivot(matrix: list[list[Expr]], pivot_index: int, n: int) -> int:
    """Pick the row with the largest known-magnitude pivot entry."""
    best_row = pivot_index
    best_magnitude = -1.0
    for row_index in range(pivot_index, n):
        value = constant_value(matrix[row_index][pivot_index])
        if value is None:
            # A symbolic entry is assumed usable; prefer it only if no numeric
            # non-zero pivot was found.
            magnitude = 0.5
        else:
            magnitude = abs(value)
        if magnitude > best_magnitude:
            best_magnitude = magnitude
            best_row = row_index
    return best_row
