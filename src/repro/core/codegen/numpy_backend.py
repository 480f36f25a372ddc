"""Vectorized NumPy code generation: one model instance, many scenarios.

The paper's argument is economic — abstracted signal-flow models are cheap
enough that you can afford to simulate them *in bulk*.  This backend turns
that argument into an execution strategy: given a batch of **structurally
identical** signal-flow models (same topology, same assignment structure,
different coefficient values — the shape produced by a parameter sweep, a
corner enumeration or a tolerance Monte-Carlo), it emits a single class whose
``step_batch`` method advances *every* scenario per call, operating on
shape-``(n_scenarios,)`` NumPy arrays.

Coefficients that differ between scenarios are *lifted* out of the expression
trees into parameter arrays (rows of a ``(n_parameters, n_scenarios)``
matrix); coefficients shared by every scenario stay baked into the source as
literals.  Because the parameter values travel through the constructor rather
than the source text, the generated source for a sweep depends only on the
model *structure* — so the compile cache (:mod:`repro.core.codegen.cache`)
hits for every re-run, every Monte-Carlo redraw and every chunk of a
multiprocess sweep.

Two kernel forms are emitted, chosen from the model structure alone:

* **Stacked affine kernel.**  The conservative flow's solver
  (:func:`repro.expr.linear.solve_affine_system`) writes every assignment as
  a left-to-right sum of ``coefficient * atom`` terms, where an atom is an
  input, ``prev(state)`` or the constant 1, and the atoms of each row follow
  one global order.  Such rows share one ``(n_rows, n_scenarios)``
  accumulator initialised to ``-0.0``; for each atom in order the kernel
  does one multiply and one add over the contiguous block of rows that
  contain it (a masked add where the block has holes).  Because
  ``-0.0 + y == y`` bitwise for every ``y``, each lane performs exactly the
  scalar ``step``'s operations in the same order, so the result is
  bit-identical to the ``python`` backend.  The coefficient tensor is built
  from ``parameters`` when the class is instantiated; the source carries
  only the row/atom tables (and coefficients shared by every scenario).
* **Per-assignment emission.**  Assignments that are not of that form
  (conditionals, function calls, products of run-time quantities) are
  rendered one NumPy expression each, after the stacked rows; a model with
  no stackable row is rendered entirely that way.

The backend is also registered as ``"numpy"`` in the generator registry; in
that single-model role it simply generates a batch of one.
"""

from __future__ import annotations

import heapq
import textwrap
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ...errors import CodeGenerationError
from ...expr.ast import (
    BinaryOp,
    Call,
    Conditional,
    Constant,
    Expr,
    Previous,
    UnaryOp,
    Variable,
)
from ..signalflow import TIME_VARIABLE, SignalFlowModel
from .base import CodeGenerator, ExpressionRenderer, GeneratedCode, class_name, mangle
from .cache import compile_cached

#: Reserved variable-name prefix marking a lifted per-scenario parameter.
PARAM_PREFIX = "__sweep_p"


# ---------------------------------------------------------------------------
# Structural identity
# ---------------------------------------------------------------------------
def _skeleton(expr: Expr) -> tuple:
    """A structural key of ``expr`` that ignores the values of constants."""
    if isinstance(expr, Constant):
        return ("const",)
    if isinstance(expr, Variable):
        return ("var", expr.name)
    if isinstance(expr, Previous):
        return ("prev", expr.name)
    if isinstance(expr, BinaryOp):
        return ("bin", expr.op, _skeleton(expr.lhs), _skeleton(expr.rhs))
    if isinstance(expr, UnaryOp):
        return ("un", expr.op, _skeleton(expr.operand))
    if isinstance(expr, Call):
        return ("call", expr.func) + tuple(_skeleton(arg) for arg in expr.args)
    if isinstance(expr, Conditional):
        return (
            "cond",
            _skeleton(expr.condition),
            _skeleton(expr.then),
            _skeleton(expr.otherwise),
        )
    raise CodeGenerationError(f"cannot take the skeleton of {type(expr).__name__}")


def structure_signature(model: SignalFlowModel) -> tuple:
    """Hashable key identifying the batchable structure of ``model``.

    Two models with equal signatures differ at most in constant values and in
    initial-state values, which is exactly what :func:`generate_batch` lifts
    into per-scenario arrays.
    """
    return (
        tuple(model.inputs),
        tuple(model.outputs),
        tuple(model.state_variables),
        float(model.timestep),
        tuple(
            (assignment.target, _skeleton(assignment.expression))
            for assignment in model.assignments
        ),
    )


# ---------------------------------------------------------------------------
# Constant lifting
# ---------------------------------------------------------------------------
class _ParameterLifter:
    """Collects per-scenario constant vectors, deduplicating identical ones."""

    def __init__(self) -> None:
        self.columns: list[tuple[float, ...]] = []
        self._slots: dict[tuple[float, ...], int] = {}

    def lift(self, values: tuple[float, ...]) -> Expr:
        index = self._slots.get(values)
        if index is None:
            index = len(self.columns)
            self.columns.append(values)
            self._slots[values] = index
        return Variable(f"{PARAM_PREFIX}{index}")


def _merge(exprs: Sequence[Expr], lifter: _ParameterLifter) -> Expr:
    """Merge structurally identical trees into one template expression.

    Constants equal across every scenario stay literal; differing constants
    become lifted parameter references.
    """
    first = exprs[0]
    if isinstance(first, Constant):
        values = tuple(expr.value for expr in exprs)  # type: ignore[union-attr]
        if all(value == values[0] for value in values):
            return first
        return lifter.lift(values)
    if isinstance(first, (Variable, Previous)):
        return first
    if isinstance(first, BinaryOp):
        return BinaryOp(
            first.op,
            _merge([expr.lhs for expr in exprs], lifter),  # type: ignore[attr-defined]
            _merge([expr.rhs for expr in exprs], lifter),  # type: ignore[attr-defined]
        )
    if isinstance(first, UnaryOp):
        return UnaryOp(first.op, _merge([expr.operand for expr in exprs], lifter))  # type: ignore[attr-defined]
    if isinstance(first, Call):
        return Call(
            first.func,
            [
                _merge([expr.args[i] for expr in exprs], lifter)  # type: ignore[attr-defined]
                for i in range(len(first.args))
            ],
        )
    if isinstance(first, Conditional):
        return Conditional(
            _merge([expr.condition for expr in exprs], lifter),  # type: ignore[attr-defined]
            _merge([expr.then for expr in exprs], lifter),  # type: ignore[attr-defined]
            _merge([expr.otherwise for expr in exprs], lifter),  # type: ignore[attr-defined]
        )
    raise CodeGenerationError(f"cannot merge node of type {type(first).__name__}")


# ---------------------------------------------------------------------------
# Affine row analysis (the stacked kernel's structure)
# ---------------------------------------------------------------------------
#: A term's atom: ``("input", name)``, ``("prev", state)`` or the constant 1.
Atom = tuple[str, str]
CONSTANT_ATOM: Atom = ("const", "1")

#: A coefficient as the generated tables spell it: a literal shared by every
#: scenario, or ``"p<k>"`` / ``"-p<k>"`` for plus/minus lifted parameter k.
Coefficient = Union[float, str]


def _coefficient(expr: Expr) -> "Coefficient | None":
    if isinstance(expr, Constant):
        return expr.value
    if isinstance(expr, Variable) and expr.name.startswith(PARAM_PREFIX):
        return "p" + expr.name[len(PARAM_PREFIX):]
    return None


def _negate(coefficient: Coefficient) -> Coefficient:
    """Exact negation (``a - c*x == a + (-c)*x`` bitwise in IEEE 754)."""
    if isinstance(coefficient, str):
        return coefficient[1:] if coefficient.startswith("-") else "-" + coefficient
    return -coefficient


def _leaf(expr: Expr, inputs: set[str], states: set[str]) -> "Atom | None":
    if isinstance(expr, Variable) and (expr.name in inputs or expr.name == TIME_VARIABLE):
        return ("input", expr.name)
    if isinstance(expr, Previous) and expr.name in states:
        return ("prev", expr.name)
    return None


def _term(expr: Expr, inputs: set[str], states: set[str]) -> "tuple[Atom, Coefficient] | None":
    """``expr`` as ``coefficient * atom`` with bit-identical arithmetic, if it is one.

    A bare atom has coefficient 1 and a negated term a negated coefficient;
    both multiplications are exact, so the scalar and stacked results agree
    bit for bit.
    """
    if isinstance(expr, UnaryOp) and expr.op in ("-", "+"):
        term = _term(expr.operand, inputs, states)
        if term is None or expr.op == "+":
            return term
        return term[0], _negate(term[1])
    coefficient = _coefficient(expr)
    if coefficient is not None:
        return CONSTANT_ATOM, coefficient
    atom = _leaf(expr, inputs, states)
    if atom is not None:
        return atom, 1.0
    if isinstance(expr, BinaryOp) and expr.op == "*":
        for factor, leaf in ((expr.lhs, expr.rhs), (expr.rhs, expr.lhs)):
            coefficient = _coefficient(factor)
            atom = _leaf(leaf, inputs, states)
            if coefficient is not None and atom is not None:
                return atom, coefficient
    return None


def _affine_row(
    expr: Expr, inputs: set[str], states: set[str]
) -> "list[tuple[Atom, Coefficient]] | None":
    """The terms of a left-to-right sum of distinct-atom terms, else ``None``."""
    if isinstance(expr, BinaryOp) and expr.op in ("+", "-"):
        head = _affine_row(expr.lhs, inputs, states)
        term = _term(expr.rhs, inputs, states)
        if head is None or term is None:
            return None
        if expr.op == "-":
            term = (term[0], _negate(term[1]))
        row = head + [term]
    else:
        term = _term(expr, inputs, states)
        if term is None:
            return None
        row = [term]
    if len({atom for atom, _ in row}) != len(row):
        return None
    return row


def _atom_order(rows: Sequence[Sequence[Atom]]) -> "list[Atom] | None":
    """One order every row's atom sequence is a subsequence of, if any.

    Ties are broken by first appearance, which reproduces the solver's own
    global atom order; ``None`` when the rows disagree on some order.
    """
    rank: dict[Atom, int] = {}
    successors: dict[Atom, set[Atom]] = {}
    indegree: dict[Atom, int] = {}
    for row in rows:
        for atom in row:
            if atom not in rank:
                rank[atom] = len(rank)
                successors[atom] = set()
                indegree[atom] = 0
        for before, after in zip(row, row[1:]):
            if after not in successors[before]:
                successors[before].add(after)
                indegree[after] += 1
    ready = [(rank[atom], atom) for atom, count in indegree.items() if count == 0]
    heapq.heapify(ready)
    order: list[Atom] = []
    while ready:
        _, atom = heapq.heappop(ready)
        order.append(atom)
        for after in successors[atom]:
            indegree[after] -= 1
            if indegree[after] == 0:
                heapq.heappush(ready, (rank[after], after))
    return order if len(order) == len(rank) else None


@dataclass(frozen=True)
class StackedLayout:
    """Structure of a stacked affine kernel, rendered into its class tables.

    ``rows`` are the accumulator rows: the stacked assignment targets first,
    then states computed by per-assignment rows or latched from inputs (their
    values are copied in).  ``blocks[j]`` is the ``[first, end)`` row range
    holding ``atoms[j]`` and ``coefficients[j]`` has one entry per block row
    (``None`` where that row lacks the atom, a hole masked out of the add).
    """

    rows: tuple[str, ...]
    n_stacked: int
    atoms: tuple[Atom, ...]
    blocks: tuple[tuple[int, int], ...]
    coefficients: tuple[tuple["Coefficient | None", ...], ...]
    state_rows: tuple[int, ...]
    #: Indices of the assignments left to per-assignment emission.
    fallback: tuple[int, ...]


def stacked_layout(
    model: SignalFlowModel, templates: Sequence[Expr]
) -> "StackedLayout | None":
    """The stacked-kernel layout of ``model``'s merged templates, if any row stacks."""
    inputs = set(model.inputs)
    states = set(model.state_variables)
    targets = [assignment.target for assignment in model.assignments]
    if len(set(targets)) != len(targets) or not states <= set(targets) | inputs:
        return None
    terms = [_affine_row(template, inputs, states) for template in templates]
    stacked = [index for index, row in enumerate(terms) if row is not None]
    if not stacked:
        return None
    order = _atom_order([[atom for atom, _ in terms[index]] for index in stacked])
    if order is None:
        return None

    rows = [targets[index] for index in stacked]
    rows += [
        targets[index]
        for index, row in enumerate(terms)
        if row is None and targets[index] in states
    ]
    rows += [name for name in model.state_variables if name in inputs]
    members: dict[Atom, dict[int, Coefficient]] = {atom: {} for atom in order}
    for row_index, index in enumerate(stacked):
        for atom, coefficient in terms[index]:
            members[atom][row_index] = coefficient
    blocks = []
    coefficients = []
    for atom in order:
        first, end = min(members[atom]), max(members[atom]) + 1
        blocks.append((first, end))
        coefficients.append(tuple(members[atom].get(row) for row in range(first, end)))
    return StackedLayout(
        rows=tuple(rows),
        n_stacked=len(stacked),
        atoms=tuple(order),
        blocks=tuple(blocks),
        coefficients=tuple(coefficients),
        state_rows=tuple(rows.index(state) for state in model.state_variables),
        fallback=tuple(index for index, row in enumerate(terms) if row is None),
    )


def _table_literal(value: "Coefficient | None") -> str:
    if isinstance(value, float) and not np.isfinite(value):
        return f"float({repr(value)!r})"
    return repr(value)


#: Structure-independent part of every stacked kernel: the constructor
#: builds the coefficient tensor from ``parameters`` and the per-parity
#: views the straight-line ``step_batch`` unpacks.
_STACKED_CONSTRUCTOR = '''
    def __init__(self, parameters, initial_state, n_scenarios):
        self.n_scenarios = n = int(n_scenarios)
        self._parameters = parameters = np.asarray(parameters, dtype=float)
        self._initial = np.asarray(initial_state, dtype=float)
        sizes = [end - first for first, end in self.BLOCKS]
        coefficients = np.zeros((sum(sizes), n))
        entries = [entry for block in self.COEFFICIENTS for entry in block]
        for row, entry in zip(coefficients, entries):
            if isinstance(entry, str):
                values = parameters[int(entry.lstrip("-p"))]
                row[...] = -values if entry.startswith("-") else values
            elif entry is not None:
                row[...] = entry
        scratch = np.empty((max(sizes), n))
        shared = []
        slot = 0
        for size, block in zip(sizes, self.COEFFICIENTS):
            shared += [coefficients[slot:slot + size], scratch[:size]]
            if None in block:
                shared.append(np.array([entry is not None for entry in block])[:, None])
            slot += size
        self._buffers = (np.zeros((len(self.ROWS), n)), np.zeros((len(self.ROWS), n)))
        self._views = tuple(
            (
                current,
                *[current[first:end] for first, end in self.BLOCKS],
                *shared,
                *[previous[row] for row in self.STATE_ROWS],
                *current,
            )
            for current, previous in (self._buffers, self._buffers[::-1])
        )
        self.reset()

    def reset(self):
        """Restore the initial state X0 for every scenario."""
        self._flip = 0
        self._buffers[0][list(self.STATE_ROWS)] = self._initial
'''


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------
@dataclass
class BatchArtifact:
    """A generated batch model plus the per-scenario data it executes with."""

    code: GeneratedCode
    #: Lifted coefficients, shape ``(n_parameters, n_scenarios)``.
    parameters: np.ndarray
    #: Initial state values, shape ``(n_states, n_scenarios)``.
    initial_state: np.ndarray
    n_scenarios: int

    def instantiate(self, cache: bool = True):
        """Compile (through the cache by default) and build a live instance."""
        cls = compile_batch(self.code, cache=cache)
        return cls(self.parameters, self.initial_state, self.n_scenarios)


class NumpyGenerator(CodeGenerator):
    """Generate a vectorized NumPy class advancing many scenarios per step."""

    name = "numpy"
    language = "NumPy"

    def generate(self, model: SignalFlowModel) -> GeneratedCode:
        """Single-model entry point of the registry: a batch of one."""
        return self.generate_batch([model]).code

    def generate_batch(self, models: Sequence[SignalFlowModel]) -> BatchArtifact:
        """Emit one ``step_batch`` class covering every model in ``models``."""
        if not models:
            raise CodeGenerationError("cannot generate a batch of zero models")
        first = models[0]
        self.check_model(first)
        signature = structure_signature(first)
        for model in models[1:]:
            if structure_signature(model) != signature:
                raise CodeGenerationError(
                    f"model {model.name!r} is not structurally identical to "
                    f"{first.name!r}; split the sweep into structure groups"
                )

        lifter = _ParameterLifter()
        templates = [
            _merge([model.assignments[i].expression for model in models], lifter)
            for i in range(len(first.assignments))
        ]
        initial = np.array(
            [
                [float(model.initial_state.get(state, 0.0)) for model in models]
                for state in first.state_variables
            ],
            dtype=float,
        ).reshape(len(first.state_variables), len(models))

        entity = class_name(first.name, "Batch")
        layout = stacked_layout(first, templates)
        prefix = "_prev_" if layout is not None else "self._prev_"
        renderer = ExpressionRenderer(
            "numpy",
            variable_formatter=self._variable_formatter(first),
            previous_formatter=lambda name: f"{prefix}{mangle(name)}",
        )

        lines: list[str] = []
        lines.append('"""Generated by repro.core.codegen.numpy_backend — do not edit."""')
        lines.append("")
        lines.append("import numpy as np")
        if layout is not None:
            lines.append("")
            lines.append("_add = np.add")
            lines.append("_mul = np.multiply")
        lines.append("")
        lines.append("")
        lines.append(f"class {entity}:")
        lines.append(
            f'    """Vectorized signal-flow model {first.name!r} ({first.source}): '
            'one instance advances every scenario of a sweep per step."""'
        )
        lines.append("")
        lines.append(f"    INPUTS = {tuple(first.inputs)!r}")
        lines.append(f"    OUTPUTS = {tuple(first.outputs)!r}")
        lines.append(f"    STATES = {tuple(first.state_variables)!r}")
        lines.append(f"    TIMESTEP = {first.timestep!r}")
        lines.append(f"    N_PARAMETERS = {len(lifter.columns)}")
        if layout is None:
            lines += self._per_assignment_body(first, templates, renderer)
        else:
            lines += self._stacked_body(first, templates, layout, renderer)
        lines.append("")
        source = "\n".join(lines)

        code = GeneratedCode(
            language=self.language,
            model_name=first.name,
            entity_name=entity,
            source=source,
            model=first,
            metadata={
                "backend": self.name,
                "kernel": "per-assignment" if layout is None else "stacked",
                "n_parameters": str(len(lifter.columns)),
                "n_scenarios": str(len(models)),
            },
        )
        parameters = np.array(lifter.columns, dtype=float).reshape(
            len(lifter.columns), len(models)
        )
        return BatchArtifact(
            code=code,
            parameters=parameters,
            initial_state=initial,
            n_scenarios=len(models),
        )

    def _step_header(self, model: SignalFlowModel) -> list[str]:
        arguments = ", ".join(mangle(name) for name in model.inputs)
        time_name = self.time_name()
        signature = f"self, {arguments}, {time_name}=0.0" if arguments else f"self, {time_name}=0.0"
        return [
            f"    def step_batch({signature}):",
            '        """Advance every scenario by one timestep; inputs broadcast '
            'against shape (n_scenarios,) arrays."""',
        ]

    @staticmethod
    def _assignment_lines(
        model: SignalFlowModel, templates: Sequence[Expr], indices, renderer
    ) -> list[str]:
        """One NumPy expression per assignment, after its lifted-parameter loads."""
        used_parameters = sorted(
            {
                int(name[len(PARAM_PREFIX):])
                for index in indices
                for name in templates[index].variables()
                if name.startswith(PARAM_PREFIX)
            }
        )
        lines = [f"        _p{index} = self._parameters[{index}]" for index in used_parameters]
        for index in indices:
            target = mangle(model.assignments[index].target)
            lines.append(f"        {target} = {renderer.render(templates[index])}")
        return lines

    def _per_assignment_body(self, model, templates, renderer) -> list[str]:
        lines = [
            "",
            "    def __init__(self, parameters, initial_state, n_scenarios):",
            "        self.n_scenarios = int(n_scenarios)",
            "        self._parameters = np.asarray(parameters, dtype=float)",
            "        self._initial = np.asarray(initial_state, dtype=float)",
            "        self.reset()",
            "",
            "    def reset(self):",
            '        """Restore the initial state X0 for every scenario."""',
        ]
        for index, state in enumerate(model.state_variables):
            lines.append(
                f"        self._prev_{mangle(state)} = "
                f"np.array(self._initial[{index}], dtype=float)"
            )
        if not model.state_variables:
            lines.append("        pass")
        lines.append("")
        lines += self._step_header(model)
        lines += self._assignment_lines(model, templates, range(len(templates)), renderer)
        for state in model.state_variables:
            lines.append(f"        self._prev_{mangle(state)} = {mangle(state)}")
        outputs = [mangle(name) for name in model.outputs]
        lines.append(f"        return {_returned(outputs)}")
        return lines

    def _stacked_body(self, model, templates, layout: StackedLayout, renderer) -> list[str]:
        atoms = range(len(layout.atoms))
        masked = {j for j in atoms if None in layout.coefficients[j]}
        row_names = [
            mangle(row) if index < layout.n_stacked else f"_into_{mangle(row)}"
            for index, row in enumerate(layout.rows)
        ]
        lines = [
            "    #: Accumulator rows: stacked assignment targets, then states copied in.",
            f"    ROWS = {layout.rows!r}",
            "    #: Atoms in accumulation order (an input, prev(state) or the constant 1).",
            f"    ATOMS = {layout.atoms!r}",
            "    #: Per atom, the [first, end) block of rows that contain it.",
            f"    BLOCKS = {layout.blocks!r}",
            f"    STATE_ROWS = {layout.state_rows!r}",
            "    #: Per atom, one coefficient per block row: a literal shared by every",
            "    #: scenario, 'p<k>' / '-p<k>' for +/- lifted parameter k, or None",
            "    #: where the row lacks the atom (masked out of the add).",
            "    COEFFICIENTS = (",
        ]
        for block in layout.coefficients:
            lines.append(f"        ({', '.join(_table_literal(entry) for entry in block)},),")
        lines.append("    )")
        lines += _STACKED_CONSTRUCTOR.splitlines()
        lines.append("")
        lines += self._step_header(model)
        views = ["_x"] + [f"_a{j}" for j in atoms]
        for j in atoms:
            views += [f"_c{j}", f"_t{j}"] + ([f"_m{j}"] if j in masked else [])
        views += [f"_prev_{mangle(state)}" for state in model.state_variables]
        views += row_names
        lines.append("        self._flip ^= 1")
        lines.append("        (")
        lines += textwrap.wrap(
            ", ".join(views) + ",",
            width=88,
            initial_indent=" " * 12,
            subsequent_indent=" " * 12,
            break_on_hyphens=False,
        )
        lines.append("        ) = self._views[self._flip]")
        lines.append("        _x.fill(-0.0)")
        for j, (kind, name) in enumerate(layout.atoms):
            where = f", where=_m{j}" if j in masked else ""
            if (kind, name) == CONSTANT_ATOM:
                lines.append(f"        _add(_a{j}, _c{j}, _a{j}{where})")
                continue
            value = mangle(name) if kind == "input" else f"_prev_{mangle(name)}"
            lines.append(f"        _mul(_c{j}, {value}, _t{j})")
            lines.append(f"        _add(_a{j}, _t{j}, _a{j}{where})")
        lines += self._assignment_lines(model, templates, layout.fallback, renderer)
        for row, name in zip(layout.rows[layout.n_stacked:], row_names[layout.n_stacked:]):
            lines.append(f"        {name}[...] = {mangle(row)}")
        # Outputs that name accumulator rows (directly or through a bare
        # alias) are copied: the buffer is rewritten two steps later.
        views = set(layout.rows[: layout.n_stacked])
        for index in layout.fallback:
            if isinstance(templates[index], Variable) and templates[index].name in views:
                views.add(model.assignments[index].target)
        outputs = [
            f"{mangle(name)}.copy()" if name in views else mangle(name)
            for name in model.outputs
        ]
        lines.append(f"        return {_returned(outputs)}")
        return lines

    @staticmethod
    def _variable_formatter(model: SignalFlowModel):
        inputs = set(model.inputs)
        targets = {assignment.target for assignment in model.assignments}

        def formatter(name: str) -> str:
            if name.startswith(PARAM_PREFIX):
                return f"_p{int(name[len(PARAM_PREFIX):])}"
            if name == TIME_VARIABLE:
                return mangle(TIME_VARIABLE)
            if name in inputs or name in targets:
                return mangle(name)
            raise CodeGenerationError(
                f"expression references {name!r}, which is neither an input "
                "nor a computed quantity"
            )

        return formatter


def _returned(values: Sequence[str]) -> str:
    return values[0] if len(values) == 1 else f"({', '.join(values)},)"


def compile_batch(code: GeneratedCode, cache: bool = True) -> type:
    """Compile a NumPy batch artefact into its class, using the shared cache."""
    if code.language != "NumPy":
        raise CodeGenerationError(
            f"can only compile NumPy artefacts, not {code.language!r}"
        )
    if cache:
        return compile_cached(code, _exec_compile)
    return _exec_compile(code)


def _exec_compile(code: GeneratedCode) -> type:
    namespace: dict[str, object] = {}
    exec(compile(code.source, f"<generated:{code.model_name}:numpy>", "exec"), namespace)
    cls = namespace.get(code.entity_name)
    if not isinstance(cls, type):
        raise CodeGenerationError(
            f"generated source did not define the class {code.entity_name!r}"
        )
    return cls


def batch_model(models: Sequence[SignalFlowModel], cache: bool = True):
    """Convenience: generate, compile and instantiate a batch in one call."""
    return NumpyGenerator().generate_batch(models).instantiate(cache=cache)
