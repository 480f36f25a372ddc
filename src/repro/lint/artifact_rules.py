"""Layer 2: the codegen artifact verifier.

Static contract checks over what the abstraction pipeline *produces* —
the :class:`~repro.core.signalflow.SignalFlowModel` IR, the emitted
python/numpy batch sources and the native-C translation unit — run before
any of it executes.  The fuzz oracle runs these as a pre-execution stage
(:mod:`repro.zoo.oracle`), and the sweep/fault runners can enable them as
a strict gate.

Rules:

* ``ir-undefined-reference`` / ``ir-state-never-computed`` /
  ``ir-output-never-computed`` — the :meth:`SignalFlowModel.validate`
  contract, reported as diagnostics instead of raised;
* ``ir-duplicate-target`` — the same quantity assigned twice in one step;
* ``ir-nonfinite-constant`` / ``ir-nonpositive-timestep`` — NaN/Inf
  literals baked into the model, or a timestep the integrators cannot use;
* ``py-syntax-error`` / ``py-nonfinite-literal`` /
  ``py-state-write-before-read`` — generated python/numpy sources (state
  slots are ``self._prev_*`` attributes, or the ``_prev_*`` row views of a
  stacked NumPy kernel, written through ``out=`` or a subscript store);
* ``c-undefined-identifier`` / ``c-nonfinite-literal`` — the generated C
  translation unit (identifier closure against its own declarations and
  the ``math.h`` surface);
* ``artifact-shape-mismatch`` / ``artifact-nonfinite-data`` — per-scenario
  parameter and state arrays of a batch artifact, and the row-block tables
  of a stacked NumPy kernel (block bounds, coefficient counts, masks,
  parameter references and the finiteness of every coefficient, reported
  at the table line of its atom).
"""

from __future__ import annotations

import ast as python_ast
import math
import re

from ..core.signalflow import TIME_VARIABLE, SignalFlowModel
from ..expr.ast import Constant
from .diagnostics import SEVERITY_ERROR, SEVERITY_WARNING, LintReport

# ---------------------------------------------------------------------------
# SignalFlowModel IR
# ---------------------------------------------------------------------------
def lint_model(model: SignalFlowModel, file: str = "<model>") -> LintReport:
    """Contract checks over a signal-flow model, as diagnostics."""
    report = LintReport()
    known: set[str] = set(model.inputs) | {TIME_VARIABLE}
    targets = list(model.assignment_targets())
    target_set = set(targets)

    seen: set[str] = set()
    for target in targets:
        if target in seen:
            report.add(
                "ir-duplicate-target",
                SEVERITY_ERROR,
                f"quantity {target!r} is assigned more than once per step",
                file=file,
            )
        seen.add(target)

    for assignment in model.assignments:
        for name in assignment.expression.variables():
            if name in known or name in target_set:
                continue
            report.add(
                "ir-undefined-reference",
                SEVERITY_ERROR,
                f"assignment {assignment.target!r} references the unknown "
                f"quantity {name!r}",
                file=file,
            )
        for node in assignment.expression.walk():
            if isinstance(node, Constant) and not math.isfinite(node.value):
                report.add(
                    "ir-nonfinite-constant",
                    SEVERITY_ERROR,
                    f"assignment {assignment.target!r} contains the "
                    f"non-finite constant {node.value!r}",
                    file=file,
                )
        known.add(assignment.target)

    for state in model.referenced_states():
        if state not in target_set and state not in model.inputs:
            report.add(
                "ir-state-never-computed",
                SEVERITY_ERROR,
                f"state variable {state!r} is referenced but never computed",
                file=file,
            )
    for output in model.outputs:
        if output not in target_set and output not in model.inputs:
            report.add(
                "ir-output-never-computed",
                SEVERITY_ERROR,
                f"output {output!r} is never computed",
                file=file,
            )
    for state, value in model.initial_state.items():
        if not math.isfinite(value):
            report.add(
                "ir-nonfinite-constant",
                SEVERITY_ERROR,
                f"initial state of {state!r} is non-finite ({value!r})",
                file=file,
            )
    if not (model.timestep > 0.0 and math.isfinite(model.timestep)):
        report.add(
            "ir-nonpositive-timestep",
            SEVERITY_ERROR,
            f"timestep {model.timestep!r} is unusable for discretisation",
            file=file,
        )
    return report


# ---------------------------------------------------------------------------
# Generated python/numpy sources
# ---------------------------------------------------------------------------
_NONFINITE_NAMES = ("nan", "inf", "NAN", "INFINITY", "NaN", "Inf")


def lint_python_source(code: str, file: str = "<generated.py>") -> LintReport:
    """Static checks over an emitted python/numpy batch kernel."""
    report = LintReport()
    try:
        tree = python_ast.parse(code)
    except SyntaxError as error:
        report.add(
            "py-syntax-error",
            SEVERITY_ERROR,
            f"generated python does not parse: {error.msg}",
            file=file,
            line=error.lineno or 0,
            column=(error.offset or 1),
        )
        return report

    for node in python_ast.walk(tree):
        if isinstance(node, python_ast.Constant) and isinstance(node.value, float):
            if not math.isfinite(node.value):
                report.add(
                    "py-nonfinite-literal",
                    SEVERITY_ERROR,
                    f"non-finite literal {node.value!r} in generated python",
                    file=file,
                    line=node.lineno,
                    column=node.col_offset + 1,
                )
        if isinstance(node, python_ast.Call):
            func = node.func
            if (
                isinstance(func, python_ast.Name)
                and func.id == "float"
                and node.args
                and isinstance(node.args[0], python_ast.Constant)
                and str(node.args[0].value).strip().lower() in ("nan", "inf", "-inf")
            ):
                report.add(
                    "py-nonfinite-literal",
                    SEVERITY_ERROR,
                    f"non-finite literal float({node.args[0].value!r}) in "
                    "generated python",
                    file=file,
                    line=node.lineno,
                    column=node.col_offset + 1,
                )

    # State contract: inside every method, each state slot must be read
    # before it is overwritten — writing first would silently discard the
    # previous-timestep value the discretisation depends on.
    aliases = _ufunc_aliases(tree)
    for function in python_ast.walk(tree):
        if not isinstance(function, (python_ast.FunctionDef, python_ast.AsyncFunctionDef)):
            continue
        if function.name in ("__init__", "reset"):
            continue  # initializers legitimately seed the state slots
        first: dict[str, bool] = {}
        for lineno, col, slot, is_store in sorted(_state_accesses(function, aliases)):
            if slot not in first:
                first[slot] = is_store
                if is_store:
                    report.add(
                        "py-state-write-before-read",
                        SEVERITY_ERROR,
                        f"state slot {slot!r} is written before it is read in "
                        f"{function.name}(); the previous-timestep value is lost",
                        file=file,
                        line=lineno,
                        column=col + 1,
                    )
    return report


def _ufunc_aliases(tree: python_ast.Module) -> dict[str, int]:
    """Module-level ``name = np.<ufunc>`` bindings, with the ufunc's input count."""
    aliases = {}
    for node in tree.body:
        if (
            isinstance(node, python_ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], python_ast.Name)
        ):
            inputs = _ufunc_inputs(node.value, {})
            if inputs is not None:
                aliases[node.targets[0].id] = inputs
    return aliases


def _ufunc_inputs(func: python_ast.expr, aliases: dict[str, int]) -> "int | None":
    """Input count of the NumPy ufunc ``func`` names, or ``None``."""
    import numpy as np

    if isinstance(func, python_ast.Name):
        return aliases.get(func.id)
    if (
        isinstance(func, python_ast.Attribute)
        and isinstance(func.value, python_ast.Name)
        and func.value.id in ("np", "numpy")
    ):
        ufunc = getattr(np, func.attr, None)
        if isinstance(ufunc, np.ufunc):
            return ufunc.nin
    return None


def _state_accesses(function, aliases: dict[str, int]):
    """``(line, column, slot, is_write)`` for every state access in ``function``.

    Slots are ``self._prev_*`` attributes and ``_prev_*`` local views; a view
    is written when it is a ufunc's output (``out=`` or a positional output
    argument), a subscript store target or an augmented assignment target.
    Binding the view name itself is not an access.
    """
    written: set[int] = set()
    for node in python_ast.walk(function):
        if isinstance(node, python_ast.Call):
            inputs = _ufunc_inputs(node.func, aliases)
            outputs = node.args[inputs:] if inputs is not None else []
            outputs += [keyword.value for keyword in node.keywords if keyword.arg == "out"]
            written.update(id(output) for output in outputs)
        elif isinstance(node, python_ast.Subscript) and isinstance(
            node.ctx, (python_ast.Store, python_ast.Del)
        ):
            written.add(id(node.value))
        elif isinstance(node, python_ast.AugAssign):
            written.add(id(node.target))
    for node in python_ast.walk(function):
        if (
            isinstance(node, python_ast.Attribute)
            and isinstance(node.value, python_ast.Name)
            and node.value.id == "self"
            and node.attr.startswith("_prev_")
        ):
            is_store = isinstance(node.ctx, python_ast.Store)
            yield node.lineno, node.col_offset, node.attr, is_store
        elif isinstance(node, python_ast.Name) and node.id.startswith("_prev_"):
            if id(node) in written:
                yield node.lineno, node.col_offset, node.id, True
            elif isinstance(node.ctx, python_ast.Load):
                yield node.lineno, node.col_offset, node.id, False


# ---------------------------------------------------------------------------
# Generated C translation unit
# ---------------------------------------------------------------------------
_C_KEYWORDS = frozenset(
    "void int const double float char long short unsigned signed for if else "
    "while do return static inline extern struct union enum sizeof typedef "
    "break continue switch case default goto volatile register restrict".split()
)

#: The math.h surface the code generator may call.
_C_MATH = frozenset(
    "sin cos tan asin acos atan atan2 sinh cosh tanh exp log log10 log2 sqrt "
    "fabs fmin fmax pow floor ceil fmod copysign expm1 log1p cbrt hypot".split()
)

_C_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_C_DECLARATION = re.compile(
    r"\b(?:const\s+)?(?:double|int|float|long|unsigned)\s*\*?\s*([A-Za-z_][A-Za-z0-9_]*)"
)


def _strip_c_noise(code: str) -> str:
    """Remove comments, string literals and preprocessor lines."""
    code = re.sub(r"/\*.*?\*/", " ", code, flags=re.DOTALL)
    code = re.sub(r"//[^\n]*", " ", code)
    code = re.sub(r'"(?:\\.|[^"\\])*"', " ", code)
    lines = [
        line for line in code.splitlines() if not line.lstrip().startswith("#")
    ]
    return "\n".join(lines)


def lint_c_source(code: str, file: str = "<generated.c>") -> LintReport:
    """Identifier closure and literal checks over a generated C translation unit."""
    report = LintReport()
    body = _strip_c_noise(code)

    declared: set[str] = set(_C_DECLARATION.findall(body))
    # Function definitions declare their own name.
    declared.update(
        match.group(1)
        for match in re.finditer(r"\b([A-Za-z_][A-Za-z0-9_]*)\s*\([^;]*\)\s*\{", body)
    )

    for lineno, line in enumerate(body.splitlines(), start=1):
        for match in _C_IDENTIFIER.finditer(line):
            name = match.group(0)
            if name in _NONFINITE_NAMES:
                report.add(
                    "c-nonfinite-literal",
                    SEVERITY_ERROR,
                    f"non-finite literal {name!r} in the generated C source",
                    file=file,
                    line=lineno,
                    column=match.start() + 1,
                )
                continue
            if name in _C_KEYWORDS or name in _C_MATH or name in declared:
                continue
            report.add(
                "c-undefined-identifier",
                SEVERITY_ERROR,
                f"identifier {name!r} is used but never declared in the "
                "translation unit",
                file=file,
                line=lineno,
                column=match.start() + 1,
            )
    return report


# ---------------------------------------------------------------------------
# Batch artifacts (code + per-scenario arrays)
# ---------------------------------------------------------------------------
def lint_artifact(artifact, file: str = "<artifact>") -> LintReport:
    """Shape and finiteness checks over a compiled batch artifact.

    Works for both the numpy :class:`BatchArtifact` and the native
    :class:`NativeArtifact` (same field contract); the python source of the
    artifact (the NumPy fallback of a native one) is linted too, including
    the row-block tables of a stacked kernel.
    """
    import numpy as np

    report = LintReport()
    n_scenarios = int(artifact.n_scenarios)
    parameters = np.asarray(artifact.parameters)
    initial_state = np.asarray(artifact.initial_state)
    if parameters.ndim != 2 or parameters.shape[1] != n_scenarios:
        report.add(
            "artifact-shape-mismatch",
            SEVERITY_ERROR,
            f"parameter array has shape {parameters.shape}, expected "
            f"(n_parameters, {n_scenarios})",
            file=file,
        )
    if initial_state.ndim != 2 or initial_state.shape[1] != n_scenarios:
        report.add(
            "artifact-shape-mismatch",
            SEVERITY_ERROR,
            f"initial-state array has shape {initial_state.shape}, expected "
            f"(n_states, {n_scenarios})",
            file=file,
        )
    if parameters.size and not np.isfinite(parameters).all():
        report.add(
            "artifact-nonfinite-data",
            SEVERITY_ERROR,
            "parameter array contains non-finite values",
            file=file,
        )
    if initial_state.size and not np.isfinite(initial_state).all():
        report.add(
            "artifact-nonfinite-data",
            SEVERITY_ERROR,
            "initial-state array contains non-finite values",
            file=file,
        )
    source = _python_source(artifact)
    if source is not None:
        report.extend(lint_python_source(source, file=file))
        if parameters.ndim == 2:
            report.extend(_lint_stacked_tables(source, parameters, file=file))
    if parameters.ndim == 2 and parameters.shape[1] == n_scenarios:
        n_parameters = getattr(artifact, "n_parameters", None)
        if n_parameters is not None and parameters.shape[0] != n_parameters:
            report.add(
                "artifact-shape-mismatch",
                SEVERITY_WARNING,
                f"parameter array has {parameters.shape[0]} rows but the "
                f"artifact declares {n_parameters} parameters",
                file=file,
            )
    return report


def _python_source(artifact) -> "str | None":
    code = getattr(artifact, "code", None)
    if isinstance(code, str):
        return code
    if getattr(code, "language", None) == "NumPy":
        return code.source
    fallback = getattr(artifact, "fallback_code", None)
    return getattr(fallback, "source", None)


#: Class-level tables of a stacked NumPy kernel (see ``numpy_backend``).
_STACKED_TABLES = ("STATES", "ROWS", "ATOMS", "BLOCKS", "STATE_ROWS", "COEFFICIENTS")


def _table_value(node: python_ast.expr):
    """A table literal; ``float('nan')``-style calls evaluate to their float."""
    if (
        isinstance(node, python_ast.Call)
        and isinstance(node.func, python_ast.Name)
        and node.func.id == "float"
        and len(node.args) == 1
        and isinstance(node.args[0], python_ast.Constant)
    ):
        return float(node.args[0].value)
    return python_ast.literal_eval(node)


def _lint_stacked_tables(code: str, parameters, file: str = "<generated.py>") -> LintReport:
    """Shape and finiteness checks over a stacked kernel's row-block tables.

    Each atom's ``BLOCKS`` entry must be a tight row range inside ``ROWS``
    with one ``COEFFICIENTS`` entry per block row (``None`` marks a masked
    hole); parameter references must name rows of ``parameters`` and every
    coefficient a lane can see must be finite.  Diagnostics point at the
    table line of the offending atom.  Sources without the tables (the
    per-assignment kernels) yield an empty report.
    """
    import numpy as np

    report = LintReport()
    try:
        tree = python_ast.parse(code)
    except SyntaxError:
        return report  # reported by lint_python_source
    nodes: dict[str, python_ast.expr] = {}
    for node in python_ast.walk(tree):
        if isinstance(node, python_ast.ClassDef):
            for statement in node.body:
                if (
                    isinstance(statement, python_ast.Assign)
                    and len(statement.targets) == 1
                    and isinstance(statement.targets[0], python_ast.Name)
                    and statement.targets[0].id in _STACKED_TABLES
                ):
                    nodes[statement.targets[0].id] = statement.value
    if "COEFFICIENTS" not in nodes:
        return report

    def problem(rule: str, message: str, node: python_ast.AST) -> None:
        report.add(
            rule,
            SEVERITY_ERROR,
            message,
            file=file,
            line=node.lineno,
            column=node.col_offset + 1,
        )

    missing = [name for name in _STACKED_TABLES if name not in nodes]
    blocks_node = nodes["COEFFICIENTS"]
    if missing or not isinstance(blocks_node, python_ast.Tuple):
        problem(
            "artifact-shape-mismatch",
            f"stacked kernel tables are incomplete (missing {', '.join(missing) or 'none'})",
            blocks_node,
        )
        return report
    rows = _table_value(nodes["ROWS"])
    atoms = _table_value(nodes["ATOMS"])
    blocks = _table_value(nodes["BLOCKS"])
    state_rows = _table_value(nodes["STATE_ROWS"])
    states = _table_value(nodes["STATES"])
    if not len(atoms) == len(blocks) == len(blocks_node.elts):
        problem(
            "artifact-shape-mismatch",
            f"stacked kernel has {len(atoms)} atoms, {len(blocks)} row blocks and "
            f"{len(blocks_node.elts)} coefficient blocks",
            blocks_node,
        )
        return report
    if len(state_rows) != len(states) or any(
        not 0 <= row < len(rows) for row in state_rows
    ):
        problem(
            "artifact-shape-mismatch",
            f"STATE_ROWS {state_rows!r} does not map the {len(states)} states "
            f"onto the {len(rows)} accumulator rows",
            nodes["STATE_ROWS"],
        )
    parameters = np.asarray(parameters, dtype=float)
    for atom, (first, end), node in zip(atoms, blocks, blocks_node.elts):
        entries = _table_value(node)
        if not (0 <= first < end <= len(rows)) or len(entries) != end - first:
            problem(
                "artifact-shape-mismatch",
                f"atom {atom!r} has {len(entries)} coefficients for the row "
                f"block [{first}, {end}) of {len(rows)} rows",
                node,
            )
            continue
        if entries[0] is None or entries[-1] is None:
            problem(
                "artifact-shape-mismatch",
                f"the mask of atom {atom!r} excludes an edge of its row block "
                f"[{first}, {end}); the block is not tight",
                node,
            )
        for row, entry in zip(rows[first:end], entries):
            if isinstance(entry, str):
                index = int(entry.lstrip("-p"))
                if index >= parameters.shape[0]:
                    problem(
                        "artifact-shape-mismatch",
                        f"coefficient {entry!r} of atom {atom!r} in row {row!r} "
                        f"references parameter {index} of {parameters.shape[0]}",
                        node,
                    )
                    continue
                values = parameters[index]
            elif entry is None:
                continue
            else:
                values = np.asarray([entry], dtype=float)
            if not np.isfinite(values).all():
                problem(
                    "artifact-nonfinite-data",
                    f"coefficient {entry!r} of atom {atom!r} in row {row!r} is "
                    "non-finite",
                    node,
                )
    return report
