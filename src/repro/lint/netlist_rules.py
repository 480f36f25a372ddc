"""Layer 1: the netlist semantic linter.

Static checks over Verilog-AMS modules (and, at a lower level, typed
:class:`~repro.network.circuit.Circuit` objects) that catch ill-posed
descriptions *before* abstraction and simulation pay for them:

* ``floating-node`` / ``ground-unreachable`` — dangling or disconnected
  topology over the conservative component graph;
* ``vsource-loop`` / ``isource-cutset`` / ``zero-value`` — singular MNA
  systems (voltage-source loops, all-current-source nodes, zero-valued
  component laws) detected before the solver sees them;
* ``nonphysical-value`` / ``suspicious-magnitude`` — negative R/C/L and
  magnitudes that force degenerate timesteps;
* ``dead-arm`` / ``unfoldable-condition`` — conditional arms that can never
  execute (literal-constant conditions) and conservative conditionals that
  do not fold at elaboration time;
* ``unused-parameter`` / ``unused-net`` / ``unused-branch`` /
  ``unused-variable`` — declarations nothing reads;
* ``mixed-description`` — the :mod:`repro.vams.classify` MIXED advisory.

Modules are not re-analysed here: the component, value and conditional
rules report the elements and findings of the netlist builder's own
elaboration pass (:meth:`repro.vams.netlist.NetlistBuilder.elaborate`), so
what the linter accepts is what the builder builds.  The topology rules run
on :class:`~repro.network.graph.CircuitGraph`.  Every diagnostic carries
the 1-based line/column recorded by the parser.
"""

from __future__ import annotations

from ..errors import VamsError
from ..expr.ast import Access, Expr, Variable
from ..network.circuit import Circuit
from ..network.graph import CircuitGraph
from ..vams.ast import Contribution, IfStatement, VamsModule
from ..vams.classify import MIXED
from ..vams.netlist import Element, Finding, NetlistBuilder, nonphysical_finding
from ..vams.parser import parse_source
from .diagnostics import (
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    LintReport,
)

#: Plausibility bands for recognised component values (outside -> warning).
#: Values beyond these force degenerate timesteps or are almost certainly
#: unit mistakes (a farad-sized capacitor, a tera-ohm resistor).
MAGNITUDE_BANDS = {
    "resistor": (1e-3, 1e9),
    "capacitor": (1e-15, 1e-1),
    "inductor": (1e-9, 1e2),
}

#: Component kinds whose branch pins node voltages (vsource-loop analysis).
_VOLTAGE_DEFINED = ("vsource", "vcvs")

#: Component kinds that force a branch current (isource-cutset analysis).
_CURRENT_DEFINED = ("isource", "vccs")


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------
def lint_source(source: str, file: str = "<memory>") -> LintReport:
    """Lint Verilog-AMS source text (every module it defines)."""
    report = LintReport()
    try:
        modules = parse_source(source)
    except VamsError as error:
        report.add(
            "parse-error",
            SEVERITY_ERROR,
            str(error),
            file=file,
            line=error.line,
            column=error.column,
        )
        return report
    for module in modules:
        report.extend(lint_module(module, file=file))
    return report


def lint_module(module: VamsModule, file: str = "<memory>") -> LintReport:
    """Lint a parsed module: declarations, conditionals and (when the module
    is conservative) the component graph."""
    report = LintReport()
    elaboration = NetlistBuilder(module).elaborate()
    classification = elaboration.classification
    if classification.category == MIXED:
        statement = (
            classification.signal_flow_statements[0]
            if classification.signal_flow_statements
            else None
        )
        report.add(
            "mixed-description",
            SEVERITY_INFO,
            f"module {module.name!r} mixes conservative and signal-flow "
            "contributions; the whole module is abstracted as conservative",
            file=file,
            line=getattr(statement, "line", 0),
            column=getattr(statement, "column", 0),
            hint="split the signal-flow relation into its own module",
        )
    _lint_unused(module, report, file)
    for finding in elaboration.findings:
        _report(report, finding, file)
    if classification.is_conservative:
        _lint_branches(
            elaboration.inputs + elaboration.elements,
            ground=elaboration.ground,
            exempt=frozenset(module.port_names()),
            positions=module.declaration_positions,
            report=report,
            file=file,
        )
    return report


def lint_netlist(netlist) -> LintReport:
    """Lint a generated :class:`~repro.zoo.generate.ZooNetlist` (via its source)."""
    from ..zoo.generate import render

    return lint_source(render(netlist), file=f"<zoo:{netlist.name}>")


def lint_circuit(circuit: Circuit, file: str = "<circuit>") -> LintReport:
    """Graph-level lint of an already-built circuit (no source positions).

    This is the entry point of the fault-campaign strict gate: an injected
    fault that leaves the circuit topologically singular is reported here
    instead of crashing inside the solver.  Fault models mutate values via
    ``setattr``, so the non-physical check runs again on the built values.
    """
    elements = [Element.of_branch(branch) for branch in circuit]
    report = LintReport()
    for element in elements:
        finding = nonphysical_finding(element)
        if finding is not None:
            _report(report, finding, file)
    _lint_branches(
        elements,
        ground=circuit.ground,
        exempt=frozenset(),
        positions={},
        report=report,
        file=file,
    )
    return report


def _report(report: LintReport, finding: Finding, file: str) -> None:
    report.add(
        finding.rule,
        finding.severity,
        finding.message,
        file=file,
        line=finding.line,
        column=finding.column,
        hint=finding.hint,
    )


# ---------------------------------------------------------------------------
# Unused declarations
# ---------------------------------------------------------------------------
def _access_nets(name: str) -> "list[str]":
    """The net/branch argument names of a canonical access name ``V(a,b)``."""
    return [part.strip() for part in name[2:-1].split(",")]


def _lint_unused(module: VamsModule, report: LintReport, file: str) -> None:
    read_names: set[str] = set()
    access_args: set[str] = set()

    def scan_expression(expression: Expr) -> None:
        for node in expression.walk():
            if isinstance(node, Access):
                access_args.update(_access_nets(node.name))
            elif isinstance(node, Variable):
                read_names.add(node.name)

    for statement in module.iter_statements():
        if isinstance(statement, Contribution):
            scan_expression(statement.expression)
            target = statement.target
            for part in (target.positive, target.negative, target.branch):
                if part:
                    access_args.add(part)
        elif isinstance(statement, IfStatement):
            scan_expression(statement.condition)
        elif hasattr(statement, "expression"):
            scan_expression(statement.expression)

    for parameter in module.parameters:
        used = parameter.name in read_names or any(
            parameter.name in getattr(other, "uses", ())
            for other in module.parameters
            if other is not parameter
        )
        if not used:
            report.add(
                "unused-parameter",
                SEVERITY_WARNING,
                f"parameter {parameter.name!r} is never read",
                file=file,
                line=parameter.line,
                column=parameter.column,
                hint="delete the declaration or wire the parameter in",
            )

    branch_nets = {
        net for branch in module.branches for net in (branch.positive, branch.negative)
    }
    port_names = set(module.port_names())
    for branch in module.branches:
        if branch.name not in access_args:
            report.add(
                "unused-branch",
                SEVERITY_WARNING,
                f"branch {branch.name!r} is declared but never accessed",
                file=file,
                line=branch.line,
                column=branch.column,
            )
    for net in module.electrical_nets():
        if net in port_names or net in module.grounds:
            continue
        if net in access_args or net in branch_nets:
            continue
        line, column = module.declaration_positions.get(net, (0, 0))
        report.add(
            "unused-net",
            SEVERITY_WARNING,
            f"net {net!r} is declared but never connected",
            file=file,
            line=line,
            column=column,
        )
    for variable in module.real_variables:
        if variable in read_names:
            continue
        line, column = module.declaration_positions.get(variable, (0, 0))
        report.add(
            "unused-variable",
            SEVERITY_WARNING,
            f"variable {variable!r} is never read",
            file=file,
            line=line,
            column=column,
        )


# ---------------------------------------------------------------------------
# Value and topology rules over elaborated branches
# ---------------------------------------------------------------------------
def _lint_branches(
    elements: "list[Element]",
    ground: str,
    exempt: "frozenset[str]",
    positions: "dict[str, tuple[int, int]]",
    report: LintReport,
    file: str,
) -> None:
    """Magnitude and topology rules (shared by module and circuit lint).

    Nets a controlled source senses are legitimate high-impedance probe
    points, so they join ``exempt`` from the floating-node rule.
    """
    for element in elements:
        if element.kind not in MAGNITUDE_BANDS or element.value <= 0.0:
            continue
        low, high = MAGNITUDE_BANDS[element.kind]
        if not (low <= element.value <= high):
            report.add(
                "suspicious-magnitude",
                SEVERITY_WARNING,
                f"{element.kind} {element.name!r} has value {element.value:g}, "
                f"outside the plausible band [{low:g}, {high:g}]",
                file=file,
                line=element.line,
                column=element.column,
                hint="extreme values force degenerate timesteps; check the units",
            )
    if not elements:
        return
    exempt = exempt | {node for element in elements for node in element.control or ()}
    graph = CircuitGraph.from_branches(elements, ground)
    nodes = sorted(graph.nodes)

    def node_position(node: str) -> "tuple[int, int]":
        if node in positions:
            return positions[node]
        first = graph.incident_branches(node)[0]
        return first.line, first.column

    def add(rule: str, node: str, message: str, hint: str) -> None:
        line, column = node_position(node)
        report.add(
            rule, SEVERITY_ERROR, message, file=file, line=line, column=column, hint=hint
        )

    # floating-node: a non-ground, non-port node with a single terminal.
    for node in nodes:
        if node != ground and node not in exempt and graph.degree(node) == 1:
            add(
                "floating-node",
                node,
                f"node {node!r} is floating: only one component terminal touches it",
                "every internal node needs at least two connections",
            )

    for node in sorted(set(nodes) - graph.reachable_from(ground)):
        add(
            "ground-unreachable",
            node,
            f"node {node!r} has no path to ground {ground!r}",
            "the nodal equations of a disconnected island are singular",
        )

    # vsource-loop: union-find over voltage-defined branches.
    parent: dict[str, str] = {}

    def find(node: str) -> str:
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for element in elements:
        if element.kind not in _VOLTAGE_DEFINED:
            continue
        root_p, root_n = find(element.positive), find(element.negative)
        if root_p == root_n:
            report.add(
                "vsource-loop",
                SEVERITY_ERROR,
                f"voltage source {element.name!r} closes a loop of "
                "voltage-defined branches",
                file=file,
                line=element.line,
                column=element.column,
                hint="a loop of voltage sources over-constrains the node voltages",
            )
            continue
        parent[root_p] = root_n

    # isource-cutset: a node whose every incident branch forces its current.
    for node in nodes:
        if node != ground and all(
            branch.kind in _CURRENT_DEFINED for branch in graph.incident_branches(node)
        ):
            add(
                "isource-cutset",
                node,
                f"every branch at node {node!r} is a current source; KCL "
                "over-constrains the branch currents",
                "give the node a resistive or capacitive path",
            )
