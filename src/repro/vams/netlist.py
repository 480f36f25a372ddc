"""Netlist extraction: from a parsed Verilog-AMS module to a :class:`Circuit`.

The acquisition step of the abstraction methodology (paper Section IV.A)
"retrieves information concerning the topology of the electrical network"
from the set of dipole equations.  This module performs that retrieval: it
maps every contribution statement of a conservative analog block onto a typed
network component connected between two nodes, producing a
:class:`repro.network.circuit.Circuit` whose dipole equations are exactly the
parsed contribution statements (with parameters substituted).

Input ports of the module become independent voltage sources driven by
external stimuli of the same name — the analog input signals ``U`` of the
paper's problem statement.

The retrieval is one positioned pass, :meth:`NetlistBuilder.elaborate`.  It
never raises for a contribution: it yields one :class:`Element` per active
contribution and records what it cannot map as :class:`Finding` objects at
the statement's line and column.  :meth:`NetlistBuilder.build` turns the
elements into components and raises the fatal findings as
:class:`NetlistError`; the Layer-1 linter (:mod:`repro.lint.netlist_rules`)
reports the same elements and findings, so build and lint agree by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import EvaluationError, VamsError
from ..expr.ast import (
    Access,
    BinaryOp,
    Constant,
    Derivative,
    Expr,
    Integral,
    UnaryOp,
    Variable,
    substitute,
    transform,
)
from ..expr.equation import DIPOLE, Equation
from ..expr.evaluate import evaluate
from ..expr.simplify import constant_value, simplify
from ..network.circuit import Branch, Circuit
from ..network.components import (
    VCCS,
    VCVS,
    Capacitor,
    Component,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
)
from .ast import (
    INPUT,
    POTENTIAL,
    AccessRef,
    AnalogStatement,
    Block,
    Contribution,
    IfStatement,
    VamsModule,
)
from .classify import Classification, classify_module

DEFAULT_GROUND_NAMES = ("gnd", "ground", "vss", "0")

#: Finding rules (they double as the Layer-1 lint rule names).
DEAD_ARM = "dead-arm"
UNFOLDABLE_CONDITION = "unfoldable-condition"
UNRECOGNISED_CONTRIBUTION = "unrecognised-contribution"
ZERO_VALUE = "zero-value"
NONPHYSICAL_VALUE = "nonphysical-value"

#: Findings :meth:`NetlistBuilder.build` raises.  ``dead-arm`` and
#: ``zero-value`` are advisory: such a module still elaborates to a circuit
#: (a zero-valued law becomes a zero source), and only the linter rejects it.
BUILD_ERRORS = (UNFOLDABLE_CONDITION, UNRECOGNISED_CONTRIBUTION, NONPHYSICAL_VALUE)

#: Component kind -> (component class, the field holding its value).
COMPONENT_KINDS: "dict[str, tuple[type[Component], str]]" = {
    "resistor": (Resistor, "resistance"),
    "capacitor": (Capacitor, "capacitance"),
    "inductor": (Inductor, "inductance"),
    "vsource": (VoltageSource, "dc_value"),
    "isource": (CurrentSource, "dc_value"),
    "vcvs": (VCVS, "gain"),
    "vccs": (VCCS, "transconductance"),
}

#: Kinds whose value must be strictly positive.
PASSIVE_KINDS = ("resistor", "capacitor", "inductor")

_SUPPORTED_LAWS = "supported laws: R, C, L (incl. idt forms), V/I sources, VCVS, VCCS"


class NetlistError(VamsError):
    """A contribution statement could not be mapped onto a network component.

    Carries the ``line``/``column`` of the statement it refuses (0 for
    module-level rejections such as an unknown parameter override).
    """


@dataclass
class Finding:
    """A positioned diagnosis recorded by the elaboration pass."""

    rule: str
    message: str
    line: int = 0
    column: int = 0
    severity: str = "error"
    hint: str = ""


@dataclass
class Element:
    """One elaborated branch: an active contribution or an input-port drive.

    ``kind`` is a key of :data:`COMPONENT_KINDS`, or ``None`` when the
    contribution is outside the supported subset.  ``value`` is the R/C/L
    value, the DC level of a source (0 for a stimulus-driven one) or the gain
    of a controlled source.  ``control`` holds the sensed nodes of a
    controlled source and ``signal`` the stimulus driving a source.
    ``access``/``expression`` keep the contribution itself, with parameters
    substituted and access names normalised (``expression`` is ``None`` when
    the names could not be resolved).
    """

    name: str
    positive: str
    negative: str
    kind: "str | None" = None
    value: "float | None" = None
    control: "tuple[str, str] | None" = None
    signal: "str | None" = None
    line: int = 0
    column: int = 0
    access: str = POTENTIAL
    expression: "Expr | None" = None

    def component(self) -> Component:
        """The network component this element stands for."""
        component_type, value_field = COMPONENT_KINDS[self.kind]
        arguments = {value_field: self.value}
        if self.signal is not None:
            arguments["input_signal"] = self.signal
        if self.control is not None:
            arguments["control_positive"], arguments["control_negative"] = self.control
        return component_type(**arguments)

    @classmethod
    def of_branch(cls, branch: Branch) -> "Element":
        """The element shape of a built circuit branch (no source position)."""
        component = branch.component
        element = cls(branch.name, branch.positive, branch.negative)
        for kind, (component_type, value_field) in COMPONENT_KINDS.items():
            if isinstance(component, component_type):
                element.kind = kind
                element.value = getattr(component, value_field)
                break
        element.signal = component.input_name()
        if isinstance(component, (VCVS, VCCS)):
            element.control = (component.control_positive, component.control_negative)
        return element


def nonphysical_finding(element: Element) -> "Finding | None":
    """The ``nonphysical-value`` finding of an R/C/L with a non-positive value."""
    if element.kind not in PASSIVE_KINDS or element.value > 0.0:
        return None
    return Finding(
        NONPHYSICAL_VALUE,
        f"{element.kind} {element.name!r} has non-positive value {element.value:g}",
        element.line,
        element.column,
        hint="R, C and L must be strictly positive",
    )


@dataclass
class Elaboration:
    """The result of one elaboration pass over a module.

    ``inputs`` are the stimulus sources on the input ports, ``elements`` one
    entry per active contribution, in statement order.  A module that is not
    conservative has no elements: only its conditionals are folded.
    """

    name: str
    classification: Classification
    ground: str
    inputs: "list[Element]" = field(default_factory=list)
    elements: "list[Element]" = field(default_factory=list)
    findings: "list[Finding]" = field(default_factory=list)

    def raise_errors(self) -> None:
        """Raise what stops a build as a :class:`NetlistError`: a module that is
        not conservative, else the first finding of :data:`BUILD_ERRORS`."""
        if not self.classification.is_conservative:
            raise NetlistError(
                f"module {self.name!r} is a signal-flow description; "
                "use repro.core.signalflow to convert it directly"
            )
        for finding in self.findings:
            if finding.rule in BUILD_ERRORS:
                hint = f"; {finding.hint}" if finding.hint else ""
                raise NetlistError(
                    f"{finding.message}{hint}", finding.line, finding.column
                )


def find_ground(module: VamsModule) -> str:
    """Return the name of the reference node of ``module``.

    Explicit ``ground`` declarations win; otherwise a conventionally named net
    (``gnd``, ``ground``, ``vss``) is used; otherwise a ``gnd`` node is
    implied (single-argument access functions reference it implicitly).
    """
    if module.grounds:
        return sorted(module.grounds)[0]
    nets = {name.lower(): name for name in module.electrical_nets()}
    for candidate in DEFAULT_GROUND_NAMES:
        if candidate in nets:
            return nets[candidate]
    for port in module.ports:
        if port.name.lower() in DEFAULT_GROUND_NAMES:
            return port.name
    return "gnd"


class NetlistBuilder:
    """Elaborates a Verilog-AMS module and builds its :class:`Circuit`."""

    def __init__(
        self, module: VamsModule, overrides: "dict[str, float] | None" = None
    ) -> None:
        self.module = module
        self.ground = find_ground(module)
        self.parameters = module.parameter_values()
        if overrides:
            unknown = set(overrides) - set(self.parameters)
            if unknown:
                raise NetlistError(
                    f"module {module.name!r} declares no parameter called "
                    f"{', '.join(sorted(unknown))}"
                )
            self.parameters.update(overrides)
        self._anonymous_count = 0

    # -- public API ----------------------------------------------------------------
    def build(self, drive_inputs: bool = True) -> Circuit:
        """Build the circuit; optionally add stimulus sources on input ports."""
        elaboration = self.elaborate()
        elaboration.raise_errors()
        circuit = Circuit(self.module.name, ground=self.ground)
        branches = elaboration.inputs if drive_inputs else []
        for element in branches + elaboration.elements:
            circuit.add(
                element.component(), element.positive, element.negative, name=element.name
            )
        circuit.validate()
        return circuit

    def elaborate(self) -> Elaboration:
        """Fold conditionals and recognise every active contribution.

        ``if``/``else`` statements whose conditions only involve parameters
        (and literals) select a single active arm — exactly one topology is
        built per parameter point.  A condition that does not fold (it reads
        ``V``/``I`` quantities or undeclared names) is an error in a
        conservative module, which has no state-dependent topology; both of
        its arms are then elaborated.  A literal condition is a ``dead-arm``.
        """
        self._anonymous_count = 0
        classification = classify_module(self.module)
        elaboration = Elaboration(self.module.name, classification, self.ground)
        active: list[Contribution] = []
        self._collect_active(self.module.analog, active, elaboration)
        if not classification.is_conservative:
            return elaboration
        elaboration.inputs = [
            Element(
                f"Vsrc_{port.name}",
                port.name,
                self.ground,
                kind="vsource",
                value=0.0,
                signal=port.name,
                line=port.line,
                column=port.column,
            )
            for port in self.module.ports
            if port.direction == INPUT and port.name != self.ground
        ]
        constants = {name: Constant(value) for name, value in self.parameters.items()}
        for contribution in active:
            element = self._elaborate(contribution, constants, elaboration.findings)
            if element is not None:
                elaboration.elements.append(element)
        return elaboration

    # -- conditionals ------------------------------------------------------------------
    def _collect_active(
        self,
        statements: "list[AnalogStatement]",
        into: "list[Contribution]",
        elaboration: Elaboration,
    ) -> None:
        for statement in statements:
            if isinstance(statement, Block):
                self._collect_active(statement.statements, into, elaboration)
            elif isinstance(statement, IfStatement):
                for arm in self._active_arms(statement, elaboration):
                    self._collect_active(arm, into, elaboration)
            elif isinstance(statement, Contribution):
                into.append(statement)

    def _active_arms(
        self, statement: IfStatement, elaboration: Elaboration
    ) -> "list[list[AnalogStatement]]":
        condition = statement.condition
        try:
            literal = evaluate(condition, {})
        except EvaluationError:
            literal = None
        if literal is not None:
            elaboration.findings.append(
                Finding(
                    DEAD_ARM,
                    f"condition {condition} is always "
                    f"{'true' if literal != 0.0 else 'false'}; "
                    f"the {'else' if literal != 0.0 else 'then'} arm never executes",
                    statement.line,
                    statement.column,
                    severity="warning",
                    hint="remove the conditional or make the condition test a parameter",
                )
            )
            value = literal
        else:
            try:
                value = evaluate(condition, self.parameters)
            except EvaluationError as error:
                if elaboration.classification.is_conservative:
                    elaboration.findings.append(
                        Finding(
                            UNFOLDABLE_CONDITION,
                            f"the conditional {condition} of module "
                            f"{self.module.name!r} does not fold to a constant "
                            f"under its parameters ({error})",
                            statement.line,
                            statement.column,
                            hint="conservative conditionals may only test parameters",
                        )
                    )
                return [statement.then_branch, statement.else_branch]
        return [statement.then_branch if value != 0.0 else statement.else_branch]

    # -- contributions ---------------------------------------------------------------
    def _elaborate(
        self,
        contribution: Contribution,
        constants: "dict[str, Expr]",
        findings: "list[Finding]",
    ) -> "Element | None":
        """Resolve, normalise and recognise one contribution; never raises."""

        def report(rule: str, message: str, hint: str = "") -> None:
            findings.append(
                Finding(rule, message, contribution.line, contribution.column, hint=hint)
            )

        try:
            name, positive, negative = self._resolve_target(contribution.target)
        except NetlistError as error:
            report(UNRECOGNISED_CONTRIBUTION, str(error))
            return None
        element = Element(
            name,
            positive,
            negative,
            line=contribution.line,
            column=contribution.column,
            access=contribution.target.kind,
        )
        expression = substitute(contribution.expression, constants)
        # Before simplification, which would fold ``0 * I(br)`` into a plain
        # zero and lose the evidence.
        zero = _zero_scale(expression)
        if zero is not None:
            report(
                ZERO_VALUE,
                f"the contribution on branch {element.name!r} degenerates: {zero}",
                hint="a zero-valued component makes the MNA system singular",
            )
        try:
            element.expression = self._normalise(expression, element)
        except NetlistError as error:
            report(UNRECOGNISED_CONTRIBUTION, str(error))
            return element
        self._recognise(element)
        if element.kind is None:
            law = "potential" if element.access == POTENTIAL else "flow"
            report(
                UNRECOGNISED_CONTRIBUTION,
                f"cannot recognise the {law} contribution on branch "
                f"{element.name!r}: {element.expression}",
                hint=_SUPPORTED_LAWS,
            )
        elif (finding := nonphysical_finding(element)) is not None:
            findings.append(finding)
        return element

    def _resolve_target(self, access: AccessRef) -> "tuple[str, str, str]":
        """The ``(name, positive, negative)`` of a contribution target."""
        if access.branch is not None:
            declared = self.module.branch_by_name(access.branch)
            if declared is not None:
                return declared.name, declared.positive, declared.negative
        positive = access.positive
        negative = access.negative
        if positive is None:
            raise NetlistError("contribution target without a net")
        if negative is None:
            negative = self.ground
        self._anonymous_count += 1
        return f"b{self._anonymous_count}_{positive}_{negative}", positive, negative

    def _normalise(self, expression: Expr, element: Element) -> Expr:
        """Rewrite access-function names over node potentials and branch flows."""

        def visit(node: Expr) -> Expr:
            if isinstance(node, Variable) and node.name[:2] in ("V(", "I("):
                arguments = [argument.strip() for argument in node.name[2:-1].split(",")]
                if node.name[0] == "V":
                    return self._normalise_potential(arguments)
                return self._normalise_flow(arguments, element)
            return node

        return simplify(transform(expression, visit))

    def _normalise_potential(self, arguments: "list[str]") -> Expr:
        if len(arguments) == 1:
            name = arguments[0]
            declared = self.module.branch_by_name(name)
            if declared is not None:
                return self._potential_difference(declared.positive, declared.negative)
            return self._potential_difference(name, self.ground)
        positive, negative = arguments
        return self._potential_difference(positive, negative)

    def _potential_difference(self, positive: str, negative: str) -> Expr:
        def potential(net: str) -> Expr:
            if net == self.ground:
                return Constant(0.0)
            return Variable(f"V({net})")

        return simplify(BinaryOp("-", potential(positive), potential(negative)))

    def _normalise_flow(self, arguments: "list[str]", element: Element) -> Expr:
        if len(arguments) == 1:
            name = arguments[0]
            declared = self.module.branch_by_name(name)
            if declared is not None:
                return Variable(f"I({declared.name})")
            # Flow through the branch currently being defined.
            return Variable(f"I({element.name})")
        positive, negative = arguments
        if element.positive == positive and element.negative == negative:
            return Variable(f"I({element.name})")
        raise NetlistError(
            f"cannot resolve flow access I({positive},{negative}); declare a "
            "named branch for it"
        )

    # -- component recognition ---------------------------------------------------------
    def _recognise(self, element: Element) -> None:
        """Set the element's kind and value from its normalised law.

        The one recogniser of the package: R, C and L laws (including the
        ``idt`` forms) are matched first, then constant and stimulus-driven
        sources, then controlled sources.  A non-positive R/C/L still gets
        its kind, so the caller can report it as non-physical.
        """
        expression = element.expression
        own_current = Variable(f"I({element.name})")
        own_voltage = self._potential_difference(element.positive, element.negative)
        if element.access == POTENTIAL:
            laws = (
                ("resistor", lambda: _linear_factor(expression, own_current.name)),
                ("inductor", lambda: _derivative_factor(expression, own_current)),
                # V = (1/C) * idt(I): the integral form of the capacitor law.
                ("capacitor", lambda: _reciprocal(_integral_factor(expression, own_current))),
            )
            source, controlled = "vsource", "vcvs"
        else:
            laws = (
                ("capacitor", lambda: _derivative_factor(expression, own_voltage)),
                # I = (1/L) * idt(V): the integral form of the inductor law.
                ("inductor", lambda: _reciprocal(_integral_factor(expression, own_voltage))),
                ("resistor", lambda: _reciprocal(_conductance_factor(expression, own_voltage))),
            )
            source, controlled = "isource", "vccs"
        for kind, factor in laws:
            value = factor()
            if value is not None:
                element.kind, element.value = kind, value
                return
        value = constant_value(expression)
        if value is not None:
            element.kind, element.value = source, value
            return
        if _is_input_reference(expression, self.module):
            element.kind, element.value, element.signal = source, 0.0, expression.name
            return
        gain, control = _controlled_source(expression, self.ground)
        if gain is not None:
            element.kind, element.value, element.control = controlled, gain, control


# -- expression pattern helpers --------------------------------------------------------
def _zero_scale(expression: Expr) -> "str | None":
    """Describe a component law collapsed by a zero factor or divisor, if any."""
    for node in expression.walk():
        if not isinstance(node, BinaryOp):
            continue
        if node.op == "/":
            divisor = constant_value(simplify(node.rhs))
            if divisor == 0.0:
                return "division by zero (an infinite conductance/short)"
        if node.op == "*":
            for value_side, other in ((node.lhs, node.rhs), (node.rhs, node.lhs)):
                if constant_value(simplify(value_side)) != 0.0:
                    continue
                if any(
                    isinstance(inner, (Access, Derivative, Integral))
                    for inner in other.walk()
                ):
                    return "a zero factor collapses the component law to a short"
    return None


def _reciprocal(factor: "float | None") -> "float | None":
    return None if factor is None or factor == 0.0 else 1.0 / factor


def _linear_factor(expression: Expr, variable_name: str) -> float | None:
    """Return ``k`` when ``expression == k * Variable(variable_name)``."""
    from ..expr.linear import linear_form

    try:
        form = linear_form(expression, {variable_name})
    except Exception:  # pragma: no cover - non-linear contribution
        return None
    remainder = constant_value(form.remainder)
    if remainder not in (0.0,):
        return None
    coefficient = constant_value(form.coefficient(variable_name))
    if coefficient is None or coefficient == 0.0:
        return None
    return coefficient


def _derivative_factor(expression: Expr, operand: Expr) -> float | None:
    """Return ``k`` when ``expression == k * ddt(operand)`` (up to sign/shape)."""
    return _operator_factor(expression, operand, Derivative)


def _integral_factor(expression: Expr, operand: Expr) -> float | None:
    """Return ``k`` when ``expression == k * idt(operand)`` with zero initial value."""
    return _operator_factor(expression, operand, Integral)


def _operator_factor(expression: Expr, operand: Expr, node_type: type) -> float | None:
    """Match ``k * op(operand)`` where scaling may be ``k*x``, ``x*k``, ``x/k`` or ``-x``."""
    expression = simplify(expression)
    if isinstance(expression, node_type):
        if node_type is Integral and not _zero_initial(expression):
            return None
        if simplify(expression.operand) == simplify(operand):
            return 1.0
        return None
    if isinstance(expression, UnaryOp) and expression.op == "-":
        inner = _operator_factor(expression.operand, operand, node_type)
        return None if inner is None else -inner
    if isinstance(expression, BinaryOp) and expression.op == "*":
        left_value = constant_value(expression.lhs)
        right_value = constant_value(expression.rhs)
        if left_value is not None:
            inner = _operator_factor(expression.rhs, operand, node_type)
            return None if inner is None else left_value * inner
        if right_value is not None:
            inner = _operator_factor(expression.lhs, operand, node_type)
            return None if inner is None else right_value * inner
    if isinstance(expression, BinaryOp) and expression.op == "/":
        divisor = constant_value(expression.rhs)
        if divisor not in (None, 0.0):
            inner = _operator_factor(expression.lhs, operand, node_type)
            return None if inner is None else inner / divisor
    return None


def _zero_initial(integral: Integral) -> bool:
    """True when the ``idt`` call carries no (or an explicitly zero) initial value."""
    if integral.initial is None:
        return True
    return constant_value(simplify(integral.initial)) == 0.0


def _conductance_factor(expression: Expr, own_voltage: Expr) -> float | None:
    """Return ``g`` when ``expression == g * (V(p) - V(n))`` of the same branch."""
    voltage_variables = own_voltage.variables()
    if not voltage_variables:
        return None
    from ..expr.linear import linear_form

    try:
        form = linear_form(expression, voltage_variables)
    except Exception:  # pragma: no cover - non-linear contribution
        return None
    if constant_value(form.remainder) != 0.0:
        return None
    own_form = linear_form(own_voltage, voltage_variables)
    factors: set[float] = set()
    for name in voltage_variables:
        own_coefficient = constant_value(own_form.coefficient(name))
        coefficient = constant_value(form.coefficient(name))
        if own_coefficient in (None, 0.0) or coefficient is None:
            return None
        factors.add(coefficient / own_coefficient)
    if len(factors) == 1:
        factor = factors.pop()
        return factor if factor != 0.0 else None
    return None


def _is_input_reference(expression: Expr, module: VamsModule) -> bool:
    if not isinstance(expression, Variable):
        return False
    port = module.port(expression.name)
    return port is not None and port.direction == INPUT


def _controlled_source(
    expression: Expr, ground: str
) -> tuple[float | None, tuple[str, str]]:
    """Match ``k * (V(a) - V(b))`` (or ``k * V(a)``) and return gain and nodes."""
    expression = simplify(expression)
    sign = 1.0
    if isinstance(expression, UnaryOp) and expression.op == "-":
        sign = -1.0
        expression = expression.operand
    if not (isinstance(expression, BinaryOp) and expression.op == "*"):
        # A bare potential difference is a unit-gain controlled source.
        nodes = _potential_nodes(expression, ground)
        if nodes is not None:
            return sign, nodes
        return None, ("", "")
    left_value = constant_value(expression.lhs)
    right_value = constant_value(expression.rhs)
    if left_value is not None:
        nodes = _potential_nodes(expression.rhs, ground)
        if nodes is not None:
            return sign * left_value, nodes
    if right_value is not None:
        nodes = _potential_nodes(expression.lhs, ground)
        if nodes is not None:
            return sign * right_value, nodes
    return None, ("", "")


def _potential_nodes(expression: Expr, ground: str) -> tuple[str, str] | None:
    """Extract ``(positive, negative)`` from ``V(a) - V(b)``, ``V(a)`` or ``-V(b)``.

    A normalised single potential ``V(a)`` is measured against ``ground``,
    the module's reference node.
    """
    expression = simplify(expression)
    if isinstance(expression, Variable) and expression.name.startswith("V("):
        return expression.name[2:-1], ground
    if isinstance(expression, UnaryOp) and expression.op == "-":
        inner = _potential_nodes(expression.operand, ground)
        if inner is not None:
            return inner[1], inner[0]
        return None
    if isinstance(expression, BinaryOp) and expression.op == "-":
        left = expression.lhs
        right = expression.rhs
        left_name = left.name[2:-1] if isinstance(left, Variable) and left.name.startswith("V(") else None
        right_name = right.name[2:-1] if isinstance(right, Variable) and right.name.startswith("V(") else None
        if left_name and right_name:
            return left_name, right_name
        if left_name and constant_value(right) == 0.0:
            return left_name, ground
        if right_name and constant_value(left) == 0.0:
            return ground, right_name
    return None


def to_circuit(
    module: VamsModule,
    drive_inputs: bool = True,
    overrides: "dict[str, float] | None" = None,
) -> Circuit:
    """Convert a conservative Verilog-AMS module into a typed circuit netlist.

    ``overrides`` re-elaborates the module with different ``parameter real``
    values (sweeps and fault campaigns over parsed netlists rely on this);
    names absent from the module raise :class:`NetlistError`.
    """
    return NetlistBuilder(module, overrides=overrides).build(drive_inputs=drive_inputs)


def extract_dipole_equations(module: VamsModule) -> list[Equation]:
    """Return the contribution statements as normalised dipole equations.

    Each equation is expressed over node potentials ``V(node)`` and branch
    flows ``I(branch)``, with parameters substituted by their values.  This is
    the exact input format of the acquisition step; a module that does not
    build (see :func:`to_circuit`) raises the same :class:`NetlistError`.
    """
    builder = NetlistBuilder(module)
    elaboration = builder.elaborate()
    elaboration.raise_errors()
    equations: list[Equation] = []
    for element in elaboration.elements:
        if element.access == POTENTIAL:
            lhs = builder._potential_difference(element.positive, element.negative)
        else:
            lhs = Variable(f"I({element.name})")
        equations.append(
            Equation(lhs, element.expression, kind=DIPOLE, name=f"dipole:{element.name}")
        )
    return equations
