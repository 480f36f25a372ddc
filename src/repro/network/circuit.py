"""Circuit container: nodes, branches and their constitutive relations.

A :class:`Circuit` is the in-memory form of a conservative description: a set
of nodes ``N``, a set of branches ``B`` connecting them, and one dipole
equation per branch (paper Section III.B).  Circuits are produced either
programmatically (see :mod:`repro.circuits`) or by the Verilog-AMS frontend
(:mod:`repro.vams.netlist`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..errors import TopologyError
from ..expr.equation import Equation
from .components import (
    Capacitor,
    Component,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
)
from .graph import CircuitGraph

DEFAULT_GROUND = "gnd"


@dataclass(frozen=True)
class Node:
    """A node of the electrical network."""

    name: str
    is_ground: bool = False


@dataclass
class Branch:
    """A branch: a component connected between two nodes.

    ``positive`` and ``negative`` fix the reference direction used by the
    dipole equation and by the Kirchhoff current law (current flows from
    ``positive`` to ``negative`` through the component).
    """

    name: str
    positive: str
    negative: str
    component: Component

    def other_end(self, node: str) -> str:
        """Return the node at the opposite end of ``node``."""
        if node == self.positive:
            return self.negative
        if node == self.negative:
            return self.positive
        raise TopologyError(f"node {node!r} is not an endpoint of branch {self.name!r}")

    def current_variable(self) -> str:
        """Name of the flow variable associated with the branch."""
        return f"I({self.name})"


class Circuit:
    """A conservative electrical network.

    Parameters
    ----------
    name:
        Identifier of the circuit (used in generated code and reports).
    ground:
        Name of the reference node; it is created automatically.
    """

    def __init__(self, name: str, ground: str = DEFAULT_GROUND) -> None:
        self.name = name
        self.ground = ground
        self._nodes: dict[str, Node] = {ground: Node(ground, is_ground=True)}
        self._branches: dict[str, Branch] = {}
        self._type_counters: dict[str, int] = {}

    # -- construction ----------------------------------------------------------
    def add_node(self, name: str) -> Node:
        """Add (or return the existing) node called ``name``."""
        if name not in self._nodes:
            self._nodes[name] = Node(name, is_ground=(name == self.ground))
        return self._nodes[name]

    def add(
        self,
        component: Component,
        positive: str,
        negative: str,
        name: str | None = None,
    ) -> Branch:
        """Connect ``component`` between ``positive`` and ``negative``.

        When ``name`` is omitted an identifier is generated from the component
        type code (``R1``, ``R2``, ``C1``, ...).
        """
        if name is None:
            code = component.type_code
            self._type_counters[code] = self._type_counters.get(code, 0) + 1
            name = f"{code}{self._type_counters[code]}"
        if name in self._branches:
            raise TopologyError(f"a branch called {name!r} already exists")
        if positive == negative:
            raise TopologyError(
                f"branch {name!r} connects node {positive!r} to itself"
            )
        self.add_node(positive)
        self.add_node(negative)
        branch = Branch(name, positive, negative, component)
        self._branches[name] = branch
        return branch

    # -- convenience shortcuts ---------------------------------------------------
    def add_resistor(
        self, positive: str, negative: str, resistance: float, name: str | None = None
    ) -> Branch:
        """Add a resistor of ``resistance`` ohms."""
        return self.add(Resistor(resistance), positive, negative, name)

    def add_capacitor(
        self, positive: str, negative: str, capacitance: float, name: str | None = None
    ) -> Branch:
        """Add a capacitor of ``capacitance`` farads."""
        return self.add(Capacitor(capacitance), positive, negative, name)

    def add_inductor(
        self, positive: str, negative: str, inductance: float, name: str | None = None
    ) -> Branch:
        """Add an inductor of ``inductance`` henry."""
        return self.add(Inductor(inductance), positive, negative, name)

    def add_voltage_source(
        self,
        positive: str,
        negative: str,
        dc_value: float = 0.0,
        input_signal: str | None = None,
        name: str | None = None,
    ) -> Branch:
        """Add an independent voltage source (optionally driven by an input)."""
        return self.add(
            VoltageSource(dc_value=dc_value, input_signal=input_signal),
            positive,
            negative,
            name,
        )

    def add_current_source(
        self,
        positive: str,
        negative: str,
        dc_value: float = 0.0,
        input_signal: str | None = None,
        name: str | None = None,
    ) -> Branch:
        """Add an independent current source (optionally driven by an input)."""
        return self.add(
            CurrentSource(dc_value=dc_value, input_signal=input_signal),
            positive,
            negative,
            name,
        )

    # -- queries ---------------------------------------------------------------
    @property
    def nodes(self) -> dict[str, Node]:
        """All nodes, including ground, keyed by name."""
        return dict(self._nodes)

    @property
    def branches(self) -> dict[str, Branch]:
        """All branches keyed by name."""
        return dict(self._branches)

    def node_names(self, include_ground: bool = True) -> list[str]:
        """Return node names in insertion order."""
        names = list(self._nodes)
        if not include_ground:
            names = [name for name in names if name != self.ground]
        return names

    def branch_names(self) -> list[str]:
        """Return branch names in insertion order."""
        return list(self._branches)

    def branch(self, name: str) -> Branch:
        """Return the branch called ``name``."""
        try:
            return self._branches[name]
        except KeyError as exc:
            raise TopologyError(f"unknown branch {name!r}") from exc

    def branches_at(self, node: str) -> list[Branch]:
        """Return every branch incident to ``node``."""
        return [
            branch
            for branch in self._branches.values()
            if node in (branch.positive, branch.negative)
        ]

    def input_names(self) -> list[str]:
        """Names of the external stimuli feeding the circuit, in insertion order."""
        names: list[str] = []
        for branch in self._branches.values():
            input_name = branch.component.input_name()
            if input_name is not None and input_name not in names:
                names.append(input_name)
        return names

    def __len__(self) -> int:
        return len(self._branches)

    def __iter__(self) -> Iterator[Branch]:
        return iter(self._branches.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Circuit({self.name!r}, nodes={len(self._nodes)}, "
            f"branches={len(self._branches)})"
        )

    # -- equations ---------------------------------------------------------------
    def dipole_equations(self) -> list[Equation]:
        """Return the dipole equation of every branch.

        This is the "arbitrary set of constitutive dipole equations" that the
        abstraction methodology takes as input (paper Section IV).
        """
        return [
            branch.component.dipole_equation(branch, self.ground)
            for branch in self._branches.values()
        ]

    # -- validation ----------------------------------------------------------------
    def validate(self) -> None:
        """Check structural well-formedness of the network.

        Raises
        ------
        TopologyError
            If the circuit is empty, has no ground connection, contains a node
            with a single incident branch (a dangling node that makes KCL
            unsatisfiable for non-source branches), or is not connected.
        """
        if not self._branches:
            raise TopologyError(f"circuit {self.name!r} has no branches")
        graph = CircuitGraph(self)
        if graph.degree(self.ground) == 0:
            raise TopologyError(
                f"circuit {self.name!r} has no branch connected to ground "
                f"{self.ground!r}"
            )
        for name in self._nodes:
            if graph.degree(name) == 0 and name != self.ground:
                raise TopologyError(f"node {name!r} has no incident branch")
        unreachable = set(self._nodes) - graph.reachable_from(self.ground)
        if unreachable:
            raise TopologyError(
                f"nodes {sorted(unreachable)} are not connected to ground in "
                f"circuit {self.name!r}"
            )


def canonical_quantity(name: str) -> str:
    """Canonical form of an observed quantity: bare node names mean voltages.

    ``"out"`` becomes ``"V(out)"``; names already written as a voltage or
    current quantity (``"V(...)"``, ``"I(...)"``) pass through unchanged.
    """
    return name if name.startswith(("V(", "I(")) else f"V({name})"


def count_state_variables(circuit: Circuit) -> int:
    """Return the number of energy-storage elements (capacitors and inductors)."""
    return sum(
        1
        for branch in circuit
        if isinstance(branch.component, (Capacitor, Inductor))
    )


def iter_components(circuit: Circuit) -> Iterable[tuple[Branch, Component]]:
    """Yield ``(branch, component)`` pairs in insertion order."""
    for branch in circuit:
        yield branch, branch.component
