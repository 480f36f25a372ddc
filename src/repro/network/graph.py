"""Topology graph of a circuit: ``G = (N, B)``.

Step 1 of the abstraction methodology (paper Section IV.A) retrieves the
topology of the electrical network from the dipole equations and creates a
graph whose nodes are the circuit nodes and whose edges are the branches.
The graph supports the analyses needed by the enrichment step: spanning tree
construction and fundamental-loop extraction (used by the mesh analysis), plus
reachability queries used to drop sub-circuits that cannot influence the
outputs of interest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..errors import TopologyError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .circuit import Branch, Circuit


@dataclass(frozen=True)
class LoopEdge:
    """One edge of a fundamental loop, with its traversal orientation.

    ``forward`` is ``True`` when the loop traverses the branch from its
    positive to its negative node.
    """

    branch: str
    forward: bool


@dataclass
class FundamentalLoop:
    """A fundamental loop: one chord plus the tree path closing it."""

    chord: str
    edges: tuple[LoopEdge, ...]


class CircuitGraph:
    """Undirected multigraph view of a :class:`~repro.network.circuit.Circuit`.

    :meth:`from_branches` builds the same view over any objects with
    ``name``/``positive``/``negative`` — such as the elements of a netlist
    elaboration, whose values no circuit may accept — so circuit validation
    and the netlist linter share one graph.
    """

    def __init__(self, circuit: "Circuit") -> None:
        self._build(list(circuit), circuit.ground, circuit.node_names(), circuit.name)

    @classmethod
    def from_branches(cls, branches: Iterable, ground: str) -> "CircuitGraph":
        """The graph of ``branches`` over their end nodes and ``ground``."""
        graph = cls.__new__(cls)
        graph._build(list(branches), ground, [ground], "")
        return graph

    def _build(self, branches: list, ground: str, nodes: "list[str]", name: str) -> None:
        self.name = name
        self.ground = ground
        self.branches = branches
        self._adjacency: dict[str, list[Branch]] = {node: [] for node in nodes}
        for branch in branches:
            self._adjacency.setdefault(branch.positive, []).append(branch)
            self._adjacency.setdefault(branch.negative, []).append(branch)

    # -- basic queries -----------------------------------------------------------
    @property
    def nodes(self) -> "list[str]":
        """Every node (including ground), in order of first appearance."""
        return list(self._adjacency)

    @property
    def node_count(self) -> int:
        """Number of nodes ``|N|`` (including ground)."""
        return len(self._adjacency)

    @property
    def branch_count(self) -> int:
        """Number of branches ``|B|``."""
        return len(self.branches)

    def neighbours(self, node: str) -> list[str]:
        """Return the nodes adjacent to ``node``."""
        return [_other_end(branch, node) for branch in self._adjacency[node]]

    def incident_branches(self, node: str) -> list[Branch]:
        """Return every branch incident to ``node``."""
        return list(self._adjacency[node])

    def degree(self, node: str) -> int:
        """Return the number of branch terminals at ``node``."""
        return len(self._adjacency[node])

    # -- spanning tree and loops ---------------------------------------------------
    def spanning_tree(self, root: str | None = None) -> dict[str, Branch | None]:
        """Return a BFS spanning tree as a ``node -> parent branch`` mapping.

        The root (default: the ground node) maps to ``None``.

        Raises
        ------
        TopologyError
            If the graph is not connected.
        """
        root = root or self.ground
        if root not in self._adjacency:
            raise TopologyError(f"unknown root node {root!r}")
        parent: dict[str, Branch | None] = {root: None}
        frontier = [root]
        while frontier:
            current = frontier.pop(0)
            for branch in self._adjacency[current]:
                other = _other_end(branch, current)
                if other not in parent:
                    parent[other] = branch
                    frontier.append(other)
        missing = set(self._adjacency) - set(parent)
        if missing:
            raise TopologyError(
                f"graph of circuit {self.name!r} is not connected; "
                f"unreachable nodes: {sorted(missing)}"
            )
        return parent

    def tree_branches(self, root: str | None = None) -> set[str]:
        """Return the names of the branches belonging to the spanning tree."""
        parent = self.spanning_tree(root)
        return {branch.name for branch in parent.values() if branch is not None}

    def chords(self, root: str | None = None) -> list[Branch]:
        """Return the branches *not* in the spanning tree (the loop chords)."""
        tree = self.tree_branches(root)
        return [branch for branch in self.branches if branch.name not in tree]

    def fundamental_loops(self, root: str | None = None) -> list[FundamentalLoop]:
        """Return one fundamental loop per chord of the spanning tree.

        Each loop yields one independent Kirchhoff voltage equation; together
        with the KCL equations they complete the implicit equations the paper
        adds during enrichment.
        """
        root = root or self.ground
        parent = self.spanning_tree(root)

        def path_to_root(node: str) -> list[tuple[str, Branch]]:
            path: list[tuple[str, Branch]] = []
            current = node
            while parent[current] is not None:
                branch = parent[current]
                path.append((current, branch))
                current = _other_end(branch, current)
            return path

        loops: list[FundamentalLoop] = []
        for chord in self.chords(root):
            # Walk both endpoints up to the root and drop the common suffix to
            # obtain the unique tree path joining them.
            path_p = path_to_root(chord.positive)
            path_n = path_to_root(chord.negative)
            branches_p = [branch.name for _, branch in path_p]
            branches_n = [branch.name for _, branch in path_n]
            while branches_p and branches_n and branches_p[-1] == branches_n[-1]:
                path_p.pop()
                path_n.pop()
                branches_p.pop()
                branches_n.pop()

            edges: list[LoopEdge] = [
                LoopEdge(chord.name, forward=True)
            ]
            # Continue from the chord's negative node back up towards the
            # common ancestor, then down to the chord's positive node.
            for node, branch in path_n:
                # We traverse from `node` towards its parent; the traversal is
                # "forward" when `node` is the branch's positive end.
                edges.append(LoopEdge(branch.name, forward=(branch.positive == node)))
            for node, branch in reversed(path_p):
                edges.append(LoopEdge(branch.name, forward=(branch.negative == node)))
            loops.append(FundamentalLoop(chord.name, tuple(edges)))
        return loops

    # -- reachability ---------------------------------------------------------------
    def reachable_from(self, node: str) -> set[str]:
        """Return the set of nodes connected to ``node`` (including itself)."""
        if node not in self._adjacency:
            raise TopologyError(f"unknown node {node!r}")
        seen = {node}
        frontier = [node]
        while frontier:
            for branch in self._adjacency[frontier.pop()]:
                for neighbour in (branch.positive, branch.negative):
                    if neighbour not in seen:
                        seen.add(neighbour)
                        frontier.append(neighbour)
        return seen

    def mesh_count(self) -> int:
        """Number of independent loops ``|B| - |N| + 1`` (for a connected graph)."""
        return self.branch_count - self.node_count + 1


def _other_end(branch, node: str) -> str:
    """The end of ``branch`` opposite ``node`` (``node`` itself for a self-loop)."""
    return branch.negative if node == branch.positive else branch.positive
