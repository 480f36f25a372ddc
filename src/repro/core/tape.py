"""Abstract once per circuit structure, replay the constant arithmetic per scenario.

A Monte-Carlo scenario changes component values, never topology, so every
scenario of one circuit structure runs the same four-step flow over different
numbers.  :func:`record` abstracts the first scenario of a structure through
the unchanged :meth:`AbstractionFlow.abstract
<repro.core.flow.AbstractionFlow.abstract>`, with each component float field
wrapped in a :class:`TapeValue`.  The :class:`Tape` behind those values
records:

* every ``+ - * /``, negation and ``abs`` as an **op** on value slots (a
  division also guards its divisor against zero);
* every comparison and truth test (``_is_const``, ``x - x``,
  ``rhs.value < 0`` in the simplifier, ``depends_on`` and the ``any(...)``
  of an affine decomposition) as a **guard**, with the outcome the recorded
  scenario took;
* the one numeric kernel, ``np.linalg.solve`` in
  :func:`~repro.expr.linear.solve_affine_system`, as a single op, together
  with its cut of negligible coefficients (``abs(c) <= tolerance``).

:meth:`Recording.replay` evaluates the ops for other scenarios of the same
structure with the same IEEE operations in the same order (NumPy's float64
``+ - * /`` round exactly as Python floats do), runs the solve per scenario
with the flow's exact ``np.linalg.solve`` call, checks the guards and
substitutes the results into a copy of the recorded model.  A replayed model
is therefore bit-identical to what the full flow would produce.  A scenario
that fails a guard, divides by zero, makes the solve singular or meets a NaN
gets ``None`` and must go through the full flow.  Ops are independent of the
scenario count: one NumPy call evaluates every op of one dependency level and
kind for all scenarios at once.

A :class:`TapeValue` is deliberately not a ``float``: ``float()``, ``int()``,
``**``, ``math.*`` calls, hashing and string formatting raise
:class:`UnsupportedTapeUse` and mark the tape disabled, so an operation the
tape cannot replay exactly fails loudly instead of escaping.  A disabled tape
replays nothing.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import operator
from array import array
from itertools import repeat
from typing import Sequence

import numpy as np

from ..expr.ast import BinaryOp, Constant, Expr, rebuild
from ..network.circuit import Circuit
from .signalflow import Assignment, SignalFlowModel

_ADD, _SUB, _MUL, _DIV, _NEG, _ABS = range(6)
_LT, _LE, _GT, _GE, _EQ, _NE = range(6)

_REPLAY_OPS = {
    _ADD: np.add,
    _SUB: np.subtract,
    _MUL: np.multiply,
    _DIV: np.divide,
}
_REPLAY_UNARY = {_NEG: np.negative, _ABS: np.absolute}
_COMPARISONS = {
    _LT: np.less,
    _LE: np.less_equal,
    _GT: np.greater,
    _GE: np.greater_equal,
    _EQ: np.equal,
    _NE: np.not_equal,
}


#: Guard records kept as a Python list before :meth:`Tape.compact` packs them.
_GUARD_BLOCK = 4 * 4096


class UnsupportedTapeUse(Exception):
    """A recorded value met an operation the tape cannot replay exactly."""


def _other(tape: "Tape", other) -> "tuple[int, float] | None":
    """Slot and recorded value of the second operand of an operator."""
    kind = type(other)
    if kind is TapeValue:
        if other.tape is not tape:
            raise tape.refuse("mixing tapes")
        return other.slot, other.value
    if kind is float:
        # The common cases, 0.0 and a constant seen before, without a call.
        if other:
            slot = tape._constant_slots.get(other)
            if slot is not None:
                return slot, other
        elif math.copysign(1.0, other) > 0.0:
            return tape.zero, other
    return tape.constant(other)


def _arithmetic(code: int, compute, reflected: bool = False):
    """The (reflected) arithmetic operator ``code`` of :class:`TapeValue`."""

    def method(self, other):
        tape = self.tape
        operand = _other(tape, other)
        if operand is None:
            return NotImplemented
        a, x = self.slot, self.value
        b, y = operand
        if reflected:
            a, x, b, y = b, y, a, x
        # A float division by zero raises here, for the recorded scenario;
        # every other scenario must divide by non-zero.
        value = compute(x, y)
        if code == _DIV:
            tape.guards.extend((_NE, b, tape.zero, True))
        return tape._result(code, value, a, b)

    return method


def _comparison(code: int, compare):
    """The comparison operator ``code`` of :class:`TapeValue`, recorded as a guard."""

    def method(self, other):
        tape = self.tape
        # The simplifier compares constants with 0.0, 1.0 and -1.0 all the
        # time: a plain non-zero float already on the tape takes no call.
        slot = tape._constant_slots.get(other) if type(other) is float and other else None
        if slot is None:
            operand = _other(tape, other)
            if operand is None:
                return NotImplemented
            slot, other = operand
        outcome = compare(self.value, other)
        guards = tape.guards
        guards += (code, self.slot, slot, outcome)
        if len(guards) >= _GUARD_BLOCK:
            tape.compact()
        return outcome

    return method


class TapeValue:
    """A float recorded on a :class:`Tape`: its value in the recorded scenario
    and the slot every replayed scenario computes it into."""

    __slots__ = ("tape", "slot", "value")

    #: Make NumPy scalars defer to the reflected operators below.
    __array_ufunc__ = None

    def __init__(self, tape: "Tape", slot: int, value: float) -> None:
        self.tape = tape
        self.slot = slot
        self.value = value

    __add__ = _arithmetic(_ADD, operator.add)
    __radd__ = _arithmetic(_ADD, operator.add, reflected=True)
    __sub__ = _arithmetic(_SUB, operator.sub)
    __rsub__ = _arithmetic(_SUB, operator.sub, reflected=True)
    __mul__ = _arithmetic(_MUL, operator.mul)
    __rmul__ = _arithmetic(_MUL, operator.mul, reflected=True)
    __truediv__ = _arithmetic(_DIV, operator.truediv)
    __rtruediv__ = _arithmetic(_DIV, operator.truediv, reflected=True)
    __lt__ = _comparison(_LT, operator.lt)
    __le__ = _comparison(_LE, operator.le)
    __gt__ = _comparison(_GT, operator.gt)
    __ge__ = _comparison(_GE, operator.ge)
    __eq__ = _comparison(_EQ, operator.eq)
    __ne__ = _comparison(_NE, operator.ne)

    def __neg__(self):
        return self.tape._result(_NEG, -self.value, self.slot, -1)

    def __abs__(self):
        return self.tape._result(_ABS, abs(self.value), self.slot, -1)

    def __pos__(self):
        # ``+x`` returns ``x`` itself for a float too.
        return self

    def __bool__(self):
        return self != 0.0

    def __float__(self):
        raise self.tape.refuse("float()")

    def __int__(self):
        raise self.tape.refuse("int()")

    def __index__(self):
        raise self.tape.refuse("__index__")

    def __complex__(self):
        raise self.tape.refuse("complex()")

    def __hash__(self):
        raise self.tape.refuse("hash()")

    def __str__(self):
        raise self.tape.refuse("str()")

    def __format__(self, spec):
        raise self.tape.refuse("format()")

    def __pow__(self, other, modulo=None):
        raise self.tape.refuse("**")

    def __rpow__(self, other):
        raise self.tape.refuse("**")

    def __mod__(self, other):
        raise self.tape.refuse("%")

    __rmod__ = __mod__

    def __floordiv__(self, other):
        raise self.tape.refuse("//")

    __rfloordiv__ = __floordiv__

    def __divmod__(self, other):
        raise self.tape.refuse("divmod()")

    __rdivmod__ = __divmod__

    def __round__(self, ndigits=None):
        raise self.tape.refuse("round()")

    def __trunc__(self):
        raise self.tape.refuse("trunc()")

    def __floor__(self):
        raise self.tape.refuse("floor()")

    def __ceil__(self):
        raise self.tape.refuse("ceil()")

    def __repr__(self) -> str:
        return f"TapeValue(slot={self.slot}, value={self.value!r})"


@dataclasses.dataclass
class _Operand:
    """A matrix operand of the recorded solve: the bit patterns of its plain
    non-zero entries (``-0.0`` included) and the slots of its taped ones."""

    shape: tuple[int, int]
    positions: np.ndarray
    constants: np.ndarray
    taped: np.ndarray
    slots: np.ndarray

    def lane(self, values: np.ndarray, lane: int) -> np.ndarray:
        """The operand of one replayed scenario, as the flow would build it."""
        operand = np.zeros(self.shape)
        operand.flat[self.positions] = self.constants
        operand.flat[self.taped] = values[self.slots, lane]
        return operand


@dataclasses.dataclass
class _Solve:
    """One recorded ``np.linalg.solve`` and the cut of its negligible coefficients."""

    matrix: _Operand
    rhs: _Operand
    tolerance: float
    #: ``abs(x) <= tolerance`` for the solution without its last column.
    negligible: np.ndarray
    #: Flat positions of the solution entries the flow reads, and their slots.
    read: np.ndarray
    slots: np.ndarray


class Tape:
    """The ops and guards recorded while one scenario was abstracted."""

    def __init__(self) -> None:
        #: Value of every slot in the recorded scenario.
        self.recorded = array("d")
        #: Dependency depth of every slot (inputs and constants are 0).
        self.level = array("i")
        self.inputs: list[int] = []
        self.constants: list[int] = []
        #: Flat ``(level, code, out, a, b)`` records; ``b`` is -1 for unary ops.
        self.ops: list[int] = []
        #: Flat ``(code, a, b, outcome)`` records, moved into compact
        #: ``(n, 4)`` blocks as they accumulate.
        self.guards: list[int] = []
        self.guard_blocks: list[np.ndarray] = []
        self.solves: list[tuple[int, _Solve]] = []
        #: Why the tape cannot be replayed, once it cannot.
        self.disabled: str | None = None
        self._constant_slots: dict = {}
        self.zero = self.constant(0.0)[0]

    # -- recording -----------------------------------------------------------------------
    def input(self, value: float) -> TapeValue:
        """A new input slot holding ``value`` in the recorded scenario."""
        value = float(value)
        slot = self._slot(value, 0)
        self.inputs.append(slot)
        return TapeValue(self, slot, value)

    def refuse(self, what: str) -> UnsupportedTapeUse:
        """Disable the tape and return the exception to raise."""
        if self.disabled is None:
            self.disabled = f"{what} on a recorded value"
        return UnsupportedTapeUse(f"{what} is not supported on a recorded value")

    def constant(self, value) -> "tuple[int, float] | None":
        """The shared slot of a plain number, ``None`` for anything else."""
        if type(value) is not float:
            if not isinstance(value, (float, int)):
                return None
            value = float(value)
        # 0.0 == -0.0, so zeros are keyed by their sign as well.
        key = value if value else (value, math.copysign(1.0, value))
        slot = self._constant_slots.get(key)
        if slot is None:
            slot = self._constant_slots[key] = self._slot(value, 0)
            self.constants.append(slot)
        return slot, value

    def _slot(self, value: float, level: int) -> int:
        if value != value and self.disabled is None:
            # NaN breaks the identity shortcut of ``==`` that tuple
            # comparisons take, so a NaN recording proves nothing.
            self.disabled = "NaN in the recorded arithmetic"
        self.recorded.append(value)
        self.level.append(level)
        return len(self.level) - 1

    def _result(self, code: int, value: float, a: int, b: int) -> TapeValue:
        """Record op ``code`` of slots ``a`` and ``b`` (-1 for unary) giving ``value``."""
        level = self.level
        depth = level[a] + 1 if b < 0 or level[a] >= level[b] else level[b] + 1
        out = self._slot(value, depth)
        self.ops.extend((depth, code, out, a, b))
        return TapeValue(self, out, value)

    def solve(
        self, matrix: Sequence[Sequence], rhs: Sequence[Sequence], tolerance: float
    ) -> tuple[list[list], list[list[bool]]]:
        """Record the linear solve of :func:`~repro.expr.linear.solve_affine_system`.

        The recorded scenario runs exactly what the untaped flow runs:
        ``solution = np.linalg.solve(np.array(matrix), np.array(rhs))`` (a
        :class:`numpy.linalg.LinAlgError` propagates as it would there), then
        ``abs(x) <= tolerance`` for every ``x`` outside the last, constant
        column.  Those tests are the solve's own guards: a replayed scenario
        passes only if its cut equals the recorded one.

        Returns the solution rows, a :class:`TapeValue` for every entry the
        flow reads and ``None`` for a negligible coefficient, and the
        ``(n, m - 1)`` negligible mask.
        """
        operands = []
        depth = 0
        for rows in (matrix, rhs):
            flat = [entry for row in rows for entry in row]
            taped = np.flatnonzero(list(map(operator.is_, map(type, flat), repeat(TapeValue))))
            slots = [_other(self, flat[p])[0] for p in taped.tolist()]
            for position in taped.tolist():
                flat[position] = flat[position].value
            depth = max([depth, *(self.level[slot] for slot in slots)])
            operand = np.array(flat).reshape(len(rows), -1)
            positions = np.flatnonzero(operand.view(np.uint64))
            operands.append((operand, _Operand(
                operand.shape, positions, operand.flat[positions], taped,
                np.array(slots, dtype=np.intp),
            )))
        (a, a_template), (b, b_template) = operands
        solution = np.linalg.solve(a, b)
        negligible = np.abs(solution[:, :-1]) <= tolerance
        read = np.flatnonzero(np.column_stack((~negligible, np.ones(len(solution), dtype=bool))))
        values = solution.ravel()[read]
        slots = self._slots(values, depth + 1)
        self.solves.append(
            (depth + 1, _Solve(a_template, b_template, tolerance, negligible, read, slots))
        )
        entries: list = [None] * solution.size
        for position, value in zip(
            read.tolist(), map(TapeValue, repeat(self), slots.tolist(), values.tolist())
        ):
            entries[position] = value
        width = solution.shape[1]
        rows = [entries[start:start + width] for start in range(0, len(entries), width)]
        return rows, negligible.tolist()

    def compact(self) -> None:
        """Move the guards recorded so far into a compact block."""
        self.guard_blocks.append(np.array(self.guards, dtype=np.int32).reshape(-1, 4))
        self.guards.clear()

    def _slots(self, values: np.ndarray, level: int) -> np.ndarray:
        """Slots for every entry of ``values``, in C order, at dependency ``level``."""
        if np.isnan(values).any() and self.disabled is None:
            self.disabled = "NaN in the recorded arithmetic"
        start = len(self.level)
        self.recorded.frombytes(np.ascontiguousarray(values, dtype=float).tobytes())
        self.level.frombytes(np.full(values.size, level, dtype=np.int32).tobytes())
        return np.arange(start, len(self.level), dtype=np.int32)

    # -- replay ------------------------------------------------------------------------------
    def replay(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate every slot for ``inputs`` of shape ``(n_inputs, lanes)``.

        Returns the slot values ``(n_slots, lanes)`` and a ``(lanes,)`` mask
        of the lanes whose every guard held with the recorded outcome.
        """
        if self.disabled is not None:
            raise UnsupportedTapeUse(f"the tape is disabled: {self.disabled}")
        lanes = inputs.shape[1]
        values = np.empty((len(self.recorded), lanes))
        recorded = np.asarray(self.recorded)
        values[self.constants] = recorded[self.constants, None]
        values[self.inputs] = inputs
        ok = np.ones(lanes, dtype=bool)
        with np.errstate(all="ignore"):
            for step in self._schedule():
                if isinstance(step, _Solve):
                    _replay_solve(step, values, ok)
                    continue
                code, outs, a, b = step
                if b is None:
                    values[outs] = _REPLAY_UNARY[code](values[a])
                else:
                    values[outs] = _REPLAY_OPS[code](values[a], values[b])
            for code, a, b, outcomes in _groups(self.guards, self.guard_blocks, 4, (0,)):
                held = _COMPARISONS[code](values[a], values[b])
                ok &= (held == outcomes.astype(bool)[:, None]).all(axis=0)
        ok &= ~np.isnan(values).any(axis=0)
        return values, ok

    def _schedule(self) -> list:
        """The ops grouped by (level, code), one NumPy call per group, and the
        solves, in dependency order: ops and solves of one level depend only
        on lower levels."""
        steps = [
            (level, 0, (code, outs, a, b if code in _REPLAY_OPS else None))
            for level, code, outs, a, b in _groups(self.ops, [], 5, (0, 1))
        ]
        steps += [(level, 1, solve) for level, solve in self.solves]
        steps.sort(key=lambda step: step[:2])
        return [step for _, _, step in steps]


def _groups(records: list[int], blocks: list[np.ndarray], width: int, keys: tuple[int, ...]):
    """Split flat ``records`` and ``(n, width)`` ``blocks`` into groups of equal
    key columns; yields the key values, then the other columns.  Order
    within a group does not matter: ops of one level are independent and
    guards are checked all together."""
    table = np.concatenate([np.array(records, dtype=np.int32).reshape(-1, width), *blocks])
    table = table[np.lexsort(table[:, keys[::-1]].T)]
    edges = np.flatnonzero(np.any(np.diff(table[:, keys], axis=0) != 0, axis=1)) + 1
    for group in np.split(table, edges):
        if len(group):
            yield (*group[0, keys].tolist(), *(
                np.ascontiguousarray(group[:, column])
                for column in range(width) if column not in keys
            ))


def _replay_solve(solve: _Solve, values: np.ndarray, ok: np.ndarray) -> None:
    """Run the recorded solve per lane with the flow's exact call, and check
    its negligible cut."""
    for lane in range(values.shape[1]):
        try:
            solution = np.linalg.solve(solve.matrix.lane(values, lane), solve.rhs.lane(values, lane))
        except np.linalg.LinAlgError:
            values[solve.slots, lane] = np.nan
            ok[lane] = False
            continue
        if not np.array_equal(np.abs(solution[:, :-1]) <= solve.tolerance, solve.negligible):
            ok[lane] = False
        values[solve.slots, lane] = solution.ravel()[solve.read]


# ----------------------------------------------------------------------------------
# Circuits in, models out
# ----------------------------------------------------------------------------------
def _float_fields(component) -> list[str]:
    return [
        field.name
        for field in dataclasses.fields(component)
        if isinstance(getattr(component, field.name), float)
    ]


def structure_key(circuit) -> "tuple | None":
    """A value-free key of ``circuit``: equal keys abstract through the same flow.

    Covers the name, the ground, the nodes in order and, per branch, its name,
    nodes, component type and every non-float field; float fields contribute
    only their names.  ``None`` when the circuit cannot be keyed (not a plain
    :class:`~repro.network.circuit.Circuit`, or an unhashable field).
    """
    if type(circuit) is not Circuit:
        return None
    branches = []
    for branch in circuit:
        component = branch.component
        if not dataclasses.is_dataclass(component):
            return None
        fields = tuple(
            (field.name, True, None) if isinstance(value, float) else (field.name, False, value)
            for field in dataclasses.fields(component)
            for value in (getattr(component, field.name),)
        )
        branches.append((branch.name, branch.positive, branch.negative, type(component), fields))
    key = (circuit.name, circuit.ground, tuple(circuit.node_names()), tuple(branches))
    try:
        hash(key)
    except TypeError:
        return None
    return key


def circuit_values(circuit: Circuit) -> list[float]:
    """The float fields of ``circuit`` in tape input order."""
    return [
        float(getattr(branch.component, name))
        for branch in circuit
        for name in _float_fields(branch.component)
    ]


def _taped_circuit(circuit: Circuit, tape: Tape) -> Circuit:
    """A copy of ``circuit`` whose component float fields are tape inputs."""
    taped = Circuit(circuit.name, circuit.ground)
    for node in circuit.node_names():
        taped.add_node(node)
    for branch in circuit:
        component = copy.copy(branch.component)
        for name in _float_fields(component):
            setattr(component, name, tape.input(getattr(component, name)))
        taped.add(component, branch.positive, branch.negative, branch.name)
    return taped


class Recording:
    """One circuit structure abstracted on a tape."""

    def __init__(self, tape: Tape, template: SignalFlowModel | None) -> None:
        self.tape = tape
        #: The recorded model, its constants holding :class:`TapeValue`
        #: objects; ``None`` when the tape was disabled before the flow ended.
        self.template = template
        self._builders: list | None = None
        #: The slots the template reads, in the order its builders index them.
        self._used = np.empty(0, dtype=np.intp)

    @property
    def disabled(self) -> str | None:
        return self.tape.disabled

    def model(self) -> SignalFlowModel:
        """The recorded scenario's model, lowered to plain floats."""
        self._compile()
        return self._instantiate(np.asarray(self.tape.recorded)[self._used].tolist())

    def replay(self, circuits: Sequence[Circuit]) -> "list[SignalFlowModel | None]":
        """The model of every circuit of this structure, ``None`` where a guard failed.

        The recorded scenario is replayed too, as lane 0: if replay does not
        reproduce its recorded values bit for bit, the tape is disabled.
        """
        if self.disabled is not None:
            raise UnsupportedTapeUse(f"the tape is disabled: {self.disabled}")
        recorded = np.asarray(self.tape.recorded)
        inputs = np.column_stack(
            [recorded[self.tape.inputs]]
            + [np.asarray(circuit_values(circuit)) for circuit in circuits]
        )
        values, ok = self.tape.replay(inputs)
        if not (ok[0] and np.array_equal(values[:, 0].view(np.uint64), recorded.view(np.uint64))):
            self.tape.disabled = "replay does not reproduce the recorded scenario"
            return [None] * len(circuits)
        self._compile()
        columns = values[self._used].T.tolist()
        return [
            self._instantiate(columns[lane]) if ok[lane] else None
            for lane in range(1, len(columns))
        ]

    def _compile(self) -> None:
        if self._builders is None:
            positions: dict[int, int] = {}
            self._builders = [
                (assignment.target, _builder(assignment.expression, positions)[0])
                for assignment in self.template.assignments
            ]
            self._used = np.array(list(positions), dtype=np.intp)

    def _instantiate(self, values: Sequence[float]) -> SignalFlowModel:
        """A copy of the template with its recorded constants read from ``values``."""
        model = self.template
        return SignalFlowModel(
            name=model.name,
            inputs=list(model.inputs),
            outputs=list(model.outputs),
            assignments=[Assignment(target, build(values)) for target, build in self._builders],
            state_variables=list(model.state_variables),
            initial_state=dict(model.initial_state),
            timestep=model.timestep,
            source=model.source,
        )


def _builder(node: Expr, positions: dict[int, int]):
    """``(build, recorded)``: ``build(values)`` rebuilds ``node`` with the
    recorded constant of slot ``s`` read from ``values[positions[s]]``;
    subtrees without one are shared as they are."""
    if type(node) is Constant and type(node.value) is TapeValue:
        position = positions.setdefault(node.value.slot, len(positions))
        return (lambda values: Constant(values[position])), True
    children = [_builder(child, positions) for child in node.children()]
    if not any(recorded for _, recorded in children):
        return (lambda values: node), False
    builds = [build for build, _ in children]
    if type(node) is BinaryOp:
        op, (lhs, rhs) = node.op, builds
        return (lambda values: BinaryOp(op, lhs(values), rhs(values))), True
    return (lambda values: rebuild(node, [build(values) for build in builds])), True


def record(flow, circuit: Circuit, outputs: Sequence[str], name: str | None = None) -> Recording:
    """Abstract ``circuit`` through ``flow`` with its float fields on a new tape.

    An exception of the flow propagates unless the tape was disabled on the
    way (then the returned recording is disabled); the full flow reproduces
    any genuine error on its own.
    """
    tape = Tape()
    taped = _taped_circuit(circuit, tape)
    try:
        template = flow.abstract(taped, list(outputs), name=name).model
    except Exception:
        if tape.disabled is None:
            raise
        template = None
    return Recording(tape, template)
