"""Tests of abstract-once-per-structure replay (``repro.core.tape``).

A replayed model must be bit-identical to what the full four-step flow
produces for the same circuit.  ``==`` on expressions is not enough for that
(it equates ``-0.0`` and ``0.0``), so models are compared by their skeleton
plus the ``float.hex`` of every constant and initial state.
"""

from __future__ import annotations

import copy
import dataclasses
import math

import numpy as np
import pytest

from repro.circuits import build_rc_filter
from repro.core import AbstractionFlow
from repro.core.tape import (
    Tape,
    TapeValue,
    UnsupportedTapeUse,
    circuit_values,
    record,
    structure_key,
)
from repro.expr.ast import BinaryOp, Call, Constant
from repro.expr.equation import DIPOLE, Equation
from repro.network.circuit import Circuit
from repro.network.components import Capacitor, Resistor, branch_current, branch_voltage
from repro.sim import SquareWave
from repro.sweep import GridSpec, MonteCarloSpec, SweepRunner
from repro.sweep import runner as runner_module
from repro.vams import parse_module, to_circuit
from repro.zoo.generate import generate_cases, render

TIMESTEP = 50e-9
SHORT = 5e-6
WAVE = {"vin": SquareWave(period=2e-6)}
METHODS = ("backward_euler", "trapezoidal")


def skeleton(model) -> tuple:
    """Everything that makes two models the same program, floats by bit pattern."""

    def node(expr) -> tuple:
        if isinstance(expr, Constant):
            return ("const", expr.value.hex())
        return (type(expr).__name__, *(
            getattr(expr, name, None) for name in ("op", "name", "func")
        ))

    return (
        model.name,
        tuple(model.inputs),
        tuple(model.outputs),
        tuple(
            (assignment.target, tuple(node(expr) for expr in assignment.expression.walk()))
            for assignment in model.assignments
        ),
        tuple(model.state_variables),
        tuple(sorted((name, float(value).hex()) for name, value in model.initial_state.items())),
        model.timestep.hex(),
        model.source,
    )


def scaled(circuit: Circuit, factors) -> Circuit:
    """A copy of ``circuit`` with its float fields multiplied, in tape input order."""
    factors = iter(factors)
    result = Circuit(circuit.name, circuit.ground)
    for node in circuit.node_names():
        result.add_node(node)
    for branch in circuit:
        component = copy.copy(branch.component)
        for field in dataclasses.fields(component):
            value = getattr(component, field.name)
            if isinstance(value, float):
                setattr(component, field.name, value * next(factors))
        result.add(component, branch.positive, branch.negative, branch.name)
    return result


def monte_carlo_variants(circuit: Circuit, rng: np.random.Generator) -> list[Circuit]:
    """The circuit, three draws each at +-5 % and +-50 %, and one stiff variant
    (its first capacitor or inductor scaled by 1e6)."""
    count = len(circuit_values(circuit))
    variants = [circuit]
    for tolerance in (0.05, 0.5):
        variants += [
            scaled(circuit, 1.0 + rng.uniform(-tolerance, tolerance, count)) for _ in range(3)
        ]
    factors, stiff = [], False
    for branch in circuit:
        for field in dataclasses.fields(branch.component):
            if isinstance(getattr(branch.component, field.name), float):
                storage = field.name in ("capacitance", "inductance")
                factors.append(1e6 if storage and not stiff else 1.0)
                stiff = stiff or storage
    if stiff:
        variants.append(scaled(circuit, factors))
    return variants


# ---------------------------------------------------------------------------------
# The tape value
# ---------------------------------------------------------------------------------
class TestTapeValue:
    @pytest.mark.parametrize(
        "use",
        [float, int, hash, str, math.sqrt, math.exp, lambda x: x**2.0, lambda x: 2.0**x,
         lambda x: x % 2.0, round],
    )
    def test_unreplayable_uses_fail_loudly_and_disable_the_tape(self, use):
        tape = Tape()
        value = tape.input(3.0)
        with pytest.raises(UnsupportedTapeUse):
            use(value)
        assert tape.disabled is not None

    def test_replay_repeats_ieee_arithmetic_and_checks_guards(self):
        tape = Tape()
        x, y = tape.input(3.0), tape.input(-0.0)
        ratio = abs(x * y - 1.0) / x
        assert (x > 1.0, y == 0.0) == (True, True)
        inputs = np.array([[3.0, 0.5, 3.0], [-0.0, 0.0, 0.0]])
        values, ok = tape.replay(inputs)
        assert ok.tolist() == [True, False, True]  # 0.5 > 1.0 fails its guard
        expected = [abs(a * b - 1.0) / a for a, b in inputs.T.tolist()]
        assert values[ratio.slot].tolist() == expected
        # the sign of zero is part of the value: -0.0 * 3.0 - 1.0 is -1.0 either
        # way, but the products differ bit for bit
        product = x * y
        values, ok = tape.replay(inputs)
        assert math.copysign(1.0, values[product.slot, 0]) == -1.0
        assert math.copysign(1.0, values[product.slot, 2]) == 1.0

    def test_division_guards_its_divisor(self):
        tape = Tape()
        x = tape.input(2.0)
        quotient = 1.0 / x
        values, ok = tape.replay(np.array([[2.0, 0.0, 4.0]]))
        assert ok.tolist() == [True, False, True]
        assert values[quotient.slot, 2] == 0.25

    def test_numpy_scalars_defer_to_the_tape(self):
        tape = Tape()
        x = tape.input(2.0)
        assert type(np.float64(3.0) * x) is TapeValue
        assert (np.float64(3.0) < x) is False


# ---------------------------------------------------------------------------------
# Record once, replay the rest: bit identity
# ---------------------------------------------------------------------------------
@pytest.mark.parametrize("method", METHODS)
def test_generated_netlists_replay_bit_for_bit_outside_the_comfort_zone(method):
    """50 seeded zoo netlists, Monte-Carlo draws at +-5 % and +-50 % plus a
    stiff variant: every replayed model equals its full-flow model bit for
    bit, and a scenario whose guards fail is handed back to the full flow."""
    rng = np.random.default_rng(2026)
    flow = AbstractionFlow(TIMESTEP, method=method)
    replayed = fallbacks = 0
    for netlist in generate_cases(2026, 50):
        variants = monte_carlo_variants(to_circuit(parse_module(render(netlist))), rng)
        assert len({structure_key(variant) for variant in variants}) == 1
        expected = [skeleton(flow.abstract(variant, ["out"]).model) for variant in variants]
        recording = record(flow, variants[0], ["out"])
        assert recording.disabled is None, netlist.name
        assert skeleton(recording.model()) == expected[0]
        for model, full in zip(recording.replay(variants[1:]), expected[1:]):
            if model is None:
                fallbacks += 1
            else:
                replayed += 1
                assert skeleton(model) == full, netlist.name
    assert replayed > fallbacks > 0


def test_structure_key_ignores_values_only():
    assert structure_key(build_rc_filter(3, resistance=1e3)) == structure_key(
        build_rc_filter(3, resistance=2e3)
    )
    assert structure_key(build_rc_filter(3)) != structure_key(build_rc_filter(4))


# ---------------------------------------------------------------------------------
# The sweep runner: counters, fallbacks, disabled structures, resume
# ---------------------------------------------------------------------------------
def rc_runner(**kwargs) -> SweepRunner:
    return SweepRunner(
        build_rc_filter, "out", stimuli=WAVE, timestep=TIMESTEP, progress=False, **kwargs
    )


def counts(result) -> dict[str, float]:
    counters = result.telemetry.counters
    return {
        name: counters.get(f"sweep.{name}", 0.0)
        for name in ("abstractions", "replays", "replay_fallbacks", "replay_disabled")
    }


def per_scenario_models(factory, spec, method="backward_euler"):
    flow = AbstractionFlow(TIMESTEP, method=method)
    return [
        skeleton(flow.abstract(factory(**scenario.params), ["out"]).model)
        for scenario in spec.expand()
    ]


def test_a_draw_that_flips_a_guard_takes_the_full_flow(monkeypatch):
    # R = 1 ohm turns the resistor law R * I into I: the recorded
    # ``R == 1.0`` guard fails for that draw only.
    spec = GridSpec(axes={"order": [2], "resistance": [5e3, 1.0, 6e3, 7e3]})
    models = []
    original = runner_module._abstract_pending

    def keep(config, scenarios, pending):
        abstracted = original(config, scenarios, pending)
        models.extend(skeleton(abstracted[position]) for position in pending)
        return abstracted

    monkeypatch.setattr(runner_module, "_abstract_pending", keep)
    result = rc_runner(trace=True).run(spec, SHORT)
    assert counts(result) == {
        "abstractions": 2.0, "replays": 2.0, "replay_fallbacks": 1.0, "replay_disabled": 0.0,
    }
    assert models == per_scenario_models(build_rc_filter, spec)
    scalar = rc_runner(backend="python").run(spec, SHORT)
    np.testing.assert_array_equal(result.outputs["V(out)"], scalar.outputs["V(out)"])


@dataclasses.dataclass
class PowerResistor(Resistor):
    """A resistor whose law folds ``R ** 1.0``: the tape cannot replay ``**``."""

    def dipole_equation(self, branch, ground="gnd"):
        value = BinaryOp("**", Constant(self.resistance), Constant(1.0))
        return Equation(
            branch_voltage(branch.positive, branch.negative, ground),
            BinaryOp("*", value, branch_current(branch.name)),
            kind=DIPOLE, name=f"dipole:{branch.name}",
        )


@dataclasses.dataclass
class SqrtResistor(Resistor):
    """A resistor whose law folds ``sqrt(R * R)``: a libm call on the tape."""

    def dipole_equation(self, branch, ground="gnd"):
        square = BinaryOp("*", Constant(self.resistance), Constant(self.resistance))
        return Equation(
            branch_voltage(branch.positive, branch.negative, ground),
            BinaryOp("*", Call("sqrt", (square,)), branch_current(branch.name)),
            kind=DIPOLE, name=f"dipole:{branch.name}",
        )


def unreplayable_rc(law: str = "power", resistance: float = 5e3) -> Circuit:
    circuit = Circuit("unreplayable_rc")
    circuit.add_voltage_source("vin", "gnd", input_signal="vin", name="V1")
    kind = PowerResistor if law == "power" else SqrtResistor
    circuit.add(kind(resistance), "vin", "out", name="R1")
    circuit.add(Capacitor(25e-9), "out", "gnd", name="C1")
    return circuit


@pytest.mark.parametrize("law", ["power", "sqrt"])
def test_an_unreplayable_operation_disables_replay_for_its_structure(law):
    recording = record(AbstractionFlow(TIMESTEP), unreplayable_rc(law), ["out"])
    assert recording.disabled is not None
    spec = GridSpec(axes={"law": [law], "resistance": [4e3, 5e3, 6e3]})
    result = SweepRunner(
        unreplayable_rc, "out", stimuli=WAVE, timestep=TIMESTEP, trace=True, progress=False
    ).run(spec, SHORT)
    assert counts(result) == {
        "abstractions": 3.0, "replays": 0.0, "replay_fallbacks": 0.0, "replay_disabled": 1.0,
    }
    scalar = SweepRunner(
        unreplayable_rc, "out", stimuli=WAVE, timestep=TIMESTEP, backend="python",
        progress=False,
    ).run(spec, SHORT)
    np.testing.assert_array_equal(result.outputs["V(out)"], scalar.outputs["V(out)"])


MC_SPEC = MonteCarloSpec(
    nominal={"order": 3, "resistance": 5e3, "capacitance": 25e-9},
    tolerances={"resistance": 0.05, "capacitance": 0.05},
    samples=6,
    seed=11,
)


def test_python_backend_never_replays():
    result = rc_runner(backend="python", trace=True).run(MC_SPEC, SHORT)
    assert counts(result) == {
        "abstractions": 6.0, "replays": 0.0, "replay_fallbacks": 0.0, "replay_disabled": 0.0,
    }


def test_traced_workers_count_every_scenario_once():
    result = rc_runner(workers=2, trace=True).run(MC_SPEC, SHORT)
    found = counts(result)
    assert found["abstractions"] + found["replays"] == result.executed_count == 6
    assert found["replays"] > 0
    serial = rc_runner().run(MC_SPEC, SHORT)
    np.testing.assert_array_equal(result.outputs["V(out)"], serial.outputs["V(out)"])


def test_resuming_a_replayed_store_executes_nothing(tmp_path):
    fresh = rc_runner(store=tmp_path, trace=True).run(MC_SPEC, SHORT)
    assert counts(fresh)["replays"] == 5.0
    resumed = rc_runner(store=tmp_path, resume=True).run(MC_SPEC, SHORT)
    assert resumed.executed_count == 0
    np.testing.assert_array_equal(resumed.outputs["V(out)"], fresh.outputs["V(out)"])
