"""End-to-end tests of the abstraction flow, with the state-space oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import (
    benchmark_by_name,
    build_opamp,
    build_rc_filter,
    build_two_input,
    cutoff_frequency,
    dc_gain,
    ideal_gains,
)
from repro.core import AbstractionFlow, abstract_circuit, abstract_state_space
from repro.errors import AbstractionError
from repro.network import Circuit
from repro.sim import SquareWave

DT = 50e-9


def run_model(model, stimuli, duration):
    trace = model.run(stimuli, duration)
    return trace.waveform(model.outputs[0])


class TestAbstractionCorrectness:
    def test_rc1_step_response_matches_analytic(self):
        model = abstract_circuit(build_rc_filter(1), "out", DT)
        tau = 5e3 * 25e-9
        duration = 3 * tau
        waveform = run_model(model, {"vin": lambda t: 1.0}, duration)
        assert waveform[-1] == pytest.approx(1.0 - math.exp(-duration / tau), rel=1e-3)

    def test_two_input_summing_gains(self):
        model = abstract_circuit(build_two_input(), "out", DT)
        gain1, gain2 = ideal_gains()
        waveform = run_model(model, {"in1": lambda t: 1.0, "in2": lambda t: 0.0}, 10 * DT)
        assert waveform[-1] == pytest.approx(gain1, rel=1e-3)
        waveform = run_model(model, {"in1": lambda t: 0.0, "in2": lambda t: 1.0}, 10 * DT)
        assert waveform[-1] == pytest.approx(gain2, rel=1e-3)

    def test_opamp_dc_gain_and_lowpass(self):
        model = abstract_circuit(build_opamp(), "out", DT)
        settle = 10.0 / (2 * math.pi * cutoff_frequency())
        waveform = run_model(model, {"vin": lambda t: 1.0}, settle)
        assert waveform[-1] == pytest.approx(dc_gain(), rel=1e-2)

    def test_symbolic_and_state_space_models_agree(self):
        circuit = build_rc_filter(3)
        symbolic = abstract_circuit(circuit, "out", DT)
        numeric = abstract_state_space(circuit, ["out"], DT)
        stimuli = {"vin": SquareWave(period=20e-6)}
        duration = 60e-6
        left = run_model(symbolic, stimuli, duration)
        right = run_model(numeric, stimuli, duration)
        assert np.allclose(left, right, atol=1e-12)

    def test_output_designations_are_normalised(self):
        circuit = build_rc_filter(1)
        for designation in ("out", "V(out)", "V(out,gnd)"):
            model = abstract_circuit(circuit, designation, DT)
            assert model.outputs == ["V(out)"]

    def test_initial_state_is_honoured(self):
        flow = AbstractionFlow(DT)
        report = flow.abstract(build_rc_filter(1), "out", initial_state={"V(out)": 0.75})
        state = report.model.create_state()
        assert state["V(out)"] == 0.75


class TestFlowInterface:
    @pytest.mark.parametrize("component", ("2IN", "RC1", "RC20", "OA"))
    def test_report_contents(self, flow, component):
        bench = benchmark_by_name(component)
        report = flow.abstract(bench.circuit(), bench.output)
        assert report.model.outputs == [bench.output_quantity]
        assert set(report.timings) == {"acquisition", "enrichment", "assemble", "solve"}
        assert report.total_time > 0.0
        assert "topology" in report.summary()

    def test_process_dispatches_on_classification(self, flow):
        signal_flow_source = (
            "module gain(a, b); input a; output b; electrical a, b;"
            " analog V(b) <+ 2.5 * V(a); endmodule"
        )
        report = flow.process(signal_flow_source)
        assert report.model.source.startswith("direct")
        conservative = flow.process(build_rc_filter(1), outputs="out")
        assert conservative.model.source.startswith("conservative")

    def test_process_measures_the_conversion_path(self, flow):
        signal_flow_source = (
            "module gain(a, b); input a; output b; electrical a, b;"
            " analog V(b) <+ 2.5 * V(a); endmodule"
        )
        report = flow.process(signal_flow_source)
        assert set(report.timings) == {"conversion"}
        assert report.timings["conversion"] > 0.0
        assert report.total_time == report.timings["conversion"]

    def test_process_requires_outputs_for_conservative(self, flow, rc1_circuit):
        with pytest.raises(AbstractionError):
            flow.process(rc1_circuit)

    def test_invalid_timestep_rejected(self):
        with pytest.raises(ValueError):
            AbstractionFlow(0.0)

    def test_model_describe_mentions_everything(self, rc1_model):
        description = rc1_model.describe()
        assert "V(out)" in description
        assert "vin" in description


# -- property-based oracle test ------------------------------------------------------------
@st.composite
def random_rc_ladder(draw):
    """A random RC ladder with random (but well-conditioned) component values."""
    stages = draw(st.integers(min_value=1, max_value=4))
    resistances = [
        draw(st.floats(min_value=1e2, max_value=1e4)) for _ in range(stages)
    ]
    capacitances = [
        draw(st.floats(min_value=1e-9, max_value=1e-7)) for _ in range(stages)
    ]
    circuit = Circuit(f"ladder{stages}")
    circuit.add_voltage_source("vin", "gnd", input_signal="vin", name="Vsrc")
    previous = "vin"
    for index, (resistance, capacitance) in enumerate(zip(resistances, capacitances), start=1):
        node = "out" if index == stages else f"n{index}"
        circuit.add_resistor(previous, node, resistance, name=f"R{index}")
        circuit.add_capacitor(node, "gnd", capacitance, name=f"C{index}")
        previous = node
    return circuit


@settings(max_examples=15, deadline=None)
@given(random_rc_ladder())
def test_symbolic_abstraction_matches_state_space_oracle(circuit):
    """For arbitrary linear RC ladders the symbolic pipeline must agree with MNA."""
    timestep = 1e-7
    symbolic = abstract_circuit(circuit, "out", timestep)
    oracle = abstract_state_space(circuit, ["out"], timestep)
    stimuli = {"vin": SquareWave(period=40 * timestep)}
    duration = 120 * timestep
    left = symbolic.run(stimuli, duration).waveform("V(out)")
    right = oracle.run(stimuli, duration).waveform("V(out)")
    scale = max(np.max(np.abs(right)), 1e-12)
    assert np.max(np.abs(left - right)) / scale < 1e-8
