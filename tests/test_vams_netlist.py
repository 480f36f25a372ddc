"""Tests for netlist extraction from parsed Verilog-AMS modules."""

from __future__ import annotations

import pytest

from repro.circuits import opamp_source, rc_filter_source, two_input_source
from repro.core import AbstractionFlow
from repro.network.components import (
    VCCS,
    VCVS,
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
)
from repro.vams import NetlistError, extract_dipole_equations, find_ground, parse_module, to_circuit


def component_types(circuit) -> dict[str, type]:
    return {name: type(branch.component) for name, branch in circuit.branches.items()}


class TestComponentRecognition:
    def test_rc_filter(self):
        circuit = to_circuit(parse_module(rc_filter_source(2)))
        types = component_types(circuit)
        assert types["r1"] is Resistor
        assert types["c1"] is Capacitor
        assert types["Vsrc_vin"] is VoltageSource
        assert circuit.branch("r1").component.resistance == pytest.approx(5e3)
        assert circuit.branch("c1").component.capacitance == pytest.approx(25e-9)

    def test_two_input_recognises_vcvs(self):
        circuit = to_circuit(parse_module(two_input_source()))
        types = component_types(circuit)
        assert types["amp"] is VCVS
        amp = circuit.branch("amp").component
        assert amp.gain == pytest.approx(-1e5)
        assert amp.control_positive == "sum"

    def test_opamp_topology(self):
        circuit = to_circuit(parse_module(opamp_source()))
        types = component_types(circuit)
        assert types["cb1"] is Capacitor
        assert types["stage"] is VCVS
        assert types["rbout"] is Resistor
        assert set(circuit.node_names()) >= {"vin", "inn", "oa", "out", "gnd"}

    def test_inductor_recognition(self):
        module = parse_module(
            """
            module rl(vin, out); input vin; output out; electrical vin, out, gnd; ground gnd;
            branch (vin, out) lb; branch (out, gnd) rb;
            analog begin
              V(lb) <+ 1m * ddt(I(lb));
              V(rb) <+ 50 * I(rb);
            end
            endmodule
            """
        )
        circuit = to_circuit(module)
        assert isinstance(circuit.branch("lb").component, Inductor)
        assert circuit.branch("lb").component.inductance == pytest.approx(1e-3)

    def test_conductance_style_resistor(self):
        module = parse_module(
            """
            module g(vin, out); input vin; output out; electrical vin, out, gnd; ground gnd;
            branch (vin, out) rb; branch (out, gnd) rg;
            analog begin
              I(rb) <+ V(rb) / 2k;
              V(rg) <+ 1k * I(rg);
            end
            endmodule
            """
        )
        resistor = to_circuit(module).branch("rb").component
        assert isinstance(resistor, Resistor)
        assert resistor.resistance == pytest.approx(2e3)

    def test_constant_sources(self):
        module = parse_module(
            """
            module src(out); output out; electrical out, n1, gnd; ground gnd;
            branch (n1, gnd) vb; branch (out, gnd) ib; branch (n1, out) rb;
            analog begin
              V(vb) <+ 3.3;
              I(ib) <+ 1m;
              V(rb) <+ 100 * I(rb);
            end
            endmodule
            """
        )
        circuit = to_circuit(module)
        assert isinstance(circuit.branch("vb").component, VoltageSource)
        assert circuit.branch("vb").component.dc_value == pytest.approx(3.3)
        assert isinstance(circuit.branch("ib").component, CurrentSource)

    def test_vccs_recognition(self):
        module = parse_module(
            """
            module gm(vin, out); input vin; output out; electrical vin, out, gnd; ground gnd;
            branch (out, gnd) ob; branch (out, gnd) rb;
            analog begin
              I(ob) <+ 2m * V(vin, gnd);
              V(rb) <+ 1k * I(rb);
            end
            endmodule
            """
        )
        circuit = to_circuit(module)
        assert isinstance(circuit.branch("ob").component, VCCS)
        assert circuit.branch("ob").component.transconductance == pytest.approx(2e-3)


    def test_single_argument_control_is_measured_against_the_module_ground(self):
        def abstracted(ground: str):
            module = parse_module(
                f"""
                module amp(vin, out); input vin; output out;
                electrical vin, mid, out, {ground}; ground {ground};
                analog begin
                  I(vin, mid) <+ V(vin, mid) / 1k;
                  I(mid) <+ V(mid) / 1k;
                  V(out) <+ 2.0 * V(mid);
                end
                endmodule
                """
            )
            circuit = to_circuit(module)
            amp = circuit.branch("b3_out_" + ground).component
            assert (amp.control_positive, amp.control_negative) == ("mid", ground)
            return AbstractionFlow(1e-6).abstract(circuit, "out").model

        assert abstracted("vss").assignments == abstracted("gnd").assignments
        assert str(abstracted("vss").assignments[-1].expression) == "vin"


class TestStructure:
    def test_input_ports_become_sources(self):
        circuit = to_circuit(parse_module(rc_filter_source(1)))
        assert "Vsrc_vin" in circuit.branches
        assert circuit.input_names() == ["vin"]

    def test_drive_inputs_can_be_disabled(self):
        module = parse_module(rc_filter_source(1))
        circuit = to_circuit(module, drive_inputs=False)
        assert "Vsrc_vin" not in circuit.branches

    def test_ground_detection(self):
        assert find_ground(parse_module(rc_filter_source(1))) == "gnd"
        module = parse_module(
            "module m(a); inout a; electrical a, vss; analog V(a, vss) <+ 1.0; endmodule"
        )
        assert find_ground(module) == "vss"

    def test_extract_dipole_equations(self):
        module = parse_module(rc_filter_source(1))
        equations = extract_dipole_equations(module)
        rendered = [str(equation) for equation in equations]
        assert any("5000" in text and "I(r1)" in text for text in rendered)
        assert any("ddt" in text for text in rendered)

    def test_signal_flow_module_rejected(self):
        module = parse_module(
            "module g(a, b); input a; output b; electrical a, b; analog V(b) <+ 2 * V(a); endmodule"
        )
        with pytest.raises(NetlistError):
            to_circuit(module)

    def test_unrecognised_contribution_raises(self):
        module = parse_module(
            """
            module weird(vin, out); input vin; output out; electrical vin, out, gnd; ground gnd;
            branch (vin, out) b1; branch (out, gnd) b2;
            analog begin
              V(b1) <+ I(b1) * I(b1);
              V(b2) <+ 1k * I(b2);
            end
            endmodule
            """
        )
        with pytest.raises(NetlistError):
            to_circuit(module)
