"""Frontend error paths on malformed netlists, with exact positions.

The fuzz harness leans on the frontend rejecting bad inputs *diagnosably*:
every lexer/parser error must carry the line and column of the offence, and
netlist-level rejections must name the construct they refused.
"""

from __future__ import annotations

import pytest

from repro.errors import VamsLexerError, VamsParseError
from repro.vams import NetlistError, parse_module, to_circuit, tokenize
from repro.zoo.oracle import FRONTEND, check_source


class TestLexerErrors:
    def test_unterminated_block_comment_position(self):
        source = "module m(a);\n  /* never closed\nendmodule"
        with pytest.raises(VamsLexerError) as excinfo:
            tokenize(source)
        assert excinfo.value.line == 2
        assert excinfo.value.column == 3
        assert "unterminated block comment" in str(excinfo.value)

    def test_unterminated_string_position(self):
        with pytest.raises(VamsLexerError) as excinfo:
            tokenize('module m;\n  "never closed')
        assert excinfo.value.line == 2
        assert excinfo.value.column == 3
        assert "unterminated string" in str(excinfo.value)


class TestParserErrors:
    def test_unknown_access_function_names_itself_with_position(self):
        source = (
            'module bad(vin, out);\n'
            "  input vin;\n"
            "  output out;\n"
            "  electrical vin, out;\n"
            "  analog begin\n"
            "    Q(out) <+ 1.0;\n"
            "  end\n"
            "endmodule\n"
        )
        with pytest.raises(VamsParseError) as excinfo:
            parse_module(source)
        message = str(excinfo.value)
        assert "'Q'" in message and "access function" in message
        assert excinfo.value.line == 6
        assert excinfo.value.column == 5

    def test_bad_contribution_target_position(self):
        source = (
            "module bad(out);\n"
            "  output out;\n"
            "  electrical out;\n"
            "  analog begin\n"
            "    3.0 <+ V(out);\n"
            "  end\n"
            "endmodule\n"
        )
        with pytest.raises(VamsParseError) as excinfo:
            parse_module(source)
        assert excinfo.value.line == 5

    def test_missing_endmodule_is_a_parse_error(self):
        with pytest.raises(VamsParseError):
            parse_module("module bad(out);\n  output out;\n")


#: The rejected netlists of :class:`TestNetlistErrors`; ``tests/test_lint.py``
#: checks that the linter reports each rejection at the same position.
NONLINEAR_SOURCE = (
    "module bad(vin, out);\n"
    "  input vin;\n"
    "  output out;\n"
    "  electrical vin, out, gnd;\n"
    "  ground gnd;\n"
    "  branch (out, gnd) rb;\n"
    "  analog begin\n"
    "    I(vin, out) <+ V(vin, out) / 1k;\n"
    "    V(rb) <+ V(rb) * I(rb);\n"
    "  end\n"
    "endmodule\n"
)

UNFOLDABLE_SOURCE = (
    "module bad(vin, out);\n"
    "  input vin;\n"
    "  output out;\n"
    "  electrical vin, out, gnd;\n"
    "  ground gnd;\n"
    "  parameter real G = 2.0;\n"
    "  branch (out, gnd) amp;\n"
    "  analog begin\n"
    "    I(vin, out) <+ V(vin, out) / 1k;\n"
    "    if (V(out) > 0.5)\n"
    "      V(amp) <+ G * V(vin);\n"
    "    else\n"
    "      V(amp) <+ V(vin);\n"
    "  end\n"
    "endmodule\n"
)

OVERRIDE_SOURCE = (
    "module m(vin, out);\n"
    "  input vin;\n"
    "  output out;\n"
    "  electrical vin, out, gnd;\n"
    "  ground gnd;\n"
    "  parameter real R = 1k;\n"
    "  analog begin\n"
    "    V(vin, out) <+ R * I(vin, out);\n"
    "    I(out) <+ V(out) / 2k;\n"
    "  end\n"
    "endmodule\n"
)

#: Contributions whose R/C/L law has a non-positive value, with the kind
#: they elaborate to; spliced into OVERRIDE_SOURCE in place of its ``I(out)``
#: shunt (line 9, column 5).
NONPHYSICAL_LAWS = {
    "I(out) <+ V(out) / -1k;": "resistor",
    "I(out) <+ -1n * ddt(V(out));": "capacitor",
    "V(out) <+ -1e6 * idt(I(out));": "capacitor",
    "V(out) <+ -1m * ddt(I(out));": "inductor",
}


def nonphysical_source(law: str) -> str:
    return OVERRIDE_SOURCE.replace("I(out) <+ V(out) / 2k;", law)


#: Resistances whose ``**`` has no real value: ``0 ** -1`` (a division by
#: zero) and ``(-R) ** 0.5`` (complex); spliced into OVERRIDE_SOURCE in place
#: of its resistor (line 8, column 5).
UNREAL_POWER_LAWS = (
    "V(vin, out) <+ (R * ((0 - R) ** 0.5 + 1.0)) * I(vin, out);",
    "V(vin, out) <+ (R * (0.0 ** (0 - 1.0) + 1.0)) * I(vin, out);",
)


def unreal_power_source(law: str) -> str:
    return OVERRIDE_SOURCE.replace("V(vin, out) <+ R * I(vin, out);", law)


class TestNetlistErrors:
    @pytest.mark.parametrize("law", UNREAL_POWER_LAWS)
    def test_power_without_a_real_value_is_a_positioned_frontend_error(self, law):
        source = unreal_power_source(law)
        with pytest.raises(NetlistError, match="cannot recognise") as excinfo:
            to_circuit(parse_module(source))
        assert (excinfo.value.line, excinfo.value.column) == (8, 5)
        verdict = check_source(source)
        assert (verdict.ok, verdict.stage) == (False, FRONTEND)
        assert "line 8, column 5" in verdict.detail

    def test_nonlinear_contribution_is_rejected_with_the_branch_name(self):
        with pytest.raises(NetlistError, match="rb") as excinfo:
            to_circuit(parse_module(NONLINEAR_SOURCE))
        assert (excinfo.value.line, excinfo.value.column) == (9, 5)

    def test_unfoldable_conditional_is_rejected(self):
        with pytest.raises(NetlistError, match="fold") as excinfo:
            to_circuit(parse_module(UNFOLDABLE_SOURCE))
        assert (excinfo.value.line, excinfo.value.column) == (10, 5)

    def test_unknown_parameter_override_is_rejected(self):
        module = parse_module(OVERRIDE_SOURCE)
        with pytest.raises(NetlistError, match="RX"):
            to_circuit(module, overrides={"RX": 5.0})
        circuit = to_circuit(module, overrides={"R": 3e3})
        assert circuit is not None

    def test_nonpositive_override_is_a_positioned_netlist_error(self):
        module = parse_module(OVERRIDE_SOURCE)
        with pytest.raises(NetlistError, match="resistor .* non-positive") as excinfo:
            to_circuit(module, overrides={"R": -1.0})
        assert (excinfo.value.line, excinfo.value.column) == (8, 5)

    @pytest.mark.parametrize("law, kind", NONPHYSICAL_LAWS.items())
    def test_nonpositive_literal_value_is_a_positioned_netlist_error(self, law, kind):
        # The negative idt law is a non-physical capacitor, as the linter says.
        message = f"{kind} 'b2_out_gnd' has non-positive"
        with pytest.raises(NetlistError, match=message) as excinfo:
            to_circuit(parse_module(nonphysical_source(law)))
        assert (excinfo.value.line, excinfo.value.column) == (9, 5)

    @pytest.mark.parametrize("law", NONPHYSICAL_LAWS)
    def test_fuzz_oracle_reports_nonphysical_values_as_frontend_failures(self, law):
        verdict = check_source(nonphysical_source(law))
        assert not verdict.ok
        assert verdict.stage == FRONTEND
        assert "NetlistError" in verdict.detail
