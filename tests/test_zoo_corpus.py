"""The committed circuit zoo: round-trip and cross-engine agreement.

Every ``zoo/corpus/*.va`` netlist must parse, build, and agree across every
pair of engines to the 1e-9 differential contract — parametrized per netlist
and per engine pair so a regression names the exact circuit and pairing.
"""

from __future__ import annotations

import itertools
import pickle

import pytest

from repro.network import Circuit
from repro.vams import parse_module, to_circuit
from repro.zoo import OracleConfig, check_source, load_entry, zoo_entries, zoo_factory

CONFIG = OracleConfig(duration=5e-5)
ENTRIES = zoo_entries()
NAMES = [entry.name for entry in ENTRIES]
PAIRS = list(itertools.combinations(CONFIG.engines, 2))


class TestCatalog:
    def test_zoo_is_at_least_eight_netlists(self):
        assert len(ENTRIES) >= 8

    def test_entries_expose_interface_summaries(self):
        entry = load_entry("rc_ladder3")
        assert entry.inputs == ("vin",)
        assert entry.output == "out"
        assert entry.parameters == pytest.approx({"R": 4.7e3, "C": 22e-9})

    def test_unknown_entry_raises_with_known_names(self):
        with pytest.raises(KeyError, match="rc_ladder3"):
            load_entry("definitely_not_a_zoo_circuit")

    def test_factory_builds_and_overrides_parameters(self):
        factory = zoo_factory("divider")
        nominal = factory()
        assert isinstance(nominal, Circuit)
        overridden = factory(RTOP=99e3)
        assert overridden.branch("rb").component is not None
        assert nominal is not overridden

    def test_factory_rejects_unknown_parameters(self):
        from repro.vams import NetlistError

        with pytest.raises(NetlistError, match="RFOO"):
            zoo_factory("divider")(RFOO=1.0)

    def test_factory_is_picklable(self):
        factory = pickle.loads(pickle.dumps(zoo_factory("gm_stage")))
        assert isinstance(factory(), Circuit)

    def test_factory_calls_parse_only_their_own_netlist(self, monkeypatch):
        """16 scenario builds parse ``rc_ladder3.va`` 16 times, not the
        whole 10-file corpus each time (160 parses)."""
        from repro.zoo import catalog

        parsed = []

        def counting_parse(source):
            parsed.append(source)
            return parse_module(source)

        factory = zoo_factory("rc_ladder3")
        monkeypatch.setattr(catalog, "parse_module", counting_parse)
        for _ in range(16):
            factory(R=4.7e3)
        assert len(parsed) == 16
        assert set(parsed) == {load_entry("rc_ladder3").source}

    def test_edited_netlist_is_seen_by_the_next_call(self, tmp_path):
        source = load_entry("divider").source
        (tmp_path / "divider.va").write_text(source)
        factory = zoo_factory("divider", tmp_path)
        assert factory().branch("rb").component.resistance == 2.2e3
        (tmp_path / "divider.va").write_text(
            source.replace("RBOT = 2.2k", "RBOT = 3.3k")
        )
        assert load_entry("divider", tmp_path).parameters["RBOT"] == 3.3e3
        assert factory().branch("rb").component.resistance == 3.3e3
        assert pickle.loads(pickle.dumps(factory)) == factory

    def test_file_not_named_after_its_module_is_found_by_scanning(self, tmp_path):
        divider = load_entry("divider").source
        (tmp_path / "divider.va").write_text(load_entry("gm_stage").source)
        (tmp_path / "resistive.va").write_text(divider)
        entry = load_entry("divider", tmp_path)
        assert entry.name == "divider"
        assert entry.path.name == "resistive.va"
        assert load_entry("gm_stage", tmp_path).path.name == "divider.va"

    @pytest.mark.parametrize("name", NAMES)
    def test_round_trip_parse_and_build(self, name):
        entry = load_entry(name)
        module = parse_module(entry.source)
        circuit = to_circuit(module)
        assert circuit.name == name
        nets = {net.lower() for net in module.electrical_nets()}
        assert entry.output in nets


class TestCrossEngineAgreement:
    @pytest.fixture(scope="class")
    def verdicts(self):
        return {
            entry.name: check_source(entry.source, CONFIG, output=entry.output)
            for entry in ENTRIES
        }

    @pytest.mark.parametrize("name", NAMES)
    def test_netlist_passes_the_oracle(self, verdicts, name):
        verdict = verdicts[name]
        assert verdict.ok, f"{name}: {verdict.summary()}"

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize(
        "pair", PAIRS, ids=lambda pair: f"{pair[0]}-vs-{pair[1]}"
    )
    def test_pairwise_agreement(self, verdicts, name, pair):
        error = verdicts[name].errors[pair]
        assert error <= CONFIG.tolerance, (
            f"{name}: {pair[0]} and {pair[1]} disagree (NRMSE {error:.3e})"
        )
