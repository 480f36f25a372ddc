"""The committed circuit zoo, exposed as first-class circuit factories.

Every ``corpus/*.va`` netlist is a hand-written, third-party-style
Verilog-AMS module.  :func:`zoo_entries` loads them all; :func:`zoo_factory`
wraps one as a **picklable** callable with the exact factory contract the
sweep and fault subsystems expect — ``factory(**params) -> Circuit`` where
the keyword arguments override the module's ``parameter real`` defaults.
That makes the whole zoo consumable by ``SweepSpec`` grids and
``FaultCampaignSpec`` runs with no glue code.

A factory reads and parses only its own ``<name>.va`` file on each call, so
an edited netlist takes effect on the next scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..network import Circuit
from ..vams import NetlistError, VamsModule, parse_module, to_circuit


def corpus_dir() -> Path:
    """The directory holding the committed ``*.va`` zoo netlists."""
    return Path(__file__).resolve().parent / "corpus"


@dataclass(frozen=True)
class ZooEntry:
    """One zoo netlist: its source, parsed module, and interface summary."""

    name: str
    path: Path
    source: str
    module: VamsModule = field(compare=False)
    parameters: "dict[str, float]" = field(compare=False)
    inputs: tuple[str, ...] = ()
    output: str = "out"

    def circuit(self, **overrides: float) -> Circuit:
        """Build the circuit, optionally overriding ``parameter real`` values."""
        return to_circuit(self.module, overrides=overrides or None)


def _load_path(path: Path) -> ZooEntry:
    source = path.read_text(encoding="utf-8")
    module = parse_module(source)
    inputs = tuple(port.name for port in module.ports if port.direction == "input")
    outputs = [port.name for port in module.ports if port.direction == "output"]
    return ZooEntry(
        name=module.name,
        path=path,
        source=source,
        module=module,
        parameters=module.parameter_values(),
        inputs=inputs,
        output=outputs[0] if outputs else "out",
    )


def zoo_entries(directory: "str | Path | None" = None) -> list[ZooEntry]:
    """Load every ``*.va`` netlist of the zoo (or of ``directory``), by name."""
    root = Path(directory) if directory is not None else corpus_dir()
    return [_load_path(path) for path in sorted(root.glob("*.va"))]


def load_entry(name: str, directory: "str | Path | None" = None) -> ZooEntry:
    """Load the zoo entry whose module is called ``name``.

    Only ``<name>.va`` is read when it holds that module (the corpus names
    its files after their modules); otherwise every netlist is scanned.
    """
    root = Path(directory) if directory is not None else corpus_dir()
    path = root / f"{name}.va"
    if path.is_file():
        entry = _load_path(path)
        if entry.name == name:
            return entry
    for entry in zoo_entries(directory):
        if entry.name == name:
            return entry
    known = ", ".join(entry.name for entry in zoo_entries(directory)) or "none"
    raise KeyError(f"no zoo netlist called {name!r} (known: {known})")


@dataclass(frozen=True)
class ZooCircuitFactory:
    """Picklable ``factory(**params) -> Circuit`` over one zoo netlist.

    Only the netlist *name* (and optional corpus directory) is carried across
    process boundaries; each worker re-parses the committed source, so the
    factory stays valid under ``multiprocessing`` sweeps.
    """

    name: str
    directory: "str | None" = None

    def __call__(self, **overrides: float) -> Circuit:
        entry = load_entry(self.name, self.directory)
        unknown = set(overrides) - set(entry.parameters)
        if unknown:
            raise NetlistError(
                f"zoo netlist {self.name!r} has no parameter called "
                f"{', '.join(sorted(unknown))}"
            )
        return entry.circuit(**overrides)


def zoo_factory(name: str, directory: "str | Path | None" = None) -> ZooCircuitFactory:
    """A picklable circuit factory for the zoo netlist called ``name``."""
    load_entry(name, directory)  # fail fast on unknown names
    return ZooCircuitFactory(name, str(directory) if directory is not None else None)
