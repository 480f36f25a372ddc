"""Per-layer timing probes installed from the benchmark, never from ``src``.

A :class:`Probe` replaces public functions and methods of the program with
thin wrappers for the duration of a traced round and restores the originals
afterwards, so untraced rounds execute the unmodified program.  Each wrapper
measures its call with ``perf_counter`` and keeps a per-process stack, so a
layer's *self* time excludes the time of any wrapped layer it calls.

Self times accumulate directly in the counter dictionary of
``repro.obs.TRACER`` under ``perfbench.self_s.<layer>``.  Campaign workers are forked from the traced
parent, inherit the installed wrappers and ship their tracer counters back
with their results, which is how layer times measured inside workers reach
the benchmark.
"""

from __future__ import annotations

import time

SELF_PREFIX = "perfbench.self_s."

#: Counters written by the kernel probe: timed actions scheduled and delta
#: cycles run inside ``Kernel.run`` (``Kernel.event_count`` counts only
#: ``Event`` triggers, which the platform never uses).
TIMED_ACTIONS = "perfbench.de.timed_actions"
DELTAS = "perfbench.de.deltas"
#: Abstractions of a circuit that carries an analog fault.
REABSTRACTIONS = "perfbench.fault.reabstractions"


def _targets():
    """``(owner, attribute, layer)`` for every probed public entry point."""
    from repro.circuits.library import BenchmarkCircuit
    from repro.core import flow
    from repro.core.codegen import numpy_backend, python_backend
    from repro.fault.campaign import FaultableCircuitFactory, FaultCampaignRunner
    from repro.sim.ams import ReferenceAmsSimulator
    from repro.sim.cosim import AnalogCosimServer
    from repro.sim.de.kernel import Kernel
    from repro.sim.eln import ElnModel
    from repro.sim.tdf import TdfCluster
    from repro.store.runstore import RunStore
    from repro.sweep.runner import SweepRunner
    from repro.vp import platform
    from repro.vp.apb import ApbBus
    from repro.vp.mips.cpu import MipsCpu
    from repro.zoo import catalog

    return [
        (platform.SmartSystemPlatform, "__init__", "vp.build"),
        (platform, "assemble", "vp.assemble"),
        (platform.SmartSystemPlatform, "attach_analog", "vp.attach"),
        (platform.SmartSystemPlatform, "run", "vp.run"),
        (Kernel, "run", "de"),
        (BenchmarkCircuit, "circuit", "network.build"),
        (MipsCpu, "run_block", "iss"),
        (ApbBus, "read", "apb.read"),
        (ApbBus, "write", "apb.write"),
        (TdfCluster, "run_period", "sim.tdf"),
        (ElnModel, "step", "sim.eln"),
        (AnalogCosimServer, "transact", "sim.cosim"),
        (ReferenceAmsSimulator, "step", "sim.ams"),
        (flow.AbstractionFlow, "abstract", "core.abstract"),
        (flow, "acquire", "core.acquisition"),
        (flow, "enrich", "core.enrichment"),
        (flow.Assembler, "assemble", "core.assemble"),
        (flow, "to_signal_flow", "core.solve"),
        (catalog, "parse_module", "vams.parse"),
        (catalog, "to_circuit", "vams.elaborate"),
        (python_backend.PythonGenerator, "generate", "codegen.generate"),
        (numpy_backend.NumpyGenerator, "generate_batch", "codegen.generate"),
        (python_backend, "compile_generated", "codegen.compile"),
        (numpy_backend, "compile_batch", "codegen.compile"),
        (SweepRunner, "run", "sweep.run"),
        (FaultCampaignRunner, "run", "fault.campaign"),
        (FaultableCircuitFactory, "__call__", "fault.factory"),
        (RunStore, "commit", "store.commit"),
        (RunStore, "load", "store.load"),
    ]


class Probe:
    """Installs timing wrappers on the program's layer entry points."""

    def __init__(self, counters: dict) -> None:
        self.counters = counters
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Generated model classes whose ``step`` is timed as ``analog.step``.
        self._model_classes: list[type] = []
        #: Fault name of the circuit most recently built by the campaign's
        #: factory; an abstraction that follows it is a re-abstraction.
        self._last_fault = ""

    # -- wrapper factory ---------------------------------------------------------------
    def _timed(self, function, layer: str, before=None, after=None):
        counters = self.counters
        stack = self._stack
        self_key = SELF_PREFIX + layer
        now = time.perf_counter

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            start = now()
            stack.append(0.0)
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = now() - start
                children = stack.pop()
                counters[self_key] = counters.get(self_key, 0.0) + elapsed - children
                if stack:
                    stack[-1] += elapsed
                if after is not None:
                    after(args, token)

        return wrapper

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    # -- special cases -----------------------------------------------------------------
    def _kernel_run(self, function):
        counters = self.counters

        def before(args, kwargs):
            kernel = args[0]
            return kernel._sequence, kernel.delta_count

        def after(args, token):
            kernel = args[0]
            counters[TIMED_ACTIONS] = counters.get(TIMED_ACTIONS, 0.0) + kernel._sequence - token[0]
            counters[DELTAS] = counters.get(DELTAS, 0.0) + kernel.delta_count - token[1]

        return self._timed(function, "de", before, after)

    def _fault_factory(self, function):
        probe = self

        def before(args, kwargs):
            probe._last_fault = kwargs.get("_fault", "") or (args[1] if len(args) > 1 else "")

        return self._timed(function, "fault.factory", before)

    def _abstract(self, function):
        probe = self
        counters = self.counters

        def before(args, kwargs):
            if probe._last_fault:
                counters[REABSTRACTIONS] = counters.get(REABSTRACTIONS, 0.0) + 1.0

        return self._timed(function, "core.abstract", before)

    def _compile_generated(self, function):
        probe = self
        timed = self._timed(function, "codegen.compile")

        def compile_and_probe(generated):
            cls = timed(generated)
            probe.time_model_class(cls)
            return cls

        return compile_and_probe

    # -- public API --------------------------------------------------------------------
    def time_model_class(self, cls: type) -> None:
        """Time ``cls.step`` (a generated analog model) as ``analog.step``."""
        if cls in self._model_classes or "step" not in cls.__dict__:
            return
        self._model_classes.append(cls)
        self._patch(cls, "step", self._timed(vars(cls)["step"], "analog.step"))

    def install(self, model_classes=()) -> None:
        if self._patches:
            raise RuntimeError("probes are already installed")
        special = {
            ("de", "run"): self._kernel_run,
            ("fault.factory", "__call__"): self._fault_factory,
            ("core.abstract", "abstract"): self._abstract,
            ("codegen.compile", "compile_generated"): self._compile_generated,
        }
        for owner, attribute, layer in _targets():
            original = vars(owner)[attribute]
            wrap = special.get((layer, attribute))
            self._patch(owner, attribute, wrap(original) if wrap else self._timed(original, layer))
        for cls in model_classes:
            self.time_model_class(cls)

    def remove(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        self._model_classes.clear()
        self._stack.clear()
        self._last_fault = ""

