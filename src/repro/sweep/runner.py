"""Batch execution of sweep scenarios: vectorized, cached, and chunkable.

:class:`SweepRunner` is the engine that turns a scenario list into ensemble
waveforms:

1. every scenario's circuit is built (``factory(**scenario.params)``) and
   abstracted into a signal-flow model.  A draw changes component values,
   never topology, so the batched backends abstract once per circuit
   structure (:mod:`repro.core.tape`): the first scenario of a structure goes
   through the full four-step flow with its constant arithmetic recorded,
   and every other scenario replays that arithmetic on its own values into a
   model bit-identical to the full flow's.  A scenario whose replay fails a
   guard goes through the full flow;
2. scenarios whose models are structurally identical are grouped, and each
   group becomes one vectorized NumPy batch model
   (:mod:`repro.core.codegen.numpy_backend`) that advances *all* of the
   group's scenarios per timestep — per-scenario coefficients live in arrays,
   so a 256-point Monte-Carlo costs one generated class and one Python-level
   loop instead of 256;
3. compiled classes are reused through the source-digest cache
   (:mod:`repro.core.codegen.cache`);
4. the campaign executor (:mod:`repro.sweep.executor`) chunks the scenario
   list across ``multiprocessing`` workers (serial fallback when the
   platform or the payload does not cooperate), loads and commits store
   records, and reassembles the rows in scenario order, so multiprocess,
   serial and resumed runs are bit-identical.

The scalar ``backend="python"`` path abstracts every scenario through the
full flow and runs it through the generated per-scenario ``step`` class
instead; it exists as the equivalence baseline and as a fallback for models
the vectorized renderer cannot batch.
"""

from __future__ import annotations

import hashlib
import time as _time
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core.codegen.native_backend import NativeGenerator, toolchain_error
from ..core.codegen.numpy_backend import NumpyGenerator, structure_signature
from ..core.codegen.python_backend import compile_model_cached
from ..core.flow import AbstractionFlow
from ..core.signalflow import SignalFlowModel
from ..core.tape import record, structure_key
from ..errors import SimulationError, StoreError
from ..metrics.nrmse import compare_traces
from ..network.circuit import Circuit
from ..obs.tracer import TRACER
from ..sim.runners import resolve_steps, run_reference_model
from ..sim.trace import Trace
from ..store import RunStore, fingerprint
from .executor import CampaignTask, Executor, SweepError
from .results import SweepResult
from .spec import Scenario, SweepSpec

Stimuli = Mapping[str, Callable[[float], float]]


@dataclass
class SweepTask(CampaignTask):
    """The picklable recipe of a sweep, shipped to every worker process.

    One executed unit is one scenario's waveform rows in store-record form
    (``steps``, structure ``signature`` digest, output ``order`` and the
    ``outputs`` rows), so a loaded scenario and a simulated one are the same
    value.  ``order`` travels explicitly because JSON objects are written
    key-sorted: a fully resumed run must assemble its ensemble in the same
    column order as a fresh one.
    """

    factory: Callable[..., Circuit]
    outputs: list[str]
    timestep: float
    stimuli: dict[str, Callable[[float], float]]
    method: str = "backward_euler"
    backend: str = "numpy"
    name: str | None = None
    #: Strict static-analysis gate: lint every abstracted model before it is
    #: simulated and raise :class:`repro.lint.LintError` on any error
    #: diagnostic (see :mod:`repro.lint.artifact_rules`).
    lint: bool = False
    duration: float = 0.0

    engine = "sweep"
    unit = "sweep scenarios"
    counters = ("sweep.scenarios", "sweep.loaded")

    @property
    def steps(self) -> int:
        return resolve_steps(self.duration, self.timestep)

    def store_inputs(self, scenario: Scenario) -> dict:
        """The full-input payload whose digest addresses one sweep scenario.

        Covers everything that determines the scenario's waveforms: the
        circuit factory identity, its parameters, the recorded outputs, the
        execution grid (duration/timestep), the discretisation method, the
        backend and the resolved stimulus set.  Scenario position/label are
        deliberately excluded — identical work shares a record no matter
        where it sits in the expansion.
        """
        return {
            "engine": "sweep",
            "factory": fingerprint(self.factory),
            "outputs": list(self.outputs),
            "timestep": self.timestep,
            "duration": self.duration,
            "method": self.method,
            "backend": self.backend,
            # fingerprint() also canonicalizes numpy-typed parameter values
            # (np.float32/np.int64 from array-built axes are not JSON types).
            "params": [
                [name, fingerprint(value)]
                for name, value in sorted(scenario.params.items())
            ],
            "stimuli": fingerprint(dict(_scenario_stimuli(self, scenario))),
        }

    def encode(self, rows: dict) -> dict:
        return rows

    def decode(self, record: dict) -> dict:
        """Validate a stored scenario's rows against the execution grid."""
        stored = record.get("outputs")
        if not isinstance(stored, dict):
            raise StoreError("the record has no output rows")
        steps = self.steps
        order = list(record.get("order") or stored)
        rows: dict[str, np.ndarray] = {}
        for name in order:
            if name not in stored:
                raise StoreError(f"the record lacks output {name!r} (has {sorted(stored)})")
            rows[name] = np.asarray(stored[name], dtype=float)
            if rows[name].shape != (steps,):
                raise StoreError(
                    f"the record holds {rows[name].shape} samples for output "
                    f"{name!r}, expected ({steps},)"
                )
        return {
            "steps": steps,
            "signature": record.get("signature"),
            "order": order,
            "outputs": rows,
        }

    def execute(self, scenarios: Sequence[Scenario], pending: list[int]):
        """Abstract the pending scenarios, then simulate them group by group.

        Structurally identical models form one vectorized batch (numpy and
        native backends); the scalar ``python`` backend runs each scenario
        alone.  Every scenario of a group is yielded as soon as the group
        finishes.  A traced run counts ``sweep.abstractions`` (full flows),
        ``sweep.replays``, ``sweep.replay_fallbacks`` (a guard failed) and
        ``sweep.replay_disabled`` (structures whose recording met an
        operation the tape cannot replay).
        """
        start = _time.perf_counter()
        models = _abstract_pending(self, scenarios, pending)
        abstract = _time.perf_counter() - start
        TRACER.complete("sweep.abstract", start, abstract, "sweep", scenarios=len(pending))
        if self.lint and pending:
            _lint_models(
                [models[position] for position in pending],
                [scenarios[position] for position in pending],
            )

        steps = self.steps
        start = _time.perf_counter()
        if self.backend == "python":
            groups = [(structure_signature(models[p]), [p]) for p in pending]
        else:
            grouped: dict[tuple, list[int]] = {}
            for position in pending:
                grouped.setdefault(structure_signature(models[position]), []).append(
                    position
                )
            groups = grouped.items()
        simulate_group = _simulate_scalar if self.backend == "python" else _simulate_batch
        for signature, positions in groups:
            group_models = [models[i] for i in positions]
            matrices = simulate_group(
                self, [scenarios[i] for i in positions], group_models, steps
            )
            digest = _signature_digest(signature)
            order = list(group_models[0].outputs)
            for row, position in enumerate(positions):
                yield position, {
                    "steps": steps,
                    "signature": digest,
                    "order": order,
                    "outputs": {name: matrices[name][row] for name in order},
                }
        simulate = _time.perf_counter() - start
        TRACER.complete("sweep.simulate", start, simulate, "sweep", scenarios=len(pending))
        return {"abstract": abstract, "simulate": simulate}


def _lint_models(models: list[SignalFlowModel], scenarios: list[Scenario]) -> None:
    """Raise :class:`repro.lint.LintError` on any error diagnostic."""
    from ..lint import LintError, lint_model

    report = None
    for model, scenario in zip(models, scenarios):
        scenario_report = lint_model(model, file=f"<scenario:{scenario.describe()}>")
        if report is None:
            report = scenario_report
        else:
            report.extend(scenario_report)
    if not report.ok:
        raise LintError(report)


def _signature_digest(signature: tuple) -> str:
    """A short stable digest of a structure signature (store-record form)."""
    return hashlib.sha256(repr(signature).encode("utf-8")).hexdigest()[:16]


def _abstract_pending(
    config: SweepTask, scenarios: Sequence[Scenario], pending: list[int]
) -> dict[int, SignalFlowModel]:
    """The model of every pending scenario, abstracted once per circuit structure.

    The batched backends abstract the first scenario of each structure
    (:func:`repro.core.tape.structure_key`) on a tape and replay it for the
    others; a scenario whose replay fails a guard takes the full flow.  The
    ``python`` backend runs the full flow for every scenario.  Errors surface
    as the per-scenario flow raises them: the first in ``pending`` order.
    """
    outcomes: dict[int, "SignalFlowModel | Exception"] = {}
    circuits: dict[int, Circuit] = {}
    for position in pending:
        try:
            circuits[position] = config.factory(**scenarios[position].params)
        except Exception as exc:
            outcomes[position] = exc
    groups: dict[object, list[int]] = {}
    for position, circuit in circuits.items():
        key = structure_key(circuit) if config.backend != "python" else None
        groups.setdefault(key if key is not None else ("alone", position), []).append(position)

    counts = dict.fromkeys(
        ("abstractions", "replays", "replay_fallbacks", "replay_disabled"), 0
    )
    for positions in groups.values():
        replayed = _replay_group(config, [circuits[p] for p in positions], counts)
        for position, model in zip(positions, replayed):
            if model is None:
                counts["abstractions"] += 1
                try:
                    model = _abstract_scenario(config, circuits[position])
                except Exception as exc:
                    model = exc
            outcomes[position] = model
    if TRACER.enabled:
        for name, count in counts.items():
            TRACER.add(f"sweep.{name}", float(count))
    for position in pending:
        if isinstance(outcomes[position], Exception):
            raise outcomes[position]
    return outcomes


def _replay_group(
    config: SweepTask, circuits: list[Circuit], counts: dict[str, int]
) -> "list[SignalFlowModel | None]":
    """Record the first circuit of one structure and replay the others.

    ``None`` marks a scenario the full flow must abstract: every one when the
    group is a single scenario or the recording failed or was disabled.
    """
    if len(circuits) < 2:
        return [None]
    flow = AbstractionFlow(config.timestep, method=config.method)
    name = config.name or circuits[0].name
    try:
        recording = record(flow, circuits[0], config.outputs, name=name)
    except Exception:
        # The recorded scenario's own error: the full flow raises it again.
        return [None] * len(circuits)
    if recording.disabled is None:
        replayed = recording.replay(circuits[1:])
    # Replay disables the tape too when it cannot reproduce the recording.
    if recording.disabled is not None:
        counts["replay_disabled"] += 1
        return [None] * len(circuits)
    counts["abstractions"] += 1
    counts["replays"] += sum(model is not None for model in replayed)
    counts["replay_fallbacks"] += sum(model is None for model in replayed)
    return [recording.model(), *replayed]


def _abstract_scenario(config: SweepTask, circuit: Circuit) -> SignalFlowModel:
    """The full four-step flow for one scenario's circuit."""
    flow = AbstractionFlow(config.timestep, method=config.method)
    name = config.name or circuit.name
    return flow.abstract(circuit, list(config.outputs), name=name).model


def _scenario_stimuli(config: SweepTask, scenario: Scenario) -> Stimuli:
    return scenario.stimuli if scenario.stimuli is not None else config.stimuli


def _input_columns(
    config: SweepTask,
    scenarios: Sequence[Scenario],
    input_names: Sequence[str],
):
    """Per-input evaluators: a shared callable, or a per-scenario array builder."""
    columns = []
    for name in input_names:
        waveforms = []
        for scenario in scenarios:
            stimuli = _scenario_stimuli(config, scenario)
            try:
                waveforms.append(stimuli[name])
            except KeyError as exc:
                raise SweepError(
                    f"scenario {scenario.describe()} provides no stimulus for "
                    f"input {name!r}"
                ) from exc
        first = waveforms[0]
        if all(waveform == first for waveform in waveforms[1:]):
            columns.append(first)
        else:
            columns.append(
                lambda t, _waveforms=waveforms: np.array(
                    [waveform(t) for waveform in _waveforms]
                )
            )
    return columns


def _simulate_batch(
    config: SweepTask,
    scenarios: Sequence[Scenario],
    models: Sequence[SignalFlowModel],
    steps: int,
) -> dict[str, np.ndarray]:
    """Run one structure group through the vectorized NumPy or native backend."""
    if config.backend == "native":
        artifact = NativeGenerator().generate_batch(models)
    else:
        artifact = NumpyGenerator().generate_batch(models)
    instance = artifact.instantiate()
    dt = float(config.timestep)
    output_names = list(instance.OUTPUTS)
    single_output = len(output_names) == 1
    columns = _input_columns(config, scenarios, instance.INPUTS)
    step_batch = instance.step_batch
    # Record step-major (contiguous row writes), transpose to scenario-major once.
    recorded = {name: np.zeros((steps, len(scenarios))) for name in output_names}
    for index in range(steps):
        now = (index + 1) * dt
        result = step_batch(*[column(now) for column in columns], now)
        if single_output:
            recorded[output_names[0]][index] = result
        else:
            for name, values in zip(output_names, result):
                recorded[name][index] = values
    return {
        name: np.ascontiguousarray(matrix.T) for name, matrix in recorded.items()
    }


def _simulate_scalar(
    config: SweepTask,
    scenarios: Sequence[Scenario],
    models: Sequence[SignalFlowModel],
    steps: int,
) -> dict[str, np.ndarray]:
    """Run one scenario through the per-scenario generated ``step`` class."""
    (model,) = models
    instance = compile_model_cached(model)()
    dt = float(config.timestep)
    waveforms = _input_columns(config, scenarios, instance.INPUTS)
    output_names = list(instance.OUTPUTS)
    single_output = len(output_names) == 1
    rows = {name: np.zeros(steps) for name in output_names}
    step = instance.step
    for index in range(steps):
        now = (index + 1) * dt
        result = step(*[waveform(now) for waveform in waveforms], now)
        if single_output:
            rows[output_names[0]][index] = result
        else:
            for name, value in zip(output_names, result):
                rows[name][index] = value
    return {name: row.reshape(1, steps) for name, row in rows.items()}


class SweepRunner:
    """Expand a spec, simulate every scenario, aggregate into a result.

    Parameters
    ----------
    factory:
        Circuit factory called with each scenario's parameters
        (``factory(**scenario.params)``).  Must be picklable for
        multiprocess runs (a module-level function, e.g.
        :func:`repro.circuits.build_rc_filter`).
    outputs:
        Output(s) of interest handed to the abstraction flow (``"out"`` or
        ``["out", "V(n1)"]``).
    stimuli:
        Default stimulus callables keyed by input name; individual scenarios
        may override them.
    timestep:
        Fixed execution timestep of the generated models.
    backend:
        ``"numpy"`` (vectorized batches, the default), ``"native"``
        (cffi-compiled C batch kernels; needs cffi and a C compiler) or
        ``"python"`` (per-scenario scalar classes — the equivalence
        baseline).
    workers / store / resume / trace / progress:
        How the scenarios execute, see
        :class:`~repro.sweep.executor.Executor`: a scenario's waveforms are
        committed to ``store`` as its batch group finishes, and a resumed
        ensemble is bit-identical to an uninterrupted one.  A traced run
        attaches the merged :class:`~repro.obs.telemetry.TelemetryReport`
        to the result.
    lint:
        Strict static-analysis gate: run the codegen artifact verifier
        (:mod:`repro.lint`) over every abstracted model before simulating
        and raise :class:`~repro.lint.LintError` on any error diagnostic.
    """

    def __init__(
        self,
        factory: Callable[..., Circuit],
        outputs: "str | list[str]",
        stimuli: Stimuli,
        timestep: float,
        method: str = "backward_euler",
        backend: str = "numpy",
        workers: int = 1,
        name: str | None = None,
        store: "RunStore | str | None" = None,
        resume: bool = False,
        trace: "bool | None" = None,
        progress: "bool | None" = None,
        lint: bool = False,
    ) -> None:
        if timestep <= 0.0:
            raise ValueError("timestep must be positive")
        if backend not in ("numpy", "native", "python"):
            raise SweepError(
                f"unknown sweep backend {backend!r}; "
                "use 'numpy', 'native' or 'python'"
            )
        if backend == "native":
            missing = toolchain_error()
            if missing:
                raise SweepError(f"native sweep backend unavailable: {missing}")
        self.task = SweepTask(
            factory=factory,
            outputs=[outputs] if isinstance(outputs, str) else list(outputs),
            timestep=float(timestep),
            stimuli=dict(stimuli),
            method=method,
            backend=backend,
            name=name,
            lint=bool(lint),
        )
        self.executor = Executor(
            workers=int(workers),
            store=store,
            resume=bool(resume),
            trace=trace,
            progress=progress,
        )

    # -- execution ---------------------------------------------------------------------
    def run(
        self,
        spec: "SweepSpec | Sequence[Scenario]",
        duration: float,
        reference: bool = False,
    ) -> SweepResult:
        """Simulate every scenario of ``spec`` for ``duration`` seconds.

        With ``reference=True`` every scenario is additionally simulated on
        the reference AMS engine and the per-scenario NRMSE is recorded
        (slow — the reference engine is the paper's golden baseline, not a
        batch target).
        """
        scenarios = spec.expand() if isinstance(spec, SweepSpec) else list(spec)
        if not scenarios:
            raise SweepError("the sweep spec expanded to zero scenarios")
        task = replace(self.task, duration=float(duration))
        try:
            steps = task.steps
        except SimulationError as exc:
            raise SweepError(str(exc)) from exc

        outcome = self.executor.run(task, scenarios)
        rows = outcome.results
        order = rows[0]["order"]
        result = SweepResult(
            scenarios=scenarios,
            times=np.arange(1, steps + 1) * task.timestep,
            outputs={
                name: np.stack([row["outputs"][name] for row in rows])
                for name in order
            },
            backend=task.backend,
            workers=outcome.workers,
            timings=dict(outcome.timings, wall=outcome.wall),
            structure_groups=len({row["signature"] for row in rows}),
            executed=outcome.executed,
            telemetry=outcome.telemetry,
        )
        if reference:
            result.nrmse = self._reference_nrmse(task, result)
        return result

    # -- reference comparison ----------------------------------------------------------
    def _reference_nrmse(
        self,
        config: SweepTask,
        result: SweepResult,
    ) -> dict[str, np.ndarray]:
        """Per-scenario NRMSE of every output versus the reference AMS engine."""
        names = result.output_names()
        errors = {name: np.zeros(result.n_scenarios) for name in names}
        for index, scenario in enumerate(result.scenarios):
            circuit = config.factory(**scenario.params)
            reference = run_reference_model(
                circuit,
                _scenario_stimuli(config, scenario),
                config.duration,
                config.timestep,
                record=names,
            )
            for name in names:
                measured = Trace(name)
                for time, value in zip(result.times, result.outputs[name][index]):
                    measured.append(float(time), float(value))
                errors[name][index] = compare_traces(reference[name], measured)
        return errors
