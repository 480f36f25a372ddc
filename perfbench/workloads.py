"""The benchmark workloads: inputs from a seed, set-up, reference, timed rounds.

Every workload follows one protocol:

* ``Workload(seed, tmp_dir, reduced=False)`` derives all inputs from the seed
  (stimuli, firmware thresholds, Monte-Carlo draws, fault seeds) and nothing
  else; ``reduced=True`` shrinks the input sizes for the self-test.
* :meth:`Workload.setup` is the work a user pays once before running: it
  abstracts and compiles models, assembles firmware and expands specs and
  fault universes.  The driver times it as ``setup_s``.
* :meth:`Workload.reference` computes the expected outcome of every run in
  the *reference configuration* — one CPU instruction per kernel event
  (``cpu_block_cycles=1``), superblocks off, one process, and the scalar
  ``python`` backend for sweeps — through code paths independent of the
  campaign executors and batch engines under test.
* :meth:`Workload.run_round` executes one fixed unit of work in the *fast*
  configuration the program ships with and returns a :class:`Round`: its
  host wall time, the outcome of every run keyed by a readable run key, and
  the simulated statistics of the round.

Why each workload exists, which layers it loads and bypasses, and its input
sizes are recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro.circuits import benchmark_by_name, build_opamp, build_rc_filter
from repro.circuits.opamp import DEFAULT_C1, DEFAULT_R1, DEFAULT_R2
from repro.circuits.rc_filter import DEFAULT_CAPACITANCE, DEFAULT_RESISTANCE
from repro.core.codegen.cache import clear_cache
from repro.core.codegen.python_backend import compile_model_cached
from repro.core.flow import AbstractionFlow
from repro.errors import ReproError
from repro.fault.campaign import FaultCampaignRunner, FaultCampaignSpec
from repro.fault.cli import silent_sentinel
from repro.fault.models import (
    AnalogFault,
    DigitalFault,
    analog_fault_universe,
    digital_fault_universe,
)
from repro.fault.report import VERDICTS, FaultCampaignResult
from repro.metrics.nrmse import nrmse
from repro.obs.tracer import TRACER
from repro.sim.sources import SquareWave
from repro.sweep.platform import ABSTRACTED_STYLES, PlatformScenarioSpec
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import MonteCarloSpec
from repro.vp.firmware import averaging_monitor_source, threshold_monitor_source
from repro.vp.mips.assembler import assemble
from repro.vp.platform import ANALOG_STYLES, SmartSystemPlatform
from repro.zoo.catalog import load_entry, zoo_factory

from probes import SELF_PREFIX

#: The paper's analog timestep and CPU clock (Section V.A, Table III).
TIMESTEP = 50e-9
CPU_CLOCK_HZ = 20e6
#: The four Table III components, in the paper's row order.
COMPONENTS = ("2IN", "RC1", "RC20", "OA")
#: Platform configuration of the reference outputs: per-tick CPU stepping
#: without superblocks.
REFERENCE_PLATFORM = {"cpu_block_cycles": 1, "cpu_superblocks": False}


def digest(values) -> str:
    """Bit-exact digest of a float sequence (an ADC trace, a waveform row)."""
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def describe(key: tuple) -> str:
    """A run key as ``field=value`` pairs (workload, component, style, fault...)."""
    return " ".join(f"{name}={value}" for name, value in key)


def aligned_nrmse(reference, measured) -> float:
    """NRMSE of two ADC streams, tolerating the one-sample start offset
    between integration styles (the best of the -1/0/+1 shifts, as the
    platform sweep's private helper does)."""
    reference = np.asarray(reference, dtype=float)
    measured = np.asarray(measured, dtype=float)
    best = np.inf
    for shift in (-1, 0, 1):
        a, b = (reference[shift:], measured) if shift >= 0 else (reference, measured[-shift:])
        length = min(a.size, b.size)
        if length:
            best = min(best, nrmse(a[:length], b[:length]))
    return float(best)


def platform_outcome(result) -> tuple:
    """What must match the reference for one platform run."""
    return (result.fingerprint(), digest(result.analog_trace))


@dataclass
class Round:
    """One timed unit of work and everything measured about it."""

    wall: float
    #: Run key -> outcome compared against the reference.
    outcomes: dict
    #: Completed runs (platform runs, campaign runs or sweep scenarios).
    runs: int
    #: Simulated milliseconds executed (loaded store records excluded).
    sim_ms: float
    #: Simulated statistics and program-reported timings of the round.
    stats: dict = field(default_factory=dict)
    #: Worker telemetry reports of a traced multiprocess round.
    telemetry: list = field(default_factory=list)
    #: Probe and tracer counter increments of a traced round (set by the driver).
    counters: dict = field(default_factory=dict)


class Workload:
    """Base class: seed-derived inputs, set-up, reference and timed rounds."""

    name = ""
    #: Position in :data:`WORKLOADS`; keeps the seed streams of workloads apart.
    index = 0

    def __init__(self, seed: int, tmp_dir: Path, reduced: bool = False) -> None:
        self.seed = int(seed)
        self.tmp_dir = Path(tmp_dir)
        self.reduced = reduced
        self.rng = np.random.default_rng([self.index, self.seed])

    def setup(self):
        raise NotImplementedError

    def reference(self, state) -> dict:
        raise NotImplementedError

    def run_round(self, state) -> Round:
        raise NotImplementedError

    def model_classes(self, state) -> list:
        """Generated model classes compiled during set-up (probed when traced)."""
        return []

    def key(self, **fields) -> tuple:
        return (("workload", self.name), *fields.items())


# ----------------------------------------------------------------------------------
# Platform workloads (Table III)
# ----------------------------------------------------------------------------------
@dataclass
class PreparedComponent:
    name: str
    bench: object
    model: object
    model_class: type


@dataclass
class PlatformState:
    components: list
    firmwares: dict


class PlatformWorkload(Workload):
    """Table III platform runs: every component × firmware × style, serially."""

    styles: tuple = ()
    duration = 0.0
    reduced_duration = 0.0

    def __init__(self, seed: int, tmp_dir: Path, reduced: bool = False) -> None:
        super().__init__(seed, tmp_dir, reduced)
        rng = self.rng
        if reduced:
            self.duration = self.reduced_duration
        self.component_names = COMPONENTS[1:3] if reduced else COMPONENTS
        self.threshold_mv = int(rng.integers(300, 701))
        self.window_shift = int(rng.integers(1, 4))
        # Four stimulus periods per run; amplitude, duty cycle and start
        # delay vary with the seed, so firmware decisions differ per seed.
        period = self.duration / 4.0
        self.stimuli = {}
        for name in COMPONENTS:
            waves = benchmark_by_name(name).stimuli
            self.stimuli[name] = {
                port: SquareWave(
                    amplitude=wave.amplitude * float(rng.uniform(0.8, 1.2)),
                    period=period,
                    duty=float(rng.uniform(0.3, 0.7)),
                    delay=TIMESTEP * int(rng.integers(0, 200)),
                )
                for port, wave in waves.items()
            }

    def setup(self) -> PlatformState:
        flow = AbstractionFlow(TIMESTEP)
        components = []
        for name in self.component_names:
            bench = benchmark_by_name(name)
            model = flow.abstract(bench.circuit(), bench.output, name=name.lower()).model
            components.append(
                PreparedComponent(name, bench, model, compile_model_cached(model))
            )
        firmwares = {
            "threshold": threshold_monitor_source(self.threshold_mv),
            "averaging": averaging_monitor_source(self.window_shift),
        }
        for source in firmwares.values():
            assemble(source)
        return PlatformState(components, firmwares)

    def model_classes(self, state: PlatformState) -> list:
        return [component.model_class for component in state.components]

    def _cases(self, state: PlatformState):
        for component in state.components:
            for firmware in state.firmwares:
                for style in self.styles:
                    yield component, firmware, style

    def _run(self, state: PlatformState, component, firmware: str, style: str, **config):
        platform = SmartSystemPlatform(
            cpu_clock_hz=CPU_CLOCK_HZ,
            analog_timestep=TIMESTEP,
            firmware=state.firmwares[firmware],
            record_analog=True,
            **config,
        )
        stimuli = self.stimuli[component.name]
        if style in ABSTRACTED_STYLES:
            platform.attach_analog(style, stimuli, model=component.model)
        else:
            platform.attach_analog(
                style,
                stimuli,
                circuit=component.bench.circuit(),
                output=component.bench.output_quantity,
            )
        return platform, platform.run(self.duration)

    def reference(self, state: PlatformState) -> dict:
        expected = {}
        for component, firmware, style in self._cases(state):
            _, result = self._run(state, component, firmware, style, **REFERENCE_PLATFORM)
            key = self.key(component=component.name, firmware=firmware, style=style)
            expected[key] = platform_outcome(result)
        return expected

    def run_round(self, state: PlatformState) -> Round:
        finished = []
        host = {}
        start = time.perf_counter()
        for component, firmware, style in self._cases(state):
            begin = time.perf_counter()
            platform, result = self._run(state, component, firmware, style)
            host[style] = host.get(style, 0.0) + time.perf_counter() - begin
            finished.append((component.name, firmware, style, platform.cpu, result))
        wall = time.perf_counter() - start

        outcomes = {}
        traces = {}
        stats = {f"host_s.{style}": seconds for style, seconds in host.items()}
        per_style_ms = 1e3 * self.duration * len(state.components) * len(state.firmwares)
        stats.update({f"sim_ms.{style}": per_style_ms for style in self.styles})
        totals = dict.fromkeys(
            ("instructions", "blocks", "superblock_hits", "decode_misses",
             "bus_transactions", "adc_samples"), 0.0)
        for name, firmware, style, cpu, result in finished:
            outcomes[self.key(component=name, firmware=firmware, style=style)] = (
                platform_outcome(result)
            )
            traces[(name, firmware, style)] = result.analog_trace
            totals["instructions"] += result.instructions
            totals["blocks"] += cpu.block_count
            totals["superblock_hits"] += cpu.superblock_hit_count
            totals["decode_misses"] += cpu.decode_miss_count
            totals["bus_transactions"] += result.bus_transactions
            totals["adc_samples"] += result.analog_samples
        stats.update(totals)
        if "eln" in self.styles:
            stats["max_nrmse_vs_eln"] = max(
                aligned_nrmse(traces[(name, firmware, "eln")], trace)
                for (name, firmware, style), trace in traces.items()
                if style in ("de", "tdf")
            )
        return Round(
            wall=wall,
            outcomes=outcomes,
            runs=len(finished),
            sim_ms=1e3 * self.duration * len(finished),
            stats=stats,
        )


class PlatformPoll(PlatformWorkload):
    """The Table III C++ row: the generated model called from a kernel ticker."""

    name = "platform_poll"
    index = 0
    styles = ("python",)
    duration = 2e-3
    reduced_duration = 1e-4


class PlatformEvent(PlatformWorkload):
    """The event-driven SystemC-DE, SystemC-AMS/TDF and SystemC-AMS/ELN rows."""

    name = "platform_event"
    index = 1
    styles = ("de", "tdf", "eln")
    duration = 2.5e-4
    reduced_duration = 5e-5


# ----------------------------------------------------------------------------------
# Fault campaign
# ----------------------------------------------------------------------------------
@dataclass
class CampaignState:
    bench: object
    spec: FaultCampaignSpec
    runs: list


class FaultCampaign(Workload):
    """RC1 full fault universe × all five styles, then a resumed pass."""

    name = "fault_campaign"
    index = 2
    workers = 2
    nrmse_threshold = 1e-3

    def __init__(self, seed: int, tmp_dir: Path, reduced: bool = False) -> None:
        super().__init__(seed, tmp_dir, reduced)
        rng = self.rng
        self.duration = 2e-5 if reduced else 5e-5
        self.campaign_seed = int(rng.integers(0, 2**31))
        self.threshold_mv = int(rng.integers(300, 701))
        self.stimuli = {
            "vin": SquareWave(
                amplitude=float(rng.uniform(0.8, 1.2)),
                period=2.5e-5,
                duty=float(rng.uniform(0.3, 0.7)),
            )
        }
        steps = int(round(self.duration / TIMESTEP))
        self.activation = TIMESTEP * int(rng.integers(steps * 3 // 10, steps * 7 // 10))
        self._rounds = 0

    def setup(self) -> CampaignState:
        bench = benchmark_by_name("RC1")
        circuit = bench.circuit()
        analog = analog_fault_universe(circuit)
        digital = digital_fault_universe()
        if self.reduced:
            analog, digital = analog[:2], digital[:3]
        firmware = threshold_monitor_source(self.threshold_mv)
        assemble(firmware)
        spec = FaultCampaignSpec(
            faults=[silent_sentinel(circuit), *analog, *digital],
            activation_times=(self.activation,),
            scenarios=PlatformScenarioSpec(
                styles=ANALOG_STYLES, firmwares={"threshold": firmware}
            ),
            seed=self.campaign_seed,
        )
        return CampaignState(bench, spec, spec.expand())

    def _key(self, stage: str, run) -> tuple:
        return self.key(
            stage=stage,
            component="RC1",
            style=run.scenario.style,
            fault=run.fault.name if run.fault is not None else "golden",
        )

    def _outcomes(self, stage: str, campaign: FaultCampaignResult) -> dict:
        verdicts = {entry.run.index: entry.verdict for entry in campaign.verdicts()}
        return {
            self._key(stage, run): (
                *platform_outcome(result),
                verdicts.get(run.index, "golden"),
            )
            for run, result in zip(campaign.runs, campaign.results)
        }

    def _reference_run(self, state: CampaignState, run):
        """One campaign run, built directly on the platform API (no executor)."""
        bench = state.bench
        style = run.scenario.style
        platform = SmartSystemPlatform(
            cpu_clock_hz=CPU_CLOCK_HZ,
            analog_timestep=TIMESTEP,
            firmware=state.spec.firmware_table()[run.scenario.firmware],
            record_analog=True,
            **REFERENCE_PLATFORM,
        )
        try:
            circuit = bench.build()
            if isinstance(run.fault, AnalogFault):
                run.fault.apply(circuit)
            if style in ABSTRACTED_STYLES:
                model = AbstractionFlow(TIMESTEP).abstract(
                    circuit, bench.output, name=circuit.name
                ).model
                platform.attach_analog(style, self.stimuli, model=model)
            else:
                platform.attach_analog(
                    style, self.stimuli, circuit=circuit, output=bench.output_quantity
                )
            if isinstance(run.fault, DigitalFault):
                run.fault.arm(platform, run.at_time, np.random.default_rng(run.seed))
            return platform.run(self.duration)
        except ReproError as error:
            return platform.snapshot(crashed=f"{type(error).__name__}: {error}")

    def reference(self, state: CampaignState) -> dict:
        results = [self._reference_run(state, run) for run in state.runs]
        campaign = FaultCampaignResult(
            runs=state.runs,
            results=results,
            elapsed=np.zeros(len(results)),
            duration=self.duration,
            timestep=TIMESTEP,
            nrmse_threshold=self.nrmse_threshold,
        )
        expected = {}
        for stage in ("fresh", "resumed"):
            expected.update(self._outcomes(stage, campaign))
        return expected

    def run_round(self, state: CampaignState) -> Round:
        self._rounds += 1
        store = self.tmp_dir / f"store-{self._rounds}"
        bench = state.bench

        def campaign(resume: bool) -> FaultCampaignResult:
            runner = FaultCampaignRunner(
                bench.build,
                bench.output,
                self.stimuli,
                timestep=TIMESTEP,
                cpu_clock_hz=CPU_CLOCK_HZ,
                workers=self.workers,
                nrmse_threshold=self.nrmse_threshold,
                store=str(store),
                resume=resume,
                progress=False,
            )
            return runner.run(state.spec, self.duration)

        # A campaign is a fresh process's work: nothing compiled beforehand.
        clear_cache()
        start = time.perf_counter()
        fresh = campaign(resume=False)
        resumed = campaign(resume=True)
        wall = time.perf_counter() - start
        shutil.rmtree(store, ignore_errors=True)

        outcomes = self._outcomes("fresh", fresh)
        outcomes.update(self._outcomes("resumed", resumed))
        run_ms = 1e3 * self.duration
        stats = {
            "bus_transactions": float(sum(r.bus_transactions for r in fresh.results)),
            "adc_samples": float(sum(r.analog_samples for r in fresh.results)),
            "instructions": float(sum(r.instructions for r in fresh.results)),
        }
        for verdict in VERDICTS:
            stats[f"verdicts.{verdict}"] = float(fresh.counts()[verdict])
        for run, seconds in zip(fresh.runs, fresh.elapsed):
            style = run.scenario.style
            stats[f"host_s.{style}"] = stats.get(f"host_s.{style}", 0.0) + float(seconds)
            stats[f"sim_ms.{style}"] = stats.get(f"sim_ms.{style}", 0.0) + run_ms
            if run.golden:
                stats[f"golden_s.{style}"] = float(seconds)
        golden = {}
        for run, result in zip(fresh.runs, fresh.results):
            if run.golden:
                golden[run.scenario.style] = result.analog_trace
        stats["max_nrmse_vs_eln"] = max(
            aligned_nrmse(golden["eln"], golden[style]) for style in ("de", "tdf")
        )
        executed = fresh.executed_count + resumed.executed_count
        return Round(
            wall=wall,
            outcomes=outcomes,
            runs=fresh.n_runs + resumed.n_runs,
            sim_ms=run_ms * executed,
            stats=stats,
            telemetry=[
                report
                for report in (fresh.telemetry, resumed.telemetry)
                if report is not None and fresh.workers > 1
            ],
        )


# ----------------------------------------------------------------------------------
# Monte-Carlo sweeps
# ----------------------------------------------------------------------------------
@dataclass
class SweepCase:
    name: str
    factory: object
    nominal: dict
    samples: int
    steps: int
    #: RC ladder order (the abstraction-cost trend axis); 0 for other circuits.
    order: int = 0
    scenarios: list = field(default_factory=list)


class MonteCarloSweep(Workload):
    """Serial numpy-backend Monte-Carlo sweeps with per-scenario abstraction."""

    name = "mc_sweep"
    index = 3
    tolerance = 0.05

    def __init__(self, seed: int, tmp_dir: Path, reduced: bool = False) -> None:
        super().__init__(seed, tmp_dir, reduced)
        rng = self.rng
        self.stimuli = {
            "vin": SquareWave(
                amplitude=float(rng.uniform(0.8, 1.2)),
                period=float(rng.uniform(2e-5, 4e-5)),
                duty=float(rng.uniform(0.3, 0.7)),
            )
        }
        self.mc_seeds = [int(value) for value in rng.integers(0, 2**31, size=8)]

    def _cases(self) -> list:
        rc = {"resistance": DEFAULT_RESISTANCE, "capacitance": DEFAULT_CAPACITANCE}
        oa = {"r1": DEFAULT_R1, "r2": DEFAULT_R2, "c1": DEFAULT_C1}
        ladder = load_entry("rc_ladder3").parameters
        if self.reduced:
            return [
                SweepCase("RC20", partial(build_rc_filter, 20), rc, 2, 200),
                SweepCase("OA", build_opamp, oa, 2, 200),
                SweepCase("zoo.rc_ladder3", zoo_factory("rc_ladder3"), ladder, 2, 200),
                SweepCase("RC8", partial(build_rc_filter, 8), rc, 1, 50, order=8),
                SweepCase("RC16", partial(build_rc_filter, 16), rc, 1, 50, order=16),
            ]
        cases = [
            SweepCase("RC20", partial(build_rc_filter, 20), rc, 8, 2000),
            SweepCase("OA", build_opamp, oa, 16, 2000),
            SweepCase("zoo.rc_ladder3", zoo_factory("rc_ladder3"), ladder, 16, 2000),
        ]
        for order in (8, 16, 32, 64):
            cases.append(
                SweepCase(f"RC{order}", partial(build_rc_filter, order), rc, 2, 200, order=order)
            )
        return cases

    def setup(self) -> list:
        cases = self._cases()
        for case, seed in zip(cases, self.mc_seeds):
            case.scenarios = MonteCarloSpec(
                nominal=case.nominal,
                tolerances=dict.fromkeys(case.nominal, self.tolerance),
                samples=case.samples,
                seed=seed,
            ).expand()
        return cases

    def _sweep(self, case: SweepCase, backend: str):
        runner = SweepRunner(
            case.factory, "out", self.stimuli, TIMESTEP, backend=backend, progress=False
        )
        return runner.run(case.scenarios, case.steps * TIMESTEP)

    def _outcomes(self, case: SweepCase, result) -> dict:
        return {
            self.key(sweep=case.name, scenario=scenario.label): tuple(
                digest(result.outputs[name][position]) for name in sorted(result.outputs)
            )
            for position, scenario in enumerate(result.scenarios)
        }

    def reference(self, cases: list) -> dict:
        expected = {}
        for case in cases:
            expected.update(self._outcomes(case, self._sweep(case, "python")))
        return expected

    def run_round(self, cases: list) -> Round:
        core_layers = [
            SELF_PREFIX + layer
            for layer in ("core.abstract", "core.acquisition", "core.enrichment",
                          "core.assemble", "core.solve")
        ]
        counters = TRACER.counters
        clear_cache()
        results = []
        core_s = {}
        start = time.perf_counter()
        for case in cases:
            before = sum(counters.get(name, 0.0) for name in core_layers)
            results.append(self._sweep(case, "numpy"))
            core_s[case.name] = sum(counters.get(name, 0.0) for name in core_layers) - before
        wall = time.perf_counter() - start

        outcomes = {}
        stats = dict.fromkeys(("abstract_s", "simulate_s", "scenario_steps"), 0.0)
        for case, result in zip(cases, results):
            outcomes.update(self._outcomes(case, result))
            stats["abstract_s"] += result.timings["abstract"]
            stats["simulate_s"] += result.timings["simulate"]
            stats["scenario_steps"] += float(result.n_scenarios * case.steps)
        ladder = [case for case in cases if case.order and core_s[case.name] > 0.0]
        if len(ladder) >= 2:
            orders = np.log([case.order for case in ladder])
            seconds = np.log([core_s[case.name] / case.samples for case in ladder])
            stats["order_exponent"] = float(np.polyfit(orders, seconds, 1)[0])
        return Round(
            wall=wall,
            outcomes=outcomes,
            runs=sum(result.n_scenarios for result in results),
            sim_ms=1e3 * TIMESTEP * stats["scenario_steps"],
            stats=stats,
        )


WORKLOADS = {
    workload.name: workload
    for workload in (PlatformPoll, PlatformEvent, FaultCampaign, MonteCarloSweep)
}
