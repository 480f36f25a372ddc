"""The smart-system virtual platform (paper Figure 1 and Section V.B).

:class:`SmartSystemPlatform` assembles the digital subsystem — a MIPS CPU
executing firmware from RAM, an APB bus, a UART and the ADC bridge — on top
of the discrete-event kernel, and offers one ``attach_analog_*`` method per
analog integration style evaluated in Table III:

* ``attach_analog_python`` — the generated C++/Python model called directly
  (the paper's pure-C++ integration), stepped on demand when the firmware
  reads the ADC rather than by a kernel process;
* ``attach_analog_de`` — the generated model wrapped as a SystemC-DE module;
* ``attach_analog_tdf`` — the generated model inside a TDF cluster bridged to
  the DE kernel;
* ``attach_analog_eln`` — the conservative ELN solver embedded in the kernel;
* ``attach_analog_cosim`` — co-simulation with the reference Verilog-AMS
  engine through the marshalled bridge (the pre-abstraction configuration).
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping

from ..core.codegen.python_backend import compile_model_cached
from ..core.signalflow import SignalFlowModel
from ..errors import PlatformError
from ..network.circuit import Circuit
from ..obs.tracer import TRACER
from ..sim.ams import ReferenceAmsSimulator
from ..sim.cosim import AnalogCosimServer, CoSimulationBridge
from ..sim.de import Kernel, Module, PeriodicTicker, Signal
from ..sim.de.simtime import RESOLUTION, quantize
from ..sim.eln import ElnModel
from ..sim.integration import (
    DeSignalFlowModule,
    DeSourceModule,
    ElnDeModule,
    TdfDeBridge,
    TdfSignalFlowModule,
    TdfSourceModule,
)
from ..sim.tdf import TdfCluster, TdfModule
from .adc_bridge import AdcBridge
from .apb import ApbBus
from .firmware import default_firmware
from .memory import Memory
from .mips.assembler import assemble
from .mips.cpu import MipsCpu
from .uart import Uart

Stimuli = Mapping[str, Callable[[float], float]]

PERIPHERAL_BASE = 0x1000_0000
UART_BASE = PERIPHERAL_BASE + 0x0000
ADC_BASE = PERIPHERAL_BASE + 0x1000

#: Short keys of the analog integration styles accepted by
#: :meth:`SmartSystemPlatform.attach_analog`, in Table III's row order
#: (co-simulation first — the paper's pre-abstraction baseline).
ANALOG_STYLES = ("cosim", "eln", "tdf", "de", "python")


@dataclass
class PlatformRunResult:
    """Statistics collected by :meth:`SmartSystemPlatform.run`."""

    simulated_time: float
    instructions: int
    bus_transactions: int
    uart_output: str
    analog_samples: int
    crossings_reported: int
    analog_style: str
    extra: dict[str, float] = field(default_factory=dict)
    #: Every ADC sample in arrival order, when the platform was built with
    #: ``record_analog=True`` (used for cross-style NRMSE comparisons).
    analog_trace: list[float] | None = None
    #: ``"ErrorType: message"`` when the run was cut short by a platform
    #: error (an injected fault crashing the CPU, a bus violation);
    #: ``None`` for a run that reached its full duration.
    crashed: str | None = None

    def fingerprint(self) -> tuple:
        """The deterministic software-visible outcome of the run.

        Two runs of the same scenario must produce equal fingerprints no
        matter where they executed (serial loop, multiprocessing worker) —
        this is what the platform sweep layer's equivalence guarantee checks.
        """
        return (
            self.instructions,
            self.bus_transactions,
            self.uart_output,
            self.analog_samples,
            self.crossings_reported,
            self.crashed,
            self.analog_style,
        )

    def to_payload(self) -> dict:
        """A JSON-serializable rendering that round-trips bit-identically.

        Every field is a Python primitive (the analog trace is a list of
        floats, which JSON renders shortest-round-trip exact), so a result
        committed to a :class:`~repro.store.RunStore` and loaded back
        compares equal — same fingerprint, same trace bits.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload: Mapping) -> "PlatformRunResult":
        """Rebuild a result from :meth:`to_payload` output (store records)."""
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise PlatformError(
                f"platform run record carries unknown fields {unknown}"
            )
        return cls(**{name: payload[name] for name in payload})


class _CpuBlockDriver(Module):
    """Advances the CPU one instruction *block* per kernel event.

    The classic integration steps the CPU through a :class:`PeriodicTicker`,
    one instruction per clock event — millions of heap operations per
    simulated millisecond.  This driver instead asks the predecoded ISS for a
    burst of up to ``block_cycles`` instructions and schedules its next
    wake-up exactly ``executed`` clock cycles later on the same absolute
    cycle grid the ticker would have used.

    Timing equivalence with the one-instruction-per-tick model is preserved
    because

    * every peripheral access happens at its own clock cycle: under the
      event-driven analog styles :meth:`~repro.vp.mips.cpu.MipsCpu.run_block`
      yields back *before* any peripheral-window load/store that is not the
      first instruction of a block, so the access executes as the first
      instruction of an event scheduled on precisely its cycle; under the
      pull-coupled ``python`` style no other process observes the bus, the
      CPU serves accesses in place and :meth:`access_time` gives each one its
      cycle from the CPU's in-block offset;
    * instructions between peripheral accesses touch only CPU-private state
      (registers and RAM), so executing them early within one kernel event
      is unobservable — external code that mutates CPU or peripheral state
      mid-run must go through
      :meth:`SmartSystemPlatform.schedule_injection`, which makes its
      instant a sync point no block crosses;
    * the block budget is clamped to the kernel's ``end_time`` horizon so a
      bounded ``run(duration)`` retires exactly as many instructions as the
      per-tick model would;
    * an instruction that faults mid-block re-raises from an event at its
      own cycle, so everything due before it (analog ticks, pulled samples)
      happens first and the crash lands at the per-tick simulated time.

    ``block_cycles=1`` degenerates to the historical per-tick behaviour.
    """

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        cpu: MipsCpu,
        period: float,
        block_cycles: int = 256,
    ) -> None:
        super().__init__(kernel, name)
        if period <= 0.0:
            raise ValueError("CPU clock period must be positive")
        if block_cycles < 1:
            raise ValueError("block_cycles must be at least 1")
        self.cpu = cpu
        self.period = period
        self.block_cycles = block_cycles
        #: Index of the next clock cycle to execute (cycle ``c`` fires at
        #: ``origin + c * period``, mirroring PeriodicTicker's drift-free grid).
        self.cycle = 0
        self._grid_origin = kernel.now + period
        #: The cycle the running instruction block's budget ends before, or
        #: None outside a block (bus callbacks inside one happen ahead of
        #: ``kernel.now``, at :meth:`access_time`).
        self.block_end: int | None = None
        #: Absolute times no instruction block may execute across (sorted).
        #: Injection events use these so a burst never runs an instruction
        #: whose clock cycle lies at or past a pending mutation.
        self._sync_times: list[float] = []
        kernel.schedule(period, self._wake)

    def cycle_time(self, cycle: int) -> float:
        """The kernel time of clock cycle ``cycle`` (quantised like its event)."""
        return quantize(self._grid_origin + cycle * self.period)

    def access_time(self) -> float:
        """The clock time of the instruction accessing the bus right now."""
        return self.cycle_time(self.cycle + self.cpu.block_offset)

    def add_sync_point(self, time: float) -> None:
        """Forbid instruction blocks from crossing the absolute time ``time``.

        Between peripheral accesses the block executor runs *ahead* of the
        kernel clock, which is unobservable for CPU-private state — until an
        external event (a fault injection) mutates that state at a scheduled
        time.  A sync point restores exactness: every instruction whose clock
        cycle fires strictly before ``time`` executes first, and the cycle at
        or after ``time`` waits for its own kernel event, matching the
        one-instruction-per-tick interleaving (the mutation event was
        scheduled earlier, so at equal timestamps it fires before the tick).
        """
        insort(self._sync_times, time)

    def _wake(self) -> None:
        kernel = self.kernel
        budget = self.block_cycles
        end = kernel.end_time
        if end is not None and budget > 1:
            # Cycles fire at now + j*period; only those within the run
            # horizon may execute in this burst (the per-tick model would
            # not have reached the later ones yet).
            fit = int((end - kernel.now) / self.period + 1e-9) + 1
            if fit < budget:
                budget = fit if fit >= 1 else 1
        sync = self._sync_times
        while sync and sync[0] <= kernel.now + 1e-18:
            sync.pop(0)  # already behind us: the mutation event has fired
        if sync and budget > 1:
            # Cycles at now + j*period with j < (sync - now) / period happen
            # strictly before the next mutation and are safe to burst; the
            # first cycle at or past it must start its own kernel event.
            ratio = (sync[0] - kernel.now) / self.period
            fit = int(ratio + 1e-9)
            if fit < ratio - 1e-9:
                fit += 1
            if fit < 1:
                fit = 1
            if fit < budget:
                budget = fit
        cpu = self.cpu
        retired_before = cpu.instruction_count
        self.block_end = self.cycle + budget
        try:
            executed = cpu.run_block(budget)
        except Exception as error:
            retired = cpu.instruction_count - retired_before
            if retired < 1:
                raise
            # The faulting instruction's cycle lies `retired` cycles into
            # the block: raise from there, after everything due before it.
            self.cycle += retired
            kernel.schedule_abs(self.cycle_time(self.cycle), partial(_raise, error))
            return
        finally:
            self.block_end = None
        if executed < 1:
            # Halted CPU: let the idle cycles pass in bulk (the per-tick
            # ticker would fire on each of them and do nothing).
            executed = budget
        self.cycle += executed
        kernel.schedule_abs(self._grid_origin + self.cycle * self.period, self._wake)


def _raise(error: BaseException) -> None:
    raise error


class _PulledAnalog:
    """The generated analog model, stepped on demand instead of by a ticker.

    Sample ``k`` belongs to the instant ``quantize(origin + k * timestep)``,
    exactly where a :class:`PeriodicTicker` started at attach time would
    fire it, and is computed from the stimuli at that instant with one
    ``step`` call.  :meth:`publish` hands the ADC bridge every sample due by
    a given instant, in order, so the samples, counts and recorded trace the
    platform observes are those of the ticked model.

    Samples are computed ahead, through the last cycle of the running
    instruction block, and buffered until they are due.  Running ahead is
    unobservable: the model's only inputs are the stimuli, nothing feeds
    back into it, and no injection or run horizon lies inside a block.
    """

    def __init__(
        self,
        instance,
        stimuli: Stimuli,
        adc: AdcBridge,
        clock: _CpuBlockDriver,
        timestep: float,
    ) -> None:
        self.instance = instance
        self.waveforms = [stimuli[name] for name in instance.INPUTS]
        self.single_output = len(instance.OUTPUTS) == 1
        self.adc = adc
        self.clock = clock
        self.origin = clock.kernel.now + timestep
        self.timestep = timestep
        #: Whether a sample and a CPU cycle at the same instant order sample
        #: first.  The kernel breaks such ties by scheduling order: the
        #: ticker scheduled its tick one timestep back, the CPU its cycle one
        #: period back, so the sample wins exactly when the timestep is the
        #: longer of the two (equal grids leave the CPU, created first, ahead).
        self.sample_wins_ties = timestep > clock.period
        #: Samples computed so far, and the instant of the next one.
        self.count = 0
        self.next_time = quantize(self.origin)
        #: Computed samples not yet published: their instants and values.
        self._times: list[float] = []
        self._values: list[float] = []

    def sync(self) -> None:
        """Publish what a bus access observes now (the ADC access hook).

        Inside an instruction block the access runs ahead of the kernel, at
        its own clock cycle, and the model may run ahead to the block's last
        cycle; outside one (a host-side access, a snapshot) it happens at
        ``kernel.now``.
        """
        clock = self.clock
        if clock.block_end is not None:
            instant = clock.access_time()
            if self.next_time <= instant:
                self.compute(clock.cycle_time(clock.block_end - 1))
        else:
            instant = clock.kernel.now
            self.compute(instant)
        self.publish(instant, self.sample_wins_ties)

    def publish(self, until: float, inclusive: bool) -> None:
        """Publish every computed sample due before ``until`` (and at it, if
        ``inclusive``)."""
        limit = until if inclusive else math.nextafter(until, -math.inf)
        times = self._times
        due = bisect_right(times, limit)
        if due:
            values = self._values
            self.adc.push_samples(values[:due])
            del times[:due]
            del values[:due]

    def compute(self, through: float) -> None:
        """Step the model through every sample due at or before ``through``."""
        time = self.next_time
        if time > through:
            return
        origin = self.origin
        timestep = self.timestep
        count = self.count
        times = []
        while time <= through:
            times.append(time)
            count += 1
            time = round((origin + count * timestep) / RESOLUTION) * RESOLUTION  # quantize()
        # One step call per sample, fed straight from lazy per-input maps
        # (each sample evaluates the stimuli in input order, then steps).
        values = list(
            map(self.instance.step, *[map(wave, times) for wave in self.waveforms], times)
        )
        if not self.single_output:
            values = [value[0] for value in values]
        self.count = count
        self.next_time = time
        self._times.extend(times)
        self._values.extend(values)


class _AdcSampler(Module):
    """Publishes the value of a discrete-event signal into the ADC bridge."""

    def __init__(self, kernel: Kernel, name: str, signal: Signal, adc: AdcBridge, timestep: float) -> None:
        super().__init__(kernel, name)
        self.watched = signal
        self.adc = adc
        self._ticker = PeriodicTicker(kernel, f"{name}.tick", timestep, self._sample)

    def _sample(self, now: float) -> None:
        # Defer three deltas: stimulus update, analog module update, then read.
        # Bound methods instead of nested lambdas: this runs once per analog
        # timestep, and the closure allocations showed up in profiles.
        self.kernel._schedule_delta(self._after_first_delta)

    def _after_first_delta(self) -> None:
        self.kernel._schedule_delta(self._after_second_delta)

    def _after_second_delta(self) -> None:
        self.kernel._schedule_delta(self._push)

    def _push(self) -> None:
        self.adc.push_sample(self.watched.read())


class _TdfAdcSink(TdfModule):
    """TDF sink pushing every sample into the ADC bridge."""

    def __init__(self, name: str, adc: AdcBridge) -> None:
        super().__init__(name)
        self.inp = self.in_port("in")
        self.adc = adc

    def processing(self) -> None:
        self.adc.push_sample(self.inp.read())


class SmartSystemPlatform:
    """Digital virtual platform with a pluggable analog subsystem."""

    def __init__(
        self,
        cpu_clock_hz: float = 20e6,
        analog_timestep: float = 50e-9,
        firmware: str | None = None,
        ram_size: int = 64 * 1024,
        uart_baud: int = 115200,
        record_analog: bool = False,
        cpu_block_cycles: int = 256,
        cpu_superblocks: bool = True,
    ) -> None:
        self.kernel = Kernel()
        self.analog_timestep = float(analog_timestep)
        self.cpu_clock_hz = float(cpu_clock_hz)
        self.cpu_period = 1.0 / float(cpu_clock_hz)

        self.memory = Memory(size=ram_size, base=0)
        self.bus = ApbBus(PERIPHERAL_BASE)
        self.uart = Uart(baud_rate=uart_baud)
        self.adc = AdcBridge(record=record_analog)
        self.bus.attach("uart0", UART_BASE, self.uart)
        self.bus.attach("adc0", ADC_BASE, self.adc)

        self.firmware_source = firmware if firmware is not None else default_firmware()
        self.program = assemble(self.firmware_source)
        self.memory.load_image(self.program.to_bytes())

        self.cpu = MipsCpu(
            self.memory,
            bus_read=self.bus.read,
            bus_write=self.bus.write,
            peripheral_base=PERIPHERAL_BASE,
            superblocks=cpu_superblocks,
        )
        self.cpu_block_cycles = int(cpu_block_cycles)
        self._cpu_driver = _CpuBlockDriver(
            self.kernel,
            "cpu.clock",
            self.cpu,
            self.cpu_period,
            self.cpu_block_cycles,
        )

        self.analog_style: str | None = None
        self._analog_modules: list[object] = []
        #: The pull-coupled model of the ``python`` style (None otherwise).
        self._pulled: _PulledAnalog | None = None

    # -- analog attachment --------------------------------------------------------------------
    def _ensure_unattached(self) -> None:
        if self.analog_style is not None:
            raise PlatformError(
                f"an analog subsystem ({self.analog_style!r}) is already attached"
            )

    def attach_analog(
        self,
        style: str,
        stimuli: Stimuli,
        model: "SignalFlowModel | type | object | None" = None,
        circuit: "Circuit | str | None" = None,
        output: str | None = None,
        **options: float,
    ) -> None:
        """Attach an analog subsystem by style key (see :data:`ANALOG_STYLES`).

        The abstracted styles (``"python"``, ``"de"``, ``"tdf"``) need a
        ``model``; the conservative styles (``"eln"``, ``"cosim"``) need a
        ``circuit`` and the observed ``output`` quantity.  ``options`` are
        forwarded to the style-specific ``attach_analog_*`` method (e.g.
        ``oversampling`` for the co-simulation bridge).
        """
        if style in ("python", "de", "tdf"):
            if model is None:
                raise PlatformError(f"analog style {style!r} needs a signal-flow model")
            attach = getattr(self, f"attach_analog_{style}")
            attach(model, stimuli, **options)
            return
        if style in ("eln", "cosim"):
            if circuit is None or output is None:
                raise PlatformError(
                    f"analog style {style!r} needs a circuit and an output quantity"
                )
            attach = getattr(self, f"attach_analog_{style}")
            attach(circuit, stimuli, output, **options)
            return
        raise PlatformError(
            f"unknown analog integration style {style!r}; expected one of {ANALOG_STYLES}"
        )

    def attach_analog_python(self, model: "SignalFlowModel | type | object", stimuli: Stimuli) -> None:
        """Integrate the generated model as plain code, stepped on demand.

        No kernel process drives the model.  Before every ADC register
        access it is stepped once per analog timestep up to the accessing
        instruction's clock cycle; :meth:`run` and :meth:`snapshot` step the
        rest.  With no other discrete-event process left, the CPU serves
        peripheral accesses inside its instruction blocks.  Samples, counts
        and traces are those of a model ticked every timestep.
        """
        self._ensure_unattached()
        self._pulled = _PulledAnalog(
            _instantiate(model), stimuli, self.adc, self._cpu_driver, self.analog_timestep
        )
        self.adc.before_access = self._pulled.sync
        self.cpu.inline_peripherals = True
        self.analog_style = "python"

    def attach_analog_de(self, model: "SignalFlowModel | type | object", stimuli: Stimuli) -> None:
        """Integrate the generated model as a SystemC-DE style module."""
        self._ensure_unattached()
        instance = _instantiate(model)
        sources = {
            name: DeSourceModule(self.kernel, f"src_{name}", stimuli[name], self.analog_timestep)
            for name in instance.INPUTS
        }
        device = DeSignalFlowModule(
            self.kernel,
            "analog.de",
            instance,
            {name: source.out for name, source in sources.items()},
        )
        sampler = _AdcSampler(
            self.kernel, "adc.sampler", device.output(), self.adc, self.analog_timestep
        )
        self._analog_modules.extend([*sources.values(), device, sampler])
        self.analog_style = "systemc_de"

    def attach_analog_tdf(self, model: "SignalFlowModel | type | object", stimuli: Stimuli) -> None:
        """Integrate the generated model as a TDF cluster bridged to the DE kernel."""
        self._ensure_unattached()
        instance = _instantiate(model)
        cluster = TdfCluster("analog.tdf")
        device = cluster.add(TdfSignalFlowModule("dut", instance))
        for name in instance.INPUTS:
            source = cluster.add(TdfSourceModule(f"src_{name}", stimuli[name], self.analog_timestep))
            cluster.connect(source.out, device.inputs[name])
        sink = cluster.add(_TdfAdcSink("adc_sink", self.adc))
        cluster.connect(device.outputs[instance.OUTPUTS[0]], sink.inp)
        bridge = TdfDeBridge(self.kernel, "analog.tdf_bridge", cluster)
        self._analog_modules.extend([cluster, bridge])
        self.analog_style = "systemc_tdf"

    def attach_analog_eln(self, circuit: Circuit, stimuli: Stimuli, output: str) -> None:
        """Integrate the conservative ELN solver."""
        self._ensure_unattached()
        model = ElnModel(circuit, self.analog_timestep)
        sources = {
            name: DeSourceModule(self.kernel, f"src_{name}", stimuli[name], self.analog_timestep)
            for name in model.inputs
        }
        device = ElnDeModule(
            self.kernel,
            "analog.eln",
            model,
            {name: source.out for name, source in sources.items()},
            observed=[output],
        )
        sampler = _AdcSampler(
            self.kernel, "adc.sampler", device.output(output), self.adc, self.analog_timestep
        )
        self._analog_modules.extend([*sources.values(), device, sampler])
        self.analog_style = "systemc_ams_eln"

    def attach_analog_cosim(
        self,
        circuit: "Circuit | str",
        stimuli: Stimuli,
        output: str,
        oversampling: int = 2,
        solver_iterations: int = 2,
    ) -> None:
        """Integrate the original Verilog-AMS model through co-simulation."""
        self._ensure_unattached()
        simulator = ReferenceAmsSimulator(
            circuit,
            self.analog_timestep,
            oversampling=oversampling,
            solver_iterations=solver_iterations,
        )
        server = AnalogCosimServer(simulator, observed_quantities=[output])
        sources = {
            name: DeSourceModule(self.kernel, f"src_{name}", stimuli[name], self.analog_timestep)
            for name in simulator.inputs
        }
        output_signal = Signal(self.kernel, 0.0, "cosim.out")
        bridge = CoSimulationBridge(
            self.kernel,
            "analog.cosim",
            server,
            input_signals={name: source.out for name, source in sources.items()},
            output_signals={output: output_signal},
            timestep=self.analog_timestep,
        )
        sampler = _AdcSampler(
            self.kernel, "adc.sampler", output_signal, self.adc, self.analog_timestep
        )
        self._analog_modules.extend([*sources.values(), bridge, sampler])
        self.analog_style = "verilog_ams_cosim"

    # -- instrumentation ----------------------------------------------------------------------
    def schedule_injection(self, time: float, action: Callable[[], None]) -> None:
        """Run ``action`` at the absolute virtual time ``time``, exactly.

        The CPU block driver is synchronised around the injection point, so a
        mutation of CPU-visible state (RAM, registers) lands on precisely the
        same instruction boundary whether the platform runs per-tick
        (``cpu_block_cycles=1``) or block-stepped — the fault-injection
        subsystem's equivalence guarantee rests on this.
        """
        self._cpu_driver.add_sync_point(time)
        self.kernel.schedule_abs(time, action)

    # -- execution ----------------------------------------------------------------------------------
    def snapshot(self, crashed: str | None = None) -> PlatformRunResult:
        """The run statistics of the platform's *current* state.

        :meth:`run` returns this after a completed simulation; crash handlers
        (the sweep layer's ``capture_errors`` path) call it directly to record
        how far a faulted platform got before the error.  A pull-coupled
        model first publishes the samples an instruction at ``kernel.now``
        would observe.
        """
        if self._pulled is not None:
            self._pulled.sync()
        counter_value = self.memory.read_word(0x0000_F000)
        return PlatformRunResult(
            simulated_time=self.kernel.now,
            instructions=self.cpu.instruction_count,
            bus_transactions=self.bus.transaction_count,
            uart_output=self.uart.output_text(),
            analog_samples=self.adc.sample_count,
            crossings_reported=counter_value,
            analog_style=self.analog_style or "unattached",
            analog_trace=list(self.adc.history) if self.adc.history is not None else None,
            crashed=crashed,
        )

    def run(self, duration: float) -> PlatformRunResult:
        """Simulate the platform for ``duration`` seconds of virtual time."""
        if self.analog_style is None:
            raise PlatformError(
                "attach an analog subsystem before running the platform"
            )
        tracer = TRACER
        if not tracer.enabled:
            self._run_kernel(duration)
            return self.snapshot()
        start = tracer.now()
        cpu = self.cpu
        instructions_before = cpu.instruction_count
        compiles_before = cpu.superblock_compile_count
        hits_before = cpu.superblock_hit_count
        invalidations_before = cpu.superblock_invalidation_count
        self._run_kernel(duration)
        result = self.snapshot()
        compiles = cpu.superblock_compile_count - compiles_before
        hits = cpu.superblock_hit_count - hits_before
        invalidations = cpu.superblock_invalidation_count - invalidations_before
        tracer.end(
            "platform.run",
            start,
            "platform",
            style=self.analog_style,
            instructions=result.instructions - instructions_before,
            blocks=cpu.block_count,
            decode_misses=cpu.decode_miss_count,
            decode_invalidations=cpu.decode_invalidation_count,
            superblock_compiles=compiles,
            superblock_hits=hits,
            superblock_invalidations=invalidations,
        )
        tracer.add("iss.superblock.compiles", float(compiles))
        tracer.add("iss.superblock.hits", float(hits))
        tracer.add("iss.superblock.invalidations", float(invalidations))
        return result

    def _run_kernel(self, duration: float) -> None:
        self.kernel.run(duration)
        if self._pulled is not None:
            # The kernel fires everything due at its horizon, ticks included.
            now = self.kernel.now
            self._pulled.compute(now)
            self._pulled.publish(now, True)


def _instantiate(model: "SignalFlowModel | type | object"):
    if isinstance(model, SignalFlowModel):
        return compile_model_cached(model)()
    if isinstance(model, type):
        return model()
    return model
