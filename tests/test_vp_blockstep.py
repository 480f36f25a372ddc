"""Tests for the predecoded, block-stepped ISS: equivalence and invalidation.

The block executor must be a pure speedup: for any chunking of the
instruction stream it has to produce exactly the architectural trace of the
one-instruction-at-a-time interpreter, including across self-modifying code,
firmware reloads, peripheral-window accesses (yielded or served in place)
and faults in the middle of a block.  The pull-coupled ``python`` analog
style is checked against an independent oracle: the generated model ticked
by a kernel process every timestep, run per tick.
"""

from __future__ import annotations

import pytest

from repro.vp import Memory, MipsCpu, SmartSystemPlatform, assemble
from repro.vp.mips.isa import register_number, to_signed_32

#: A program exercising every hot path: ALU, shifts, signed compares, RAM
#: loads/stores (word and byte), taken/untaken branches, jumps and call/ret.
MIXED_PROGRAM = """
        li    $t0, 0
        li    $t1, 0x3000
        li    $t3, 0            # loop forever (counter wraps)
loop:   addiu $t0, $t0, 3
        andi  $t2, $t0, 0x1FF
        sll   $t4, $t2, 3
        subu  $t5, $t4, $t2
        sw    $t5, 0($t1)
        lw    $t6, 0($t1)
        sb    $t6, 8($t1)
        lbu   $t7, 8($t1)
        lb    $s0, 8($t1)
        slt   $s1, $t5, $t6
        sltiu $s2, $t6, 0x8000
        xor   $s3, $t6, $t2
        nor   $s4, $t6, $t2
        srl   $s5, $t6, 2
        sra   $s6, $t6, 2
        mult  $t0, $t6
        mflo  $s7
        blez  $t2, skip
        jal   leaf
skip:   bne   $t0, $t3, loop
        j     loop
leaf:   ori   $v0, $t2, 0x10
        jr    $ra
"""


def architectural_state(cpu: MipsCpu) -> tuple:
    return (
        cpu.pc,
        tuple(cpu.registers[:32]),
        cpu.hi,
        cpu.lo,
        cpu.instruction_count,
        cpu.load_count,
        cpu.store_count,
        bytes(cpu.memory._data),
    )


def fresh_cpu(source: str) -> MipsCpu:
    program = assemble(source)
    memory = Memory(size=64 * 1024)
    memory.load_image(program.to_bytes())
    return MipsCpu(memory)


class TestBlockEquivalence:
    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 17, 64, 1000])
    def test_block_chunking_matches_single_stepping(self, chunk):
        total = 3000
        reference = fresh_cpu(MIXED_PROGRAM)
        blocked = fresh_cpu(MIXED_PROGRAM)
        done = 0
        while done < total:
            budget = min(chunk, total - done)
            executed = blocked.run_block(budget)
            assert 0 < executed <= budget
            for _ in range(executed):
                reference.step()
            done += executed
            assert architectural_state(reference) == architectural_state(blocked)

    def test_run_block_returns_zero_when_halted(self):
        cpu = fresh_cpu(MIXED_PROGRAM)
        cpu.halted = True
        assert cpu.run_block(100) == 0
        assert cpu.instruction_count == 0

    def test_step_is_run_block_of_one(self):
        cpu = fresh_cpu(MIXED_PROGRAM)
        cpu.step()
        assert cpu.instruction_count == 1


class TestDecodeCacheInvalidation:
    def test_self_modifying_code_re_decodes(self):
        # The program overwrites the instruction at `patch` (addiu $t2,$zero,99)
        # with `addiu $t2, $zero, 7` *before* executing it; a stale decode
        # cache would execute the original 99.
        source = """
            la    $t0, patch
            li    $t1, 0x240A0007     # addiu $t2, $zero, 7
            sw    $t1, 0($t0)
        patch:  addiu $t2, $zero, 99
            halt: beq $zero, $zero, halt
        """
        for runner in ("step", "block"):
            cpu = fresh_cpu(source)
            if runner == "step":
                for _ in range(8):
                    cpu.step()
            else:
                cpu.run_block(8)
            assert cpu.read_register(register_number("$t2")) == 7, runner

    def test_self_modifying_code_after_block_warmup(self):
        # Same patch, but the target instruction has already been executed
        # (and therefore decode-cached) once before being overwritten.
        source = """
            li    $s0, 0
        again:
            la    $t0, patch
            li    $t1, 0x240A0007     # addiu $t2, $zero, 7
            beq   $s0, $zero, run_it  # first pass: execute the original
            sw    $t1, 0($t0)         # second pass: patch it
        run_it:
            addiu $s0, $s0, 1
        patch:  addiu $t2, $zero, 99
            li    $t3, 2
            bne   $s0, $t3, again
            halt: beq $zero, $zero, halt
        """
        step_cpu = fresh_cpu(source)
        for _ in range(40):
            step_cpu.step()
        block_cpu = fresh_cpu(source)
        done = 0
        while done < 40:
            done += block_cpu.run_block(40 - done)
        assert architectural_state(step_cpu) == architectural_state(block_cpu)
        assert step_cpu.read_register(register_number("$t2")) == 7

    def test_load_image_reload_and_reset_re_decode(self):
        program_a = assemble("li $v0, 11\nhalt: beq $zero, $zero, halt\n")
        program_b = assemble("li $v0, 22\nhalt: beq $zero, $zero, halt\n")
        memory = Memory(size=64 * 1024)
        memory.load_image(program_a.to_bytes())
        cpu = MipsCpu(memory)
        cpu.run_block(4)
        assert cpu.read_register(register_number("$v0")) == 11
        # Reload different firmware over the same addresses and reset: the
        # decoded entries for program A must not survive.
        memory.load_image(program_b.to_bytes())
        cpu.reset()
        cpu.run_block(4)
        assert cpu.read_register(register_number("$v0")) == 22

    def test_external_word_write_invalidates(self):
        cpu = fresh_cpu("li $v0, 5\nhalt: beq $zero, $zero, halt\n")
        cpu.run_block(4)
        assert cpu.read_register(register_number("$v0")) == 5
        # Patch the first instruction from the outside (ori $v0, $zero, 9).
        # `li` expanded to lui+ori, so the surviving second word ORs in 5:
        # a stale decode would still produce 5, the re-decode yields 9|5.
        cpu.memory.write_word(0, 0x34020009)
        cpu.reset()
        cpu.run_block(4)
        assert cpu.read_register(register_number("$v0")) == 13

    def test_external_byte_write_into_code_invalidates(self):
        # Sub-word external write: patch only the immediate byte of the
        # surviving `ori $v0, $zero, 5` (li expands to lui+ori).  The
        # watcher's word-aligned span must drop the covering decoded word.
        cpu = fresh_cpu("li $v0, 5\nhalt: beq $zero, $zero, halt\n")
        cpu.run_block(4)
        assert cpu.read_register(register_number("$v0")) == 5
        cpu.memory.write_byte(4, 9)
        cpu.reset()
        cpu.run_block(4)
        assert cpu.read_register(register_number("$v0")) == 9

    def test_scheduled_injection_self_modification_is_tick_exact(self):
        # Fault-injected self-modification through the platform's injection
        # API: per-tick and block-stepped runs must retire the same
        # instruction stream around the mutation.
        from repro.circuits import build_rc_filter
        from repro.core import abstract_circuit
        from repro.sim import SquareWave

        model = abstract_circuit(build_rc_filter(1), "out", 50e-9)
        states = []
        for block in (1, 64, 4096):
            platform = SmartSystemPlatform(cpu_block_cycles=block)
            platform.attach_analog_python(model, {"vin": SquareWave(period=40e-6)})
            # Overwrite the firmware's threshold register load with a nop at
            # an off-grid instant (not a multiple of any block size).
            platform.schedule_injection(
                13.37e-6, lambda p=platform: p.memory.poke(4, (0).to_bytes(4, "little"))
            )
            platform.run(50e-6)
            states.append(
                (
                    platform.cpu.instruction_count,
                    platform.cpu.pc,
                    tuple(platform.cpu.registers[:32]),
                    bytes(platform.memory._data),
                )
            )
        assert states[0] == states[1] == states[2]

    def test_clear_invalidates_whole_cache(self):
        cpu = fresh_cpu("li $v0, 5\nhalt: beq $zero, $zero, halt\n")
        cpu.run_block(4)
        cpu.memory.clear()
        cpu.reset()
        cpu.run_block(3)  # all nops now (zeroed memory)
        assert cpu.read_register(register_number("$v0")) == 0
        assert cpu.pc == 12


class TestPeripheralYield:
    def make_bus_cpu(self, source: str):
        reads: list[int] = []
        writes: list[tuple[int, int]] = []

        def bus_read(address: int) -> int:
            reads.append(address)
            return 0x123

        def bus_write(address: int, value: int) -> None:
            writes.append((address, value))

        program = assemble(source)
        memory = Memory(size=64 * 1024)
        memory.load_image(program.to_bytes())
        cpu = MipsCpu(memory, bus_read=bus_read, bus_write=bus_write)
        return cpu, reads, writes

    def test_block_yields_before_mid_block_peripheral_access(self):
        source = """
            lui   $t0, 0x1000
            addiu $t1, $zero, 1
            lw    $t2, 0($t0)        # peripheral load (instruction index 2)
            addiu $t3, $zero, 2
            sw    $t3, 4($t0)        # peripheral store (instruction index 4)
            halt: beq $zero, $zero, halt
        """
        cpu, reads, writes = self.make_bus_cpu(source)
        # The first burst must stop *before* the peripheral load...
        executed = cpu.run_block(100)
        assert executed == 2
        assert reads == [] and writes == []
        # ...which then executes as the first instruction of the next burst.
        executed = cpu.run_block(100)
        assert executed == 2
        assert reads == [0x1000_0000]
        assert writes == []
        executed = cpu.run_block(100)
        assert executed >= 1
        assert writes == [(0x1000_0004, 2)]
        assert cpu.read_register(register_number("$t2")) == 0x123

    def test_bus_callback_halting_the_cpu_stops_the_block(self):
        # A peripheral whose write handler halts the CPU (a power/halt
        # control register) must stop the burst immediately, exactly like
        # per-tick stepping would.
        source = """
            lui   $t0, 0x1000
            addiu $t1, $zero, 1
            sw    $t1, 0($t0)        # the halt register
            addiu $t2, $zero, 99     # must never execute
            halt: beq $zero, $zero, halt
        """
        program = assemble(source)
        memory = Memory(size=64 * 1024)
        memory.load_image(program.to_bytes())
        cpu = MipsCpu(memory, bus_write=lambda address, value: setattr(cpu, "halted", True))
        assert cpu.run_block(100) == 2          # lui + addiu, yield at the store
        assert cpu.run_block(100) == 1          # the halting store itself
        assert cpu.halted
        assert cpu.run_block(100) == 0
        assert cpu.read_register(register_number("$t2")) == 0

    def test_peripheral_window_wins_over_overlapping_ram(self):
        # Exotic config: the peripheral base *inside* the RAM address range.
        # Bus precedence must match the classic _load_word/_store_word paths:
        # at or above peripheral_base the access goes to the bus, never RAM.
        source = """
            li    $t0, 0x8000
            lw    $t1, 0($t0)        # peripheral read, NOT a RAM read
            halt: beq $zero, $zero, halt
        """
        program = assemble(source)
        memory = Memory(size=64 * 1024)
        memory.load_image(program.to_bytes())
        memory.write_word(0x8000, 0xAAAA)  # RAM shadow that must stay hidden
        reads: list[int] = []

        def bus_read(address: int) -> int:
            reads.append(address)
            return 0x5555

        cpu = MipsCpu(memory, bus_read=bus_read, peripheral_base=0x8000)
        done = 0
        while done < 4:
            done += cpu.run_block(4 - done)
        assert reads == [0x8000]
        assert cpu.read_register(register_number("$t1")) == 0x5555

    def test_peripheral_access_allowed_as_first_instruction(self):
        source = """
            lui   $t0, 0x1000
            lw    $t2, 0($t0)
            halt: beq $zero, $zero, halt
        """
        cpu, reads, _ = self.make_bus_cpu(source)
        assert cpu.run_block(1) == 1    # lui
        assert cpu.run_block(1) == 1    # the peripheral load itself
        assert reads == [0x1000_0000]


class TestPlatformBlockScheduling:
    @pytest.mark.parametrize("block", [1, 7, 256, 10_000])
    def test_instruction_count_is_block_size_invariant(self, block):
        from repro.circuits import build_rc_filter
        from repro.core import abstract_circuit
        from repro.sim import SquareWave

        model = abstract_circuit(build_rc_filter(1), "out", 50e-9)
        platform = SmartSystemPlatform(cpu_block_cycles=block)
        platform.attach_analog_python(model, {"vin": SquareWave(period=40e-6)})
        result = platform.run(100e-6)
        # 100 us at 20 MHz: exactly 2000 CPU cycles, one instruction each.
        assert result.instructions == 2000

    def test_signed_helpers_still_exported(self):
        # Regression guard: the ISA helpers remain the public signed-view API.
        assert to_signed_32(0xFFFFFFFF) == -1


# ---------------------------------------------------------------------------------
# In-block peripheral accesses (the pull-coupled ``python`` style)
# ---------------------------------------------------------------------------------
#: A hot loop with a peripheral load and store at varying block offsets (the
#: loop is long enough for the superblock tier to compile it).
BUS_LOOP = """
        lui   $t0, 0x1000
        li    $t1, 0
        li    $t3, 0
loop:   addiu $t1, $t1, 1
        lw    $t2, 0($t0)        # peripheral load
        addu  $t3, $t3, $t2
        andi  $t4, $t3, 0xFF
        sw    $t4, 4($t0)        # peripheral store
        lb    $t5, 9($t0)        # peripheral byte load
        sb    $t1, 12($t0)       # peripheral byte store
        bne   $t1, $zero, loop
"""


def bus_trace_cpu(source: str, superblocks: bool, inline: bool):
    """A CPU whose bus records ``(instruction index, kind, address, value)``.

    The instruction index of an access is the number of instructions retired
    before it: ``instruction_count`` at the start of the running block plus
    the CPU's in-block ``block_offset``.
    """
    program = assemble(source)
    memory = Memory(size=64 * 1024)
    memory.load_image(program.to_bytes())
    accesses: list[tuple] = []
    block_start = [0]

    def bus_read(address: int) -> int:
        index = block_start[0] + cpu.block_offset
        accesses.append((index, "r", address))
        return (index * 2654435761) & 0xFFFFFFFF

    def bus_write(address: int, value: int) -> None:
        accesses.append((block_start[0] + cpu.block_offset, "w", address, value))

    cpu = MipsCpu(memory, bus_read=bus_read, bus_write=bus_write, superblocks=superblocks)
    cpu.inline_peripherals = inline
    return cpu, accesses, block_start


class TestInlinePeripherals:
    @pytest.mark.parametrize("superblocks", [False, True])
    @pytest.mark.parametrize("chunk", [7, 64, 1000])
    def test_inline_blocks_match_per_tick_access_timing(self, chunk, superblocks):
        total = 4000
        reference, expected, reference_start = bus_trace_cpu(
            BUS_LOOP, superblocks=False, inline=False
        )
        for index in range(total):
            reference_start[0] = index
            reference.run_block(1)
        cpu, accesses, block_start = bus_trace_cpu(BUS_LOOP, superblocks, inline=True)
        blocks = 0
        while cpu.instruction_count < total:
            block_start[0] = cpu.instruction_count
            executed = cpu.run_block(min(chunk, total - cpu.instruction_count))
            assert executed == min(chunk, total - block_start[0])
            blocks += 1
        assert accesses == expected
        assert architectural_state(cpu) == architectural_state(reference)
        # Served in place: no block ends early at a peripheral access.
        assert blocks == -(-total // chunk)
        if superblocks and chunk == 7:
            # Short blocks enter the superblock tier often enough to heat it.
            assert cpu.superblock_hit_count > 0

    @pytest.mark.parametrize("superblocks", [False, True])
    @pytest.mark.parametrize("chunk", [7, 1000])
    def test_bus_error_mid_block_leaves_the_per_tick_state(self, chunk, superblocks):
        from repro.errors import BusError

        def failing_cpu(inline, superblocks):
            cpu, accesses, start = bus_trace_cpu(BUS_LOOP, superblocks, inline)
            recording_read = cpu.bus_read

            def bus_read(address: int) -> int:
                if len(accesses) >= 400:
                    raise BusError(f"no peripheral mapped at address {address:#010x}")
                return recording_read(address)

            cpu.bus_read = bus_read
            return cpu, start

        reference, reference_start = failing_cpu(inline=False, superblocks=False)
        with pytest.raises(BusError):
            while True:
                reference_start[0] = reference.instruction_count
                reference.run_block(1)
        cpu, start = failing_cpu(inline=True, superblocks=superblocks)
        with pytest.raises(BusError):
            while True:
                start[0] = cpu.instruction_count
                cpu.run_block(chunk)
        assert architectural_state(cpu) == architectural_state(reference)

    @pytest.mark.parametrize("superblocks", [False, True])
    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_bus_callback_halting_the_cpu_stops_an_inline_block(self, chunk, superblocks):
        source = """
            lui   $t0, 0x1000
        loop:
            addiu $s0, $s0, 1
            sw    $s0, 0($t0)        # the halt register: halts on the 40th write
            addiu $t2, $t2, 1
            j     loop
        """
        program = assemble(source)
        memory = Memory(size=64 * 1024)
        memory.load_image(program.to_bytes())
        cpu = MipsCpu(
            memory,
            bus_write=lambda address, value: setattr(cpu, "halted", value == 40),
            superblocks=superblocks,
        )
        cpu.inline_peripherals = True
        while cpu.run_block(chunk):
            pass
        assert cpu.halted
        assert cpu.instruction_count == 1 + 4 * 39 + 2
        assert cpu.read_register(register_number("$t2")) == 39
        if superblocks and chunk == 7:
            assert cpu.superblock_hit_count > 0


# ---------------------------------------------------------------------------------
# A fault in the middle of an instruction block
# ---------------------------------------------------------------------------------
def _crash_run(style: str, address: int, block: int, superblocks: bool):
    """RC1 + threshold firmware; the word at ``address`` is corrupted at an
    off-grid 3.03 us, so the CPU faults somewhere inside a block."""
    import numpy as np

    from repro.circuits import build_rc_filter
    from repro.errors import ReproError
    from repro.fault import InstructionCorruptionFault
    from repro.sim import SquareWave
    from repro.vp import threshold_monitor_source

    platform = SmartSystemPlatform(
        firmware=threshold_monitor_source(),
        record_analog=True,
        cpu_block_cycles=block,
        cpu_superblocks=superblocks,
    )
    stimuli = {"vin": SquareWave(period=4e-6)}
    if style in ("python", "de", "tdf"):
        platform.attach_analog(style, stimuli, model=_model("RC1", 50e-9))
    else:
        platform.attach_analog(style, stimuli, circuit=build_rc_filter(1), output="V(out)")
    InstructionCorruptionFault(address).arm(platform, 3.03e-6, np.random.default_rng(0))
    try:
        result = platform.run(10e-6)
    except ReproError as error:
        result = platform.snapshot(crashed=f"{type(error).__name__}: {error}")
    return result


_CRASH_REFERENCES: dict = {}


class TestMidBlockFault:
    """A CPU fault inside a block must crash at its own clock cycle: every
    analog sample due before the faulting instruction is taken, and the
    snapshot equals the one-instruction-per-tick run's."""

    @pytest.mark.parametrize("address", [0x34, 0x3C, 0x44])
    @pytest.mark.parametrize("superblocks", [False, True])
    @pytest.mark.parametrize("block", [1, 7, 256])
    @pytest.mark.parametrize("style", ["python", "de", "tdf", "eln", "cosim"])
    def test_crashed_snapshot_matches_per_tick(self, style, block, superblocks, address):
        key = (style, address)
        if key not in _CRASH_REFERENCES:
            _CRASH_REFERENCES[key] = _crash_run(style, address, 1, False)
        reference = _CRASH_REFERENCES[key]
        result = _crash_run(style, address, block, superblocks)
        assert reference.crashed is not None
        assert result.fingerprint() == reference.fingerprint()
        assert result.analog_trace == reference.analog_trace
        assert result.simulated_time == reference.simulated_time


# ---------------------------------------------------------------------------------
# Pull coupling against an independent oracle: the ticked ``python`` style
# ---------------------------------------------------------------------------------
_MODELS: dict = {}


def _model(name: str, timestep: float):
    from repro.circuits import benchmark_by_name
    from repro.core import abstract_circuit

    key = (name, timestep)
    if key not in _MODELS:
        bench = benchmark_by_name(name)
        _MODELS[key] = abstract_circuit(bench.circuit(), bench.output, timestep)
    return _MODELS[key]


def attach_ticked_reference(platform: SmartSystemPlatform, model, stimuli) -> None:
    """The ``python`` style as it was before pull coupling: a kernel ticker
    steps the generated model every analog timestep and pushes each sample,
    and the CPU keeps ending its blocks at peripheral accesses."""
    from repro.core.codegen.python_backend import compile_model_cached
    from repro.sim.de import PeriodicTicker

    instance = compile_model_cached(model)()
    waveforms = [stimuli[name] for name in instance.INPUTS]
    single_output = len(instance.OUTPUTS) == 1

    def tick(now: float) -> None:
        result = instance.step(*[w(now) for w in waveforms], now)
        platform.adc.push_sample(result if single_output else result[0])

    PeriodicTicker(platform.kernel, "analog.cpp", platform.analog_timestep, tick)
    platform.analog_style = "python"


#: Block-stepping configurations compared against the per-tick oracle.
PULL_CONFIGS = [(1, False), (7, False), (7, True), (256, False), (256, True)]


def _stimuli(name: str) -> dict:
    from repro.circuits import benchmark_by_name
    from repro.sim import SquareWave

    return {
        port: SquareWave(amplitude=4 * wave.amplitude, period=20e-6, duty=0.4, delay=3e-7)
        for port, wave in benchmark_by_name(name).stimuli.items()
    }


def _firmware(name: str) -> str:
    from repro.vp import averaging_monitor_source, threshold_monitor_source

    return threshold_monitor_source(500) if name == "threshold" else averaging_monitor_source(2)


def coupled_run(
    *,
    ticked: bool,
    component: str = "RC1",
    firmware: str = "threshold",
    block: int = 1,
    superblocks: bool = False,
    timestep: float = 50e-9,
    cpu_clock_hz: float = 20e6,
    record_analog: bool = True,
    arm=None,
    durations=(100e-6,),
):
    """One platform run with pull coupling, or with the ticked oracle."""
    from repro.errors import ReproError

    platform = SmartSystemPlatform(
        cpu_clock_hz=cpu_clock_hz,
        analog_timestep=timestep,
        firmware=_firmware(firmware),
        record_analog=record_analog,
        cpu_block_cycles=block,
        cpu_superblocks=superblocks,
    )
    model = _model(component, timestep)
    if ticked:
        attach_ticked_reference(platform, model, _stimuli(component))
    else:
        platform.attach_analog_python(model, _stimuli(component))
    if arm is not None:
        arm(platform)
    try:
        for duration in durations:
            result = platform.run(duration)
    except ReproError as error:
        result = platform.snapshot(crashed=f"{type(error).__name__}: {error}")
    return (
        result.fingerprint(),
        result.analog_trace,
        result.simulated_time,
        tuple(platform.cpu.registers[:32]),
    )


def assert_pull_matches_oracle(**case) -> tuple:
    expected = coupled_run(ticked=True, **case)
    for block, superblocks in PULL_CONFIGS:
        observed = coupled_run(ticked=False, block=block, superblocks=superblocks, **case)
        assert observed == expected, (block, superblocks, case)
    return expected


def _fault(name: str):
    from repro.fault import (
        AdcBitFlipFault,
        AdcStuckBitFault,
        InstructionCorruptionFault,
        MemoryBitFlipFault,
        RegisterTransientFault,
        UartCorruptionFault,
    )

    # Threshold firmware: 0x44 holds the `beq` closing the sample loop, and
    # register 11 ($t3) the previous threshold state.
    return {
        "adc-stuck1": AdcStuckBitFault(bit=4, stuck_at=1),
        "adc-stuck0": AdcStuckBitFault(bit=9, stuck_at=0),
        "adc-flip": AdcBitFlipFault(bit=9),
        "uart-xor": UartCorruptionFault(0x20),
        "register": RegisterTransientFault(register=11, bit=0),
        "memory": MemoryBitFlipFault(0x44, 2),
        "code": InstructionCorruptionFault(0x44),
    }[name]


class TestPullCouplingOracle:
    """Pull coupling is bit-identical to the ticked model run per tick."""

    @pytest.mark.parametrize("firmware", ["threshold", "averaging"])
    @pytest.mark.parametrize("component", ["2IN", "RC1", "RC20", "OA"])
    def test_components_and_firmwares(self, component, firmware):
        fingerprint, trace, _, _ = assert_pull_matches_oracle(
            component=component, firmware=firmware
        )
        assert len(trace) == fingerprint[3] == 2000

    @pytest.mark.parametrize(
        "fault", ["adc-stuck1", "adc-stuck0", "adc-flip", "uart-xor", "register", "memory", "code"]
    )
    def test_faults_activating_mid_block(self, fault):
        import numpy as np

        def arm(platform):
            # 23.37 us is off the 50 ns grid and inside any 7- or 256-cycle block.
            _fault(fault).arm(platform, 23.37e-6, np.random.default_rng(0))

        faulted = assert_pull_matches_oracle(arm=arm)
        golden = coupled_run(ticked=True)
        assert faulted[0] != golden[0] or faulted[3] != golden[3], fault

    @pytest.mark.parametrize("record_analog", [False, True])
    @pytest.mark.parametrize("durations", [(37.3e-6, 62.7e-6), (50e-6, 25e-6, 25e-6)])
    def test_split_runs(self, durations, record_analog):
        fingerprint, trace, _, _ = assert_pull_matches_oracle(
            firmware="averaging", durations=durations, record_analog=record_analog
        )
        assert (trace is None) != record_analog

    @pytest.mark.parametrize(
        "timestep, cpu_clock_hz", [(100e-9, 20e6), (75e-9, 20e6), (50e-9, 5e6)]
    )
    def test_samples_and_cycles_sharing_an_instant(self, timestep, cpu_clock_hz):
        # Off the equal-grid default: a sample and a CPU cycle at the same
        # instant are ordered by which event the kernel scheduled first.
        assert_pull_matches_oracle(
            firmware="averaging", timestep=timestep, cpu_clock_hz=cpu_clock_hz
        )

    def test_no_kernel_events_per_analog_timestep(self):
        platform = SmartSystemPlatform(firmware=_firmware("threshold"))
        platform.attach_analog_python(_model("RC1", 50e-9), _stimuli("RC1"))
        result = platform.run(100e-6)
        assert result.analog_samples == 2000
        # 2000 cycles in 256-instruction blocks: a handful of CPU events and
        # no analog ones.
        assert platform.kernel._sequence <= 2000 // 256 + 2
