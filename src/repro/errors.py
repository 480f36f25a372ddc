"""Exception hierarchy shared by every ``repro`` subpackage.

Keeping all exceptions in a single module lets callers catch
:class:`ReproError` to handle any library failure, or a specific subclass
when they care about one failure mode (e.g. a parse error versus a
non-linear equation during abstraction).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ExpressionError(ReproError):
    """Base class for errors raised by the symbolic expression engine."""


class EvaluationError(ExpressionError):
    """An expression could not be numerically evaluated.

    Typical causes are an unbound variable or an unknown function name.
    """


class NonLinearExpressionError(ExpressionError):
    """An expression that was required to be linear in some variables is not."""


class UnsolvableEquationError(ExpressionError):
    """A linear equation could not be solved for the requested variable."""


class VamsError(ReproError):
    """Base class for Verilog-AMS frontend errors.

    ``line``/``column`` are the 1-based source position of the offending
    construct, appended to the message; both are 0 when there is none (an
    unknown parameter override, a module-level rejection).
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class VamsLexerError(VamsError):
    """The Verilog-AMS lexer met a character sequence it cannot tokenise."""


class VamsParseError(VamsError):
    """The Verilog-AMS parser met an unexpected token."""


class NetworkError(ReproError):
    """Base class for electrical-network construction and analysis errors."""


class TopologyError(NetworkError):
    """The circuit topology is malformed (dangling node, missing ground, ...)."""


class SingularNetworkError(NetworkError):
    """The network equations are singular and cannot be solved."""


class AbstractionError(ReproError):
    """Base class for failures of the abstraction methodology (core pipeline)."""


class AcquisitionError(AbstractionError):
    """Step 1 (acquisition) could not build the equation multimap or graph."""


class EnrichmentError(AbstractionError):
    """Step 2 (enrichment) could not derive or re-solve Kirchhoff equations."""


class AssembleError(AbstractionError):
    """Step 3 (assemble) could not resolve the output of interest."""


class CodeGenerationError(AbstractionError):
    """Step 4 (code generation) could not emit the requested backend."""


class CodegenError(CodeGenerationError):
    """A codegen backend exists but cannot run here (missing toolchain/dependency).

    Distinct from :class:`CodeGenerationError` raised for unknown backends or
    malformed models: this one means "the ``native`` tier would work on a
    machine with a C compiler and cffi, but not on this one" — callers that
    can degrade (sweep/fuzz CLIs) catch it and fall back to ``numpy``.
    """


class SimulationError(ReproError):
    """Base class for simulation-kernel errors (DE, TDF, ELN, reference AMS)."""


class SchedulingError(SimulationError):
    """A TDF cluster could not be statically scheduled."""


class CoSimulationError(SimulationError):
    """The co-simulation bridge lost synchronisation between the two engines."""


class PlatformError(ReproError):
    """Base class for virtual-platform (CPU, bus, peripherals) errors."""


class AssemblerError(PlatformError):
    """The MIPS assembler rejected a source program."""


class CpuFault(PlatformError):
    """The MIPS instruction-set simulator hit an illegal instruction or access."""


class BusError(PlatformError):
    """An APB transaction addressed an unmapped region or misbehaved."""


class FaultError(ReproError):
    """A fault model or campaign specification is malformed or inapplicable."""


class StoreError(ReproError):
    """A campaign store is unusable: unwritable, malformed, or incompatible."""


class CampaignInterrupted(ReproError):
    """A batch run was deliberately cut short after a checkpoint commit.

    Raised by the sweep engines when an ``interrupt_after`` budget is
    exhausted — the crash-simulation hook used by the resume tests and the
    CI resume-smoke job.  Already-committed results survive in the run
    store; resuming the same spec against the same store completes the
    remaining scenarios.
    """
