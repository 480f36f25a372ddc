"""Batch simulation and design-space exploration (the ``repro.sweep`` subsystem).

The paper's economic argument — abstracted signal-flow models are cheap
enough to simulate *a lot* — needs an engine that actually runs a lot of
them.  This package provides it:

* :mod:`~repro.sweep.spec` — declarative sweep specifications (parameter
  grids, corner enumeration, tolerance Monte-Carlo) expanding into scenario
  lists;
* :mod:`~repro.sweep.runner` — :class:`SweepRunner`, which abstracts every
  scenario (once per circuit structure, replaying the recorded arithmetic
  for the others), batches structurally identical models through the
  vectorized NumPy backend, and reuses compiled classes through the
  source-digest cache;
* :mod:`~repro.sweep.results` — :class:`SweepResult`, the ensemble waveform
  matrices with envelope/summary aggregation and markdown/CSV reports;
* :mod:`~repro.sweep.platform` — the same idea one level up:
  :class:`PlatformScenarioSpec` / :class:`PlatformSweepRunner` /
  :class:`PlatformSweepResult` sweep the *complete* smart-system virtual
  platform (firmware, bus, ADC and all) across analog parameters ×
  integration styles × firmware variants × stimulus families, with
  Table-III-style aggregation;
* :mod:`~repro.sweep.executor` — the one campaign executor both runners
  (and the fault campaign on top of the platform sweep) run through: store
  resume and atomic commits, ``interrupt_after``, telemetry, progress and
  the ``multiprocessing`` fan-out with its serial fallback.

Quick start::

    from repro.circuits import build_rc_filter
    from repro.sim import SquareWave
    from repro.sweep import MonteCarloSpec, SweepRunner

    spec = MonteCarloSpec(
        nominal={"resistance": 5e3, "capacitance": 25e-9},
        tolerances={"resistance": 0.05, "capacitance": 0.05},
        samples=256, seed=7,
    )
    runner = SweepRunner(build_rc_filter, "out",
                         stimuli={"vin": SquareWave(period=1e-3)},
                         timestep=50e-9)
    result = runner.run(spec, duration=0.2e-3)
    print(result.to_markdown())
"""

from .executor import SweepError
from .platform import (
    PlatformScenario,
    PlatformScenarioSpec,
    PlatformSweepResult,
    PlatformSweepRunner,
)
from .results import SweepResult
from .runner import SweepRunner
from .seeds import derive_seed, spawn_seeds
from .spec import (
    CompositeSpec,
    CornerSpec,
    GridSpec,
    MonteCarloSpec,
    Scenario,
    SweepSpec,
)

__all__ = [
    "CompositeSpec",
    "CornerSpec",
    "GridSpec",
    "MonteCarloSpec",
    "PlatformScenario",
    "PlatformScenarioSpec",
    "PlatformSweepResult",
    "PlatformSweepRunner",
    "Scenario",
    "SweepError",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "derive_seed",
    "spawn_seeds",
]
