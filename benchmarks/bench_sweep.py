#!/usr/bin/env python3
"""Benchmark of the batch engine: vectorized sweep versus serial runs.

Simulates an RC tolerance Monte-Carlo three ways and reports wall time:

* ``serial``   — one :func:`repro.sim.run_python_model` call per scenario
  (the pre-sweep workflow: the baseline the acceptance criterion names);
* ``batch``    — one vectorized NumPy ``step_batch`` instance advancing all
  scenarios per timestep (``SweepRunner`` with ``backend="numpy"``);
* ``workers``  — the same batch chunked across ``multiprocessing`` workers.

Run with:   PYTHONPATH=src python benchmarks/bench_sweep.py [--smoke]

``--smoke`` shrinks the workload for CI (fewer scenarios, shorter runs);
the full run uses the 256-scenario sweep the acceptance criterion asks for,
where the vectorized backend is expected to be well beyond 10x the serial
baseline.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.circuits import build_rc_filter  # noqa: E402
from repro.core import AbstractionFlow  # noqa: E402
from repro.sim import SquareWave, run_python_model  # noqa: E402
from repro.sweep import MonteCarloSpec, SweepRunner  # noqa: E402

TIMESTEP = 50e-9
STIMULI = {"vin": SquareWave(period=1e-3)}


def build_spec(samples: int) -> MonteCarloSpec:
    return MonteCarloSpec(
        nominal={"order": 1, "resistance": 5e3, "capacitance": 25e-9},
        tolerances={"resistance": 0.05, "capacitance": 0.05},
        samples=samples,
        seed=7,
    )


def bench(samples: int, duration: float, workers: int) -> int:
    spec = build_spec(samples)
    steps = int(round(duration / TIMESTEP))
    print(f"RC tolerance sweep: {samples} scenarios x {steps} timesteps "
          f"(dt = {TIMESTEP * 1e9:.0f} ns)")

    # -- serial baseline: abstract once per scenario, then N scalar runs ---------------
    flow = AbstractionFlow(TIMESTEP)
    models = [
        flow.abstract(build_rc_filter(**scenario.params), "out", name="rc1").model
        for scenario in spec.expand()
    ]
    start = time.perf_counter()
    serial_traces = [
        run_python_model(model, STIMULI, duration) for model in models
    ]
    serial_time = time.perf_counter() - start

    # -- vectorized batch --------------------------------------------------------------
    runner = SweepRunner(
        build_rc_filter, "out", stimuli=STIMULI, timestep=TIMESTEP, backend="numpy"
    )
    result = runner.run(spec, duration)
    batch_time = result.timings["simulate"]

    # -- multiprocess batch ------------------------------------------------------------
    parallel = SweepRunner(
        build_rc_filter, "out", stimuli=STIMULI, timestep=TIMESTEP, workers=workers
    )
    start = time.perf_counter()
    parallel_result = parallel.run(spec, duration)
    parallel_wall = time.perf_counter() - start

    deviation = max(
        float(np.max(np.abs(trace.waveform("V(out)") - result.ensemble("V(out)")[k])))
        for k, trace in enumerate(serial_traces)
    )
    # The stacked kernel performs the scalar step's operations in the same
    # order, so every lane must match bit for bit (signed zeros included).
    identical = all(
        np.array_equal(
            np.ascontiguousarray(trace.waveform("V(out)"), dtype=np.float64).view(np.uint64),
            np.ascontiguousarray(result.ensemble("V(out)")[k], dtype=np.float64).view(np.uint64),
        )
        for k, trace in enumerate(serial_traces)
    )
    speedup = serial_time / batch_time

    print(f"  serial   ({samples} x run_python_model): {serial_time:8.3f} s")
    print(f"  batch    (vectorized step_batch)      : {batch_time:8.3f} s "
          f"-> {speedup:.1f}x vs serial")
    print(f"  workers  ({parallel_result.workers} processes, wall)      : "
          f"{parallel_wall:8.3f} s (includes abstraction)")
    print(f"  abstraction (all scenarios)           : "
          f"{result.timings['abstract']:8.3f} s")
    print(f"  max |batch - serial| deviation        : {deviation:.2e}")

    print(f"  batch bit-identical to serial         : {identical}")

    if not identical:
        print("FAIL: batch is not bit-identical to the serial baseline")
        return 1
    target = 10.0
    verdict = "meets" if speedup >= target else "BELOW"
    print(f"  -> vectorized backend {verdict} the {target:.0f}x acceptance target")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload for CI (correctness + plumbing, not timing quality)",
    )
    parser.add_argument("--samples", type=int, default=None,
                        help="override the scenario count")
    parser.add_argument("--duration", type=float, default=None,
                        help="override the simulated time in seconds")
    parser.add_argument("--workers", type=int, default=4,
                        help="process count for the multiprocess row")
    arguments = parser.parse_args(argv)

    if arguments.smoke:
        samples = 32 if arguments.samples is None else arguments.samples
        duration = 0.05e-3 if arguments.duration is None else arguments.duration
        workers = min(arguments.workers, 2)
    else:
        samples = 256 if arguments.samples is None else arguments.samples
        duration = 0.2e-3 if arguments.duration is None else arguments.duration
        workers = arguments.workers
    if samples < 1:
        parser.error("--samples must be at least 1")
    if duration <= 0.0:
        parser.error("--duration must be positive")
    return bench(samples, duration, workers)


if __name__ == "__main__":
    raise SystemExit(main())
