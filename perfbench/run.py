"""Benchmark driver: one workload, one process, every metric by name.

Usage (from the repository root)::

    python3 perfbench/run.py --workload platform_poll --seed 1 --seconds 20 --trace 0

The run has four phases:

1. **Set-up**, repeated :data:`SETUP_REPEATS` times from a cold compile
   cache; the median is ``setup_s``.
2. **Reference**: the expected outcome of every run, computed once in the
   reference configuration (see ``workloads.py``).
3. **Measurement**: fixed rounds of work repeated until ``--seconds`` have
   passed.  Every run of every round is checked against the reference; a
   run fails when it raises or when its outcome differs.
4. **Report**: the last line of standard output is one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else
   goes to standard error.

With ``--trace 0`` tracing is off and the metrics are the end-to-end ones
(medians over rounds).  With ``--trace 1`` untraced and traced rounds
alternate: the untraced rounds give speeds and the tracing overhead, the
traced rounds switch on ``repro.obs`` and the layer probes of
``probes.py`` and give the per-layer metrics.  The spans of the traced
rounds are written as a Chrome trace to ``.perfbench_out/``.

Exit codes: 0 success, 1 a run differed from the reference (the first
differing run is named on standard error), 2 the program under test is
missing, 3 a per-layer probe read zero on the workload it must measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 9
#: Rounds measured at least, however short ``--seconds`` is.
MIN_ROUNDS = 3

STYLES = ("python", "de", "tdf", "eln", "cosim")
VERDICTS = ("silent", "trace-divergent", "firmware-detected", "lint-rejected", "crash")
#: Probe layers reported as ``self_s.<layer>`` (the layers the issue-named
#: per-layer metrics below do not already cover).
OTHER_LAYERS = (
    "vp.build", "vp.assemble", "vp.attach", "vp.run", "network.build",
    "apb.write", "sim.cosim", "core.abstract", "sweep.run", "fault.campaign",
    "fault.factory",
)

END_TO_END = {
    "sim_ms_per_host_s": "ms/s",
    "runs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "instructions_per_s": "1/s",
    "iss.run_block_s": "s",
    "iss.instr_per_block": "count",
    "iss.superblock_hit_ratio": "ratio",
    "iss.decode_misses": "count",
    "apb.read_s": "s",
    "apb.transactions_per_sim_ms": "count/ms",
    "adc.samples_per_sim_ms": "count/ms",
    "de.timed_actions_per_sim_ms": "count/ms",
    "de.deltas_per_sim_ms": "count/ms",
    "de.self_s": "s",
    "analog.step_s": "s",
    "sim.tdf_s": "s",
    "sim.eln_s": "s",
    "sim.ams_s": "s",
    **{f"platform.host_s_per_sim_ms.{style}": "s/ms" for style in STYLES},
    **{f"table3.speedup_vs_cosim.{style}": "x" for style in STYLES[:-1]},
    "max_nrmse_vs_eln": "ratio",
    "vams.parse_ms": "ms",
    "vams.elaborate_ms": "ms",
    "core.acquisition_ms": "ms",
    "core.enrichment_ms": "ms",
    "core.assemble_ms": "ms",
    "core.solve_ms": "ms",
    "core.order_exponent": "ratio",
    "codegen.generate_ms": "ms",
    "codegen.compile_ms": "ms",
    "codegen.cache_hit_ratio": "ratio",
    "sweep.abstract_s": "s",
    "sweep.simulate_s": "s",
    "sweep.batch_steps_per_s": "1/s",
    "sweep.worker_utilization": "ratio",
    "sweep.chunk_imbalance": "x",
    **{f"fault.verdicts.{verdict}": "count" for verdict in VERDICTS},
    "fault.reabstractions": "count",
    "store.commit_ms": "ms",
    "store.load_ms": "ms",
    "store.commits": "count",
    "store.hits": "count",
    "obs.tracing_overhead": "x",
    "obs.unattributed_s": "s",
    "obs.traced_wall_s": "s",
    **{f"self_s.{layer}": "s" for layer in OTHER_LAYERS},
}

#: Per-layer metrics that must not read zero on the workload whose
#: mechanism they measure: a zero there is a silent probe, not a result.
REQUIRED_NONZERO = {
    "platform_poll": (
        "instructions_per_s", "iss.run_block_s", "iss.instr_per_block", "apb.read_s",
        "apb.transactions_per_sim_ms", "adc.samples_per_sim_ms",
        "de.timed_actions_per_sim_ms", "de.self_s", "analog.step_s",
        "platform.host_s_per_sim_ms.python",
    ),
    "platform_event": (
        "instructions_per_s", "iss.instr_per_block", "de.timed_actions_per_sim_ms",
        "de.deltas_per_sim_ms", "de.self_s", "analog.step_s", "sim.tdf_s", "sim.eln_s",
        "max_nrmse_vs_eln", *(f"platform.host_s_per_sim_ms.{s}" for s in ("de", "tdf", "eln")),
    ),
    "fault_campaign": (
        "store.commit_ms", "store.load_ms", "store.commits", "store.hits",
        "fault.reabstractions", "sim.ams_s", "sim.eln_s", "sim.tdf_s", "iss.instr_per_block",
        "de.timed_actions_per_sim_ms", "codegen.compile_ms", "sweep.worker_utilization",
        "sweep.chunk_imbalance",
        *(f"table3.speedup_vs_cosim.{s}" for s in STYLES[:-1]),
        *(f"platform.host_s_per_sim_ms.{s}" for s in STYLES),
    ),
    "mc_sweep": (
        "vams.parse_ms", "vams.elaborate_ms", "core.acquisition_ms", "core.enrichment_ms",
        "core.assemble_ms", "core.solve_ms", "core.order_exponent", "codegen.generate_ms",
        "codegen.compile_ms", "sweep.abstract_s", "sweep.simulate_s",
        "sweep.batch_steps_per_s", "sweep.worker_utilization",
    ),
}

#: Top-level spans of one campaign worker (nothing else nests outside them).
WORKER_BUSY_SPANS = (
    "platform.run", "flow.acquisition", "flow.enrichment", "flow.assemble",
    "flow.solve", "codegen.compile",
)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"perfbench: no program to measure: {SRC / 'repro'} is missing")
        raise SystemExit(2)
    # Single-threaded numerics: the benchmark measures the program, not how
    # a BLAS thread pool shares the machine with other processes.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, str(SRC))
    import repro

    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        log(f"perfbench: imported repro from {location}, not from {SRC}")
        raise SystemExit(2)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


# ----------------------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------------------
class Checker:
    """Counts attempted and failed runs against the reference outcomes."""

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def _fail(self, count: int, message: str) -> None:
        self.failed += count
        if self.first_failure is None:
            self.first_failure = message

    def check(self, outcomes: dict) -> None:
        from workloads import describe

        self.attempted += len(self.expected)
        for key, expected in self.expected.items():
            observed = outcomes.get(key)
            if observed != expected:
                self._fail(1, f"{describe(key)}: expected {expected!r}, got {observed!r}")
        for key in outcomes.keys() - self.expected.keys():
            self._fail(1, f"{describe(key)}: run has no reference outcome")

    def crashed(self, error: BaseException) -> None:
        self.attempted += len(self.expected)
        self._fail(len(self.expected), f"round raised {type(error).__name__}: {error}")


def measure(workload, state, checker: Checker, seconds: float, trace: bool):
    """Run rounds for ``seconds``; returns (untraced rounds, traced rounds)."""
    from repro.obs.tracer import TRACER, disable_tracing, enable_tracing

    from probes import Probe

    probe = Probe(TRACER.counters)
    untraced, traced = [], []
    # Round -1 is checked but not measured: pool start-up, store and lazy
    # imports of a fresh process are paid there, not in a measured round.
    index = -1
    deadline = float("inf")
    while index < MIN_ROUNDS * (2 if trace else 1) or time.perf_counter() < deadline:
        if index == 0:
            deadline = time.perf_counter() + seconds
        traced_round = trace and index >= 0 and index % 2 == 1
        try:
            if traced_round:
                before = dict(TRACER.counters)
                enable_tracing()
                probe.install(workload.model_classes(state))
                begin = time.perf_counter()
                try:
                    result = workload.run_round(state)
                    TRACER.end("perfbench.round", begin, "perfbench", round=index)
                finally:
                    probe.remove()
                    disable_tracing()
                result.counters = {
                    name: value - before.get(name, 0.0)
                    for name, value in TRACER.counters.items()
                    if value != before.get(name, 0.0)
                }
                traced.append(result)
            else:
                result = workload.run_round(state)
                if index >= 0:
                    untraced.append(result)
        except Exception as error:  # a failing run is counted, not fatal
            checker.crashed(error)
            log(traceback.format_exc())
            break
        checker.check(result.outcomes)
        # Platform objects are reference cycles: collect them between rounds
        # so no round pays for its predecessor's garbage and the heap (and
        # with it peak_rss_mb) does not grow with the number of rounds.
        gc.collect()
        log(
            f"round {index} {'traced' if traced_round else 'untraced' if index >= 0 else 'warm-up'}: "
            f"{result.wall:.3f} s, {result.runs} runs, {result.sim_ms:.3f} simulated ms"
        )
        index += 1
    return untraced, traced


# ----------------------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------------------
def end_to_end_metrics(untraced: list, setup_times: list) -> dict:
    return {
        "sim_ms_per_host_s": median(r.sim_ms / r.wall for r in untraced),
        "runs_per_s": median(r.runs / r.wall for r in untraced),
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }


def _worker_counters(result) -> dict:
    counters: dict = {}
    for report in result.telemetry:
        for name, value in report.counters.items():
            counters[name] = counters.get(name, 0.0) + value
    return counters


def _worker_cpu_stats(result) -> dict:
    """ISS statistics of campaign workers, from their ``platform.run`` spans."""
    stats = dict.fromkeys(("instructions", "blocks", "superblock_hits", "decode_misses"), 0.0)
    for report in result.telemetry:
        for event in report.events:
            if event["name"] == "platform.run" and event["args"]:
                args = event["args"]
                stats["instructions"] += args.get("instructions", 0)
                stats["blocks"] += args.get("blocks", 0)
                stats["superblock_hits"] += args.get("superblock_hits", 0)
                stats["decode_misses"] += args.get("decode_misses", 0)
    return stats


def _chunk_imbalance(result) -> float:
    """Max over mean worker busy time of the fresh campaign pass."""
    busy: dict = {}
    for event in result.telemetry[0].events if result.telemetry else ():
        if event["name"] in WORKER_BUSY_SPANS:
            busy[event["pid"]] = busy.get(event["pid"], 0.0) + event["dur"]
    if not busy:
        return 0.0
    return max(busy.values()) / (sum(busy.values()) / len(busy))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced_values(result) -> dict:
    """Per-layer values of one traced round."""
    from probes import DELTAS, REABSTRACTIONS, SELF_PREFIX, TIMED_ACTIONS

    parent = result.counters
    counters = dict(parent)
    for name, value in _worker_counters(result).items():
        counters[name] = counters.get(name, 0.0) + value
    stats = dict(result.stats)
    if result.telemetry:
        stats.update(_worker_cpu_stats(result))

    def self_s(layer: str) -> float:
        return counters.get(SELF_PREFIX + layer, 0.0)

    sim_ms = result.sim_ms
    blocks = stats.get("blocks", 0.0)
    values = {
        "iss.run_block_s": self_s("iss"),
        "iss.instr_per_block": _ratio(stats.get("instructions", 0.0), blocks),
        "iss.superblock_hit_ratio": _ratio(stats.get("superblock_hits", 0.0), blocks),
        "iss.decode_misses": stats.get("decode_misses", 0.0),
        "apb.read_s": self_s("apb.read"),
        "apb.transactions_per_sim_ms": _ratio(stats.get("bus_transactions", 0.0), sim_ms),
        "adc.samples_per_sim_ms": _ratio(stats.get("adc_samples", 0.0), sim_ms),
        "de.timed_actions_per_sim_ms": _ratio(counters.get(TIMED_ACTIONS, 0.0), sim_ms),
        "de.deltas_per_sim_ms": _ratio(counters.get(DELTAS, 0.0), sim_ms),
        "de.self_s": self_s("de"),
        "analog.step_s": self_s("analog.step"),
        "sim.tdf_s": self_s("sim.tdf"),
        "sim.eln_s": self_s("sim.eln"),
        "sim.ams_s": self_s("sim.ams"),
        "max_nrmse_vs_eln": stats.get("max_nrmse_vs_eln", 0.0),
        "vams.parse_ms": 1e3 * self_s("vams.parse"),
        "vams.elaborate_ms": 1e3 * self_s("vams.elaborate"),
        "core.acquisition_ms": 1e3 * self_s("core.acquisition"),
        "core.enrichment_ms": 1e3 * self_s("core.enrichment"),
        "core.assemble_ms": 1e3 * self_s("core.assemble"),
        "core.solve_ms": 1e3 * self_s("core.solve"),
        "core.order_exponent": stats.get("order_exponent", 0.0),
        "codegen.generate_ms": 1e3 * self_s("codegen.generate"),
        "codegen.compile_ms": 1e3 * self_s("codegen.compile"),
        "codegen.cache_hit_ratio": _ratio(
            counters.get("codegen.cache_hits", 0.0),
            counters.get("codegen.cache_hits", 0.0) + counters.get("codegen.compiles", 0.0),
        ),
        "fault.reabstractions": counters.get(REABSTRACTIONS, 0.0),
        "store.commit_ms": 1e3 * self_s("store.commit"),
        "store.load_ms": 1e3 * self_s("store.load"),
        "store.commits": counters.get("store.commits", 0.0),
        "store.hits": counters.get("store.hits", 0.0),
        "obs.traced_wall_s": result.wall,
        "obs.unattributed_s": result.wall - sum(
            value for name, value in parent.items() if name.startswith(SELF_PREFIX)
        ),
    }
    for verdict in VERDICTS:
        values[f"fault.verdicts.{verdict}"] = stats.get(f"verdicts.{verdict}", 0.0)
    for layer in OTHER_LAYERS:
        values[f"self_s.{layer}"] = self_s(layer)
    if result.telemetry:
        values["sweep.worker_utilization"] = result.telemetry[0].worker_utilization or 0.0
        values["sweep.chunk_imbalance"] = _chunk_imbalance(result)
    elif "simulate_s" in stats:
        # A serial sweep: one worker, busy for the abstract and simulate phases.
        values["sweep.worker_utilization"] = _ratio(
            stats["abstract_s"] + stats["simulate_s"], result.wall
        )
        values["sweep.chunk_imbalance"] = 1.0
    return values


def untraced_values(result) -> dict:
    """Speeds of one untraced round (tracing distorts every host time)."""
    stats = result.stats
    values = {"instructions_per_s": _ratio(stats.get("instructions", 0.0), result.wall)}
    for style in STYLES:
        if f"host_s.{style}" in stats:
            values[f"platform.host_s_per_sim_ms.{style}"] = (
                stats[f"host_s.{style}"] / stats[f"sim_ms.{style}"]
            )
        if "golden_s.cosim" in stats and style != "cosim":
            values[f"table3.speedup_vs_cosim.{style}"] = (
                stats["golden_s.cosim"] / stats[f"golden_s.{style}"]
            )
    if "simulate_s" in stats:
        values["sweep.abstract_s"] = stats["abstract_s"]
        values["sweep.simulate_s"] = stats["simulate_s"]
        values["sweep.batch_steps_per_s"] = stats["scenario_steps"] / stats["simulate_s"]
    return values


def per_layer_metrics(untraced: list, traced: list) -> dict:
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for rounds, values in ((untraced, untraced_values), (traced, traced_values)):
        per_round = [values(result) for result in rounds]
        for name in set().union(*per_round):
            metrics[name] = median(entry.get(name, 0.0) for entry in per_round)
    metrics["obs.tracing_overhead"] = _ratio(
        median(r.wall for r in traced), median(r.wall for r in untraced)
    )
    return metrics


def print_accounting(traced: list) -> None:
    """Self time of every probed layer in the median traced round."""
    from probes import SELF_PREFIX

    result = sorted(traced, key=lambda r: r.wall)[len(traced) // 2]
    layers = sorted(
        ((name[len(SELF_PREFIX):], value) for name, value in result.counters.items()
         if name.startswith(SELF_PREFIX)),
        key=lambda item: -item[1],
    )
    log(f"self-time accounting of the median traced round ({result.wall:.3f} s wall):")
    for layer, seconds in layers:
        log(f"  {layer:20s} {seconds:9.4f} s")
    log(f"  {'unattributed':20s} {result.wall - sum(s for _, s in layers):9.4f} s")
    workers = _worker_counters(result)
    if workers:
        log("  inside campaign workers (overlapping the parent's fault.campaign time):")
        for name, value in sorted(workers.items()):
            if name.startswith(SELF_PREFIX):
                log(f"    {name[len(SELF_PREFIX):]:18s} {value:9.4f} s")


def write_trace(workload, traced: list, mark) -> Path:
    """Write the spans of the traced rounds as a Chrome trace_event file."""
    from repro.obs import TRACER, TelemetryReport
    from repro.obs.export import write_trace_json

    report = TelemetryReport.merge(
        f"perfbench.{workload.name}",
        [TRACER.collect(mark)],
        scenarios=sum(r.runs for r in traced),
        executed=sum(r.runs for r in traced),
        wall=sum(r.wall for r in traced),
        workers=1,
    )
    for result in traced:
        for telemetry in result.telemetry:
            report.events.extend(telemetry.events)
    report.events.sort(key=lambda event: event["ts"])
    path = OUT / f"{workload.name}-seed{workload.seed}.trace.json"
    return write_trace_json(path, report)


# ----------------------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from repro.core.codegen.cache import clear_cache
    from repro.obs import TRACER

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    tmp_dir = TMP / f"{args.workload}-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, tmp_dir)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            clear_cache()
            start = time.perf_counter()
            state = workload.setup()
            setup_times.append(time.perf_counter() - start)
        log(f"{workload.name} seed {args.seed}: set-up {median(setup_times):.4f} s (median of {SETUP_REPEATS})")

        start = time.perf_counter()
        checker = Checker(workload.reference(state))
        gc.collect()
        log(f"reference outcomes of {len(checker.expected)} runs in {time.perf_counter() - start:.2f} s")

        mark = TRACER.mark()
        untraced, traced = measure(workload, state, checker, args.seconds, bool(args.trace))
        if args.trace:
            metrics = per_layer_metrics(untraced, traced)
            units = PER_LAYER
        else:
            metrics = end_to_end_metrics(untraced, setup_times)
            units = END_TO_END
        silent = []
        if args.trace and traced:
            print_accounting(traced)
            log(f"wrote {write_trace(workload, traced, mark)}")
            silent = [name for name in REQUIRED_NONZERO[workload.name] if not metrics[name]]
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        if TMP.is_dir() and not any(TMP.iterdir()):
            TMP.rmdir()
        import multiprocessing

        for child in multiprocessing.active_children():
            child.join()

    if checker.first_failure is not None:
        log(f"FIRST DIFFERING RUN: {checker.first_failure}")
    for name in silent:
        log(f"PROBE SANITY FAILURE: {name} reads 0 on {workload.name}, which exercises it")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }))
    if checker.failed:
        return 1
    return 3 if silent else 0


if __name__ == "__main__":
    raise SystemExit(main())
