"""The ``repro-bench`` entry point: record/compare performance baselines.

Runs the standard :mod:`repro.perf.suite` workloads.  The baselines have
one home, the repository root (:func:`~repro.perf.baseline.repo_root`),
and the CLI has two modes:

* **record** (the default): write one ``BENCH_<name>.json`` per benchmark
  into the repository root and append each record as one JSONL line to
  ``benchmarks/history/<name>.jsonl`` — the cross-commit series
  ``repro-report`` renders as trend lines.  Records carry the git commit
  and dirty flag, so recording refuses a dirty working tree (exit 2)
  unless ``--allow-dirty`` is given: a baseline must name the exact tree
  it measured.
* **compare** (``--compare``): check the fresh numbers against the
  repository-root baselines and write nothing; regressions beyond
  ``--tolerance`` are reported (and fail the run under ``--strict``).

Baselines are wall-clock numbers of *this* machine — record and compare on
the same host.

``--store DIR`` checkpoints the suite itself into a content-addressed
:class:`~repro.store.RunStore` (one record per benchmark, keyed by
benchmark × workload size × interpreter/machine identity) and ``--resume``
skips benchmarks whose record is already committed — an interrupted long
suite run finishes only the missing workloads.

``--trace``/``--telemetry`` collect :mod:`repro.obs` telemetry of the
suite run itself, and ``--report out.html`` writes a self-contained HTML
dashboard of the fresh records merged with that history.
"""

from __future__ import annotations

import argparse
import json
import platform as _platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from ..obs.export import write_trace_json
from ..obs.telemetry import TelemetryReport
from ..obs.tracer import TRACER, disable_tracing, enable_tracing
from ..report import Dashboard, bench_section
from ..report.history import (
    DEFAULT_HISTORY_DIR,
    append_history,
    load_history,
    merge_latest,
)
from ..sweep.executor import CampaignTask, Executor
from .baseline import BaselineStore, BenchmarkRecord, git_identity, repo_root
from .suite import SUITE, run_suite

def _bench_store_inputs(name: str, smoke: bool) -> dict:
    """The content key of one suite benchmark: what × at what size × where.

    Wall-clock records are only meaningful on the host that produced them,
    so the interpreter and machine identity are part of the key — resuming
    on a different machine re-runs rather than reusing foreign numbers.
    """
    return {
        "engine": "perf-suite",
        "benchmark": name,
        "smoke": bool(smoke),
        "python": sys.version.split()[0],
        "implementation": _platform.python_implementation(),
        "machine": _platform.machine(),
        # The hostname, not just the architecture: a store shared between
        # two same-arch hosts must re-run, never reuse foreign wall clocks.
        "host": _platform.node(),
    }


@dataclass
class _SuiteTask(CampaignTask):
    """The perf suite as a campaign: one stored record per benchmark."""

    smoke: bool

    engine = "perf-suite"
    unit = "benchmarks"
    counters = ("perf.benchmarks", "perf.loaded")

    def store_inputs(self, bench) -> dict:
        return _bench_store_inputs(bench.__name__.removeprefix("bench_"), self.smoke)

    def encode(self, record: BenchmarkRecord) -> dict:
        return json.loads(record.to_json())

    def decode(self, payload: dict) -> BenchmarkRecord:
        return BenchmarkRecord.from_json(json.dumps(payload))

    def execute(self, benches, pending):
        for position in pending:
            yield position, benches[position](self.smoke)


def record_baselines(records: "list[BenchmarkRecord]", root: Path) -> None:
    """Write each record as ``root/BENCH_<name>.json`` and append it to history.

    The only writer of baselines: the snapshot and its history line are
    written together, so the latest history point always equals the
    snapshot ``--compare`` reads.
    """
    store = BaselineStore(root)
    history_directory = root / DEFAULT_HISTORY_DIR
    for record in records:
        print(f"  wrote {store.save(record)}")
        print(f"  appended {append_history(record, history_directory)}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized workloads (seconds, not minutes); measured the same way",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="compare against the repo-root baselines instead of recording; "
        "writes nothing",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="fraction of baseline performance a metric may lose before it is "
        "flagged (default 0.30, i.e. flag below 70%% retained)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when --compare finds regressions",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="checkpoint each benchmark's record into this run store",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip benchmarks already committed to --store (load their records)",
    )
    parser.add_argument(
        "--allow-dirty",
        action="store_true",
        help="record from a dirty working tree (the records will carry "
        "git_dirty: true and are not reproducible from the recorded commit "
        "alone)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="collect telemetry while the suite runs and write a Chrome "
        "trace_event JSON file (inspect with repro-trace or chrome://tracing)",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="FILE",
        help="write the suite telemetry as a markdown report "
        "(implies telemetry collection)",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write a self-contained HTML dashboard of the fresh records "
        "merged with benchmarks/history/ trend lines (see repro-report)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-metric detail lines and telemetry summary",
    )
    arguments = parser.parse_args(argv)
    if arguments.resume and arguments.store is None:
        parser.error("--resume needs --store to resume from")
    if not arguments.compare and not arguments.allow_dirty and git_identity()[1]:
        print(
            "repro-bench: refusing to record from a dirty working tree: the "
            "baselines would carry git_dirty: true and could not be "
            "reproduced from the recorded commit. Commit (or stash) your "
            "changes, pass --allow-dirty to record anyway, or --compare.",
            file=sys.stderr,
        )
        return 2
    root = repo_root()

    trace = bool(arguments.trace or arguments.telemetry)
    tracer_was_enabled = TRACER.enabled
    if trace and not tracer_was_enabled:
        enable_tracing()
    telemetry_mark = TRACER.mark() if trace else None
    suite_start = time.perf_counter()

    print(f"Running the perf suite ({'smoke' if arguments.smoke else 'full'} size)...")
    loaded = 0
    try:
        if arguments.store is not None:
            # The suite's own tracer bracket above covers both paths, so
            # the executor only checkpoints.
            outcome = Executor(
                store=arguments.store, resume=arguments.resume, trace=False, progress=False
            ).run(_SuiteTask(arguments.smoke), SUITE)
            records = outcome.results
            loaded = len(records) - int(outcome.executed.sum())
            print(
                f"  suite store {arguments.store}: {len(records) - loaded} "
                f"benchmark(s) executed, {loaded} loaded"
            )
        else:
            records = run_suite(smoke=arguments.smoke)
    finally:
        if trace and not tracer_was_enabled:
            disable_tracing()
    if not arguments.quiet:
        for record in records:
            print(f"  {record.name}:")
            for metric, value in sorted(record.metrics.items()):
                print(f"    {metric:35s} {value:12.4g}")

    if telemetry_mark is not None:
        wall = time.perf_counter() - suite_start
        report = TelemetryReport.merge(
            "perf-suite",
            [TRACER.collect(telemetry_mark)],
            scenarios=len(records),
            executed=len(records) - loaded,
            wall=wall,
            workers=1,
        )
        if arguments.trace:
            write_trace_json(arguments.trace, report)
            print(f"wrote {arguments.trace}")
        if arguments.telemetry:
            with open(arguments.telemetry, "w") as handle:
                handle.write(report.to_markdown() + "\n")
            print(f"wrote {arguments.telemetry}")
        if not arguments.quiet:
            print(
                f"telemetry: {report.executed} benchmark(s) executed in "
                f"{report.wall:.2f}s"
            )

    if arguments.report:
        history = load_history(root / DEFAULT_HISTORY_DIR)
        series = merge_latest(history, {record.name: record for record in records})
        dashboard = Dashboard(
            title="Benchmark trends",
            subtitle=f"{'smoke' if arguments.smoke else 'full'} workloads",
        )
        dashboard.add(bench_section(series, tolerance=arguments.tolerance))
        print(f"wrote {dashboard.write(arguments.report)}")

    if arguments.compare:
        store = BaselineStore(root)
        regressions, missing = store.compare(records, tolerance=arguments.tolerance)
        for name in missing:
            print(
                f"  note: no comparable baseline for {name!r} in "
                f"{store.directory} (never recorded, or recorded at a "
                f"different workload size)"
            )
        if regressions:
            print(f"\n{len(regressions)} regression(s) vs the last recorded baseline:")
            for regression in regressions:
                print(f"  REGRESSION {regression.describe()}")
            return 1 if arguments.strict else 0
        print("\nno regressions vs the last recorded baseline")
        return 0

    record_baselines(records, root)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
