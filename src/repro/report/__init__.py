"""``repro.report`` — self-contained HTML dashboards for campaign results.

One page, zero external assets: every chart is inline SVG generated by
:mod:`repro.report.svg`, styled by a palette embedded in the page's own
``<style>`` block (with a ``prefers-color-scheme`` dark variant).  The
section adapters in :mod:`repro.report.sections` know how to render each
of the repo's result types — sweeps, platform sweeps, fault campaigns,
telemetry, differential fuzzing, run stores and benchmark history — and
:class:`Dashboard` stitches them into a single HTML file that survives
being mailed around or attached to a CI run as an artifact.

:mod:`repro.report.history` adds the cross-commit axis: recording with
``repro-bench`` appends every benchmark record to ``benchmarks/history/``
(one JSONL line per commit) and :func:`trend_series` turns those lines
into per-metric trend charts with regression markers.

Entry point: the ``repro-report`` CLI (:mod:`repro.report.cli`).
"""

from .dashboard import (
    Dashboard,
    collect_ids,
    self_contained_problems,
    verify_dashboard,
)
from .history import (
    DEFAULT_HISTORY_DIR,
    MetricTrend,
    TrendPoint,
    append_history,
    history_path,
    load_history,
    load_history_file,
    merge_latest,
    trend_series,
)
from .sections import (
    Section,
    bench_section,
    fault_section,
    fuzz_section,
    lint_section,
    platform_section,
    store_section,
    sweep_section,
    telemetry_section,
)
from .svg import (
    coverage_matrix_table,
    envelope_chart,
    timeline_chart,
    trend_chart,
)

__all__ = [
    "Dashboard",
    "DEFAULT_HISTORY_DIR",
    "MetricTrend",
    "Section",
    "TrendPoint",
    "append_history",
    "bench_section",
    "collect_ids",
    "coverage_matrix_table",
    "envelope_chart",
    "fault_section",
    "fuzz_section",
    "lint_section",
    "history_path",
    "load_history",
    "load_history_file",
    "merge_latest",
    "platform_section",
    "self_contained_problems",
    "store_section",
    "sweep_section",
    "telemetry_section",
    "timeline_chart",
    "trend_chart",
    "trend_series",
    "verify_dashboard",
]
