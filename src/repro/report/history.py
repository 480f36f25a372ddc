"""Cross-commit benchmark history: ``benchmarks/history/<name>.jsonl``.

``BENCH_<name>.json`` snapshots only ever hold the *latest* record, so a
trend line drawn from them has one point.  The history directory keeps one
JSONL file per benchmark with **one line per commit** — recording with
``repro-bench`` appends the fresh record (replacing any earlier line recorded
at the same commit, so re-recording never duplicates a point), published
atomically through the shared :mod:`repro.store.atomic` primitive.

:func:`trend_series` turns a benchmark's history into per-metric point
lists with regression markers: each consecutive pair of records is run
through :func:`~repro.perf.baseline.compare_records`, and a point that
regressed versus its predecessor carries the regression description.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..perf.baseline import BenchmarkRecord, PerfError, compare_records
from ..store.atomic import atomic_write_text

#: The in-repo history directory ``repro-bench`` appends to when recording.
DEFAULT_HISTORY_DIR = "benchmarks/history"


def history_path(directory: "str | Path", name: str) -> Path:
    return Path(directory) / f"{name}.jsonl"


def load_history_file(path: Path) -> list[BenchmarkRecord]:
    """Every record in one history file, in file (commit) order."""
    records: list[BenchmarkRecord] = []
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return records
    except OSError as exc:
        raise PerfError(f"cannot read benchmark history {path}: {exc}") from exc
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(BenchmarkRecord.from_json(line))
        except PerfError as exc:
            raise PerfError(
                f"malformed history line {path}:{line_number}: {exc}"
            ) from exc
    return records


def load_history(directory: "str | Path") -> dict[str, list[BenchmarkRecord]]:
    """Benchmark name → commit-ordered records for every ``*.jsonl`` file."""
    directory = Path(directory)
    history: dict[str, list[BenchmarkRecord]] = {}
    if not directory.exists():
        return history
    for path in sorted(directory.glob("*.jsonl")):
        records = load_history_file(path)
        if records:
            history[path.stem] = records
    return history


def append_history(record: BenchmarkRecord, directory: "str | Path") -> Path:
    """Append ``record`` to its benchmark's history (one line per commit).

    Re-publishing from the same commit *replaces* that commit's line instead
    of appending a duplicate point, so a trend chart's x axis stays one
    point per commit.  Records without git provenance (``git_commit`` is
    ``None``) always append — there is no identity to collapse on.  The
    whole file is rewritten through the atomic write-temp-then-replace
    primitive, so a crash mid-publish never truncates the history.
    """
    path = history_path(directory, record.name)
    existing = load_history_file(path)
    commit = record.meta.get("git_commit")
    if commit is not None:
        existing = [
            entry for entry in existing if entry.meta.get("git_commit") != commit
        ]
    existing.append(record)
    lines = [
        json.dumps(json.loads(entry.to_json()), sort_keys=True) for entry in existing
    ]
    return atomic_write_text(path, "\n".join(lines) + "\n")


@dataclass
class TrendPoint:
    """One commit's value of one metric (plus any regression vs the prior)."""

    label: str
    value: float
    regression: "str | None" = None


@dataclass
class MetricTrend:
    """One metric's cross-commit series."""

    benchmark: str
    metric: str
    points: list[TrendPoint] = field(default_factory=list)


def _short_label(record: BenchmarkRecord, index: int) -> str:
    commit = record.meta.get("git_commit")
    if isinstance(commit, str) and commit:
        label = commit[:8]
        if record.meta.get("git_dirty"):
            label += "+"
        return label
    return f"run {index}"


def trend_series(
    name: str,
    records: "list[BenchmarkRecord]",
    tolerance: float = 0.30,
) -> list[MetricTrend]:
    """Per-metric trend series over one benchmark's history.

    Consecutive records are compared with
    :func:`~repro.perf.baseline.compare_records`; a metric that regressed
    beyond ``tolerance`` at a commit gets that point's ``regression`` set
    to the human-readable description (the dashboard renders it as a
    critical marker).  Records whose workload size differs
    (``meta["smoke"]``) from their predecessor are not compared — smoke and
    full runs are different workloads.
    """
    metrics: dict[str, MetricTrend] = {}
    previous: "BenchmarkRecord | None" = None
    for index, record in enumerate(records):
        regressions: dict[str, str] = {}
        if previous is not None and previous.meta.get("smoke") == record.meta.get(
            "smoke"
        ):
            for regression in compare_records(previous, record, tolerance):
                regressions[regression.metric] = regression.describe()
        label = _short_label(record, index)
        for metric, value in sorted(record.metrics.items()):
            trend = metrics.setdefault(metric, MetricTrend(name, metric))
            trend.points.append(
                TrendPoint(label, float(value), regressions.get(metric))
            )
        previous = record
    return list(metrics.values())


def merge_latest(
    history: "dict[str, list[BenchmarkRecord]]",
    latest: "dict[str, BenchmarkRecord]",
) -> dict[str, list[BenchmarkRecord]]:
    """History extended with the latest snapshots (``BENCH_*.json``).

    A snapshot recorded at a commit already present in the history replaces
    that line's record (the snapshot is the same measurement, republished);
    otherwise it appends as the newest point.  Benchmarks that only have a
    snapshot produce a one-point series.
    """
    merged: dict[str, list[BenchmarkRecord]] = {
        name: list(records) for name, records in history.items()
    }
    for name, record in latest.items():
        series = merged.setdefault(name, [])
        commit = record.meta.get("git_commit")
        if commit is not None:
            series[:] = [
                entry for entry in series if entry.meta.get("git_commit") != commit
            ]
        series.append(record)
    return merged
