"""Benchmark records, JSON baselines and regression comparison.

A *baseline* is the last recorded performance of one benchmark on one
machine, stored as a ``BENCH_<name>.json`` file in the repository root
(:func:`repo_root`).  ``repro-bench`` records them; its ``--compare`` mode
re-runs the suite and flags metrics that regressed beyond a tolerance.
Baselines are machine-specific wall-clock numbers — compare them only
against baselines recorded on the same host.
"""

from __future__ import annotations

import functools
import json
import platform as _platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from ..errors import ReproError
from ..store.atomic import atomic_write_text


class PerfError(ReproError):
    """Raised for malformed baseline files or inconsistent comparisons."""


def _git(*arguments: str) -> "str | None":
    """Stdout of one git command, or ``None`` when git/repo is unavailable."""
    try:
        completed = subprocess.run(
            ("git", *arguments),
            capture_output=True,
            text=True,
            timeout=10.0,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout


def repo_root() -> Path:
    """The git toplevel directory, or the current directory outside a checkout.

    The one home of the ``BENCH_*.json`` baselines, next to the source they
    measured.
    """
    toplevel = (_git("rev-parse", "--show-toplevel") or "").strip()
    return Path(toplevel) if toplevel else Path.cwd()


@functools.lru_cache(maxsize=1)
def git_identity() -> "tuple[str | None, bool | None]":
    """``(commit_hash, dirty_flag)`` of the working tree, or ``(None, None)``.

    Cached for the process lifetime: a suite run records several benchmarks
    and they should all carry the *same* identity, not race a concurrent
    commit.  Outside a git checkout both values are ``None`` — baselines
    recorded from an installed wheel simply omit the provenance.
    """
    commit = _git("rev-parse", "HEAD")
    if commit is None:
        return None, None
    status = _git("status", "--porcelain")
    dirty = None if status is None else bool(status.strip())
    return commit.strip(), dirty


def best_of(function: Callable[[], object], repeats: int = 3) -> float:
    """Wall-clock seconds of the fastest of ``repeats`` calls to ``function``.

    The *minimum* is the standard estimator for micro-benchmarks: noise from
    scheduling and garbage collection only ever adds time, so the fastest
    observation is the closest to the true cost.
    """
    if repeats < 1:
        raise PerfError(
            f"best_of needs at least one repeat to take a minimum over "
            f"(got repeats={repeats})"
        )
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class BenchmarkRecord:
    """One benchmark's machine-readable outcome.

    ``metrics`` maps metric name to value; names listed in ``maximize`` are
    throughput-like (higher is better), all others are cost-like (lower is
    better).  ``meta`` carries provenance: interpreter, platform, workload
    scale — anything a human needs to judge comparability.
    """

    name: str
    metrics: dict[str, float]
    maximize: tuple[str, ...] = ()
    meta: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = [key for key in self.maximize if key not in self.metrics]
        if unknown:
            raise PerfError(
                f"benchmark {self.name!r} declares maximize metrics {unknown} "
                f"that are not in its metrics table {sorted(self.metrics)}"
            )

    @staticmethod
    def environment_meta() -> dict[str, object]:
        """Provenance every record should carry (interpreter + machine + tree).

        ``git_commit``/``git_dirty`` pin the record to the exact source it
        measured; ``git_dirty`` true means uncommitted changes were present,
        so the number is not reproducible from the commit alone.  Both are
        ``None`` outside a git checkout.
        """
        commit, dirty = git_identity()
        return {
            "python": sys.version.split()[0],
            "implementation": _platform.python_implementation(),
            "machine": _platform.machine(),
            "recorded_unix_time": round(time.time(), 3),
            "git_commit": commit,
            "git_dirty": dirty,
        }

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "metrics": self.metrics,
                "maximize": list(self.maximize),
                "meta": self.meta,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "BenchmarkRecord":
        try:
            payload = json.loads(text)
            return cls(
                name=payload["name"],
                metrics={key: float(value) for key, value in payload["metrics"].items()},
                maximize=tuple(payload.get("maximize", ())),
                meta=dict(payload.get("meta", {})),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise PerfError(f"malformed benchmark record: {exc}") from exc


@dataclass(frozen=True)
class Regression:
    """One metric that moved the wrong way past the tolerance."""

    benchmark: str
    metric: str
    baseline: float
    current: float
    #: current/baseline for maximize metrics, baseline/current otherwise —
    #: always "fraction of the baseline performance retained" (< 1 is worse).
    retained: float

    def describe(self) -> str:
        return (
            f"{self.benchmark}.{self.metric}: {self.current:.4g} vs baseline "
            f"{self.baseline:.4g} ({self.retained * 100.0:.0f}% retained)"
        )


def compare_records(
    baseline: BenchmarkRecord,
    current: BenchmarkRecord,
    tolerance: float = 0.30,
) -> list[Regression]:
    """Metrics of ``current`` that regressed beyond ``tolerance``.

    ``tolerance`` is the fraction of baseline performance a metric may lose
    before being flagged (0.30 = flag anything retaining < 70%); generous by
    default because wall-clock numbers on shared machines are noisy.  Metrics
    present in only one record are ignored — adding a benchmark metric must
    not fail the comparison against older baselines.
    """
    if baseline.name != current.name:
        raise PerfError(
            f"comparing different benchmarks: {baseline.name!r} vs {current.name!r}"
        )
    if not 0.0 <= tolerance < 1.0:
        raise PerfError(
            f"tolerance is the fraction of baseline performance a metric may "
            f"lose and must be in [0, 1); got {tolerance!r}"
        )
    regressions: list[Regression] = []
    for metric, base_value in baseline.metrics.items():
        if metric not in current.metrics:
            continue
        value = current.metrics[metric]
        if base_value <= 0.0 or value <= 0.0:
            continue
        if metric in baseline.maximize:
            retained = value / base_value
        else:
            retained = base_value / value
        if retained < 1.0 - tolerance:
            regressions.append(
                Regression(
                    benchmark=current.name,
                    metric=metric,
                    baseline=base_value,
                    current=value,
                    retained=retained,
                )
            )
    return regressions


class BaselineStore:
    """Directory of ``BENCH_<name>.json`` baseline files."""

    PREFIX = "BENCH_"

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)

    def path_for(self, name: str) -> Path:
        return self.directory / f"{self.PREFIX}{name}.json"

    def save(self, record: BenchmarkRecord) -> Path:
        """Write (or overwrite) the baseline for ``record.name``.

        Published atomically (write-temp-then-``os.replace``, the shared
        :mod:`repro.store.atomic` primitive): a comparison racing a
        re-record, or a crash mid-save, can never observe a torn baseline.
        """
        return atomic_write_text(
            self.path_for(record.name), record.to_json() + "\n"
        )

    @staticmethod
    def _load_path(path: Path) -> BenchmarkRecord:
        """Parse one baseline file; errors name the offending file."""
        try:
            return BenchmarkRecord.from_json(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise PerfError(f"cannot read baseline file {path}: {exc}") from exc
        except PerfError as exc:
            raise PerfError(f"malformed baseline file {path}: {exc}") from exc

    def load(self, name: str) -> "BenchmarkRecord | None":
        """The last recorded baseline for ``name``, or ``None``."""
        path = self.path_for(name)
        if not path.exists():
            return None
        return self._load_path(path)

    def load_all(self) -> dict[str, BenchmarkRecord]:
        """Every baseline in the directory, keyed by benchmark name."""
        records: dict[str, BenchmarkRecord] = {}
        if not self.directory.exists():
            return records
        for path in sorted(self.directory.glob(f"{self.PREFIX}*.json")):
            record = self._load_path(path)
            records[record.name] = record
        return records

    def compare(
        self,
        records: Iterable[BenchmarkRecord],
        tolerance: float = 0.30,
    ) -> tuple[list[Regression], list[str]]:
        """Compare fresh ``records`` against the stored baselines.

        Returns ``(regressions, missing)`` where ``missing`` lists benchmarks
        with no *comparable* baseline: never recorded, or recorded at a
        different workload size (``meta["smoke"]``) — even rate metrics shift
        a little with workload size, so smoke runs are only compared against
        smoke baselines and full runs against full ones.
        """
        regressions: list[Regression] = []
        missing: list[str] = []
        for record in records:
            baseline = self.load(record.name)
            if baseline is None or baseline.meta.get("smoke") != record.meta.get(
                "smoke"
            ):
                missing.append(record.name)
                continue
            regressions.extend(compare_records(baseline, record, tolerance))
        return regressions, missing
