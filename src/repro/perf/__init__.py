"""Performance measurement, baselines and regression detection (``repro.perf``).

The ROADMAP's north star is "as fast as the hardware allows"; this package is
how the repository *knows* whether it still is.  It provides

* :mod:`~repro.perf.baseline` — :class:`BenchmarkRecord` (one benchmark's
  machine-readable metrics), :class:`BaselineStore` (``BENCH_<name>.json``
  files on disk, whose one home is the repository root) and
  :func:`compare_records` (regression flagging against the last recorded
  baseline);
* :mod:`~repro.perf.suite` — the standard benchmark workloads shared by
  the ``repro-bench`` CLI (:mod:`~repro.perf.cli`) and the micro-benchmark
  tests: ISS instruction throughput (per-tick vs. block-stepped), DE-kernel
  event throughput, a firmware-bound platform run and the analog batch;
* timing helpers (:func:`best_of`) used by all of them.

Typical use::

    PYTHONPATH=src python -m repro.perf.cli --smoke            # record
    PYTHONPATH=src python -m repro.perf.cli --smoke --compare  # regressions?
"""

from __future__ import annotations

from .baseline import (
    BaselineStore,
    BenchmarkRecord,
    Regression,
    best_of,
    compare_records,
)

__all__ = [
    "BaselineStore",
    "BenchmarkRecord",
    "Regression",
    "best_of",
    "compare_records",
]
