"""The campaign executor shared by every batch engine.

A campaign is an ordered list of independent work items.  The signal-flow
sweep (:class:`~repro.sweep.runner.SweepRunner`), the platform sweep
(:class:`~repro.sweep.platform.PlatformSweepRunner`, which the fault
campaign rides on) and the ``repro-bench --store`` suite all run one through
:class:`Executor`, which owns everything that is not specific to the engine:

* content keys, the resume-load from the :class:`~repro.store.RunStore` and
  the atomic commit of every finished unit the moment it is produced —
  killing a campaign preserves all completed work, and ``interrupt_after``
  simulates exactly that kill;
* executed flags and the live progress line;
* the tracer bracket: enable, mark, collect and (always) restore the
  process-wide switch, then one merged
  :class:`~repro.obs.telemetry.TelemetryReport`;
* fan-out: one contiguous chunk per worker process, with a serial fallback
  when the pool cannot be built or the payload cannot be pickled, and
  reassembly of the results in item order.

The engine supplies a :class:`CampaignTask`: the picklable recipe shipped to
every worker, with the store-key inputs of an item, a record codec and an
``execute`` generator.  Serial and multiprocess runs, and resumed and fresh
ones, produce identical results by construction.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from ..errors import CampaignInterrupted, ReproError, StoreError
from ..obs.progress import ProgressReporter
from ..obs.telemetry import TelemetryReport
from ..obs.tracer import TRACER, disable_tracing, enable_tracing, tracing_enabled
from ..store import RunStore, as_run_store


class SweepError(ReproError):
    """Raised when a sweep cannot be expanded or executed."""


class CampaignTask:
    """The engine-specific half of a campaign.

    Subclasses are picklable recipes (module-level dataclasses) and set the
    three class attributes below.
    """

    #: Engine name of the merged telemetry report.
    engine = "campaign"
    #: What the progress line counts.
    unit = "items"
    #: Tracer counters of executed and of loaded items.
    counters = ("campaign.runs", "campaign.loaded")

    def store_inputs(self, item) -> dict:
        """The full-input payload whose digest addresses ``item``'s record."""
        raise NotImplementedError

    def encode(self, result) -> dict:
        """The store record of a freshly executed result."""
        raise NotImplementedError

    def decode(self, record: dict):
        """The result held by a stored record, or ``None`` to re-execute."""
        raise NotImplementedError

    def execute(self, items: Sequence, pending: list[int]) -> Iterator[tuple[int, object]]:
        """Run the items at ``pending``, yielding ``(position, result)`` as each
        unit finishes (in any order).

        The generator may return a dict of additive phase timings (seconds),
        which the executor sums across chunks.
        """
        raise NotImplementedError

    def latency(self, result) -> "float | None":
        """Wall seconds of one executed result; ``None`` when not measured."""
        return None


@dataclass
class CampaignOutcome:
    """The reassembled results of one :meth:`Executor.run`, in item order."""

    results: list
    #: ``True`` for items executed by this run, ``False`` for loaded ones.
    executed: np.ndarray
    workers: int
    wall: float
    timings: dict[str, float]
    #: Merged worker telemetry when the run was traced; ``None`` otherwise.
    telemetry: "TelemetryReport | None"


@dataclass
class Executor:
    """How a campaign executes: fan-out, durability and observation.

    Parameters
    ----------
    workers:
        ``multiprocessing`` workers, one contiguous chunk each; ``1`` runs
        serially.  When a pool cannot be used (unpicklable payload, missing
        ``fork``) the run falls back to the serial path with a warning.
    store:
        A campaign directory (or :class:`~repro.store.RunStore`) into which
        every finished unit is committed atomically as it is produced.
    resume:
        Load units already committed to ``store`` instead of re-executing
        them (requires ``store``).
    interrupt_after:
        Crash simulation for resume testing: each worker raises
        :class:`~repro.errors.CampaignInterrupted` after *executing* (not
        loading) this many units, leaving the store with exactly the
        committed prefix (requires ``store``).
    trace:
        Collect per-worker telemetry into a merged report.  ``None`` follows
        the process-wide tracing switch (:func:`repro.obs.enable_tracing`).
    progress:
        Render a live throttled progress line on stderr.  ``None`` shows it
        only when stderr is a terminal.
    """

    workers: int = 1
    store: "RunStore | str | None" = None
    resume: bool = False
    interrupt_after: "int | None" = None
    trace: "bool | None" = None
    progress: "bool | None" = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.interrupt_after is not None and self.interrupt_after < 0:
            raise ValueError("interrupt_after must be non-negative")
        self.store = as_run_store(self.store)
        if self.resume and self.store is None:
            raise SweepError("resume=True needs a store to resume from")
        if self.interrupt_after is not None and self.store is None:
            raise SweepError("interrupt_after without a store would lose all work")

    def run(self, task: CampaignTask, items: Sequence) -> CampaignOutcome:
        """Execute (or load) every item and reassemble the results in order."""
        settings = replace(
            self, trace=tracing_enabled() if self.trace is None else bool(self.trace)
        )
        reporter = ProgressReporter(len(items), task.unit, enabled=self.progress)
        advance = reporter.advance if reporter.active else None
        start = _time.perf_counter()
        chunks = None
        try:
            if self.workers > 1 and len(items) > 1:
                chunks = _map_chunks(settings, task, items, self.workers, advance)
            if chunks is None:
                chunks = [_execute_chunk((settings, task, items), advance)]
        finally:
            reporter.finish()
        wall = _time.perf_counter() - start

        results = [result for chunk in chunks for result in chunk["results"]]
        executed = np.array(
            [flag for chunk in chunks for flag in chunk["executed"]], dtype=bool
        )
        timings: dict[str, float] = {}
        for chunk in chunks:
            for phase, seconds in chunk["timings"].items():
                timings[phase] = timings.get(phase, 0.0) + seconds
        telemetry = None
        if settings.trace:
            latencies = [
                task.latency(result)
                for result, ran in zip(results, executed)
                if ran
            ]
            telemetry = TelemetryReport.merge(
                task.engine,
                [chunk["telemetry"] for chunk in chunks],
                scenarios=len(items),
                executed=int(np.count_nonzero(executed)),
                wall=wall,
                workers=len(chunks),
                latencies=None if None in latencies else latencies,
            )
        return CampaignOutcome(
            results=results,
            executed=executed,
            workers=len(chunks),
            wall=wall,
            timings=timings,
            telemetry=telemetry,
        )

    def _run_units(
        self,
        task: CampaignTask,
        items: Sequence,
        progress: "Callable[[int], None] | None",
    ) -> dict:
        """Load what the store holds, execute the rest, commit as it lands."""
        store = self.store
        results: list = [None] * len(items)
        executed = [False] * len(items)
        keys: dict[int, str] = {}
        inputs: dict[int, dict] = {}
        pending: list[int] = []
        for position, item in enumerate(items):
            if store is not None:
                inputs[position] = task.store_inputs(item)
                keys[position] = store.key(inputs[position])
                if self.resume:
                    record = store.load(keys[position])
                    if record is not None:
                        try:
                            results[position] = task.decode(record)
                        except StoreError as error:
                            raise StoreError(
                                f"store record {store.path_for(keys[position])}: "
                                f"{error}"
                            ) from error
                        if results[position] is not None:
                            continue
            pending.append(position)
        executed_counter, loaded_counter = task.counters
        loaded = len(items) - len(pending)
        TRACER.add(loaded_counter, float(loaded))
        if progress is not None and loaded:
            progress(loaded)

        done = 0
        units = task.execute(items, pending)
        while True:
            self._check_budget(done, len(pending))
            try:
                position, result = next(units)
            except StopIteration as finished:
                timings = finished.value or {}
                break
            if store is not None:
                store.commit(keys[position], task.encode(result), inputs=inputs[position])
            results[position] = result
            executed[position] = True
            done += 1
            TRACER.add(executed_counter)
            if progress is not None:
                progress(1)
        return {"results": results, "executed": executed, "timings": timings}

    def _check_budget(self, done: int, pending: int) -> None:
        """Raise the simulated crash once ``interrupt_after`` units have run."""
        if self.interrupt_after is not None and self.interrupt_after <= done < pending:
            raise CampaignInterrupted(
                f"worker interrupted after executing {done} scenario(s); "
                f"{len(self.store)} record(s) committed"
            )


def _execute_chunk(
    payload: "tuple[Executor, CampaignTask, Sequence]",
    progress: "Callable[[int], None] | None" = None,
) -> dict:
    """Run one contiguous chunk of items (the worker entry point).

    Module-level so that :mod:`multiprocessing` can import it in workers.
    Only the serial path passes ``progress``; pool submissions keep the
    payload a plain picklable tuple.  With tracing on, the chunk enables the
    process-local tracer and returns the telemetry recorded since its mark;
    the switch is restored even when a unit raises.
    """
    executor, task, items = payload
    enabled_here = executor.trace and not TRACER.enabled
    if enabled_here:
        enable_tracing()
    mark = TRACER.mark() if executor.trace else None
    try:
        chunk = executor._run_units(task, items, progress)
        chunk["telemetry"] = TRACER.collect(mark) if mark is not None else None
    finally:
        if enabled_here:
            disable_tracing()
    return chunk


class _NullSink:
    """Discards pickle output: the probe needs the errors, not the bytes."""

    @staticmethod
    def write(data: bytes) -> int:
        return len(data)


def _map_chunks(
    executor: Executor,
    task: CampaignTask,
    items: Sequence,
    workers: int,
    progress: "Callable[[int], None] | None",
) -> "list[dict] | None":
    """Run contiguous chunks in a process pool; ``None`` means run serially.

    Payload picklability is probed *before* submission (a pickling pass over
    the exact task list), so an unpicklable recipe is a clean serial
    fallback while any exception raised by the pool itself is a genuine
    worker error (bad factory arguments, abstraction failures, a simulated
    campaign interruption...) and propagates unchanged — a worker error
    that merely *mentions* pickling in its message must not be misrouted
    into a silent serial retry.
    """
    import multiprocessing
    import pickle
    import warnings

    workers = min(workers, len(items))
    bounds = np.linspace(0, len(items), workers + 1).astype(int)
    chunks = [
        items[start:stop] for start, stop in zip(bounds[:-1], bounds[1:]) if stop > start
    ]
    payloads = [(executor, task, chunk) for chunk in chunks]
    try:
        # Unpicklable objects raise PicklingError (lambdas), AttributeError
        # (local functions) or TypeError (unpicklable C objects).
        pickle.Pickler(_NullSink()).dump(payloads)
    except (pickle.PicklingError, AttributeError, TypeError) as error:
        warnings.warn(
            f"sweep payload is not picklable, running serially ({error})",
            RuntimeWarning,
            stacklevel=4,
        )
        return None
    try:
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else None)
        pool = context.Pool(processes=len(chunks))
    except (OSError, ValueError, AttributeError, ImportError) as error:
        # The *pool* could not be built (no fork, fd limits...): fall back.
        warnings.warn(
            f"sweep falling back to serial execution ({error})",
            RuntimeWarning,
            stacklevel=4,
        )
        return None
    with pool:
        if progress is None:
            return pool.map(_execute_chunk, payloads)
        results = []
        # imap preserves submission order while letting the parent observe
        # each chunk as it lands — exactly what the progress line needs.
        for chunk, result in zip(chunks, pool.imap(_execute_chunk, payloads)):
            results.append(result)
            progress(len(chunk))
        return results
