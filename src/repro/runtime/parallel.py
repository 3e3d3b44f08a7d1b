"""Process-pool execution of independent simulation tasks.

The experiment layer is embarrassingly parallel — a sweep is a grid of
independent ``(instance, scheme)`` cells, an adversary search is a set of
independent restarts — but the seed ran every cell serially.
:class:`ParallelRunner` dispatches such task lists over a
``concurrent.futures.ProcessPoolExecutor`` with three properties the
callers rely on:

* **Determinism.**  Results are returned in task order, tasks never share
  random state (see :mod:`repro.runtime.seeding`), and the task functions
  are required to be pure, so parallel output is identical to a serial
  run of the same list.
* **Chunked dispatch.**  Tasks are submitted in contiguous chunks to
  amortize pickling/IPC overhead over many small cells (one future per
  cell would drown a 5 ms simulation in transport costs).
* **Serial fallback.**  On a single-core box, for tiny task lists, under
  ``force_serial``, or when the platform refuses to spawn processes
  (sandboxes, daemonic workers), the runner degrades to an in-process
  loop — same results, no hard dependency on multiprocessing working.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Below this many tasks the pool startup cost dominates; run serially.
_MIN_TASKS_FOR_POOL = 2


def _run_chunk(fn: Callable[[Any], Any], chunk: list[Any]) -> list[Any]:
    """Worker-side loop: apply ``fn`` to one contiguous chunk of tasks."""
    return [fn(task) for task in chunk]


@dataclass(frozen=True)
class ParallelRunner:
    """Deterministic map over independent tasks, process-parallel when it helps.

    Parameters
    ----------
    max_workers:
        Worker process count, at least 1; ``None`` uses
        ``os.cpu_count()``.  A value of 1 (or a 1-core machine with
        ``max_workers=None``) short-circuits to the serial path.
    chunk_size:
        Tasks per submitted future (at least 1); ``None`` picks about four
        chunks per worker so stragglers rebalance without per-task IPC.
    force_serial:
        Run everything in-process.  Useful for debugging and as the
        configuration-level kill switch (``REPRO_PARALLEL=0``).

    ``fn`` and the tasks must be picklable (module-level functions, plain
    data) and ``fn`` must be pure: the runner re-executes tasks serially
    if the pool dies, and results must not depend on worker identity.
    """

    max_workers: int | None = None
    chunk_size: int | None = None
    force_serial: bool = False

    def __post_init__(self) -> None:
        for name in ("max_workers", "chunk_size"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")

    @classmethod
    def from_env(cls, default_workers: int | None = None) -> "ParallelRunner":
        """Build a runner honoring the ``REPRO_PARALLEL`` environment knob.

        ``REPRO_PARALLEL=0`` forces serial; a positive integer sets the
        worker count; unset falls back to ``default_workers``.  Anything
        else raises ``ValueError``.
        """
        raw = os.environ.get("REPRO_PARALLEL", "").strip()
        if not raw:
            return cls(max_workers=default_workers)
        try:
            workers = int(raw)
            if workers < 0:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"REPRO_PARALLEL must be 0 (serial) or a positive worker "
                f"count, got {raw!r}"
            ) from None
        if workers == 0:
            return cls(force_serial=True)
        return cls(max_workers=workers)

    def resolved_workers(self) -> int:
        """Worker count after applying defaults and the serial switches."""
        if self.force_serial:
            return 1
        if self.max_workers is not None:
            return self.max_workers
        return max(1, os.cpu_count() or 1)

    def _chunked(self, tasks: list[Any], workers: int) -> list[list[Any]]:
        if self.chunk_size is not None:
            size = self.chunk_size
        else:
            size = max(1, len(tasks) // (workers * 4) or 1)
        return [tasks[i : i + size] for i in range(0, len(tasks), size)]

    def map(
        self,
        fn: Callable[[T], R],
        tasks: Sequence[T],
        *,
        progress: Callable[[Sequence[R]], None] | None = None,
    ) -> list[R]:
        """Apply ``fn`` to every task, returning results in task order.

        ``progress``, when given, is called in the parent process with
        each chunk's result list as that chunk *completes* (completion
        order, not task order) — the hook live telemetry consumers
        (``run_matrix``'s ``publish=``) use to surface partial results
        while the grid is still running.  Every result is reported to
        ``progress`` exactly once, including across the serial fallback.
        """
        task_list = list(tasks)
        workers = min(self.resolved_workers(), len(task_list))
        if workers <= 1 or len(task_list) < _MIN_TASKS_FOR_POOL:
            results: list[R] = []
            for task in task_list:
                result = fn(task)
                if progress is not None:
                    progress([result])
                results.append(result)
            return results
        chunks = self._chunked(task_list, workers)
        reported: set[int] = set()
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_run_chunk, fn, chunk) for chunk in chunks]
                if progress is not None:
                    for future in as_completed(futures):
                        index = futures.index(future)
                        outputs = future.result()
                        # Mark before invoking: if ``progress`` itself
                        # raises (e.g. OSError from a telemetry socket)
                        # the fallback must not hand it the chunk again.
                        reported.add(index)
                        progress(outputs)
                results = []
                for future in futures:
                    results.extend(future.result())
                return results
        except (
            BrokenProcessPool,
            pickle.PicklingError,
            # Local functions fail pickling with AttributeError/TypeError
            # rather than PicklingError.
            AttributeError,
            TypeError,
            PermissionError,
            OSError,
        ):
            # Sandboxed/daemonic environments cannot always fork; tasks
            # are pure, so a full serial re-run is safe and identical (a
            # genuine task failure re-raises the same error serially).
            # Chunks whose completion already reached ``progress`` are
            # not re-reported — merge-style consumers must see each
            # result once.
            results = []
            for index, chunk in enumerate(chunks):
                outputs = [fn(task) for task in chunk]
                if progress is not None and index not in reported:
                    progress(outputs)
                results.extend(outputs)
            return results

    def map_traced(
        self,
        fn: Callable[[T], tuple[R, Sequence[Any]]],
        tasks: Sequence[T],
        *,
        tracer: Any = None,
        tags: Sequence[str] | None = None,
    ) -> list[R]:
        """:meth:`map` for task functions that also return trace records.

        ``fn`` must return ``(result, records)`` where ``records`` is a
        list of :class:`repro.obs.tracing.TraceRecord` collected in the
        worker (e.g. via a local ``MemorySink``).  Records are replayed
        into ``tracer`` in task order — so parallel and serial runs
        produce the same trace — tagged with ``tags[i]`` (default
        ``"task-{i}"``) identifying the worker task (seed/restart id)
        that produced them.  With ``tracer=None`` (or a disabled tracer)
        the records are discarded and only the results are returned.
        """
        outputs = self.map(fn, tasks)
        active = (
            tracer
            if tracer is not None and getattr(tracer, "enabled", True)
            else None
        )
        results: list[R] = []
        for index, (result, records) in enumerate(outputs):
            if active is not None and records:
                tag = tags[index] if tags is not None else f"task-{index}"
                active.replay(records, worker=tag)
            results.append(result)
        return results
