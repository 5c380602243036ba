"""Picklable partition tasks and their pure-CPU worker kernels.

The accounting contract of the parallel subsystem (docs/parallel.md)
is that a parallel run's merged page-I/O equals the serial run's
*exactly*.  The design that makes this trivial rather than heroic: the
parent replays the exact serial page-access order while extracting
each partition's code arrays, and ships only those arrays.  Workers
never open a :class:`~repro.storage.disk.DiskManager` for partition
work — their kernels are pure CPU over the shipped lists — so all
storage I/O, buffer hits/misses, retries and injected faults happen in
the parent, in serial order.

Line-up tasks (:class:`LineupTask`) are the one exception: each worker
builds its *own complete workbench* (disk + buffer pool) from the
shipped codes, because a line-up run is defined as "this algorithm,
cold, on a fresh bench".  The worker sends the finished
:class:`~repro.join.base.JoinReport` back (trace detached and shipped
as JSON lines, which survive pickling losslessly), plus structured
fault payloads — :class:`~repro.storage.faults.StorageFault` instances
themselves use keyword-only constructors and do not round-trip through
pickle.

Every task dataclass here is frozen and built from ints, strings and
lists of ints — safe for both ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, TypedDict

from ..core import batch
from ..index import flat
from ..obs.export import trace_to_jsonl
from ..storage import sanitize as sanitize_module
from ..obs.tracer import Tracer
from ..storage.faults import (
    FaultConfig,
    PermanentIOError,
    RetryPolicy,
    StorageFault,
    TransientIOError,
)

__all__ = [
    "TaskResult",
    "LineupTaskResult",
    "SlotTaskResult",
    "MemJoinTask",
    "HeightProbeTask",
    "LineupTask",
    "SlotJoinTask",
    "run_memjoin_task",
    "run_height_probe_task",
    "run_lineup_task",
    "run_slot_join_task",
    "fault_to_payload",
    "fault_from_payload",
]


class TaskResult(TypedDict):
    """What every partition-task worker sends back to the parent."""

    #: pairs emitted by this task's kernel
    count: int
    #: candidates that failed Lemma-1 verification (MHCJ rollup path)
    false_hits: int
    #: the emitted pairs, or ``None`` when the parent sink only counts
    pairs: Optional[list[tuple[int, int]]]
    #: worker-side span tree as JSON lines, or ``None`` when untraced
    trace: Optional[str]


class LineupTaskResult(TypedDict):
    """One algorithm's cold run on a worker-private workbench."""

    #: finished report (``trace`` detached), or ``None`` when faulted
    report: Optional[Any]
    #: structured :func:`fault_to_payload` payload, or ``None``
    fault: Optional[dict[str, Any]]
    #: worker tracer output as JSON lines, or ``None`` when untraced
    trace: Optional[str]
    #: final buffer-pool gauges of the worker's bench
    buffer: dict[str, float]
    #: injected-fault tallies of the worker's bench, or ``None``
    fault_stats: Optional[dict[str, int]]


class SlotTaskResult(TypedDict):
    """One level-``l`` slot's cold run inside a sharded join.

    Identical to :class:`LineupTaskResult` plus the emitted pairs —
    the gather half of scatter-gather ships results back when the
    parent collects (the line-up path never does; the sharded query
    path in :mod:`repro.db` and the service tier do).
    """

    #: finished report (``trace`` detached), or ``None`` when faulted
    report: Optional[Any]
    #: emitted pairs, or ``None`` when the parent only counts
    pairs: Optional[list[tuple[int, int]]]
    #: structured :func:`fault_to_payload` payload, or ``None``
    fault: Optional[dict[str, Any]]
    #: worker tracer output as JSON lines, or ``None`` when untraced
    trace: Optional[str]
    #: final buffer-pool gauges of the worker's bench
    buffer: dict[str, float]
    #: injected-fault tallies of the worker's bench, or ``None``
    fault_stats: Optional[dict[str, int]]


# ---------------------------------------------------------------------------
# VPJ: memory containment join over one co-partition
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MemJoinTask:
    """Algorithm 6 kernel over extracted code arrays.

    ``d_fits`` selects the branch the parent chose from *page* counts
    (the serial criterion — record counts could disagree with it):
    True sorts the descendant codes and binary-searches each ancestor's
    region; False builds per-height ancestor hash sets and probes each
    descendant with ``F``.  ``dedup_above_height`` carries VPJ's
    replicated-ancestor de-duplication; the parent only chunks the
    ancestor stream when it is ``None`` (the dedup set must see the
    whole stream).
    """

    label: str
    a_codes: list[int]
    d_codes: list[int]
    d_fits: bool
    dedup_above_height: Optional[int]
    collect: bool
    traced: bool


def _memjoin_kernel(task: MemJoinTask, emit: Callable[[int, int], None]) -> None:
    if task.d_fits:
        batch.region_probe(
            task.a_codes,
            sorted(task.d_codes),
            emit,
            task.dedup_above_height,
            set(),
        )
    else:
        tables: dict[int, set[int]] = {}
        batch.build_height_tables(task.a_codes, tables)
        batch.height_probe(
            tables, sorted(tables, reverse=True), task.d_codes, emit
        )


def run_memjoin_task(task: MemJoinTask) -> TaskResult:
    """Execute one VPJ memory-join kernel; pure CPU, no storage."""
    pairs: Optional[list[tuple[int, int]]] = [] if task.collect else None
    count = 0

    def emit(a_code: int, d_code: int) -> None:
        nonlocal count
        count += 1
        if pairs is not None:
            pairs.append((a_code, d_code))

    trace: Optional[str] = None
    if task.traced:
        tracer = Tracer()
        with tracer.span(
            task.label,
            a_records=len(task.a_codes),
            d_records=len(task.d_codes),
        ):
            _memjoin_kernel(task, emit)
        trace = trace_to_jsonl(tracer)
    else:
        _memjoin_kernel(task, emit)
    return TaskResult(count=count, false_hits=0, pairs=pairs, trace=trace)


# ---------------------------------------------------------------------------
# MHCJ: one height class's hash probe
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class HeightProbeTask:
    """One (chunk of one) height class of MHCJ / MHCJ+Rollup.

    ``a_pairs`` are ``(effective, original)`` records — ``effective``
    is the (possibly rolled) code at ``height``.  Matches through
    rolled records are verified with Lemma 1 against the original code;
    failures count as false hits, exactly as the serial
    ``_join_height_class``.  Either side may be the chunked one; the
    kernel's output is identical regardless of which side streams.
    """

    label: str
    height: int
    a_pairs: list[tuple[int, int]]
    d_codes: list[int]
    collect: bool
    traced: bool


def _height_probe_kernel(
    task: HeightProbeTask, emit: Callable[[int, int], None]
) -> int:
    table: dict[int, list[int]] = {}
    for effective, original in task.a_pairs:
        bucket = table.get(effective)
        if bucket is None:
            table[effective] = [original]
        else:
            bucket.append(original)
    return batch.height_class_probe(table, task.height, task.d_codes, emit)


def run_height_probe_task(task: HeightProbeTask) -> TaskResult:
    """Execute one MHCJ height-class probe; pure CPU, no storage."""
    pairs: Optional[list[tuple[int, int]]] = [] if task.collect else None
    count = 0

    def emit(a_code: int, d_code: int) -> None:
        nonlocal count
        count += 1
        if pairs is not None:
            pairs.append((a_code, d_code))

    trace: Optional[str] = None
    if task.traced:
        tracer = Tracer()
        with tracer.span(
            task.label,
            height=task.height,
            a_records=len(task.a_pairs),
            d_records=len(task.d_codes),
        ):
            false_hits = _height_probe_kernel(task, emit)
        trace = trace_to_jsonl(tracer)
    else:
        false_hits = _height_probe_kernel(task, emit)
    return TaskResult(count=count, false_hits=false_hits, pairs=pairs, trace=trace)


# ---------------------------------------------------------------------------
# harness: one algorithm's cold line-up run
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LineupTask:
    """One algorithm of a line-up, run cold on a worker-private bench.

    ``faults`` must be a (picklable, frozen) :class:`FaultConfig`, not
    a live injector: the worker builds a fresh seeded injector from it,
    so a parallel line-up's fault schedule per algorithm equals a
    serial run of that algorithm on a fresh bench with the same config.
    """

    dataset: str
    algorithm: str
    a_codes: list[int]
    d_codes: list[int]
    tree_height: int
    buffer_pages: int
    page_size: int
    collect: bool
    faults: Optional[FaultConfig]
    retry: Optional[RetryPolicy]
    traced: bool
    algorithm_workers: int = 1
    #: the parent's flat-index switch, shipped explicitly (``spawn``
    #: workers do not inherit module state): on-the-fly index builds in
    #: the worker must match the parent's serial run
    flat_index: bool = False
    #: the parent's view-lifetime sanitizer bit, shipped the same way —
    #: a sanitized parallel run must sanitize every worker bench too
    sanitize: bool = False


def fault_to_payload(fault: StorageFault) -> dict[str, Any]:
    """Flatten a fault for the trip back to the parent process.

    ``StorageFault`` constructors take keyword-only arguments, which
    default pickling of exceptions does not reproduce — a raised fault
    crossing a process boundary would turn into a ``TypeError``.
    """
    return {
        "type": type(fault).__name__,
        "message": fault.args[0] if fault.args else "storage fault",
        "page_id": fault.page_id,
        "operation": fault.operation,
        "transient": fault.transient,
        "context": list(fault.context),
        "algorithm": fault.algorithm,
    }


def fault_from_payload(payload: dict[str, Any]) -> StorageFault:
    """Rebuild a typed fault from :func:`fault_to_payload` output."""
    kinds: dict[str, type[StorageFault]] = {
        "TransientIOError": TransientIOError,
        "PermanentIOError": PermanentIOError,
    }
    kind = kinds.get(str(payload["type"]))
    fault: StorageFault
    if kind is not None and payload["page_id"] is not None:
        fault = kind(
            str(payload["message"]),
            page_id=int(payload["page_id"]),
            operation=str(payload["operation"]),
        )
    else:
        fault = StorageFault(
            str(payload["message"]),
            page_id=payload["page_id"],
            operation=payload["operation"],
            transient=bool(payload["transient"]),
        )
    fault.context = list(payload["context"])
    fault.algorithm = payload["algorithm"]
    return fault


def _run_cold(
    task: "LineupTask | SlotJoinTask", label: str
) -> tuple[LineupTaskResult, Sequence[tuple[int, int]]]:
    """Build a fresh workbench from the task's codes and run it cold.

    Returns the run's result payload plus the sink's pairs (empty
    unless the task collects).

    Worker processes start with the module defaults, and an inline
    worker shares the parent's, so the task's flat-index and sanitizer
    bits are pinned with context-local scopes for this run only — never
    written into the process-wide defaults.
    """
    # imported lazily: the harness imports the join operators, which
    # import this package — a module-level import would be circular
    from ..experiments.harness import (
        Workbench,
        make_algorithm,
        materialize,
        run_algorithm,
    )
    from ..join.base import JoinSink

    with flat.flat_scope(task.flat_index), sanitize_module.sanitize_scope(
        task.sanitize
    ):
        bench = Workbench.create(
            task.buffer_pages, task.page_size,
            faults=task.faults, retry=task.retry,
        )
        ancestors = materialize(
            bench.bufmgr, task.a_codes, task.tree_height, f"{label}.A"
        )
        descendants = materialize(
            bench.bufmgr, task.d_codes, task.tree_height, f"{label}.D"
        )
        algorithm = make_algorithm(
            task.algorithm, workers=task.algorithm_workers
        )
        sink = JoinSink("collect" if task.collect else "count")
        tracer = Tracer() if task.traced else None
        report: Optional[Any] = None
        fault: Optional[dict[str, Any]] = None
        try:
            report = run_algorithm(
                algorithm, ancestors, descendants, sink, tracer=tracer
            )
        except StorageFault as exc:
            fault = fault_to_payload(exc)
        else:
            # the trace is shipped as JSON lines (span objects hold a
            # tracer reference, which drags the whole workbench into
            # the pickle)
            report.trace = None

    injector = bench.disk.faults
    stats = injector.stats if injector is not None else None
    return LineupTaskResult(
        report=report,
        fault=fault,
        trace=trace_to_jsonl(tracer) if tracer is not None else None,
        buffer={
            "hits": float(bench.bufmgr.hits),
            "misses": float(bench.bufmgr.misses),
            "resident": float(bench.bufmgr.num_resident),
            "pinned": float(bench.bufmgr.num_pinned),
        },
        fault_stats=None if stats is None else {
            "read_errors": stats.read_errors,
            "write_errors": stats.write_errors,
            "torn_reads": stats.torn_reads,
            "latency_events": stats.latency_events,
            "scheduled_fired": stats.scheduled_fired,
        },
    ), sink.pairs


def run_lineup_task(task: LineupTask) -> LineupTaskResult:
    """Run one algorithm cold on a fresh workbench (worker side)."""
    return _run_cold(task, task.dataset)[0]


# ---------------------------------------------------------------------------
# sharded joins: one level-l slot, cold, on a worker-private bench
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SlotJoinTask:
    """One level-``l`` slot of a sharded scatter-gather join.

    Same contract as :class:`LineupTask` — the worker builds its own
    complete workbench from the shipped slot codes, mirrors the
    parent's flat/sanitize switches, and sends structured fault
    payloads — plus the emitted pairs travel back when ``collect`` is
    set.  ``label`` feeds heap names and the trace span; it must be
    derived from the *slot* alone (never the shard or worker), so the
    slot's report is identical however slots are grouped or scheduled.
    """

    label: str
    algorithm: str
    a_codes: list[int]
    d_codes: list[int]
    tree_height: int
    buffer_pages: int
    page_size: int
    collect: bool
    faults: Optional[FaultConfig]
    retry: Optional[RetryPolicy]
    traced: bool
    algorithm_workers: int = 1
    flat_index: bool = False
    sanitize: bool = False


def run_slot_join_task(task: SlotJoinTask) -> SlotTaskResult:
    """Run one slot's join cold on a fresh workbench (worker side)."""
    run, sink_pairs = _run_cold(task, task.label)
    pairs: Optional[list[tuple[int, int]]] = None
    if task.collect and run["report"] is not None:
        pairs = [(int(a_code), int(d_code)) for a_code, d_code in sink_pairs]
    return SlotTaskResult(
        report=run["report"],
        pairs=pairs,
        fault=run["fault"],
        trace=run["trace"],
        buffer=run["buffer"],
        fault_stats=run["fault_stats"],
    )
