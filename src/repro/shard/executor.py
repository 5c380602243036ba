"""Shard-parallel scatter-gather joins over a :class:`ShardedCorpus`.

The executor runs any named join algorithm of the line-up slot by
slot: each populated level-``l`` slot becomes one
:class:`~repro.parallel.tasks.SlotJoinTask` — a cold, worker-private
workbench built from that slot's ancestor input (owned + replicated
codes) and descendant input (owned codes) — fanned over the existing
:class:`~repro.parallel.pool.WorkerPool`.  The per-slot
:class:`~repro.join.base.JoinReport`s are merged field-wise in slot
order.

Accounting contract (the differential oracle):

* the *slot* is the unit of work.  Which slots exist, their inputs and
  their scan order are pure functions of ``(tree_height, level,
  data)`` — see :mod:`repro.shard.corpus` — so every summed report
  field is identical for ``shards=1`` and ``shards=N``, serial or
  parallel, exactly like ``workers=`` today.  Only ``wall_seconds``
  (real elapsed time) varies.
* per-slot chaos seeds derive from ``(base seed, dataset, algorithm,
  slot)`` via CRC-32, so a fault schedule is reproducible and
  grouping-invariant too.
* extracting slot inputs from the corpus heaps is charged to the
  per-shard engines' own ledgers, *not* to the merged report: its
  random/sequential split depends on how slot files interleave on a
  shard's disk, which is exactly the shard-grouping detail the merged
  accounting must not observe.  (The line-up harness likewise keeps
  set materialisation out of the reports.)

Because every slot runs on a fresh private bench, a sharded report is
*internally* consistent across shard counts but intentionally differs
from an unsharded run of the same algorithm (one bench, no
partitioning): compare sharded runs against sharded runs.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from ..join.base import JoinReport
from ..obs.tracer import Tracer
from ..parallel.pool import WorkerPool
from ..parallel.tasks import (
    SlotJoinTask,
    SlotTaskResult,
    fault_from_payload,
    run_slot_join_task,
)
from ..storage.faults import FaultConfig, FaultInjector, RetryPolicy
from ..storage.stats import IOSnapshot
from .corpus import ShardedCorpus

__all__ = ["ShardedJoinExecutor", "SlotInputs", "slot_fault_config"]


@dataclass(frozen=True)
class SlotInputs:
    """Pre-extracted per-slot input lists for one join side.

    The query service extracts slot inputs during its *prepare* phase
    (under the storage lock — the shard pools are shared state) and
    hands the executor this wrapper so the concurrent *execute* phase
    touches no shared pages at all.  ``slots`` must be in slot order
    and cover every slot of the corpus.
    """

    slots: tuple[tuple[int, ...], ...]


#: a join side: a tag registered on the corpus, raw codes to scatter
#: transiently in memory (query intermediates), or pre-extracted
#: per-slot inputs (the service's prepare phase)
SideInput = Union[str, "SlotInputs", Sequence[int]]


def slot_fault_config(
    base: Optional[FaultConfig], dataset: str, algorithm: str, slot: int
) -> Optional[FaultConfig]:
    """Derive one slot's deterministic chaos seed from the base config.

    CRC-32 over ``seed:dataset:algorithm:slot`` — stable across runs,
    independent of shard grouping and worker scheduling, and distinct
    per slot so concurrent slot benches don't replay one fault stream.
    """
    if base is None:
        return None
    token = f"{base.seed}:{dataset}:{algorithm}:slot{slot}"
    return replace(base, seed=zlib.crc32(token.encode("utf-8")))


def _sum_io(snapshots: Sequence[IOSnapshot]) -> IOSnapshot:
    return IOSnapshot(
        reads=sum(s.reads for s in snapshots),
        writes=sum(s.writes for s in snapshots),
        random_reads=sum(s.random_reads for s in snapshots),
        allocations=sum(s.allocations for s in snapshots),
        retries=sum(s.retries for s in snapshots),
        giveups=sum(s.giveups for s in snapshots),
    )


class ShardedJoinExecutor:
    """Scatter-gather any line-up join algorithm over corpus slots."""

    def __init__(
        self,
        corpus: ShardedCorpus,
        workers: Optional[int] = None,
        parallel_mode: Optional[str] = None,
    ) -> None:
        self.corpus = corpus
        self.workers = corpus.num_shards if workers is None else workers
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.parallel_mode = parallel_mode

    # ------------------------------------------------------------------
    def _side_inputs(self, side: SideInput, ancestor: bool) -> list[list[int]]:
        """Per-slot input lists for one join side, in slot order."""
        corpus = self.corpus
        if isinstance(side, SlotInputs):
            if len(side.slots) != corpus.num_slots:
                raise ValueError(
                    f"SlotInputs covers {len(side.slots)} slots, corpus "
                    f"has {corpus.num_slots}"
                )
            return [list(codes) for codes in side.slots]
        if isinstance(side, str):
            if ancestor:
                return [
                    corpus.slot_ancestor_codes(side, slot)
                    for slot in range(corpus.num_slots)
                ]
            return [
                corpus.slot_descendant_codes(side, slot)
                for slot in range(corpus.num_slots)
            ]
        # raw codes (query intermediates): scatter transiently in
        # memory — equivalent to materialised slot files because
        # extraction I/O is outside the merged accounting anyway
        owned, replica = corpus.map.scatter(side)
        if ancestor:
            return [
                owned[slot] + replica[slot]
                for slot in range(corpus.num_slots)
            ]
        return owned

    def run(
        self,
        algorithm: str,
        ancestors: SideInput,
        descendants: SideInput,
        dataset: str = "",
        buffer_pages: int = 50,
        page_size: int = 1024,
        collect: bool = False,
        faults: "FaultInjector | FaultConfig | None" = None,
        retry: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
        algorithm_workers: int = 1,
        flat_index: Optional[bool] = None,
        sanitize: Optional[bool] = None,
    ) -> tuple[JoinReport, Optional[list[tuple[int, int]]]]:
        """Run ``algorithm`` shard-parallel; returns (merged report, pairs).

        ``pairs`` is the gathered result set when ``collect`` is set
        (concatenated in slot order), else ``None``.  Every switch
        defaults to the parent's current module state, mirroring the
        line-up harness.
        """
        # imported lazily: the harness imports the join operators,
        # which import repro.parallel — same cycle as parallel.tasks
        from ..experiments.harness import make_algorithm
        from ..index import flat
        from ..storage import sanitize as sanitize_module

        if isinstance(faults, FaultInjector):
            raise ValueError(
                "a live FaultInjector cannot be shipped to slot workers; "
                "pass its FaultConfig instead (each slot bench seeds a "
                "fresh injector from a slot-derived seed)"
            )
        make_algorithm(algorithm)  # reject unknown names before spawning
        if flat_index is None:
            flat_index = flat.flat_enabled()
        if sanitize is None:
            sanitize = sanitize_module.sanitize_enabled()

        corpus = self.corpus
        a_slots = self._side_inputs(ancestors, ancestor=True)
        d_slots = self._side_inputs(descendants, ancestor=False)
        traced = tracer is not None and tracer.enabled
        started = time.perf_counter()
        tasks: list[SlotJoinTask] = []
        for slot in range(corpus.num_slots):
            if not a_slots[slot] or not d_slots[slot]:
                continue  # an empty side joins to nothing; purge (VPJ-style)
            tasks.append(
                SlotJoinTask(
                    label=f"{dataset}.slot{slot:03d}" if dataset
                    else f"slot{slot:03d}",
                    algorithm=algorithm,
                    a_codes=a_slots[slot],
                    d_codes=d_slots[slot],
                    tree_height=corpus.tree_height,
                    buffer_pages=buffer_pages,
                    page_size=page_size,
                    collect=collect,
                    faults=slot_fault_config(faults, dataset, algorithm, slot),
                    retry=retry,
                    traced=traced,
                    algorithm_workers=algorithm_workers,
                    flat_index=flat_index,
                    sanitize=sanitize,
                )
            )

        pool = WorkerPool(self.workers, mode=self.parallel_mode)
        try:
            futures = [
                (task, pool.submit(run_slot_join_task, task)) for task in tasks
            ]
            payloads = [
                pool.resolve(future, run_slot_join_task, task)
                for task, future in futures
            ]
        finally:
            pool.close()

        return self._merge(
            algorithm, tasks, payloads, collect, tracer, traced,
            time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    def _merge(
        self,
        algorithm: str,
        tasks: "list[SlotJoinTask]",
        payloads: "list[SlotTaskResult]",
        collect: bool,
        tracer: Optional[Tracer],
        traced: bool,
        elapsed: float,
    ) -> tuple[JoinReport, Optional[list[tuple[int, int]]]]:
        """Fold slot payloads deterministically, in slot order."""
        from ..obs.export import spans_from_jsonl

        reports: list[JoinReport] = []
        pairs: Optional[list[tuple[int, int]]] = [] if collect else None
        fan_span = None
        if traced and tracer is not None:
            fan_span = tracer.span(
                "shard.fanout",
                slots=len(tasks),
                total_slots=self.corpus.num_slots,
                level=self.corpus.map.level,
            )
            fan_span.__enter__()
        try:
            for _task, payload in zip(tasks, payloads):
                fault = payload["fault"]
                if fault is not None:
                    raise fault_from_payload(fault)
                report = payload["report"]
                assert isinstance(report, JoinReport)
                trace_lines = payload["trace"]
                if trace_lines and fan_span is not None:
                    fan_span.children.extend(spans_from_jsonl(trace_lines))
                reports.append(report)
                if pairs is not None:
                    task_pairs = payload["pairs"]
                    assert task_pairs is not None
                    pairs.extend(task_pairs)
        finally:
            if fan_span is not None:
                fan_span.__exit__(None, None, None)

        merged = JoinReport(
            algorithm=algorithm,
            result_count=sum(r.result_count for r in reports),
            prep_io=_sum_io([r.prep_io for r in reports]),
            join_io=_sum_io([r.join_io for r in reports]),
            false_hits=sum(r.false_hits for r in reports),
            wall_seconds=elapsed,
            partitions=sum(r.partitions for r in reports),
            notes=(
                f"shard scatter-gather: {len(tasks)} active of "
                f"{self.corpus.num_slots} level-{self.corpus.map.level} slots"
            ),
            buffer_hits=sum(r.buffer_hits for r in reports),
            buffer_misses=sum(r.buffer_misses for r in reports),
        )
        return merged, pairs
