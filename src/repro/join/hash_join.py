"""Hash equijoin substrate for the horizontal-partitioning algorithms.

SHCJ reduces a containment join to the equijoin
``A JOIN D ON A.code = F(D.code, h)`` (Algorithm 2); this module
provides the two standard evaluation strategies:

* :func:`in_memory_hash_join_codes` — build side fits in the buffer:
  build a hash table over it, stream the probe side
  (I/O ``||A|| + ||D||``), keys computed one page per kernel call;
* :class:`GracePartitioner` / :func:`grace_hash_join` — neither fits:
  hash-partition both inputs into ``k`` co-buckets (one page of output
  buffer per bucket), then join each bucket pair in memory with
  :func:`in_memory_hash_join` (I/O ``3(||A|| + ||D||)``, the figure the
  paper quotes).

Keys are computed on the fly from the stored records by caller-supplied
key functions, so the ``F`` conversion never touches disk — the paper's
central efficiency argument for PBiTree codes.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from ..storage.buffer import BufferManager
from ..storage.heapfile import HeapFile
from ..storage.record import RecordCodec

__all__ = [
    "in_memory_hash_join",
    "in_memory_hash_join_codes",
    "GracePartitioner",
    "grace_hash_join",
]

Record = tuple[int, ...]
KeyFunc = Callable[[Record], Optional[int]]
EmitFunc = Callable[[Record, Record], None]
#: bulk key function: one call per page of codes, one key per code,
#: ``0`` marking a filtered record (codes are >= 1, so 0 is in-band)
BulkKeyFunc = Callable[[Sequence[int]], Sequence[int]]


def in_memory_hash_join(
    build_pages: Iterable[Sequence[Record]],
    probe_pages: Iterable[Sequence[Record]],
    build_key: KeyFunc,
    probe_key: KeyFunc,
    emit: EmitFunc,
) -> None:
    """Classic build/probe hash join over page streams.

    Key functions may return ``None`` to drop a record (SHCJ uses this
    for descendants at or above the ancestor height, whose ``F`` value
    is meaningless).  ``emit(build_record, probe_record)`` is called for
    every key match.
    """
    table: dict[int, list[Record]] = {}
    for page in build_pages:
        for record in page:
            key = build_key(record)
            if key is None:
                continue
            bucket = table.get(key)
            if bucket is None:
                table[key] = [record]
            else:
                bucket.append(record)
    get = table.get
    for page in probe_pages:
        for record in page:
            key = probe_key(record)
            if key is None:
                continue
            bucket = get(key)
            if bucket is not None:
                for build_record in bucket:
                    emit(build_record, record)


def in_memory_hash_join_codes(
    build_pages: Iterable[Sequence[int]],
    probe_pages: Iterable[Sequence[int]],
    build_keys: BulkKeyFunc,
    probe_keys: BulkKeyFunc,
    emit: Callable[[int, int], None],
) -> None:
    """Batched build/probe hash join over pages of single-code records.

    Keys for a whole page are computed by one kernel call (see
    :mod:`repro.core.batch`) instead of one Python call per record.  A
    key of ``0`` marks a filtered record — PBiTree codes are >= 1, so
    ``0`` can never be a build key and filtered probe records miss the
    table without an explicit branch.  Buckets keep build-scan order,
    so pairs are emitted in probe order, then build order.
    """
    table: dict[int, list[int]] = {}
    for codes in build_pages:
        for key, code in zip(build_keys(codes), codes):
            if not key:
                continue
            bucket = table.get(key)
            if bucket is None:
                table[key] = [code]
            else:
                bucket.append(code)
    get = table.get
    for codes in probe_pages:
        for key, code in zip(probe_keys(codes), codes):
            bucket = get(key)
            if bucket is not None:
                for build_code in bucket:
                    emit(build_code, code)


class GracePartitioner:
    """Hash-partition a record stream into ``k`` heap files.

    Holds one output page per partition (so ``k`` must leave room in
    the buffer pool for at least one input page: ``k <= b - 1``).
    """

    def __init__(
        self,
        bufmgr: BufferManager,
        codec: RecordCodec,
        num_partitions: int,
        name: str = "grace",
    ) -> None:
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        if num_partitions > bufmgr.num_pages - 1:
            raise ValueError(
                f"{num_partitions} partitions need {num_partitions + 1} "
                f"buffer pages, pool has {bufmgr.num_pages}"
            )
        self.num_partitions = num_partitions
        self.files = [
            HeapFile(bufmgr, codec, name=f"{name}[{i}]")
            for i in range(num_partitions)
        ]

    def partition(
        self, pages: Iterable[Sequence[Record]], key: KeyFunc
    ) -> list[HeapFile]:
        """Distribute records by ``hash(key) % k``; drops ``None`` keys."""
        writers = [heap.open_writer() for heap in self.files]
        k = self.num_partitions
        try:
            for page in pages:
                for record in page:
                    value = key(record)
                    if value is None:
                        continue
                    # multiplicative hash decorrelates the low bits that
                    # the F() rollup makes constant within a height class
                    writers[(value * 0x9E3779B97F4A7C15 >> 32) % k].append(
                        record
                    )
        finally:
            # close even when the input scan faults: each writer holds a
            # pinned output page, and leaving it pinned would make the
            # caller's cleanup (heap.destroy) fail and mask the fault
            for writer in writers:
                writer.close()
        return self.files

    def destroy(self) -> None:
        for heap in self.files:
            heap.destroy()


def grace_hash_join(
    bufmgr: BufferManager,
    build_pages: Iterable[Sequence[Record]],
    probe_pages: Iterable[Sequence[Record]],
    build_codec: RecordCodec,
    probe_codec: RecordCodec,
    build_key: KeyFunc,
    probe_key: KeyFunc,
    emit: EmitFunc,
    num_partitions: Optional[int] = None,
    name: str = "grace",
    build_pages_hint: Optional[int] = None,
) -> int:
    """Full Grace hash join; returns the number of partitions used.

    ``build_pages_hint`` (the build side's page count) lets the join
    pick the smallest partition count whose buckets fit in memory.

    Both inputs are hash-partitioned on their join keys, then each
    bucket pair is joined with :func:`in_memory_hash_join`.  Records
    whose key function returns ``None`` never reach a partition, so the
    partitioning pass doubles as a filter.
    """
    if num_partitions is not None:
        k = num_partitions
    elif build_pages_hint is not None:
        # just enough partitions that each build bucket fits the pool
        # (with 25% slack for skew) — fewer buckets mean fewer partial
        # pages at large pools
        k = -(-build_pages_hint * 5 // (4 * max(1, bufmgr.num_pages - 2)))
        k = max(2, min(bufmgr.num_pages - 1, k))
    else:
        k = max(1, min(bufmgr.num_pages - 1, 64))
    build_part = GracePartitioner(bufmgr, build_codec, k, name=f"{name}.build")
    probe_part = GracePartitioner(bufmgr, probe_codec, k, name=f"{name}.probe")
    try:
        build_files = build_part.partition(build_pages, build_key)
        probe_files = probe_part.partition(probe_pages, probe_key)
        for build_file, probe_file in zip(build_files, probe_files):
            if not len(build_file) or not len(probe_file):
                continue
            in_memory_hash_join(
                build_file.scan_pages(),
                probe_file.scan_pages(),
                build_key,
                probe_key,
                emit,
            )
    finally:
        build_part.destroy()
        probe_part.destroy()
    return k
