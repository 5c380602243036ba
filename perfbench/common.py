"""Shared pieces of the benchmark: results, statistics, spans, stamps.

Nothing here imports :mod:`repro`; the workload modules do.  Every
per-layer number the benchmark reports is read from outside the
program — from timings taken around public calls and from objects the
program already returns (``JoinReport``, span trees, counters).
"""

from __future__ import annotations

import bisect
import os
import platform
import random
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, TypeVar

ROOT = Path(__file__).resolve().parent.parent

#: algorithm names as the program spells them -> metric-safe names
ALGORITHMS = {
    "INLJN": "INLJN",
    "STACKTREE": "STACKTREE",
    "ADB+": "ADB",
    "MHCJ+Rollup": "MHCJ-Rollup",
    "VPJ": "VPJ",
}

#: every end-to-end metric, (unit) — emitted by every workload
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "pages_per_op": "pages",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "capacity_ops": "1/s",
}


def _per_layer() -> dict[str, str]:
    units = {
        "storage.pages_read": "pages",
        "storage.pages_written": "pages",
        "storage.random_reads": "pages",
        "storage.buffer_hit_ratio": "ratio",
        "storage.materialize_s": "s",
        "sort.self_s": "s",
        "sort.pages": "pages",
        "index.build_s": "s",
        "index.probe_s": "s",
        "index.pages": "pages",
    }
    for name in ALGORITHMS.values():
        units[f"join.{name}.wall_s"] = "s"
        units[f"join.{name}.cpu_s"] = "s"
        units[f"join.{name}.false_hits"] = "count"
        units[f"join.{name}.results"] = "count"
    units.update({
        "join.stacktree.merge_s": "s",
        "join.adb.merge_s": "s",
        "join.mhcj.rollup_s": "s",
        "join.vpj.partition_s": "s",
        "join.vpj.memjoin_s": "s",
        "join.false_hit_ratio": "ratio",
        "plan.self_ms": "ms",
        "plan.pages": "pages",
    })
    for name in ALGORITHMS.values():
        units[f"plan.steps.{name}"] = "ratio"
    units.update({
        "plan.cache_hit_ratio": "ratio",
        "service.wire_ms": "ms",
        "service.execute_ms": "ms",
        "service.prepare_ms": "ms",
        "service.self_ms": "ms",
        "service.rejected": "count",
        "gen.late_ms": "ms",
        "shard.execute_ms": "ms",
        "shard.prepare_after_write_ms": "ms",
        "shard.imbalance": "ratio",
        "shard.replicas": "count",
        "update.write_p50_ms": "ms",
        "update.write_p95_ms": "ms",
        "update.gate_wait_ms": "ms",
        "update.apply_ms": "ms",
        "update.pending": "count",
        "update.live_drift": "ratio",
        "obs.trace_overhead": "ratio",
    })
    return units


#: every per-layer metric, (unit) — emitted by every traced run; a
#: layer the workload bypasses reports 0
PER_LAYER = _per_layer()


@dataclass
class Outcome:
    """What one workload run produced: tallies, metrics, stamps."""

    attempted: int = 0
    errors: int = 0
    rejected: int = 0
    transport: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    stamps: dict[str, object] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.errors + self.rejected + self.transport + self.wrong

    @property
    def correct(self) -> bool:
        return self.wrong == 0

    def check(self, ok: bool, what: str) -> None:
        """Count one wrong answer (with a note) unless ``ok``."""
        if not ok:
            self.wrong += 1
            if len(self.notes) < 20:
                self.notes.append(what)

    def result_line(self, trace: bool) -> dict[str, object]:
        """The result object printed as the last line, with units."""
        units = PER_LAYER if trace else END_TO_END
        missing = sorted(set(units) - set(self.metrics))
        if missing:
            raise KeyError(f"metrics not measured: {missing}")
        return {
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {"value": float(self.metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def median(values: Iterable[float]) -> float:
    data = list(values)
    return statistics.median(data) if data else 0.0


def mean(values: Iterable[float]) -> float:
    data = list(values)
    return sum(data) / len(data) if data else 0.0


def percentile(values: Iterable[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    data = sorted(values)
    if not data:
        return 0.0
    position = fraction * (len(data) - 1)
    low = int(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_T = TypeVar("_T")
#: (start, end) on the perf_counter clock
Interval = tuple[float, float]


def timed_setup(build: Callable[[], _T], total: int,
                discard: Callable[[_T], None]) -> tuple[list[Interval], _T]:
    """The first half of a run's ``total`` set-ups; (intervals, last product).

    Earlier products are handed to ``discard`` so only one stays live.
    """
    intervals = []
    product: Optional[_T] = None
    for _ in range((total + 1) // 2):
        if product is not None:
            discard(product)
        started = time.perf_counter()
        product = build()
        intervals.append((started, time.perf_counter()))
    assert product is not None
    return intervals, product


def setup_median(intervals: list[Interval], build: Callable[[], _T],
                 total: int, discard: Callable[[_T], None],
                 probe: "SpeedProbe") -> float:
    """Time the rest of the ``total`` set-ups now; the median of all.

    A run times half its set-ups before the measured part and half
    after it, so they sample two phases of the host's speed, and
    reports each at reference speed (:class:`SpeedProbe`).
    """
    for _ in range(total - len(intervals)):
        started = time.perf_counter()
        product = build()
        intervals.append((started, time.perf_counter()))
        discard(product)
    return median(probe.seconds(*interval) for interval in intervals)


def poisson_schedule(rng: random.Random, rate: float, seconds: float) -> list[float]:
    """Due offsets (s) of Poisson arrivals over ``seconds``.

    The count is fixed at ``rate * seconds`` and the times are uniform
    order statistics — a Poisson process conditioned on its count — so
    every seed offers the same load and only the bursts differ.
    """
    count = round(rate * seconds)
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


def sleep_until(deadline: float) -> Optional[float]:
    """Sleep to ``deadline`` (perf_counter); lateness (s) if we slept."""
    wait = deadline - time.perf_counter()
    if wait <= 0:
        return None
    time.sleep(wait)
    return time.perf_counter() - deadline


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
def walk(roots):
    stack = list(roots)
    while stack:
        span = stack.pop()
        yield span
        stack.extend(span.children)


def self_seconds(span) -> float:
    """Span duration minus what its (sequential) children cover."""
    return span.wall_seconds - sum(child.wall_seconds for child in span.children)


def self_pages(span) -> int:
    return span.self_io.total


def span_totals(roots, names: Iterable[str]) -> tuple[float, int]:
    """(self seconds, self pages) summed over every span in ``names``."""
    wanted = set(names)
    seconds = 0.0
    pages = 0
    for span in walk(roots):
        if span.name in wanted:
            seconds += self_seconds(span)
            pages += self_pages(span)
    return seconds, pages


# ---------------------------------------------------------------------------
# stamps
# ---------------------------------------------------------------------------
#: one pass of the reference loop takes this long on the reference
#: host; every end-to-end time is reported at this speed
REFERENCE_PASS_S = 0.0005


def reference_pass() -> float:
    """Seconds taken by one pass of a fixed pure-Python loop."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(3_000):
        table[i % 100] = table.get(i % 100, 0) + i
    return time.perf_counter() - started


def pin_to_one_cpu() -> int:
    """Bind this thread (and threads it starts later) to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """Times :func:`reference_pass` every ``interval`` s beside the program.

    A shared host's CPU speed drifts by up to ~1.75x in phases of
    seconds to minutes (another tenant's load, not this process's),
    and thread time drifts with it.  The probe runs as a thread of the same
    process, pinned with it to one CPU, so each pass runs on the core
    the program runs on.  The mean pass time over an interval, divided
    by :data:`REFERENCE_PASS_S`, is the host's slowdown over it, and a
    duration divided by that slowdown is the duration at reference
    speed.  Over 30 line-up rounds the mean pass time within a round
    correlated 0.98 with the round's time.
    """

    def __init__(self, interval: float = 0.05, span: float = 1.0) -> None:
        self.interval = interval
        #: the shortest window a slowdown is averaged over, s
        self.span = span
        self.times: list[float] = []
        self.passes: list[float] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(self.interval):
            started = time.perf_counter()
            seconds = reference_pass()
            with self._lock:
                self.times.append(started)
                self.passes.append(seconds)

    def slowdown(self, start: float, end: float) -> float:
        """Mean pass time over [start, end] (widened to ``span``) ÷ reference.

        1.0 when no pass fell in the window (a run shorter than ``span``).
        """
        middle = (start + end) / 2
        half = max(end - start, self.span) / 2
        with self._lock:
            low = bisect.bisect_left(self.times, middle - half)
            high = bisect.bisect_right(self.times, middle + half)
            passes = self.passes[low:high]
        if not passes:
            return 1.0
        return sum(passes) / len(passes) / REFERENCE_PASS_S

    def seconds(self, start: float, end: float) -> float:
        """The duration [start, end] at reference speed."""
        return (end - start) / self.slowdown(start, end)

    def overall(self) -> float:
        """Median slowdown over every pass so far (a stamp)."""
        with self._lock:
            return median(self.passes) / REFERENCE_PASS_S


def git_commit(root: Path = ROOT) -> str:
    """HEAD's commit id read from ``.git`` files, or ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamps(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, object]:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        # the service builds a span tree for every query, so only the
        # line-up has an untraced program path
        "program_traced": trace or workload != "lineup-mllh",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "commit": git_commit(),
    }
