"""``serve-read`` and ``serve-sharded-rw``: the query service under load.

Both serve the same fixed corpus, ``random_tree(1000, max_fanout=5,
seed=23)``, through a :class:`~repro.service.QueryService` with
64-page pools, over real sockets (:class:`~repro.service.ServerThread`
plus one :class:`~repro.service.ServiceClient` per connection), with
the path mix :data:`PATHS` and rotating tenants.  The benchmark seed
drives the arrival times, the starting point of the path rotation and
the write stream.  The corpus stays fixed: the cost of the mix varies
about threefold between ``random_tree`` seeds, which would swamp any
change a later revision makes to the program.

* ``serve-read`` (unsharded): an open loop of seeded Poisson arrivals
  at :attr:`Size.rate` over two connections, each request timed from
  its due time, then a closed loop on two connections for capacity.
  Every answer is compared with a brute-force containment computed
  from the tree at set-up.
* ``serve-sharded-rw`` (``shards=2``): one connection reads in a
  closed loop while one writer thread applies a seeded insert/delete
  stream in an open loop through ``exclusive()`` plus
  ``insert_element``/``delete_element``.  The writer snapshots the
  tree after every write; each read that no write overlapped is
  checked, after the run, against a brute-force containment over the
  snapshot it saw.  After the writes stop, every path's answer must
  also equal that of an unsharded database rebuilt from the final
  tree.

A ``--trace 1`` run spends half its time on the untraced wire path
(for the wire share) and half feeding the same schedule in-process
through :meth:`QueryService.execute`, whose ``QueryOutcome`` carries
the span tree the per-layer numbers are read from.  The service
builds a span tree for every query, traced run or not, so these
workloads have no untraced program path and report no
``obs.trace_overhead``.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.datatree.builder import random_tree
from repro.datatree.node import DataTree
from repro.db import ContainmentDatabase
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    QueryService,
    ServerThread,
    ServiceClient,
    ServiceProtocolError,
    ServiceRejection,
)

from common import (
    ALGORITHMS,
    PER_LAYER,
    Outcome,
    mean,
    median,
    peak_rss_mb,
    percentile,
    poisson_schedule,
    ratio,
    self_seconds,
    sleep_until,
    setup_median,
    SpeedProbe,
    timed_setup,
    walk,
)

DOCUMENT = "corpus"
PATHS = ("//a//b", "//a//b//c", "//b//d", "//c//d", "//a//c//d")
TENANTS = ("tenant0", "tenant1", "tenant2")
TAGS = ("a", "b", "c", "d")
CORPUS_SEED = 23
BUFFER_PAGES = 64
#: load connections, one per core of the 2-core reference machine
CONNECTIONS = 2
#: share of a ``serve-read`` run spent in the open loop
OPEN_SHARE = 0.8
#: the writer keeps the live node count within this share of its start
LIVE_BAND = 0.02
SHARDS = 2


@dataclass(frozen=True)
class Size:
    nodes: int = 1_000
    #: open-loop arrival rate of ``serve-read`` (requests/s)
    rate: float = 15.0
    #: open-loop rate of the ``serve-sharded-rw`` writer (writes/s)
    write_rate: float = 4.0
    #: set-ups per run, half before and half after the measured part;
    #: ``setup_s`` is their median
    setups: int = 15


FULL = Size()
TINY = Size(nodes=150, rate=20.0, write_rate=10.0, setups=1)


# ---------------------------------------------------------------------------
# corpus, oracle, stack
# ---------------------------------------------------------------------------
def matches(tree: DataTree, alive: Callable[[int], bool], path: str) -> set[int]:
    """Brute force: live nodes whose root path contains the path's tags.

    ``//t1//t2//...//tk`` selects every ``tk`` node with a ``t(k-1)``
    ancestor that has a ``t(k-2)`` ancestor, and so on — a subsequence
    test on the node's ancestor tags, which nearest-first matching
    decides exactly.
    """
    steps = [step for step in path.split("//") if step]
    found = set()
    for node in range(len(tree)):
        if tree.tags[node] != steps[-1] or not alive(node):
            continue
        want = len(steps) - 2
        parent = tree.parents[node]
        while want >= 0 and parent >= 0:
            if tree.tags[parent] == steps[want]:
                want -= 1
            parent = tree.parents[parent]
        if want < 0:
            found.add(node)
    return found


@dataclass
class Stack:
    """Database, service and socket server over one fresh corpus."""

    db: ContainmentDatabase
    service: QueryService
    server: ServerThread
    warm: dict[str, list[int]]

    @property
    def doc(self):
        return self.db.document(DOCUMENT)

    def close(self) -> None:
        self.server.stop()


def build_stack(size: Size, shards: int) -> Stack:
    """Generate and load the corpus, start serving, run each path once."""
    tree = random_tree(size.nodes, max_fanout=5, seed=CORPUS_SEED)
    db = ContainmentDatabase(buffer_pages=BUFFER_PAGES, shards=shards)
    db.load_tree(tree, name=DOCUMENT)
    service = QueryService(db, metrics=MetricsRegistry())
    server = ServerThread(service).start()
    warm = {}
    with ServiceClient(port=server.port) as client:
        for path in PATHS:
            reply = client.query_all(DOCUMENT, path, tenant="warmup")
            warm[path] = list(reply.get("codes") or [])
    return Stack(db, service, server, warm)


def oracle_codes(stack: Stack) -> dict[str, set[int]]:
    """Expected codes per path for the corpus as loaded."""
    doc = stack.doc
    return {
        path: {
            doc.tree.codes[node]
            for node in matches(doc.tree, doc.updatable.is_alive, path)
        }
        for path in PATHS
    }


# ---------------------------------------------------------------------------
# callers: one connection over the wire, or in-process
# ---------------------------------------------------------------------------
def digest(codes) -> int:
    """Order-free hash of a set of codes.

    A run checks every answer but keeps only this digest of it, so the
    memory a run holds does not grow with the number of reads it makes.
    """
    return hash(frozenset(codes))


@dataclass
class Reply:
    status: str
    #: :func:`digest` of the answer's codes
    answer: int = 0
    server_s: float = 0.0
    pages: int = 0
    false_hits: int = 0
    results: int = 0
    steps: list[str] = field(default_factory=list)
    outcome: object = None


class WireCaller:
    """One blocking connection; reconnects after a transport failure."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.client: Optional[ServiceClient] = ServiceClient(port=port)

    def __call__(self, path: str, tenant: str) -> Reply:
        try:
            if self.client is None:
                self.client = ServiceClient(port=self.port)
            response = self.client.query_all(DOCUMENT, path, tenant=tenant)
        except (OSError, ServiceProtocolError):
            self.close()
            return Reply("transport")
        status = str(response.get("status"))
        if status != "ok":
            return Reply(status if status == "rejected" else "error")
        reports = response.get("reports") or []
        return Reply(
            "ok",
            answer=digest(response.get("codes") or []),
            server_s=float(response.get("wall_seconds") or 0.0),
            pages=int(response.get("planning_io") or 0)
            + sum(int(r["total_pages"]) for r in reports),
            false_hits=sum(int(r["false_hits"]) for r in reports),
            results=sum(int(r["result_count"]) for r in reports),
            steps=[str(r["algorithm"]) for r in reports],
        )

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None


class LocalCaller:
    """``QueryService.execute`` in-process: the outcome keeps its spans."""

    def __init__(self, service: QueryService) -> None:
        self.service = service

    def __call__(self, path: str, tenant: str) -> Reply:
        try:
            outcome = self.service.execute(tenant, DOCUMENT, path)
        except ServiceRejection:
            return Reply("rejected")
        except Exception:  # noqa: BLE001 - counted as a failed operation
            return Reply("error")
        reports = outcome.reports
        return Reply(
            "ok",
            answer=digest(outcome.codes),
            server_s=outcome.wall_seconds,
            pages=outcome.total_io,
            false_hits=sum(r.false_hits for r in reports),
            results=sum(r.result_count for r in reports),
            steps=[r.algorithm for r in reports],
            outcome=outcome,
        )

    def close(self) -> None:
        pass


@dataclass
class Sample:
    path: str
    due: float
    sent: float
    done: float
    reply: Reply
    #: how late the generator sent (s), when it was ahead of schedule
    late: Optional[float] = None
    #: writes applied before this read was sent (``serve-sharded-rw``)
    writes_before: int = 0
    #: writes begun by the time its answer came back
    writes_after: int = 0


def _drive(callers, next_request, record) -> None:
    """Run one thread per caller; each pulls requests until None."""

    def worker(caller) -> None:
        try:
            while True:
                request = next_request()
                if request is None:
                    return
                path, tenant, due = request
                late = sleep_until(due) if due is not None else None
                sent = time.perf_counter()
                reply = caller(path, tenant)
                record(Sample(path, due if due is not None else sent,
                              sent, time.perf_counter(), reply, late))
        finally:
            caller.close()

    threads = [threading.Thread(target=worker, args=(c,)) for c in callers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(callers, requests) -> list[Sample]:
    """Send ``(path, tenant, due)`` requests on schedule, any free caller."""
    lock = threading.Lock()
    pending = iter(requests)
    samples: list[Sample] = []

    def next_request():
        with lock:
            return next(pending, None)

    def record(sample: Sample) -> None:
        with lock:
            samples.append(sample)

    _drive(callers, next_request, record)
    return samples


def closed_loop(callers, seconds: float, start: int,
                before: Callable[[], int] = lambda: 0,
                after: Callable[[], int] = lambda: 0) -> list[Sample]:
    """Back-to-back requests on every caller until ``seconds`` pass.

    ``before`` and ``after`` read the write counters that bracket each
    request (``serve-sharded-rw``).
    """
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds
    counter = [start]
    samples: list[Sample] = []
    writes = {}

    def next_request():
        with lock:
            if time.perf_counter() >= deadline:
                return None
            index = counter[0]
            counter[0] += 1
        writes[threading.get_ident()] = before()
        return PATHS[index % len(PATHS)], TENANTS[index % len(TENANTS)], None

    def record(sample: Sample) -> None:
        sample.writes_before = writes.get(threading.get_ident(), 0)
        sample.writes_after = after()
        with lock:
            samples.append(sample)

    _drive(callers, next_request, record)
    return samples


def schedule(rng: random.Random, rate: float, seconds: float,
             start: int) -> list[tuple[str, str, float]]:
    """Seeded open-loop requests: Poisson due offsets, rotating mix."""
    return [
        (PATHS[(start + i) % len(PATHS)], TENANTS[i % len(TENANTS)], due)
        for i, due in enumerate(poisson_schedule(rng, rate, seconds))
    ]


def at(requests, origin: float):
    """The requests with their due offsets made absolute from ``origin``."""
    return [(path, tenant, origin + due) for path, tenant, due in requests]


# ---------------------------------------------------------------------------
# tallies and metrics
# ---------------------------------------------------------------------------
def tally(out: Outcome, samples: list[Sample],
          check: Optional[Callable[[Sample], bool]]) -> list[Sample]:
    """Count every sample's status; returns the answered ones."""
    answered = []
    for sample in samples:
        out.attempted += 1
        status = sample.reply.status
        if status == "ok":
            answered.append(sample)
            if check is not None:
                out.check(check(sample), f"wrong answer for {sample.path}")
        elif status == "rejected":
            out.rejected += 1
        elif status == "transport":
            out.transport += 1
        else:
            out.errors += 1
    return answered


def _lateness_ms(samples) -> float:
    late = [s.late for s in samples if s.late is not None]
    return percentile(late, 0.95) * 1000.0


def _wire_s(sample: Sample) -> float:
    return (sample.done - sample.sent) - sample.reply.server_s


def _work_seconds(span) -> float:
    """Wall time of the planning and join spans below ``span``.

    Counts the outermost ones only.  On the sharded path the slot joins
    hang under ``shard.fanout`` spans that close before them, so direct
    children alone would undercount the join time.
    """
    total = 0.0
    for child in span.children:
        if child.name == "pipeline.plan" or child.name.startswith("join."):
            total += child.wall_seconds
        else:
            total += _work_seconds(child)
    return total


def _query_span(outcome):
    for span in walk(outcome.tracer.roots):
        if span.name == "service.query":
            return span
    return None


def _service_layers(metrics: dict, traced: list[Sample],
                    wire: list[Sample], counters: tuple[int, int]) -> None:
    """Per-layer service, planner and join numbers from traced outcomes."""
    outcomes = [s.reply.outcome for s in traced]
    spans = [_query_span(o) for o in outcomes]
    execute_ms = [s.wall_seconds * 1000.0 for s in spans if s is not None]
    prepare_ms = [
        (o.wall_seconds - s.wall_seconds) * 1000.0
        for o, s in zip(outcomes, spans) if s is not None
    ]
    plan_ms = [
        sum(self_seconds(span) for span in walk(o.tracer.roots)
            if span.name == "pipeline.plan") * 1000.0
        for o in outcomes
    ]
    metrics["service.execute_ms"] = median(execute_ms)
    metrics["service.prepare_ms"] = median(prepare_ms)
    metrics["service.wire_ms"] = median(_wire_s(s) * 1000.0 for s in wire)
    metrics["plan.self_ms"] = mean(plan_ms)
    metrics["plan.pages"] = mean(o.planning_io for o in outcomes)
    steps = [step for s in traced for step in s.reply.steps]
    for name, key in ALGORITHMS.items():
        metrics[f"plan.steps.{key}"] = ratio(steps.count(name), len(steps))
    hits, misses = counters
    metrics["plan.cache_hit_ratio"] = ratio(hits, hits + misses)
    metrics["join.false_hit_ratio"] = ratio(
        sum(s.reply.false_hits for s in traced),
        sum(s.reply.results for s in traced),
    )
    metrics["service.self_ms"] = median(
        (s.wall_seconds - _work_seconds(s)) * 1000.0
        for s in spans if s is not None
    )
    metrics["join.mhcj.rollup_s"] = mean(
        sum(self_seconds(span) for span in walk(o.tracer.roots)
            if span.name == "mhcj.rollup")
        for o in outcomes
    )
    metrics["join.MHCJ-Rollup.wall_s"] = mean(
        sum(r.wall_seconds for r in o.reports) for o in outcomes
    )
    metrics["join.MHCJ-Rollup.false_hits"] = mean(
        s.reply.false_hits for s in traced
    )
    metrics["join.MHCJ-Rollup.results"] = mean(s.reply.results for s in traced)


def _cache_counters(service: QueryService) -> tuple[int, int]:
    def value(name: str) -> int:
        metric = service.metrics.get(name)
        return int(metric.value) if metric is not None else 0

    return (value("service.plan_cache.hits"),
            value("service.plan_cache.misses"))


# ---------------------------------------------------------------------------
# serve-read
# ---------------------------------------------------------------------------
def run_read(seed: int, seconds: float, trace: bool, probe: SpeedProbe,
             size: Size = FULL, perturb: bool = False) -> Outcome:
    """One ``serve-read`` run.  ``perturb`` corrupts the oracle (self-test).

    ``probe`` must be running; every end-to-end time is reported at
    its reference speed.
    """
    out = Outcome()
    build = lambda: build_stack(size, shards=0)  # noqa: E731
    setups, stack = timed_setup(build, size.setups, Stack.close)
    try:
        expected = oracle_codes(stack)
        if perturb:
            expected[PATHS[-1]].add(-1)
        answers = {path: digest(codes) for path, codes in expected.items()}
        check = lambda s: s.reply.answer == answers[s.path]  # noqa: E731
        for path, codes in stack.warm.items():
            out.check(set(codes) == expected[path], f"warm-up answer {path}")
        rng = random.Random(seed)
        start = rng.randrange(len(PATHS))
        open_s = seconds / 2 if trace else seconds * OPEN_SHARE
        wire = [WireCaller(stack.server.port) for _ in range(CONNECTIONS)]
        requests = schedule(rng, size.rate, open_s, start)
        opened = tally(
            out, open_loop(wire, at(requests, time.perf_counter())), check
        )
        late = _lateness_ms(opened)
        if trace:
            local = [LocalCaller(stack.service) for _ in range(CONNECTIONS)]
            before = _cache_counters(stack.service)
            traced = tally(
                out, open_loop(local, at(requests, time.perf_counter())), check
            )
            after = _cache_counters(stack.service)
            metrics = dict.fromkeys(PER_LAYER, 0.0)
            _service_layers(
                metrics, traced, opened,
                (after[0] - before[0], after[1] - before[1]),
            )
            metrics["service.rejected"] = out.rejected
            metrics["gen.late_ms"] = max(late, _lateness_ms(traced))
            out.metrics = metrics
            out.stamps["gen_late_ms"] = metrics["gen.late_ms"]
            return out
        wire = [WireCaller(stack.server.port) for _ in range(CONNECTIONS)]
        began = time.perf_counter()
        closed = tally(
            out, closed_loop(wire, seconds - open_s, start), check
        )
        ended = max((s.done for s in closed), default=began)
    finally:
        stack.close()
    latencies = [probe.seconds(s.due, s.done) * 1000.0 for s in opened]
    walls = [(s.done - s.due) * 1000.0 for s in opened]
    rss = peak_rss_mb()
    out.metrics = {
        "setup_s": setup_median(
            setups, build, size.setups, Stack.close, probe
        ),
        "peak_rss_mb": rss,
        "ok_ratio": 1.0 - ratio(out.failed, out.attempted),
        "pages_per_op": ratio(
            sum(s.reply.pages for s in opened + closed), len(opened + closed)
        ),
        "p50_ms": median(latencies),
        "p95_ms": percentile(latencies, 0.95),
        "capacity_ops": ratio(len(closed), probe.seconds(began, ended)),
    }
    out.stamps.update(
        wall_p50_ms=median(walls), wall_p95_ms=percentile(walls, 0.95),
        gen_late_ms=late, open_requests=len(requests),
        closed_requests=len(closed), rate=size.rate,
    )
    return out


# ---------------------------------------------------------------------------
# serve-sharded-rw
# ---------------------------------------------------------------------------
@dataclass
class WriteLog:
    latency: list[float] = field(default_factory=list)
    gate: list[float] = field(default_factory=list)
    apply: list[float] = field(default_factory=list)
    pending: list[int] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    live: list[int] = field(default_factory=list)
    #: (codes, liveness) of every node; entry ``k`` follows ``k`` writes
    snapshots: list[tuple[list[int], bytes]] = field(default_factory=list)
    #: writes that have entered the gate
    begun: int = 0
    #: writes finished and snapshotted
    applied: int = 0


class NodePool:
    """A set of nodes with O(1) add, remove and seeded random choice."""

    def __init__(self, nodes=()) -> None:
        self.items: list[int] = []
        self.where: dict[int, int] = {}
        for node in nodes:
            self.add(node)

    def __len__(self) -> int:
        return len(self.items)

    def add(self, node: int) -> None:
        if node not in self.where:
            self.where[node] = len(self.items)
            self.items.append(node)

    def remove(self, node: int) -> None:
        index = self.where.pop(node, None)
        if index is None:
            return
        last = self.items.pop()
        if index < len(self.items):
            self.items[index] = last
            self.where[last] = index

    def choice(self, rng: random.Random) -> int:
        return self.items[rng.randrange(len(self.items))]


class Writer:
    """Seeded open-loop insert/delete stream through ``exclusive()``.

    Inserts add a leaf with a random tag under a random live node;
    deletes remove a random live leaf of the tag furthest above its
    starting count.  The kind is a fair coin, except that the writer
    inserts (deletes) whenever the live node count has fallen below
    (risen above) its starting value by more than ``band``.  So every
    tag's element set stays within a few elements of its starting
    size, and the pages a read touches vary less between seeds.

    The writer is the tree's only mutator, so it keeps the live and
    leaf sets itself and picks each write before its due time: only
    the insert or delete call runs inside the gate.  After each write
    it snapshots every node's code and liveness for the read check.
    """

    def __init__(self, stack: Stack, rng: random.Random, band: float) -> None:
        self.stack = stack
        self.rng = rng
        self.band = band
        updatable = stack.doc.updatable
        self.tree = updatable.tree
        live = [n for n in range(len(self.tree)) if updatable.is_alive(n)]
        self.children = dict.fromkeys(live, 0)
        for node in live:
            if self.tree.parents[node] >= 0:
                self.children[self.tree.parents[node]] += 1
        self.root = next(n for n in live if self.tree.parents[n] < 0)
        self.live = NodePool(live)
        self.leaves = {tag: NodePool() for tag in TAGS}
        self.tag_count = dict.fromkeys(TAGS, 0)
        for node in live:
            self.tag_count[self.tree.tags[node]] += 1
            if node != self.root and not self.children[node]:
                self.leaves[self.tree.tags[node]].add(node)
        self.tag_initial = dict(self.tag_count)
        self.initial = len(live)
        self.log = WriteLog(live=[self.initial])
        self.failures = 0
        self.snapshot()

    def snapshot(self) -> None:
        updatable = self.stack.doc.updatable
        self.log.snapshots.append((
            list(self.tree.codes),
            bytes(updatable.is_alive(n) for n in range(len(self.tree))),
        ))

    def _choose(self) -> tuple[str, int, str]:
        """The next write: (kind, parent or leaf, tag)."""
        drift = (len(self.live) - self.initial) / self.initial
        insert = self.rng.random() < 0.5
        if drift < -self.band:
            insert = True
        elif drift > self.band:
            insert = False
        tags = [tag for tag in TAGS if len(self.leaves[tag])]
        if insert or not tags:
            return "insert", self.live.choice(self.rng), self.rng.choice(TAGS)
        surplus = max(self.tag_count[t] - self.tag_initial[t] for t in tags)
        tag = self.rng.choice([
            t for t in tags if self.tag_count[t] - self.tag_initial[t] == surplus
        ])
        return "delete", self.leaves[tag].choice(self.rng), tag

    def _record(self, kind: str, target: int, node: int) -> None:
        """Bring the live and leaf sets up to date after a write."""
        tags = self.tree.tags
        if kind == "insert":
            self.live.add(node)
            self.leaves[tags[node]].add(node)
            self.tag_count[tags[node]] += 1
            self.children[node] = 0
            self.children[target] += 1
            self.leaves[tags[target]].remove(target)
            return
        self.live.remove(target)
        self.leaves[tags[target]].remove(target)
        self.tag_count[tags[target]] -= 1
        parent = self.tree.parents[target]
        self.children[parent] -= 1
        if not self.children[parent] and parent != self.root:
            self.leaves[tags[parent]].add(parent)

    def write(self, due: float) -> None:
        kind, target, tag = self._choose()
        late = sleep_until(due)
        if late is not None:
            self.log.late.append(late)
        db = self.stack.db
        entered = time.perf_counter()
        with self.stack.service.exclusive(DOCUMENT) as doc:
            inside = time.perf_counter()
            self.log.begun += 1
            try:
                if kind == "insert":
                    node = db.insert_element(doc, target, tag)
                else:
                    node = target
                    db.delete_element(doc, target)
            except Exception:  # noqa: BLE001 - counted, never silent
                node = None
            applied = time.perf_counter()
            self.log.pending.append(doc.store.pending_updates())
        done = time.perf_counter()
        if node is None:
            self.failures += 1
        else:
            self._record(kind, target, node)
        self.snapshot()
        self.log.applied += 1
        self.log.latency.append(done - due)
        self.log.gate.append(inside - entered)
        self.log.apply.append(applied - inside)
        self.log.live.append(len(self.live))

    def run(self, dues: list[float]) -> threading.Thread:
        def loop() -> None:
            for due in dues:
                self.write(due)

        thread = threading.Thread(target=loop)
        thread.start()
        return thread


class SnapshotCheck:
    """Checks a read against the tree as it stood when the read ran.

    A read sent after ``writes_before`` writes had finished, whose
    answer came back before any later write entered the gate, saw
    exactly snapshot ``writes_before``.  A read that a write overlapped
    could have seen either version and is left unchecked.
    """

    def __init__(self, log: WriteLog, tree: DataTree, perturb: bool) -> None:
        self.log = log
        self.tree = tree
        self.perturb = perturb
        #: answer digests per path for snapshot ``version``
        self.version = -1
        self.answers: dict[str, int] = {}
        self.checked = 0
        self.skipped = 0

    def answer(self, version: int, path: str) -> int:
        if version != self.version:
            self.version = version
            self.answers = {}
        if path not in self.answers:
            codes, alive = self.log.snapshots[version]
            nodes = matches(
                self.tree, lambda n: n < len(alive) and bool(alive[n]), path
            )
            expected = {codes[n] for n in nodes}
            if self.perturb and path == PATHS[-1]:
                expected.add(-1)
            self.answers[path] = digest(expected)
        return self.answers[path]

    def __call__(self, sample: Sample) -> bool:
        if sample.writes_after != sample.writes_before:
            self.skipped += 1
            return True
        self.checked += 1
        return sample.reply.answer == self.answer(sample.writes_before, sample.path)


def _rw_phase(writer, caller, rng, seconds, start, size):
    """A reader closed loop beside an open-loop writer for ``seconds``."""
    origin = time.perf_counter()
    dues = [origin + d for d in poisson_schedule(rng, size.write_rate, seconds)]
    thread = writer.run(dues)
    try:
        samples = closed_loop([caller], seconds, start,
                              before=lambda: writer.log.applied,
                              after=lambda: writer.log.begun)
    finally:
        thread.join()
    return samples, (origin, time.perf_counter())


def final_check(out: Outcome, stack: Stack, perturb: bool) -> None:
    """Served answers vs an unsharded database rebuilt from the final tree."""
    doc = stack.doc
    updatable = doc.updatable
    old = doc.tree
    tree = DataTree()
    old_of = {}
    new_of = {}
    for node in old.iter_preorder():
        if not updatable.is_alive(node):
            continue
        parent = old.parents[node]
        if parent < 0:
            new = tree.add_root(old.tags[node])
        else:
            new = tree.add_child(new_of[parent], old.tags[node])
        new_of[node] = new
        old_of[new] = node
    rebuilt = ContainmentDatabase(buffer_pages=stack.db.bufmgr.num_pages)
    rebuilt_doc = rebuilt.load_tree(tree, name=DOCUMENT)
    for path in PATHS:
        outcome = stack.service.execute("check", DOCUMENT, path)
        served = {updatable.node_of(code) for code in outcome.codes}
        expected = {old_of[v.id] for v in rebuilt.query(rebuilt_doc, path)}
        if perturb and path == PATHS[-1]:
            expected.add(-1)
        out.attempted += 1
        out.check(served == expected, f"final answer for {path}")


def run_rw(seed: int, seconds: float, trace: bool, probe: SpeedProbe,
           size: Size = FULL, perturb: bool = False) -> Outcome:
    """One ``serve-sharded-rw`` run.  ``perturb`` corrupts the oracles.

    ``probe`` must be running; every end-to-end time is reported at
    its reference speed.
    """
    out = Outcome()
    build = lambda: build_stack(size, shards=SHARDS)  # noqa: E731
    setups, stack = timed_setup(build, size.setups, Stack.close)
    try:
        expected = oracle_codes(stack)
        for path, codes in stack.warm.items():
            out.check(set(codes) == expected[path], f"warm-up answer {path}")
        rng = random.Random(seed)
        start = rng.randrange(len(PATHS))
        writer = Writer(stack, rng, LIVE_BAND)
        verify = SnapshotCheck(writer.log, stack.doc.tree, perturb)
        budget = seconds / 2 if trace else seconds
        reads, elapsed = _rw_phase(
            writer, WireCaller(stack.server.port), rng, budget, start, size
        )
        untraced_writes = list(writer.log.latency)
        answered = tally(out, reads, verify)
        if trace:
            local, _ = _rw_phase(
                writer, LocalCaller(stack.service), rng, budget, start, size
            )
            traced = tally(out, local, verify)
        final_check(out, stack, perturb)
        layout = stack.db.shard_corpus(stack.doc).stats()
    finally:
        stack.close()
    log = writer.log
    out.attempted += log.applied
    out.errors += writer.failures
    if trace:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        _service_layers(metrics, traced, answered, (0, 0))
        metrics["shard.execute_ms"] = metrics["service.execute_ms"]
        first_after = [
            s for previous, s in zip(traced, traced[1:])
            if s.writes_before != previous.writes_before
        ]
        metrics["shard.prepare_after_write_ms"] = median(
            (s.reply.outcome.wall_seconds - _query_span(s.reply.outcome).wall_seconds)
            * 1000.0 for s in first_after
        )
        pages = [shard["pages"] for shard in layout["shards"]]
        metrics["shard.imbalance"] = ratio(max(pages), sum(pages) / len(pages))
        metrics["shard.replicas"] = sum(
            entry["replicas"] for entry in layout["sets"].values()
        )
        metrics["update.write_p50_ms"] = median(untraced_writes) * 1000.0
        metrics["update.write_p95_ms"] = percentile(untraced_writes, 0.95) * 1000.0
        metrics["update.gate_wait_ms"] = median(log.gate) * 1000.0
        metrics["update.apply_ms"] = median(log.apply) * 1000.0
        metrics["update.pending"] = ratio(sum(log.pending), len(log.pending))
        metrics["update.live_drift"] = max(
            abs(n - writer.initial) for n in log.live
        ) / writer.initial
        metrics["service.rejected"] = out.rejected
        metrics["gen.late_ms"] = percentile(log.late, 0.95) * 1000.0
        out.metrics = metrics
        out.stamps.update(gen_late_ms=metrics["gen.late_ms"],
                          checked_reads=[verify.checked, verify.skipped])
        return out
    latencies = [probe.seconds(s.sent, s.done) * 1000.0 for s in answered]
    walls = [(s.done - s.sent) * 1000.0 for s in answered]
    rss = peak_rss_mb()
    out.metrics = {
        "setup_s": setup_median(
            setups, build, size.setups, Stack.close, probe
        ),
        "peak_rss_mb": rss,
        "ok_ratio": 1.0 - ratio(out.failed, out.attempted),
        "pages_per_op": ratio(sum(s.reply.pages for s in answered), len(answered)),
        "p50_ms": median(latencies),
        "p95_ms": percentile(latencies, 0.95),
        "capacity_ops": ratio(len(answered), probe.seconds(*elapsed)),
    }
    out.stamps.update(
        wall_p50_ms=median(walls), wall_p95_ms=percentile(walls, 0.95),
        gen_late_ms=percentile(log.late, 0.95) * 1000.0,
        writes=log.applied,
        write_p50_ms=median(log.latency) * 1000.0,
        write_p95_ms=percentile(log.latency, 0.95) * 1000.0,
        live_nodes=[writer.initial, min(log.live), max(log.live)],
        reads=len(answered),
        checked_reads=[verify.checked, verify.skipped],
    )
    return out
