"""``lineup-mllh``: the Figure 6(b) MLLH line-up, cold, single thread.

|A| = |D| = 50,000 codes at multiple heights, unsorted and unindexed,
behind a 50-page pool of 1 KiB pages.  One operation is one round: a
cold :func:`~repro.experiments.harness.run_lineup` over INLJN,
STACKTREE, ADB+, MHCJ+Rollup and VPJ.  Every algorithm's result count
must equal the generator's exact in-memory count.

The traced half of a ``--trace 1`` run rebuilds the same round from
the harness's public pieces (``Workbench``, ``materialize``,
``run_algorithm``) so it can time ``materialize`` and each join's CPU
time and read each join's span tree.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

from repro.experiments.harness import (
    Workbench,
    make_algorithm,
    make_lineup,
    materialize,
    run_algorithm,
    run_lineup,
)
from repro.obs.tracer import Tracer
from repro.workloads import synthetic

from common import (
    ALGORITHMS,
    PER_LAYER,
    Outcome,
    median,
    peak_rss_mb,
    percentile,
    ratio,
    setup_median,
    span_totals,
    SpeedProbe,
    timed_setup,
)

DATASET = "MLLH"
BUFFER_PAGES = 50
PAGE_SIZE = 1024


@dataclass(frozen=True)
class Size:
    large: int = 50_000
    small: int = 500
    #: set size of the untimed warm-up line-up run during set-up
    warm_large: int = 2_000
    #: set-ups per run, half before and half after the rounds;
    #: ``setup_s`` is their median
    setups: int = 7
    min_rounds: int = 3


FULL = Size()
TINY = Size(large=1_500, small=15, warm_large=300, setups=1, min_rounds=1)


def _setup(seed: int, size: Size) -> synthetic.SyntheticDataset:
    """Generate the dataset, then warm the join code on a small one."""
    spec = synthetic.spec_by_name(DATASET, large=size.large, small=size.small)
    dataset = synthetic.generate(spec, seed=seed)
    warm_spec = synthetic.spec_by_name(
        DATASET, large=size.warm_large, small=max(1, size.warm_large // 100)
    )
    warm = synthetic.generate(warm_spec, seed=seed)
    run_lineup(
        "warm-up", warm.a_codes, warm.d_codes, warm.tree_height,
        buffer_pages=BUFFER_PAGES, page_size=PAGE_SIZE, single_height=False,
    )
    return dataset


def _check_round(out: Outcome, reports: dict, expected: int) -> None:
    wrong = [
        f"{name}={report.result_count}"
        for name, report in reports.items()
        if report.result_count != expected
    ]
    out.check(not wrong, f"result counts {', '.join(wrong)} != {expected}")


def _untraced_rounds(out, dataset, expected, size, budget):
    """Closed loop of cold ``run_lineup`` rounds for ``budget`` seconds."""
    rounds = []
    started = time.perf_counter()
    tries = 0
    while tries < size.min_rounds or time.perf_counter() - started < budget:
        gc.collect()
        tries += 1
        out.attempted += 1
        begin = time.perf_counter()
        try:
            lineup = run_lineup(
                DATASET, dataset.a_codes, dataset.d_codes,
                dataset.tree_height, buffer_pages=BUFFER_PAGES,
                page_size=PAGE_SIZE, single_height=False,
            )
        except AssertionError as exc:  # the harness's own count check
            out.check(False, f"line-up disagreement: {exc}")
            continue
        finished = time.perf_counter()
        reports = {r.name: r.report for r in lineup.results}
        _check_round(out, reports, expected)
        rounds.append({
            "wall": finished - begin,
            "interval": (begin, finished),
            "reports": reports,
        })
    return rounds, (started, time.perf_counter())


def _traced_rounds(out, dataset, expected, size, budget):
    """The same rounds built from public pieces, traced and CPU-timed."""
    rounds = []
    names = make_lineup(single_height=False)
    started = time.perf_counter()
    tries = 0
    while tries < size.min_rounds or time.perf_counter() - started < budget:
        gc.collect()
        tries += 1
        out.attempted += 1
        begin = time.perf_counter()
        bench = Workbench.create(BUFFER_PAGES, PAGE_SIZE)
        ancestors = materialize(
            bench.bufmgr, dataset.a_codes, dataset.tree_height, f"{DATASET}.A"
        )
        descendants = materialize(
            bench.bufmgr, dataset.d_codes, dataset.tree_height, f"{DATASET}.D"
        )
        materialize_s = time.perf_counter() - begin
        tracer = Tracer()
        reports = {}
        cpu = {}
        for name in names:
            cpu_before = time.thread_time()
            reports[name] = run_algorithm(
                make_algorithm(name), ancestors, descendants, tracer=tracer
            )
            cpu[name] = time.thread_time() - cpu_before
        finished = time.perf_counter()
        _check_round(out, reports, expected)
        rounds.append({
            "wall": finished - begin,
            "interval": (begin, finished),
            "reports": reports,
            "cpu": cpu,
            "materialize_s": materialize_s,
            "roots": tracer.roots,
        })
    return rounds


def _layer_metrics(untraced, traced, probe) -> dict[str, float]:
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    first = untraced[0]["reports"]
    reports = list(first.values())
    io = [report.total_io for report in reports]
    metrics["storage.pages_read"] = sum(s.reads for s in io)
    metrics["storage.pages_written"] = sum(s.writes for s in io)
    metrics["storage.random_reads"] = sum(s.random_reads for s in io)
    hits = sum(report.buffer_hits for report in reports)
    misses = sum(report.buffer_misses for report in reports)
    metrics["storage.buffer_hit_ratio"] = ratio(hits, hits + misses)
    metrics["storage.materialize_s"] = median(
        r["materialize_s"] for r in traced
    )
    for name, key in ALGORITHMS.items():
        metrics[f"join.{key}.wall_s"] = median(
            r["reports"][name].wall_seconds for r in untraced
        )
        metrics[f"join.{key}.cpu_s"] = median(r["cpu"][name] for r in traced)
        metrics[f"join.{key}.false_hits"] = first[name].false_hits
        metrics[f"join.{key}.results"] = first[name].result_count
    metrics["join.false_hit_ratio"] = ratio(
        sum(report.false_hits for report in reports),
        sum(report.result_count for report in reports),
    )

    def layer(names):
        totals = [span_totals(r["roots"], names) for r in traced]
        return median(t[0] for t in totals), median(t[1] for t in totals)

    metrics["sort.self_s"], metrics["sort.pages"] = layer(["stacktree.sort"])
    build_s, build_pages = layer(["inljn.build", "adb.build_index"])
    probe_s, probe_pages = layer(["inljn.probe"])
    metrics["index.build_s"] = build_s
    metrics["index.probe_s"] = probe_s
    metrics["index.pages"] = build_pages + probe_pages
    for metric, span in (
        ("join.stacktree.merge_s", "stacktree.merge"),
        ("join.adb.merge_s", "adb.merge"),
        ("join.mhcj.rollup_s", "mhcj.rollup"),
        ("join.vpj.partition_s", "vpj.partition"),
        ("join.vpj.memjoin_s", "vpj.memjoin"),
    ):
        metrics[metric] = layer([span])[0]
    metrics["obs.trace_overhead"] = ratio(
        median(probe.seconds(*r["interval"]) for r in traced),
        median(probe.seconds(*r["interval"]) for r in untraced),
    )
    return metrics


def run(
    seed: int,
    seconds: float,
    trace: bool,
    probe: SpeedProbe,
    size: Size = FULL,
    perturb: bool = False,
) -> Outcome:
    """One ``lineup-mllh`` run.  ``perturb`` corrupts the oracle (self-test).

    ``probe`` must be running; every end-to-end time is reported at
    its reference speed.
    """
    out = Outcome()
    build = lambda: _setup(seed, size)  # noqa: E731
    setups, dataset = timed_setup(build, size.setups, lambda _d: None)
    expected = dataset.num_results + (1 if perturb else 0)
    out.stamps["results"] = dataset.num_results
    budget = seconds / 2 if trace else seconds
    untraced, measured = _untraced_rounds(out, dataset, expected, size, budget)
    if not untraced:
        out.notes.append("no line-up round completed")
        return out
    if trace:
        traced = _traced_rounds(out, dataset, expected, size, budget)
        out.metrics = _layer_metrics(untraced, traced, probe)
        return out
    walls = [probe.seconds(*r["interval"]) for r in untraced]
    rss = peak_rss_mb()
    out.metrics = {
        "setup_s": setup_median(
            setups, build, size.setups, lambda _d: None, probe
        ),
        "peak_rss_mb": rss,
        "ok_ratio": 1.0 - ratio(out.failed, out.attempted),
        "pages_per_op": median(
            sum(report.total_pages for report in r["reports"].values())
            for r in untraced
        ),
        "p50_ms": median(walls) * 1000.0,
        "p95_ms": percentile(walls, 0.95) * 1000.0,
        "capacity_ops": len(untraced) / probe.seconds(*measured),
    }
    # a closed loop has no schedule, so no generator lateness
    out.stamps.update(
        rounds=len(untraced),
        round_ms=[round(wall * 1000.0, 1) for wall in walls],
        wall_round_ms=[round(r["wall"] * 1000.0, 1) for r in untraced],
        gen_late_ms=None,
    )
    return out
