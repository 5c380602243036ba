"""Golden line-up reports: the batched path's accounting is pinned.

The Figure 6(a)/(b)-style line-ups below ran once against the
reference implementation; their normalised :class:`JoinReport`s
(every field except wall time and the trace) and the emit order of the
order-sensitive operators are stored in ``golden/lineup_reports.json``.
Any change to page-access order, buffer behaviour, partition counts or
false-hit accounting shows up here as a field-for-field mismatch, and
every answer is also checked against the brute-force containment
oracle.

Regenerate the fixture (only when an accounting change is intended)::

    PYTHONPATH=src python tests/test_golden_lineup.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro import (
    BufferManager,
    DiskManager,
    ElementSet,
    JoinSink,
    MPMGJoin,
    MultiHeightRollupJoin,
    StackTreeDescJoin,
    VerticalPartitionJoin,
    binarize,
    random_tree,
)
from repro.core import pbitree as pt
from repro.datatree.paths import brute_force_join
from repro.experiments.harness import make_lineup, run_lineup

GOLDEN = Path(__file__).parent / "golden" / "lineup_reports.json"

#: operators whose emit order is part of their contract
ORDERED_OPERATORS = (
    MPMGJoin,
    StackTreeDescJoin,
    MultiHeightRollupJoin,
    VerticalPartitionJoin,
)


def lineup_inputs(single_height):
    tree = random_tree(300, max_fanout=5, seed=23)
    encoding = binarize(tree)
    rng = random.Random(9)
    a_codes = rng.sample(tree.codes, 160)
    d_codes = rng.sample(tree.codes, 200)
    if single_height:
        heights = [pt.height_of(c) for c in a_codes]
        modal = max(set(heights), key=heights.count)
        a_codes = [c for c in a_codes if pt.height_of(c) == modal]
    return a_codes, d_codes, encoding.tree_height


def normalized(report) -> dict:
    fields = dataclasses.asdict(
        dataclasses.replace(report, wall_seconds=0.0, trace=None)
    )
    del fields["wall_seconds"], fields["trace"]
    return fields


def lineup_reports(single_height: bool, workers: int) -> list[dict]:
    a_codes, d_codes, tree_height = lineup_inputs(single_height)
    lineup = run_lineup(
        "diff",
        a_codes,
        d_codes,
        tree_height,
        buffer_pages=8,
        page_size=128,
        algorithms=make_lineup(single_height),
        collect=True,
        workers=workers,
    )
    return [
        {"name": result.name, "report": normalized(result.report)}
        for result in lineup.results
    ]


def emitted_pairs(cls) -> list[tuple[int, int]]:
    a_codes, d_codes, tree_height = lineup_inputs(False)
    bufmgr = BufferManager(DiskManager(page_size=128), 8)
    elements_a = ElementSet.from_codes(bufmgr, a_codes, tree_height, "A")
    elements_d = ElementSet.from_codes(bufmgr, d_codes, tree_height, "D")
    sink = JoinSink("collect")
    cls().run(elements_a, elements_d, sink)
    return list(sink.pairs)


def pair_digest(pairs) -> str:
    text = "".join(f"{a},{d}\n" for a, d in pairs)
    return hashlib.sha256(text.encode()).hexdigest()


def lineup_key(single_height: bool, workers: int) -> str:
    height = "single" if single_height else "multi"
    return f"{height}-height/workers={workers}"


def build_golden() -> dict:
    return {
        "lineups": {
            lineup_key(single, workers): lineup_reports(single, workers)
            for single in (True, False)
            for workers in (1, 2)
        },
        "pair_order_sha256": {
            cls.__name__: pair_digest(emitted_pairs(cls))
            for cls in ORDERED_OPERATORS
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("single_height", [True, False])
@pytest.mark.parametrize("workers", [1, 2])
def test_lineup_reports_match_golden(golden, single_height, workers):
    expected = golden["lineups"][lineup_key(single_height, workers)]
    got = lineup_reports(single_height, workers)
    assert [r["name"] for r in got] == [r["name"] for r in expected]
    for got_result, want_result in zip(got, expected):
        assert got_result["report"] == want_result["report"], (
            f"{got_result['name']} diverges from the golden report"
        )
    a_codes, d_codes, _height = lineup_inputs(single_height)
    oracle = len(brute_force_join(a_codes, d_codes))
    assert {r["report"]["result_count"] for r in got} == {oracle}


@pytest.mark.parametrize("cls", ORDERED_OPERATORS, ids=lambda c: c.__name__)
def test_emit_order_matches_golden(golden, cls):
    pairs = emitted_pairs(cls)
    a_codes, d_codes, _height = lineup_inputs(False)
    assert sorted(pairs) == sorted(brute_force_join(a_codes, d_codes))
    assert pair_digest(pairs) == golden["pair_order_sha256"][cls.__name__]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(build_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
