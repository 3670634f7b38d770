"""Pipelined task-graph scheduling vs eager program order.

Thin shim over ``benchmarks/scenarios/pipeline_overlap.toml`` (body in
:mod:`repro.bench.pipeline`): the pipelined scheduler's starved-channel
overlap win plus the scheduler-equivalence guard.  See the module
docstring for the mechanism.  The ``ci`` scale shrinks the grids; the
floor relaxes slightly because fewer chunks amortise the pipeline
fill/drain less.

``python -m repro experiment run pipeline_overlap [--scale ci]`` runs
the scenario alone; ``python benchmarks/bench_pipeline_overlap.py
[--scale ci]`` also checks the floor and writes ``BENCH_pipeline.json``
at the repository root.
"""

from __future__ import annotations

from repro.bench.cells import run_records
from repro.bench.harness import bench_main
from repro.bench.pipeline import format_table


def check(result: dict) -> None:
    target = result["meta"]["target_speedup"]
    by_case = {c["case"]: c for c in result["cases"]}
    starved = by_case["hotspot_hdd_starved"]
    assert starved["speedup"] >= target, (
        f"pipelined scheduler only {starved['speedup']}x over eager on "
        f"the starved channel (floor {target}x)")
    eq = by_case["scheduler_equivalence"]
    assert eq["inorder_matches_eager"]
    for c in result["cases"]:
        assert c["results_identical"]


def test_pipeline_overlap():
    check(run_records("pipeline_overlap")[0])


if __name__ == "__main__":
    raise SystemExit(bench_main("pipeline_overlap", "BENCH_pipeline.json",
                                check, format_table))
