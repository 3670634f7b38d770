"""Wall-clock cost of physical data movement: zero-copy vs naive plane.

Thin shim over ``benchmarks/scenarios/dataplane.toml`` (body in
:mod:`repro.bench.dataplane`): bulk, contiguous, strided and scatter
moves in both planes plus the file-backed SortApp A/B, with the
speedup floors asserted here.  The ``ci`` scale shrinks the working
set and relaxes the mem->mem floor (shared CI runners jitter
small-buffer timings); the strided-file floor stands at every scale
because the baseline pays a file open per row.

``python -m repro experiment run dataplane [--scale ci]`` runs the
scenario alone; ``python benchmarks/bench_dataplane.py [--scale ci]``
also checks the floors and writes ``BENCH_dataplane.json`` at the
repository root.
"""

from __future__ import annotations

from repro.bench.cells import run_records
from repro.bench.dataplane import TARGET_STRIDED_SPEEDUP, format_table
from repro.bench.harness import bench_main


def check(result: dict) -> None:
    by_case = {c["case"]: c for c in result["cases"]}
    strided = by_case["strided_file_2d_gather"]
    assert strided["speedup"] >= TARGET_STRIDED_SPEEDUP, (
        f"vectored strided path only {strided['speedup']}x over the "
        f"per-row naive baseline")
    mem = by_case["mem_to_mem_bulk"]
    target_mem = result["meta"]["target_mem_speedup"]
    assert mem["speedup"] >= target_mem, (
        f"zero-copy mem->mem only {mem['speedup']}x over the "
        f"read/write baseline")
    for c in result["cases"]:
        assert c["bytes_identical"]


def test_dataplane():
    check(run_records("dataplane")[0])


if __name__ == "__main__":
    raise SystemExit(bench_main("dataplane", "BENCH_dataplane.json", check,
                                format_table))
