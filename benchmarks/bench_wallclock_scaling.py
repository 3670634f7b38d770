"""Wall-clock scaling of the framework itself: indexed vs naive.

Thin shim over ``benchmarks/scenarios/wallclock_scaling.toml`` (body in
:mod:`repro.bench.wallclock`): the 10k-interval framework-ops scaling
case, the app sweep and the compute-backend sweep, with the speedup
floor asserted here.  The ``ci`` scale shrinks the compute-backend
sweep.

``python -m repro experiment run wallclock_scaling [--scale ci]`` runs
the scenario alone; ``python benchmarks/bench_wallclock_scaling.py
[--scale ci]`` also checks the floor and writes ``BENCH_wallclock.json``
at the repository root.
"""

from __future__ import annotations

from repro.bench.cells import run_records
from repro.bench.harness import bench_main
from repro.bench.wallclock import N_MOVES, TARGET_SPEEDUP, format_table


def check(result: dict) -> None:
    fw = result["framework_ops_scaling"]
    assert fw["intervals"] == 2 * N_MOVES
    assert fw["speedup"] >= TARGET_SPEEDUP, (
        f"indexed scheduler only {fw['speedup']}x over the naive baseline "
        f"on the {fw['intervals']}-interval scaling case")
    cb = result["compute_backends"]
    assert cb["results_identical"] and cb["virtual_time_identical"]


def test_wallclock_scaling():
    check(run_records("wallclock_scaling")[0])


if __name__ == "__main__":
    raise SystemExit(bench_main("wallclock_scaling", "BENCH_wallclock.json",
                                check, format_table))
