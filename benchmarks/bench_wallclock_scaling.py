"""Wall-clock scaling of the framework itself: indexed vs naive.

Thin shim over :mod:`repro.bench.wallclock` (the moved bench body, also
behind ``benchmarks/scenarios/wallclock_scaling.toml``): the 10k-interval
framework-ops scaling case, the app fan-out across the process pool,
and the compute-backend sweep.  See the module docstring for the cases.

``REPRO_WALLCLOCK_SCALE=ci`` shrinks the compute-backend sweep for
shared runners.  Writes ``BENCH_wallclock.json`` at the repository
root.  Run directly (``python benchmarks/bench_wallclock_scaling.py``)
or via pytest.
"""

from __future__ import annotations

from repro.bench.wallclock import (N_MOVES, RESULT_PATH, TARGET_SPEEDUP,
                                   format_table, run_bench)


def test_wallclock_scaling():
    result = run_bench()
    fw = result["framework_ops_scaling"]
    assert fw["intervals"] == 2 * N_MOVES
    assert fw["speedup"] >= TARGET_SPEEDUP, (
        f"indexed scheduler only {fw['speedup']}x over the naive baseline "
        f"on the {fw['intervals']}-interval scaling case")
    cb = result["compute_backends"]
    assert cb["results_identical"] and cb["virtual_time_identical"]


if __name__ == "__main__":
    out = run_bench()
    print(format_table(out))
    print(f"wrote {RESULT_PATH}")
