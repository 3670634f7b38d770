"""Distributed task-graph scaling: one plan sharded across workers.

Thin shim over ``benchmarks/scenarios/distributed_scaling.toml`` (body
in :mod:`repro.dist.bench`):

* **equivalence** -- all four paper apps under the distributed
  scheduler, asserted byte-identical (results) and bit-identical
  (virtual makespans, trace shape) to the in-order run at every
  partition count;
* **scaling** -- the projected worker-count curve per app over the
  modeled loopback network channel (deterministic virtual numbers).

``python -m repro experiment run distributed_scaling [--scale ci]``
runs the scenario alone; ``python benchmarks/bench_distributed_scaling.py
[--scale ci]`` also checks the curves and writes
``BENCH_distributed.json`` at the repository root.
"""

from __future__ import annotations

from repro.bench.cells import run_records
from repro.bench.harness import bench_main
from repro.dist.bench import format_table


def check(result: dict) -> None:
    eq = result["equivalence"]
    assert eq["results_identical"] and eq["virtual_time_identical"]
    for name, app in result["scaling"]["apps"].items():
        rows = app["rows"]
        assert rows[0]["workers"] == 1
        assert rows[0]["speedup"] == 1.0
        assert max(r["speedup"] for r in rows) >= 1.0, (
            f"{name}: projected distribution should never lose to serial")


def test_distributed_scaling():
    check(run_records("distributed_scaling")[0])


if __name__ == "__main__":
    raise SystemExit(bench_main("distributed_scaling",
                                "BENCH_distributed.json", check,
                                format_table))
