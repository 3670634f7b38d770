"""Distributed task-graph scaling: one plan sharded across workers.

Wraps :mod:`repro.dist.bench` and writes ``BENCH_distributed.json`` at
the repository root:

* **equivalence** -- all four paper apps under the distributed
  scheduler, asserted byte-identical (results) and bit-identical
  (virtual makespans, trace shape) to the in-order run at every
  partition count;
* **scaling** -- the projected worker-count curve per app over the
  modeled loopback network channel (deterministic virtual numbers).

``REPRO_DIST_SCALE=ci`` shrinks the sweep for shared runners.  Run
directly (``python benchmarks/bench_distributed_scaling.py``) or via
pytest (``pytest benchmarks/bench_distributed_scaling.py``).
"""

from __future__ import annotations

import json
import os
import platform
import sys

from repro.dist import bench as dist_bench

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_PATH = os.path.join(REPO_ROOT, "BENCH_distributed.json")


def run_bench() -> dict:
    scale_name = dist_bench.pick_scale()
    result = dist_bench.run_bench(scale_name)
    result["meta"] = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }
    with open(RESULT_PATH, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return result


def test_distributed_scaling():
    result = run_bench()
    eq = result["equivalence"]
    assert eq["results_identical"] and eq["virtual_time_identical"]
    for name, app in result["scaling"]["apps"].items():
        rows = app["rows"]
        assert rows[0]["workers"] == 1
        assert rows[0]["speedup"] == 1.0
        assert max(r["speedup"] for r in rows) >= 1.0, (
            f"{name}: projected distribution should never lose to serial")


if __name__ == "__main__":
    out = run_bench()
    print(dist_bench.format_table(out))
    print(f"wrote {RESULT_PATH}")
