"""Wall-clock scaling of the framework itself: indexed vs naive.

The figure benches measure *virtual* time; this bench measures the real
seconds the framework spends producing it, before and after the indexed
scheduler:

* **framework-ops scaling** -- the 10k-interval case: 5 000 ``move_down``
  calls against one timeline without resets (2 trace intervals each).
  The retained naive reference slot
  (:mod:`repro.sim.reference`) is the honest pre-change baseline: its
  linear gap scan is quadratic in booked intervals, which is exactly
  what the indexed slot removed.  The same sweep is also charged through
  :meth:`~repro.core.system.System.move_down_batch` to show what the
  batched path saves on top.
* **application scaling** -- the three paper apps at shrinking staging
  sizes (more chunks, more framework ops per run), fanned across a
  process pool by :mod:`repro.bench.parallel` and merged
  deterministically.
* **compute backends** -- the :mod:`repro.exec.bench` sweep: one
  large-staging GEMM per ``(backend, workers)`` point, asserting
  byte-identical results and bit-identical makespans across the inline
  and threaded executors before recording their wall times.
  ``REPRO_WALLCLOCK_SCALE=ci`` shrinks this sweep for shared runners.

Virtual results must not move: the bench asserts bit-identical makespans
between the naive and indexed schedulers for every compared case.
:func:`run_bench` writes ``BENCH_wallclock.json`` at the repository
root unless ``write_path=None``; the ``benchmarks/`` shim and
``python -m repro`` entry points call it.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from time import perf_counter

from repro.apps import GemmApp, HotspotApp, SpmvApp
from repro.bench import configs
from repro.bench.parallel import default_workers, run_parallel
from repro.core.system import BatchMove, System
from repro.exec import bench as exec_bench
from repro.memory.units import KB, MB
from repro.sim.reference import naive_timeline
from repro.topology.builders import apu_two_level
from repro.workloads.sparse import preset

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))
RESULT_PATH = os.path.join(REPO_ROOT, "BENCH_wallclock.json")

#: 2 trace intervals per move -> the 10k-interval scaling case.
N_MOVES = 5_000
CHUNK_BYTES = 4 * KB
#: The optimisation's acceptance bar on the scaling case.
TARGET_SPEEDUP = 5.0
#: Default staging is 8 MB at bench scale; halving it doubles chunks.
STAGING_SWEEP = (8 * MB, 4 * MB, 2 * MB)


# -- framework-ops scaling ----------------------------------------------------

def _framework_ops_case(scheduler: str) -> dict:
    """One timed sweep of N_MOVES move_downs on a fresh system.

    ``scheduler`` is ``"naive"`` (reference slots, per-move loop),
    ``"indexed"`` (per-move loop) or ``"batched"`` (indexed slots, one
    ``move_down_batch`` call).
    """
    system = System(apu_two_level(storage_capacity=256 * MB,
                                  staging_bytes=64 * MB))
    if scheduler == "naive":
        system.timeline = naive_timeline()
    try:
        root, leaf = system.tree.root, system.tree.leaves()[0]
        src = system.alloc(CHUNK_BYTES, root)
        dst = system.alloc(CHUNK_BYTES, leaf)
        system.reset_time()
        t0 = perf_counter()
        if scheduler == "batched":
            system.move_down_batch([BatchMove(dst, src, CHUNK_BYTES)
                                    for _ in range(N_MOVES)])
        else:
            for _ in range(N_MOVES):
                system.move_down(dst, src, CHUNK_BYTES)
        wall = perf_counter() - t0
        return {"scheduler": scheduler, "wall_s": wall,
                "makespan_s": system.makespan(),
                "trace_intervals": len(system.timeline.trace)}
    finally:
        system.close()


# -- application scaling ------------------------------------------------------

def _app_case(args: tuple) -> dict:
    """One app run; module-level so the process pool can pickle it."""
    app_name, staging_bytes, scheduler = args
    scale = configs.DEFAULT_SCALE
    tree = configs.scaled_apu_tree("ssd",
                                   flop_bound_app=(app_name == "gemm"),
                                   staging_bytes=staging_bytes)
    system = System(tree)
    if scheduler == "naive":
        system.timeline = naive_timeline()
    try:
        t0 = perf_counter()
        if app_name == "gemm":
            app = GemmApp(system, m=scale.gemm_n, k=scale.gemm_n,
                          n=scale.gemm_n, seed=scale.seed)
        elif app_name == "hotspot":
            app = HotspotApp(system, n=scale.hotspot_n,
                             iterations=scale.hotspot_iterations,
                             steps_per_pass=scale.hotspot_steps_per_pass,
                             seed=scale.seed)
        else:
            app = SpmvApp(system,
                          matrix=preset(scale.spmv_preset,
                                        nrows=scale.spmv_rows,
                                        seed=scale.seed),
                          seed=scale.seed)
        app.run(system)
        wall = perf_counter() - t0
        return {"app": app_name, "staging_mb": staging_bytes // MB,
                "scheduler": scheduler, "wall_s": round(wall, 6),
                "makespan_s": system.makespan(),
                "trace_intervals": len(system.timeline.trace)}
    finally:
        system.close()


# -- the bench ----------------------------------------------------------------

def run_bench(workers: int | None = None, *,
              scale_name: str | None = None,
              write_path: str | None = RESULT_PATH) -> dict:
    """Run every case, assert virtual parity, write the JSON report.

    ``scale_name`` selects the compute-backend sweep size (``None``
    defers to ``REPRO_WALLCLOCK_SCALE``); the framework-ops and app
    cases are fixed-size.
    """
    # Timing-sensitive single-timeline cases run sequentially.
    naive = _framework_ops_case("naive")
    indexed = _framework_ops_case("indexed")
    batched = _framework_ops_case("batched")
    assert naive["makespan_s"] == indexed["makespan_s"], (
        "indexed scheduler changed virtual time on the scaling case: "
        f"{naive['makespan_s']} != {indexed['makespan_s']}")
    speedup = naive["wall_s"] / indexed["wall_s"]

    # Independent app configs fan out across the process pool.
    app_configs = [(app, staging, "indexed")
                   for app in ("gemm", "hotspot", "spmv")
                   for staging in STAGING_SWEEP]
    app_configs += [(app, STAGING_SWEEP[0], "naive")
                    for app in ("gemm", "hotspot", "spmv")]
    if workers is None:
        workers = default_workers()
    rows = run_parallel(_app_case, app_configs, workers=workers)
    by_key = {(r["app"], r["staging_mb"], r["scheduler"]): r for r in rows}
    for app in ("gemm", "hotspot", "spmv"):
        a = by_key[(app, STAGING_SWEEP[0] // MB, "indexed")]
        b = by_key[(app, STAGING_SWEEP[0] // MB, "naive")]
        assert a["makespan_s"] == b["makespan_s"], (
            f"indexed scheduler changed {app}'s virtual makespan: "
            f"{a['makespan_s']} != {b['makespan_s']}")

    # The compute-backend sweep runs sequentially after the app fan-out
    # (its wall-clock points need the machine to themselves).  It
    # asserts its own invariants: byte-identical results and
    # bit-identical makespans.
    backends = exec_bench.run_sweep(scale_name or exec_bench.pick_scale())

    result = {
        "framework_ops_scaling": {
            "moves": N_MOVES,
            "intervals": indexed["trace_intervals"],
            "baseline_naive_s": round(naive["wall_s"], 6),
            "indexed_s": round(indexed["wall_s"], 6),
            "indexed_batched_s": round(batched["wall_s"], 6),
            "speedup": round(speedup, 2),
            "makespan_s": indexed["makespan_s"],
            "virtual_time_identical": True,
        },
        "apps": rows,
        "compute_backends": backends,
        "meta": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "workers": workers,
            "target_speedup": TARGET_SPEEDUP,
        },
    }
    if write_path is not None:
        with open(write_path, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    return result


def format_table(result: dict) -> str:
    fw = result["framework_ops_scaling"]
    lines = [f"framework ops ({fw['intervals']} intervals): "
             f"naive {fw['baseline_naive_s']}s -> indexed "
             f"{fw['indexed_s']}s (batched {fw['indexed_batched_s']}s), "
             f"{fw['speedup']}x"]
    for row in result["apps"]:
        lines.append(f"{row['app']:>8} staging={row['staging_mb']}MB "
                     f"[{row['scheduler']}]: {row['wall_s']}s wall, "
                     f"makespan {row['makespan_s']:.6f}s")
    lines.append(exec_bench.format_table(result["compute_backends"]))
    return "\n".join(lines)
