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
  sizes (more chunks, more framework ops per run), each naive-vs-indexed
  pair timed as one alternating A/B measurement.
* **compute backends** -- one large-staging GEMM per ``(backend,
  workers)`` point, asserting byte-identical results and bit-identical
  makespans across the inline and threaded executors before recording
  their wall times.  The ``ci`` scale shrinks this sweep; the other
  sections are fixed-size.

Every wall time is the median of :func:`repro.bench.harness.measure`
with its spread under the entry's ``meta``.  Virtual results must not
move: the bench asserts bit-identical makespans between the naive and
indexed schedulers for every compared case.  Run it as
``python -m repro experiment run wallclock_scaling [--scale ci]``.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager

import numpy as np

from repro.apps import GemmApp, HotspotApp, SpmvApp
from repro.bench import configs
from repro.bench.harness import measure, scale_params
from repro.core.system import BatchMove, System
from repro.memory.units import KB, MB
from repro.sim.reference import naive_timeline
from repro.topology.builders import apu_two_level
from repro.workloads.sparse import preset

#: 2 trace intervals per move -> the 10k-interval scaling case.
N_MOVES = 5_000
CHUNK_BYTES = 4 * KB
#: The optimisation's acceptance bar on the scaling case.
TARGET_SPEEDUP = 5.0
#: Default staging is 8 MB at bench scale; halving it doubles chunks.
STAGING_SWEEP = (8 * MB, 4 * MB, 2 * MB)
APPS = ("gemm", "hotspot", "spmv")

#: Compute-backend sweep sizes.  ``ci`` keeps the sweep to a couple of
#: seconds on a shared runner; ``full`` is the committed configuration.
#: ``workers`` is the pool-size ladder swept for the threaded backend.
SCALES: dict[str, dict] = {
    "ci": dict(gemm=dict(m=192, k=192, n=192, tile=64),
               staging_mb=4, workers=(2,), seed=3),
    "full": dict(gemm=dict(m=1024, k=1024, n=1024, tile=256),
                 staging_mb=8, workers=(1, 2, 4), seed=3),
}


# -- framework-ops scaling ----------------------------------------------------

@contextmanager
def _framework_ops(scheduler: str):
    """One sweep of N_MOVES move_downs on a fresh system.

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
        row: dict = {}

        def run() -> dict:
            if scheduler == "batched":
                system.move_down_batch([BatchMove(dst, src, CHUNK_BYTES)
                                        for _ in range(N_MOVES)])
            else:
                for _ in range(N_MOVES):
                    system.move_down(dst, src, CHUNK_BYTES)
            return row

        yield run
        row["makespan_s"] = system.makespan()
        row["trace_intervals"] = len(system.timeline.trace)
    finally:
        system.close()


# -- application scaling ------------------------------------------------------

@contextmanager
def _app_run(app_name: str, staging_bytes: int, scheduler: str):
    """One app construction and run on a fresh system."""
    scale = configs.DEFAULT_SCALE
    tree = configs.scaled_apu_tree("ssd",
                                   flop_bound_app=(app_name == "gemm"),
                                   staging_bytes=staging_bytes)
    system = System(tree)
    if scheduler == "naive":
        system.timeline = naive_timeline()
    try:
        row: dict = {}

        def run() -> dict:
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
            return row

        yield run
        row["makespan_s"] = system.makespan()
        row["trace_intervals"] = len(system.timeline.trace)
    finally:
        system.close()


def _app_rows() -> list[dict]:
    """Every app at every staging size on the indexed scheduler, then
    the naive reference at the default staging size."""
    indexed, naive = [], []
    for app in APPS:
        for staging in STAGING_SWEEP:
            schedulers = ("indexed", "naive") if staging == STAGING_SWEEP[0] \
                else ("indexed",)
            timed = measure({s: (lambda s=s: _app_run(app, staging, s))
                             for s in schedulers}, repeats=3)
            for s, m in timed.items():
                (indexed if s == "indexed" else naive).append({
                    "app": app, "staging_mb": staging // MB, "scheduler": s,
                    "wall_s": round(m.median, 6), **m.result,
                    "meta": {"wall_s": m.spread()}})
            if "naive" in timed:
                a, b = (timed[s].result["makespan_s"] for s in schedulers)
                assert a == b, (f"indexed scheduler changed {app}'s "
                                f"virtual makespan: {a} != {b}")
    return indexed + naive


# -- compute backends ---------------------------------------------------------

@contextmanager
def _gemm_run(backend: str, workers: int, scale: dict):
    """One GEMM on a fresh system with one executor config."""
    from repro.apps.gemm import GemmTiles
    from repro.exec.base import make_executor

    g = scale["gemm"]
    tree = configs.scaled_apu_tree("ssd", flop_bound_app=True,
                                   staging_bytes=scale["staging_mb"] * MB)
    # Caller-owned executor: System only closes pools it built itself,
    # so close this one explicitly after the system.
    executor = make_executor(backend, workers=workers)
    system = System(tree, executor=executor)
    try:
        row: dict = {}

        def run() -> dict:
            app = GemmApp(system, m=g["m"], k=g["k"], n=g["n"],
                          seed=scale["seed"],
                          force_tiles=GemmTiles(tm=g["tile"], tn=g["tile"],
                                                tk=g["k"], reuse=True))
            app.run(system)
            row["app"] = app
            return row

        yield run
        app = row.pop("app")
        stats = system.executor.stats
        row.update({
            "makespan_s": system.makespan(),
            "result_sha256": hashlib.sha256(np.ascontiguousarray(
                app.result()).tobytes()).hexdigest(),
            "kernels": stats.completed,
            "dispatch_s": round(stats.dispatch_seconds, 6),
            "merge_s": round(stats.merge_seconds, 6),
            # Which worker picked up which task is a scheduling race,
            # not an invariant -- regress ignores "meta" subtrees.
            "meta": {
                "bytes_in": stats.bytes_in,
                "bytes_out": stats.bytes_out,
                "worker_busy_s": {
                    w: round(s, 6)
                    for w, s in sorted(stats.worker_busy.items())},
                "worker_tasks": dict(sorted(stats.worker_tasks.items())),
            },
        })
        app.release_root_buffers()
    finally:
        system.close()
        executor.close()


def _backend_sweep(scale_name: str, scale: dict) -> dict:
    """The inline reference plus every threaded point, as one
    alternating measurement.

    Returns the ``compute_backends`` payload.  Raises if any point's
    result bytes or virtual makespan diverge from inline.
    """
    from repro.exec.base import effective_cpu_count

    # Sweeping more pool workers than this process can schedule on
    # measures contention, not scaling: clamp the ladder to the usable
    # core count and record what was skipped.
    cores = effective_cpu_count()
    requested = tuple(scale["workers"])
    swept = tuple(w for w in requested if w <= cores) or (1,)
    skipped = tuple(w for w in requested if w not in swept)
    points = [("inline", 1)] + [("threaded", w) for w in swept]
    timed = measure({f"{b}x{w}": (lambda b=b, w=w: _gemm_run(b, w, scale))
                     for b, w in points}, repeats=3)
    rows = []
    for (backend, workers), (name, m) in zip(points, timed.items()):
        row = {"name": name, "backend": backend, "workers": workers,
               "wall_s": round(m.median, 6), **m.result}
        row["meta"]["wall_s"] = m.spread()
        rows.append(row)

    ref = rows[0]
    for row in rows[1:]:
        assert row["result_sha256"] == ref["result_sha256"], (
            f"{row['name']} changed the result bytes")
        assert row["makespan_s"] == ref["makespan_s"], (
            f"{row['name']} changed the virtual makespan: "
            f"{row['makespan_s']} != {ref['makespan_s']}")
    g = scale["gemm"]
    payload = {
        "scale": scale_name,
        "case": f"gemm {g['m']}x{g['k']}x{g['n']} "
                f"tile {g['tile']}, staging {scale['staging_mb']}MB",
        "cases": rows,
        "results_identical": True,
        "virtual_time_identical": True,
        # The core count is a machine fact, not a bench invariant --
        # regress ignores "meta" subtrees.
        "meta": {"cores": cores},
    }
    # Only present on clamped hosts: the key's absence is the normal
    # shape, so full-core runs match the committed baselines exactly.
    if skipped:
        payload["skipped_reason"] = (
            f"worker counts {list(skipped)} skipped: only {cores} usable "
            f"core(s) (swept {list(swept)} of requested {list(requested)})")
    return payload


# -- the bench ----------------------------------------------------------------

def run_bench(scale: str) -> dict:
    """Run every section and assert virtual parity.

    ``scale`` sizes the compute-backend sweep; the framework-ops and app
    sections are fixed-size.
    """
    backends = scale_params(SCALES, scale, "wallclock")
    timed = measure({s: (lambda s=s: _framework_ops(s))
                     for s in ("naive", "indexed", "batched")}, repeats=3)
    naive, indexed = timed["naive"], timed["indexed"]
    assert naive.result["makespan_s"] == indexed.result["makespan_s"], (
        "indexed scheduler changed virtual time on the scaling case: "
        f"{naive.result['makespan_s']} != {indexed.result['makespan_s']}")
    return {
        "framework_ops_scaling": {
            "moves": N_MOVES,
            "intervals": indexed.result["trace_intervals"],
            "baseline_naive_s": round(naive.median, 6),
            "indexed_s": round(indexed.median, 6),
            "indexed_batched_s": round(timed["batched"].median, 6),
            "speedup": round(naive.median / indexed.median, 2),
            "makespan_s": indexed.result["makespan_s"],
            "virtual_time_identical": True,
            "meta": {"baseline_naive_s": naive.spread(),
                     "indexed_s": indexed.spread(),
                     "indexed_batched_s": timed["batched"].spread()},
        },
        "apps": _app_rows(),
        # Runs last, alone: its threaded points need the cores to
        # themselves.
        "compute_backends": _backend_sweep(scale, backends),
        "meta": {"target_speedup": TARGET_SPEEDUP},
    }


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
    cb = result["compute_backends"]
    head = (f"{'backend':<9} {'workers':>7} {'wall_s':>9} {'kernels':>8} "
            f"{'dispatch_s':>11} {'merge_s':>8}")
    lines += [f"compute backends on {cb['case']} "
              f"({cb['meta']['cores']} cores):", head, "-" * len(head)]
    for row in cb["cases"]:
        lines.append(
            f"{row['backend']:<9} {row['workers']:>7d} {row['wall_s']:>9.4f} "
            f"{row['kernels']:>8d} {row['dispatch_s']:>11.4f} "
            f"{row['merge_s']:>8.4f}")
    lines.append("results byte-identical, makespans bit-identical")
    if "skipped_reason" in cb:
        lines.append(f"note: {cb['skipped_reason']}")
    return "\n".join(lines)
