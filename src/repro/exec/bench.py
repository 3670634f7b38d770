"""The compute-backend scaling bench: backend x workers GEMM sweep.

One large-staging GEMM (the most kernel-dense app) is run once per
``(backend, workers)`` point: the inline reference first, then the
threaded pool at each worker count.  Two invariants are asserted on
every point:

* **byte-identical results** -- ``sha256(C)`` matches the inline run;
* **bit-identical virtual time** -- the makespan matches the inline
  run exactly (virtual charges stay on the simulator thread, so no
  backend may move them).

Only the *wall-clock* column is allowed to differ; it is recorded,
not gated.

Run as ``python -m repro exec-bench`` or through
``benchmarks/bench_wallclock_scaling.py`` (which embeds the sweep as
the ``compute_backends`` section of ``BENCH_wallclock.json``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from time import perf_counter

import numpy as np

from repro.bench import configs
from repro.core.system import System
from repro.errors import ConfigError
from repro.memory.units import MB

#: Scale knobs.  ``ci`` keeps the sweep to a couple of seconds on a
#: shared runner; ``full`` is the committed configuration.  ``workers``
#: is the pool-size ladder swept for each asynchronous backend.
SCALES: dict[str, dict] = {
    "ci": dict(gemm=dict(m=192, k=192, n=192, tile=64),
               staging_mb=4, workers=(2,), seed=3),
    "full": dict(gemm=dict(m=1024, k=1024, n=1024, tile=256),
                 staging_mb=8, workers=(1, 2, 4), seed=3),
}


def pick_scale(name: str | None = None) -> str:
    """CLI arg beats ``REPRO_WALLCLOCK_SCALE`` beats ``full``."""
    name = name or os.environ.get("REPRO_WALLCLOCK_SCALE", "full")
    if name not in SCALES:
        raise ConfigError(f"unknown exec-bench scale {name!r}; known: "
                          f"{sorted(SCALES)}")
    return name


def run_case(backend: str, workers: int, scale: dict) -> dict:
    """One timed GEMM on a fresh system with one executor config."""
    from repro.apps.gemm import GemmApp, GemmTiles
    from repro.exec.base import make_executor

    g = scale["gemm"]
    tree = configs.scaled_apu_tree("ssd", flop_bound_app=True,
                                   staging_bytes=scale["staging_mb"] * MB)
    # Caller-owned executor: System only closes pools it built itself,
    # so close this one explicitly after the system.
    executor = make_executor(backend, workers=workers)
    system = System(tree, executor=executor)
    try:
        t0 = perf_counter()
        app = GemmApp(system, m=g["m"], k=g["k"], n=g["n"],
                      seed=scale["seed"],
                      force_tiles=GemmTiles(tm=g["tile"], tn=g["tile"],
                                            tk=g["k"], reuse=True))
        app.run(system)
        wall = perf_counter() - t0
        digest = hashlib.sha256(
            np.ascontiguousarray(app.result()).tobytes()).hexdigest()
        stats = system.executor.stats
        row = {
            "name": f"{backend}x{system.executor.workers}",
            "backend": backend,
            "workers": system.executor.workers,
            "wall_s": round(wall, 6),
            "makespan_s": system.makespan(),
            "result_sha256": digest,
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
        }
        app.release_root_buffers()
        return row
    finally:
        system.close()
        executor.close()


def run_sweep(scale_name: str) -> dict:
    """The full sweep: inline reference plus every threaded point.

    Returns the ``compute_backends`` payload.  Raises if any point's
    result bytes or virtual makespan diverge from inline.
    """
    from repro.exec.base import effective_cpu_count

    scale = SCALES[scale_name]
    # Sweeping more pool workers than this process can schedule on
    # measures contention, not scaling: clamp the ladder to the usable
    # core count and record what was skipped.
    cores = effective_cpu_count()
    requested = tuple(scale["workers"])
    swept = tuple(w for w in requested if w <= cores) or (1,)
    skipped = tuple(w for w in requested if w not in swept)
    points = [("inline", 1)] + [("threaded", w) for w in swept]
    rows = [run_case(b, w, scale) for b, w in points]

    ref = rows[0]
    for row in rows[1:]:
        assert row["result_sha256"] == ref["result_sha256"], (
            f"{row['backend']}x{row['workers']} changed the result bytes")
        assert row["makespan_s"] == ref["makespan_s"], (
            f"{row['backend']}x{row['workers']} changed the virtual "
            f"makespan: {row['makespan_s']} != {ref['makespan_s']}")
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


def format_table(payload: dict) -> str:
    head = (f"{'backend':<9} {'workers':>7} {'wall_s':>9} {'kernels':>8} "
            f"{'dispatch_s':>11} {'merge_s':>8}")
    lines = [f"compute backends on {payload['case']} "
             f"({payload['meta']['cores']} cores):", head, "-" * len(head)]
    for row in payload["cases"]:
        lines.append(
            f"{row['backend']:<9} {row['workers']:>7d} {row['wall_s']:>9.4f} "
            f"{row['kernels']:>8d} {row['dispatch_s']:>11.4f} "
            f"{row['merge_s']:>8.4f}")
    lines.append("results byte-identical, makespans bit-identical")
    if "skipped_reason" in payload:
        lines.append(f"note: {payload['skipped_reason']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro exec-bench",
        description="compute-backend scaling bench "
                    "(inline vs threaded pool)")
    parser.add_argument("--scale", choices=sorted(SCALES), default=None,
                        help="bench scale (default: $REPRO_WALLCLOCK_SCALE "
                             "or 'full')")
    parser.add_argument("--out", default=None,
                        help="also write the sweep payload as JSON")
    args = parser.parse_args(argv)
    payload = run_sweep(pick_scale(args.scale))
    print(format_table(payload))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
