"""The distributed-scaling bench: shard one plan, scale the workers.

Two sections, written as ``BENCH_distributed.json`` by
``benchmarks/bench_distributed_scaling.py`` (or printed by
``python -m repro dist-bench``):

* **equivalence** -- every paper app under
  :class:`~repro.dist.runner.DistributedScheduler` at each partition
  count, asserted **byte-identical** (result sha256) and
  **bit-identical** (virtual makespan, trace-interval count) to the
  in-order run.  Network disabled: this is the correctness contract,
  not the scaling story.
* **scaling** -- the virtual worker-count curve: each app runs once
  under ``InOrderScheduler(keep_plans=True)``, then
  :func:`~repro.dist.model.project_run` re-schedules the measured
  per-node costs onto 1..N worker lanes over the ``loopback``
  :class:`~repro.memory.network.NetworkChannel`.  Deterministic --
  no timing, safe to gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os

import numpy as np

from repro.core.scheduler import InOrderScheduler
from repro.core.system import System
from repro.dist.model import project_run
from repro.dist.runner import DistributedScheduler
from repro.errors import ConfigError
from repro.memory.network import NETWORK_PRESETS
from repro.memory.units import KB, MB
from repro.topology.builders import apu_two_level

#: Scale knobs.  ``ci`` keeps every section to seconds on a shared
#: runner; ``full`` is the committed configuration.  ``eq_workers`` is
#: the partition ladder of the equivalence section, ``ladder`` the
#: projected scaling curve.
SCALES: dict[str, dict] = {
    "ci": dict(eq_workers=(2,), ladder=(1, 2, 4),
               channel="loopback", strategy="chunk"),
    "full": dict(eq_workers=(2, 4), ladder=(1, 2, 4, 8),
                 channel="loopback", strategy="chunk"),
}


def pick_scale(name: str | None = None) -> str:
    """CLI arg beats ``REPRO_DIST_SCALE`` beats ``full``."""
    name = name or os.environ.get("REPRO_DIST_SCALE", "full")
    if name not in SCALES:
        raise ConfigError(f"unknown dist-bench scale {name!r}; known: "
                          f"{sorted(SCALES)}")
    return name


# -- app cases (the backend-equivalence suite's configurations) --------------

def _gemm(sys_):
    from repro.apps.gemm import GemmApp
    return GemmApp(sys_, m=128, k=128, n=128, seed=3)


def _hotspot(sys_):
    from repro.apps.hotspot import HotspotApp
    return HotspotApp(sys_, n=96, iterations=2, seed=4)


def _spmv(sys_):
    from repro.apps.spmv import SpmvApp
    from repro.workloads.sparse import powerlaw_rows
    return SpmvApp(sys_, matrix=powerlaw_rows(3000, 3000, alpha=1.5,
                                              max_row=512, seed=3),
                   seed=3)


def _sort(sys_):
    from repro.apps.sort import SortApp
    return SortApp(sys_, n=40_000, seed=3)


APP_CASES = {
    "gemm": (_gemm, lambda: apu_two_level(storage_capacity=8 * MB,
                                          staging_bytes=256 * KB)),
    "hotspot": (_hotspot, lambda: apu_two_level(storage_capacity=16 * MB,
                                                staging_bytes=128 * KB)),
    "spmv": (_spmv, lambda: apu_two_level(storage_capacity=16 * MB,
                                          staging_bytes=128 * KB)),
    "sort": (_sort, lambda: apu_two_level(storage_capacity=16 * MB,
                                          staging_bytes=128 * KB)),
}


def _run_app(name: str, *, executor: str | None = None, scheduler=None):
    """One app run on a backend name (``None`` = inline); returns
    ``(digest, makespan, intervals)``."""
    make_app, make_tree = APP_CASES[name]
    sys_ = System(make_tree(), executor=executor)
    try:
        app = make_app(sys_)
        app.run(sys_, scheduler=scheduler)
        digest = hashlib.sha256(
            np.ascontiguousarray(app.result()).tobytes()).hexdigest()
        return digest, sys_.makespan(), len(sys_.timeline.trace)
    finally:
        sys_.close()


# -- sections ----------------------------------------------------------------

def run_equivalence(scale: dict) -> dict:
    """Distributed vs in-order, every app, every partition count:
    byte-identical and bit-identical or it raises."""
    rows = []
    for name in sorted(APP_CASES):
        ref_digest, ref_makespan, ref_intervals = _run_app(name)
        for workers in scale["eq_workers"]:
            sched = DistributedScheduler(workers=workers,
                                         strategy=scale["strategy"])
            digest, makespan, intervals = _run_app(name, scheduler=sched)
            assert digest == ref_digest, (
                f"{name} x{workers} distributed changed the result bytes")
            assert makespan == ref_makespan, (
                f"{name} x{workers} distributed drifted virtual time: "
                f"{makespan} != {ref_makespan}")
            assert intervals == ref_intervals, (
                f"{name} x{workers} distributed changed the trace shape")
            parts = sched.partitionings[0]
            rows.append({
                "app": name,
                "workers": workers,
                "makespan_s": makespan,
                "result_identical": True,
                "makespan_identical": True,
                "trace_identical": True,
                "meta": {"partitioning": parts.stats()},
            })
    return {
        "apps": sorted(APP_CASES),
        "worker_counts": list(scale["eq_workers"]),
        "cases": rows,
        "results_identical": True,
        "virtual_time_identical": True,
    }


def run_scaling(scale: dict) -> dict:
    """The virtual scaling curve: measured node costs list-scheduled
    onto worker lanes over the modeled network channel."""
    channel = NETWORK_PRESETS[scale["channel"]]
    apps = {}
    for name in sorted(APP_CASES):
        make_app, make_tree = APP_CASES[name]
        sched = InOrderScheduler(keep_plans=True)
        sys_ = System(make_tree())
        try:
            app = make_app(sys_)
            app.run(sys_, scheduler=sched)
            rows = [project_run(sched.plans, workers=w, channel=channel,
                                strategy=scale["strategy"]).row()
                    for w in scale["ladder"]]
        finally:
            sys_.close()
        apps[name] = {"rows": rows, "serial_s": rows[0]["makespan_s"]}
    return {
        "channel": channel.describe(),
        "strategy": scale["strategy"],
        "worker_counts": list(scale["ladder"]),
        "apps": apps,
    }


def run_bench(scale_name: str) -> dict:
    scale = SCALES[scale_name]
    return {
        "scale": scale_name,
        "equivalence": run_equivalence(scale),
        "scaling": run_scaling(scale),
    }


def format_table(payload: dict) -> str:
    eq = payload["equivalence"]
    lines = [
        f"distributed equivalence ({len(eq['cases'])} cases, workers "
        f"{eq['worker_counts']}): results byte-identical, makespans "
        f"bit-identical",
        "",
        f"projected scaling over {payload['scaling']['channel']['name']} "
        f"({payload['scaling']['strategy']} partitions):",
    ]
    head = (f"{'app':<9} {'workers':>7} {'makespan_s':>12} {'speedup':>8} "
            f"{'ships':>6} {'net_s':>10}")
    lines += [head, "-" * len(head)]
    for name, app in payload["scaling"]["apps"].items():
        for row in app["rows"]:
            lines.append(
                f"{name:<9} {row['workers']:>7d} {row['makespan_s']:>12.6f} "
                f"{row['speedup']:>8.2f} {row['shipments']:>6d} "
                f"{row['net_s']:>10.6f}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro dist-bench",
        description="distributed task-graph execution bench "
                    "(equivalence + worker-count scaling curve)")
    parser.add_argument("--scale", choices=sorted(SCALES), default=None,
                        help="bench scale (default: $REPRO_DIST_SCALE "
                             "or 'full')")
    parser.add_argument("--out", default=None,
                        help="also write the payload as JSON")
    args = parser.parse_args(argv)
    payload = run_bench(pick_scale(args.scale))
    print(format_table(payload))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
