"""Pipelined task-graph scheduling vs eager program order.

The plan layer (:mod:`repro.plan`) lowers each level of the Listing-3
recursion into a task graph whose edges encode *every* cross-chunk data
dependency.  This bench measures what that buys: the
:class:`~repro.core.scheduler.PipelinedScheduler` dispatches any
edge-legal node, so chunk k+1's ``move_down`` can overlap chunk k's
``compute`` -- the multi-stage transfer overlap Section III-C's task
queues exist for.

The win shows on a *starved shared channel*: the hdd/ssd-class devices
model a half-duplex link (one ``{dev}.ch`` resource for both
directions), and with eager issue order chunk k's ``move_up`` books the
channel at a position that leaves only a compute-sized gap -- too short
for chunk k+1's ``move_down`` to backfill whenever compute is shorter
than the transfer.  The pipelined issue order (combine ranked before
move_up in :data:`repro.plan.graph.STAGE_RANK`) releases the window
edge first, so the next chunk's descent is booked back-to-back and the
channel stays saturated.

Cases (all virtual makespans, so CI timing noise cannot move them):

* **hotspot_hdd_starved** -- the acceptance case: HotSpot ghost-zone
  pipeline on hdd-class storage with a small staging budget (many
  chunks, C < D).  Floor: the per-scale target speedup.
* **hotspot_hdd_deep** -- deeper pipeline (steps_per_pass=8, depth=4):
  more compute per chunk residence, bigger overlap win (reported).
* **hotspot_ssd_shared** -- ssd-class storage: faster channel, same
  half-duplex sharing, smaller but present win (reported).
* **scheduler_equivalence** -- guard: on the starved config the
  InOrderScheduler's makespan is *hex-identical* to the eager driver's
  and all three schedulers produce identical result bytes.

The ``ci`` scale shrinks the grids; the floor relaxes slightly because
fewer chunks amortise the pipeline fill/drain less.  Run it as
``python -m repro experiment run pipeline_overlap [--scale ci]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.hotspot import HotspotApp
from repro.bench.configs import scaled_apu_tree
from repro.bench.harness import scale_params
from repro.core.scheduler import (EagerScheduler, InOrderScheduler,
                                  PipelinedScheduler)
from repro.core.system import System
from repro.memory.units import KB


@dataclass(frozen=True)
class _Params:
    grid_n: int
    iters: int
    spp: int
    depth: int
    deep_spp: int
    deep_depth: int
    staging: int
    #: Acceptance floor for the starved-channel case.  Full scale
    #: measures ~1.18x; CI scale (fewer chunks, more fill/drain share)
    #: ~1.11x.
    target_speedup: float


SCALES = {
    "ci": _Params(grid_n=256, iters=4, spp=4, depth=2, deep_spp=8,
                  deep_depth=4, staging=64 * KB, target_speedup=1.05),
    "full": _Params(grid_n=512, iters=4, spp=4, depth=2, deep_spp=8,
                    deep_depth=4, staging=256 * KB, target_speedup=1.10),
}


def _run(p: _Params, storage: str, scheduler, *, n: int, iterations: int,
         steps_per_pass: int, depth: int) -> tuple[float, bytes]:
    """One HotSpot run; returns (virtual makespan, result bytes)."""
    system = System(scaled_apu_tree(storage, staging_bytes=p.staging))
    try:
        app = HotspotApp(system, n=n, iterations=iterations,
                         steps_per_pass=steps_per_pass,
                         pipeline_depth=depth, seed=5)
        app.run(system, scheduler=scheduler)
        return system.makespan(), np.asarray(app.result()).tobytes()
    finally:
        system.close()


def _case(p: _Params, name: str, storage: str, *, steps_per_pass: int,
          depth: int) -> dict:
    kw = dict(n=p.grid_n, iterations=max(p.iters, steps_per_pass),
              steps_per_pass=steps_per_pass, depth=depth)
    eager_mk, eager_out = _run(p, storage, EagerScheduler(), **kw)
    pipe_mk, pipe_out = _run(p, storage, PipelinedScheduler(), **kw)
    assert pipe_out == eager_out, (
        f"{name}: pipelined schedule changed the result bytes")
    return {"case": name, "storage": storage, "n": kw["n"],
            "iterations": kw["iterations"],
            "steps_per_pass": steps_per_pass, "pipeline_depth": depth,
            "staging_bytes": p.staging,
            "eager_makespan_s": eager_mk,
            "pipelined_makespan_s": pipe_mk,
            "speedup": round(eager_mk / pipe_mk, 3),
            "results_identical": True}


def _case_equivalence(p: _Params) -> dict:
    """InOrder replay must be bit-identical to the eager driver."""
    kw = dict(n=p.grid_n, iterations=p.iters, steps_per_pass=p.spp,
              depth=p.depth)
    eager_mk, eager_out = _run(p, "hdd", EagerScheduler(), **kw)
    inorder_mk, inorder_out = _run(p, "hdd", InOrderScheduler(), **kw)
    pipe_mk, pipe_out = _run(p, "hdd", PipelinedScheduler(), **kw)
    assert float(inorder_mk).hex() == float(eager_mk).hex(), (
        f"in-order lowering changed the virtual makespan: "
        f"{eager_mk!r} != {inorder_mk!r}")
    assert inorder_out == eager_out, (
        "in-order lowering changed the result bytes")
    assert pipe_out == eager_out, (
        "pipelined schedule changed the result bytes")
    return {"case": "scheduler_equivalence", "storage": "hdd",
            "n": kw["n"], "iterations": p.iters, "steps_per_pass": p.spp,
            "pipeline_depth": p.depth, "staging_bytes": p.staging,
            "eager_makespan_s": eager_mk,
            "inorder_makespan_s": inorder_mk,
            "pipelined_makespan_s": pipe_mk,
            "inorder_matches_eager": True,
            "results_identical": True}


def run_bench(scale: str) -> dict:
    p = scale_params(SCALES, scale, "pipeline")
    return {
        "cases": [
            _case(p, "hotspot_hdd_starved", "hdd", steps_per_pass=p.spp,
                  depth=p.depth),
            _case(p, "hotspot_hdd_deep", "hdd", steps_per_pass=p.deep_spp,
                  depth=p.deep_depth),
            _case(p, "hotspot_ssd_shared", "ssd", steps_per_pass=p.spp,
                  depth=p.depth),
            _case_equivalence(p),
        ],
        "meta": {"scale": scale, "target_speedup": p.target_speedup},
    }


def format_table(result: dict) -> str:
    lines = []
    for c in result["cases"]:
        if "speedup" in c:
            lines.append(f"{c['case']:>24}: eager "
                         f"{c['eager_makespan_s'] * 1e3:.3f} ms -> "
                         f"pipelined "
                         f"{c['pipelined_makespan_s'] * 1e3:.3f} ms "
                         f"({c['speedup']}x)")
        else:
            lines.append(f"{c['case']:>24}: in-order == eager "
                         f"({c['eager_makespan_s'] * 1e3:.3f} ms)")
    return "\n".join(lines)
