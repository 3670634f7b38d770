"""Cell runners: the bench families, one scenario cell at a time.

Every runner here is a module-level ``fn(**params) -> dict`` registered
with :mod:`repro.tools.experiment.registry`, so the experiment harness
can expand a scenario matrix over it and fan cells across the
:mod:`repro.bench.parallel` pool.  Records are JSON-able; virtual
metrics sit at the top level (deterministic, regress-comparable) while
wall-clock measurements go under a ``meta`` key, which
:mod:`repro.obs.regress` ignores.  The whole-bench families at the end
return their bench's ``BENCH_*.json`` payload unchanged.

The ``benchmarks/bench_*.py`` shims run the same scenarios through
:func:`run_records` and assert the paper shapes on the records.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from dataclasses import asdict
from typing import Any

from repro.bench import configs, figures
from repro.bench.harness import measure
from repro.errors import ConfigError
from repro.tools.experiment.registry import register


def run_records(scenario_name: str, out_dir: str | None = None, *,
                scale: str | None = None,
                workers: int = 1) -> list[dict[str, Any]]:
    """Run a committed scenario and return its cell records in plan
    order -- the entry point the bench shims share.  Without
    ``out_dir`` the artifact goes to a temporary directory."""
    from repro.tools.experiment.config import find_scenario, load_scenario
    from repro.tools.experiment.runner import run_scenario
    scenario = load_scenario(find_scenario(scenario_name))
    with tempfile.TemporaryDirectory(prefix="repro_records_") as tmp:
        result = run_scenario(scenario, out_dir=out_dir or tmp,
                              scale=scale, workers=workers)
    return [cell["record"] for cell in result.summary["cells"]]


# -- Figures 6/7/8/9 ----------------------------------------------------------

@register("fig6")
def fig6_cell(app: str, config: str, scale: str = "full") -> dict:
    """One Figure 6 bar: ``app`` on ``config`` (in-memory/ssd/hdd)."""
    sc = configs.scale_named(scale)
    if config == "in-memory":
        res = figures._run_baseline(app, sc)
    else:
        res = figures._run_app(app, figures._apu_tree_for(app, config),
                               config, sc)
    return {"app": app, "config": config, "makespan_s": res.makespan,
            "verified": res.verified}


@register("fig7")
def fig7_cell(app: str, storage: str, scale: str = "full") -> dict:
    """One Figure 7 breakdown: ``app`` on the 2-level APU tree."""
    sc = configs.scale_named(scale)
    res = figures._run_app(app, figures._apu_tree_for(app, storage),
                           storage, sc)
    return {"app": app, "storage": storage, "makespan_s": res.makespan,
            "verified": res.verified, "shares": res.breakdown.shares(),
            "dev_transfer_share": res.breakdown.dev_transfer_share}


@register("fig8")
def fig8_cell(app: str, scale: str = "full") -> dict:
    """One Figure 8 breakdown: ``app`` on the 3-level discrete-GPU tree."""
    sc = configs.scale_named(scale)
    tree = configs.scaled_dgpu_tree("hdd", flop_bound_app=(app == "gemm"))
    res = figures._run_app(app, tree, "hdd+dgpu", sc)
    shares = res.breakdown.shares()
    shares["dev_transfer"] = res.breakdown.dev_transfer_share
    return {"app": app, "storage": "hdd+dgpu", "makespan_s": res.makespan,
            "verified": res.verified, "shares": shares,
            "dev_transfer_share": res.breakdown.dev_transfer_share,
            "dev_transfer_busy_s": res.breakdown.dev_transfer,
            "io_busy_s": res.breakdown.io}


@register("fig9")
def fig9_cell(app: str, scale: str = "full") -> dict:
    """One Figure 9 series: project ``app``'s SSD run up the storage
    ladder and measure the remaining gap to in-memory."""
    from repro.emulator.projection import sweep
    sc = configs.scale_named(scale)
    base = figures._run_baseline(app, sc)
    res = figures._run_app(app, figures._apu_tree_for(app, "ssd"), "ssd",
                           sc)
    ssd_latency = (configs.device_spec("ssd").latency
                   / configs.BYTE_SCALE)
    projections = sweep(res.io_profile, configs.FIG9_LADDER,
                        latency=ssd_latency)
    io0, ov0 = projections[0].io_time, projections[0].overall
    return {"app": app, "verified": base.verified and res.verified,
            "in_memory_s": base.makespan,
            "io_norm": [p.io_time / io0 for p in projections],
            "overall_norm": [p.overall / ov0 for p in projections],
            "gap_to_in_memory":
                projections[-1].overall / base.makespan - 1.0}


# -- Figure 11 / the tuner's workload -----------------------------------------

def _parse_input(value: str) -> tuple[int, int]:
    try:
        m, n = value.lower().split("x")
        return int(m), int(n)
    except ValueError:
        raise ConfigError(f"fig11 input must look like '2048x512', "
                          f"got {value!r}") from None


@register("fig11")
def fig11_cell(input: str, gpu_queues: int, cpu_threads: int = 4,
               steps_per_chunk: int = configs.FIG11_STEPS_PER_CHUNK
               ) -> dict:
    """One Figure 11 point: HotSpot CPU+GPU work stealing vs GPU-only,
    with critical-path attribution of the binding resource."""
    from repro.core.stealing import StealConfig, simulate, speedup_vs_gpu_only
    from repro.obs.spans import Observer
    from repro.tools.autotune import binding_from_trace
    m, n = _parse_input(input)
    cfg = StealConfig(
        matrix_dim=m, chunk_dim=n, gpu_queues=int(gpu_queues),
        cpu_threads=int(cpu_threads),
        gpu_cells_per_s=configs.FIG11_GPU_CELLS_PER_S,
        cpu_cells_per_s=configs.FIG11_CPU_CELLS_PER_S,
        ssd_read_bw=1400e6, ssd_write_bw=600e6,
        steps_per_chunk=int(steps_per_chunk))
    observer = Observer()
    stats = simulate(cfg, observer=observer)
    binding, attribution = binding_from_trace(observer.trace)
    return {"matrix_dim": m, "chunk_dim": n, "gpu_queues": cfg.gpu_queues,
            "cpu_threads": cfg.cpu_threads,
            "steps_per_chunk": cfg.steps_per_chunk,
            "makespan_s": stats.makespan,
            "speedup": speedup_vs_gpu_only(cfg),
            "steals": stats.steals,
            "cpu_share": stats.tasks_cpu / stats.tasks_total,
            "binding": binding, "attribution": attribution}


# -- Section V-B overhead + ablations -----------------------------------------

@register("overhead")
def overhead_cell(app: str, scale: str = "full") -> dict:
    """Runtime bookkeeping share of one app (Section V-B)."""
    row = figures.runtime_overhead(configs.scale_named(scale),
                                   apps=(app,))[0]
    return {"app": app, "runtime_fraction": row.runtime_fraction,
            "runtime_ops": row.runtime_ops}


_ABLATIONS = {
    "gemm_reuse": figures.ablation_gemm_reuse,
    "hotspot_fusion": figures.ablation_hotspot_fusion,
    "pipeline_depth": figures.ablation_pipeline_depth,
    "blocking_size": figures.ablation_blocking_size,
}


@register("ablation")
def ablation_cell(ablation: str, scale: str = "full") -> dict:
    """One design-choice ablation family (all its variants)."""
    try:
        fn = _ABLATIONS[ablation]
    except KeyError:
        raise ConfigError(f"unknown ablation {ablation!r}; known: "
                          f"{sorted(_ABLATIONS)}") from None
    rows = fn(configs.scale_named(scale))
    return {"ablation": ablation, "rows": [asdict(r) for r in rows]}


@register("cache_policy")
def cache_policy_cell(scale: str = "full") -> dict:
    """The buffer-cache policy ablation (all apps x variants)."""
    rows = figures.ablation_cache_policies(configs.scale_named(scale))
    return {"rows": [asdict(r) for r in rows]}


# -- Forward-looking analyses -------------------------------------------------

@register("future_generation")
def future_generation_cell(app: str, storage: str,
                           scale: str = "full") -> dict:
    """One (app, storage generation) slowdown point (Section V-D)."""
    sc = configs.scale_named(scale)
    base = figures._run_baseline(app, sc)
    res = figures._run_app(app, figures._apu_tree_for(app, storage),
                           storage, sc)
    return {"app": app, "storage": storage,
            "verified": base.verified and res.verified,
            "slowdown": res.makespan / base.makespan}


@register("future_spmv")
def future_spmv_cell(scale: str = "full") -> dict:
    """SpMV sharding strategy vs input structure (Section IV-C)."""
    from repro.bench.future import spmv_input_structures
    rows = spmv_input_structures(configs.scale_named(scale))
    return {"rows": [asdict(r) for r in rows]}


# -- Library apps -------------------------------------------------------------

@register("library_reduce")
def library_reduce_cell(storage: str, n: int = 2_000_000) -> dict:
    """Out-of-core reduction: one storage generation."""
    import numpy as np
    from repro.apps.reduce import ReduceApp
    from repro.core.system import System
    from repro.sim.trace import Phase
    system = System(configs.scaled_apu_tree(storage))
    try:
        app = ReduceApp(system, n=int(n), op="l2", seed=2019)
        app.run(system)
        verified = app.result() == np.float64(app.reference())
        bd = system.breakdown()
        return {"storage": storage, "n": int(n),
                "makespan_s": system.makespan(), "verified": bool(verified),
                "io_read_bytes": bd.bytes_by_phase.get(Phase.IO_READ, 0),
                "io_write_bytes": bd.bytes_by_phase.get(Phase.IO_WRITE, 0)}
    finally:
        system.close()


@register("library_sort")
def library_sort_cell(staging_divisor: int, n: int = 1_000_000) -> dict:
    """External merge sort under a shrunken staging budget."""
    import numpy as np
    from repro.apps.sort import SortApp
    from repro.core.system import System
    from repro.sim.trace import Phase
    system = System(configs.scaled_apu_tree(
        "ssd", staging_bytes=configs.STAGING_BYTES // int(staging_divisor)))
    try:
        app = SortApp(system, n=int(n), seed=2019)
        app.run(system)
        verified = np.array_equal(app.result(), app.reference())
        bd = system.breakdown()
        return {"staging_divisor": int(staging_divisor), "n": int(n),
                "makespan_s": system.makespan(), "verified": bool(verified),
                "io_read_bytes": bd.bytes_by_phase.get(Phase.IO_READ, 0),
                "runs": len(app.runs)}
    finally:
        system.close()


# -- Framework hot-path ops (wall-clock; record lives under meta) -------------

def framework_op(system, op: str):
    """A zero-arg callable performing one hot-path framework op --
    shared between the scenario cell below and the pytest-benchmark
    shim in ``benchmarks/bench_framework_ops.py``."""
    from repro.compute.processor import KernelCost
    from repro.memory.units import KB, MB
    leaf = system.tree.leaves()[0]
    root = system.tree.root
    if op == "alloc_release":
        def fn():
            h = system.alloc(64 * KB, leaf)
            system.release(h)
        return fn
    if op == "move_64k":
        src = system.alloc(64 * KB, root)
        dst = system.alloc(64 * KB, leaf)
        return lambda: system.move_down(dst, src, 64 * KB)
    if op == "move_2d":
        src = system.alloc(1 * MB, root)
        dst = system.alloc(64 * 1024, leaf)
        return lambda: system.move_2d(
            dst, src, rows=64, row_bytes=1024, src_offset=0,
            src_stride=4096, dst_offset=0, dst_stride=1024)
    if op == "kernel_launch":
        gpu = leaf.processor_named("gpu-apu")
        buf = system.alloc(4 * KB, leaf)
        cost = KernelCost(flops=1e6, bytes_read=4096)
        return lambda: system.launch(gpu, cost, reads=(buf,))
    if op == "map_region":
        parent = system.alloc(1 * MB, leaf)

        def fn():
            w = system.map_region(parent, 1024, 4096)
            system.release(w)
        return fn
    raise ConfigError(f"unknown framework op {op!r}")


@register("framework_op")
def framework_op_cell(op: str, rounds: int = 200) -> dict:
    """Wall-clock cost of one hot-path framework operation."""
    from repro.core.system import System
    from repro.memory.units import MB
    from repro.topology.builders import apu_two_level
    system = System(apu_two_level(storage_capacity=256 * MB,
                                  staging_bytes=64 * MB))
    try:
        fn = framework_op(system, op)

        @contextmanager
        def fresh_timeline():
            system.reset_time()
            yield fn

        m = measure({op: fresh_timeline}, repeats=int(rounds))[op]
        return {"op": op, "rounds": int(rounds),
                "meta": {"p50_ns": round(m.median * 1e9),
                         "iqr_ns": round(m.iqr * 1e9),
                         "min_ns": round(m.min * 1e9)}}
    finally:
        system.close()


# -- Whole-bench families (one cell each; payload returned unchanged) --------

@register("pipeline")
def pipeline_cell(scale: str = "full") -> dict:
    """Pipelined vs eager scheduling (BENCH_pipeline body)."""
    from repro.bench.pipeline import run_bench
    return run_bench(scale)


@register("wallclock")
def wallclock_cell(scale: str = "full") -> dict:
    """Indexed-vs-naive wall-clock scaling (BENCH_wallclock body)."""
    from repro.bench.wallclock import run_bench
    return run_bench(scale)


@register("dataplane")
def dataplane_cell(scale: str = "full") -> dict:
    """Zero-copy vs naive data plane (BENCH_dataplane body)."""
    from repro.bench.dataplane import run_bench
    return run_bench(scale)


@register("serve")
def serve_cell(scale: str = "full", seed: int = 0) -> dict:
    """Multi-tenant serve throughput (BENCH_serve body)."""
    from repro.serve.bench import run_bench
    return run_bench(scale, seed=int(seed))


@register("distributed")
def distributed_cell(scale: str = "full") -> dict:
    """Distributed task-graph scaling (BENCH_distributed body)."""
    from repro.dist.bench import run_bench
    return run_bench(scale)
