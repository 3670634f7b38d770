"""The repository benchmark: one workload per process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload gemm_tiny_staging --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` runs the untraced session and reports the end-to-end
metrics; ``--trace 1`` runs untraced, observation-off and traced repeats
side by side and reports the per-layer metrics.  Either way every
output is checked, a readable report goes to standard output, and the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record of the run (environment, samples,
metrics) is written under ``.bench_out/``; ``--trace 1`` also writes the
spans of its last traced run there.

See ``perfbench/README.md`` for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"

#: BLAS threads.  One, not every core: with two OpenBLAS threads on a
#: two-core host, any other load on the machine turns the GEMM
#: workload's thousand small kernels from 0.7 s into 2-9 s of
#: spin-waiting, which no bound can absorb.
BLAS_THREADS = 1


def pin_blas_threads() -> None:
    """Must run before NumPy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                        and len(mnt) > len(best):
                    best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


def env_record() -> dict:
    import numpy as np
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):        # older NumPy: no dict mode
        blas = {"name": "unknown"}
    blas["threads"] = BLAS_THREADS
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "blas": blas,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        # File-backed I/O goes through the page cache of this mount.
        "out_dir_fs": fs_type(OUT_DIR),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


class Session:
    """Takes samples of one workload and keeps every check's outcome.

    Every sample's fingerprint (virtual results and program counts) must
    equal the first one taken at the same arrival rate, traced or not,
    observed or not; a mismatch fails the whole sample."""

    def __init__(self, workload) -> None:
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: dict[float | None, dict] = {}
        #: Peak RSS once the first run and its checks are done.  Later
        #: repeats grow the process (memory it keeps after a full
        #: collection) by an amount that depends on how many repeats
        #: fit in the time, not on the workload.
        self.cold_peak_mb: float | None = None

    def sample(self, *, observe: bool = True, tracer=None,
               rate: float | None = None) -> dict:
        """Set up (timed), run (timed), check and tear down once."""
        w = self.w
        t0 = time.perf_counter()
        inst = w.setup(observe=observe, rate=rate)
        t1 = time.perf_counter()
        c1 = time.process_time()
        try:
            if tracer is not None:
                tracer.run_root(w.run, inst)
            else:
                w.run(inst)
            t2 = time.perf_counter()
            c2 = time.process_time()
            out = w.check(inst, at_rate=rate is None)
            sample = {"setup_s": t1 - t0, "run_s": t2 - t1,
                      "cpu_s": c2 - c1, "fp": out.fingerprint}
            if tracer is not None:
                sample["layers"] = layer_sample(tracer, inst)
        finally:
            w.teardown(inst)
            # A torn-down System is cyclic garbage; collect it here, not
            # at a random point inside a later timed run.
            gc.collect()
        if self.cold_peak_mb is None:
            self.cold_peak_mb = peak_rss_mb()
        ref = self.reference.setdefault(rate, out.fingerprint)
        failed = out.failed
        self.errors.extend(out.errors)
        if out.fingerprint != ref:
            moved = sorted(k for k in ref if ref[k] != out.fingerprint.get(k))
            self.errors.append(f"virtual results or counts changed between "
                               f"repeats: {moved}")
            failed = out.attempted
        self.attempted += out.attempted
        self.failed += failed
        return sample


# -- per-layer figures of one traced run ---------------------------------------


def layer_sample(t, inst) -> dict:
    """Per-layer figures of one traced run: self times and call counts
    from the tracer, work counts from the program's own counters."""
    system = inst.system
    cache = system.cache.total_stats()
    wall = t.root_ns / 1e9
    s = {
        "apps.self_s": t.self_s("apps"),
        "plan.lower_s": t.self_s("plan.lower"),
        "plan.graph_s": t.self_s("plan.graph"),
        "plan.graph_calls": t.count_prefix("TaskGraph."),
        "plan.nodes": t.count("TaskGraph.add_node"),
        "core.drain_s": t.self_s("core.drain"),
        "core.levels": t.count("Scheduler.execute_level"),
        "core.api_s": t.self_s("core.api"),
        "core.api_calls": t.count_prefix("System."),
        "core.runtime_ops": system.runtime_ops,
        "sim.charge_s": t.self_s("sim"),
        "sim.charges": t.count_prefix("Timeline.charge"),
        "sim.trace_intervals": len(system.timeline.trace),
        "cache.s": t.self_s("cache"),
        "cache.hits": cache.hits,
        "cache.misses": cache.misses,
        "cache.hit_ratio": cache.hits / cache.lookups if cache.lookups
        else 0.0,
        "cache.evictions": cache.evictions,
        "memory.copy_s": t.self_s("memory.copy"),
        "memory.ops": t.count_prefix("memory.copy:"),
        "memory.bytes": t.sums["memory.bytes"],
        "memory.view_s": t.self_s("memory.view"),
        "memory.alloc_s": t.self_s("memory.alloc"),
        "compute.kernel_s": t.self_s("compute.kernel"),
        "compute.kernels": t.count_prefix("kernel:"),
        "compute.flops": t.sums["compute.flops"],
        "compute.bytes": t.sums["compute.bytes"],
        "exec.dispatch_s": t.self_s("exec"),
        "exec.tasks": t.count("exec.dispatch"),
        "obs.s": t.self_s("obs"),
        "obs.spans": len(system.obs),
        "serve.handoff_s": t.self_s("serve.handoff"),
        "serve.build_s": t.self_s("serve.build"),
        "trace.wall_s": wall,
        "trace.spans": sum(1 for r in t.spans if r is not None),
        "trace.unattributed_ratio": t.self_s("unattributed") / wall
        if wall else 0.0,
    }
    s["memory.gb_per_s"] = (s["memory.bytes"] / s["memory.copy_s"] / 1e9
                            if s["memory.copy_s"] else 0.0)
    s["compute.gflops_per_s"] = (s["compute.flops"] / s["compute.kernel_s"]
                                 / 1e9 if s["compute.kernel_s"] else 0.0)
    return s


_UNITS = {"memory.gb_per_s": "GB/s", "compute.gflops_per_s": "GFLOP/s",
          "memory.bytes": "B", "compute.bytes": "B", "compute.flops": "flop",
          "cache.s": "s", "obs.s": "s", "sim.host_us_per_event": "us"}


def unit_of(name: str) -> str:
    if name in _UNITS:
        return _UNITS[name]
    if name.startswith("vt.") or name.startswith("serve.queue_wait"):
        return "virtual_s"
    if name.endswith("ratio"):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


# -- metric assembly -------------------------------------------------------------


def ladder_rate(points: list[tuple[float, float, float]]) -> float:
    """Highest sustainable rate from ``(rate, p90, backlog)`` rungs.

    Walking up from the lowest rung, the last rung whose p90 latency and
    backlog (last finish minus last arrival) both stay within their
    limits, refined by linear interpolation toward the first rung that
    misses, on whichever limit binds first.  The bare rungs step by
    500-1000 jobs/s, too coarse to show a change."""
    from workloads import BACKLOG_LIMIT_S, P90_LIMIT_S
    limits = (P90_LIMIT_S, BACKLOG_LIMIT_S)
    passed = None
    for rate, *vals in points:
        if all(v <= lim for v, lim in zip(vals, limits)):
            passed = (rate, vals)
            continue
        if passed is None:       # even the lowest rung misses
            return rate * min(lim / v for v, lim in zip(vals, limits))
        lo_rate, lo_vals = passed
        frac = min((lim - a) / (b - a) if b > lim else 1.0
                   for a, b, lim in zip(lo_vals, vals, limits))
        return lo_rate + frac * (rate - lo_rate)
    return passed[0]


def virtual_metrics(session: Session) -> tuple[dict, list]:
    """The ``vt.*`` end-to-end metrics.  Every repeat had to match the
    reference fingerprint exactly, so one ladder pass is enough."""
    from workloads import LADDER, nearest_rank
    fp = session.reference[None]
    if "finish" not in fp:
        # One app run is one job arriving at virtual time zero; run
        # back to back, the machine sustains one per makespan.
        mk = fp["makespan"]
        return {"vt.makespan_s": mk, "vt.latency_p50_s": mk,
                "vt.latency_p90_s": mk,
                "vt.max_rate_jobs_per_s": 1.0 / mk}, []

    def point(rate, fp):
        return (rate, nearest_rank(fp["latencies"], 90.0),
                fp["finish"] - fp["last_arrival"])

    points = [point(LADDER[0], fp)]
    for rate in LADDER[1:]:
        if ladder_rate(points) < points[-1][0]:
            break                # the last rung already missed
        points.append(point(rate, session.sample(rate=rate)["fp"]))
    return {"vt.makespan_s": fp["finish"],
            "vt.latency_p50_s": nearest_rank(fp["latencies"], 50.0),
            "vt.latency_p90_s": nearest_rank(fp["latencies"], 90.0),
            "vt.max_rate_jobs_per_s": ladder_rate(points)}, points


def end_to_end(session: Session, samples: list[dict]) -> tuple[dict, list]:
    vt, ladder = virtual_metrics(session)
    out = {"setup_s": median([s["setup_s"] for s in samples]),
           "run_wall_s": median([s["run_s"] for s in samples])}
    out.update(vt)
    out["peak_rss_mb"] = session.cold_peak_mb
    units = {"vt.max_rate_jobs_per_s": "jobs/virtual_s", "peak_rss_mb": "MB"}
    return {k: (v, units.get(k) or unit_of(k)) for k, v in out.items()}, ladder


def per_layer(cold_s: float, triplets: list[tuple[dict, dict, dict]]) -> dict:
    from workloads import BUSY_PHASES, nearest_rank
    traced = [c for _, _, c in triplets]
    out = {k: median([c["layers"][k] for c in traced])
           for k in traced[0]["layers"]}
    wall_on = median([a["run_s"] for a, _, _ in triplets])
    wall_off = median([b["run_s"] for _, b, _ in triplets])
    out["obs.on_off_delta_s"] = wall_on - wall_off
    out["sim.host_us_per_event"] = (wall_on / out["sim.trace_intervals"] * 1e6
                                    if out["sim.trace_intervals"] else 0.0)
    out["trace.overhead_ratio"] = median(
        [c["run_s"] / a["run_s"] for a, _, c in triplets])
    out["cold.first_run_extra_s"] = cold_s - wall_on
    fp = traced[0]["fp"]        # identical across samples (checked)
    serve = "grants" in fp
    for k in ("grants", "jobs_done", "jobs_rejected"):
        out[f"serve.{k}"] = fp[k] if serve else 0
    for q in (50, 90):
        out[f"serve.queue_wait_p{q}_s"] = (
            nearest_rank(fp["queue_waits"], q) if serve else 0.0)
    for p in BUSY_PHASES:
        out[f"vt.busy.{p}_s"] = fp["busy"][p]
    return {k: (v, unit_of(k)) for k, v in out.items()}


# -- the command -------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced problem sizes (the self-test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("error: run from the root of a repository checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, HERE)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = env_record()
    w = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR,
                                           smoke=args.smoke)
    session = Session(w)
    t_start = time.perf_counter()

    # The first run in a fresh process pays lazy start-up (the BLAS
    # library, first-touch allocations); it stays out of run_wall_s and
    # shows as cold.first_run_extra_s.
    cold = session.sample()
    t_end = time.perf_counter() + args.seconds
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "env": env}
    if args.trace == 0:
        samples = []
        while len(samples) < 5 or time.perf_counter() < t_end:
            samples.append(session.sample())
        metrics, record["ladder"] = end_to_end(session, samples)
    else:
        from tracer import Tracer, install_layers
        tracer = Tracer()
        triplets = []
        while len(triplets) < 3 or time.perf_counter() < t_end:
            on = session.sample()
            off = session.sample(observe=False)
            record["missing_wrap_targets"] = install_layers(tracer)
            try:
                traced = session.sample(tracer=tracer)
            finally:
                tracer.uninstall()
            triplets.append((on, off, traced))
        metrics = per_layer(cold["run_s"], triplets)
        record["spans_file"] = os.path.join(
            OUT_DIR, f"spans-{w.name}-seed{args.seed}.tsv")
        tracer.write(record["spans_file"])
        samples = [s for t in triplets for s in t]
    fail_ratio = session.failed / session.attempted
    if args.trace == 0:
        metrics["success_ratio"] = (1.0 - fail_ratio, "ratio")
    env["loadavg_after"] = os.getloadavg()
    env["peak_rss_mb_at_exit"] = peak_rss_mb()
    result = {
        "correct": session.failed == 0 and not session.errors,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record.update(
        cold_run_s=cold["run_s"], elapsed_s=time.perf_counter() - t_start,
        samples=[{k: v for k, v in s.items() if k != "fp"} for s in samples],
        fail_ratio=fail_ratio, errors=session.errors[:50], result=result)
    path = os.path.join(OUT_DIR, f"run-{w.name}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"samples {len(samples)}  elapsed {record['elapsed_s']:.1f}s")
    print("env " + json.dumps(env, default=str))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    print(f"  {'fail_ratio':<28} {fail_ratio:>16.6g} ratio "
          f"({session.failed} of {session.attempted} failed)")
    if record.get("missing_wrap_targets"):
        print("  not traced (target not found): "
              + ", ".join(record["missing_wrap_targets"]))
    for err in session.errors[:10]:
        print(f"  error: {err}")
    print(f"record {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
