"""The benchmark's three workloads, built only from public program APIs.

Each workload makes its inputs from the run's seed and exposes the same
steps to ``run.py``:

* ``setup(observe, rate)`` -- the timed set-up: tree, ``System``, app
  or stream construction (input generation, preload, file creation);
* ``run(inst)`` -- the timed call: ``app.run`` or ``JobService.run``;
* ``check(inst, at_rate)`` -- untimed: correctness of the outputs, plus
  a fingerprint of every virtual result and program count, which must
  be identical every time (traced or not, observed or not);
* ``teardown(inst)``.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from repro import GemmApp, HotspotApp, System, apu_two_level
from repro.compute.cpu import make_cpu_steamroller
from repro.compute.gpu import make_gpu_apu
from repro.memory.backends import FileBackend
from repro.memory.catalog import spec as device_spec
from repro.memory.channel import Link, default_link_for
from repro.memory.device import Device, DeviceSpec
from repro.memory.units import GB, KB, MB
from repro.serve import (Arrival, JobService, JobSpec, JobState, ServeConfig,
                         TenantQuota, poisson_arrivals)
from repro.sim.trace import Phase
from repro.topology.tree import TopologyTree
from repro.topology.validate import validate_tree

#: Phases whose virtual busy time the trace reports per layer.
BUSY_PHASES = ("io_read", "io_write", "gpu_compute", "cpu_compute", "runtime")


@dataclass
class Instance:
    """One set-up instance of a workload, ready to run once."""

    system: System
    app: object = None
    stream: list = field(default_factory=list)
    service: JobService | None = None
    jobs: list = field(default_factory=list)
    scratch: str | None = None


@dataclass
class Outcome:
    """What :meth:`check` found about one run."""

    attempted: int
    failed: int
    fingerprint: dict
    errors: list[str] = field(default_factory=list)


def nearest_rank(values, q: float) -> float:
    """Nearest-rank percentile of ``values`` (``inf`` counts as a miss;
    0.0 when there are none)."""
    vals = sorted(values)
    if not vals:
        return 0.0
    idx = min(len(vals) - 1, max(0, math.ceil(q / 100.0 * len(vals)) - 1))
    return vals[idx]


def _busy(system: System) -> dict[str, float]:
    by = system.timeline.trace.by_phase()
    return {p: by.get(Phase(p), 0.0) for p in BUSY_PHASES}


def _program_counts(system: System) -> dict:
    cache = system.cache.total_stats()
    return {
        "intervals": len(system.timeline.trace),
        "runtime_ops": system.runtime_ops,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_evictions": cache.evictions,
        "kernels": system.executor.stats.submitted,
        "busy": _busy(system),
    }


class _AppWorkload:
    """Shared steps of the single-app workloads."""

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self._reference: np.ndarray | None = None

    def run(self, inst: Instance) -> None:
        inst.app.run(inst.system)

    def teardown(self, inst: Instance) -> None:
        try:
            inst.app.release_root_buffers()
        finally:
            inst.system.close()
            if inst.scratch is not None:
                shutil.rmtree(inst.scratch, ignore_errors=True)

    def _correct(self, result: np.ndarray) -> bool:
        raise NotImplementedError

    def check(self, inst: Instance, at_rate: bool = True) -> Outcome:
        app, system = inst.app, inst.system
        result = np.ascontiguousarray(app.result())
        if self._reference is None:
            self._reference = app.reference()
        errors = []
        if not self._correct(result):
            errors.append("result differs from the NumPy reference")
        makespan = system.makespan()
        fp = dict(_program_counts(system), makespan=makespan,
                  result=hashlib.sha256(result.tobytes()).hexdigest())
        return Outcome(1, 1 if errors else 0, fp, errors)


class GemmTinyStaging(_AppWorkload):
    """1024^3 fp32 GEMM through a 512 KB staging level: framework-bound
    (13,357 trace intervals, 1,024 kernels, 992 row-shard cache hits)."""

    name = "gemm_tiny_staging"

    def __init__(self, seed: int, out_dir: str, *, smoke: bool = False):
        super().__init__(seed, out_dir)
        self.edge = 256 if smoke else 1024

    def setup(self, observe: bool = True, rate=None) -> Instance:
        tree = apu_two_level(storage="ssd", storage_capacity=256 * MB,
                             staging_bytes=512 * KB)
        system = System(tree, observe=observe)
        n = self.edge
        app = GemmApp(system, m=n, k=n, n=n, seed=self.seed)
        return Instance(system, app=app)

    def _correct(self, result: np.ndarray) -> bool:
        return bool(np.allclose(result, self._reference, rtol=1e-3))


class HotspotFileStream(_AppWorkload):
    """HotSpot-2D n=2048, 8 iterations, 4 steps per pass, over real
    files: kernels and file I/O dominate, the cache is never consulted."""

    name = "hotspot_file_stream"

    def __init__(self, seed: int, out_dir: str, *, smoke: bool = False):
        super().__init__(seed, out_dir)
        self.edge = 512 if smoke else 2048

    def setup(self, observe: bool = True, rate=None) -> Instance:
        scratch = tempfile.mkdtemp(prefix="hotspot-", dir=self.out_dir)
        backend = FileBackend(os.path.join(scratch, "ssd"))
        tree = apu_two_level(storage="ssd", storage_capacity=256 * MB,
                             staging_bytes=2 * MB, storage_backend=backend)
        system = System(tree, observe=observe)
        app = HotspotApp(system, n=self.edge, iterations=8, steps_per_pass=4,
                         seed=self.seed)
        return Instance(system, app=app, scratch=scratch)

    def _correct(self, result: np.ndarray) -> bool:
        return bool(np.array_equal(result, self._reference))


# -- the serve workload --------------------------------------------------------

#: Scale rules of the paper's APU machine at 1/16 linear scale: device
#: and link latencies and kernel launch overheads shrink by 16^2,
#: bandwidths and FLOP rates stay.  Defined here, not imported from the
#: bench harness, so a refactor of that harness cannot move the workload.
_BYTE_SCALE = 16 ** 2


def _scaled(spec: DeviceSpec, capacity: int | None = None) -> DeviceSpec:
    return DeviceSpec(name=spec.name, kind=spec.kind,
                      capacity=spec.capacity if capacity is None else capacity,
                      read_bw=spec.read_bw, write_bw=spec.write_bw,
                      latency=spec.latency / _BYTE_SCALE, duplex=spec.duplex)


def scaled_apu_ssd_tree() -> TopologyTree:
    """SSD root (in-memory backend) -> 8 MB DRAM staging with the APU's
    GPU and CPU, at bench scale."""
    tree = TopologyTree()
    ssd = _scaled(device_spec("ssd"))
    root = tree.add_node(Device(spec=ssd, instance="ssd.root"))
    procs = []
    for proc in (make_gpu_apu(), make_cpu_steamroller()):
        proc = replace(proc)
        proc.launch_overhead = proc.launch_overhead / _BYTE_SCALE
        procs.append(proc)
    dram = _scaled(device_spec("dram"), capacity=2 * GB // _BYTE_SCALE)
    link = default_link_for(ssd, dram)
    tree.add_node(Device(spec=dram, instance="dram.staging"), parent=root,
                  processors=procs,
                  link=Link(name=link.name, bandwidth=link.bandwidth,
                            latency=link.latency / _BYTE_SCALE,
                            duplex=link.duplex))
    validate_tree(tree)
    return tree


#: Stream shape: 119 Poisson mice plus one elephant at a fixed instant.
SERVE_FULL = dict(count=120, rate=1000.0,
                  elephant=dict(m=512, k=512, n=512, tile=32, at=0.002),
                  gemm=dict(m=64, k=64, n=64, tile=32), sort_n=50_000,
                  spmv_rows=1024, hotspot=dict(n=128, tile=64))
SERVE_SMOKE = dict(count=24, rate=1000.0,
                   elephant=dict(m=128, k=128, n=128, tile=32, at=0.001),
                   gemm=dict(m=48, k=48, n=48, tile=32), sort_n=20_000,
                   spmv_rows=512, hotspot=dict(n=64, tile=32))

#: The arrival schedule is part of the workload, like a recorded trace
#: replayed with fresh payloads: one Poisson draw, fixed.  The run's
#: seed makes the jobs' input data.  (Single draws of 120 arrivals
#: differ by about 28% in p90 latency from one draw to the next, more
#: than any bound a benchmark can hold.)
STREAM_SEED = 0

#: The max-rate ladder (jobs per virtual second) and its limits.
LADDER = (1000.0, 1500.0, 2000.0, 3000.0)
P90_LIMIT_S = 0.005
BACKLOG_LIMIT_S = 0.005


def tenant_quotas() -> dict[str, TenantQuota]:
    """Three equal-weight tenants; ``beta``'s mice keep a 64 KiB cache
    reservation so the elephant cannot evict them to zero."""
    return {"acme": TenantQuota(weight=1.0),
            "beta": TenantQuota(weight=1.0, cache_reservation=64 * 1024),
            "gamma": TenantQuota(weight=1.0)}


def mouse_mix(scale: dict, seed: int) -> list[tuple[JobSpec, float]]:
    """Weighted mouse classes, their inputs drawn from ``seed``.  GEMM
    and HotSpot pin their tiles so a served job's operation sequence
    matches its solo run exactly."""
    g, h = scale["gemm"], scale["hotspot"]
    return [
        (JobSpec("gemm", tenant="acme", label="mouse",
                 params=dict(m=g["m"], k=g["k"], n=g["n"], seed=seed,
                             force_tiles=(g["tile"], g["tile"], g["k"],
                                          True))), 2.0),
        (JobSpec("sort", tenant="beta", label="mouse",
                 params=dict(n=scale["sort_n"], seed=seed + 1)), 3.0),
        (JobSpec("spmv", tenant="beta", label="mouse",
                 params=dict(nrows=scale["spmv_rows"], seed=seed + 2,
                             preset="circuit-like")), 3.0),
        (JobSpec("hotspot", tenant="gamma", priority=1, label="mouse",
                 params=dict(n=h["n"], iterations=1, seed=seed + 3,
                             force_tile=h["tile"])), 2.0),
    ]


def elephant(scale: dict, seed: int) -> JobSpec:
    e = scale["elephant"]
    return JobSpec("gemm", tenant="acme", label="elephant",
                   params=dict(m=e["m"], k=e["k"], n=e["n"], seed=seed,
                               force_tiles=(e["tile"], e["tile"], e["k"],
                                            True)))


def _spec_key(spec: JobSpec) -> str:
    return f"{spec.app}|{sorted(spec.params.items())!r}"


class ServeMixedFair:
    """A 120-job mixed-tenant stream under the ``fair`` policy: many
    small graphs interleaved grant by grant on one shared tree."""

    name = "serve_mixed_fair"

    def __init__(self, seed: int, out_dir: str, *, smoke: bool = False):
        self.seed = seed
        self.scale = SERVE_SMOKE if smoke else SERVE_FULL
        self._solo: dict[str, bytes] = {}

    def make_stream(self, rate: float) -> list[Arrival]:
        s = self.scale
        mice = poisson_arrivals(mouse_mix(s, self.seed), rate=rate,
                                count=s["count"] - 1, seed=STREAM_SEED)
        return mice + [Arrival(vt=s["elephant"]["at"],
                               spec=elephant(s, self.seed))]

    def setup(self, observe: bool = True,
              rate: float | None = None) -> Instance:
        system = System(scaled_apu_ssd_tree(), observe=observe)
        service = JobService(system, ServeConfig(
            policy="fair", seed=STREAM_SEED, max_pending=64,
            max_live_per_tenant=3, quotas=tenant_quotas()))
        stream = self.make_stream(rate or self.scale["rate"])
        return Instance(system, stream=stream, service=service)

    def run(self, inst: Instance) -> None:
        inst.jobs = inst.service.run(inst.stream)

    def teardown(self, inst: Instance) -> None:
        try:
            for job in inst.jobs:
                if job.app is not None:
                    job.app.release_root_buffers()
        finally:
            inst.system.close()

    def solo_bytes(self, spec: JobSpec) -> bytes:
        """The spec's result from a solo in-order run on a fresh
        system, computed once per spec."""
        key = _spec_key(spec)
        if key not in self._solo:
            system = System(scaled_apu_ssd_tree())
            try:
                app = spec.build(system)
                app.run(system)
                self._solo[key] = np.ascontiguousarray(app.result()).tobytes()
                app.release_root_buffers()
            finally:
                system.close()
        return self._solo[key]

    def check(self, inst: Instance, at_rate: bool = True) -> Outcome:
        """Every job served at the workload's own rate must finish with
        its solo run's bytes; on the max-rate ladder's faster rungs a
        job bounced by admission control only misses the latency limit."""
        jobs, service = inst.jobs, inst.service
        errors: list[str] = []
        failed = 0
        for job in jobs:
            if job.state is JobState.DONE:
                served = np.ascontiguousarray(job.app.result()).tobytes()
                if served != self.solo_bytes(job.spec):
                    failed += 1
                    errors.append(f"{job.job_id} differs from its solo run")
            elif job.state is JobState.REJECTED:
                failed += at_rate
            else:
                failed += 1
                errors.append(f"{job.job_id} ended {job.state.value}: "
                              f"{job.error!r}")
        done = [j for j in jobs if j.state is JobState.DONE]
        fp = dict(
            _program_counts(inst.system),
            finish=max((j.finish_vt for j in done), default=0.0),
            last_arrival=max(a.vt for a in inst.stream),
            latencies=[j.latency if j.state is JobState.DONE else math.inf
                       for j in jobs],
            queue_waits=[j.queue_wait for j in done],
            grants=len(service.dispatch_log),
            jobs_done=len(done),
            jobs_rejected=service.admission.rejected,
            dispatch=hashlib.sha256(
                "\n".join(service.dispatch_log).encode()).hexdigest())
        return Outcome(len(jobs), failed, fp, errors)


WORKLOADS = {cls.name: cls for cls in (GemmTinyStaging, HotspotFileStream,
                                       ServeMixedFair)}
