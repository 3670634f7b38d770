"""Outside-in wall-clock tracer for the benchmark's traced session.

The program has no host-time instrumentation of its own, so the traced
session wraps the public functions of each ``repro`` layer from the
outside: every wrapped call becomes a span (name, layer key, start,
end, parent, thread) kept in memory, and each layer key accumulates
*self* time, the span's active duration minus the part its child spans
cover.

Rules that keep the accounting self-consistent:

* A call into the same layer key as the innermost open span is counted
  but opens no span: its time is the enclosing span's self time anyway.
  The hottest helper, ``TaskGraph.is_ready`` (over a million calls in
  the serve workload), is only counted, which keeps its wrapper from
  dominating the time it is charged to.
* Serve jobs run on their own threads, one at a time, handing a baton
  back and forth with the service loop.  A job thread's outermost spans
  nest under the span the main thread has open (``JobService.run``),
  and time a job spends parked in ``JobGate.offer`` is taken out of
  every span that encloses it; the thread that ran meanwhile accounts
  for that time itself.  Self times over all threads then add up to the
  root span's duration.
* Nothing is wrapped until :func:`install_layers` runs, and
  :meth:`Tracer.uninstall` puts every original back, so untraced runs
  execute the program untouched.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import types
from collections import defaultdict

_now = time.perf_counter_ns
_ident = threading.get_ident

#: Layer key of the benchmark's own root span: time no wrapped function
#: accounts for.
ROOT = "unattributed"
#: Pseudo-key of a job parked at its gate (not a layer: waiting time).
PARK = "serve.park"


class _Frame:
    __slots__ = ("sid", "key", "name", "t0", "child", "parked")

    def __init__(self, sid: int, key: str, name: str, t0: int) -> None:
        self.sid = sid
        self.key = key
        self.name = name
        self.t0 = t0
        self.child = 0      # active ns covered by child spans
        self.parked = 0     # ns this span's thread spent parked inside it


class Tracer:
    """Span recorder plus per-layer self-time and call counters."""

    def __init__(self) -> None:
        self.active = False
        self._installed: list[tuple[object, str, object]] = []
        self._kernels: dict[str, object] = {}
        self.stacks: dict[int, list[_Frame]] = {}
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.sums: dict[str, float] = defaultdict(float)
        #: (span id, parent id, key, name, start ns, end ns, thread id)
        self.spans: list[tuple | None] = []
        self.reset()

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded (called before each traced run).
        Cleared in place: wrappers hold references to these."""
        self.main = _ident()
        self.stacks.clear()
        self.self_ns.clear()
        self.calls.clear()
        self.sums.clear()
        self.spans.clear()
        self.root_ns = 0

    def run_root(self, fn, *args):
        """Call ``fn(*args)`` as the root span with recording on."""
        self.reset()
        self.active = True
        try:
            return self._call(ROOT, "bench.run", fn, args, {})
        finally:
            self.active = False

    def _call(self, key: str, name: str, fn, args, kwargs):
        tid = _ident()
        stack = self.stacks.get(tid)
        if stack is None:
            stack = self.stacks[tid] = []
        frame = _Frame(len(self.spans) + 1, key, name, _now())
        self.spans.append(None)          # reserve the id in start order
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _now()
            stack.pop()
            self._close(frame, t1, tid, stack)

    def _close(self, frame: _Frame, t1: int, tid: int,
               stack: list[_Frame]) -> None:
        dur = t1 - frame.t0
        if frame.key == PARK:
            active, parked = 0, dur + frame.parked
        else:
            active = dur - frame.parked
            parked = frame.parked
            self.self_ns[frame.key] += active - frame.child
        if stack:
            parent = stack[-1]
            parent.child += active
            parent.parked += parked
        elif tid != self.main:
            # Outermost span of a job thread: it nests under whatever
            # the main thread has open, which is blocked meanwhile.
            # The main thread ran while this one was parked, so parked
            # time does not carry across.
            main_stack = self.stacks.get(self.main)
            parent = main_stack[-1] if main_stack else None
            if parent is not None:
                parent.child += active
        else:
            parent = None
            if frame.key == ROOT:
                self.root_ns = dur
        self.spans[frame.sid - 1] = (
            frame.sid, parent.sid if parent is not None else 0, frame.key,
            frame.name, frame.t0, t1, tid)

    # -- wrapping --------------------------------------------------------------

    def wrap(self, fn, key: str, name: str, note=None):
        """A drop-in replacement for ``fn`` recording under ``key``.

        ``note(tracer, args, kwargs)`` runs on every recorded call, for
        per-call sums such as bytes moved or kernel flops."""
        tracer = self
        calls, stacks = self.calls, self.stacks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            if note is not None:
                note(tracer, args, kwargs)
            stack = stacks.get(_ident())
            if stack and stack[-1].key == key:
                return fn(*args, **kwargs)
            return tracer._call(key, name, fn, args, kwargs)

        return traced

    def counter(self, fn, name: str):
        """A drop-in replacement for ``fn`` that only counts calls: for
        hot leaf helpers whose time belongs to their caller's span."""
        tracer, calls = self, self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, key: str, *, note=None,
              name: str | None = None, count_only: bool = False) -> bool:
        """Replace ``owner.attr`` (a class or module attribute) with a
        traced wrapper.  Returns False when the attribute is absent or
        not a plain function (the trace then records it as missing)."""
        orig = vars(owner).get(attr)
        if not isinstance(orig, types.FunctionType):
            return False
        label = name or f"{getattr(owner, '__name__', owner)}.{attr}"
        setattr(owner, attr, self.counter(orig, label) if count_only
                else self.wrap(orig, key, label, note))
        self._installed.append((owner, attr, orig))
        return True

    def patch_public(self, cls, key: str, *, skip=(), notes=None,
                     count_only=()) -> int:
        """Wrap every public plain function defined on ``cls`` itself."""
        notes = notes or {}
        n = 0
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") or attr in skip:
                continue
            if isinstance(val, types.FunctionType):
                n += self.patch(cls, attr, key, note=notes.get(attr),
                                count_only=attr in count_only)
        return n

    def patch_kernels(self, module) -> bool:
        """Kernels resolve by ``module:name`` on every launch through
        ``module.resolve_kernel``; wrap what it returns."""
        attr = "resolve_kernel"
        orig = vars(module).get(attr)
        if not isinstance(orig, types.FunctionType):
            return False
        tracer = self
        cache = self._kernels

        @functools.wraps(orig)
        def resolve(ref: str):
            fn = cache.get(ref)
            if fn is None:
                fn = cache[ref] = tracer.wrap(orig(ref), "compute.kernel",
                                              f"kernel:{ref}")
            return fn

        setattr(module, attr, resolve)
        self._installed.append((module, attr, orig))
        return True

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()
        self._kernels.clear()

    # -- summaries ---------------------------------------------------------

    def self_s(self, *keys: str) -> float:
        return sum(self.self_ns.get(k, 0) for k in keys) / 1e9

    def count(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def count_prefix(self, prefix: str) -> int:
        return sum(v for k, v in self.calls.items() if k.startswith(prefix))

    def write(self, path: str) -> None:
        """Write the recorded spans, one tab-separated line each:
        id, parent, layer key, name, start ns, end ns, thread."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tkey\tname\tstart_ns\tend_ns\tthread\n")
            for rec in self.spans:
                if rec is not None:
                    fh.write("\t".join(map(str, rec)) + "\n")


def _add(name: str, value):
    def note(tracer: Tracer, args, kwargs) -> None:
        tracer.sums[name] += value(args, kwargs)
    return note


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _kernel_cost(tracer: Tracer, args, kwargs) -> None:
    cost = _arg(args, kwargs, 2, "cost")
    tracer.sums["compute.flops"] += cost.flops
    tracer.sums["compute.bytes"] += cost.bytes_read + cost.bytes_written


def install_layers(tracer: Tracer) -> list[str]:
    """Wrap the public functions of every layer the workloads run.

    Returns the targets that could not be found (renamed or removed by
    a later change), so the report can say why a metric reads zero."""
    missing: list[str] = []

    def mod(name: str):
        return importlib.import_module(name)

    def need(ok, what: str) -> None:
        if not ok:
            missing.append(what)

    # apps: every public hook of the application classes.
    from repro.apps import GemmApp, HotspotApp, SortApp, SpmvApp
    for cls in (GemmApp, HotspotApp, SpmvApp, SortApp):
        need(tracer.patch_public(cls, "apps", skip=("result", "reference")),
             f"{cls.__name__} hooks")
        need(tracer.patch(cls, "__init__", "apps"), f"{cls.__name__}.__init__")

    # plan: lowering (imported lazily by the scheduler, so patch the
    # module attribute callers look up) and graph bookkeeping.
    need(tracer.patch(mod("repro.plan.lower"), "lower_level", "plan.lower"),
         "plan.lower.lower_level")
    # ``is_ready`` runs 1.67 M times per serve run, almost all inside
    # ``ready()``: count it, and leave its time to the calling span.
    need(tracer.patch_public(mod("repro.plan.graph").TaskGraph, "plan.graph",
                             count_only=("is_ready",)),
         "plan.graph.TaskGraph")

    # core: the level drain and the program's recursion; the System API.
    sched = mod("repro.core.scheduler").Scheduler
    need(tracer.patch(sched, "execute_level", "core.drain"),
         "Scheduler.execute_level")
    prog = mod("repro.core.program").NorthupProgram
    need(tracer.patch(prog, "run", "core.drain"), "NorthupProgram.run")
    need(tracer.patch(prog, "recurse", "core.drain"), "NorthupProgram.recurse")
    system_mod = mod("repro.core.system")
    need(tracer.patch_public(system_mod.System, "core.api",
                             notes={"launch": _kernel_cost}),
         "System API")

    # sim: timeline charging and trace queries.
    sim = mod("repro.sim.timeline")
    need(tracer.patch_public(sim.Timeline, "sim"), "Timeline")
    need(tracer.patch_public(mod("repro.sim.trace").Trace, "sim"), "Trace")

    # cache: manager, per-node caches and the prefetch engine.
    need(tracer.patch_public(mod("repro.cache.manager").CacheManager, "cache"),
         "CacheManager")
    need(tracer.patch_public(mod("repro.cache.block").NodeCache, "cache"),
         "NodeCache")
    need(tracer.patch_public(mod("repro.cache.prefetch").PrefetchEngine,
                             "cache"), "PrefetchEngine")

    # memory: physical byte movement, views and allocation on devices.
    dev = mod("repro.memory.device").Device
    copies = {
        "copy_into": _add("memory.bytes",
                          lambda a, k: _arg(a, k, 6, "nbytes")),
        "copy_into_2d": _add("memory.bytes", lambda a, k:
                             k["rows"] * k["row_bytes"]),
        "read": _add("memory.bytes", lambda a, k: _arg(a, k, 3, "nbytes")),
        "write": _add("memory.bytes",
                      lambda a, k: _arg(a, k, 3, "data").nbytes),
    }
    for attr, note in copies.items():
        need(tracer.patch(dev, attr, "memory.copy", note=note,
                          name=f"memory.copy:{attr}"), f"Device.{attr}")
    need(tracer.patch(dev, "try_view", "memory.view"), "Device.try_view")
    for attr in ("allocate", "release", "release_capacity",
                 "destroy_storage", "compact"):
        need(tracer.patch(dev, attr, "memory.alloc"), f"Device.{attr}")

    # compute: the kernels themselves, wrapped where launches resolve them.
    need(tracer.patch_kernels(system_mod), "core.system.resolve_kernel")

    # exec: kernel dispatch and the pending-operation ledger.
    need(tracer.patch(system_mod.System, "_dispatch_kernel", "exec",
                      name="exec.dispatch"), "System._dispatch_kernel")
    need(tracer.patch_public(mod("repro.exec.ledger").PendingLedger, "exec"),
         "PendingLedger")

    # obs: causal spans and the metrics registry.
    spans = mod("repro.obs.spans")
    need(tracer.patch_public(spans.Observer, "obs"), "Observer")
    need(tracer.patch_public(spans.Span, "obs"), "Span")
    metrics = mod("repro.obs.metrics")
    need(tracer.patch_public(metrics.MetricsRegistry, "obs"), "MetricsRegistry")
    need(tracer.patch_public(metrics.LabelledMetrics, "obs"), "LabelledMetrics")

    # serve: the service loop, job construction, and parked jobs.
    serve = mod("repro.serve")
    need(tracer.patch(serve.JobService, "run", "serve.handoff"),
         "JobService.run")
    need(tracer.patch(serve.JobSpec, "build", "serve.build"), "JobSpec.build")
    need(tracer.patch(serve.JobGate, "offer", PARK), "JobGate.offer")
    return missing
