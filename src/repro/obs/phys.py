"""The physical telemetry plane: wall-clock records of kernel work.

:mod:`repro.obs` accounts *virtual* time on the simulator thread; since
the executor split (:mod:`repro.exec`) the *physical* kernels run on
the coordinator thread (inline) or pool threads (threaded), which the
virtual trace never sees.  This module closes that gap:

* :class:`PhysTelemetry` -- the aggregator one executor owns when
  built with ``telemetry=True``.  Executors stamp ``perf_counter_ns``
  enter/exit pairs around each kernel; the store keys records by
  ticket and remembers the virtual span and task-graph node that
  caused each submit (``set_task_context`` + the span id the System
  pokes at dispatch).
* :class:`PhysTraceMerger` -- emits the records as merged Perfetto
  tracks: one physical lane per worker (``main`` or a pool thread)
  next to the virtual tracks.  Every lane shares the process's
  ``perf_counter_ns``, so no clock alignment is needed.

Everything is strictly opt-in: executors built without
``telemetry=True`` hold ``telemetry = None`` and allocate nothing --
the zero-overhead-off contract the observability suite asserts via the
``allocated`` class counter below.
"""

from __future__ import annotations

import argparse
import json
import os
import weakref
from dataclasses import dataclass
from time import perf_counter_ns

#: pid of the physical worker lanes in the merged Chrome trace
#: (resources are pid 1, virtual spans pid 2).
PID_PHYS = 3


# -- the aggregator ----------------------------------------------------------

_LIVE_TELEMETRY: "weakref.WeakSet[PhysTelemetry]" = weakref.WeakSet()


def telemetry_residue(backend: str | None = None) -> list[str]:
    """Unclosed telemetry aggregators (leaked buffers): executors must
    close their telemetry with the rest of their pool resources."""
    out = []
    for tel in list(_LIVE_TELEMETRY):
        if tel.closed:
            continue
        if backend is not None and tel.backend != backend:
            continue
        records = sum(len(r) for r in tel.records.values())
        out.append(f"phys-telemetry({tel.backend}, records={records})")
    return sorted(out)


class PhysTelemetry:
    """Telemetry store of one executor.

    Workers are named like the executor's stats keys (``t3``,
    ``main``).  Records arrive in ``perf_counter_ns`` via
    :meth:`note_done` (pool threads, at wait time) or
    :meth:`note_inline` (same-thread execution).  ``close()`` marks the
    store retired but keeps the data -- post-run analysis outlives the
    worker pool.
    """

    #: Total aggregators ever constructed in this process.
    allocated = 0

    def __init__(self, backend: str = "?") -> None:
        PhysTelemetry.allocated += 1
        self.backend = backend
        #: worker -> ``(kind, t0_ns, t1_ns, ticket, nbytes)`` records.
        self.records: dict[str, list[tuple]] = {}
        #: ticket -> submit-time attribution (virtual span, graph node).
        self.tickets: dict[int, dict] = {}
        #: worker -> perf_counter_ns of its last completion (the
        #: watchdog's liveness signal).
        self.last_seen_ns: dict[str, int] = {}
        self.current_span = 0
        self.current_node = -1
        self.closed = False
        self._pseudo = 0
        _LIVE_TELEMETRY.add(self)

    # -- ingest ------------------------------------------------------------

    def _ticket(self, ticket: int) -> dict:
        info = self.tickets.get(ticket)
        if info is None:
            info = {"span": self.current_span, "node": self.current_node}
            self.tickets[ticket] = info
        return info

    def note_submit(self, ticket: int) -> None:
        """Bind the ambient context (span / node) to a ticket at submit
        time -- the completion joins on it later."""
        self._ticket(ticket)

    def note_done(self, worker: str, ticket: int, records) -> None:
        """Fold one asynchronous completion's records in."""
        self._ticket(ticket)
        self.records.setdefault(worker, []).extend(records)
        self.last_seen_ns[worker] = perf_counter_ns()

    def note_inline(self, worker: str, kind: str, t0_ns: int, t1_ns: int,
                    nbytes: int = 0) -> int:
        """Record same-thread work (inline executor, System's in-place
        kernel path): a pseudo-ticket keeps the span attribution
        uniform."""
        self._pseudo -= 1
        ticket = self._pseudo
        self._ticket(ticket)
        self.records.setdefault(worker, []).append(
            (kind, t0_ns, t1_ns, ticket, nbytes))
        self.last_seen_ns[worker] = t1_ns
        return ticket

    # -- analysis ----------------------------------------------------------

    def span_of(self, ticket: int) -> int:
        info = self.tickets.get(ticket)
        return info["span"] if info else 0

    def merger(self) -> "PhysTraceMerger":
        return PhysTraceMerger(self)

    def worker_stats(self) -> dict[str, dict]:
        """Per-worker busy/utilization/phase accounting."""
        out: dict[str, dict] = {}
        for worker, records in sorted(self.records.items()):
            phases: dict[str, float] = {}
            tasks = 0
            lo = hi = None
            for kind, t0, t1, _ticket, _nbytes in records:
                phases[kind] = phases.get(kind, 0.0) + (t1 - t0) / 1e9
                if kind == "kernel":
                    tasks += 1
                lo = t0 if lo is None else min(lo, t0)
                hi = t1 if hi is None else max(hi, t1)
            busy = sum(phases.values())
            window = (hi - lo) / 1e9 if lo is not None and hi > lo else 0.0
            out[worker] = {
                "tasks": tasks,
                "kernel_s": phases.get("kernel", 0.0),
                "busy_s": busy,
                "window_s": window,
                "utilization": busy / window if window > 0 else 0.0,
                "phases": dict(sorted(phases.items())),
            }
        return out

    def summary(self) -> dict:
        """The RunReport payload: per-worker stats, skew, stragglers,
        aggregate phase split."""
        workers = self.worker_stats()
        busys = [w["busy_s"] for w in workers.values()]
        mean_busy = sum(busys) / len(busys) if busys else 0.0
        skew = (max(busys) / mean_busy) if mean_busy > 0 else 0.0
        median = sorted(busys)[len(busys) // 2] if busys else 0.0
        stragglers = sorted(
            name for name, w in workers.items()
            if median > 0 and w["busy_s"] > 1.5 * median)
        phases: dict[str, float] = {}
        for w in workers.values():
            for kind, secs in w["phases"].items():
                phases[kind] = phases.get(kind, 0.0) + secs
        return {
            "backend": self.backend,
            "tasks": sum(w["tasks"] for w in workers.values()),
            "workers": workers,
            "busy_skew": skew,
            "stragglers": stragglers,
            "phases": dict(sorted(phases.items())),
        }

    def close(self) -> None:
        """Retire the store (residue audits stop flagging it); the
        collected data stays readable for post-run analysis."""
        self.closed = True


# -- the merger --------------------------------------------------------------

@dataclass(frozen=True)
class PhysRecord:
    """One worker record with its virtual-span attribution."""

    worker: str
    kind: str
    t0_ns: int
    t1_ns: int
    ticket: int
    span: int
    nbytes: int


class PhysTraceMerger:
    """Emit the physical records as Perfetto tracks beside the virtual
    ones."""

    #: Perfetto process id of the physical lanes (exporters target
    #: cross-plane flow arrows at it).
    PID = PID_PHYS

    def __init__(self, telemetry: PhysTelemetry) -> None:
        self.telemetry = telemetry
        self._records: list[PhysRecord] | None = None
        self._tids = {worker: tid for tid, worker
                      in enumerate(sorted(telemetry.records), start=1)}

    def tid_of(self, worker: str) -> int:
        return self._tids.get(worker, 0)

    def records(self) -> list[PhysRecord]:
        """Every record, attributed to its span, in start order."""
        if self._records is None:
            tel = self.telemetry
            self._records = sorted(
                (PhysRecord(worker=worker, kind=kind, t0_ns=t0, t1_ns=t1,
                            ticket=ticket, span=tel.span_of(ticket),
                            nbytes=nbytes)
                 for worker, recs in tel.records.items()
                 for kind, t0, t1, ticket, nbytes in recs),
                key=lambda r: (r.t0_ns, r.worker))
        return self._records

    @property
    def epoch_ns(self) -> int:
        """t = 0 of the physical tracks: the earliest record."""
        records = self.records()
        return records[0].t0_ns if records else 0

    def kernel_anchors(self) -> dict[int, tuple[float, str]]:
        """span id -> (start seconds since epoch, worker) of the first
        physical kernel record attributed to that span -- the flow
        target :func:`repro.tools.trace_export.iter_chrome_events` uses
        to arrow virtual spans into the physical lanes."""
        epoch = self.epoch_ns
        out: dict[int, tuple[float, str]] = {}
        for rec in self.records():
            if rec.kind == "kernel" and rec.span > 0 \
                    and rec.span not in out:
                out[rec.span] = ((rec.t0_ns - epoch) / 1e9, rec.worker)
        return out

    def chrome_events(self, time_unit: float = 1e6):
        """Yield Chrome Trace events for the physical plane (pid 3):
        one lane per worker, kernel slices with ticket/span
        attribution."""
        epoch = self.epoch_ns
        yield {"name": "process_name", "ph": "M", "pid": PID_PHYS,
               "args": {"name": "physical workers"}}
        for worker, tid in self._tids.items():
            yield {"name": "thread_name", "ph": "M", "pid": PID_PHYS,
                   "tid": tid, "args": {"name": f"phys:{worker}"}}
        for rec in self.records():
            event = {
                "name": rec.kind, "cat": "phys", "ph": "X",
                "ts": (rec.t0_ns - epoch) / 1e9 * time_unit,
                "dur": (rec.t1_ns - rec.t0_ns) / 1e9 * time_unit,
                "pid": PID_PHYS, "tid": self.tid_of(rec.worker),
                "args": {"worker": rec.worker, "ticket": rec.ticket},
            }
            if rec.span:
                event["args"]["span"] = rec.span
            if rec.nbytes:
                event["args"]["bytes"] = rec.nbytes
            yield event


# -- capture mode (the CI observability-phys job) ----------------------------

def capture(outdir: str, *, workers: int = 4, app: str = "gemm") -> dict:
    """Run one telemetry-on partitioned app on the threaded executor and
    write the merged artifacts: RunReport with per-worker stats, merged
    Perfetto trace (virtual tracks + physical lanes + flows), and the
    phys summary."""
    import hashlib

    import numpy as np

    from repro.core.system import System
    from repro.dist.bench import APP_CASES
    from repro.dist.runner import DistributedScheduler
    from repro.exec.threaded import ThreadedExecutor
    from repro.obs.report import RunReport
    from repro.tools.trace_export import write_chrome_trace

    os.makedirs(outdir, exist_ok=True)
    make_app, make_tree = APP_CASES[app]
    ex = ThreadedExecutor(workers=workers, telemetry=True)
    sys_ = System(make_tree(), executor=ex)
    try:
        application = make_app(sys_)
        application.run(sys_,
                        scheduler=DistributedScheduler(workers=workers))
        digest = hashlib.sha256(np.ascontiguousarray(
            application.result()).tobytes()).hexdigest()
        report = RunReport.from_system(sys_,
                                       name=f"{app}-threaded{workers}")
        report.save(os.path.join(outdir, f"report_phys_{app}.json"))
        merger = ex.telemetry.merger()
        events = write_chrome_trace(
            sys_.timeline.trace,
            os.path.join(outdir, f"trace_phys_{app}.json"),
            spans=sys_.obs, phys=merger)
        summary = ex.telemetry.summary()
        with open(os.path.join(outdir, f"phys_summary_{app}.json"),
                  "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        # Pool threads report as t0, t1, ...; "main" would mean the
        # kernels never left the coordinator thread.
        lanes = sum(1 for w in summary["workers"] if w.startswith("t"))
        spans_hit = sum(1 for r in merger.records()
                        if r.kind == "kernel" and r.span > 0)
        return {"app": app, "digest": digest, "events": events,
                "worker_lanes": lanes, "kernel_spans": spans_hit,
                "tasks": summary["tasks"]}
    finally:
        sys_.close()
        ex.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.phys",
        description="Capture a telemetry-on threaded run: merged "
                    "Perfetto trace, per-worker stats, phys summary.")
    parser.add_argument("--capture", metavar="DIR", required=True,
                        help="artifact directory")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--app", default="gemm",
                        choices=("gemm", "hotspot", "sort", "spmv"))
    args = parser.parse_args(argv)
    row = capture(args.capture, workers=args.workers, app=args.app)
    print(f"captured {row['app']}: {row['events']} events, "
          f"{row['worker_lanes']} worker lanes, {row['tasks']} tasks, "
          f"{row['kernel_spans']} span-attributed kernel slices")
    if row["worker_lanes"] < 1 or row["kernel_spans"] < 1:
        print("ERROR: merged trace is missing worker lanes or span "
              "attribution")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
