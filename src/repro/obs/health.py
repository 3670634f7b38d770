"""Worker health classification and declarative SLO gating.

The physical telemetry plane (:mod:`repro.obs.phys`) timestamps every
kernel completion per worker; :class:`Watchdog` turns those liveness
instants into a health state -- ``healthy`` / ``slow`` / ``wedged`` --
the serve status endpoint streams and operators alert on.

:class:`SLOPolicy` is the declarative side: latency / queue /
utilization objectives loaded from JSON and evaluated against a status
snapshot (:meth:`repro.serve.service.JobService.status`).  The serve
bench and ``python -m repro regress --slo`` gate on the resulting
:class:`SLOReport` -- virtual-time latencies are deterministic, so an
SLO over them is a hard CI gate, not a flaky wall-clock one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter_ns

from repro.errors import NorthupError

HEALTHY = "healthy"
SLOW = "slow"
WEDGED = "wedged"


@dataclass(frozen=True)
class WorkerHealth:
    """One worker's liveness verdict."""

    worker: str
    state: str          # HEALTHY | SLOW | WEDGED
    age_s: float        # seconds since the last completion


class Watchdog:
    """Classify workers by the age of their last liveness signal.

    ``slow_after_s`` / ``wedged_after_s`` are absolute silence
    thresholds: pick them above the longest expected kernel so a
    long-running kernel is not misread as a hang.
    """

    def __init__(self, *, slow_after_s: float = 3.0,
                 wedged_after_s: float = 10.0) -> None:
        if wedged_after_s < slow_after_s:
            raise NorthupError(
                f"wedged_after_s ({wedged_after_s}) must be >= "
                f"slow_after_s ({slow_after_s})")
        self.slow_after_s = slow_after_s
        self.wedged_after_s = wedged_after_s

    def classify(self, last_seen_ns: dict[str, int],
                 now_ns: int | None = None) -> dict[str, WorkerHealth]:
        """``last_seen_ns`` is ``perf_counter_ns`` per worker
        (:attr:`PhysTelemetry.last_seen_ns`)."""
        now = perf_counter_ns() if now_ns is None else now_ns
        out = {}
        for worker, seen in sorted(last_seen_ns.items()):
            age = max(0.0, (now - seen) / 1e9)
            if age >= self.wedged_after_s:
                state = WEDGED
            elif age >= self.slow_after_s:
                state = SLOW
            else:
                state = HEALTHY
            out[worker] = WorkerHealth(worker=worker, state=state,
                                       age_s=age)
        return out

    def summary(self, last_seen_ns: dict[str, int],
                now_ns: int | None = None) -> dict:
        """The status-endpoint payload: states plus counts."""
        health = self.classify(last_seen_ns, now_ns)
        counts = {HEALTHY: 0, SLOW: 0, WEDGED: 0}
        for h in health.values():
            counts[h.state] += 1
        return {
            "workers": {w: {"state": h.state, "age_s": h.age_s}
                        for w, h in health.items()},
            "counts": counts,
        }


# -- SLO policies ------------------------------------------------------------

@dataclass(frozen=True)
class SLOCheck:
    """One objective's verdict against a snapshot."""

    name: str
    ok: bool
    observed: float
    bound: float
    message: str


@dataclass
class SLOReport:
    """Every objective of one policy, evaluated."""

    policy: str
    checks: list[SLOCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failed(self) -> list[SLOCheck]:
        return [c for c in self.checks if not c.ok]

    def table(self) -> str:
        lines = [f"SLO {self.policy}: "
                 f"{'PASS' if self.ok else 'FAIL'} "
                 f"({len(self.checks) - len(self.failed)}/"
                 f"{len(self.checks)} objectives met)"]
        for c in self.checks:
            mark = "ok " if c.ok else "MISS"
            lines.append(f"  [{mark}] {c.name}: {c.message}")
        return "\n".join(lines)


@dataclass(frozen=True)
class SLOPolicy:
    """Declarative service objectives (``None`` disables a check).

    Latency bounds apply to the service-wide virtual percentiles;
    utilization objectives read the physical worker summary and only
    arm when the snapshot carries one (telemetry-on runs).
    """

    name: str = "slo"
    max_p50_latency_s: float | None = None
    max_p99_latency_s: float | None = None
    max_queue_depth: int | None = None
    min_worker_utilization: float | None = None
    max_straggler_ratio: float | None = None
    max_wedged_workers: int | None = 0

    @classmethod
    def from_dict(cls, doc: dict) -> "SLOPolicy":
        known = {f for f in cls.__dataclass_fields__}
        bad = set(doc) - known
        if bad:
            raise NorthupError(
                f"unknown SLO objective(s) {sorted(bad)}; known: "
                f"{sorted(known)}")
        return cls(**doc)

    @classmethod
    def from_json(cls, path: str) -> "SLOPolicy":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def evaluate(self, status: dict) -> SLOReport:
        """Judge one status snapshot (see ``JobService.status``)."""
        report = SLOReport(policy=self.name)
        service = status.get("service", {})

        def check(name: str, observed: float, bound: float,
                  ok: bool, unit: str = "") -> None:
            report.checks.append(SLOCheck(
                name=name, ok=ok, observed=observed, bound=bound,
                message=f"observed {observed:g}{unit} vs bound "
                        f"{bound:g}{unit}"))

        if self.max_p50_latency_s is not None:
            v = float(service.get("p50_latency_s", 0.0))
            check("p50_latency_s", v, self.max_p50_latency_s,
                  v <= self.max_p50_latency_s, "s")
        if self.max_p99_latency_s is not None:
            v = float(service.get("p99_latency_s", 0.0))
            check("p99_latency_s", v, self.max_p99_latency_s,
                  v <= self.max_p99_latency_s, "s")
        if self.max_queue_depth is not None:
            v = int(service.get("pending_jobs", 0))
            check("queue_depth", v, self.max_queue_depth,
                  v <= self.max_queue_depth)
        summary = status.get("workers_summary") or {}
        workers = summary.get("workers") or {}
        if self.min_worker_utilization is not None and workers:
            utils = [w.get("utilization", 0.0) for w in workers.values()
                     if w.get("tasks", 0) > 0]
            v = min(utils) if utils else 0.0
            check("worker_utilization", v, self.min_worker_utilization,
                  v >= self.min_worker_utilization)
        if self.max_straggler_ratio is not None and workers:
            v = len(summary.get("stragglers", ())) / len(workers)
            check("straggler_ratio", v, self.max_straggler_ratio,
                  v <= self.max_straggler_ratio)
        if self.max_wedged_workers is not None:
            counts = (status.get("health") or {}).get("counts") or {}
            v = int(counts.get(WEDGED, 0))
            check("wedged_workers", v, self.max_wedged_workers,
                  v <= self.max_wedged_workers)
        return report


__all__ = ["HEALTHY", "SLOW", "WEDGED", "WorkerHealth", "Watchdog",
           "SLOCheck", "SLOReport", "SLOPolicy"]
