"""The telemetry plane end-to-end: completions land keyed by ticket
with their submit-time context, per-worker stats and stragglers add
up, completions keep workers visibly alive, and the residue audit
flags leaked aggregators until the executor closes them."""

import numpy as np
import pytest

from repro.exec import fn_ref
from repro.exec.threaded import ThreadedExecutor
from repro.obs.health import HEALTHY, Watchdog
from repro.obs.phys import PhysTelemetry, telemetry_residue
from tests.exec import kernels


def _arr(value=0.0, n=256):
    return np.full(n, value, dtype=np.float32)


# -- the aggregator ----------------------------------------------------------

def test_submit_context_joins_ack_payload_on_ticket():
    tel = PhysTelemetry(backend="test")
    tel.current_span = 42
    tel.current_node = 3
    tel.note_submit(17)
    # Context moves on before the completion lands; the join must not
    # care.
    tel.current_span = 99
    tel.note_done("t1", 17, [("kernel", 1100, 1200, 17, 64)])
    assert tel.tickets[17] == {"span": 42, "node": 3}
    assert tel.span_of(17) == 42
    assert tel.records["t1"] == [("kernel", 1100, 1200, 17, 64)]
    assert tel.last_seen_ns["t1"] > 0
    tel.close()


def test_note_inline_allocates_distinct_pseudo_tickets():
    tel = PhysTelemetry(backend="inline")
    t1 = tel.note_inline("main", "kernel", 0, 2_000_000, nbytes=10)
    t2 = tel.note_inline("main", "kernel", 2_000_000, 3_000_000)
    assert t1 < 0 and t2 < 0 and t1 != t2
    assert tel.records["main"] == [("kernel", 0, 2_000_000, t1, 10),
                                   ("kernel", 2_000_000, 3_000_000, t2, 0)]
    tel.close()


def test_worker_stats_and_straggler_summary():
    tel = PhysTelemetry(backend="test")
    # t0 and t1 do two fast kernels each; t2 drags 10x longer.
    ns = 1_000_000
    for worker, dur in (("t0", 2 * ns), ("t1", 2 * ns), ("t2", 20 * ns)):
        tel.records[worker] = [("kernel", 0, dur, 1, 0),
                               ("kernel", dur + ns, 2 * dur + ns, 2, 0)]
    stats = tel.worker_stats()
    assert set(stats) == {"t0", "t1", "t2"}
    t0 = stats["t0"]
    assert t0["tasks"] == 2
    assert t0["kernel_s"] == pytest.approx(4e-3)
    assert t0["busy_s"] == pytest.approx(4e-3)
    assert t0["window_s"] == pytest.approx(5e-3)
    assert t0["utilization"] == pytest.approx(0.8)
    assert set(t0["phases"]) == {"kernel"}
    summary = tel.summary()
    assert summary["backend"] == "test"
    assert summary["tasks"] == 6
    assert summary["stragglers"] == ["t2"]
    assert summary["busy_skew"] == pytest.approx(40 / ((4 + 4 + 40) / 3))
    assert summary["phases"]["kernel"] == pytest.approx(48e-3)
    tel.close()


def test_telemetry_residue_lifecycle():
    tel = PhysTelemetry(backend="threaded")
    tel.records["t0"] = [("kernel", 0, 1, 1, 0)]
    entries = telemetry_residue("threaded")
    assert entries == ["phys-telemetry(threaded, records=1)"]
    assert telemetry_residue("inline") == []         # backend-filtered
    tel.close()
    assert telemetry_residue("threaded") == []
    # Data survives close for post-run analysis.
    assert tel.records["t0"]


# -- the threaded backend ---------------------------------------------------

def test_threaded_completions_carry_kernel_records_and_context():
    ex = ThreadedExecutor(workers=2, telemetry=True)
    try:
        assert telemetry_residue("threaded") != []   # open store flagged...
        ex.set_task_context(node_id=5, span_id=77)
        tickets = [ex.submit(fn_ref(kernels.fill),
                             [("out", _arr(), True)], {"value": float(i)})
                   for i in range(6)]
        for t in tickets:
            ex.wait(t)
            ex.release(t)
        tel = ex.telemetry
        for ticket in tickets:
            assert tel.tickets[ticket] == {"span": 77, "node": 5}
        assert all(w.startswith("t") for w in tel.records)
        records = [r for recs in tel.records.values() for r in recs]
        assert sorted(r[3] for r in records) == tickets
        assert all(r[0] == "kernel" and r[1] <= r[2] for r in records)
        stats = tel.worker_stats()
        assert sum(w["tasks"] for w in stats.values()) == len(tickets)
        # Every worker that completed a kernel is fresh to the watchdog.
        health = Watchdog(slow_after_s=3.0, wedged_after_s=10.0) \
            .classify(tel.last_seen_ns)
        assert set(health) == set(stats)
        assert all(h.state == HEALTHY for h in health.values())
    finally:
        ex.close()
    assert telemetry_residue("threaded") == []      # ...and close retires it


def test_threaded_error_still_raises_with_telemetry():
    ex = ThreadedExecutor(workers=1, telemetry=True)
    try:
        ticket = ex.submit(fn_ref(kernels.boom), [("x", _arr(), False)], {})
        with pytest.raises(Exception, match="exploded"):
            ex.wait(ticket)
        # Bound at submit; no record for a kernel that never finished.
        assert ticket in ex.telemetry.tickets
        assert ex.telemetry.records == {}
    finally:
        ex.close()
