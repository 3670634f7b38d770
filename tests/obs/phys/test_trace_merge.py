"""Merged Perfetto export: a telemetry-on threaded run renders
physical worker lanes (pid 3) next to the virtual tracks, kernel
slices carry their virtual span id, and virtual spans arrow into the
physical lanes via the ``virt_phys`` flow namespace."""

import json

import pytest

from repro.core.system import System
from repro.exec.threaded import ThreadedExecutor
from repro.memory.units import KB, MB
from repro.obs.phys import PID_PHYS, PhysTelemetry
from repro.tools.trace_export import to_chrome_trace, write_chrome_trace
from repro.topology.builders import apu_two_level

_FLOW_VPHYS_BASE = 1 << 35


@pytest.fixture(scope="module")
def merged_run(tmp_path_factory):
    """One 2-worker telemetry-on GEMM, exported with spans + phys."""
    from repro.apps.gemm import GemmApp

    ex = ThreadedExecutor(workers=2, telemetry=True)
    sys_ = System(apu_two_level(storage_capacity=8 * MB,
                                staging_bytes=256 * KB), executor=ex)
    path = tmp_path_factory.mktemp("trace") / "merged.json"
    try:
        GemmApp(sys_, m=128, k=128, n=128, seed=3).run(sys_)
        merger = ex.telemetry.merger()
        count = write_chrome_trace(sys_.timeline.trace, str(path),
                                   spans=sys_.obs, phys=merger)
        events = json.loads(path.read_text())["traceEvents"]
        assert count == len(events)
        return events, merger
    finally:
        sys_.close()
        ex.close()


def test_physical_lanes_present_and_named(merged_run):
    events, merger = merged_run
    metas = [e for e in events if e.get("ph") == "M"
             and e.get("pid") == PID_PHYS]
    names = {e["args"]["name"] for e in metas}
    assert "physical workers" in names
    # Which pool threads picked up work is a scheduling race; every
    # one that did gets a named lane holding its slices.
    workers = set(merger.telemetry.records)
    assert workers and all(w.startswith("t") for w in workers)
    assert {f"phys:{w}" for w in workers} <= names
    lanes = {e.get("tid") for e in events
             if e.get("pid") == PID_PHYS and e.get("ph") == "X"}
    assert lanes == {merger.tid_of(w) for w in workers}


def test_kernel_slices_carry_span_and_ticket(merged_run):
    events, _ = merged_run
    kernels = [e for e in events if e.get("pid") == PID_PHYS
               and e.get("ph") == "X" and e["name"] == "kernel"]
    assert kernels, "no physical kernel slices in the merged trace"
    attributed = [e for e in kernels if e["args"].get("span", 0) > 0]
    assert attributed, "no kernel slice joined back to a virtual span"
    for e in kernels:
        assert e["ts"] >= 0.0 and e["dur"] >= 0.0
        assert e["args"]["worker"] in ("t0", "t1")
        assert e["args"]["ticket"] > 0


def test_virtual_spans_arrow_into_physical_lanes(merged_run):
    events, merger = merged_run
    vflows = [e for e in events if e.get("id", 0) >= _FLOW_VPHYS_BASE]
    assert vflows, "no virtual->physical flow arrows"
    starts = [e for e in vflows if e["ph"] == "s"]
    finishes = [e for e in vflows if e["ph"] == "f"]
    assert starts and finishes
    assert all(e["pid"] != PID_PHYS for e in starts)
    assert all(e["pid"] == PID_PHYS for e in finishes)
    anchored = {_FLOW_VPHYS_BASE + sid for sid in merger.kernel_anchors()}
    assert {e["id"] for e in finishes} <= anchored


def test_phys_accepts_raw_telemetry_and_plain_trace_unchanged(merged_run):
    """``phys=`` takes a PhysTelemetry directly (auto-merged), and
    omitting it keeps the physical plane entirely out of the export."""
    _, merger = merged_run
    events = to_chrome_trace_from_empty(phys=merger.telemetry)
    assert any(e.get("pid") == PID_PHYS for e in events)
    bare = to_chrome_trace_from_empty(phys=None)
    assert all(e.get("pid") != PID_PHYS for e in bare)


def to_chrome_trace_from_empty(*, phys):
    from repro.sim.trace import Trace
    return to_chrome_trace(Trace(), phys=phys)


def test_epoch_and_kernel_anchors():
    tel = PhysTelemetry(backend="test")
    for ticket in (1, 2):
        tel.note_submit(ticket)
    tel.records = {"t0": [("kernel", 150, 250, 1, 0)],
                   "t1": [("kernel", 220, 300, 2, 0),
                          ("kernel", 320, 400, 2, 0)]}
    tel.tickets[1]["span"] = 11
    tel.tickets[2]["span"] = 22
    tel.close()
    merger = tel.merger()
    assert merger.epoch_ns == 150
    anchors = merger.kernel_anchors()
    assert set(anchors) == {11, 22}
    s1, w1 = anchors[11]
    assert w1 == "t0" and s1 == pytest.approx(0.0)
    # Only the *first* kernel record anchors a span.
    s2, w2 = anchors[22]
    assert w2 == "t1" and s2 == pytest.approx((220 - 150) / 1e9)
