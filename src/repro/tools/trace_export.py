"""Export execution traces to the Chrome Trace Event format.

Any run's timeline can be inspected visually: load the exported JSON in
``chrome://tracing`` (or https://ui.perfetto.dev).  Each virtual
resource becomes a track; each interval becomes a complete event with
its phase, label, and byte count attached.  Transfer intervals
additionally feed per-resource cumulative-bytes counter tracks (``"C"``
events), so Perfetto shows live bandwidth alongside each lane.

When the run recorded causal spans (:mod:`repro.obs.spans`), pass the
system's observer: every span becomes an async event on a second
process ("spans"), and flow arrows connect each parent span to its
children and chain the intervals belonging to one span -- the causal
DAG drawn over the flat timeline.

.. code-block:: python

    from repro.tools.trace_export import write_chrome_trace

    app.run(system)
    write_chrome_trace(system.timeline.trace, "run.json",
                       spans=system.obs)

``write_chrome_trace`` streams events to the file one at a time --
million-interval traces never buffer a full event list.
:func:`read_chrome_trace` parses an exported file back into a
:class:`~repro.sim.trace.Trace`; raw virtual seconds travel in each
event's ``args`` so the round-trip is bit-exact (the scaled ``ts``
field alone would lose float precision).
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

from repro.sim.trace import Phase, Trace

#: Perfetto color names per phase (stable visual identity per category).
_PHASE_COLORS = {
    Phase.GPU_COMPUTE: "good",
    Phase.CPU_COMPUTE: "vsync_highlight_color",
    Phase.IO_READ: "bad",
    Phase.IO_WRITE: "terrible",
    Phase.DEV_TRANSFER: "yellow",
    Phase.MEM_COPY: "olive",
    Phase.SETUP: "grey",
    Phase.RUNTIME: "white",
    Phase.CACHE: "thread_state_runnable",
}

#: pid of the per-resource interval tracks / of the span tracks.
_PID_RESOURCES = 1
_PID_SPANS = 2

#: Flow-id namespace offset for parent->child span arrows (span-chain
#: flows use the bare span id).
_FLOW_PARENT_BASE = 1 << 32

#: Flow-id namespace offset for task-graph dependency arrows.
_FLOW_GRAPH_BASE = 1 << 33

#: Flow-id namespace offset for virtual-span -> physical-kernel arrows.
_FLOW_VPHYS_BASE = 1 << 35


def iter_chrome_events(trace: Trace, *, time_unit: float = 1e6,
                       counters: bool = True,
                       spans=None, graphs=None,
                       phys=None) -> Iterator[dict]:
    """Yield Chrome Trace Event dicts one at a time.

    ``time_unit`` scales virtual seconds to the format's microseconds
    (the default treats one virtual second as one displayed second).
    ``spans`` is an :class:`~repro.obs.spans.Observer` (or anything with
    a ``spans`` list); when given and non-empty, span tracks and flow
    arrows are emitted too.  ``graphs`` is an iterable of lowered
    :class:`~repro.plan.graph.TaskGraph`\\ s (e.g. a scheduler's kept
    ``plans``' graphs): every dependency edge whose endpoints both
    charged trace intervals becomes a flow arrow from the source node's
    last interval to the destination node's first -- the *actual* edges
    the executor respected, not an inference from timing.

    ``phys`` is a :class:`~repro.obs.phys.PhysTraceMerger` (or a
    :class:`~repro.obs.phys.PhysTelemetry`, promoted via ``merger()``):
    the physical plane joins the export as a third process -- one
    wall-clock lane per worker -- and every span-attributed physical
    kernel gets a flow arrow from the virtual span's first interval
    into its physical slice, tying the two clock domains together.
    """
    merger = phys
    if merger is not None and not hasattr(merger, "chrome_events"):
        merger = merger.merger()
    tids: dict[str, int] = {}
    cum_bytes: dict[str, int] = {}
    span_list = getattr(spans, "spans", None) if spans is not None else None
    have_spans = bool(span_list) and len(span_list) > 1
    track_spans = have_spans or merger is not None
    #: span id -> (ts, tid) of its previous interval, for chain flows.
    last_anchor: dict[int, tuple[float, int]] = {}
    #: span ids that have appeared in the trace (flow targets exist).
    first_anchor: dict[int, tuple[float, int]] = {}

    #: (src_last_row, dst_first_row, kind, src, dst) per graph edge.
    graph_edges: list[tuple[int, int, str, object, object]] = []
    needed_rows: set[int] = set()
    for g in (graphs or ()):
        for src, dst, kind in g.edges():
            if (src.first_interval is None or src.end_interval is None
                    or dst.first_interval is None
                    or dst.end_interval is None
                    or src.end_interval <= src.first_interval
                    or dst.end_interval <= dst.first_interval):
                continue
            srow, drow = src.end_interval - 1, dst.first_interval
            graph_edges.append((srow, drow, kind, src, dst))
            needed_rows.add(srow)
            needed_rows.add(drow)
    #: row index -> (start ts, end ts, tid), only for flow endpoints.
    row_anchor: dict[int, tuple[float, float, int]] = {}

    for row_idx, (start, end, phase, resource, label, nbytes, sid) \
            in enumerate(trace.span_rows()):
        tid = tids.setdefault(resource, len(tids) + 1)
        ts = start * time_unit
        if row_idx in needed_rows:
            row_anchor[row_idx] = (ts, end * time_unit, tid)
        event = {
            "name": label or phase.value,
            "cat": phase.value,
            "ph": "X",                       # complete event
            "ts": ts,
            "dur": (end - start) * time_unit,
            "pid": _PID_RESOURCES,
            "tid": tid,
            # Raw virtual seconds: the bit-exact round-trip channel
            # (ts/dur are scaled floats and lose precision).
            "args": {"resource": resource, "phase": phase.value,
                     "t": [start, end]},
        }
        if label:
            event["args"]["label"] = label
        if nbytes:
            event["args"]["bytes"] = nbytes
        if sid:
            event["args"]["span"] = sid
        color = _PHASE_COLORS.get(phase)
        if color is not None:
            event["cname"] = color
        yield event
        if counters and nbytes:
            cum = cum_bytes.get(resource, 0) + nbytes
            cum_bytes[resource] = cum
            yield {
                "name": f"bytes:{resource}",
                "ph": "C",                   # counter event
                "ts": end * time_unit,
                "pid": _PID_RESOURCES,
                "args": {"cumulative_bytes": cum},
            }
        if track_spans and sid > 0 and \
                (not have_spans or sid < len(span_list)):
            if sid not in first_anchor:
                first_anchor[sid] = (ts, tid)
            elif have_spans:
                # Chain this span's intervals; the matching "s" start is
                # emitted after the sweep (event order is irrelevant to
                # the format, only ts/pid/tid binding is).
                yield {"name": f"span#{sid}", "cat": "span_chain",
                       "ph": "t", "id": sid, "ts": ts,
                       "pid": _PID_RESOURCES, "tid": tid}
            last_anchor[sid] = (ts, tid)

    if have_spans:
        # Flow starts for every span chained above (>= 2 intervals).
        for sid, (ts, tid) in first_anchor.items():
            if last_anchor[sid] != (ts, tid):
                yield {"name": f"span#{sid}", "cat": "span_chain",
                       "ph": "s", "id": sid, "ts": ts,
                       "pid": _PID_RESOURCES, "tid": tid}
        # Parent->child causality arrows between first intervals.
        for sid, (ts, tid) in first_anchor.items():
            span = span_list[sid]
            parent = span.parent_id
            if parent and parent in first_anchor:
                p_ts, p_tid = first_anchor[parent]
                flow_id = _FLOW_PARENT_BASE + sid
                yield {"name": "causes", "cat": "span_tree", "ph": "s",
                       "id": flow_id, "ts": p_ts,
                       "pid": _PID_RESOURCES, "tid": p_tid}
                yield {"name": "causes", "cat": "span_tree", "ph": "f",
                       "bp": "e", "id": flow_id, "ts": ts,
                       "pid": _PID_RESOURCES, "tid": tid}
        # The span tree itself: async begin/end per span with intervals,
        # nested by depth on the spans pid.
        try:
            from repro.obs.spans import analyze
            tree = analyze(spans, trace)
        except Exception:      # pragma: no cover - analysis is optional
            tree = None
        if tree is not None:
            for st in tree.all():
                if not st.has_extent:
                    continue
                span = st.span
                name = span.kind + (f":{span.label}" if span.label else "")
                args = {"span": span.span_id, "parent": span.parent_id,
                        "self_seconds": st.self_seconds,
                        "bytes": st.self_bytes,
                        "resources": sorted(st.resources)}
                if span.attrs:
                    args.update(span.attrs)
                yield {"name": name, "cat": "span", "ph": "b",
                       "id": span.span_id, "ts": st.start * time_unit,
                       "pid": _PID_SPANS, "tid": 1, "args": args}
                yield {"name": name, "cat": "span", "ph": "e",
                       "id": span.span_id, "ts": st.end * time_unit,
                       "pid": _PID_SPANS, "tid": 1}
        yield {"name": "process_name", "ph": "M", "pid": _PID_SPANS,
               "args": {"name": "spans"}}

    # Task-graph dependency arrows: src's last interval -> dst's first.
    for i, (srow, drow, kind, src, dst) in enumerate(graph_edges):
        if srow not in row_anchor or drow not in row_anchor:
            continue
        _s_start, s_end, s_tid = row_anchor[srow]
        d_start, _d_end, d_tid = row_anchor[drow]
        fid = _FLOW_GRAPH_BASE + i
        args = {"edge": kind,
                "src": f"{src.kind}#{src.chunk_index}",
                "dst": f"{dst.kind}#{dst.chunk_index}"}
        yield {"name": f"dep:{kind}", "cat": "task_graph", "ph": "s",
               "id": fid, "ts": s_end, "pid": _PID_RESOURCES,
               "tid": s_tid, "args": args}
        yield {"name": f"dep:{kind}", "cat": "task_graph", "ph": "f",
               "bp": "e", "id": fid, "ts": d_start,
               "pid": _PID_RESOURCES, "tid": d_tid, "args": args}

    # The physical plane: wall-clock worker lanes (pid 3) plus arrows
    # from each virtual span's first interval into the first physical
    # kernel slice that ran on its behalf.
    if merger is not None:
        yield from merger.chrome_events(time_unit=time_unit)
        for sid, (start_s, worker) in merger.kernel_anchors().items():
            anchor = first_anchor.get(sid)
            if anchor is None:
                continue
            v_ts, v_tid = anchor
            fid = _FLOW_VPHYS_BASE + sid
            args = {"span": sid, "worker": worker}
            yield {"name": "executes", "cat": "virt_phys", "ph": "s",
                   "id": fid, "ts": v_ts, "pid": _PID_RESOURCES,
                   "tid": v_tid, "args": args}
            yield {"name": "executes", "cat": "virt_phys", "ph": "f",
                   "bp": "e", "id": fid, "ts": start_s * time_unit,
                   "pid": merger.PID, "tid": merger.tid_of(worker),
                   "args": args}

    # Thread-name metadata so tracks are labelled by resource.
    for resource, tid in tids.items():
        yield {
            "name": "thread_name", "ph": "M", "pid": _PID_RESOURCES,
            "tid": tid, "args": {"name": resource},
        }


def to_chrome_trace(trace: Trace, *, time_unit: float = 1e6,
                    counters: bool = True, spans=None,
                    graphs=None, phys=None) -> list[dict]:
    """Convert a trace to a list of Chrome Trace Event dicts."""
    return list(iter_chrome_events(trace, time_unit=time_unit,
                                   counters=counters, spans=spans,
                                   graphs=graphs, phys=phys))


def write_chrome_trace(trace: Trace, path: str, *,
                       time_unit: float = 1e6, counters: bool = True,
                       spans=None, graphs=None, phys=None) -> int:
    """Write ``trace`` as Chrome Trace Event JSON; returns event count.

    Streams: each event is serialised and written as it is produced, so
    memory stays O(#resources + #spans) however long the trace is.
    """
    count = 0
    with open(path, "w") as fh:
        fh.write('{"traceEvents": [')
        for event in iter_chrome_events(trace, time_unit=time_unit,
                                        counters=counters, spans=spans,
                                        graphs=graphs, phys=phys):
            if count:
                fh.write(",\n")
            fh.write(json.dumps(event))
            count += 1
        fh.write('], "displayTimeUnit": "ms"}')
    return count


def read_chrome_trace(path: str) -> Trace:
    """Parse a file written by :func:`write_chrome_trace` back into a
    :class:`Trace`.

    Only complete ("X") events with the raw-seconds ``args["t"]``
    payload are reloaded -- counters, flows, span events and metadata
    are derived views.  Reloaded intervals are bit-identical to the
    exported ones (endpoints come from the raw channel, not the scaled
    ``ts``/``dur`` fields), so per-resource and per-phase busy times
    match the original trace exactly.
    """
    with open(path) as fh:
        data = json.load(fh)
    trace = Trace()
    for event in data.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        args = event.get("args", {})
        raw = args.get("t")
        if raw is None:
            continue
        start, end = raw
        trace.record_raw(start, end, Phase(args["phase"]), args["resource"],
                         label=args.get("label", ""),
                         nbytes=args.get("bytes", 0),
                         span_id=args.get("span", 0))
    return trace
