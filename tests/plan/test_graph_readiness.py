"""Property test: the task graph's incremental readiness bookkeeping.

:class:`~repro.plan.graph.TaskGraph` tracks readiness with a per-node
count of unfinished predecessors and a set of ready node ids.  Random
DAGs built in program order are driven through interleaved
``add_edge`` (late edges from running or done sources included),
``mark_running`` and ``mark_done`` calls; after every step the graph's
answers must equal a brute-force recomputation from node states.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.plan.graph import (DONE, EDGE_KINDS, NODE_KINDS, PENDING, RUNNING,
                              TaskGraph)


def brute_ready(graph):
    """PENDING nodes whose predecessors are all DONE, in program order."""
    return [n for n in graph.nodes
            if n.state == PENDING
            and all(graph.nodes[p].state == DONE for p in n.preds)]


def assert_consistent(graph):
    expected = brute_ready(graph)
    assert graph.ready() == expected
    ready_ids = {n.node_id for n in expected}
    for node in graph.nodes:
        assert graph.is_ready(node) == (node.node_id in ready_ids)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_readiness_matches_brute_force(data):
    n = data.draw(st.integers(1, 12), label="nodes")
    graph = TaskGraph(level=0, tree_node=0)
    for i in range(n):
        graph.add_node(data.draw(st.sampled_from(NODE_KINDS)), chunk_index=i)
        assert_consistent(graph)
    # Edges always point forward in program order, so the graph stays
    # acyclic and ``nodes`` stays a topological order.
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if pairs:
        for a, b in data.draw(st.lists(st.sampled_from(pairs), max_size=20),
                              label="initial edges"):
            graph.add_edge(graph.nodes[a], graph.nodes[b],
                           data.draw(st.sampled_from(EDGE_KINDS)))
    assert_consistent(graph)

    for _ in range(data.draw(st.integers(0, 40), label="steps")):
        step = data.draw(st.sampled_from(("edge", "run", "done")))
        if step == "edge":
            # A late edge: any source state, into a node not yet started.
            late = [(a, b) for a, b in pairs
                    if graph.nodes[b].state == PENDING]
            if not late:
                continue
            a, b = data.draw(st.sampled_from(late))
            graph.add_edge(graph.nodes[a], graph.nodes[b],
                           data.draw(st.sampled_from(EDGE_KINDS)))
        elif step == "run":
            node = graph.nodes[data.draw(st.integers(0, n - 1))]
            if node in brute_ready(graph):
                graph.mark_running(node)
                assert node.state == RUNNING
            else:
                before = node.state
                with pytest.raises(SchedulerError):
                    graph.mark_running(node)
                assert node.state == before
        else:
            running = [m for m in graph.nodes if m.state == RUNNING]
            if not running:
                continue
            graph.mark_done(data.draw(st.sampled_from(running)))
        assert_consistent(graph)

    # Whatever happened so far, draining in program order completes.
    for node in graph.nodes:
        if node.state == RUNNING:
            graph.mark_done(node)
    while not graph.complete:
        node = graph.ready()[0]
        graph.mark_running(node)
        graph.mark_done(node)
        assert_consistent(graph)
    assert graph.ready() == [] and graph.remaining == 0
