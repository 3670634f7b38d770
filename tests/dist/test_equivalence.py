"""The distributed bit-identity contract: every app, sharded into 2 and
4 partitions on every in-process executor, byte-identical results and
bit-identical virtual time vs the in-order run -- and, with the network
level enabled, unchanged results with shipments visible on the
trace."""

import hashlib

import numpy as np
import pytest

from repro.core.system import System
from repro.dist import DistributedScheduler
from repro.dist.bench import APP_CASES, _run_app
from repro.exec import EXEC_BACKENDS
from repro.memory.network import NETWORK_PRESETS
from repro.sim.trace import Phase

_REF_CACHE: dict = {}


def _reference(name):
    if name not in _REF_CACHE:
        _REF_CACHE[name] = _run_app(name)
    return _REF_CACHE[name]


@pytest.mark.parametrize("backend", EXEC_BACKENDS)
@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("name", sorted(APP_CASES))
def test_distributed_matches_in_order(name, workers, backend):
    ref_digest, ref_makespan, ref_intervals = _reference(name)
    sched = DistributedScheduler(workers=workers)
    digest, makespan, intervals = _run_app(name, executor=backend,
                                           scheduler=sched)
    assert digest == ref_digest, (
        f"{name} x{workers} on {backend} changed the result bytes")
    assert makespan == ref_makespan, (
        f"{name} x{workers} on {backend} drifted virtual time: "
        f"{makespan} != {ref_makespan}")
    assert intervals == ref_intervals, (
        f"{name} x{workers} on {backend} changed the trace shape")
    # The partition count is the scheduler's, not the executor's (the
    # inline executor has one worker): the identity above is not
    # trivially a single-partition drain.
    assert sched.partitionings[0].workers == workers


def test_partition_count_is_required():
    with pytest.raises(TypeError):
        DistributedScheduler()


def test_tree_strategy_keeps_identity():
    ref = _reference("gemm")
    got = _run_app("gemm",
                   scheduler=DistributedScheduler(workers=2, strategy="tree"))
    assert got == ref


def test_every_partition_gets_nodes():
    make_app, make_tree = APP_CASES["gemm"]
    sched = DistributedScheduler(workers=2, keep_plans=True)
    sys_ = System(make_tree())
    try:
        make_app(sys_).run(sys_, scheduler=sched)
        parts = sched.partitionings[0]
        assert parts.workers == 2
        assert all(parts.counts())
        tagged = {node.meta["partition"]
                  for node in sched.plans[0].graph.nodes}
        assert tagged == {0, 1}
    finally:
        sys_.close()


@pytest.mark.parametrize("backend", EXEC_BACKENDS)
def test_network_level_charges_shipments_without_changing_results(backend):
    make_app, make_tree = APP_CASES["gemm"]
    ref = _reference("gemm")
    tree = make_tree()
    tree.attach_network(NETWORK_PRESETS["loopback"])
    sched = DistributedScheduler(workers=2, keep_plans=True)
    sys_ = System(tree, executor=backend)
    try:
        app = make_app(sys_)
        app.run(sys_, scheduler=sched)
        digest = hashlib.sha256(
            np.ascontiguousarray(app.result()).tobytes()).hexdigest()
        assert digest == ref[0], "network charges may not touch bytes"
        assert sys_.makespan() >= ref[1], (
            "a modeled network cannot make the schedule faster")
        net = [iv for iv in sys_.timeline.trace
               if iv.phase is Phase.NET_TRANSFER]
        assert net, "no shipment landed on the trace"
        # One joint interval per shipment, occupying the source's tx
        # lane and the destination's rx lane together.
        assert all(iv.resource.startswith("net.loopback.w")
                   and ".rx" in iv.resource for iv in net)
        meta = sched.plans[0].graph.meta["network"]
        assert meta["shipments"] == len(net)
        assert meta["channel"]["name"] == "loopback"
    finally:
        sys_.close()


@pytest.mark.parametrize("backend", EXEC_BACKENDS)
@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("name", sorted(APP_CASES))
def test_explicit_network_charges_ib_edr_shipments(name, workers, backend):
    # DistributedScheduler(network=...) works without touching the
    # topology; result bytes stay identical, the shipments show up.
    ref = _reference(name)
    make_app, make_tree = APP_CASES[name]
    sched = DistributedScheduler(workers=workers,
                                 network=NETWORK_PRESETS["ib-edr"])
    sys_ = System(make_tree(), executor=backend)
    try:
        app = make_app(sys_)
        app.run(sys_, scheduler=sched)
        digest = hashlib.sha256(
            np.ascontiguousarray(app.result()).tobytes()).hexdigest()
        assert digest == ref[0]
        net = [iv for iv in sys_.timeline.trace
               if iv.phase is Phase.NET_TRANSFER]
        assert net and all("ib-edr" in iv.resource for iv in net)
    finally:
        sys_.close()
