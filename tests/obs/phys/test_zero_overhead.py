"""The zero-overhead-off contract and its dual: telemetry off must
allocate nothing; telemetry on may time everything but must not move a
single virtual result -- digests, makespans and trace shapes stay
identical across every backend."""

import hashlib

import numpy as np
import pytest

from repro.core.system import System
from repro.exec import EXEC_BACKENDS
from repro.obs.phys import PhysTelemetry
from tests.exec.test_backend_equivalence import CASES


def _run(name, backend, *, telemetry):
    make_app, make_tree = CASES[name]
    sys_ = System(make_tree(), executor=backend, telemetry=telemetry)
    try:
        app = make_app(sys_)
        app.run(sys_)
        digest = hashlib.sha256(
            np.ascontiguousarray(app.result()).tobytes()).hexdigest()
        return digest, sys_.makespan(), len(sys_.timeline.trace)
    finally:
        sys_.close()


@pytest.mark.parametrize("backend", EXEC_BACKENDS)
def test_no_telemetry_objects_allocated_when_off(backend):
    stores = PhysTelemetry.allocated
    _run("gemm", backend, telemetry=False)
    assert PhysTelemetry.allocated == stores, (
        f"{backend}: telemetry-off run allocated a PhysTelemetry")


@pytest.mark.parametrize("backend", EXEC_BACKENDS)
def test_virtual_results_identical_telemetry_on_vs_off(backend):
    off = _run("gemm", backend, telemetry=False)
    on = _run("gemm", backend, telemetry=True)
    assert on[0] == off[0], (
        f"{backend}: telemetry changed the result bytes")
    assert on[1] == off[1], (
        f"{backend}: telemetry drifted virtual time: {on[1]} != {off[1]}")
    assert on[2] == off[2], (
        f"{backend}: telemetry changed the trace shape")


def test_capacity_sensitive_app_identical_under_threaded_telemetry():
    # Sort's merge sizing reacts to capacity feedback -- the app most
    # likely to notice any accidental perturbation.
    off = _run("sort", "threaded", telemetry=False)
    on = _run("sort", "threaded", telemetry=True)
    assert on == off


def test_telemetry_on_records_exist_but_stats_match():
    """Sanity for the identity above: the on-run really did collect
    telemetry (it is not trivially identical because nothing ran)."""
    make_app, make_tree = CASES["gemm"]
    sys_ = System(make_tree(), executor="threaded", telemetry=True)
    try:
        make_app(sys_).run(sys_)
        tel = sys_.executor.telemetry
        assert tel is not None
        assert sum(len(r) for r in tel.records.values()) > 0
        assert sum(w["tasks"] for w in tel.worker_stats().values()) \
            == sys_.executor.stats.completed
    finally:
        sys_.close()
