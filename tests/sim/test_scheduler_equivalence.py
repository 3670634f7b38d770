"""Indexed-vs-naive scheduler equivalence (the tentpole's safety net).

Randomized charge/charge_path workloads are replayed through the indexed
:class:`repro.sim.timeline._Slot` and the retained naive reference
(:class:`repro.sim.reference.NaiveSlot`); every placement, the makespan
and the per-phase/per-resource breakdowns must be *bit-identical* -- the
indexed scheduler is a pure wall-clock optimisation.

Workloads deliberately mix the regimes the index special-cases:
monotone ready times (append fast path), backfill into old gaps (bisect
skip, then a walk over the open-gap index), zero/epsilon durations (the
open-gap walk is gated on ``duration`` clearing the epsilon, and such
bookings make ``ends`` non-monotone, which forces the exact running-max
scan), multi-slot resources (tie-breaks) and multi-resource path
negotiation.  The serve-style regime replays what a multi-tenant run
does to a slot: interleaved job floors, dense runtime charges at
``ready == floor`` behind an early open gap, and sparse wide gaps.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.reference import NaiveSlot, naive_timeline
from repro.sim.timeline import Timeline, _Slot
from repro.sim.trace import Phase

RESOURCES = ("host", "ssd.read", "pcie.down", "gpu", "nvme.q")
MULTI_SLOT = {"nvme.q": 3}
PHASES = (Phase.IO_READ, Phase.DEV_TRANSFER, Phase.RUNTIME,
          Phase.GPU_COMPUTE)


def _random_ops(rng: random.Random, n_ops: int) -> list[tuple]:
    """A reproducible mixed workload: (kind, resources, duration, ready)."""
    ops = []
    clock = 0.0
    for _ in range(n_ops):
        mode = rng.random()
        if mode < 0.35:
            # Dense host-style charge: ready 0, tiny fixed duration.
            ops.append(("charge", ("host",), 0.5e-6, 0.0))
            continue
        duration = rng.choice(
            [0.0, 1e-13, rng.uniform(1e-6, 1e-3), rng.uniform(0.01, 0.2)])
        if mode < 0.55:
            # Monotone pipeline style: ready climbs with virtual time.
            clock += rng.uniform(0.0, 0.05)
            ready = clock
        else:
            # Backfill style: ready anywhere in the past.
            ready = rng.uniform(0.0, max(clock, 0.1))
        if mode < 0.85:
            ops.append(("charge", (rng.choice(RESOURCES),), duration, ready))
        else:
            k = rng.randint(2, 3)
            ops.append(("path", tuple(rng.sample(RESOURCES, k)),
                        duration, ready))
    return ops


def _apply(timeline: Timeline, i: int, op: tuple) -> bool:
    """Apply one op; returns False when the scheduler rejected it.

    Exact-time collisions between zero-duration bookings and a later
    charge can trip the (seed-inherited) occupy overlap guard in *both*
    implementations; equivalence then means both reject identically.
    """
    kind, resources, duration, ready = op
    phase = PHASES[i % len(PHASES)]
    try:
        if kind == "charge":
            timeline.charge(resources[0], duration, phase, ready=ready,
                            label=f"op{i}", nbytes=i)
        else:
            timeline.charge_path(list(resources), duration, phase,
                                 ready=ready, label=f"op{i}", nbytes=i)
    except SimulationError:
        return False
    return True


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7, 2019])
def test_indexed_matches_naive_reference(seed):
    ops = _random_ops(random.Random(seed), 400)
    indexed, naive = Timeline(), naive_timeline()
    for tl in (indexed, naive):
        for name, slots in MULTI_SLOT.items():
            tl.resource(name, slots=slots)
    for i, op in enumerate(ops):
        # Lockstep: both accept or both reject every single op.
        assert _apply(indexed, i, op) == _apply(naive, i, op), f"op {i}"
    # Bit-identical: same rows in the same order, exact float equality.
    assert list(indexed.trace.rows()) == list(naive.trace.rows())
    assert indexed.makespan() == naive.makespan()
    assert indexed.trace.by_phase() == naive.trace.by_phase()
    assert indexed.trace.by_resource() == naive.trace.by_resource()


def _serve_ops(rng: random.Random, n_ops: int) -> list[tuple]:
    """A serve-style workload: (kind, resources, duration, ready, floor).

    Jobs are admitted at increasing floors and interleaved op by op.
    Each job issues dense host runtime charges at ``ready == floor``
    (backfilling behind the early open gap the first booking leaves)
    and device charges that climb a job-local clock, leaving sparse
    wide gaps; a few zero and 1e-13 device durations make ``ends`` dip.
    """
    # The first booking starts late, leaving [0, 0.02) open on the host.
    ops = [("charge", ("host",), 1e-6, 0.02, 0.0)]
    jobs: list[list[float]] = []     # [floor, clock] per live job
    admit = 0.0
    for _ in range(n_ops):
        if not jobs or (len(jobs) < 6 and rng.random() < 0.05):
            admit += rng.uniform(0.0, 0.01)
            jobs.append([admit, admit])
        job = rng.choice(jobs)
        floor = job[0]
        mode = rng.random()
        if mode < 0.5:
            ops.append(("charge", ("host",), 0.5e-6, 0.0, floor))
        elif mode < 0.6:
            duration = rng.choice([0.0, 1e-13])
            ops.append(("charge", (rng.choice(("gpu", "ssd.read")),), duration,
                        rng.choice([0.0, job[1]]), floor))
        elif mode < 0.9:
            job[1] += rng.uniform(0.0, 0.004)
            duration = rng.uniform(1e-5, 2e-3)
            if rng.random() < 0.7:
                ops.append(("charge", (rng.choice(("gpu", "ssd.read")),),
                            duration, job[1], floor))
            else:
                ops.append(("path", ("ssd.read", "pcie.down"), duration,
                            job[1], floor))
        else:
            ops.append(("charge", ("host",), rng.uniform(1e-6, 5e-5),
                        job[1], floor))
        if rng.random() < 0.02:
            jobs.remove(job)
    return ops


@pytest.mark.parametrize("seed", [0, 5, 42])
def test_serve_style_fragmentation_matches_naive(seed):
    ops = _serve_ops(random.Random(seed), 3000)
    indexed, naive = Timeline(), naive_timeline()
    for i, (kind, resources, duration, ready, floor) in enumerate(ops):
        indexed.floor = naive.floor = floor
        op = (kind, resources, duration, ready)
        assert _apply(indexed, i, op) == _apply(naive, i, op), f"op {i}"
    assert list(indexed.trace.rows()) == list(naive.trace.rows())
    assert indexed.makespan() == naive.makespan()
    # The regime reaches both index paths: the host keeps monotone ends
    # behind open gaps, and some device slot has dipped ends.
    host = indexed.resource("host")._slots[0]
    assert not host._dipped and len(host._gap_hi) > 1
    assert any(indexed.resource(r)._slots[0]._dipped
               for r in ("gpu", "ssd.read"))


@pytest.mark.parametrize("bookings, queries", [
    # A 1e-13 booking placed first, then a long one backfilled in front
    # of it: ends dip (3.0, then 3.0 - 4e-13).  A query between the two
    # ends must still be pushed past the long booking.
    ([(3.0 - 5e-13, 1e-13), (2.0, 1.0)],
     [(3.0 - 2e-13, 0.0), (3.0 - 2e-13, 0.5), (2.5, 1e-13), (0.0, 1.0)]),
    # Touching bookings far from t=0, where one ulp exceeds the epsilon:
    # a duration just above the epsilon rounds into the closed gap.
    ([(0.0, 1e4), (1e4, 1.0)],
     [(0.0, 1.5e-12), (0.0, 3e-12), (5e3, 1.5e-12), (0.0, 1e-3)]),
])
def test_float_edge_cases_match_naive(bookings, queries):
    indexed, naive = _Slot(), NaiveSlot()
    for ready, duration in bookings:
        start = naive.earliest_gap(ready, duration)
        assert indexed.earliest_gap(ready, duration) == start
        indexed.occupy(start, duration)
        naive.occupy(start, duration)
    for ready, duration in queries:
        assert (indexed.earliest_gap(ready, duration)
                == naive.earliest_gap(ready, duration)), (ready, duration)


@pytest.mark.parametrize("seed", [11, 13])
def test_batch_apis_match_naive_loop(seed):
    """charge_batch / charge_path_batch placements are bit-identical to
    the naive reference charging the same ops one by one."""
    rng = random.Random(seed)
    # Strictly positive durations: batches cannot skip rejected ops in
    # lockstep, and only zero-length bookings can collide exactly.
    ops = [(rng.uniform(1e-6, 0.05),
            rng.uniform(0.0, 0.5), f"op{i}", i) for i in range(200)]
    indexed, naive = Timeline(), naive_timeline()
    indexed.charge_batch("dev", ops, Phase.IO_READ)
    for d, r, label, nb in ops:
        naive.charge("dev", d, Phase.IO_READ, ready=r, label=label,
                     nbytes=nb)
    assert list(indexed.trace.rows()) == list(naive.trace.rows())

    indexed2, naive2 = Timeline(), naive_timeline()
    indexed2.charge_path_batch(["a", "b"], ops, Phase.DEV_TRANSFER)
    for d, r, label, nb in ops:
        naive2.charge_path(["a", "b"], d, Phase.DEV_TRANSFER, ready=r,
                           label=label, nbytes=nb)
    assert list(indexed2.trace.rows()) == list(naive2.trace.rows())
    assert indexed2.makespan() == naive2.makespan()


def test_reference_slot_is_selectable_per_timeline():
    tl = naive_timeline()
    tl.charge("x", 1.0, Phase.IO_READ)
    assert isinstance(tl.resource("x")._slots[0], NaiveSlot)
    # A default timeline stays on the indexed implementation.
    assert not isinstance(Timeline().resource("x")._slots[0], NaiveSlot)
