"""The baton between the service event loop and one job's thread.

Each served job runs its application's ordinary ``run()`` on a private
thread, with a :class:`CooperativeScheduler` installed as the level
executor.  Instead of draining a lowered level itself, the scheduler
*offers* the level's ready task-graph nodes to the service through a
:class:`JobGate` and blocks.  The service picks one ``(job, node)``
pair at a time, wakes exactly that job's thread for exactly that node,
and waits for the thread to park again before deciding anything else.

At most one job thread is ever runnable, so execution is single-file
and deterministic: identical admission order plus identical grant
decisions reproduce the identical interleaving, timeline and allocator
state, byte for byte.  Threads are a *re-entrancy* vehicle -- an app's
``run()`` may recurse through nested levels, custom phase loops and
``finally`` blocks, and the gate suspends it wherever it happens to be
-- not a parallelism vehicle.

Work a job performs *between* offers (app construction, inter-level
phases like the sort merge or HotSpot restaging, teardown) rides
attached to the preceding grant: the thread simply keeps running until
its next offer or until ``run()`` returns.
"""

from __future__ import annotations

import threading

from repro.core.scheduler import Scheduler
from repro.errors import SchedulerError


class JobGate:
    """Two-lock baton handing control between a job thread and the
    service loop.

    Each direction is a lock held while its side has nothing to say:
    releasing ``_parked`` tells the service the job has parked (or
    finished), releasing ``_go`` hands the job its grant, and each
    waiter takes its lock back by acquiring it.  A plain lock may be
    released by a thread other than its holder, which makes it the
    cheapest one-shot signal the standard library offers.  All methods
    are called with the counterpart blocked, so the shared fields need
    no further locking.
    """

    def __init__(self) -> None:
        self._go = threading.Lock()        # service -> job: execute grant
        self._parked = threading.Lock()    # job -> service: offered / done
        self._go.acquire()
        self._parked.acquire()
        self.plan = None
        self.ready: list | None = None
        self.granted = None
        self.done = False
        self.error: BaseException | None = None

    # -- job-thread side --------------------------------------------------

    def offer(self, plan, ready: list):
        """Publish this level's ready nodes, park, and return the node
        the service granted."""
        self.plan = plan
        self.ready = ready
        self._parked.release()
        self._go.acquire()
        node = self.granted
        self.granted = None
        return node

    def finish(self, error: BaseException | None = None) -> None:
        """Signal that the job's ``run()`` returned (or raised)."""
        self.done = True
        self.error = error
        self.plan = None
        self.ready = None
        self._parked.release()

    # -- service side -----------------------------------------------------

    def wait_parked(self) -> None:
        """Block until the job thread is parked at an offer or done."""
        self._parked.acquire()

    def grant(self, node) -> None:
        """Wake the job thread to execute ``node`` (must be one of the
        nodes it offered)."""
        self.granted = node
        self._go.release()


class CooperativeScheduler(Scheduler):
    """Level executor that yields every node decision to the service.

    Drains a lowered :class:`~repro.plan.lower.LevelPlan` by repeatedly
    offering ``graph.ready()`` through the job's gate and executing
    whichever node comes back.  Nested recursion levels re-enter
    :meth:`_drain` on the same thread, so the service transparently
    interleaves at whatever level the job is currently expanding.

    The service always grants ``ready[0]``; for a graph executed as a
    prefix of its recorded program order that is the next program-order
    node, so each job's own operation sequence is exactly the
    :class:`~repro.core.scheduler.InOrderScheduler` sequence -- the
    property the solo bit-identity check rests on.
    """

    def __init__(self, gate: JobGate, *, keep_plans: bool = False) -> None:
        super().__init__(keep_plans=keep_plans)
        self.gate = gate

    def _drain(self, plan) -> None:
        graph = plan.graph
        while not graph.complete:
            ready = graph.ready()
            if not ready:
                raise SchedulerError(
                    f"cooperative drain stalled with {graph.remaining} "
                    f"pending nodes (dependency cycle?)")
            node = self.gate.offer(plan, ready)
            if node is None or node not in ready:
                raise SchedulerError(
                    f"service granted {node!r}, which this job did not offer")
            plan.execute(node)
