"""Stress test of the JobGate baton between the service and job threads."""

import random
import sys
import threading
import time

from repro.serve import JobGate


def test_baton_runs_one_thread_at_a_time_under_stress():
    """More job threads than cores and a tiny switch interval: each grant
    must wake exactly the granted job for exactly one step.  The step is
    an unlocked read-modify-write with a yield in the middle, so a
    second runnable thread would lose updates."""
    jobs, rounds = 6, 200
    gates = [JobGate() for _ in range(jobs)]
    counter = [0]
    ran: list[int] = []
    wrong: list[tuple] = []

    def body(j: int) -> None:
        gate = gates[j]
        for r in range(rounds):
            node = gate.offer(None, [(j, r)])
            if node != (j, r):
                wrong.append((j, r, node))
            value = counter[0]
            time.sleep(0)
            counter[0] = value + 1
            ran.append(j)
        gate.finish()

    granted: list[int] = []

    def service() -> None:
        threads = [threading.Thread(target=body, args=(j,), daemon=True)
                   for j in range(jobs)]
        for thread, gate in zip(threads, gates):
            thread.start()
            gate.wait_parked()
        live = list(range(jobs))
        rng = random.Random(0)
        while live:
            j = rng.choice(live)
            gate = gates[j]
            gate.grant(gate.ready[0])
            granted.append(j)
            gate.wait_parked()
            if gate.done:
                live.remove(j)
        for thread in threads:
            thread.join(timeout=10)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        loop = threading.Thread(target=service, daemon=True)
        loop.start()
        loop.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not loop.is_alive(), "service loop hung at the gate"
    assert wrong == []
    assert counter[0] == jobs * rounds
    assert ran == granted
    assert all(g.done and g.error is None for g in gates)
