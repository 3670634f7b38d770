"""``repro.dist``: distributed task-graph execution, modeled.

One lowered plan, sharded into partitions: the
:class:`~repro.dist.runner.DistributedScheduler` partitions each
top-level graph and charges cross-partition shipments to the modeled
network level (:mod:`repro.memory.network`), and
:mod:`repro.dist.model` projects the measured per-node costs onto N
worker lanes for the ``BENCH_distributed.json`` scaling curve.  Both
run in one process on the virtual clock; the partition is the
abstraction, not a transport.
"""

from repro.dist.model import (DistProjection, project_plan, project_run,
                              sweep)
from repro.dist.runner import DistributedScheduler

__all__ = [
    "DistProjection", "DistributedScheduler", "project_plan",
    "project_run", "sweep",
]
