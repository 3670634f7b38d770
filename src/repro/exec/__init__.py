"""``repro.exec``: pluggable compute backends for task-graph kernels.

See :mod:`repro.exec.base` for the executor contract and
:mod:`repro.exec.ledger` for how asynchronous results stay byte- and
makespan-identical to the inline path.
"""

from repro.exec.base import (Binding, EXEC_BACKENDS, ExecError, ExecStats,
                             Executor, KernelSpec, TaskResult,
                             default_exec_workers, effective_cpu_count,
                             fn_ref, kernel_spec, make_executor,
                             resolve_kernel)
from repro.exec.inline import InlineExecutor
from repro.exec.ledger import MergeTarget, PendingLedger
from repro.exec.threaded import ThreadedExecutor

__all__ = [
    "Binding", "EXEC_BACKENDS", "ExecError", "ExecStats", "Executor",
    "InlineExecutor", "KernelSpec", "MergeTarget", "PendingLedger",
    "TaskResult", "ThreadedExecutor", "default_exec_workers",
    "effective_cpu_count", "fn_ref", "kernel_spec", "make_executor",
    "resolve_kernel",
]
