"""Thread-pool executor for GIL-releasing NumPy kernels.

Large BLAS calls (``a @ b``), ufunc loops over big arrays and sorts all
drop the GIL, so a thread pool overlaps independent compute nodes
without any serialisation cost for the operands: the snapshot arrays
the runtime hands to ``submit`` are simply mutated in place by the
worker thread and merged back (submission order) by the ledger.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np

from repro.exec.base import ExecError, Executor, TaskResult, resolve_kernel


class ThreadedExecutor(Executor):
    """A persistent ``ThreadPoolExecutor`` running kernel specs."""

    name = "threaded"
    asynchronous = True

    def __init__(self, workers: int | None = None, *,
                 telemetry: bool = False) -> None:
        from repro.exec.base import default_exec_workers
        super().__init__(workers=workers or default_exec_workers(),
                         telemetry=telemetry)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-exec")
        self._futures: dict[
            int, tuple[Future, dict[str, np.ndarray], int]] = {}
        self._next = 0
        self._lock = threading.Lock()

    @staticmethod
    def _run(ref: str, args: dict,
             kwargs: dict) -> tuple[str, float, int, int]:
        fn = resolve_kernel(ref)
        t0 = time.perf_counter_ns()
        fn(**args, **kwargs)
        t1 = time.perf_counter_ns()
        worker = threading.current_thread().name
        return worker.rsplit("_", 1)[-1], (t1 - t0) / 1e9, t0, t1

    def submit(self, ref, arrays, kwargs, label=""):
        if self.closed:
            raise ExecError("executor is closed")
        args: dict[str, np.ndarray] = {}
        outputs: dict[str, np.ndarray] = {}
        for name, arr, writable in arrays:
            if not writable:
                arr = arr.view()
                arr.flags.writeable = False
            else:
                outputs[name] = arr
            args[name] = arr
        with self._lock:
            self._next += 1
            ticket = self._next
        self.stats.submitted += 1
        nbytes = sum(a.nbytes for a in args.values())
        self.stats.bytes_in += nbytes
        if self.telemetry is not None:
            # Bind the ambient span/node context now; the kernel record
            # joins on the ticket at wait time.
            self.telemetry.note_submit(ticket)
        fut = self._pool.submit(self._run, ref, args, kwargs)
        self._futures[ticket] = (fut, outputs, nbytes)
        return ticket

    def wait(self, ticket):
        try:
            fut, outputs, nbytes = self._futures[ticket]
        except KeyError:
            raise ExecError(f"unknown ticket {ticket}") from None
        try:
            worker, dt, t0, t1 = fut.result()
        except ExecError:
            raise
        except BaseException as exc:
            raise ExecError(f"threaded kernel failed: {exc!r}") from exc
        self.stats.note_done(f"t{worker}", dt)
        self.stats.bytes_out += sum(a.nbytes for a in outputs.values())
        tel = self.telemetry
        if tel is not None:
            tel.note_done(f"t{worker}", ticket,
                          [("kernel", t0, t1, ticket, nbytes)])
        return TaskResult(worker=f"t{worker}", seconds=dt, outputs=outputs)

    def release(self, ticket):
        self._futures.pop(ticket, None)

    def close(self):
        if not self.closed:
            self._pool.shutdown(wait=True, cancel_futures=False)
            self._futures.clear()
        super().close()
