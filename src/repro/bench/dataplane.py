"""Wall-clock cost of physical data movement: zero-copy vs naive plane.

The figure benches measure *virtual* time; this bench measures the real
seconds the framework spends actually moving bytes, before and after
the zero-copy data plane:

* **mem -> mem bulk** -- ``Device.copy_into`` (one ``np.copyto`` between
  backing views) against the retained naive path
  (:mod:`repro.memory.reference`), which round-trips every move through
  ``read``/``write`` copies.
* **file -> mem contiguous** -- pooled-descriptor ``os.preadv`` straight
  into the destination view vs open-per-op ``read()`` plus an
  intermediate ``bytes``.
* **strided file 2-D** -- the row-shard/ghost-zone shape: one spanning
  ``pread`` and an in-memory strided gather (or vectored per-row
  positioned reads) vs the naive per-row open/seek/read loop.  This is
  the case the vectored path exists for.
* **mem -> file 2-D scatter** -- the write-back direction (reported, no
  floor: ``fsync``-free buffered writes are cheap in both planes).

Every timed case asserts destination bytes identical between the two
planes before reporting.  A SortApp A/B over a file-backed tree then
checks end-to-end: virtual makespans must match bit for bit while the
zero-copy plane wins wall-clock.

The ``ci`` scale shrinks the working set and relaxes the mem->mem floor
(shared CI runners jitter small-buffer timings); the strided-file floor
stands at every scale because the baseline pays a file open per row.
Every wall time is the median of an alternating A/B
:func:`repro.bench.harness.measure`, with the spread under the case's
``meta``.  Run it as ``python -m repro experiment run dataplane
[--scale ci]``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.bench.harness import Measurement, measure, scale_params
from repro.memory import reference
from repro.memory.backends import FileBackend, MemBackend
from repro.memory.device import Device, DeviceSpec, StorageKind
from repro.memory.units import KB, MB

#: Acceptance floor for the strided case (every scale: the baseline
#: pays a file open per row).
TARGET_STRIDED_SPEEDUP = 5.0

#: Row stride of the 2-D source: rows interleaved 4x apart, the shape a
#: row shard of a 4x-wider matrix has on storage.
SHARD_STRIDE_FACTOR = 4


@dataclass(frozen=True)
class _Params:
    mem_moves: int
    mem_bytes: int
    file_moves: int
    file_bytes: int
    shard_moves: int
    shard_rows: int
    shard_row_bytes: int
    sort_n: int
    target_mem_speedup: float


SCALES = {
    "ci": _Params(mem_moves=400, mem_bytes=256 * KB, file_moves=200,
                  file_bytes=256 * KB, shard_moves=40, shard_rows=64,
                  shard_row_bytes=4 * KB, sort_n=60_000,
                  target_mem_speedup=1.3),
    "full": _Params(mem_moves=2_000, mem_bytes=1 * MB, file_moves=500,
                    file_bytes=1 * MB, shard_moves=100, shard_rows=128,
                    shard_row_bytes=8 * KB, sort_n=250_000,
                    target_mem_speedup=2.0),
}


def _mem_device(name: str, capacity: int) -> Device:
    spec = DeviceSpec(name=name, kind=StorageKind.MEM, capacity=capacity,
                      read_bw=1e9, write_bw=1e9)
    return Device(spec=spec, backend=MemBackend())


def _file_device(name: str, capacity: int, root: str) -> Device:
    spec = DeviceSpec(name=name, kind=StorageKind.FILE, capacity=capacity,
                      read_bw=1e9, write_bw=1e9)
    return Device(spec=spec, backend=FileBackend(root))


def _fill(device: Device, alloc_id: int, nbytes: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    device.backend.create(alloc_id, nbytes)
    device.backend.write(alloc_id, 0,
                         rng.integers(0, 256, nbytes).astype(np.uint8))


def _pair(timed: dict[str, Measurement]) -> dict:
    """The case fields of one naive-vs-zero-copy measurement."""
    naive, fast = timed["baseline_naive_s"], timed["zero_copy_s"]
    return {"baseline_naive_s": round(naive.median, 6),
            "zero_copy_s": round(fast.median, 6),
            "speedup": round(naive.median / fast.median, 2),
            "meta": {key: m.spread() for key, m in timed.items()}}


def _loop_pair(moves: int, naive: Callable[[], None],
               fast: Callable[[], None]) -> dict:
    """Time ``moves`` naive vs zero-copy moves as one A/B pair."""
    def loop(move: Callable[[], None]):
        def run() -> None:
            for _ in range(moves):
                move()
        return lambda: nullcontext(run)
    return _pair(measure({"baseline_naive_s": loop(naive),
                          "zero_copy_s": loop(fast)}, repeats=5))


def _case_contiguous(case: str, src: Device, dst: Device, moves: int,
                     nbytes: int, seed: int) -> dict:
    """Contiguous moves into memory: the zero-copy plane's single
    ``np.copyto`` (mem source) or pooled-fd ``preadv`` into the view
    (file source) vs the naive read+write round trip."""
    try:
        _fill(src, 1, nbytes, seed=seed)
        dst.backend.create(1, nbytes)
        dst.backend.create(2, nbytes)
        timing = _loop_pair(
            moves,
            lambda: reference.naive_copy(src.backend, 1, 0, dst.backend, 2,
                                         0, nbytes),
            lambda: src.copy_into(dst, 1, 0, 1, 0, nbytes))
        assert (dst.backend.read(1, 0, nbytes).tobytes()
                == dst.backend.read(2, 0, nbytes).tobytes()), \
            f"zero-copy {case} produced different bytes"
        return {"case": case, "moves": moves, "bytes_per_move": nbytes,
                **timing, "bytes_identical": True}
    finally:
        src.backend.close()
        dst.backend.close()


def _case_strided(case: str, p: _Params, src: Device, dst: Device,
                  src_stride: int, dst_stride: int, seed: int) -> dict:
    """Strided 2-D moves between a file and memory.

    The naive plane opens the file once *per row* (that is what the
    pre-change ``move_2d`` loop did through ``read``/``write``); the
    vectored plane issues one spanning ``pread`` (or positioned
    writes) and gathers or scatters in memory.
    """
    rows, row_bytes = p.shard_rows, p.shard_row_bytes
    src_size = (rows - 1) * src_stride + row_bytes
    dst_size = (rows - 1) * dst_stride + row_bytes
    try:
        _fill(src, 1, src_size, seed=seed)
        dst.backend.create(1, dst_size)
        dst.backend.create(2, dst_size)
        timing = _loop_pair(
            p.shard_moves,
            lambda: reference.naive_copy_2d(
                src.backend, 1, 0, src_stride, dst.backend, 2, 0,
                dst_stride, rows=rows, row_bytes=row_bytes),
            lambda: src.copy_into_2d(dst, 1, 0, src_stride, 1, 0,
                                     dst_stride, rows=rows,
                                     row_bytes=row_bytes))
        assert (dst.backend.read(1, 0, dst_size).tobytes()
                == dst.backend.read(2, 0, dst_size).tobytes()), \
            f"vectored {case} produced different bytes"
        return {"case": case, "moves": p.shard_moves, "rows": rows,
                "row_bytes": row_bytes,
                "stride": max(src_stride, dst_stride), **timing,
                "bytes_identical": True}
    finally:
        src.backend.close()
        dst.backend.close()


@contextmanager
def _sort_run(p: _Params, root: str, zero_copy: bool):
    """One external sort over a fresh file-backed tree."""
    from repro.apps.sort import SortApp
    from repro.core.system import System
    from repro.topology.builders import apu_two_level

    tree = apu_two_level(storage_backend=FileBackend(root),
                         staging_bytes=24 * KB)
    system = System(tree, zero_copy=zero_copy)
    try:
        row: dict = {}

        def run() -> dict:
            app = SortApp(system, n=p.sort_n, seed=9)
            app.run(system)
            row["out"] = app.result().tobytes()
            return row

        yield run
        row["makespan_s"] = system.makespan()
    finally:
        system.close()


def _case_sort_end_to_end(p: _Params, tmp_root: str) -> dict:
    """External sort over a file-backed root: zero_copy A/B.

    Asserts the sorted output and the virtual makespan are identical in
    both planes (the makespan via hex-encoded floats: bit identity, not
    approximate equality), and reports the wall-clock win.
    """
    timed = measure({
        "baseline_naive_s": lambda: _sort_run(
            p, os.path.join(tmp_root, "sort_naive"), False),
        "zero_copy_s": lambda: _sort_run(
            p, os.path.join(tmp_root, "sort_fast"), True),
    }, repeats=3)
    naive = timed["baseline_naive_s"].result
    fast = timed["zero_copy_s"].result
    assert fast["out"] == naive["out"], \
        "zero-copy plane changed sort results"
    assert float(fast["makespan_s"]).hex() == \
        float(naive["makespan_s"]).hex(), (
            f"zero-copy plane changed the virtual makespan: "
            f"{naive['makespan_s']!r} != {fast['makespan_s']!r}")
    return {"case": "external_sort_file_backed", "n": p.sort_n,
            "staging_bytes": 24 * KB, **_pair(timed),
            "makespan_s": fast["makespan_s"],
            "makespan_identical": True,
            "bytes_identical": True}


def run_bench(scale: str) -> dict:
    import tempfile
    p = scale_params(SCALES, scale, "dataplane")
    stride = p.shard_row_bytes * SHARD_STRIDE_FACTOR
    file_span = (p.shard_rows - 1) * stride + p.shard_row_bytes
    payload = p.shard_rows * p.shard_row_bytes
    with tempfile.TemporaryDirectory(prefix="bench_dataplane_") as tmp:
        cases = [
            _case_contiguous(
                "mem_to_mem_bulk", _mem_device("src", 4 * p.mem_bytes),
                _mem_device("dst", 4 * p.mem_bytes), p.mem_moves,
                p.mem_bytes, seed=1),
            _case_contiguous(
                "file_to_mem_contiguous",
                _file_device("disk", 4 * p.file_bytes,
                             os.path.join(tmp, "fc")),
                _mem_device("ram", 4 * p.file_bytes), p.file_moves,
                p.file_bytes, seed=2),
            # The acceptance case: a row shard gathered off storage.
            _case_strided(
                "strided_file_2d_gather", p,
                _file_device("disk", 2 * file_span, os.path.join(tmp, "fs")),
                _mem_device("ram", 4 * payload), stride, p.shard_row_bytes,
                seed=3),
            # The write-back direction (reported only).
            _case_strided(
                "mem_to_file_2d_scatter", p, _mem_device("ram", 4 * payload),
                _file_device("disk", 4 * file_span, os.path.join(tmp, "sc")),
                p.shard_row_bytes, stride, seed=4),
            _case_sort_end_to_end(p, tmp),
        ]
    return {
        "cases": cases,
        "meta": {
            "scale": scale,
            "target_strided_speedup": TARGET_STRIDED_SPEEDUP,
            "target_mem_speedup": p.target_mem_speedup,
        },
    }


def format_table(result: dict) -> str:
    return "\n".join(
        f"{c['case']:>28}: naive {c['baseline_naive_s']}s -> "
        f"zero-copy {c['zero_copy_s']}s ({c['speedup']}x)"
        for c in result["cases"])
