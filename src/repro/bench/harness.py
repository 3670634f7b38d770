"""The wall-clock bench harness: one timing loop, one environment
record, one writer.

Every wall-clock number a bench reports comes from :func:`measure`:
one warmup sample per variant, then a fixed number of repeats with the
variant order reversed on every other repeat (so an A/B pair does not
always run in the same cache and frequency state), summarised as
median, interquartile range and minimum.  A bench stores the median
under its existing wall key and the spread (:meth:`Measurement.spread`)
under a ``meta`` key, which :mod:`repro.obs.regress` ignores.

:func:`write_bench` is the one writer of the committed ``BENCH_*.json``
files; it stamps :func:`environment` into the payload's ``meta``.
:func:`bench_main` is the ``__main__`` body the ``benchmarks/bench_*.py``
shims share: run the scenario, check it, write the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, ContextManager, Mapping, TypeVar

from repro.errors import ConfigError

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))

T = TypeVar("T")

#: A variant opens a fresh sample: set-up runs on entry and tear-down on
#: exit, both untimed; the value entered is the zero-argument callable
#: whose call is the timed region.  ``lambda: nullcontext(fn)`` times
#: ``fn`` with no set-up.
Variant = Callable[[], ContextManager[Callable[[], Any]]]


@dataclass(frozen=True)
class Measurement:
    """The kept samples of one variant (warmup excluded), in run order,
    and the value its last kept sample returned."""

    samples: tuple[float, ...]
    result: Any

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    @property
    def min(self) -> float:
        return min(self.samples)

    @property
    def iqr(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(self.samples, n=4,
                                         method="inclusive")
        return q3 - q1

    def spread(self) -> dict[str, Any]:
        """The ``meta`` record kept next to the median."""
        return {"repeats": len(self.samples), "iqr_s": round(self.iqr, 6),
                "min_s": round(self.min, 6)}


def measure(variants: Mapping[str, Variant], *, repeats: int,
            clock: Callable[[], float] = perf_counter
            ) -> dict[str, Measurement]:
    """Time each variant: one warmup, then ``repeats`` kept samples.

    Run 0 (the warmup) and every even repeat visit the variants in
    mapping order; odd repeats visit them in reverse.
    """
    if repeats < 1:
        raise ConfigError(f"measure needs at least one repeat, got "
                          f"{repeats}")
    names = list(variants)
    samples: dict[str, list[float]] = {name: [] for name in names}
    results: dict[str, Any] = {}
    for run in range(repeats + 1):
        for name in (names if run % 2 == 0 else names[::-1]):
            with variants[name]() as fn:
                start = clock()
                out = fn()
                elapsed = clock() - start
            if run:
                samples[name].append(elapsed)
                results[name] = out
    return {name: Measurement(tuple(samples[name]), results[name])
            for name in names}


def scale_params(scales: Mapping[str, T], name: str, bench: str) -> T:
    """``scales[name]``, or a :class:`ConfigError` naming the choices."""
    try:
        return scales[name]
    except KeyError:
        raise ConfigError(f"unknown {bench} scale {name!r}; known: "
                          f"{sorted(scales)}") from None


def _blas() -> tuple[str, int | None]:
    """NumPy's BLAS as ``name version`` and its current thread count
    (``None`` when the library exposes no query)."""
    import ctypes

    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        name = "unknown"
    try:
        core = np._core if hasattr(np, "_core") else np.core
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return name, None
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads",
                   "MKL_Get_Max_Threads"):
        getter = getattr(lib, symbol, None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return name, int(getter())
    return name, None


def environment() -> dict[str, Any]:
    """The host facts a wall-clock number depends on."""
    from repro.exec.base import effective_cpu_count
    blas, blas_threads = _blas()
    return {"cores": effective_cpu_count(), "blas": blas,
            "blas_threads": blas_threads,
            "python": sys.version.split()[0],
            "platform": platform.platform()}


def write_bench(path: str, payload: dict) -> str:
    """Write ``payload`` as a ``BENCH_*.json`` document with the
    environment record in ``meta["environment"]``; returns ``path``."""
    doc = dict(payload)
    doc["meta"] = {**payload.get("meta", {}), "environment": environment()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


def bench_main(scenario: str, bench_file: str,
               check: Callable[[dict], None],
               format_table: Callable[[dict], str]) -> int:
    """Run ``scenario`` at ``--scale`` (the scenario's own scale names),
    ``check`` its payload and write it to ``bench_file`` at the
    repository root."""
    from repro.bench.cells import run_records
    parser = argparse.ArgumentParser(
        description=f"run the {scenario} scenario, check it and write "
                    f"{bench_file}")
    parser.add_argument("--scale", default=None,
                        help="a [scales.*] name of the scenario "
                             "(default: full)")
    args = parser.parse_args()
    try:
        (payload,) = run_records(scenario, scale=args.scale)
    except ConfigError as exc:
        parser.error(str(exc))
    check(payload)
    print(format_table(payload))
    print(f"wrote {write_bench(os.path.join(REPO_ROOT, bench_file), payload)}")
    return 0
