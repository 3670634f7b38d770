"""Benchmark harness: one entry point per paper table/figure.

* :mod:`repro.bench.configs` -- the scaled experimental setup (devices,
  trees, workload sizes) and the scaling rules that preserve the
  paper's compute:I/O ratios.
* :mod:`repro.bench.figures` -- runners that regenerate each figure's
  rows/series (Figures 6, 7, 8, 9, 11 plus the Section V-B runtime-
  overhead measurement and the ablations).
* :mod:`repro.bench.reporting` -- paper-style table formatting.
* :mod:`repro.bench.future` -- forward-looking analyses (storage
  generations, sharding strategies).
* :mod:`repro.bench.sweeps` -- generic parameter sweeps with CSV output.
* :mod:`repro.bench.parallel` -- process-pool fan-out of independent
  experiment configurations with a deterministic merge.
* :mod:`repro.bench.harness` -- the wall-clock benches' one timing loop
  (:func:`~repro.bench.harness.measure`), environment record and
  ``BENCH_*.json`` writer.
"""

from repro.bench import configs, figures, parallel, reporting

__all__ = ["configs", "figures", "parallel", "reporting"]
