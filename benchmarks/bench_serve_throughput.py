"""Multi-tenant serve throughput: FIFO vs fair-share vs priority.

Thin shim over ``benchmarks/scenarios/serve_throughput.toml`` (body in
:mod:`repro.serve.bench`): one seeded Poisson stream of mixed GEMM /
HotSpot / SpMV / sort jobs from three tenants -- plus one injected
elephant GEMM -- served three times on identical fresh systems, once
per scheduling policy.  Reported numbers are all virtual: jobs per
virtual second, p50/p99 job latency, p99 queue wait.

Two properties are asserted, not just reported:

* **isolation pays**: fair share beats FIFO on whole-population p99
  job latency in the contended configuration (head-of-line blocking
  behind the elephant is what FIFO loses);
* **serving is free of numeric drift**: every served job's result
  bytes equal a solo in-order run of the same spec on a fresh system.

``python -m repro experiment run serve_throughput [--scale ci]`` runs
the scenario alone; ``python benchmarks/bench_serve_throughput.py
[--scale ci]`` also checks it and writes ``BENCH_serve.json`` at the
repository root.  ``python -m repro serve-bench`` serves the same
stream with a live ``/status`` endpoint and an SLO gate.
"""

from __future__ import annotations

from repro.bench.cells import run_records
from repro.bench.harness import bench_main
from repro.serve.bench import format_table


def check(payload: dict) -> None:
    policies = payload["policies"]
    for name, row in policies.items():
        assert row["jobs_done"] == payload["arrivals"]["count"], (
            f"{name}: {row['jobs_done']} jobs done of "
            f"{payload['arrivals']['count']} submitted")
        assert row["jobs_verified_bit_identical"] == row["jobs_done"], (
            f"{name}: only {row['jobs_verified_bit_identical']} of "
            f"{row['jobs_done']} jobs matched their solo in-order run")
    # The tentpole claim: fair share pulls the contended-population p99
    # below FIFO's head-of-line-blocked tail.  At ci scale the stream
    # is too short for a stable tail (nearest-rank p99 is the maximum,
    # i.e. the elephant itself), so the hard assertion is full-scale.
    if payload["scale"] == "full":
        assert payload["contention"]["fair_beats_fifo_p99"], (
            f"fair p99 {policies['fair']['p99_latency_s']}s did not beat "
            f"fifo p99 {policies['fifo']['p99_latency_s']}s")
    # Work conservation: total throughput is policy-invariant.
    rates = [row["virtual_jobs_per_s"] for row in policies.values()]
    assert max(rates) - min(rates) < 1e-6 * max(rates)


def test_serve_throughput():
    check(run_records("serve_throughput")[0])


if __name__ == "__main__":
    raise SystemExit(bench_main("serve_throughput", "BENCH_serve.json",
                                check, format_table))
