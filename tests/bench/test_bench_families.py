"""The five wall-clock bench families behind the scenario layer: one
scale switch that rejects unknown names, and scenario records that
carry the committed BENCH_*.json shape."""

import json
import os

import pytest

from repro.bench import dataplane, pipeline, wallclock
from repro.bench.cells import run_records
from repro.bench.harness import REPO_ROOT
from repro.dist import bench as dist_bench
from repro.errors import ConfigError
from repro.serve import bench as serve_bench


@pytest.mark.parametrize("run_bench", [
    wallclock.run_bench, dataplane.run_bench, pipeline.run_bench,
    serve_bench.run_bench, dist_bench.run_bench,
], ids=["wallclock", "dataplane", "pipeline", "serve", "distributed"])
def test_unknown_scale_is_rejected(run_bench):
    with pytest.raises(ConfigError, match="unknown .* scale 'nightly'"):
        run_bench("nightly")


def _identical_flags(doc, path=""):
    """Every ``*_identical`` entry as (path, value, enclosing dict)."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key.endswith("_identical"):
                yield f"{path}.{key}", value, doc
            yield from _identical_flags(value, f"{path}.{key}")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _identical_flags(value, f"{path}[{i}]")


@pytest.mark.parametrize("scenario, bench_file", [
    ("dataplane", "BENCH_dataplane.json"),
    ("pipeline_overlap", "BENCH_pipeline.json"),
    ("serve_throughput", "BENCH_serve.json"),
    ("distributed_scaling", "BENCH_distributed.json"),
])
def test_scenario_record_round_trips_bench_shape(scenario, bench_file):
    (record,) = run_records(scenario, scale="ci")
    with open(os.path.join(REPO_ROOT, bench_file)) as fh:
        committed = json.load(fh)
    assert set(record) == set(committed)
    flags = list(_identical_flags(record))
    assert flags
    for path, value, entry in flags:
        if isinstance(value, bool):
            assert value is True, path
        else:   # serve counts the jobs verified against their solo run
            assert value == entry["jobs_done"], path
