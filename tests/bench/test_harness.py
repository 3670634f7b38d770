"""The wall-clock bench harness: measure(), the environment record and
the BENCH_*.json writer."""

import json
from contextlib import contextmanager

import pytest

from repro.bench.harness import environment, measure, write_bench
from repro.errors import ConfigError


class FakeClock:
    """A clock that only moves when a variant advances it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _variant(clock, name, durations, log):
    """A variant whose n-th sample takes ``durations[n]`` fake seconds;
    its set-up and tear-down each take 1000 s that must not count."""
    calls = iter(durations)

    @contextmanager
    def open_sample():
        clock.now += 1000.0

        def run():
            log.append(name)
            clock.now += next(calls)
            return (name, len(log))

        yield run
        clock.now += 1000.0

    return open_sample


def test_measure_drops_warmup_alternates_and_summarises():
    clock, log = FakeClock(), []
    timed = measure({"a": _variant(clock, "a", [100.0, 1, 2, 3, 10], log),
                     "b": _variant(clock, "b", [100.0, 5, 5, 5, 5], log)},
                    repeats=4, clock=clock)
    # Warmup and even repeats in mapping order, odd repeats reversed.
    assert log == ["a", "b", "b", "a", "a", "b", "b", "a", "a", "b"]
    a, b = timed["a"], timed["b"]
    assert a.samples == (1, 2, 3, 10)          # warmup's 100 s dropped
    assert a.median == 2.5
    assert a.min == 1
    assert a.iqr == pytest.approx(4.75 - 1.75)
    assert (b.median, b.min, b.iqr) == (5, 5, 0)
    assert a.result == ("a", 9)                 # last kept sample's value
    assert a.spread() == {"repeats": 4, "iqr_s": 3.0, "min_s": 1}


def test_measure_needs_a_repeat():
    with pytest.raises(ConfigError, match="at least one repeat"):
        measure({}, repeats=0)


def test_environment_record_keys():
    env = environment()
    assert {"cores", "blas", "blas_threads", "python",
            "platform"} <= set(env)
    assert env["cores"] >= 1


def test_write_bench_stamps_environment(tmp_path):
    payload = {"cases": [1], "meta": {"scale": "ci"}}
    path = write_bench(str(tmp_path / "BENCH_x.json"), payload)
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["cases"] == [1]
    assert doc["meta"]["scale"] == "ci"
    assert doc["meta"]["environment"] == environment()
    assert "environment" not in payload["meta"]
