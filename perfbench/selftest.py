"""Self-test of the benchmark at reduced size.

Runs every workload with ``--smoke`` twice on one seed, untraced and
traced, in fresh processes, and checks that

* every run reports ``correct`` with no failures;
* counts and virtual (``vt.*``) values repeat exactly between the two
  runs of one seed, and between the traced and untraced sessions;
* every metric ``BENCHMARK.json`` names is printed, with its unit.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7

#: Metrics that are host measurements and may differ between runs.
HOST_TIMED_UNITS = {"s", "MB", "GB/s", "GFLOP/s", "us", "ratio"}


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--smoke"], capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def exact(metrics: dict) -> dict:
    """The values that must repeat exactly: counts and virtual times."""
    return {k: m["value"] for k, m in metrics.items()
            if m["unit"] not in HOST_TIMED_UNITS}


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    problems: list[str] = []
    for wl in bench["workloads"]:
        name = wl["name"]
        runs = {trace: [run(name, trace), run(name, trace)]
                for trace in (0, 1)}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            for res in runs[trace]:
                if not res["correct"] or res["failed"]:
                    problems.append(f"{name} trace {trace}: failed checks")
                for m in bench[section]:
                    got = res["metrics"].get(m["name"])
                    if got is None:
                        problems.append(f"{name} trace {trace}: "
                                        f"{m['name']} not printed")
                    elif got["unit"] != m["unit"]:
                        problems.append(f"{name}: {m['name']} unit "
                                        f"{got['unit']} != {m['unit']}")
            a, b = (exact(r["metrics"]) for r in runs[trace])
            if a != b:
                moved = sorted(k for k in a if a[k] != b.get(k))
                problems.append(f"{name} trace {trace}: values moved "
                                f"between repeats: {moved}")
        print(f"{name}: checked")
    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
