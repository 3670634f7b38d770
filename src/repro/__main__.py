"""``python -m repro``: regenerate the paper's evaluation.

Subcommands::

    python -m repro report RUN.json      # RunReport on an exported trace
    python -m repro regress BASE NEW     # perf-regression gate
    python -m repro experiment run NAME  # declarative scenario harness
    python -m repro describe --plan      # dump lowered task graphs etc.
    python -m repro serve-bench          # multi-tenant serve throughput
    python -m repro top URL              # live dashboard over /status
    python -m repro [evaluate args...]   # default: repro.tools.evaluate

See ``--help`` on each.
"""

import sys


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "report":
        from repro.obs.report import main as report_main
        return report_main(argv[1:])
    if argv and argv[0] == "regress":
        from repro.obs.regress import main as regress_main
        return regress_main(argv[1:])
    if argv and argv[0] == "experiment":
        from repro.tools.experiment.cli import main as experiment_main
        return experiment_main(argv[1:])
    if argv and argv[0] == "describe":
        from repro.tools.describe import main as describe_main
        return describe_main(argv[1:])
    if argv and argv[0] == "serve-bench":
        from repro.serve.bench import main as serve_bench_main
        return serve_bench_main(argv[1:])
    if argv and argv[0] == "top":
        from repro.obs.live import top_main
        return top_main(argv[1:])
    from repro.tools.evaluate import main as evaluate_main
    return evaluate_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
