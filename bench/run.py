"""ynkit benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload cli_blended --seed 1 --seconds 40 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory and the CLI runs as ``python -m ynkit`` subprocesses with that
``src`` on ``PYTHONPATH``. Inputs are generated from the seed into
``.bench_work/`` before any timing and passed to ynkit only as files.

Set-up (generating inputs, starting the stub server) runs three times and
``setup_s`` is their median. Then whole passes of the workload's CLI steps
repeat, closed loop, until a pass of the median length so far would end
after ``--seconds``; every pass's outputs are checked. With ``--trace 0`` the result carries the
end-to-end metrics of BENCHMARK.json, medians over passes. With
``--trace 1``, untraced CLI passes alternate with traced passes that call
the same steps in this process through ``ynkit.cli.main``, with spans
around each layer's public functions (``tracing.py``); the result carries
the per-layer metrics of BENCHMARK.json, medians over passes, and 0 for a
layer the workload does not run.

The line before the result reports the bases: versions, source digest,
``nproc``, seed, input sizes and the per-step figures. The last line is
the result: ``{"correct", "attempted", "failed", "metrics"}``. Spans of a
traced run are saved under ``.bench_out/``.
"""

import argparse
import json
import os
import signal
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one ynkit benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="small: fixture-scale inputs for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "ynkit" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no ynkit source under {SRC} or no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import ynkit

    if Path(ynkit.__file__).resolve().parent != SRC / "ynkit":
        print(f"error: imported ynkit from {ynkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import measure

    if args.workload not in measure.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(measure.WORKLOADS)}")
    # the stub listens on localhost; never route it through a proxy
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    # turn SIGTERM into SystemExit so that the stub server and steps are stopped on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    report, result = measure.run(args, spec)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
