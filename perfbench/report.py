"""Print every end-to-end metric, with its unit, for each workload.

Run from the repository root::

    python3 perfbench/report.py [--trace]

Each workload is measured as ``perfbench/run.py`` measures it: for
``run_seconds`` from ``BENCHMARK.json``, with seed 1 and tracing off.
``--trace`` adds a traced run per workload with its per-layer metrics, its
self time per layer and the largest layer next to its prediction.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
import workloads

SEED = 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        seconds = json.load(handle)["run_seconds"]
    ok = True
    for workload in workloads.WORKLOADS:
        for trace in (False, True) if args.trace else (False,):
            result, layers, wrong, origin = run.measure(workload, SEED, seconds, trace)
            if not trace:
                print(json.dumps(origin))
            run.print_table(workload, result, layers, wrong, sys.stdout)
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
