#!/usr/bin/env python3
"""Benchmark for wgfair: cold-instance workloads through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload tr2_build --seed 1 --seconds 40 --trace 0

Every pass rebuilds its instances from the generators (``setup_s``), then runs
the workload's entries (``pass_s``).  Each stage's output is digested outside
the timed region and compared with ``perfbench/pins.json``; a stage that
raises unexpectedly or whose digest differs counts as failed.  ``--seed``
fixes the order of the entries within a pass; ``--instance-seed`` (default
5) picks the random weakly globular instance of ``tr2_build``, and 6 is a
held-out instance of similar size.  Seeds 19 and 33 are pinned too: larger
instances whose passes take 10 to 20 s.

With ``--trace 0`` passes repeat until ``--seconds`` have gone by, and
the end-to-end metrics are printed, each time scaled to a fixed machine
speed by a reference loop timed next to it (see ``bench.py``).  With
``--trace 1`` untraced and traced passes alternate, three of each, the
per-layer metrics are printed and the spans are written to
``.perfbench_out/`` at the repository root.  ``--record``
runs one pass and writes the digests it sees into the pins file instead of
checking them.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instance-seed", type=int, default=5)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wgfair", "__init__.py")):
        print("perfbench: no wgfair sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (have %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    with open(bench.PINS) as fh:
        pins = json.load(fh)

    if args.record:
        checker = bench.record(workload, args, pins)
        metrics = {}
    else:
        run = bench.measure_traced if args.trace else bench.measure
        checker, metrics = run(workload, args, pins.get(args.workload, {}))
    for line in checker.problems:
        print("FAILED %s" % line)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
