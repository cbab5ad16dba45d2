"""Every pinned output of the benchmark, checked by one full pass per workload.

The benchmark's own tests (``perfbench/test_perfbench.py``) run only the
cheap entries of each workload; this runs all of them against the pins.
"""

import argparse
import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import bench  # noqa: E402
import workloads  # noqa: E402

# the stages one pass checks against the pins
ATTEMPTED = {"tr2_build": 8, "fair_rebase": 6, "tr2_coherence": 4}


@pytest.mark.parametrize("name", sorted(ATTEMPTED))
def test_a_full_pass_matches_every_pin(name):
    with open(bench.PINS) as fh:
        pins = json.load(fh)[name]
    checker = bench.Checker(pins)
    bench.run_pass(workloads.WORKLOADS[name], argparse.Namespace(seed=3, instance_seed=5),
                   checker)
    assert checker.failed == 0, checker.problems
    assert checker.attempted == ATTEMPTED[name]
