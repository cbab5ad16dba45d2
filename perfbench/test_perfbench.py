"""The benchmark's own tests: tracing repeats, and it changes no output.

Run from the repository root with ``python3 -m pytest -q perfbench``.  The
corpus entries used here are the cheap ones of each workload, so the tests
exercise every workload's harness path in about a minute.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

CHEAP = {
    "tr2_build": {"comparison"},
    "fair_rebase": {"family"},
    "tr2_coherence": {"nerve.cleavage", "micro"},
}


def cheap(name):
    full = wl.WORKLOADS[name]

    def entries(inst, run, seed):
        return [e for e in full.entries(inst, run, seed) if e[0] in CHEAP[name]]
    return wl.Workload(name, full.builders, entries)


def pins(name):
    with open(bench.PINS) as fh:
        return json.load(fh)[name]


@pytest.mark.parametrize("name", sorted(CHEAP))
def test_traced_counts_repeat_and_outputs_match(name):
    workload = cheap(name)
    args = argparse.Namespace(seed=3, instance_seed=5)
    plain = bench.Checker(pins(name))
    bench.run_pass(workload, args, plain)
    assert plain.failed == 0, plain.problems
    counts = []
    for _ in range(2):
        checker = bench.Checker(pins(name))
        tracer, _seconds = bench.traced_pass(workload, args, checker)
        assert checker.failed == 0, checker.problems
        assert checker.digests == plain.digests
        values = layers.layer_metrics(tracer)
        assert set(values) | {"trace.overhead_ratio"} == set(layers.metric_units())
        counts.append({k: v for k, v in values.items() if not k.endswith(".self_s")})
    assert counts[0] == counts[1]
    assert any(v for k, v in counts[0].items() if k.endswith(".calls"))


def test_tracer_uninstalls_and_self_time_excludes_children():
    from wgfair import fincat as fc
    original = fc.compose_functors
    tracer = Tracer()
    tracer.install([(fc, "discretize", "outer", "span", None),
                    (fc, "compose_functors", "inner", "span", None)])
    try:
        tracer.active = True
        fc.discretize(fc.chaotic(2))
    finally:
        tracer.active = False
        tracer.uninstall()
    assert fc.compose_functors is original
    outer, inner = tracer.spans
    assert outer[0] == "outer" and outer[3] == -1
    assert inner[0] == "inner" and inner[3] == 0
    totals = tracer.layer_totals()
    assert totals["outer"][1] == pytest.approx(
        (outer[2] - outer[1]) - (inner[2] - inner[1]))


def test_wrong_output_counts_as_failed():
    checker = bench.Checker({"k": ["expected"]})
    with pytest.raises(bench.StageFailed):
        checker("k", lambda: ["something else"])
    checker("k", lambda: ["expected"])
    with pytest.raises(bench.StageFailed):
        checker("k", lambda: ["expected"], expect=ValueError)
    assert (checker.attempted, checker.failed) == (3, 2)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tr2_build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert time.perf_counter() - t0 < 60
