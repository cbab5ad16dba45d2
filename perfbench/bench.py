"""The benchmark harness: cold passes, output checks, metrics and tracing.

``run.py`` parses the command line and makes the library importable; the
functions here do the measuring.  See ``run.py`` for the command line and
``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import statistics
import time
import traceback

import layers
import workloads as wl
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# instance builds timed at the start of each pass: at least this many, and
# more until this long has gone by, so a corpus that builds in milliseconds
# still gives a median over many builds; the last build is used
SETUP_BUILDS = 3
SETUP_SECONDS = 0.2
# On a shared host the process runs up to 1.5 to 2 times faster for
# stretches of a few seconds, and the library and a fixed pure-Python loop
# speed up together (not by quite the same factor).  Each timed sample is
# therefore scaled to the speed at which the loop below takes REF_SECONDS
# for REF_LOOPS steps, its usual time on the 2-vCPU virtual machine the
# benchmark was written on, using the loop timed right next to the sample.
# A set-up build takes milliseconds, so the loop timed before it runs
# SETUP_REF_LOOPS steps.  README.md has the measurements.
REF_LOOPS = 400_000
REF_SECONDS = 0.05
SETUP_REF_LOOPS = 100_000
# untraced/traced pass pairs in a traced run
TRACE_PAIRS = 3


class StageFailed(Exception):
    """A stage raised unexpectedly or returned an output that is not pinned."""


class Checker:
    """Runs stages: times each one, then digests and checks it untimed.

    ``elapsed`` sums stage time only.  With ``record`` set, digests are
    stored there instead of compared.  While ``tracer`` is set it is paused
    during digests, so their work is not counted as library work.
    """

    def __init__(self, pins, record=None):
        self.pins = pins
        self.record = record
        self.tracer = None
        self.elapsed = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}

    def __call__(self, key, fn, *args, expect=None):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a stage boundary: count it and go on
            self.elapsed += time.perf_counter() - t0
            if expect is None or not isinstance(exc, expect):
                traceback.print_exc()
                self._fail(key, "raised %s: %s" % (type(exc).__name__, exc))
                raise StageFailed(key) from exc
            self._compare(key, "%s: %s" % (type(exc).__name__, exc))
            return None
        self.elapsed += time.perf_counter() - t0
        if expect is not None:
            self._fail(key, "did not raise %s" % expect.__name__)
            raise StageFailed(key)
        self._compare(key, result)
        return result

    def _compare(self, key, output):
        active = self.tracer is not None and self.tracer.active
        if active:
            self.tracer.active = False
        try:
            got = wl.digest(output)
        finally:
            if active:
                self.tracer.active = True
        self.digests[key] = got
        if self.record is not None:
            self.record[key] = got
        elif self.pins.get(key) != got:
            self._fail(key, "digest %s, pinned %s" % (got, self.pins.get(key)))
            raise StageFailed(key)

    def _fail(self, key, why):
        self.failed += 1
        self.problems.append("%s: %s" % (key, why))


def timed_setup(workload, instance_seed):
    t0 = time.perf_counter()
    inst = wl.setup(workload, instance_seed)
    return inst, time.perf_counter() - t0


def reference_s(loops=REF_LOOPS):
    """Seconds a fixed pure-Python loop, calling no library code, takes for
    ``REF_LOOPS`` steps, timed over ``loops`` steps."""
    t0 = time.perf_counter()
    total = 0
    for i in range(loops):
        total += i * i % 7
    return (time.perf_counter() - t0) * REF_LOOPS / loops


def scaled(seconds, ref):
    return seconds * REF_SECONDS / ref


def run_pass(workload, args, checker, setups=None, refs=None):
    """One cold pass; returns (stage seconds, entry order).

    When ``setups`` is given, the pass builds its instances several times
    (``SETUP_BUILDS``, ``SETUP_SECONDS``), each build right after a short
    run of the reference loop, and every build's (measured, scaled) times go
    there; the instances of all but the last build are thrown away.  The
    builds come first, after the last pass's objects are freed, so each one
    runs on the same heap whatever the entry order was.  When ``refs`` is
    given, the reference loop runs before every entry and after the last,
    and its times go there.
    """
    builds, start = 0, time.perf_counter()
    while True:
        gc.collect()
        ref = reference_s(SETUP_REF_LOOPS) if setups is not None else None
        inst, setup_s = timed_setup(workload, args.instance_seed)
        builds += 1
        if setups is None:
            break
        setups.append((setup_s, scaled(setup_s, ref)))
        if builds >= SETUP_BUILDS and time.perf_counter() - start >= SETUP_SECONDS:
            break
        del inst
    before = checker.elapsed
    entries = workload.entries(inst, checker, args.instance_seed)
    random.Random(args.seed).shuffle(entries)
    for _name, entry in entries:
        if refs is not None:
            refs.append(reference_s())
        try:
            entry()
        except StageFailed:
            pass
        # entries are independent checks: free each one's cyclic garbage
        # before the next, so peak memory does not depend on their order
        gc.collect()
    if refs is not None:
        refs.append(reference_s())
    return checker.elapsed - before, [name for name, _entry in entries]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def describe(name, values, unit):
    """Median, quartiles and count; with 20 samples or more, also the
    highest whole percentile that has at least 10 samples above it."""
    lo, hi = quartiles(values)
    text = "%s: median %.4f %s, quartiles %.4f..%.4f, n=%d" % (
        name, statistics.median(values), unit, lo, hi, len(values))
    n = len(values)
    if n >= 20:
        pct = 100 * (n - 10) // n
        text += ", p%d %.4f" % (pct, sorted(values)[-11])
    return text


def measure(workload, args, pins):
    """Cold passes until ``args.seconds`` are up.

    A pass starts only if it should end in time, judged by the wall time of
    the pass before, so a run lasts about ``args.seconds`` however long a
    pass is.  At least one pass runs.  A pass's time is scaled by the mean
    of the reference loop's times at its entry boundaries, a build's time by
    the loop timed just before it; the metrics are medians of scaled times.
    """
    checker = Checker(pins)
    setups, passes, refs = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        pass_refs = []
        pass_s, order = run_pass(workload, args, checker, setups, pass_refs)
        passes.append((pass_s, scaled(pass_s, statistics.mean(pass_refs))))
        refs.extend(pass_refs)
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("entry order: %s" % ", ".join(order))
    for name, samples in (("pass_s", passes), ("setup_s", setups)):
        print(describe(name + " (measured)", [m for m, _s in samples], "s"))
        print(describe(name + " (scaled)", [s for _m, s in samples], "s"))
    print(describe("reference loop", refs, "s"))
    print("peak_rss_mb: %.1f MiB" % peak)
    print("error_rate: %d/%d" % (checker.failed, checker.attempted))
    metrics = {"pass_s": (statistics.median(s for _m, s in passes), "s"),
               "setup_s": (statistics.median(s for _m, s in setups), "s"),
               "peak_rss_mb": (peak, "MiB")}
    return checker, metrics


def traced_pass(workload, args, checker):
    """One cold pass with the layer wrappers installed; returns (tracer, stage seconds)."""
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    checker.tracer = tracer
    try:
        tracer.active = True
        traced, _order = run_pass(workload, args, checker)
    finally:
        tracer.active = False
        tracer.uninstall()
        checker.tracer = None
    return tracer, traced


def measure_traced(workload, args, pins):
    """Untraced and traced passes in turn, ``TRACE_PAIRS`` of each.

    The per-layer metrics and the written spans come from the first traced
    pass; ``trace.overhead_ratio`` compares the medians of both kinds, so
    one pass caught by machine noise does not decide it.
    """
    checker = Checker(pins)
    plain, traced, tracer = [], [], None
    for _ in range(TRACE_PAIRS):
        seconds, order = run_pass(workload, args, checker)
        plain.append(seconds)
        pass_tracer, seconds = traced_pass(workload, args, checker)
        traced.append(seconds)
        tracer = tracer or pass_tracer
    units = layers.metric_units()
    values = layers.layer_metrics(tracer)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    print(describe("untraced pass_s", plain, "s"))
    print(describe("traced pass_s", traced, "s"))
    print("error_rate: %d/%d" % (checker.failed, checker.attempted))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
    tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                       "instance_seed": args.instance_seed, "order": order,
                       "untraced_pass_s": plain, "traced_pass_s": traced})
    print("spans written to %s" % os.path.relpath(path, ROOT))
    return checker, {name: (values[name], unit) for name, unit in units.items()}


def record(workload, args, pins):
    seen = {}
    checker = Checker(pins, record=seen)
    run_pass(workload, args, checker)
    if checker.failed:
        return checker
    pins.setdefault(workload.name, {}).update(seen)
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %d digests for %s" % (len(seen), workload.name))
    return checker
