"""The benchmark's corpus: instance builders, stage lists and output digests.

A workload is a ``setup`` that builds every instance of its corpus from the
generators, plus a list of entries.  An entry runs a chain of library stages
on the built instances through ``run``, which times each stage, digests its
output outside the timed region and compares the digest with the pinned one.
Entries are independent, so the benchmark may run them in any order.
"""

from __future__ import annotations

import dataclasses
import hashlib

from wgfair import fair2 as f2
from wgfair import fincat as fc
from wgfair import pseudo as ps
from wgfair import wgdouble as wg


def free_arrow():
    return fc.thin_from_preorder(2, [(0, 0), (0, 1), (1, 1)])


def pi_star(x):
    """Fat-window evaluation of a double category (the comparison functor).

    Arrows and units read off X1 and X0; compositions come from the strict
    pair level.  The same construction as the test suite's helper, built
    only from ``from_presentation`` and ``build_fair``.
    """
    p = f2.from_presentation(
        x.x0, x.x1, x.x0, x.d1, x.d0, fc.identity_functor(x.x0), x.s0,
        lambda f, g: x.comp.obj(x.pairs.obj_id[(f, g)]),
        lambda m, n: x.comp.mor(x.pairs.mor_id[(m, n)]),
        lambda w1, w2: w1, lambda m, n: m)
    return f2.build_fair(p)


# ---------------------------------------------------------------------------
# Digests of public outputs


def canon(obj):
    """Nested tuples of plain values standing for a public output.

    Categories give their sizes and endpoint/identity tables, functors their
    object and morphism maps, fiber products their labels, fair diagrams the
    level sizes of every shape.  Composition tables are left out, so a change
    of their storage does not change a digest.
    """
    if isinstance(obj, fc.FinCat):
        return ("cat", obj.n_obj, obj.n_mor, tuple(map(int, obj.src)),
                tuple(map(int, obj.tgt)), tuple(map(int, obj.identity)))
    if isinstance(obj, fc.FunctorMap):
        return ("fun", obj.source.n_obj, obj.source.n_mor,
                obj.target.n_obj, obj.target.n_mor,
                tuple(map(int, obj.obj_map)), tuple(map(int, obj.mor_map)))
    if isinstance(obj, fc.NatTransf):
        return ("nat", canon(obj.source), canon(obj.target),
                tuple(map(int, obj.components)))
    if isinstance(obj, fc.FiberChain):
        return ("chain", canon(obj.cat), obj.obj_label, obj.mor_label)
    if isinstance(obj, f2.FairDiagram):
        p = obj.p
        levels = tuple((s.text(), obj.level(s).n_obj, obj.level(s).n_mor)
                       for s in obj.shapes())
        return ("fair", levels, canon(p.points), canon(p.arrows), canon(p.units),
                canon(p.src), canon(p.tgt), canon(p.value), canon(p.as_arrow),
                canon(p.pair_arrows), canon(p.comp_arrows),
                canon(p.pair_units), canon(p.comp_units))
    if isinstance(obj, wg.Tr2Result):
        # the instance is an input and the diagram fills lazily; the segal
        # data and the chosen sections are what the strictification decides
        return ("tr2", obj.strategy, canon(obj.segal), canon(obj.retr))
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            canon(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return ("dict",) + tuple((canon(k), canon(v)) for k, v in sorted(obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(canon(v) for v in obj)
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    raise TypeError("no digest for %s" % type(obj).__name__)


def _is_verdict(obj):
    if isinstance(obj, str):
        return True
    if isinstance(obj, list):
        return all(isinstance(v, str) for v in obj)
    return isinstance(obj, dict) and all(isinstance(v, bool) for v in obj.values())


def digest(obj):
    """Pinned form of an output.

    Verdicts (a message, a list of violation lines, a dict of flags) are kept
    as they are, so the pins read as the expected answers; anything else is
    a hash of its ``canon`` form.
    """
    if _is_verdict(obj):
        return obj
    return hashlib.sha256(repr(canon(obj)).encode()).hexdigest()[:20]


# ---------------------------------------------------------------------------
# Workloads


@dataclasses.dataclass
class Workload:
    """Instance builders and entries for one named workload.

    builders: (instance name, make(instance seed)) pairs.  entries(inst,
    run, instance seed) gives (entry name, callable) pairs over the built
    instances, each calling ``run(key, fn, *args)`` once per stage.
    """

    name: str
    builders: list
    entries: object


def setup(workload, instance_seed):
    """Build every instance of the workload's corpus; {name: instance}.

    Only the random weakly globular instance reads the instance seed; stage
    keys on it carry the seed ("wg5..."), so pins stay per instance.
    """
    return {name: make(instance_seed) for name, make in workload.builders}


def _random_wg(seed):
    return wg.generate_random_wg(seed)[0]


def _tr2_build_entries(inst, run, seed):
    x, wgname = inst["wg"], "wg%d" % seed

    def tr2(strategy):
        def entry():
            key = "%s.tr2.%s" % (wgname, strategy)
            res = run(key, wg.tr2_strong_segalic, x, strategy)
            run(key + ".face_report", wg.tr2_face_report, res)
            run(key + ".segal_report", wg.tr2_segal_report, res)
        return entry

    def comparison():
        run(wgname + ".pi1_double", wg.pi1_double, x)
        run(wgname + ".is_2equivalence_double",
            lambda: wg.is_2equivalence_double(wg.identity_double_map(x)))

    return [("tr2.cleavage", tr2("cleavage")),
            ("tr2.retraction", tr2("retraction")),
            ("comparison", comparison)]


def _fair_rebase_entries(inst, run, seed):
    def family():
        d = run("family.pi_star", pi_star, inst["family"])
        run("family.validate_fairwg", f2.validate_fairwg, d)
        dd = run("family.discretize_fair", f2.discretize_fair, d, "cleavage")
        run("family.validate_fair2", f2.validate_fair2, dd)
        run("family.pi1_fair", f2.pi1_fair, dd)
        run("family.is_2equivalence_fair",
            lambda: f2.is_2equivalence_fair(f2.identity_fair_map(dd)))

    return [("family", family)]


def _tr2_coherence_entries(inst, run, seed):
    def nerve():
        res = run("nerve.tr2.cleavage", wg.tr2_strong_segalic, inst["nerve"], "cleavage")
        run("nerve.tr2.cleavage.validate_pseudo", ps.validate_pseudo, res.diagram, True)

    def failure():
        x = inst["micro"]
        run("micro.validate_catwg2", wg.validate_catwg2, x)
        run("micro.tr2.cleavage", wg.tr2_strong_segalic, x, "cleavage",
            expect=ValueError)

    return [("nerve.cleavage", nerve), ("micro", failure)]


WORKLOADS = {
    "tr2_build": Workload(
        "tr2_build",
        [("wg", _random_wg)],
        _tr2_build_entries),
    "fair_rebase": Workload(
        "fair_rebase",
        [("family", lambda seed: wg.generate_from_surjection(free_arrow(), [0, 0, 1])[0])],
        _fair_rebase_entries),
    "tr2_coherence": Workload(
        "tr2_coherence",
        [("nerve", lambda seed: wg.from_base_category(free_arrow())[0]),
         ("micro", lambda seed: wg.micro_counterexample())],
        _tr2_coherence_entries),
}
