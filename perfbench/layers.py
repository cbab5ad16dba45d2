"""Which library functions the traced run wraps, and the per-layer metrics.

Names follow the library: ``<module>.<function>`` or ``<module>.<Class>.<method>``.
Every wrapped function reports ``calls`` and ``self_s``; a few also report
counts read from their arguments or results:

- ``fincat.chain_fiber_product``: ``objects``, ``morphisms`` and
  ``composites`` (composable pairs) of the built product, summed over builds,
  and ``distinct_ratio``, the distinct (factors, constraint maps) values
  divided by builds;
- ``fincat.validate_functor.pairs_checked``: composable pairs of the source,
  which the exhaustive check walks;
- ``fincat.validate_nat.pairs_checked``: morphisms of the source, one
  naturality square each;
- ``fair2.FairDiagram.action.distinct_ratio``: distinct (diagram, map) calls
  divided by calls.

``pseudo.PseudoDiagram.cell`` and ``fair2.FairDiagram.chain`` are hot cache
lookups and are counted, not timed.
"""

from __future__ import annotations

from wgfair import deltasite as ds
from wgfair import fair2 as f2
from wgfair import fincat as fc
from wgfair import pseudo as ps
from wgfair import wgdouble as wg

from spans import composable_pairs


def _fiber_product(tracer, args, chain):
    name = "fincat.chain_fiber_product"
    counts = tracer.counts
    counts[name + ".objects"] += chain.cat.n_obj
    counts[name + ".morphisms"] += chain.cat.n_mor
    counts[name + ".composites"] += composable_pairs(chain.cat)
    factors, right, left = args
    tracer.note_distinct(name, (
        tuple(tracer.cat_key(c) for c in factors),
        tuple(tracer.functor_key(f) for f in right),
        tuple(tracer.functor_key(f) for f in left)))


def _functor_checked(tracer, args, _result):
    tracer.counts["fincat.validate_functor.pairs_checked"] += composable_pairs(args[0].source)


def _nat_checked(tracer, args, _result):
    tracer.counts["fincat.validate_nat.pairs_checked"] += args[0].source.source.n_mor


def _fair_action(tracer, args, _result):
    tracer.note_distinct("fair2.FairDiagram.action", args)


def _spans(owner, prefix, attrs):
    return [(owner, a, "%s.%s" % (prefix, a), "span", None) for a in attrs]


TARGETS = (
    [(fc, "chain_fiber_product", "fincat.chain_fiber_product", "span", _fiber_product),
     (fc, "validate_functor", "fincat.validate_functor", "span", _functor_checked),
     (fc, "validate_nat", "fincat.validate_nat", "span", _nat_checked),
     (fc.FinCat, "__eq__", "fincat.FinCat.__eq__", "span", None)]
    + _spans(fc, "fincat", ["compose_functors", "mediating_functor", "equivalence_flags",
                            "retraction_pseudo_inverse", "iso_classes", "discretize"])
    + _spans(ps, "pseudo", ["validate_pseudo"])
    + [(ps.PseudoDiagram, "cell", "pseudo.PseudoDiagram.cell", "count", None)]
    + _spans(wg, "wgdouble", ["from_generators", "validate_catwg2", "segal_data",
                              "build_cleavage", "segal_retractions",
                              "tr2_strong_segalic", "tr2_face_report"])
    + [(wg.WGDouble, "nerve_action", "wgdouble.WGDouble.nerve_action", "span", None)]
    + _spans(f2, "fair2", ["from_presentation", "build_fair", "validate_fairwg",
                           "class_chain", "pair_retractions", "discretize_fair",
                           "validate_fair2"])
    + [(f2.FairDiagram, "action", "fair2.FairDiagram.action", "span", _fair_action),
       (f2.FairDiagram, "chain", "fair2.FairDiagram.chain", "count", None)]
    + _spans(ds, "deltasite", ["enumerate_hom", "compose_fat"])
)

EXTRA_COUNTS = {
    "fincat.chain_fiber_product": ("objects", "morphisms", "composites"),
    "fincat.validate_functor": ("pairs_checked",),
    "fincat.validate_nat": ("pairs_checked",),
}
DISTINCT = ("fincat.chain_fiber_product", "fair2.FairDiagram.action")


def metric_units():
    """{per-layer metric name: unit}, in a fixed order."""
    units = {}
    for _owner, _attr, name, kind, _extra in TARGETS:
        units[name + ".calls"] = "count"
        if kind == "span":
            units[name + ".self_s"] = "s"
        for extra in EXTRA_COUNTS.get(name, ()):
            units["%s.%s" % (name, extra)] = "count"
        if name in DISTINCT:
            units[name + ".distinct_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


def layer_metrics(tracer):
    """{per-layer metric name: value} from one traced pass (overhead excluded)."""
    totals = tracer.layer_totals()
    distinct = tracer.distinct_counts()
    out = {}
    for _owner, _attr, name, kind, _extra in TARGETS:
        if kind == "span":
            calls, self_s = totals.get(name, (0, 0.0))
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
        else:
            calls = tracer.counts[name + ".calls"]
            out[name + ".calls"] = calls
        for extra in EXTRA_COUNTS.get(name, ()):
            out["%s.%s" % (name, extra)] = tracer.counts["%s.%s" % (name, extra)]
        if name in DISTINCT:
            out[name + ".distinct_ratio"] = distinct.get(name, 0) / calls if calls else 0.0
    return out
