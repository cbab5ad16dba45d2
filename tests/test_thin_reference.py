"""Thin categories built by one constructor: checks against hand-built tables.

``discrete``, ``chaotic`` and the two levels of ``generate_from_surjection``
are all thin categories made by ``fincat.thin_from_preorder``.  The functions
below are the constructions they replaced, each filling its tables by its
own loops; they are kept here only as the oracle.  Every table is compared
in order (``list(comp.items())``), so ids and enumeration order must agree,
not just the categories up to isomorphism.
"""

import pytest

from wgfair import fincat as fc
from wgfair import wgdouble as wg

import corpus


def reference_discrete(n):
    ids = tuple(range(n))
    return fc.FinCat(n, ids, ids, ids, {(i, i): i for i in ids})


def reference_chaotic(n):
    src = tuple(m // n for m in range(n * n))
    tgt = tuple(m % n for m in range(n * n))
    identity = tuple(x * n + x for x in range(n))
    comp = {}
    for x in range(n):
        for y in range(n):
            for z in range(n):
                comp[(y * n + z, x * n + y)] = x * n + z
    return fc.FinCat(n, src, tgt, identity, comp)


def reference_thin(n, pairs):
    labels = sorted(set(pairs))
    mor_id = {t: i for i, t in enumerate(labels)}
    comp = {}
    for (x, y) in labels:
        for (y2, z) in labels:
            if y2 == y:
                comp[(mor_id[(y, z)], mor_id[(x, y)])] = mor_id[(x, z)]
    return fc.FinCat(n, [t[0] for t in labels], [t[1] for t in labels],
                     [mor_id[(x, x)] for x in range(n)], comp)


def reference_surjection(base, assignment):
    """The levels, faces, unit map, composite and lookup tables, built by hand."""
    ns = len(assignment)
    m0_id = {}
    m0_src, m0_tgt = [], []
    for s in range(ns):
        for u in range(ns):
            if assignment[s] == assignment[u]:
                m0_id[(s, u)] = len(m0_src)
                m0_src.append(s)
                m0_tgt.append(u)
    comp0 = {}
    for (s, u), i in m0_id.items():
        for (u2, v), j in m0_id.items():
            if u2 == u:
                comp0[(j, i)] = m0_id[(s, v)]
    x0 = fc.FinCat(ns, m0_src, m0_tgt, [m0_id[(s, s)] for s in range(ns)], comp0)

    triples = []
    t_id = {}
    for s in range(ns):
        for s2 in range(ns):
            for b in base.hom(assignment[s], assignment[s2]):
                t_id[(s, b, s2)] = len(triples)
                triples.append((s, b, s2))
    m1_id = {}
    m1_src, m1_tgt = [], []
    for i, (s, b, s2) in enumerate(triples):
        for j, (u, b2, u2) in enumerate(triples):
            if b == b2:
                m1_id[(i, j)] = len(m1_src)
                m1_src.append(i)
                m1_tgt.append(j)
    comp1 = {}
    for (i, j), a in m1_id.items():
        for (j2, l), c in m1_id.items():
            if j2 == j:
                comp1[(c, a)] = m1_id[(i, l)]
    x1 = fc.FinCat(len(triples), m1_src, m1_tgt,
                   [m1_id[(i, i)] for i in range(len(triples))], comp1)

    d1 = ([t[0] for t in triples],
          [m0_id[(triples[m1_src[m]][0], triples[m1_tgt[m]][0])] for m in range(len(m1_src))])
    d0 = ([t[2] for t in triples],
          [m0_id[(triples[m1_src[m]][2], triples[m1_tgt[m]][2])] for m in range(len(m1_src))])
    s0 = ([t_id[(s, base.identity[assignment[s]], s)] for s in range(ns)],
          [m1_id[(t_id[(m0_src[m], base.identity[assignment[m0_src[m]]], m0_src[m])],
                  t_id[(m0_tgt[m], base.identity[assignment[m0_tgt[m]]], m0_tgt[m])])]
           for m in range(len(m0_src))])

    def compose_obj(i, j):
        s, b, _ = triples[i]
        _, b2, s3 = triples[j]
        return t_id[(s, base.compose(b2, b), s3)]

    def compose_mor(m, m2):
        return m1_id[(compose_obj(m1_src[m], m1_src[m2]),
                      compose_obj(m1_tgt[m], m1_tgt[m2]))]

    aux = {"triples": tuple(triples), "triple_id": t_id,
           "x0_mor_id": m0_id, "x1_mor_id": m1_id}
    return x0, x1, d0, d1, s0, compose_obj, compose_mor, aux


def tables(cat):
    """Everything a category holds, composition in its enumeration order."""
    return cat.n_obj, cat.src, cat.tgt, cat.identity, list(cat.comp.items())


def maps(fun):
    return list(fun.obj_map), list(fun.mor_map)


@pytest.mark.parametrize("n", range(6))
def test_discrete_and_chaotic_match_the_hand_built_tables(n):
    assert tables(fc.discrete(n)) == tables(reference_discrete(n))
    assert tables(fc.chaotic(n)) == tables(reference_chaotic(n))


def test_micro_counterexample_levels_match_the_hand_built_tables():
    x = wg.micro_counterexample()
    union, _, _ = fc.disjoint_union([reference_chaotic(2), reference_discrete(1)])
    assert tables(x.x0) == tables(reference_chaotic(2))
    assert tables(x.x1) == tables(union)


SURJECTIONS = corpus.builders(["nerve", "family"] + corpus.seeds(list(range(12)) + [19, 33]),
                              corpus.surjection)


@pytest.mark.parametrize("name", SURJECTIONS)
def test_surjection_instances_match_the_hand_built_tables(name):
    x, aux = SURJECTIONS[name]()
    base = aux["base"]
    ref_base = reference_thin(base.n_obj, zip(base.src, base.tgt))
    assert tables(base) == tables(ref_base)
    x0, x1, d0, d1, s0, compose_obj, compose_mor, ref_aux = \
        reference_surjection(ref_base, aux["assignment"])
    assert tables(x.x0) == tables(x0)
    assert tables(x.x1) == tables(x1)
    assert (maps(x.d0), maps(x.d1), maps(x.s0)) == (d0, d1, s0)
    assert maps(x.comp) == ([compose_obj(*t) for t in x.pairs.obj_label],
                            [compose_mor(*t) for t in x.pairs.mor_label])
    assert aux["triples"] == ref_aux["triples"]
    for key in ("triple_id", "x0_mor_id", "x1_mor_id"):
        assert list(aux[key].items()) == list(ref_aux[key].items())
