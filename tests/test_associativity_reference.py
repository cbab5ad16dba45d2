"""``anchored.check_associative`` against the triples-based check it replaced.

``reference_check_associative`` walks the strict chain of composable
triples, which the builders used to materialize for it.  The library now
joins the pair chain on its middle entry instead; it must raise at the same
first triple with the same message, or not raise where the reference does
not, on every horizontal table of three arrows over one point, on tables
that fail only on cells, and on every corpus instance.
"""

import itertools
import random

import pytest

import corpus
from wgfair import anchored as an
from wgfair import fair2 as f2
from wgfair import fincat as fc


def reference_check_associative(triples, pairs, comp, tag):
    """ValueError at the first triple, objects before morphisms, where comp does not associate."""
    for labels, pid, c in ((triples.obj_label, pairs.obj_id, comp.obj_map),
                           (triples.mor_label, pairs.mor_id, comp.mor_map)):
        for t in labels:
            f, g, h = t
            if c[pid[(c[pid[(f, g)]], h)]] != c[pid[(f, c[pid[(g, h)]])]]:
                raise ValueError("%scomposition is not associative at triple %r" % (tag, t))


def message(check, *args):
    try:
        check(*args)
    except ValueError as err:
        return str(err)
    return None


def agree(pairs, triples, comp, tag=""):
    """The library's message, after checking that the reference gives the same one."""
    got = message(an.check_associative, pairs, comp, tag)
    assert got == message(reference_check_associative, triples, pairs, comp, tag)
    return got


def over_a_point(level):
    """(pairs, triples) of a level all of whose arrows and cells sit over one point."""
    point = fc.discrete(1)
    to = fc.FunctorMap(level, point, [0] * level.n_obj, [0] * level.n_mor)
    return (fc.chain_fiber_product([level] * 2, [to], [to]),
            fc.chain_fiber_product([level] * 3, [to] * 2, [to] * 2))


def test_every_table_of_three_arrows_over_a_point():
    level = fc.discrete(3)
    pairs, triples = over_a_point(level)
    failures = set()
    for table in itertools.product(range(3), repeat=9):
        obj = [table[3 * f + g] for f, g in pairs.obj_label]
        mor = [level.identity[table[3 * level.src[m] + level.src[n]]]
               for m, n in pairs.mor_label]
        got = agree(pairs, triples, fc.FunctorMap(pairs.cat, level, obj, mor))
        if got is not None:
            failures.add(got)
    # the first failing triple takes many values, so a walk in another order shows
    assert len(failures) == 26


def klein_cells():
    """Over one point: the unit arrow 0 with no cells, the arrow 1 with the Klein group."""
    klein = fc.FinCat(1, (0,) * 4, (0,) * 4, (0,),
                      {(g, f): g ^ f for g in range(4) for f in range(4)})
    return fc.disjoint_union([fc.discrete(1), klein])[0]


def cell_tables():
    """Cell products x . y = A x + B y for A, B linear on the Klein group, then 500 random ones."""
    maps = [lambda v, a=a, b=b: (a if v & 1 else 0) ^ (b if v & 2 else 0)
            for a in range(4) for b in range(4)]
    for A, B in itertools.product(maps, repeat=2):
        yield {(m, n): A(m) ^ B(n) for m in range(4) for n in range(4)}
    rng = random.Random(7)
    for _ in range(500):
        yield {(m, n): rng.randrange(4) for m in range(4) for n in range(4)}


def test_tables_that_fail_only_on_cells():
    # the arrows compose by max, which associates; the cells of the arrow 1
    # (morphisms 1 to 4) compose by the table, the unit's identity cell 0 is neutral
    level = klein_cells()
    pairs, triples = over_a_point(level)
    obj = [max(f, g) for f, g in pairs.obj_label]
    failures = []
    for products in cell_tables():
        mor = [m + n if 0 in (m, n) else 1 + products[(m - 1, n - 1)]
               for m, n in pairs.mor_label]
        got = agree(pairs, triples, fc.FunctorMap(pairs.cat, level, obj, mor))
        if got is not None:
            failures.append(got)
    assert (len(failures), len(set(failures))) == (716, 15)


@pytest.mark.parametrize("name", ["nerve", "family", "tf2", "micro"] + corpus.seeds((4, 5, 6)))
def test_every_corpus_instance(name):
    x = corpus.double(name)
    assert agree(x.pairs, x.chain(3), x.comp) is None
    p = f2.pi_star(x).p
    for tag, level, end, start, pairs, comp in (
            ("", p.arrows, p.tgt, p.src, p.pair_arrows, p.comp_arrows),
            ("unit ", p.units, p.value, p.value, p.pair_units, p.comp_units)):
        triples = fc.chain_fiber_product([level] * 3, [end] * 2, [start] * 2)
        assert agree(pairs, triples, comp, tag) is None
