"""One simplicial structure per double category: checks against mediating functors.

``WGDouble.nerve_action`` is the only simplicial structure an instance
carries, and ``from_generators`` builds levels two and three as the strict
chains of composable tuples.  The code below is what it replaced: face and
degeneracy functors assembled level by level from projections and mediating
functors, the report of every simplicial identity between them within
levels 0..3, and the strict k-tuples that axiom (b) enumerated.  It is kept
here only as the oracle, on a corpus of named instances and on a sweep of
small generating data.
"""

import collections
import functools
import itertools
import re

import pytest

from wgfair import deltasite as ds
from wgfair import fincat as fc
from wgfair import wgdouble as wg

import corpus


class ReferenceSimplicial:
    """Faces and degeneracies of an instance, built from mediating functors."""

    def __init__(self, x):
        self.x = x
        self._faces = {}
        self._degens = {}

    def level(self, k):
        return self.x.level(k)

    def face(self, k, i):
        """The i-th face functor level(k) -> level(k-1)."""
        x = self.x
        if (k, i) not in self._faces:
            pr2 = x.pairs.projections
            pr3 = x.chain(3).projections
            if k == 1:
                fun = (x.d0, x.d1)[i]
            elif k == 2:
                fun = (pr2[1], x.comp, pr2[0])[i]
            else:
                mid = fc.mediating_functor
                first = mid(x.pairs, [pr3[0], pr3[1]])
                last = mid(x.pairs, [pr3[1], pr3[2]])
                fun = (last,
                       mid(x.pairs, [fc.compose_functors(x.comp, first), pr3[2]]),
                       mid(x.pairs, [pr3[0], fc.compose_functors(x.comp, last)]),
                       first)[i]
            self._faces[(k, i)] = fun
        return self._faces[(k, i)]

    def degen(self, k, i):
        """The i-th degeneracy functor level(k) -> level(k+1)."""
        x = self.x
        if (k, i) not in self._degens:
            mid = fc.mediating_functor
            one = fc.identity_functor(x.x1)
            if k == 0:
                fun = x.s0
            elif k == 1:
                us = fc.compose_functors(x.s0, x.d1)
                ut = fc.compose_functors(x.s0, x.d0)
                fun = mid(x.pairs, [us, one]) if i == 0 else mid(x.pairs, [one, ut])
            else:
                pr = x.pairs.projections
                us = fc.compose_functors(x.s0, fc.compose_functors(x.d1, pr[0]))
                u1 = fc.compose_functors(x.s0, fc.compose_functors(x.d0, pr[0]))
                u2 = fc.compose_functors(x.s0, fc.compose_functors(x.d0, pr[1]))
                legs = ([us, pr[0], pr[1]], [pr[0], u1, pr[1]], [pr[0], pr[1], u2])[i]
                fun = mid(x.chain(3), legs)
            self._degens[(k, i)] = fun
        return self._degens[(k, i)]


def simplicial_identity_report(x):
    """Every face/degeneracy identity expressible within levels 0..3."""
    x = ReferenceSimplicial(x)
    problems = []

    def eq(tag, left, right):
        if left != right:
            problems.append(tag)

    for k in (2, 3):
        for j in range(k + 1):
            for i in range(j):
                eq("face-face (%d,%d) at level %d" % (i, j, k),
                   fc.compose_functors(x.face(k - 1, i), x.face(k, j)),
                   fc.compose_functors(x.face(k - 1, j - 1), x.face(k, i)))
    for k in (0, 1):
        for j in range(k + 1):
            for i in range(j + 1):
                eq("degeneracy-degeneracy (%d,%d) at level %d" % (i, j, k),
                   fc.compose_functors(x.degen(k + 1, i), x.degen(k, j)),
                   fc.compose_functors(x.degen(k + 1, j + 1), x.degen(k, i)))
    for k in (0, 1, 2):
        for j in range(k + 1):
            for i in range(k + 2):
                left = fc.compose_functors(x.face(k + 1, i), x.degen(k, j))
                if i == j or i == j + 1:
                    right = fc.identity_functor(x.level(k))
                elif i < j:
                    right = fc.compose_functors(x.degen(k - 1, j - 1), x.face(k, i))
                else:
                    right = fc.compose_functors(x.degen(k - 1, j), x.face(k, i - 1))
                eq("face-degeneracy (%d,%d) at level %d" % (i, j, k), left, right)
    return problems


def strict_tuples(k, count, d0, d1):
    """Every k-tuple of level-one elements (objects or morphisms) matching d0 to d1."""
    out = {(a,) for a in range(count)}
    for _ in range(k - 1):
        out = {t + (b,) for t in out for b in range(count) if d0[t[-1]] == d1[b]}
    return out


# -- the corpus --------------------------------------------------------------


CORPUS = corpus.builders(["nerve", "family", "tf2", "micro"]
                         + corpus.seeds(list(range(12)) + [19, 33]))


@functools.lru_cache(maxsize=None)
def instance(name):
    return CORPUS[name]()


@pytest.mark.parametrize("name", CORPUS)
def test_nerve_action_matches_faces_and_degeneracies(name):
    x = instance(name)
    ref = ReferenceSimplicial(x)
    for k in (1, 2, 3):
        for i in range(k + 1):
            assert x.nerve_action(ds.coface(i, k)) == ref.face(k, i)
    for k in (0, 1, 2):
        for i in range(k + 1):
            assert x.nerve_action(ds.codegeneracy(i, k)) == ref.degen(k, i)


@pytest.mark.parametrize("name", CORPUS)
def test_reference_simplicial_identities_hold(name):
    assert simplicial_identity_report(instance(name)) == []


@pytest.mark.parametrize("name", CORPUS)
def test_chains_are_the_strict_tuples(name):
    x = instance(name)
    for k in (1, 2, 3):
        chain = x.chain(k)
        assert set(chain.obj_label) == strict_tuples(k, x.x1.n_obj, x.d0.obj_map, x.d1.obj_map)
        assert set(chain.mor_label) == strict_tuples(k, x.x1.n_mor, x.d0.mor_map, x.d1.mor_map)


# -- a sweep of small generating data ----------------------------------------


def one_object(products):
    """A monoid of order two as a one-object category, element 0 the unit."""
    return fc.FinCat(1, (0, 0), (0, 0), (0,),
                     {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): products})


def lookup(table):
    return lambda u, v: table[(u, v)]


def sweep_inputs():
    """Generating data over one point: every composition of a small level one.

    Level one is discrete on n objects with every object table for n <= 2
    and every table with unit 0 for n = 3, or one of the two monoids of
    order two with every morphism table.  One-object level ones alone
    cannot fail associativity once the unit laws hold (Eckmann-Hilton),
    hence the discrete ones with several arrows.
    """
    x0 = fc.discrete(1)
    for n in (1, 2, 3):
        x1 = fc.discrete(n)
        free = [(u, v) for u in range(n) for v in range(n) if n < 3 or 0 not in (u, v)]
        for values in itertools.product(range(n), repeat=len(free)):
            table = {(u, v): u if v == 0 else v for u in range(n) for v in range(n)}
            table.update(zip(free, values))
            yield x0, x1, lookup(table), lookup(table)
    for products in (0, 1):
        x1 = one_object(products)
        pairs = list(itertools.product(range(2), repeat=2))
        for values in itertools.product(range(2), repeat=4):
            yield x0, x1, lookup({(0, 0): 0}), lookup(dict(zip(pairs, values)))


def test_small_generating_data_sweep():
    # the counts include rejections by a unit law and by associativity, so
    # the accepted inputs are not all there is
    kinds = collections.Counter()
    for x0, x1, compose_obj, compose_mor in sweep_inputs():
        to_point = fc.FunctorMap(x1, x0, [0] * x1.n_obj, [0] * x1.n_mor)
        s0 = fc.FunctorMap(x0, x1, [0], [0])
        try:
            x = wg.from_generators(x0, x1, to_point, to_point, s0, compose_obj, compose_mor)
        except ValueError as err:
            kinds[re.sub(r" at .*|: .*", "", str(err))] += 1
            continue
        kinds["accepted"] += 1
        assert simplicial_identity_report(x) == []
    assert kinds == {"accepted": 16, "left unit law fails": 16, "right unit law fails": 4,
                     "composition is not associative": 70,
                     "composition is not functorial": 24}
