"""Fiber products compose on demand: checks against the eager composition table.

``eager_chain_fiber_product`` is the construction that fills one table entry
per composable pair of tuples up front.  It is kept here only as the oracle
for the on-demand composition of ``fincat.chain_fiber_product``.
"""

import pytest

from wgfair import fair2 as f2
from wgfair import fincat as fc
from wgfair import wgdouble as wg

import corpus
from corpus import free_arrow

# products with at most this many morphisms get every non-composable pair
# checked; larger ones get one per (morphism, foreign object)
EXHAUSTIVE_MOR = 200


def eager_chain_fiber_product(factors, right_maps, left_maps):
    k = len(factors)

    def tuples(sizes, right_of, left_of):
        out = [(v,) for v in range(sizes[0])]
        for i in range(1, k):
            buckets = {}
            for v in range(sizes[i]):
                buckets.setdefault(left_of[i - 1](v), []).append(v)
            out = [t + (v,) for t in out for v in buckets.get(right_of[i - 1](t[-1]), ())]
        return out

    objs = tuples([c.n_obj for c in factors],
                  [r.obj for r in right_maps], [l.obj for l in left_maps])
    mors = tuples([c.n_mor for c in factors],
                  [r.mor for r in right_maps], [l.mor for l in left_maps])
    obj_id = {t: i for i, t in enumerate(objs)}
    mor_id = {t: i for i, t in enumerate(mors)}
    src = [obj_id[tuple(factors[i].src[t[i]] for i in range(k))] for t in mors]
    tgt = [obj_id[tuple(factors[i].tgt[t[i]] for i in range(k))] for t in mors]
    identity = [mor_id[tuple(factors[i].identity[t[i]] for i in range(k))] for t in objs]
    by_src = {}
    for i, x in enumerate(src):
        by_src.setdefault(x, []).append(i)
    comp = {}
    for fi, f in enumerate(mors):
        for gi in by_src.get(tgt[fi], ()):
            g = mors[gi]
            comp[(gi, fi)] = mor_id[tuple(factors[i].comp[(g[i], f[i])] for i in range(k))]
    cat = fc.FinCat(len(objs), src, tgt, identity, comp)
    return cat, tuple(objs), tuple(mors)


def check_against_oracle(factors, right_maps, left_maps):
    chain = fc.chain_fiber_product(factors, right_maps, left_maps)
    oracle, obj_label, mor_label = eager_chain_fiber_product(factors, right_maps, left_maps)
    lazy = chain.cat
    assert (chain.obj_label, chain.mor_label) == (obj_label, mor_label)
    assert (lazy.n_obj, lazy.src, lazy.tgt, lazy.identity) == \
        (oracle.n_obj, oracle.src, oracle.tgt, oracle.identity)

    # entry-wise access first, while the table is still unforced
    for m in range(lazy.n_mor):
        assert lazy.inverse(m) == oracle.inverse(m)
    assert fc.iso_classes(lazy) == fc.iso_classes(oracle)
    for (g, f), h in oracle.comp.items():
        assert lazy.compose(g, f) == h
    n = lazy.n_mor
    if n <= EXHAUSTIVE_MOR:
        candidates = range(n)
    else:
        first_into = {}
        for f in range(n):
            first_into.setdefault(lazy.tgt[f], f)
        candidates = sorted(first_into.values())
    composed = []
    for g in range(n):
        for f in [f for f in candidates if lazy.tgt[f] != lazy.src[g]] + [-1, n]:
            try:
                composed.append((g, f, lazy.compose(g, f)))
            except ValueError:
                pass
    assert composed == []
    assert lazy._rule is not None, "compose/inverse must not force the table"

    assert list(lazy.comp.items()) == list(oracle.comp.items())
    assert type(lazy.comp) is dict
    assert lazy == oracle and oracle == lazy


def recorded_products(monkeypatch, build):
    """(factors, right maps, left maps) of every distinct fiber product build() makes."""
    seen = {}
    real = fc.chain_fiber_product

    def spy(factors, right_maps, left_maps):
        key = tuple(map(id, factors)) + tuple(
            (id(m.target), m.obj_map, m.mor_map) for m in right_maps + left_maps)
        seen.setdefault(key, (factors, right_maps, left_maps))
        return real(factors, right_maps, left_maps)

    monkeypatch.setattr(fc, "chain_fiber_product", spy)
    build()
    monkeypatch.setattr(fc, "chain_fiber_product", real)
    return list(seen.values())


def _nerve_products():
    wg.segal_data(corpus.double("nerve"))


def _family_fair_products():
    d = f2.pi_star(corpus.double("family"))
    f2.validate_fairwg(d)
    f2.discretize_fair(d)


def _wg_products(seed):
    def build():
        wg.segal_data(corpus.double("seed %d" % seed))
    return build


def _micro_products():
    wg.segal_data(corpus.double("micro"))


def _pullback_products():
    # the cospans of the pullback tests in test_fincat
    a, b, t, d = free_arrow(), fc.chaotic(2), fc.discrete(1), fc.discrete(2)
    fc.chain_fiber_product([a, b], [fc.FunctorMap(a, t, (0, 0), (0, 0, 0))],
                           [fc.FunctorMap(b, t, (0, 0), (0, 0, 0, 0))])
    f = fc.FunctorMap(d, b, (0, 1), (b.identity[0], b.identity[1]))
    fc.chain_fiber_product([d, b], [f], [fc.identity_functor(b)])
    fc.chain_fiber_product([d, d], [f], [f])
    a2, _, _ = fc.disjoint_union([fc.chaotic(2), fc.discrete(1)])
    b2, _, _ = fc.disjoint_union([fc.discrete(2), fc.chaotic(2)])
    fc.chain_fiber_product([a2, b2], [fc.FunctorMap(a2, d, (0, 0, 1), (0, 0, 0, 0, 1))],
                           [fc.FunctorMap(b2, d, (0, 0, 1, 1), (0, 0, 1, 1, 1, 1))])


@pytest.mark.parametrize("build", [
    _nerve_products, _family_fair_products, _wg_products(4), _wg_products(5),
    _wg_products(6), _micro_products, _pullback_products,
], ids=["nerve", "family-fair", "wg4", "wg5", "wg6", "micro", "pullbacks"])
def test_products_agree_with_the_eager_table(monkeypatch, build):
    products = recorded_products(monkeypatch, build)
    assert products
    for factors, right_maps, left_maps in products:
        check_against_oracle(factors, right_maps, left_maps)


def test_retraction_touches_few_entries_of_hat3():
    sd = wg.segal_data(corpus.double("seed 5"))
    hat3 = sd.hat3.cat
    into = {}
    for y in hat3.tgt:
        into[y] = into.get(y, 0) + 1
    pairs = sum(into.get(x, 0) for x in hat3.src)
    fc.retraction_pseudo_inverse(sd.muhat3)
    assert hat3._rule is not None
    assert 0 < len(hat3._comp) * 10 < pairs


def test_table_and_rule_are_exclusive():
    with pytest.raises(ValueError):
        fc.FinCat(1, (0,), (0,), (0,))
    with pytest.raises(ValueError):
        fc.FinCat(1, (0,), (0,), (0,), {(0, 0): 0}, rule=lambda g, f: 0)


def test_segal_data_is_built_once_per_instance():
    x = corpus.double("family")
    sd = wg.segal_data(x)
    assert wg.segal_data(x) is sd
    wg.validate_catwg2(x)
    assert wg.tr2_strong_segalic(x).segal is sd


def test_segal_data_failure_is_not_cached():
    # level zero is the free arrow, which is not homotopically discrete
    x0 = free_arrow()
    ident = fc.identity_functor(x0)
    x = wg.from_generators(x0, x0, ident, ident, ident,
                           lambda f, g: f, lambda m, n: m)
    for _ in range(2):
        with pytest.raises(ValueError, match="not homotopically discrete"):
            wg.segal_data(x)
    assert x._segal is None


def test_builders_leave_pair_tables_unforced():
    # both builders check the composition functor on generators, entry by
    # entry, so no stage below fills in a strict pair chain's whole table
    x = corpus.double("family")
    d = f2.pi_star(x)
    rebased = f2.discretize_fair(d)
    chains = {"from_generators": x.pairs,
              "pi_star arrows": d.p.pair_arrows, "pi_star units": d.p.pair_units,
              "discretize_fair arrows": rebased.p.pair_arrows,
              "discretize_fair units": rebased.p.pair_units}
    assert [name for name, chain in chains.items() if chain.cat._rule is None] == []
