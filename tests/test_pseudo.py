"""The coherence check of validate_pseudo against a per-triple reference."""

from __future__ import annotations

import pytest

from wgfair import fincat as fc
from wgfair import pseudo as ps

# the one-object category of Z/2: morphism 0 is the identity, 1 the generator
Z2 = fc.FinCat(1, [0, 0], [0, 0], [0], {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0})


def twisted_constant(site):
    """Constant Z/2 diagram, identity actions, the generator on some cells.

    Z/2 is abelian, so every such cell is natural and invertible and only the
    cocycle law can fail.
    """
    ident = fc.identity_functor(Z2)

    def cell(g, f):
        if f.values[0] == 0 and g.tgt_rank == 2:
            return fc.NatTransf(ident, ident, [1])
        return None

    return ps.PseudoDiagram(site, lambda a: Z2, lambda f: ident, cell)


def twisted_swap(site):
    """Constant diagram on two copies of Z/3, with actions that move objects.

    A map whose ranks differ by an odd number swaps the copies and negates,
    which is a strict action; each cell component is a power of the
    generator that depends on the pair and the object.  Unlike the Z/2
    diagram, the cocycle law here tells the four cells apart and reads the
    object maps of the actions.
    """
    z3 = fc.FinCat(1, [0] * 3, [0] * 3, [0], {(i, j): (i + j) % 3
                                              for i in range(3) for j in range(3)})
    level = fc.disjoint_union([z3, z3])[0]
    ident = fc.identity_functor(level)
    # morphism 3c + k is the k-th power of the generator on copy c
    swap = fc.FunctorMap(level, level, [1, 0], [(1 - m // 3) * 3 + (-m) % 3 for m in range(6)])

    def action(f):
        return swap if (f.tgt_rank - f.src_rank) % 2 else ident

    def cell(g, f):
        composite = fc.compose_functors(action(f), action(g))
        power = sum(g.values) + 2 * sum(f.values)
        return fc.NatTransf(composite, action(site.compose(g, f)),
                            [3 * x + (power + y) % 3
                             for y, x in enumerate(composite.obj_map)])

    return ps.PseudoDiagram(site, lambda a: level, action, cell)


DIAGRAMS = {"z2": twisted_constant, "swap": twisted_swap}


def triples(site):
    for a in site.objects:
        for b in site.objects:
            for f in site.hom(a, b):
                for c in site.objects:
                    for g in site.hom(b, c):
                        for d in site.objects:
                            for h in site.hom(c, d):
                                yield h, g, f


def reference_coherence(diagram, max_problems):
    """The per-triple loop validate_pseudo used before numbering the maps."""
    site = diagram.site
    problems = []

    def note(msg):
        problems.append(msg)
        return len(problems) >= max_problems

    comps = {a: diagram.level(a).comp for a in site.objects}
    for h, g, f in triples(site):
        gf = site.compose(g, f)
        hg = site.compose(h, g)
        act_f, act_h = diagram.action(f), diagram.action(h)
        cell_gf = diagram.cell(g, f)
        cell_h_gf = diagram.cell(h, gf)
        cell_hg = diagram.cell(h, g)
        cell_hg_f = diagram.cell(hg, f)
        top = diagram.level(site.tgt(h))
        comp = comps[site.src(f)]
        outer, inner = cell_h_gf.components, cell_gf.components
        outer2, inner2 = cell_hg_f.components, cell_hg.components
        ah, af = act_h.obj_map, act_f.mor_map
        for y in range(top.n_obj):
            one = comp[(outer[y], inner[ah[y]])]
            two = comp[(outer2[y], af[inner2[y]])]
            if one != two:
                if note("coherence fails at (%r, %r, %r) on object %d" % (h, g, f, y)):
                    break
        if len(problems) >= max_problems:
            return problems
    return problems


@pytest.mark.parametrize("name, failures", [("z2", 1260), ("swap", 5054)])
def test_twisted_diagrams_fail_only_coherence(name, failures):
    diagram = DIAGRAMS[name](ps.OrdinalSite(2))
    assert ps.validate_pseudo(diagram, coherence=False) == []
    assert len(ps.validate_pseudo(diagram, max_problems=10**6)) == failures


@pytest.mark.parametrize("name", sorted(DIAGRAMS))
@pytest.mark.parametrize("max_problems", [1, 3, 20, 10**6])
def test_coherence_matches_the_per_triple_reference(name, max_problems):
    diagram = DIAGRAMS[name](ps.OrdinalSite(2))
    expected = reference_coherence(diagram, max_problems)
    assert expected
    assert ps.validate_pseudo(diagram, max_problems=max_problems) == expected


def test_max_problems_below_one_stops_at_the_first_coherence_failure():
    # the per-triple loop returned [] here: it stopped after the first triple
    # even when that triple was coherent
    diagram = twisted_constant(ps.OrdinalSite(2))
    assert ps.validate_pseudo(diagram, max_problems=0) == reference_coherence(diagram, 1)


def test_is_identity_matches_the_identity_simplex():
    site = ps.OrdinalSite(3)
    for a in site.objects:
        for b in site.objects:
            for f in site.hom(a, b):
                assert site.is_identity(f) == (f == site.identity(a))
